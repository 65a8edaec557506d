"""Taxonomy infrastructure and ontology-backed sentence similarity.

A taxonomy is a rooted DAG of concept identifiers given as
``child<TAB>parent`` edges. Word-level similarities (shortest-path and
information-content based) are lifted to sentences through a semantic
vector over the joint word set of both sentences.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable
from pathlib import Path

from .strsim import EmptyInputError


class TaxonomyError(ValueError):
    """Malformed taxonomy: cycles, multiple roots, or unknown concepts."""


class Taxonomy:
    """Rooted DAG with cached depth, leaf and subsumer information."""

    def __init__(self, edges: Iterable[tuple[str, str]]):
        parents: dict[str, set[str]] = {}
        children: dict[str, set[str]] = {}
        nodes: set[str] = set()
        for child, parent in edges:
            nodes.update((child, parent))
            parents.setdefault(child, set()).add(parent)
            children.setdefault(parent, set()).add(child)
        if not nodes:
            raise TaxonomyError("taxonomy has no nodes")
        roots = [n for n in nodes if n not in parents]
        if len(roots) != 1:
            raise TaxonomyError(f"expected exactly one root, found {len(roots)}")
        self.root = roots[0]
        self._parents = {n: frozenset(parents.get(n, ())) for n in nodes}
        self._children = {n: frozenset(children.get(n, ())) for n in nodes}
        self.nodes = frozenset(nodes)
        self._topo = self._topo_sort()
        self._depth = self._compute_depths()
        if len(self._depth) != len(nodes):
            unreachable = nodes - self._depth.keys()
            raise TaxonomyError(f"{len(unreachable)} nodes unreachable from root")
        self.max_depth = max(self._depth.values())
        self._ancestors = self._compute_ancestors()
        self._leaf_masks = self._compute_leaf_masks()
        self.total_leaves = sum(1 for n in nodes if not self._children[n])
        self._ic_max: float | None = None

    @classmethod
    def from_file(cls, path: str | Path) -> "Taxonomy":
        edges = []
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise TaxonomyError(f"{path}:{lineno}: expected child<TAB>parent")
            edges.append((fields[0], fields[1]))
        return cls(edges)

    def _topo_sort(self) -> list[str]:
        # Kahn's algorithm over parent -> child edges; leftovers mean a cycle
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        queue = deque([self.root])
        order = []
        while queue:
            n = queue.popleft()
            order.append(n)
            for c in self._children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        if len(order) != len(self.nodes):
            raise TaxonomyError("cycle detected")
        return order

    def _compute_depths(self) -> dict[str, int]:
        depth = {self.root: 0}
        queue = deque([self.root])
        while queue:
            n = queue.popleft()
            for c in self._children[n]:
                if c not in depth:
                    depth[c] = depth[n] + 1
                    queue.append(c)
        return depth

    def _compute_ancestors(self) -> dict[str, frozenset[str]]:
        anc: dict[str, frozenset[str]] = {}
        for n in self._topo:  # parents precede children
            s = {n}
            for p in self._parents[n]:
                s |= anc[p]
            anc[n] = frozenset(s)
        return anc

    def _compute_leaf_masks(self) -> dict[str, int]:
        leaf_bit = {}
        bit = 0
        for n in self.nodes:
            if not self._children[n]:
                leaf_bit[n] = 1 << bit
                bit += 1
        masks: dict[str, int] = {}
        for n in reversed(self._topo):  # children precede parents
            mask = leaf_bit.get(n, 0)
            for c in self._children[n]:
                mask |= masks[c]
            masks[n] = mask
        return masks

    def _require(self, concept: str) -> None:
        if concept not in self.nodes:
            raise TaxonomyError(f"unknown concept {concept!r}")

    def depth(self, concept: str) -> int:
        self._require(concept)
        return self._depth[concept]

    def subsumer_count(self, concept: str) -> int:
        """Number of ancestors of the concept, including itself."""
        self._require(concept)
        return len(self._ancestors[concept])

    def leaf_count(self, concept: str) -> int:
        """Number of leaves subsumed by the concept (itself, if a leaf)."""
        self._require(concept)
        return self._leaf_masks[concept].bit_count()

    def ancestors(self, concept: str) -> frozenset[str]:
        self._require(concept)
        return self._ancestors[concept]

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Shortest path length treating is-a edges as undirected."""
        self._require(c1)
        self._require(c2)
        if c1 == c2:
            return 0
        seen = {c1: 0}
        queue = deque([c1])
        while queue:
            n = queue.popleft()
            for m in self._parents[n] | self._children[n]:
                if m not in seen:
                    if m == c2:
                        return seen[n] + 1
                    seen[m] = seen[n] + 1
                    queue.append(m)
        raise TaxonomyError(f"no path between {c1!r} and {c2!r}")

    def ic_sanchez(self, concept: str) -> float:
        """Leaf/subsumer information content; 0 at the root, growing downward."""
        self._require(concept)
        leaves = self.leaf_count(concept)
        subsumers = self.subsumer_count(concept)
        return -math.log((leaves / subsumers + 1.0) / (self.total_leaves + 1.0))

    def ic_max(self) -> float:
        if self._ic_max is None:
            self._ic_max = max(self.ic_sanchez(n) for n in self.nodes)
        return self._ic_max


def load_taxonomy(path: str | Path) -> Taxonomy:
    return Taxonomy.from_file(path)


def load_lexicon(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a surface-form lexicon: ``surface<TAB>concept[,concept...]``."""
    lexicon: dict[str, frozenset[str]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise TaxonomyError(f"{path}:{lineno}: expected surface<TAB>concepts")
        lexicon[fields[0]] = frozenset(fields[1].split(","))
    return lexicon


WORD_MEASURE_KINDS = ("rada", "jiang-conrath")


class WordSimMeasure:
    """Taxonomy-backed word similarity with an exact-match fallback.

    Words missing from the lexicon compare as 1 when their surface forms
    are equal and 0 otherwise. Multi-concept words resolve to the
    best-scoring concept pair.
    """

    def __init__(self, kind: str, taxonomy: Taxonomy, lexicon: dict[str, frozenset[str]]):
        if kind not in WORD_MEASURE_KINDS:
            raise ValueError(f"kind must be one of {WORD_MEASURE_KINDS}, got {kind!r}")
        for word, concepts in lexicon.items():
            for c in concepts:
                if c not in taxonomy.nodes:
                    raise TaxonomyError(f"lexicon concept {c!r} (word {word!r}) not in taxonomy")
        self.kind = kind
        self.taxonomy = taxonomy
        self.lexicon = lexicon
        self._memo: dict[tuple[str, str], float] = {}

    def word_sim(self, w1: str, w2: str) -> float:
        if w1 > w2:
            w1, w2 = w2, w1
        key = (w1, w2)
        if key not in self._memo:
            self._memo[key] = self._word_sim(w1, w2)
        return self._memo[key]

    def _word_sim(self, w1: str, w2: str) -> float:
        cs1 = self.lexicon.get(w1)
        cs2 = self.lexicon.get(w2)
        if not cs1 or not cs2:
            return 1.0 if w1 == w2 else 0.0
        if self.kind == "rada":
            return max(self._rada(c1, c2) for c1 in cs1 for c2 in cs2)
        return max(self._jiang_conrath(c1, c2) for c1 in cs1 for c2 in cs2)

    def _rada(self, c1: str, c2: str) -> float:
        t = self.taxonomy
        length = t.shortest_path_len(c1, c2)
        if t.max_depth == 0:
            return 1.0 if length == 0 else 0.0
        return min(1.0, max(0.0, 1.0 - length / (2.0 * t.max_depth)))

    def _jiang_conrath(self, c1: str, c2: str) -> float:
        t = self.taxonomy
        common = t.ancestors(c1) & t.ancestors(c2)
        ic_mica = max(t.ic_sanchez(a) for a in common)
        d = t.ic_sanchez(c1) + t.ic_sanchez(c2) - 2.0 * ic_mica
        ic_max = t.ic_max()
        if ic_max == 0.0:
            return 1.0 if d == 0.0 else 0.0
        return 1.0 - min(1.0, d / (2.0 * ic_max))


def semantic_vector_sim(set1: Iterable[str], set2: Iterable[str],
                        word_sim: Callable[[str, str], float]) -> float:
    """Cosine of the two semantic vectors over the joint word set.

    Component i of each vector is the best word similarity between the
    i-th joint word and any word of the corresponding sentence. An
    all-zero vector yields similarity 0. The cosine is clamped to 1, which
    rounding exceeds for equal vectors.
    """
    set1, set2 = set(set1), set(set2)
    if not set1 or not set2:
        raise EmptyInputError("word sets must be non-empty")
    joint = sorted(set1 | set2)
    v1 = [max(word_sim(t, w) for w in set1) for t in joint]
    v2 = [max(word_sim(t, w) for w in set2) for t in joint]
    dot = sum(a * b for a, b in zip(v1, v2))
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return min(1.0, dot / (n1 * n2))


def wbsm(s1: Iterable[str], s2: Iterable[str], measure: WordSimMeasure) -> float:
    """Semantic-vector similarity over word tokens.

    UBSM is this lifting over the concept-substituted tokens (concept codes
    plus residual words).
    """
    return semantic_vector_sim(set(s1), set(s2), measure.word_sim)


def com(wbsm_score: float, ubsm_score: float, lam: float = 0.5) -> float:
    """Convex combination of the word- and concept-based sentence scores."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return lam * wbsm_score + (1.0 - lam) * ubsm_score
