"""Taxonomy infrastructure and ontology-backed sentence similarity.

A taxonomy is a rooted DAG of concept identifiers given as
``child<TAB>parent`` edges. Word-level similarities (shortest-path and
information-content based) are lifted to sentences through a semantic
vector over the joint word set of both sentences.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from collections.abc import Callable, Iterable
from pathlib import Path

from .core import read_lines


class EmptyInputError(ValueError):
    """A semantic vector was asked of an empty word set."""


class TaxonomyError(ValueError):
    """Malformed taxonomy: cycles, multiple roots, or unknown concepts."""


class Taxonomy:
    """Rooted DAG with depth, leaf and subsumer information.

    The graph is the parent and child sets built from the edges, with every
    node a key of both. Depths are set at load; leaf counts and ``ic_max``
    come from one pass up from the leaves, run when either is first asked
    for and cached, and ancestor sets are walked on each call, so no
    per-concept set or mask is kept.
    """

    def __init__(self, edges: Iterable[tuple[str, str]]):
        parents: dict[str, set[str]] = {}
        children: dict[str, set[str]] = {}
        for child, parent in edges:
            parents.setdefault(child, set()).add(parent)
            children.setdefault(parent, set()).add(child)
        if not children:
            raise TaxonomyError("taxonomy has no nodes")
        roots = children.keys() - parents.keys()
        if len(roots) != 1:
            raise TaxonomyError(f"expected exactly one root, found {len(roots)}")
        self.root = roots.pop()
        self._leaves = list(parents.keys() - children.keys())
        parents[self.root] = set()
        children.update(dict.fromkeys(self._leaves, frozenset()))  # one shared empty set
        self._parents = parents
        self._children = children
        self.nodes = parents.keys()
        # Kahn's algorithm from the root: a node joins the order once all its
        # parents have, at 1 + the depth of its shallowest parent (its BFS
        # depth). With one root, a node the pass never reaches is on a cycle.
        indeg = {n: len(ps) for n, ps in parents.items()}
        self._depth = {self.root: 0}
        order = [self.root]
        for n in order:
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    self._depth[c] = 1 + min(self._depth[p] for p in parents[c])
                    order.append(c)
        if len(order) != len(parents):
            raise TaxonomyError("cycle detected")
        self.max_depth = max(self._depth.values())
        self.total_leaves = len(self._leaves)

    def _require(self, concept: str) -> None:
        if concept not in self.nodes:
            raise TaxonomyError(f"unknown concept {concept!r}")

    def _walk_up(self, concept: str) -> set[str]:
        seen = {concept}
        stack = [concept]
        while stack:
            for p in self._parents[stack.pop()]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return seen

    @functools.cached_property
    def _leaf_pass(self) -> tuple[Counter[str], float]:
        """Leaf counts as the number of leaf walks that reach each concept
        (exact, each walk being a set), and ``ic_max`` from the largest walk."""
        counts: Counter[str] = Counter()
        subsumers = 0
        for leaf in self._leaves:
            up = self._walk_up(leaf)
            counts.update(up)
            subsumers = max(subsumers, len(up))
        return counts, -math.log((1 / subsumers + 1.0) / (self.total_leaves + 1.0))

    def depth(self, concept: str) -> int:
        self._require(concept)
        return self._depth[concept]

    def subsumer_count(self, concept: str) -> int:
        """Number of ancestors of the concept, including itself."""
        return len(self.ancestors(concept))

    def leaf_count(self, concept: str) -> int:
        """Number of leaves subsumed by the concept (itself, if a leaf)."""
        self._require(concept)
        return self._leaf_pass[0][concept]

    def ancestors(self, concept: str) -> frozenset[str]:
        """The concept and all its ancestors, walked up on each call."""
        self._require(concept)
        return frozenset(self._walk_up(concept))

    def shortest_path_len(self, c1: str, c2: str) -> int:
        """Shortest path length treating is-a edges as undirected.

        Breadth-first from both ends (Pohl 1971): each step replaces the
        smaller frontier by its nodes' unseen neighbours, one whole level at
        a time. The first node both seen sets share is in both frontiers, so
        the step count when the frontiers first meet is the length.
        """
        self._require(c1)
        self._require(c2)
        seen1, front1, seen2, front2, steps = {c1}, {c1}, {c2}, {c2}, 0
        while not front1 & front2:
            if len(front1) > len(front2):
                seen1, front1, seen2, front2 = seen2, front2, seen1, front1
            front1 = set().union(*map(self._parents.__getitem__, front1),
                                 *map(self._children.__getitem__, front1)) - seen1
            if not front1:
                raise TaxonomyError(f"no path between {c1!r} and {c2!r}")
            seen1 |= front1
            steps += 1
        return steps

    def ic_sanchez(self, concept: str) -> float:
        """Leaf/subsumer information content; 0 at the root, growing downward."""
        leaves = self.leaf_count(concept)
        subsumers = self.subsumer_count(concept)
        return -math.log((leaves / subsumers + 1.0) / (self.total_leaves + 1.0))

    def ic_max(self) -> float:
        """Largest Sánchez IC, taken over the leaves only.

        Any leaf below a concept has leaf count 1, against the concept's 1 or
        more, and more subsumers, so its IC is larger; among leaves the IC
        grows with the subsumer count. The largest leaf walk is taken in the
        cached pass that counts the leaves.
        """
        return self._leaf_pass[1]


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy file: ``child<TAB>parent`` edges, ``#`` comments."""
    edges = []
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise TaxonomyError(f"{path}:{lineno}: expected child<TAB>parent")
        edges.append((fields[0], fields[1]))
    return Taxonomy(edges)


def load_lexicon(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a surface-form lexicon: ``surface<TAB>concept[,concept...]``."""
    lexicon: dict[str, frozenset[str]] = {}
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[1]:
            raise TaxonomyError(f"{path}:{lineno}: expected surface<TAB>concepts")
        if fields[0] in lexicon:
            raise TaxonomyError(f"{path}:{lineno}: surface form {fields[0]!r} given twice")
        lexicon[fields[0]] = frozenset(fields[1].split(","))
    return lexicon


WORD_MEASURE_KINDS = ("rada", "jiang-conrath")


class WordSimMeasure:
    """Taxonomy-backed word similarity with an exact-match fallback.

    Words missing from the lexicon compare as 1 when their surface forms
    are equal and 0 otherwise. Multi-concept words resolve to the
    best-scoring concept pair. Only unordered concept pairs are memoised, so
    a word and its concept code share one score.
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
        cs1 = self.lexicon.get(w1)
        cs2 = self.lexicon.get(w2)
        if not cs1 or not cs2:
            return 1.0 if w1 == w2 else 0.0
        return max(self._concept_sim(c1, c2) for c1 in cs1 for c2 in cs2)

    def _concept_sim(self, c1: str, c2: str) -> float:
        # Both kinds are symmetric, so the unordered pair is the memo key.
        key = (c1, c2) if c1 <= c2 else (c2, c1)
        sim = self._memo.get(key)
        if sim is None:
            sim = self._memo[key] = (self._rada if self.kind == "rada" else self._jiang_conrath)(*key)
        return sim

    def _rada(self, c1: str, c2: str) -> float:
        t = self.taxonomy
        length = t.shortest_path_len(c1, c2)
        return min(1.0, max(0.0, 1.0 - length / (2.0 * t.max_depth)))

    def _jiang_conrath(self, c1: str, c2: str) -> float:
        t = self.taxonomy
        common = t.ancestors(c1) & t.ancestors(c2)
        ic_mica = max(t.ic_sanchez(a) for a in common)
        d = t.ic_sanchez(c1) + t.ic_sanchez(c2) - 2.0 * ic_mica
        return 1.0 - min(1.0, d / (2.0 * t.ic_max()))


def semantic_vector_sim(set1: Iterable[str], set2: Iterable[str],
                        word_sim: Callable[[str, str], float]) -> float:
    """Cosine of the two semantic vectors over the joint word set.

    Component i of each vector is the best word similarity between the
    i-th joint word and any word of the corresponding sentence. An
    all-zero vector yields similarity 0. The cosine is clamped to 1, which
    rounding exceeds for equal vectors.

    ``word_sim(w, w)`` must be exactly 1.0 and no score may exceed 1.0, so
    the component of a word the sentence holds is 1.0 without a call. Rada
    meets this because a path of length 0 scores 1.0; Jiang–Conrath because
    a concept's IC is the largest among its ancestors, so its distance to
    itself is exactly 0.
    """
    set1, set2 = set(set1), set(set2)
    if not set1 or not set2:
        raise EmptyInputError("word sets must be non-empty")
    joint = sorted(set1 | set2)
    v1 = [1.0 if t in set1 else max(word_sim(t, w) for w in set1) for t in joint]
    v2 = [1.0 if t in set2 else max(word_sim(t, w) for w in set2) for t in joint]
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


COM_LAMBDA = 0.5


def com(wbsm_score: float, ubsm_score: float) -> float:
    """Convex combination of the word- and concept-based sentence scores, ``COM_LAMBDA`` on WBSM."""
    return COM_LAMBDA * wbsm_score + (1.0 - COM_LAMBDA) * ubsm_score
