"""String-based sentence similarity measures over pre-processed token sequences.

All measures are symmetric and return values in [0, 1]. A kernel raises
:class:`EmptyInputError` where it is undefined on empty operands; the
benchmark scores through :func:`with_empty_rule`, under which an empty
sequence scores 0.0 against a non-empty one and 1.0 against an empty one,
as ``levenshtein_sim`` and the kernels that do not raise already score.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence


class EmptyInputError(ValueError):
    """A measure was applied to an empty token sequence or word set."""


def with_empty_rule(kernel):
    """``kernel`` on two non-empty sequences, else 0.0 (one side empty) or 1.0 (both)."""
    return lambda s1, s2: kernel(s1, s2) if s1 and s2 else (0.0 if s1 or s2 else 1.0)


def token_profile(tokens: Sequence[str]) -> Counter:
    """Token -> frequency map; total mass equals the sequence length."""
    return Counter(tokens)


def block_distance_sim(s1: Sequence[str], s2: Sequence[str]) -> float:
    """City-block distance between frequency profiles, as a similarity.

    1 - sum_w |fr(w, s1) - fr(w, s2)| / sum_w fr(w, s1 + s2) over the joint
    dictionary of both sentences.
    """
    if not s1 or not s2:
        raise EmptyInputError("block distance requires non-empty sequences")
    p1, p2 = token_profile(s1), token_profile(s2)
    diff = sum(abs(p1[w] - p2[w]) for w in p1.keys() | p2.keys())
    return 1.0 - diff / (len(s1) + len(s2))


def li_adapted_sim(set1: Iterable[str], set2: Iterable[str]) -> float:
    """Cosine of the binary indicator vectors of two word sets.

    Equals |S1 & S2| / sqrt(|S1| * |S2|).
    """
    set1, set2 = set(set1), set(set2)
    if not set1 or not set2:
        raise EmptyInputError("word sets must be non-empty")
    # norms multiplied separately so the result is bit-identical to an
    # explicit binary-vector cosine over the joint dictionary
    return len(set1 & set2) / (math.sqrt(len(set1)) * math.sqrt(len(set2)))


def liblock_sim(s1: Sequence[str], s2: Sequence[str]) -> float:
    """Aggregated measure: mean of block-distance and binary-cosine scores.

    Falls back to the block-distance score alone when the word sets are
    disjoint. The set score ignores repeats; the block score does not.
    """
    block = block_distance_sim(s1, s2)
    liad = li_adapted_sim(set(s1), set(s2))
    if liad == 0.0:
        return block
    return 0.5 * block + 0.5 * liad


def jaccard_sim(set1: Iterable[str], set2: Iterable[str]) -> float:
    """|S1 & S2| / |S1 | S2|."""
    set1, set2 = set(set1), set(set2)
    if not set1 and not set2:
        raise EmptyInputError("both word sets are empty")
    return len(set1 & set2) / len(set1 | set2)


def _shingles(tokens: Sequence[str], q: int) -> Counter:
    if len(tokens) < q:
        return Counter([tuple(tokens)]) if tokens else Counter()
    return Counter(tuple(tokens[i : i + q]) for i in range(len(tokens) - q + 1))


def qgram_sim(s1: Sequence[str], s2: Sequence[str], q: int = 3, unit: str = "token") -> float:
    """Dice coefficient over multisets of q-gram shingles.

    Shingles are q-token windows by default; ``unit="char"`` shingles the
    space-joined character string instead. Sequences shorter than q
    contribute one shingle of their full length.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if unit == "char":
        s1, s2 = tuple(" ".join(s1)), tuple(" ".join(s2))
    elif unit != "token":
        raise ValueError(f"unit must be 'token' or 'char', got {unit!r}")
    q1, q2 = _shingles(s1, q), _shingles(s2, q)
    total = sum(q1.values()) + sum(q2.values())
    if total == 0:
        raise EmptyInputError("no shingles on either side")
    inter = sum(min(q1[s], q2[s]) for s in q1.keys() & q2.keys())
    return 2.0 * inter / total


def overlap_sim(set1: Iterable[str], set2: Iterable[str]) -> float:
    """|S1 & S2| / min(|S1|, |S2|)."""
    set1, set2 = set(set1), set(set2)
    if not set1 or not set2:
        raise EmptyInputError("word sets must be non-empty")
    return len(set1 & set2) / min(len(set1), len(set2))


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def levenshtein_sim(s1: Sequence[str], s2: Sequence[str]) -> float:
    """Character-level edit similarity of the space-joined token sequences.

    1 - distance / max(len); 1.0 when both sides are empty.
    """
    a, b = " ".join(s1), " ".join(s2)
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest
