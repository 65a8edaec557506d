"""String-based sentence similarity measures over pre-processed token sequences.

All measures are symmetric and return values in [0, 1]. A kernel raises
:class:`EmptyInputError` where it is undefined on empty operands.

:func:`token_pair_scores` scores the five token measures (block, liblock,
jaccard, overlap and token q-gram) for every pair of a token table at once,
bit for bit as the per-pair kernels score them. It reads the table as token
ids (as :func:`stsbench.preprocess.token_tables` builds it) and takes each
pair's counts as row sums over sparse token and trigram count matrices.
It applies the empty-input rule as a mask: an empty sequence scores 0.0
against a non-empty one and 1.0 against an empty one, as ``levenshtein_sim``
and the kernels that do not raise already score.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array


class EmptyInputError(ValueError):
    """A measure was applied to an empty token sequence or word set."""


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

    Equals |S1 & S2| / sqrt(|S1| * |S2|), clamped to 1, which rounding
    exceeds for some equal sets (sqrt(3) * sqrt(3) < 3).
    """
    set1, set2 = set(set1), set(set2)
    if not set1 or not set2:
        raise EmptyInputError("word sets must be non-empty")
    # norms multiplied separately so the result is bit-identical to an
    # explicit binary-vector cosine over the joint dictionary
    return min(1.0, len(set1 & set2) / (math.sqrt(len(set1)) * math.sqrt(len(set2))))


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


def _count_matrix(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> csr_array:
    """CSR matrix whose (r, c) entry counts the occurrences of (r, c) in ``zip(rows, cols)``,
    built from sorted keys, so each row's columns are sorted and distinct."""
    keys, counts = np.unique(rows * shape[1] + cols, return_counts=True)
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    return csr_array((counts, keys % shape[1], indptr), shape=shape)


def _trigram_counts(ids: np.ndarray, rows: np.ndarray, lengths: np.ndarray, pad: int) -> csr_array:
    """Count matrix of each sequence's token trigrams; ``ids[k]`` is a token of
    sequence ``rows[k]``, sequences being consecutive and ``lengths`` long.

    A sequence of L >= 3 tokens has L - 2 trigrams, and one of 1 or 2 tokens
    one shingle padded with ``pad``, an id no token has. Trigrams are keyed
    by compact integer ids, a bigram id first and then a trigram id.
    """
    # each sequence is followed by two pad ids in ``padded``
    place = np.arange(len(ids)) + 2 * rows
    padded = np.full(len(ids) + 2 * len(lengths), pad, np.int64)
    padded[place] = ids
    # a shingle starts at each of the first max(L - 2, min(L, 1)) tokens
    in_sequence = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    opens = in_sequence < np.maximum(lengths - 2, np.minimum(lengths, 1))[rows]
    at, width = place[opens], pad + 1
    bigram = np.unique(padded[at] * width + padded[at + 1], return_inverse=True)[1]
    trigram = np.unique(bigram * width + padded[at + 2], return_inverse=True)[1]
    return _count_matrix(rows[opens], trigram, (len(lengths), int(trigram.max(initial=-1)) + 1))


def token_pair_scores(ids: np.ndarray, lengths: np.ndarray, vocab_size: int, pairs) -> dict[str, np.ndarray]:
    """Block, liblock, jaccard, overlap and (3-token) qgram scores of every pair
    ``(i, j)`` of sequences in ``pairs``, an (n, 2) array-like, as float64
    arrays under the empty-input rule.

    The sequences are a token id table: sequence i is the next ``lengths[i]``
    ids of ``ids``, each id in ``range(vocab_size)``. Two sequences hold the
    same token exactly where they hold the same id; the numbering is free.

    Each score equals the per-pair kernel's bit for bit on the decoded
    tokens: the float arithmetic is the kernel's, and only the integer counts
    it takes from ``Counter``s, sets and shingles come from sparse row sums
    instead, over ``counts`` (of each token per sequence), its 0/1 twin
    ``words`` and ``shingles`` (of each token trigram per sequence).
    """
    rows = np.repeat(np.arange(len(lengths)), lengths)
    counts = _count_matrix(rows, ids, (len(lengths), vocab_size))
    words = csr_array((np.ones_like(counts.data), counts.indices, counts.indptr), shape=counts.shape)
    shingles = _trigram_counts(ids, rows, lengths, pad=vocab_size)
    distinct, n_shingles = np.diff(words.indptr), shingles.sum(axis=1)

    left, right = np.asarray(pairs, np.intp).reshape(-1, 2).T
    n1, n2, u1, u2 = lengths[left], lengths[right], distinct[left], distinct[right]
    diff = abs(counts[left] - counts[right]).sum(axis=1)
    inter = words[left].multiply(words[right]).sum(axis=1)
    q_inter = shingles[left].minimum(shingles[right]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        block = 1.0 - diff / (n1 + n2)
        liad = np.minimum(1.0, inter / (np.sqrt(u1) * np.sqrt(u2)))
        scores = {
            "block": block,
            "liblock": np.where(liad == 0.0, block, 0.5 * block + 0.5 * liad),
            "jaccard": inter / (u1 + u2 - inter),
            "overlap": inter / np.minimum(u1, u2),
            "qgram": 2.0 * q_inter / (n_shingles[left] + n_shingles[right]),
        }
    empty = (n1 == 0) | (n2 == 0)
    both = ((n1 == 0) & (n2 == 0)).astype(np.float64)
    return {m: np.where(empty, both, s) for m, s in scores.items()}


def levenshtein_distance(a: str, b: str) -> int:
    """Unit-cost edit distance (insert, delete, substitute).

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's
    edit-distance form (2003): one DP column over the m characters of the
    shorter string is held as m-bit vertical +1/-1 delta vectors ``pv`` and
    ``mv``, and each character of the longer string updates them with a
    fixed handful of operations on m-bit Python ints, O(n) big-int
    operations in all. The score is tracked at bit m - 1.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, c in enumerate(b):
        peq[c] = peq.get(c, 0) | (1 << i)
    mask = (1 << len(b)) - 1
    top = 1 << (len(b) - 1)
    pv, mv, score = mask, 0, len(b)
    for c in a:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        # the shifted-in 1 is row 0's +1 step: a global, not a search, distance
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    return score


def levenshtein_sim(s1: Sequence[str], s2: Sequence[str]) -> float:
    """Character-level edit similarity of the space-joined token sequences.

    1 - distance / max(len); 1.0 when both sides are empty.
    """
    a, b = " ".join(s1), " ".join(s2)
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein_distance(a, b) / longest
