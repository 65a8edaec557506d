"""String-based sentence similarity measures over pre-processed token sequences.

All measures are symmetric and return values in [0, 1], and none raises on
empty input: an empty token sequence scores 0.0 against a non-empty one and
1.0 against an empty one.

:func:`token_pair_scores` scores the five token measures (block, liblock,
jaccard, overlap and token q-gram) for every pair of a token table at once.
It reads the table as token ids (as :func:`stsbench.preprocess.token_tables`
builds it), matches each pair's sorted token and trigram keys and applies
the empty-input rule as a mask. :func:`pair_scores` scores one pair of token
sequences the same way. Levenshtein is scored pair by pair.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _trigrams(ids: np.ndarray, rows: np.ndarray, lengths: np.ndarray, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's token trigrams as ``(sequence, trigram id)`` arrays;
    ``ids[k]`` is a token of sequence ``rows[k]``, sequences being consecutive
    and ``lengths`` long.

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
    return rows[opens], np.unique(bigram * width + padded[at + 2], return_inverse=True)[1]


def _shared(rows: np.ndarray, keys: np.ndarray, n_rows: int, left: np.ndarray, right: np.ndarray):
    """Each sequence's number of distinct keys, and for each pair ``(left[p],
    right[p])`` the number of distinct keys both sequences hold and the sum
    over them of the smaller count; ``keys[k]`` is a key of sequence ``rows[k]``.

    Each sequence's keys are sorted and counted once; a pair's keys are
    numbered by pair, so one sorted intersection matches every pair at once.
    """
    width = int(keys.max(initial=-1)) + 1
    distinct, counts = np.unique(rows * width + keys, return_counts=True)
    start = np.searchsorted(distinct, np.arange(n_rows + 1) * width)

    def side(seqs):
        size = start[seqs + 1] - start[seqs]
        pair = np.repeat(np.arange(len(seqs)), size)
        at = np.arange(size.sum()) + np.repeat(start[seqs] - (np.cumsum(size) - size), size)
        return pair, distinct[at] % width + pair * width, counts[at]

    pair, k1, c1 = side(left)
    _, k2, c2 = side(right)
    _, i, j = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    # the weighted sums are float64, exact for integer counts below 2**53
    return (np.diff(start), np.bincount(pair[i], minlength=len(left)),
            np.bincount(pair[i], np.minimum(c1[i], c2[j]), len(left)))


def token_pair_scores(ids: np.ndarray, lengths: np.ndarray, vocab_size: int, pairs) -> dict[str, np.ndarray]:
    """Block, liblock, jaccard, overlap and (3-token) qgram scores of every pair
    ``(i, j)`` of sequences in ``pairs``, an (n, 2) array-like, as float64
    arrays under the empty-input rule.

    The sequences are a token id table: sequence i is the next ``lengths[i]``
    ids of ``ids``, each id in ``range(vocab_size)``. Two sequences hold the
    same token exactly where they hold the same id; the numbering is free.

    Over the token frequency profiles p1, p2 of a pair of lengths n1, n2:
    block is 1 - sum_w |p1(w) - p2(w)| / (n1 + n2), the sum being
    n1 + n2 - 2 sum_w min(p1(w), p2(w)); liad is the cosine of the binary
    word vectors, |S1 & S2| / sqrt(|S1| |S2|) clamped to 1, which rounding
    exceeds for some equal sets (sqrt(3) * sqrt(3) < 3); liblock is the
    mean of block and liad, or block alone where the word sets are disjoint;
    jaccard is |S1 & S2| / |S1 | S2| and overlap |S1 & S2| / min(|S1|, |S2|);
    qgram is the Dice coefficient over the multisets of token trigrams.
    """
    rows = np.repeat(np.arange(len(lengths)), lengths)
    left, right = np.asarray(pairs, np.intp).reshape(-1, 2).T
    distinct, inter, common = _shared(rows, ids, len(lengths), left, right)
    shingle_rows, trigrams = _trigrams(ids, rows, lengths, pad=vocab_size)
    _, _, q_inter = _shared(shingle_rows, trigrams, len(lengths), left, right)
    n_shingles = np.bincount(shingle_rows, minlength=len(lengths))

    n1, n2, u1, u2 = lengths[left], lengths[right], distinct[left], distinct[right]
    with np.errstate(divide="ignore", invalid="ignore"):
        block = 1.0 - (n1 + n2 - 2 * common) / (n1 + n2)
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


def pair_scores(s1: Sequence[str], s2: Sequence[str]) -> dict[str, float]:
    """The five token measures of one pair of token sequences, as
    :func:`token_pair_scores` scores them."""
    index: dict[str, int] = {}
    ids = np.array([index.setdefault(t, len(index)) for t in (*s1, *s2)], np.int64)
    scores = token_pair_scores(ids, np.array([len(s1), len(s2)], np.int64), len(index), [(0, 1)])
    return {m: float(s[0]) for m, s in scores.items()}


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
