"""String-based sentence similarity measures over pre-processed token sequences.

All measures are symmetric and return values in [0, 1], and none raises on
empty input: an empty token sequence scores 0.0 against a non-empty one and
1.0 against an empty one. That is the empty-input rule, which the benchmark
applies to every measure (``bench``); the functions here keep it so that
they can be called alone.

:func:`token_pair_scores` scores the five token measures (block, liblock,
jaccard, overlap and token q-gram) for every pair of a token table at once.
It reads the table as token ids (as :func:`stsbench.preprocess.token_tables`
builds it) and renumbers them ``0..U-1`` with a presence mask, U padding
short trigrams. Each key family, token ids and then trigrams, is matched
for all pairs by one ``np.sort`` of ``(pair, key, side)`` packed into an
int64 and run-length arithmetic over the sorted keys; where trigram keys
would not pack into int64, they are numbered first. The empty-input rule
is a mask. :func:`levenshtein_pair_scores` scores Levenshtein for every
pair of a table of texts at once, each text being a sequence's tokens
joined by spaces.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


# every packed key is below 2 * pairs * width, which must not pass 2**63
_KEY_BOUND = 2**63


def _local_ids(ids: np.ndarray, vocab_size: int) -> tuple[np.ndarray, int]:
    """``ids``, each in ``range(vocab_size)``, renumbered ``0..U-1`` in id
    order, and U, their number of distinct ids: a presence mask over the
    vocabulary and its cumulative sum, with no sort."""
    present = np.zeros(vocab_size, bool)
    present[ids] = True
    return (np.cumsum(present) - 1)[ids], int(np.count_nonzero(present))


def _trigrams(ids: np.ndarray, lengths: np.ndarray, pad: int, n_pairs: int) -> tuple[np.ndarray, int]:
    """The keys of each sequence's token trigrams, in sequence order, and
    their width; ``ids`` holds the sequences, ``lengths`` long, one after the
    other, each id below ``pad``.

    A sequence of L >= 3 tokens has L - 2 trigrams, and one of 1 or 2 tokens
    one shingle padded with ``pad``, an id no token has. Trigram ``(a, b, c)``
    is keyed ``(a * W + b) * W + c``, W being ``pad + 1``, unless ``n_pairs``
    pairs of such keys would not pack into int64 (:func:`_matched`): then
    the trigrams are numbered by one ``np.unique``.
    """
    rows = np.repeat(np.arange(len(lengths)), lengths)
    # each sequence is followed by two pad ids in ``padded``
    place = np.arange(len(ids)) + 2 * rows
    padded = np.full(len(ids) + 2 * len(lengths), pad, np.int64)
    padded[place] = ids
    # a shingle starts at each of the first max(L - 2, min(L, 1)) tokens
    in_sequence = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    at = place[in_sequence < np.maximum(lengths - 2, np.minimum(lengths, 1))[rows]]
    width = pad + 1
    if 2 * n_pairs * width**3 <= _KEY_BOUND:
        return (padded[at] * width + padded[at + 1]) * width + padded[at + 2], width**3
    distinct, keys = np.unique(np.stack([padded[at], padded[at + 1], padded[at + 2]], 1), axis=0, return_inverse=True)
    return keys.reshape(-1), len(distinct)


def _matched(keys: np.ndarray, sizes: np.ndarray, width: int, left: np.ndarray, right: np.ndarray):
    """For each pair ``(left[p], right[p])`` of sequences: each side's number
    of distinct keys, the number of distinct keys both sides hold and the
    sum over them of the smaller count; sequence i is the next ``sizes[i]``
    of ``keys``, each key in ``range(width)``.

    Pair p's keys are packed as ``(p * width + key) * 2 + side``, side 0 for
    its left sequence and 1 for its right, and sorted with one ``np.sort``.
    A run of equal values is one key of one side, its length the key's
    count; a key both sides hold is two adjacent runs that differ only in
    the side bit.
    """
    if 2 * len(left) * width > _KEY_BOUND:
        raise OverflowError(f"{len(left)} pairs of keys below {width} do not pack into int64")
    starts = np.cumsum(sizes) - sizes

    def side(seqs, bit):
        size = sizes[seqs]
        at = np.arange(size.sum()) + np.repeat(starts[seqs] - (np.cumsum(size) - size), size)
        return (np.repeat(np.arange(len(seqs)) * width, size) + keys[at]) * 2 + bit

    packed = np.sort(np.concatenate([side(left, 0), side(right, 1)]))
    first = np.flatnonzero(np.diff(packed, prepend=-1))  # packed keys are >= 0
    runs, counts = packed[first], np.diff(first, append=len(packed))
    owner = runs >> 1  # p * width + key
    distinct = np.bincount(owner // width * 2 + (runs & 1), minlength=2 * len(left)).reshape(-1, 2)
    both = np.flatnonzero(owner[1:] == owner[:-1])
    pair = owner[both] // width
    # the weighted sum is float64, exact for integer counts below 2**53
    return (distinct[:, 0], distinct[:, 1], np.bincount(pair, minlength=len(left)),
            np.bincount(pair, np.minimum(counts[both], counts[both + 1]), len(left)))


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

    The ids are renumbered ``0..U-1`` for the table, with no sort, and U
    pads the one shingle of a sequence of 1 or 2 tokens. The token ids and
    then the trigrams, keyed ``(a * W + b) * W + c`` with W = U + 1, are
    matched by :func:`_matched`: one ``np.sort`` of every pair's keys
    packed as ``(pair * width + key) * 2 + side``. Packed keys are below
    ``2 * pairs * width``, which must fit int64: trigram keys that would
    not are numbered by one ``np.unique`` first, and keys that still would
    not raise :class:`OverflowError`.
    """
    left, right = np.asarray(pairs, np.intp).reshape(-1, 2).T
    ids, pad = _local_ids(ids, vocab_size)
    u1, u2, inter, common = _matched(ids, lengths, pad + 1, left, right)
    trigrams, width = _trigrams(ids, lengths, pad, len(left))
    n_shingles = np.maximum(lengths - 2, np.minimum(lengths, 1))
    q_inter = _matched(trigrams, n_shingles, width, left, right)[3]

    n1, n2 = lengths[left], lengths[right]
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


_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], np.uint8)


def levenshtein_pair_scores(texts: Sequence[str], pairs) -> np.ndarray:
    """Levenshtein similarity of every pair ``(i, j)`` of ``texts`` in
    ``pairs``, an (n, 2) array-like, as a float64 array: 1 - distance /
    max(len), and 1.0 where both texts are empty.

    The distance is unit-cost (insert, delete, substitute) over code points,
    lone surrogates included. Its float64 division rounds as Python's int
    division does, as both operands are exact in float64.
    """
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    left, right = np.asarray(pairs, np.intp).reshape(-1, 2).T
    longest = np.maximum(lengths[left], lengths[right])
    distance = _edit_distances(texts, lengths, left, right)
    return 1.0 - np.divide(distance, longest, out=np.zeros(len(longest)), where=longest > 0)


def _edit_distances(texts: Sequence[str], lengths: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The edit distance of each pair ``(texts[left[k]], texts[right[k]])``.

    Myers' bit-vector algorithm (J. ACM 46(3), 1999) in Hyyrö's
    edit-distance form (2003), run for all pairs at once: one DP column over
    the m characters of a pair's shorter string is held as vertical +1/-1
    delta bits ``pv`` and ``mv``, and each character of its longer string
    (n of them) updates them with a fixed handful of big-int operations.
    Every pair owns a segment of whole 64-bit words of one wide Python int,
    m // 64 + 1 of them: the spare top bit stops the carry of
    ``(eq & pv) + pv``, and ``mask`` keeps each segment's m bits. Pairs are
    ordered by n, longest first in the low words; when a pair's longer
    string ends, its distance is D[m][n] = D[0][n] + the sum of the column's
    vertical deltas = n + popcount(pv) - popcount(mv) over its segment, and
    its words are cut off the top.

    No int in the loop is negative: ``~x`` is written ``full ^ x``, with
    ``full`` the bits of the live words, as CPython copies a negative int
    into two's complement and back on every bitwise operation. A cut takes
    the ended pairs' segments as ``pv >> 8 * cut`` and ``mv >> 8 * cut`` in
    bytes and keeps the live words of ``mv``, ``mask`` and ``low`` with
    ``& full``, never round-tripping the whole live int through bytes.
    """
    longer = lengths[left] >= lengths[right]
    text, pattern = np.where(longer, left, right), np.where(longer, right, left)
    order = np.argsort(-lengths[text], kind="stable")
    text, pattern = text[order], pattern[order]
    n, m = lengths[text], lengths[pattern]
    words = m // 64 + 1
    bounds = np.concatenate([[0], np.cumsum(words)])  # pair k owns words bounds[k]:bounds[k + 1]

    # each code point's index in the texts' alphabet
    start = np.cumsum(lengths) - lengths
    chars = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), "<u4")
    in_alphabet = np.zeros(int(chars.max(initial=0)) + 1, bool)
    in_alphabet[chars] = True
    width = int(in_alphabet.sum())
    code = np.zeros(len(in_alphabet), np.int32)
    code[in_alphabet] = np.arange(width, dtype=np.int32)

    # peq[w * width + c]: the bits of word w of its pair's segment where the
    # pattern holds char c, set one bit position at a time
    owner = np.repeat(np.arange(len(m)), words)  # each word's pair
    place = 64 * (np.arange(bounds[-1]) - bounds[owner])  # the pattern char at each word's bit 0
    chars_left, first = m[owner] - place, start[pattern][owner] + place
    peq = np.zeros(bounds[-1] * width, "<u8")
    for bit in range(min(64, int(m.max(initial=0)))):
        w = np.flatnonzero(chars_left > bit)
        peq[w * width + code[chars[first[w] + bit]]] |= np.uint64(1 << bit)
    column = np.arange(bounds[-1]) * width
    reads = start[text][owner]  # where the text of each word's pair starts in ``chars``

    cuts = (8 * bounds).tolist()  # the byte at which each pair's segment starts
    pv = mask = int.from_bytes(b"".join(((1 << a) - 1).to_bytes(8 * w, "little")
                                        for a, w in zip(m.tolist(), words.tolist())), "little")
    low = int.from_bytes(b"".join((1).to_bytes(8 * w, "little") for w in words.tolist()), "little")
    mv, live = 0, len(n)
    full = (1 << 8 * cuts[live]) - 1  # the live words' bits, so that full ^ x is ~x on them
    ended_pv: list[bytes] = []  # the segments of the pairs whose texts have ended, top pairs first
    ended_mv: list[bytes] = []
    # after t steps, the pairs 0:alive are those whose longer string has more than t chars
    for t, alive in enumerate(np.searchsorted(-n, -np.arange(n.max(initial=0) + 1)).tolist()):
        if alive < live:  # the texts of pairs alive:live end here
            # pv and mv have no bits above the live words: the last step cut them by mask and xv
            top, cut = cuts[live], cuts[alive]
            ended_pv.append((pv >> 8 * cut).to_bytes(top - cut, "little"))
            ended_mv.append((mv >> 8 * cut).to_bytes(top - cut, "little"))
            full = (1 << 8 * cut) - 1
            mv &= full  # pv needs no cut: the next step's mask drops its ended words
            mask &= full
            low &= full
            live = alive
        if not live:
            break
        live_words = bounds[live]
        eq = int.from_bytes(peq[column[:live_words] + code[chars[reads[:live_words] + t]]].tobytes(), "little")
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        # the shifted-in 1s are row 0's +1 steps: a global, not a search, distance
        ph = (ph << 1) | low
        mh <<= 1
        pv = (mh | (full ^ (xv | ph))) & mask
        mv = ph & xv
    distance = np.empty(len(n), np.int64)
    distance[order] = n + _popcounts(ended_pv, bounds) - _popcounts(ended_mv, bounds)
    return distance


def _popcounts(segments: list[bytes], bounds: np.ndarray) -> np.ndarray:
    """The set bits of each pair's segment, the segments being the words
    ``bounds[k]:bounds[k + 1]`` of the little-endian bytes that ``segments``
    gives from the top down."""
    ones = _BYTE_POPCOUNT[np.frombuffer(b"".join(reversed(segments)), np.uint8)]
    return np.add.reduceat(ones, 8 * bounds[:-1], dtype=np.int64)

