import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    VOCAB,
    block_distance_sim,
    exact_match_sim,
    id_table,
    jaccard_sim,
    levenshtein_distance,
    levenshtein_dp,
    levenshtein_sim,
    li_adapted_sim,
    liblock_sim,
    overlap_sim,
    pair_scores,
    pairs_table,
    qgram_sim,
    random_tokens,
    token_profile,
)
from stsbench import strsim
from stsbench.ontosim import EmptyInputError, semantic_vector_sim
from stsbench.strsim import levenshtein_pair_scores, token_pair_scores

EXAMPLE_S1 = ("c0280089", "formation", "mice", "oncogenic", "c1537502",
          "requires", "formation", "craf", "c0812241")
EXAMPLE_S2 = ("oncogenic", "activity", "mutant", "c1537502", "appears",
          "dependent", "functional", "craf", "c0812241")


TOKEN_KERNELS = {"block": block_distance_sim, "liblock": liblock_sim, "jaccard": jaccard_sim,
                 "overlap": overlap_sim, "qgram": qgram_sim}


def by_empty_rule(kernel, s1, s2):
    """``kernel`` on two non-empty sequences, else 0.0 (one side empty) or 1.0 (both)."""
    if s1 and s2:
        return kernel(s1, s2)
    return 0.0 if s1 or s2 else 1.0


def naive_block(s1, s2):
    """Independent oracle: explicit joint dictionary and L1 loop."""
    joint = sorted(set(s1) | set(s2))
    c1, c2 = Counter(s1), Counter(s2)
    dist = 0
    for w in joint:
        dist += abs(c1.get(w, 0) - c2.get(w, 0))
    return 1.0 - dist / (len(s1) + len(s2))


def binary_cosine(set1, set2):
    """Independent oracle: explicit 0/1 vectors over the joint dictionary."""
    joint = sorted(set1 | set2)
    v1 = [1.0 if w in set1 else 0.0 for w in joint]
    v2 = [1.0 if w in set2 else 0.0 for w in joint]
    dot = sum(a * b for a, b in zip(v1, v2))
    n1 = math.sqrt(sum(a * a for a in v1))
    n2 = math.sqrt(sum(b * b for b in v2))
    return dot / (n1 * n2)


def test_token_profile():
    assert token_profile(("a", "b", "a")) == Counter({"a": 2, "b": 1})


def test_worked_example_values():
    scores = pair_scores(EXAMPLE_S1, EXAMPLE_S2)
    assert li_adapted_sim(set(EXAMPLE_S1), set(EXAMPLE_S2)) == pytest.approx(0.471, abs=5e-4)
    assert scores["block"] == pytest.approx(0.444, abs=5e-4)
    assert scores["liblock"] == pytest.approx(0.458, abs=5e-4)


def test_block_against_oracle(rng):
    for _ in range(300):
        s1, s2 = random_tokens(rng), random_tokens(rng)
        assert block_distance_sim(s1, s2) == pytest.approx(naive_block(s1, s2), abs=1e-15)


def test_li_adapted_bit_equal_to_binary_cosine(rng):
    for _ in range(300):
        set1, set2 = set(random_tokens(rng)), set(random_tokens(rng))
        assert li_adapted_sim(set1, set2) == binary_cosine(set1, set2)


def test_li_adapted_equal_sets_is_one():
    # sqrt(n) * sqrt(n) rounds below n for these sizes
    for n in (3, 6, 12, 13):
        words = {f"w{i}" for i in range(n)}
        assert n / (math.sqrt(n) * math.sqrt(n)) > 1.0
        assert li_adapted_sim(words, set(words)) == 1.0
    scores = pair_scores(("a", "b", "c", "a"), ("a", "b", "c"))
    assert scores["liblock"] == 0.5 * scores["block"] + 0.5


def test_liblock_branches():
    # disjoint vocabularies: falls back to the block score alone
    scores = pair_scores(("a", "b"), ("c", "d"))
    assert scores["liblock"] == scores["block"] == 0.0
    scores = pair_scores(("a", "b"), ("c", "d", "c"))
    assert scores["liblock"] == scores["block"]
    # overlapping vocabularies: exact mean of the two component scores
    scores = pair_scores(EXAMPLE_S1, EXAMPLE_S2)
    assert scores["liblock"] == 0.5 * scores["block"] + 0.5 * li_adapted_sim(set(EXAMPLE_S1), set(EXAMPLE_S2))


def test_jaccard():
    assert pair_scores(("a", "b"), ("b", "c"))["jaccard"] == pytest.approx(1 / 3)
    assert pair_scores(("a",), ())["jaccard"] == 0.0
    assert pair_scores((), ("a",))["jaccard"] == 0.0


def test_overlap():
    assert pair_scores(("a", "b", "c"), ("b", "c"))["overlap"] == 1.0
    assert pair_scores(("a", "b"), ("b", "c", "d"))["overlap"] == pytest.approx(0.5)


def test_qgram_token_level():
    s = ("a", "b", "c", "d")
    assert pair_scores(s, s)["qgram"] == 1.0
    # shingles of (a b c d) vs (a b c e): {abc, bcd} vs {abc, bce}
    assert pair_scores(s, ("a", "b", "c", "e"))["qgram"] == pytest.approx(0.5)


def test_qgram_short_sequences():
    # shorter than 3 tokens: the whole sequence is the single shingle
    assert pair_scores(("a", "b"), ("a", "b"))["qgram"] == 1.0
    assert pair_scores(("a",), ("b",))["qgram"] == 0.0
    # a padded shingle never equals a trigram
    assert pair_scores(("a", "b"), ("a", "b", "a"))["qgram"] == 0.0


def test_levenshtein_distance_known_values():
    assert levenshtein_distance("kitten", "sitting") == 3
    assert levenshtein_distance("flaw", "lawn") == 2
    assert levenshtein_distance("", "abc") == 3
    assert levenshtein_distance("abc", "abc") == 0


def test_levenshtein_triangle_inequality(rng):
    alphabet = list("abcd")
    for _ in range(200):
        a, b, c = ("".join(rng.choice(alphabet, size=rng.integers(0, 8))) for _ in range(3))
        assert levenshtein_distance(a, c) <= levenshtein_distance(a, b) + levenshtein_distance(b, c)


@settings(max_examples=300, deadline=None)
@given(a=st.text(max_size=160), b=st.text(max_size=160))
def test_levenshtein_distance_matches_dp(a, b):
    d = levenshtein_distance(a, b)
    assert d == levenshtein_dp(a, b)
    assert d == levenshtein_distance(b, a)


@pytest.mark.parametrize("m", [1, 63, 64, 65, 127, 128, 129])
def test_levenshtein_distance_at_word_boundaries(rng, m):
    # the shorter side's length sets the bit-vector width m
    for _ in range(5):
        short = "".join(rng.choice(list("acgt"), size=m))
        long = "".join(rng.choice(list("acgt"), size=m + int(rng.integers(0, 70))))
        for a, b in ((short, long), (long, short), (short, short[::-1])):
            assert levenshtein_distance(a, b) == levenshtein_dp(a, b)
    disjoint = "".join(rng.choice(list("wxyz"), size=m + 10))
    assert levenshtein_distance(short, disjoint) == levenshtein_dp(short, disjoint) == m + 10
    assert levenshtein_distance("x" * m, "y" * m) == m


def test_levenshtein_sim():
    assert levenshtein_sim((), ()) == 1.0
    assert levenshtein_sim(("abc",), ("abc",)) == 1.0
    assert levenshtein_sim(("abc",), ("abd",)) == pytest.approx(2 / 3)


# a space, a non-ASCII letter, an astral code point and both halves of a
# surrogate pair, which a str may hold alone
_EDIT_CHARS = "ab é\U0001F600\ud800\udc00"
# pattern lengths at and beside the 64-bit word boundaries
_WORD_EDGES = (1, 63, 64, 65, 127, 128, 129)


def _edit_text(n: int, salt: int) -> str:
    return "".join(_EDIT_CHARS[(i * i + salt * i + salt) % len(_EDIT_CHARS)] for i in range(n))


@settings(max_examples=150, deadline=None)
@given(texts=st.lists(st.one_of(
    st.just(""),
    st.text(_EDIT_CHARS, max_size=140),
    st.sampled_from(_WORD_EDGES).flatmap(lambda n: st.text(_EDIT_CHARS, min_size=n, max_size=n))), max_size=7))
@example(texts=[])
@example(texts=["", ""])
@example(texts=["", *(_edit_text(n, n) for n in _WORD_EDGES), _edit_text(64, 1), _edit_text(129, 2), "\ud800",
                "\U0001F600\udc00", "a" * 200])
def test_levenshtein_pair_scores_equal_the_dp_bit_for_bit(texts):
    # every text with itself and with every other, in both orders: empty
    # texts, pattern lengths on both sides of each word boundary in one
    # table, equal and unequal text lengths, and non-ASCII code points
    pairs = [(i, j) for i in range(len(texts)) for j in range(len(texts))]
    scores = levenshtein_pair_scores(texts, pairs)
    assert scores.dtype == np.float64 and scores.shape == (len(pairs),)
    distance = {}
    for (i, j), got in zip(pairs, scores):
        a, b = sorted((texts[i], texts[j]))
        if (a, b) not in distance:
            distance[a, b] = levenshtein_dp(a, b)
        longest = max(len(a), len(b))
        want = 1.0 - distance[a, b] / longest if longest else 1.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (texts[i], texts[j])


def test_levenshtein_pair_scores_cut_at_many_steps():
    # two texts of every length 0..140, so the longer texts of one table end
    # at 141 steps, three pairs on each; the shorter sides run from 0 to 140
    # chars, so the segments cut off the top are 1, 2 or 3 words wide
    texts = [_edit_text(n, salt) for n in range(141) for salt in (n, n + 3)]  # texts 2n, 2n + 1: n chars
    pairs = [pair for n in range(141) for pair in (
        (2 * n, 2 * n + 1), (2 * n, 2 * (37 * n % (n + 1)) + 1), (2 * (101 * n % (n + 1)), 2 * n + 1))]
    scores = levenshtein_pair_scores(texts, pairs)
    assert levenshtein_pair_scores(texts, [(j, i) for i, j in pairs]).tobytes() == scores.tobytes()
    for (i, j), got in zip(pairs, scores):
        a, b = texts[i], texts[j]
        longest = max(len(a), len(b))
        want = 1.0 - levenshtein_dp(a, b) / longest if longest else 1.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (len(a), len(b))


def test_empty_input_errors():
    # no string measure raises on empty input: each scores it by the rule
    for s1, s2, want in (((), ("a",), 0.0), (("a", "b"), (), 0.0), ((), (), 1.0)):
        assert set(pair_scores(s1, s2).values()) == {want}
        assert levenshtein_sim(s1, s2) == want
    # the one measure left that raises is the ontology's semantic vector
    with pytest.raises(EmptyInputError):
        semantic_vector_sim(set(), {"a"}, exact_match_sim)


def test_empty_rule_reproduces_non_raising_kernels():
    table = [(), ("a", "b"), ("a",), ("b", "c")]
    scores = token_pair_scores(*id_table(table, ["c", "b", "a"]), [(0, 1), (2, 0), (0, 0), (1, 3)])
    for measure, kernel in TOKEN_KERNELS.items():
        assert scores[measure][0] == scores[measure][1] == 0.0
        assert scores[measure][2] == 1.0
        assert scores[measure][3] == kernel(("a", "b"), ("b", "c"))
    # levenshtein_pair_scores needs no mask: the rule is its own
    assert levenshtein_sim((), ("a", "b")) == levenshtein_sim(("a",), ()) == 0.0
    # where a kernel already defines a value on empty input, the rule agrees
    assert qgram_sim((), ("a",)) == jaccard_sim((), ("a",)) == levenshtein_sim((), ("a",)) == 0.0
    assert levenshtein_sim((), ()) == 1.0


_TOKENS = ("a", "b", "c", "gene", "cell")


@settings(max_examples=300, deadline=None)
@given(table=st.lists(st.lists(st.sampled_from(_TOKENS), max_size=7).map(tuple), min_size=1, max_size=12),
       vocab=st.permutations((*_TOKENS, "unused", "spare")))
@example(table=[(), ()], vocab=["unused"])
@example(table=[(), ("a",), ("a", "b"), ("c", "gene"), ("a", "a", "b", "a"), ("c", "c", "c")],
         vocab=["spare", "gene", "c", "unused", "b", "a"])
def test_token_pair_scores_equal_the_kernels_bit_for_bit(table, vocab):
    # every sequence with itself and with every other: empties, sequences of
    # 1 and 2 tokens (one padded shingle), repeats and disjoint vocabularies;
    # ids in any order, over a vocabulary with ids the table does not use
    pairs = [(i, j) for i in range(len(table)) for j in range(len(table))]
    scores = token_pair_scores(*id_table(table, vocab), pairs)
    assert scores.keys() == TOKEN_KERNELS.keys()
    for measure, kernel in TOKEN_KERNELS.items():
        assert scores[measure].dtype == np.float64 and scores[measure].shape == (len(pairs),)
        for (i, j), got in zip(pairs, scores[measure]):
            want = by_empty_rule(kernel, table[i], table[j])
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (measure, table[i], table[j])


_SPARSE_VOCAB = 2**20


@settings(max_examples=300, deadline=None)
@given(table=st.lists(st.lists(st.sampled_from(_TOKENS), max_size=5).map(tuple), min_size=1, max_size=8),
       ids=st.lists(st.integers(0, _SPARSE_VOCAB - 1), min_size=len(_TOKENS), max_size=len(_TOKENS), unique=True),
       pairs=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=24),
       numbered=st.booleans())
@example(table=[("a",), ("a", "b"), ("b", "a", "c"), ("a", "b")], ids=[0, 1, 2, 3, 4],
         pairs=[(0, 1), (1, 0), (1, 1), (1, 3), (3, 1), (2, 2), (0, 0), (2, 1)], numbered=False)
@example(table=[("a",), ("a", "b"), ("b", "a", "c"), ("a", "b")], ids=[_SPARSE_VOCAB - 1, 7, 2**19, 0, 5],
         pairs=[(0, 1), (1, 0), (1, 1), (1, 3), (3, 1), (2, 2), (0, 0), (2, 1)], numbered=True)
@example(table=[("a", "a"), ("a",), ()], ids=[3, 0, 1, 2, 4], pairs=[(0, 1), (1, 0), (0, 0), (2, 0)],
         numbered=True)
def test_token_pair_scores_on_sparse_ids_and_shared_sequences(table, ids, pairs, numbered):
    # ids spread over a large vocabulary, which the kernel renumbers per
    # table; pairs in any order and number (pair k reads sequences modulo
    # the table's length), so a sequence sits in several pairs and on both
    # sides, and pairs (i, i); with ``numbered`` the int64 bound is lowered
    # so that the table's trigrams are numbered before they are packed
    pairs = [(i % len(table), j % len(table)) for i, j in pairs]
    index = dict(zip(_TOKENS, ids))
    flat = np.array([index[t] for seq in table for t in seq], np.int64)
    lengths = np.array([len(seq) for seq in table], np.int64)
    width = len(set(flat.tolist())) + 1  # table-local ids and the pad
    numbered = numbered and len(flat) > 0
    widths, trigrams_of = [], strsim._trigrams

    def trigrams(*args):
        keys, key_width = trigrams_of(*args)
        widths.append(key_width)
        return keys, key_width

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strsim, "_trigrams", trigrams)
        if numbered:
            mp.setattr(strsim, "_KEY_BOUND", 2 * len(pairs) * width**3 - 1)
        scores = token_pair_scores(flat, lengths, _SPARSE_VOCAB, pairs)
    assert (widths != [width**3]) == numbered
    for measure, kernel in TOKEN_KERNELS.items():
        assert scores[measure].shape == (len(pairs),)
        for (i, j), got in zip(pairs, scores[measure]):
            want = by_empty_rule(kernel, table[i], table[j])
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (measure, table[i], table[j], numbered)


def test_token_pair_scores_refuse_keys_past_int64(monkeypatch):
    # packed keys are below 2 * pairs * width; past the bound the kernel
    # raises rather than let int64 wrap
    monkeypatch.setattr(strsim, "_KEY_BOUND", 2 * 2 * 3 - 1)
    with pytest.raises(OverflowError, match="do not pack into int64"):
        token_pair_scores(*id_table([("a",), ("b",)], ["a", "b"]), [(0, 1), (1, 0)])


@settings(max_examples=300, deadline=None)
@given(s1=st.lists(st.sampled_from(_TOKENS), max_size=7).map(tuple),
       s2=st.lists(st.sampled_from(_TOKENS), max_size=7).map(tuple))
@example(s1=(), s2=())
@example(s1=(), s2=("a",))
@example(s1=("a", "b", "a", "a"), s2=("b", "a"))
def test_pair_scores_equal_the_kernels_bit_for_bit(s1, s2):
    scores = pair_scores(s1, s2)
    assert scores.keys() == TOKEN_KERNELS.keys()
    for measure, kernel in TOKEN_KERNELS.items():
        assert type(scores[measure]) is float
        want = by_empty_rule(kernel, s1, s2)
        assert np.float64(scores[measure]).tobytes() == np.float64(want).tobytes(), (measure, s1, s2)


def test_token_pair_scores_without_pairs():
    scores = token_pair_scores(*id_table([("a",), ()], ["a"]), [])
    assert scores.keys() == TOKEN_KERNELS.keys()
    assert all(v.dtype == np.float64 and v.shape == (0,) for v in scores.values())


def test_randomized_properties(rng):
    pairs = [(random_tokens(rng), random_tokens(rng)) for _ in range(500)]
    table, index = pairs_table(pairs)
    forward = token_pair_scores(*table, index)
    backward = token_pair_scores(*table, index[:, ::-1])
    itself = token_pair_scores(*table, index[:, [0, 0]])
    for m, v in forward.items():
        assert ((0.0 <= v) & (v <= 1.0)).all(), m
        assert np.array_equal(v, backward[m]), m
        assert np.abs(itself[m] - 1.0).max() <= 1e-12, m
    texts = [" ".join(s) for pair in pairs for s in pair]
    v = levenshtein_pair_scores(texts, index)
    assert ((0.0 <= v) & (v <= 1.0)).all()
    assert np.array_equal(v, levenshtein_pair_scores(texts, index[:, ::-1]))
    assert (levenshtein_pair_scores(texts, index[:, [0, 0]]) == 1.0).all()
