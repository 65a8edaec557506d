import math
from collections import Counter

import numpy as np
import pytest

from conftest import VOCAB, random_tokens
from stsbench.strsim import (
    EmptyInputError,
    block_distance_sim,
    jaccard_sim,
    levenshtein_distance,
    levenshtein_sim,
    li_adapted_sim,
    liblock_sim,
    overlap_sim,
    qgram_sim,
    token_profile,
    with_empty_rule,
)

EXAMPLE_S1 = ("c0280089", "formation", "mice", "oncogenic", "c1537502",
          "requires", "formation", "craf", "c0812241")
EXAMPLE_S2 = ("oncogenic", "activity", "mutant", "c1537502", "appears",
          "dependent", "functional", "craf", "c0812241")


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
    assert li_adapted_sim(set(EXAMPLE_S1), set(EXAMPLE_S2)) == pytest.approx(0.471, abs=5e-4)
    assert block_distance_sim(EXAMPLE_S1, EXAMPLE_S2) == pytest.approx(0.444, abs=5e-4)
    assert liblock_sim(EXAMPLE_S1, EXAMPLE_S2) == pytest.approx(0.458, abs=5e-4)


def test_block_against_oracle(rng):
    for _ in range(300):
        s1, s2 = random_tokens(rng), random_tokens(rng)
        assert block_distance_sim(s1, s2) == pytest.approx(naive_block(s1, s2), abs=1e-15)


def test_li_adapted_bit_equal_to_binary_cosine(rng):
    for _ in range(300):
        set1, set2 = set(random_tokens(rng)), set(random_tokens(rng))
        assert li_adapted_sim(set1, set2) == binary_cosine(set1, set2)


def test_liblock_branches():
    # disjoint vocabularies: falls back to the block score alone
    s1, s2 = ("a", "b"), ("c", "d")
    assert liblock_sim(s1, s2) == block_distance_sim(s1, s2) == 0.0
    s1, s2 = ("a", "b"), ("c", "d", "c")
    assert liblock_sim(s1, s2) == block_distance_sim(s1, s2)
    # overlapping vocabularies: exact mean of the two component scores
    assert liblock_sim(EXAMPLE_S1, EXAMPLE_S2) == 0.5 * block_distance_sim(EXAMPLE_S1, EXAMPLE_S2) \
        + 0.5 * li_adapted_sim(set(EXAMPLE_S1), set(EXAMPLE_S2))


def test_jaccard():
    assert jaccard_sim({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)
    assert jaccard_sim({"a"}, set()) == 0.0
    assert jaccard_sim(set(), {"a"}) == 0.0


def test_overlap():
    assert overlap_sim({"a", "b", "c"}, {"b", "c"}) == 1.0
    assert overlap_sim({"a", "b"}, {"b", "c", "d"}) == pytest.approx(0.5)


def test_qgram_token_level():
    s = ("a", "b", "c", "d")
    assert qgram_sim(s, s) == 1.0
    # shingles of (a b c d) vs (a b c e): {abc, bcd} vs {abc, bce}
    assert qgram_sim(s, ("a", "b", "c", "e")) == pytest.approx(0.5)


def test_qgram_short_sequences():
    # shorter than q: the whole sequence is the single shingle
    assert qgram_sim(("a", "b"), ("a", "b")) == 1.0
    assert qgram_sim(("a",), ("b",)) == 0.0


def test_qgram_char_unit():
    assert qgram_sim(("abcd",), ("abcd",), unit="char") == 1.0
    assert qgram_sim(("night",), ("nacht",), q=2, unit="char") == pytest.approx(0.25)


def test_qgram_validation():
    with pytest.raises(ValueError):
        qgram_sim(("a",), ("b",), q=0)
    with pytest.raises(ValueError):
        qgram_sim(("a",), ("b",), unit="word")


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


def test_levenshtein_sim():
    assert levenshtein_sim((), ()) == 1.0
    assert levenshtein_sim(("abc",), ("abc",)) == 1.0
    assert levenshtein_sim(("abc",), ("abd",)) == pytest.approx(2 / 3)


def test_empty_input_errors():
    with pytest.raises(EmptyInputError):
        block_distance_sim((), ("a",))
    with pytest.raises(EmptyInputError):
        li_adapted_sim(set(), {"a"})
    with pytest.raises(EmptyInputError):
        jaccard_sim(set(), set())
    with pytest.raises(EmptyInputError):
        overlap_sim(set(), {"a"})
    with pytest.raises(EmptyInputError):
        qgram_sim((), ())
    with pytest.raises(EmptyInputError):
        liblock_sim((), ())


def test_empty_rule_reproduces_non_raising_kernels():
    kernels = (qgram_sim, jaccard_sim, block_distance_sim, liblock_sim, levenshtein_sim, overlap_sim)
    for kernel in kernels:
        scored = with_empty_rule(kernel)
        assert scored((), ("a", "b")) == scored(("a",), ()) == 0.0
        assert scored((), ()) == 1.0
        assert scored(("a", "b"), ("b", "c")) == kernel(("a", "b"), ("b", "c"))
    # where a kernel already defines a value on empty input, the rule agrees
    assert qgram_sim((), ("a",)) == jaccard_sim((), ("a",)) == levenshtein_sim((), ("a",)) == 0.0
    assert levenshtein_sim((), ()) == 1.0


def test_randomized_properties(rng):
    measures = (
        lambda a, b: block_distance_sim(a, b),
        lambda a, b: liblock_sim(a, b),
        lambda a, b: jaccard_sim(set(a), set(b)),
        lambda a, b: overlap_sim(set(a), set(b)),
        lambda a, b: qgram_sim(a, b),
        lambda a, b: levenshtein_sim(a, b),
    )
    for _ in range(500):
        s1, s2 = random_tokens(rng), random_tokens(rng)
        for m in measures:
            v = m(s1, s2)
            assert 0.0 <= v <= 1.0
            assert v == m(s2, s1)
            assert m(s1, s1) == pytest.approx(1.0, abs=1e-12)
