from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from stsbench.core import Annotation, RawSentence
from stsbench.preprocess import (
    ConfigError,
    PreprocessConfig,
    config_grid,
    full_grid,
    load_char_filter,
    load_stopwords,
    preprocess,
    substitute_concepts,
    token_tables,
    tokenize,
)

EXAMPLE_TEXT = "Lung tumour formation in mice by oncogenic KRAS requires formation Craf, but not Braf."
EXAMPLE_ANNOTATIONS = (
    Annotation(0, 11, "C0280089"),
    Annotation(43, 47, "C1537502"),
    Annotation(81, 85, "C0812241"),
)


def test_whitespace_tokenizer():
    assert tokenize("a  b\tc", "whitespace") == ("a", "b", "c")
    assert tokenize("", "whitespace") == ()


def test_treebank_rules_punctuation_split():
    assert tokenize("Craf, but not Braf.", "treebank-rules") == (
        "Craf", ",", "but", "not", "Braf", ".")


def test_treebank_rules_abbreviations_kept():
    assert tokenize("used e.g. here", "treebank-rules") == ("used", "e.g.", "here")


def test_treebank_rules_hyphen_digit_split():
    assert tokenize("miR-146a", "treebank-rules") == ("miR", "146a")
    # hyphen before a letter stays inside the token
    assert tokenize("wild-type", "treebank-rules") == ("wild-type",)


def test_tokenize_unknown_mode():
    with pytest.raises(ConfigError):
        tokenize("x", "bogus")


def test_substitute_concepts():
    s = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    out = substitute_concepts(s)
    assert out.startswith("c0280089 formation")
    assert "c1537502" in out and "c0812241" in out
    assert "KRAS" not in out and "Braf" not in out


def test_full_pipeline_worked_example():
    s = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    cfg = PreprocessConfig(ner="annotations", tokenizer="treebank-rules",
                           lowercase=True, char_filter="default", stopwords="nltk2018")
    assert preprocess(s, cfg) == (
        "c0280089", "formation", "mice", "oncogenic", "c1537502",
        "requires", "formation", "craf", "c0812241")


def test_char_filter_hyphen_to_space():
    cfg = PreprocessConfig(char_filter="default")
    assert preprocess(RawSentence("miR-146a"), cfg) == ("mir", "146a")


def test_char_filter_deletes_punctuation():
    cfg = PreprocessConfig(char_filter="default", lowercase=False)
    assert preprocess(RawSentence("Craf, but not (Braf)."), cfg) == (
        "Craf", "but", "not", "Braf")


def test_blagec_filter_non_alnum():
    f = load_char_filter("blagec2019")
    assert f.apply("a+b=c!") == "a b c "
    assert f.apply("abc123") == "abc123"


def test_stopword_removal_case_insensitive():
    cfg = PreprocessConfig(lowercase=False, stopwords="nltk2018")
    assert preprocess(RawSentence("The cat The DOG"), cfg) == ("cat", "DOG")


def test_stopword_lists_load():
    for name in ("nltk2018", "biosses"):
        words = load_stopwords(name)
        assert len(words) > 50
        assert "the" in words


def test_all_filtered_sentence_is_empty_not_error():
    cfg = PreprocessConfig(stopwords="nltk2018")
    assert preprocess(RawSentence("the of and"), cfg) == ()


def test_ner_off_keeps_surface_forms():
    s = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    tokens = preprocess(s, PreprocessConfig())
    assert "kras" in tokens


def test_config_validation():
    with pytest.raises(ConfigError):
        PreprocessConfig(tokenizer="nope")
    with pytest.raises(ConfigError):
        PreprocessConfig(char_filter="nope")
    with pytest.raises(ConfigError):
        PreprocessConfig(stopwords="nope")
    with pytest.raises(ConfigError):
        PreprocessConfig(ner="nope")
    with pytest.raises(ConfigError):
        PreprocessConfig(lowercase="yes")


def test_config_label():
    cfg = PreprocessConfig(tokenizer="whitespace", lowercase=False, char_filter="default")
    assert cfg.label() == "ner=none,tok=whitespace,lc=no,cf=default,sw=none"


def test_config_grid_counts_and_order():
    grid = config_grid({"lowercase": [True, False], "stopwords": ["none", "nltk2018"]})
    assert len(grid) == 4
    # last dimension iterates fastest
    assert [ (g.lowercase, g.stopwords) for g in grid ] == [
        (True, "none"), (True, "nltk2018"), (False, "none"), (False, "nltk2018")]


def test_full_grid_size():
    assert len(full_grid()) == 48
    assert len(full_grid(with_ner=True)) == 96
    assert len(set(full_grid())) == 48


def test_full_grid_at_one_ner_mode():
    grid = full_grid(ner="annotations")
    assert len(grid) == len(set(grid)) == 48
    assert {cfg.ner for cfg in grid} == {"annotations"}
    assert [replace(cfg, ner="none") for cfg in grid] == full_grid()


def test_config_grid_errors():
    with pytest.raises(ConfigError, match="unknown grid dimensions"):
        config_grid({"bogus": [1]})
    with pytest.raises(ConfigError, match="empty value list"):
        config_grid({"lowercase": []})


# surface forms every stage acts on: case, punctuation, hyphen-digit splits,
# abbreviations and stop words
_WORDS = ("The", "of", "AND", "IL-6", "miR-146a", "e.g.", "Craf,", "(KRAS)", "tumour's",
          "50%", "cell", "Gene/protein", "--", "x.")


@st.composite
def _sentences(draw):
    words = draw(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=8))
    text = " ".join(words)
    annotations = ()
    if words and draw(st.booleans()):
        annotations = (Annotation(0, len(words[0]), draw(st.sampled_from(["C0012", "CUI9"]))),)
    return RawSentence(text, annotations)


@settings(max_examples=30, deadline=None)
@given(extra=st.lists(_sentences(), max_size=6),
       picks=st.lists(st.integers(0, 95), min_size=1, max_size=12),
       seed=st.integers(0, 2**16))
def test_token_tables_equal_preprocess(extra, picks, seed):
    grid = full_grid(with_ner=True)
    configs = [grid[i] for i in picks]
    ds = make_dataset(np.random.default_rng(seed), 5)
    example = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    sentences = [s for pair in ds.pairs for s in (pair.s1, pair.s2)] + extra + [example]
    seen = []
    for cfg, table in token_tables(sentences, configs):
        seen.append(cfg)
        assert table == [preprocess(s, cfg) for s in sentences]
    assert sorted(seen, key=grid.index) == seen
    assert set(seen) == set(configs) and len(seen) == len(set(configs))
