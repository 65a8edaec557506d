from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_dataset, preprocess, treebank_tokens
from stsbench.core import Annotation, RawSentence
from stsbench.preprocess import (
    OPTIONS,
    ConfigError,
    PreprocessConfig,
    _resource_path,
    full_grid,
    load_char_filter,
    load_stopwords,
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


# characters that the treebank rules treat specially, in the ways that a
# whitespace-chunk rule and a one-pattern rule could disagree on: periods
# after letters, hyphens and minus signs before Latin and Arabic-Indic
# digits, both apostrophes, and the spaces that str.split() and \s share
_TREEBANK_ALPHABET = st.sampled_from(list("aZxeg.-−'’5٣_( \t\n\x85\u3000\x1c"))


@given(st.text(st.one_of(_TREEBANK_ALPHABET, st.characters()), max_size=24))
@example("used e.g. here")
@example("xe.g.")
@example("miR-146a")
@example("--5")
@example("(-5)")
@example("a−٣")
@example("i.e.\x85e.g.")
@example("a.\u3000b.")
@settings(max_examples=500, deadline=None)
def test_treebank_rules_equal_the_chunk_oracle(text):
    assert tokenize(text, "treebank-rules") == tuple(treebank_tokens(text))


def test_tokenize_unknown_mode():
    with pytest.raises(ConfigError):
        tokenize("x", "bogus")


def test_substitute_concepts():
    s = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    out = substitute_concepts(s)
    assert out.startswith("c0280089 formation")
    assert "c1537502" in out and "c0812241" in out
    assert "KRAS" not in out and "Braf" not in out


@pytest.mark.parametrize("tokenizer", OPTIONS["tokenizer"])
def test_a_substituted_code_stays_one_token(tokenizer):
    # a space parts the code from a neighbour that is not whitespace
    sentences = [RawSentence("anti-Tumour drugs", (Annotation(5, 11, "C0012"),)),
                 RawSentence("Tumour2 drugs", (Annotation(0, 6, "C0012"),))]
    [(_, table)] = token_tables(sentences, [PreprocessConfig(ner="annotations", tokenizer=tokenizer)])
    assert [tuple(text.split(" ")) for text in table.texts] == [("anti-", "c0012", "drugs"), ("c0012", "2", "drugs")]


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
    every_code_point = "".join(map(chr, range(0x110000)))
    assert f.apply(every_code_point) == "".join(c if c.isalnum() or c == "\n" else " " for c in every_code_point)


@pytest.mark.parametrize("name", OPTIONS["char_filter"][1:])
def test_char_filter_deletes_every_one_character_line(name):
    # "#" alone on a line is a character to delete, not a comment
    f = load_char_filter(name)
    lines = _resource_path("charfilters", name).read_text(encoding="utf-8-sig").splitlines()
    for c in [line for line in lines if len(line) == 1]:
        assert f.apply(f"a{c}b") == "ab", c


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
    with pytest.raises(ConfigError, match="lowercase"):
        PreprocessConfig(lowercase=1)


def test_config_label():
    cfg = PreprocessConfig(tokenizer="whitespace", lowercase=False, char_filter="default")
    assert cfg.label() == "ner=none,tok=whitespace,lc=no,cf=default,sw=none"


def test_full_grid_order():
    grid = [*full_grid(), *full_grid(ner="annotations")]
    # last field fastest, each field's values in OPTIONS order
    ranks = [[OPTIONS[f].index(getattr(g, f)) for f in OPTIONS] for g in grid]
    assert ranks == sorted(ranks)
    assert [(g.char_filter, g.stopwords) for g in grid[:4]] == [
        ("none", "none"), ("none", "biosses"), ("none", "nltk2018"), ("default", "none")]


def test_full_grid_size():
    assert len(full_grid()) == 48
    assert len(set([*full_grid(), *full_grid(ner="annotations")])) == 96
    assert len(set(full_grid())) == 48


def test_full_grid_at_one_ner_mode():
    grid = full_grid(ner="annotations")
    assert len(grid) == len(set(grid)) == 48
    assert {cfg.ner for cfg in grid} == {"annotations"}
    assert [replace(cfg, ner="none") for cfg in grid] == full_grid()


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
@example(extra=[RawSentence(""), RawSentence("The of AND")], picks=[2, 5, 50, 95], seed=0)
def test_token_tables_equal_preprocess(extra, picks, seed):
    grid = [*full_grid(), *full_grid(ner="annotations")]
    configs = [grid[i] for i in picks]
    ds = make_dataset(np.random.default_rng(seed), 5)
    worked = RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS)
    sentences = [s for pair in ds.pairs for s in (pair.s1, pair.s2)] + extra + [worked]
    seen, vocabs = [], set()
    for cfg, table in token_tables(sentences, configs):
        seen.append(cfg)
        vocabs.add(id(table.vocab))
        assert table.ids.dtype == table.lengths.dtype == np.int64
        assert table.lengths.sum() == len(table.ids) and len(table.lengths) == len(sentences)
        assert 0 <= table.ids.min(initial=0) and table.ids.max(initial=-1) < len(table.vocab)
        # one id per token: the vocabulary has no repeats
        assert len(set(table.vocab)) == len(table.vocab)
        assert table.texts == [" ".join(preprocess(s, cfg)) for s in sentences]
    assert len(vocabs) == 1
    assert sorted(seen, key=grid.index) == seen
    assert set(seen) == set(configs) and len(seen) == len(set(configs))
    # ids number the tokens in order of first appearance, the tokenized ones first
    raw = [t for s in sentences for t in preprocess(s, PreprocessConfig(lowercase=False))]
    [(_, table)] = token_tables(sentences, [PreprocessConfig()])
    assert table.vocab == list(dict.fromkeys(raw + [t.lower() for t in raw]))


def test_token_tables_call_each_stage_once_per_distinct_input(monkeypatch):
    # the stages are looked up as module and class attributes, so a wrapper
    # set there (a profiler's, say) sees every call
    from stsbench import preprocess as module
    tokenized, filtered = [], []
    tokenize, apply = module.tokenize, module.CharFilter.apply
    monkeypatch.setattr(module, "tokenize", lambda text, mode: tokenized.append((text, mode)) or tokenize(text, mode))
    monkeypatch.setattr(module.CharFilter, "apply", lambda self, text: filtered.extend(
        (self.name, token) for token in text.split("\n")) or apply(self, text))
    ds = make_dataset(np.random.default_rng(3), 20)
    sentences = list(dict.fromkeys(s for pair in ds.pairs for s in (pair.s1, pair.s2)))
    sentences += [RawSentence("Tumour-7 IL-6, the IL-6!", (Annotation(0, 8, "C0012"),)), RawSentence("")]
    for _ in token_tables(sentences, [*full_grid(), *full_grid(ner="annotations")]):
        pass
    texts = [module._text(s, ner) for ner in OPTIONS["ner"] for s in sentences]
    assert [text for text, mode in tokenized if mode == "whitespace"] == texts
    chunks = [text for text, mode in tokenized if mode == "treebank-rules"]
    assert len(chunks) == len(set(chunks))
    assert set(chunks) == {chunk for text in texts for chunk in text.split()}
    assert len(filtered) == len(set(filtered)) > 0


@settings(max_examples=100, deadline=None)
@given(first=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join), max_size=6),
       second=st.lists(st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join), max_size=6))
@example(first=["The of", "cell x."], second=["", "x. of The AND", "cell"])
def test_split_and_id_maps_number_like_unique(first, second):
    # the presence masks give np.unique's arrays, and an id map runs its
    # stage on the ids it has not seen in ascending id order; ``first``
    # numbers tokens before ``second`` is split, so its ids are sparse
    from stsbench.preprocess import _IdMap, _split, _Vocabulary
    vocab, batches = _Vocabulary(), []
    lower = _IdMap(lambda batch: batches.append(batch) or [(t.lower(),) for t in batch], vocab)
    seen: set[int] = set()
    for texts in (first, second):
        split = _split([RawSentence(t) for t in texts], "none", vocab)
        ids = vocab.ids([t for text in texts for t in text.split()])
        distinct, inverse = np.unique(ids, return_inverse=True)
        assert np.array_equal(split.distinct, distinct) and np.array_equal(split.inverse, inverse)
        assert split.distinct.dtype == distinct.dtype and split.inverse.dtype == inverse.dtype
        new = sorted(set(ids.tolist()) - seen)
        mapped, lengths = lower(ids, split.lengths)
        assert batches.pop() == [vocab.tokens[i] for i in new] if new else not batches
        seen.update(new)
        assert [vocab.tokens[i] for i in mapped] == [t.lower() for text in texts for t in text.split()]
        assert np.array_equal(lengths, split.lengths)


# tokens as the whitespace split gives them, with the characters that a
# batched stage could get wrong: a capital sigma, whose lower case depends
# on the letters around it, İ, which lower-cases to two code points, "_" and
# non-ASCII punctuation, which only blagec2019 maps, and the filters'
# deletions and replacements, which empty or split a token
_TOKEN_CHARS = st.one_of(st.sampled_from(list("AΣσİi_-−–/.,;(%)'’‐…·«THEthe")),
                         st.characters().filter(lambda c: not c.isspace()))
_TOKENS = st.lists(st.text(_TOKEN_CHARS, min_size=1, max_size=6), max_size=12)


@given(_TOKENS)
@example([])
@example(["ΑΣ", "Σ", "ΑΣ'", "Σα", "ΑΣ", "σ"])
@example(["İ", "İİ", "Aİ"])
@example(["a_b", "x…y", "«The»", ",", "(", "IL-6", "a/b-c"])
@example(["The", "OF", "and", "The,"])
@settings(max_examples=300, deadline=None)
def test_batched_stages_equal_the_per_token_stages(tokens):
    from stsbench.preprocess import _stages
    per_token = {("lowercase",): lambda t: (t.lower(),)}
    for name in OPTIONS["char_filter"][1:]:
        per_token["char_filter", name] = lambda t, f=load_char_filter(name): tuple(f.apply(t).split())
    for name in OPTIONS["stopwords"][1:]:
        per_token["stopwords", name] = lambda t, stop=load_stopwords(name): () if t.lower() in stop else (t,)
    batched = {}
    for cf, sw in zip(OPTIONS["char_filter"][1:], [*OPTIONS["stopwords"][1:], "none"]):
        batched.update(s for s in _stages(PreprocessConfig(char_filter=cf, stopwords=sw)) if s is not None)
    assert batched.keys() == per_token.keys()
    for name, stage in batched.items():
        assert [tuple(out) for out in stage(tokens)] == [per_token[name](t) for t in tokens], name


def test_token_table_texts_join_each_sentence_by_spaces():
    # empty and all-filtered sentences, annotations, code points outside the
    # BMP, İ, which lower-cases to two code points, and a word-final capital
    # sigma, whose lower case depends on the letters around it
    sentences = [
        RawSentence(""),
        RawSentence("The of AND"),
        RawSentence(". , ; ( )"),
        RawSentence(EXAMPLE_TEXT, EXAMPLE_ANNOTATIONS),
        RawSentence("𝔊𝔢𝔫𝔢 😀 IL-𝟞 binds 𠀋-x.", (Annotation(0, 8, "C𝔡01"),)),
        RawSentence("İstanbul İL-6, ΟΔΟΣ ΛΟΓΟΣ. ΑΣ'Α"),
        RawSentence("The of AND"),
    ]
    pairs = set()  # (text, token sequence) over every table
    for cfg, table in token_tables(sentences, [*full_grid(), *full_grid(ner="annotations")]):
        sequences = [preprocess(s, cfg) for s in sentences]
        assert table.texts == [" ".join(tokens) for tokens in sequences], cfg.label()
        pairs.update(zip(table.texts, sequences))
    texts, sequences = zip(*pairs)
    # distinct token sequences give distinct texts
    assert len(set(texts)) == len(set(sequences)) == len(pairs)
    assert "" in texts and any(len(t) > 1 and not t.isascii() for t in texts)


# whitespace that str.split() splits at but a space-joined text does not
# hold (U+0085, U+00A0, U+2028, U+3000, the separator \x1c) and the
# zero-width space, which is no whitespace and so stays inside a token
_SPLIT_CHARS = st.one_of(st.sampled_from(list("\x85\xa0\u2028\u3000\x1c\u200b \tAΣσİ._-%")), st.characters())


@st.composite
def _unicode_sentences(draw):
    text = draw(st.text(_SPLIT_CHARS, max_size=16))
    annotations = ()
    if text and draw(st.booleans()):
        end = draw(st.integers(0, len(text)))
        annotations = (Annotation(0, end, draw(st.sampled_from(["C0012", "CΣ\u200b1"]))),)
    return RawSentence(text, annotations)


@settings(max_examples=60, deadline=None)
@given(st.lists(_unicode_sentences(), min_size=1, max_size=5))
@example([RawSentence("a\x85b\xa0c\u2028d\u3000e\x1cf\u200bg"), RawSentence("\x85 \u3000")])
def test_token_table_texts_split_back_to_the_tokens(sentences):
    # the pair memo keys every measure on texts and splits a non-empty text
    # at spaces to score it, which gives back its tokens only because no
    # token is empty or holds a space
    for cfg, table in token_tables(sentences, [*full_grid(), *full_grid(ner="annotations")]):
        tokens = [tuple(text.split(" ")) if text else () for text in table.texts]
        assert tokens == [preprocess(s, cfg) for s in sentences], cfg.label()


# Every axis of the grid acts on these two sentences:
# - lc: "The", "IL", "Cells" and "miR" keep their capitals under every filter;
# - cf: none keeps the full stops, which default deletes; default keeps "%",
#   which biosses deletes; biosses keeps "±", which blagec2019 maps to a space;
# - tok: "5±2" is one whitespace token and three treebank-rules tokens, and
#   neither none, default nor biosses removes "±";
# - sw: "may" is only on the biosses list and "just" and "now" only on
#   nltk2018, so each list drops a word the other keeps.
# cf=blagec2019 maps every non-alphanumeric character to a space, and neither
# tokenizer splits between two alphanumeric characters, so under it both
# tokenizers give the same runs of alphanumeric characters: a collapse at each
# of the 2 x 3 (lc, sw) pairs. 4 x 2 x 2 x 3 = 48 configs, 48 - 6 = 42 tables.
# The collapse holds for these sentences, not for all text: with lc=yes,
# str.lower lower-cases a capital sigma by its context, which the char filter
# only changes afterwards (test_blagec2019_keeps_the_tokenizer_for_a_final_sigma).
_EVERY_AXIS = ("The level may rise in 5% of the IL-6 cases (e.g. 5±2), just now.",
               "Cells express miR-146a; p<0.05.")


def test_every_grid_axis_acts_on_a_crafted_corpus():
    sentences = [RawSentence(text) for text in _EVERY_AXIS]
    tables = dict(token_tables(sentences, full_grid()))
    groups: dict[tuple[bytes, bytes], list[PreprocessConfig]] = {}  # configs in grid order
    for cfg, table in tables.items():
        groups.setdefault((table.lengths.tobytes(), table.ids.tobytes()), []).append(cfg)
    collapses = [group for group in groups.values() if len(group) > 1]
    assert collapses == [[PreprocessConfig(tokenizer=tok, lowercase=lc, char_filter="blagec2019", stopwords=sw)
                          for tok in OPTIONS["tokenizer"]]
                         for lc in OPTIONS["lowercase"] for sw in OPTIONS["stopwords"]]
    assert len(groups) == len({table.key for table in tables.values()}) == 42


def test_blagec2019_keeps_the_tokenizer_for_a_final_sigma():
    # lower-casing runs before the char filter: "ΟΔΟΣ.Α" is one whitespace
    # token, whose Σ is followed by ".Α" and so lower-cases to σ, while
    # treebank-rules splits off ".", leaving Σ word-final, which gives ς
    sentences = [RawSentence("ΟΔΟΣ.Α")]
    configs = [PreprocessConfig(tokenizer=tok, char_filter="blagec2019") for tok in OPTIONS["tokenizer"]]
    tables = dict(token_tables(sentences, configs))
    assert [tables[cfg].texts for cfg in configs] == [["οδοσ α"], ["οδος α"]]
    assert tables[configs[0]].key != tables[configs[1]].key
