"""Five-stage sentence pre-processing pipeline.

Stages run strictly in this order:

1. concept substitution (optional) -- every annotated span is replaced by
   its lower-cased concept code, which then survives the pipeline as a
   single token
2. tokenization (``whitespace`` or ``treebank-rules``)
3. lower-casing (optional)
4. character filtering (named, editable resource files)
5. stop-word removal (named, editable resource files)

The ``treebank-rules`` tokenizer is a self-contained rule engine:

* runs of word characters (plus internal hyphens/apostrophes) form tokens
* any other non-space character becomes its own token
* abbreviations of the form ``x.`` / ``e.g.`` keep their periods attached
* a hyphen directly followed by a digit splits the token at that boundary
  (``miR-146a`` -> ``miR``, ``146a``), the hyphen is dropped

Exact parity with external tokenizers is not promised.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from importlib import resources as importlib_resources
from pathlib import Path

from .core import RawSentence

TokenSequence = tuple[str, ...]

NER_MODES = ("none", "annotations")
TOKENIZERS = ("whitespace", "treebank-rules")
CHAR_FILTERS = ("none", "default", "biosses", "blagec2019")
STOPWORD_LISTS = ("none", "biosses", "nltk2018")


class ConfigError(ValueError):
    """Unknown option value or unresolvable resource name."""


def _resource_path(kind: str, name: str) -> Path:
    base = importlib_resources.files("stsbench") / "resources" / kind
    path = Path(str(base / f"{name}.txt"))
    if not path.is_file():
        raise ConfigError(f"no {kind} resource named {name!r}")
    return path


@functools.lru_cache(maxsize=None)
def load_stopwords(name: str) -> frozenset[str]:
    """Load a named stop-word list; one lower-case token per line."""
    words = set()
    for line in _resource_path("stopwords", name).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    if not words:
        raise ConfigError(f"stop-word list {name!r} is empty")
    return frozenset(words)


_RULE_RE = re.compile(r"^s/(\\.|[^/])/(\\.|[^/]*)/$")
_NON_ALNUM_MARKER = "s/[^alnum]/ /"


class CharFilter:
    """Character deletions and single-character replacements over a token."""

    def __init__(self, name: str, delete: str, replace: dict[str, str], non_alnum_to_space: bool):
        self.name = name
        self._table = {ord(c): None for c in delete}
        self._table.update({ord(k): v for k, v in replace.items()})
        self._non_alnum = non_alnum_to_space

    def apply(self, token: str) -> str:
        if self._non_alnum:
            token = "".join(c if c.isalnum() else " " for c in token)
        return token.translate(self._table)


def _unescape(s: str) -> str:
    return s[1] if s.startswith("\\") else s


@functools.lru_cache(maxsize=None)
def load_char_filter(name: str) -> CharFilter:
    """Load a named character filter resource file.

    Each line is either one character to delete or a replacement rule
    ``s/FROM/TO/`` (single characters, ``\\/`` escapes a slash). The
    special rule ``s/[^alnum]/ /`` maps every non-alphanumeric character
    to a space.
    """
    delete: list[str] = []
    replace: dict[str, str] = {}
    non_alnum = False
    for line in _resource_path("charfilters", name).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        if line == _NON_ALNUM_MARKER:
            non_alnum = True
            continue
        m = _RULE_RE.match(line)
        if m:
            replace[_unescape(m.group(1))] = _unescape(m.group(2))
        elif len(line) == 1:
            delete.append(line)
        else:
            raise ConfigError(f"char filter {name!r}: cannot parse line {line!r}")
    return CharFilter(name, "".join(delete), replace, non_alnum)


@dataclass(frozen=True)
class PreprocessConfig:
    """One point of the pre-processing configuration grid."""

    ner: str = "none"
    tokenizer: str = "whitespace"
    lowercase: bool = True
    char_filter: str = "none"
    stopwords: str = "none"

    def __post_init__(self):
        for value, allowed, label in (
            (self.ner, NER_MODES, "ner"),
            (self.tokenizer, TOKENIZERS, "tokenizer"),
            (self.char_filter, CHAR_FILTERS, "char_filter"),
            (self.stopwords, STOPWORD_LISTS, "stopwords"),
        ):
            if value not in allowed:
                raise ConfigError(f"{label} must be one of {allowed}, got {value!r}")
        if not isinstance(self.lowercase, bool):
            raise ConfigError(f"lowercase must be a boolean, got {self.lowercase!r}")
        # named resources must resolve at construction time
        if self.char_filter != "none":
            load_char_filter(self.char_filter)
        if self.stopwords != "none":
            load_stopwords(self.stopwords)

    def label(self) -> str:
        lc = "yes" if self.lowercase else "no"
        return f"ner={self.ner},tok={self.tokenizer},lc={lc},cf={self.char_filter},sw={self.stopwords}"


_WORD_RE = re.compile(r"[\w−'’-]+|[^\w\s]", re.UNICODE)
_ABBREV_RE = re.compile(r"^(?:[A-Za-z]\.)+$")
_HYPHEN_DIGIT_RE = re.compile(r"[-−](?=\d)")


def _treebank_tokens(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.split():
        if _ABBREV_RE.match(chunk):
            tokens.append(chunk)
            continue
        for piece in _WORD_RE.findall(chunk):
            if _HYPHEN_DIGIT_RE.search(piece):
                tokens.extend(p for p in _HYPHEN_DIGIT_RE.split(piece) if p)
            else:
                tokens.append(piece)
    return tokens


def tokenize(text: str, mode: str) -> TokenSequence:
    """Split text into tokens using the given mode."""
    if mode == "whitespace":
        return tuple(text.split())
    if mode == "treebank-rules":
        return tuple(_treebank_tokens(text))
    raise ConfigError(f"unknown tokenizer {mode!r}")


def substitute_concepts(sentence: RawSentence) -> str:
    """Replace each annotated span with its lower-cased concept code."""
    text = sentence.text
    for ann in sorted(sentence.annotations, key=lambda a: a.start, reverse=True):
        text = text[: ann.start] + ann.code.lower() + text[ann.end :]
    return text


def _stages(cfg: PreprocessConfig) -> list:
    """The pipeline as (memo name, item -> tokens) maps, applied to a
    one-sentence sequence first; None for a stage the config skips."""
    filt = load_char_filter(cfg.char_filter) if cfg.char_filter != "none" else None
    stop = load_stopwords(cfg.stopwords) if cfg.stopwords != "none" else None
    return [
        (None, lambda s: tokenize(substitute_concepts(s) if cfg.ner == "annotations" else s.text,
                                  cfg.tokenizer)),
        (("lowercase",), lambda t: (t.lower(),)) if cfg.lowercase else None,
        (("char_filter", cfg.char_filter), lambda t: filt.apply(t).split()) if filt else None,
        (("stopwords", cfg.stopwords), lambda t: () if t.lower() in stop else (t,)) if stop else None,
    ]


def preprocess(sentence: RawSentence, cfg: PreprocessConfig) -> TokenSequence:
    """Run the full pipeline on one sentence.

    An all-filtered sentence yields an empty sequence, not an error.
    """
    tokens: tuple = (sentence,)
    for stage in _stages(cfg):
        if stage is not None:
            tokens = tuple(out for item in tokens for out in stage[1](item))
    return tokens


def token_tables(sentences: Sequence[RawSentence], configs: Iterable[PreprocessConfig]
                 ) -> Iterator[tuple[PreprocessConfig, list[TokenSequence]]]:
    """Yield ``(cfg, [preprocess(s, cfg) for s in sentences])`` per distinct config.

    Configs come in grid order so that consecutive ones share stage
    prefixes: text is tokenized once per (ner, tokenizer), lower-cased once
    per lowercase choice below that and char-filtered once per filter below
    that. Only the latest table of each stage is kept. Tokens map through a
    per-stage memo, and every token string is interned through one dict, so
    tables share their strings.
    """
    intern: dict[str, str] = {}
    memos: dict[tuple, dict[str, TokenSequence]] = {}

    def mapped(table: list[tuple], stage) -> list[TokenSequence]:
        if stage is None:
            return table
        memo = memos.setdefault(stage[0], {}) if stage[0] else {}
        out = []
        for items in table:
            new: list[str] = []
            for item in items:
                hit = memo.get(item)
                if hit is None:
                    hit = memo[item] = tuple([intern.setdefault(t, t) for t in stage[1](item)])
                new.extend(hit)
            out.append(tuple(new))
        return out

    kept: list = [None] * 3  # (config prefix, table) after tokenizing, lower-casing, char filtering
    for cfg in sorted(set(configs), key=full_grid(with_ner=True).index):
        key = (cfg.ner, cfg.tokenizer, cfg.lowercase, cfg.char_filter)
        stages = _stages(cfg)
        table = [(s,) for s in sentences]
        for depth in range(3):
            if kept[depth] is None or kept[depth][0] != key[:depth + 2]:
                kept[depth:] = [None] * (3 - depth)  # stale from here down
                kept[depth] = (key[:depth + 2], mapped(table, stages[depth]))
            table = kept[depth][1]
        yield cfg, mapped(table, stages[3])


_GRID_FIELDS = ("ner", "tokenizer", "lowercase", "char_filter", "stopwords")


def config_grid(dimensions: dict[str, list] | None = None) -> list[PreprocessConfig]:
    """Cartesian product of the given dimension value lists.

    Missing dimensions default to the single default value of
    :class:`PreprocessConfig`. The order is the deterministic lexicographic
    order of the given value lists, iterating the last dimension fastest.
    """
    dimensions = dict(dimensions or {})
    unknown = set(dimensions) - set(_GRID_FIELDS)
    if unknown:
        raise ConfigError(f"unknown grid dimensions: {sorted(unknown)}")
    defaults = {f.name: f.default for f in fields(PreprocessConfig)}
    axes = []
    for name in _GRID_FIELDS:
        values = dimensions.get(name, [defaults[name]])
        if not values:
            raise ConfigError(f"empty value list for dimension {name!r}")
        axes.append(list(values))
    return [
        PreprocessConfig(**dict(zip(_GRID_FIELDS, combo)))
        for combo in itertools.product(*axes)
    ]


def full_grid(with_ner: bool = False, ner: str = "none") -> list[PreprocessConfig]:
    """The complete evaluation grid: 48 configs at NER mode ``ner``, or 96
    over both NER modes ``with_ner``."""
    return config_grid(
        {
            "ner": list(NER_MODES) if with_ner else [ner],
            "tokenizer": list(TOKENIZERS),
            "lowercase": [True, False],
            "char_filter": list(CHAR_FILTERS),
            "stopwords": list(STOPWORD_LISTS),
        }
    )
