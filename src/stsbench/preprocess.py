"""Five-stage sentence pre-processing pipeline.

Stages run strictly in this order:

1. concept substitution (optional) -- every annotated span is replaced by
   its lower-cased concept code, which then survives the pipeline as a
   single token
2. tokenization (``whitespace`` or ``treebank-rules``)
3. lower-casing (optional)
4. character filtering (named, editable resource files)
5. stop-word removal (named, editable resource files)

The ``treebank-rules`` tokenizer is one regular expression,
:data:`_TREEBANK_RE`, whose matches are the tokens. A token is one of:

* an abbreviation of the form ``x.`` / ``e.g.`` standing alone between
  spaces, periods attached
* a run of word characters, apostrophes and hyphens; a hyphen directly
  followed by a digit ends the run and is dropped (``miR-146a`` -> ``miR``,
  ``146a``)
* any other non-space character, on its own

Exact parity with external tokenizers is not promised.

:func:`preprocess` runs the pipeline on one sentence and returns strings.
:func:`token_tables` runs it over many sentences and configs at once and
returns token ids: each sentence is tokenized once per (ner, tokenizer),
its tokens are numbered in one vocabulary per call, and every later stage
is a map over ids, built by calling the stage once per distinct token.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .core import RawSentence

TokenSequence = tuple[str, ...]

# PreprocessConfig field -> its allowed values, in grid order; the CLI flags
# and plan keys come from this table too
OPTIONS = {
    "ner": ("none", "annotations"),
    "tokenizer": ("whitespace", "treebank-rules"),
    "lowercase": (True, False),
    "char_filter": ("none", "default", "biosses", "blagec2019"),
    "stopwords": ("none", "biosses", "nltk2018"),
}


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
    for line in _resource_path("stopwords", name).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    if not words:
        raise ConfigError(f"stop-word list {name!r} is empty")
    return frozenset(words)


_RULE_RE = re.compile(r"^s/(\\.|[^/])/(\\.|[^/]*)/$")
_NON_ALNUM_MARKER = "s/[^alnum]/ /"
_NON_ALNUM_RE = re.compile(r"[\W_]")  # exactly the characters that str.isalnum() rejects


class CharFilter:
    """Character deletions and single-character replacements over a token."""

    def __init__(self, name: str, delete: str, replace: dict[str, str], non_alnum_to_space: bool):
        self.name = name
        self._table = {ord(c): None for c in delete}
        self._table.update({ord(k): v for k, v in replace.items()})
        self._non_alnum = non_alnum_to_space

    def apply(self, token: str) -> str:
        if self._non_alnum:
            token = _NON_ALNUM_RE.sub(" ", token)
        return token.translate(self._table)


def _unescape(s: str) -> str:
    return s[1] if s.startswith("\\") else s


@functools.lru_cache(maxsize=None)
def load_char_filter(name: str) -> CharFilter:
    """Load a named character filter resource file.

    Each line is one of:

    * a single character, which is deleted; ``#`` on its own line too
    * a comment, longer than one character and starting with ``#``, or
      an empty line, which are skipped
    * a replacement rule ``s/FROM/TO/`` (single characters, ``\\/``
      escapes a slash)
    * the special rule ``s/[^alnum]/ /``, which maps every
      non-alphanumeric character (``str.isalnum``) to a space
    """
    delete: list[str] = []
    replace: dict[str, str] = {}
    non_alnum = False
    for line in _resource_path("charfilters", name).read_text(encoding="utf-8-sig").splitlines():
        if len(line) == 1:  # before the comment test, so that "#" is a character too
            delete.append(line)
        elif line == _NON_ALNUM_MARKER:
            non_alnum = True
        elif m := _RULE_RE.match(line):
            replace[_unescape(m.group(1))] = _unescape(m.group(2))
        elif line and not line.startswith("#"):
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
        for name, allowed in OPTIONS.items():
            value = getattr(self, name)
            # a field's values share one type; checked so that 1 does not pass for True
            if type(value) is not type(allowed[0]) or value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        # named resources must resolve at construction time
        if self.char_filter != "none":
            load_char_filter(self.char_filter)
        if self.stopwords != "none":
            load_stopwords(self.stopwords)

    def label(self) -> str:
        lc = "yes" if self.lowercase else "no"
        return f"ner={self.ner},tok={self.tokenizer},lc={lc},cf={self.char_filter},sw={self.stopwords}"


_TREEBANK_RE = re.compile(r"(?<!\S)(?:[A-Za-z]\.)+(?!\S)|(?:[\w'’]|[-−](?!\d))+|[^\w\s'’−-]")


def tokenize(text: str, mode: str) -> TokenSequence:
    """Split text into tokens using the given mode."""
    if mode == "whitespace":
        return tuple(text.split())
    if mode == "treebank-rules":
        return tuple(_TREEBANK_RE.findall(text))
    raise ConfigError(f"unknown tokenizer {mode!r}")


def substitute_concepts(sentence: RawSentence) -> str:
    """Replace each annotated span with its lower-cased concept code."""
    text = sentence.text
    for ann in sorted(sentence.annotations, key=lambda a: a.start, reverse=True):
        text = text[: ann.start] + ann.code.lower() + text[ann.end :]
    return text


def _stages(cfg: PreprocessConfig) -> list:
    """The pipeline as (map name, item -> tokens) stages, applied to a
    one-sentence sequence first; None for a stage the config skips. Configs
    whose stage has the same map name share one id map in :func:`token_tables`."""
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


@dataclass(frozen=True, eq=False)
class TokenTable:
    """The token sequences of a list of sentences under one config, as ids.

    ``ids`` holds every sentence's token ids back to back, ``lengths`` the
    number of tokens of each sentence and ``vocab`` the token of each id. All
    tables of one :func:`token_tables` call share one vocabulary, which only
    grows, so an id means the same token in each of them.
    """

    ids: np.ndarray
    lengths: np.ndarray
    vocab: list[str]

    @functools.cached_property
    def tokens(self) -> list[TokenSequence]:
        """The table decoded to one token sequence per sentence, built on first use."""
        flat = list(map(self.vocab.__getitem__, self.ids.tolist()))
        ends = np.cumsum(self.lengths).tolist()
        return [tuple(flat[a:b]) for a, b in zip([0, *ends], ends)]


class _Vocabulary:
    """Token strings numbered in order of first appearance."""

    def __init__(self):
        self.tokens: list[str] = []
        self._index: dict[str, int] = {}

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """The id of each token, numbering the tokens not seen before."""
        new = [t for t in dict.fromkeys(tokens) if t not in self._index]
        self._index.update(zip(new, itertools.count(len(self.tokens))))
        self.tokens.extend(new)
        return np.fromiter(map(self._index.__getitem__, tokens), np.int64, len(tokens))


class _IdMap:
    """A pipeline stage's token -> tokens function as a map over ids, calling the
    function once per distinct id: id i maps to ``targets[start[i]:start[i] + count[i]]``,
    and ``count[i]`` is -1 until i has been seen."""

    def __init__(self, fn, vocab: _Vocabulary):
        self._fn, self._vocab = fn, vocab
        self._count = np.empty(0, np.int64)
        self._start = np.empty(0, np.int64)
        self._targets = np.empty(0, np.int64)

    def _learn(self, ids: np.ndarray) -> None:
        """Run the stage on each token of ``ids`` not seen before."""
        grow = len(self._vocab.tokens) - len(self._count)
        self._count = np.concatenate([self._count, np.full(grow, -1, np.int64)])
        self._start = np.concatenate([self._start, np.zeros(grow, np.int64)])
        present = np.zeros(len(self._count), bool)
        present[ids] = True
        new = np.flatnonzero(present & (self._count < 0)).tolist()
        outs = [self._fn(self._vocab.tokens[i]) for i in new]
        sizes = np.fromiter(map(len, outs), np.int64, len(outs))
        self._count[new] = sizes
        self._start[new] = len(self._targets) + np.cumsum(sizes) - sizes
        flat = self._vocab.ids(list(itertools.chain.from_iterable(outs)))
        self._targets = np.concatenate([self._targets, flat])

    def __call__(self, table: TokenTable) -> TokenTable:
        self._learn(table.ids)
        count = self._count[table.ids]
        out_ends = np.cumsum(count)
        bounds = np.concatenate([[0], out_ends])[np.concatenate([[0], np.cumsum(table.lengths)])]
        # token k's outputs, targets[start[k]:start[k] + count[k]], go to the
        # output from out_ends[k] - count[k] on: one gather copies them all. The
        # table-long index arrays are built in place and freed as soon as they
        # are used, which keeps the peak memory of pre-processing down.
        at = self._start[table.ids]
        at += count
        at -= out_ends
        del out_ends
        at = np.repeat(at, count)
        del count
        at += np.arange(len(at))
        return TokenTable(self._targets[at], np.diff(bounds), self._vocab.tokens)


def token_tables(sentences: Sequence[RawSentence], configs: Iterable[PreprocessConfig]
                 ) -> Iterator[tuple[PreprocessConfig, TokenTable]]:
    """Yield ``(cfg, table)`` per distinct config, ``table.tokens`` being
    ``[preprocess(s, cfg) for s in sentences]``.

    Configs come in grid order so that consecutive ones share stage
    prefixes: text is tokenized once per (ner, tokenizer), lower-cased once
    per lowercase choice below that and char-filtered once per filter below
    that. Only the latest table of each stage is kept. Tokenizing numbers
    each token in a vocabulary shared by every table of the call; each later
    stage is an :class:`_IdMap` per option value, also shared, so its
    function runs once per distinct token.
    """
    vocab = _Vocabulary()
    maps: dict[tuple, _IdMap] = {}

    def mapped(table: TokenTable | None, stage) -> TokenTable:
        if stage is None:
            return table
        if table is None:  # tokenizing, the first stage, reads the sentences
            split = [vocab.ids(stage[1](s)) for s in sentences]
            lengths = np.fromiter(map(len, split), np.int64, len(split))
            return TokenTable(np.concatenate([np.empty(0, np.int64), *split]), lengths, vocab.tokens)
        if stage[0] not in maps:
            maps[stage[0]] = _IdMap(stage[1], vocab)
        return maps[stage[0]](table)

    kept: list = [None] * 3  # (config prefix, table) after tokenizing, lower-casing, char filtering
    for cfg in sorted(set(configs), key=full_grid(with_ner=True).index):
        key = (cfg.ner, cfg.tokenizer, cfg.lowercase, cfg.char_filter)
        stages = _stages(cfg)
        table = None
        for depth in range(3):
            if kept[depth] is None or kept[depth][0] != key[:depth + 2]:
                kept[depth:] = [None] * (3 - depth)  # stale from here down
                kept[depth] = (key[:depth + 2], mapped(table, stages[depth]))
            table = kept[depth][1]
        yield cfg, mapped(table, stages[3])


def full_grid(with_ner: bool = False, ner: str = "none") -> list[PreprocessConfig]:
    """The evaluation grid, the last field of :data:`OPTIONS` varying fastest:
    48 configs at NER mode ``ner``, or 96 over both NER modes ``with_ner``."""
    options = OPTIONS if with_ner else {**OPTIONS, "ner": (ner,)}
    return [PreprocessConfig(**dict(zip(options, combo))) for combo in itertools.product(*options.values())]
