"""Five-stage sentence pre-processing pipeline.

Stages run strictly in this order:

1. concept substitution (optional) -- every annotated span is replaced by
   its lower-cased concept code. A code holds no whitespace
   (:class:`~stsbench.core.Annotation` refuses one), so ``whitespace``
   tokenization never splits it; a code that holds punctuation can still be
   split by ``treebank-rules`` or changed by a char filter (``GO:0005``
   becomes ``go``, ``:``, ``0005`` under ``treebank-rules``), and a span
   not bounded by whitespace joins the code to its neighbours
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

Every stage after concept substitution maps a token to tokens. The text is
split at whitespace once; ``treebank-rules`` then splits each whitespace
chunk, which gives the tokens of the pattern run over the whole text, since
no match spans whitespace. A stage takes a batch of tokens and returns the
output tokens of each: lower-casing and char filtering run once per batch,
on the tokens joined by line breaks, which no token holds.

:func:`preprocess` runs the pipeline on one sentence and returns strings.
:func:`token_tables` runs it over many sentences and configs at once and
returns token ids: each sentence is split once per NER mode, its tokens are
numbered in one vocabulary per call, and every later stage is a map over
ids that runs the stage once on the tokens it has not seen. The maps
compose on the split's distinct tokens, and a config's table is one gather
from the split through its composed map.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .core import RawSentence, read_lines

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
    for _, line in read_lines(_resource_path("stopwords", name)):
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    if not words:
        raise ConfigError(f"stop-word list {name!r} is empty")
    return frozenset(words)


_RULE_RE = re.compile(r"^s/(\\.|[^/])/(\\.|[^/]*)/$")
_NON_ALNUM_MARKER = "s/[^alnum]/ /"
_NON_ALNUM_RE = re.compile(r"[^\w\n]|_")  # exactly the characters but "\n" that str.isalnum() rejects


class CharFilter:
    """Character deletions and single-character replacements over a token."""

    def __init__(self, name: str, delete: str, replace: dict[str, str], non_alnum_to_space: bool):
        self.name = name
        self._table = {ord(c): None for c in delete}
        self._table.update({ord(k): v for k, v in replace.items()})
        self._non_alnum = non_alnum_to_space

    def apply(self, text: str) -> str:
        """The text filtered. No rule maps to or from a line break, so each
        line of the result is its line of ``text`` filtered alone."""
        if self._non_alnum:
            text = _NON_ALNUM_RE.sub(" ", text)
        return text.translate(self._table)


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
      non-alphanumeric character (``str.isalnum``) but the line break to a
      space
    """
    delete: list[str] = []
    replace: dict[str, str] = {}
    non_alnum = False
    for _, line in read_lines(_resource_path("charfilters", name)):
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


def _text(sentence: RawSentence, ner: str) -> str:
    """The sentence's text at NER mode ``ner``."""
    return substitute_concepts(sentence) if ner == "annotations" else sentence.text


def _lines(fn, tokens: list[str]) -> list[str]:
    """``fn`` run once on the tokens joined by line breaks, split back into
    one string per token. Exact for a ``fn`` that maps each line on its own
    and keeps the line breaks, as no token holds one."""
    return fn("\n".join(tokens)).split("\n") if tokens else []


def _stages(cfg: PreprocessConfig) -> list:
    """The pipeline after the whitespace split as (map name, stage) pairs,
    None for a stage the config skips. A stage takes a list of tokens and
    returns the output tokens of each. Configs whose stage has the same map
    name share one id map in :func:`token_tables`."""
    filt = load_char_filter(cfg.char_filter) if cfg.char_filter != "none" else None
    stop = load_stopwords(cfg.stopwords) if cfg.stopwords != "none" else None
    return [
        # no treebank match spans whitespace, so the rules may split chunk by chunk
        ((("tokenizer", cfg.tokenizer), lambda ts: [tokenize(t, cfg.tokenizer) for t in ts])
         if cfg.tokenizer != "whitespace" else None),
        (("lowercase",), lambda ts: [(t,) for t in _lines(str.lower, ts)]) if cfg.lowercase else None,
        ((("char_filter", cfg.char_filter),
          lambda ts: [t.split() for t in _lines(filt.apply, ts)])
         if filt else None),
        (("stopwords", cfg.stopwords), lambda ts: [() if t.lower() in stop else (t,) for t in ts]) if stop else None,
    ]


def preprocess(sentence: RawSentence, cfg: PreprocessConfig) -> TokenSequence:
    """Run the full pipeline on one sentence.

    An all-filtered sentence yields an empty sequence, not an error.
    """
    tokens = list(tokenize(_text(sentence, cfg.ner), "whitespace"))
    for _, stage in filter(None, _stages(cfg)):
        tokens = [out for outs in stage(tokens) for out in outs]
    return tuple(tokens)


def _expand(index: np.ndarray, lengths: np.ndarray, starts: np.ndarray, counts: np.ndarray,
            targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequences of items, ``index`` back to back and ``lengths`` long, with
    item k replaced by ``targets[starts[index[k]]:][:counts[index[k]]]``: the
    new items back to back and the new lengths, by one gather."""
    count = counts[index]
    ends = np.cumsum(count)
    bounds = np.concatenate([[0], ends])[np.concatenate([[0], np.cumsum(lengths)])]
    # item k's outputs go to the output from ends[k] - count[k] on
    at = np.repeat(starts[index] + count - ends, count)
    return targets[at + np.arange(len(at))], np.diff(bounds)


@dataclass(frozen=True, eq=False)
class _Split:
    """The sentences split at whitespace at one NER mode: the number of
    tokens of each sentence, the split's distinct token ids in ascending
    order, each token's index in ``distinct`` and a sha256 of the split."""

    lengths: np.ndarray
    distinct: np.ndarray
    inverse: np.ndarray
    digest: bytes


@dataclass(frozen=True, eq=False)
class TokenTable:
    """The token sequences of a list of sentences under one config, as ids.

    A table is its NER mode's whitespace split with the config's map over
    the split's distinct tokens: ``split.distinct[j]`` becomes the next
    ``counts[j]`` ids of ``targets``. ``key`` is a sha256 of the split and
    the map, so tables with equal keys are equal. ``ids`` holds every
    sentence's token ids back to back and ``lengths`` the number of tokens of
    each sentence, both built on first use; ``vocab`` holds the token of each
    id. All tables of one :func:`token_tables` call share one vocabulary,
    which only grows, so an id means the same token in each of them.
    """

    split: _Split
    counts: np.ndarray
    targets: np.ndarray
    vocab: list[str]

    @functools.cached_property
    def key(self) -> bytes:
        return hashlib.sha256(self.split.digest + self.counts.tobytes() + self.targets.tobytes()).digest()

    @functools.cached_property
    def _expanded(self) -> tuple[np.ndarray, np.ndarray]:
        starts = np.cumsum(self.counts) - self.counts
        return _expand(self.split.inverse, self.split.lengths, starts, self.counts, self.targets)

    @property
    def ids(self) -> np.ndarray:
        return self._expanded[0]

    @property
    def lengths(self) -> np.ndarray:
        return self._expanded[1]

    @functools.cached_property
    def texts(self) -> list[str]:
        """Each sentence's tokens joined by single spaces, built on first use
        by one gather of the vocabulary and one join per sentence.

        No token is empty or holds a space, so a text stands for exactly one
        token sequence: equal texts mean equal sequences, and a non-empty
        text's ``split(" ")`` gives its tokens back.
        """
        words = np.array(self.vocab, dtype=object)[self.ids].tolist()
        bounds = np.concatenate([[0], np.cumsum(self.lengths)]).tolist()
        return [" ".join(words[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


class _Vocabulary:
    """Token strings numbered in order of first appearance."""

    def __init__(self):
        self.tokens: list[str] = []
        self._index: dict[str, int] = {}

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """The id of each token, numbering the tokens not seen before."""
        new = [t for t in dict.fromkeys(tokens) if t not in self._index]
        if new:
            self._index.update(zip(new, itertools.count(len(self.tokens))))
            self.tokens.extend(new)
        return np.fromiter(map(self._index.__getitem__, tokens), np.int64, len(tokens))


def _split(sentences: Sequence[RawSentence], ner: str, vocab: _Vocabulary) -> _Split:
    """The sentences split at whitespace at NER mode ``ner``, numbered in ``vocab``."""
    split = [tokenize(_text(s, ner), "whitespace") for s in sentences]
    lengths = np.fromiter(map(len, split), np.int64, len(split))
    ids = vocab.ids(list(itertools.chain.from_iterable(split)))
    # the distinct ids in ascending order and each id's index among them:
    # np.unique's arrays, from a presence mask over the vocabulary (no sort)
    present = np.zeros(len(vocab.tokens), bool)
    present[ids] = True
    return _Split(lengths, np.flatnonzero(present), (np.cumsum(present) - 1)[ids],
                  hashlib.sha256(np.concatenate([lengths, ids])).digest())


class _IdMap:
    """A pipeline stage as a map over ids, running the stage once on the ids
    it has not seen: id i maps to ``targets[start[i]:start[i] + count[i]]``,
    and ``count[i]`` is -1 until i has been seen."""

    def __init__(self, stage, vocab: _Vocabulary):
        self._stage, self._vocab = stage, vocab
        self._count = np.empty(0, np.int64)
        self._start = np.empty(0, np.int64)
        self._targets = np.empty(0, np.int64)

    def _learn(self, ids: np.ndarray) -> None:
        """Run the stage on the tokens of ``ids`` not seen before, in id order."""
        grow = len(self._vocab.tokens) - len(self._count)
        if grow:
            self._count = np.concatenate([self._count, np.full(grow, -1, np.int64)])
            self._start = np.concatenate([self._start, np.zeros(grow, np.int64)])
        present = np.zeros(len(self._count), bool)
        present[ids] = True
        new = np.flatnonzero(present & (self._count < 0))
        if not len(new):
            return
        outs = self._stage([self._vocab.tokens[i] for i in new.tolist()])
        sizes = np.fromiter(map(len, outs), np.int64, len(outs))
        self._count[new] = sizes
        self._start[new] = len(self._targets) + np.cumsum(sizes) - sizes
        flat = self._vocab.ids(list(itertools.chain.from_iterable(outs)))
        self._targets = np.concatenate([self._targets, flat])

    def __call__(self, ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sequences ``ids`` (``lengths`` long) mapped: new ids and lengths."""
        self._learn(ids)
        return _expand(ids, lengths, self._start, self._count, self._targets)


def token_tables(sentences: Sequence[RawSentence], configs: Iterable[PreprocessConfig]
                 ) -> Iterator[tuple[PreprocessConfig, TokenTable]]:
    """Yield ``(cfg, table)`` per distinct config, in grid order,
    ``table.texts`` being ``[" ".join(preprocess(s, cfg)) for s in sentences]``.

    Each sentence is split at whitespace once per NER mode, numbering its
    tokens in a vocabulary shared by every table of the call. Each later
    stage is an :class:`_IdMap` per option value, also shared, so that it
    runs once per distinct token. The maps run on a table of the split's
    distinct tokens, one sequence each, and each prefix of stages is
    composed once per NER mode; a config's table is the split with its
    composed map, expanded on first use.
    """
    vocab = _Vocabulary()
    maps: dict[tuple, _IdMap] = {}
    ner = None
    for cfg in sorted(set(configs), key=lambda c: [OPTIONS[f].index(getattr(c, f)) for f in OPTIONS]):
        if cfg.ner != ner:  # NER modes come one after the other in grid order
            ner, split = cfg.ner, _split(sentences, cfg.ner, vocab)
            composed = {(): (split.distinct, np.ones(len(split.distinct), np.int64))}
        path: tuple = ()
        for name, stage in filter(None, _stages(cfg)):
            prefix, path = path, path + (name,)
            if path not in composed:
                if name not in maps:
                    maps[name] = _IdMap(stage, vocab)
                composed[path] = maps[name](*composed[prefix])
        targets, counts = composed[path]
        yield cfg, TokenTable(split, counts, targets, vocab.tokens)


def full_grid(ner: str = "none") -> list[PreprocessConfig]:
    """The evaluation grid, the 48 configs at NER mode ``ner``, the last
    field of :data:`OPTIONS` varying fastest."""
    options = {**OPTIONS, "ner": (ner,)}
    return [PreprocessConfig(**dict(zip(options, combo))) for combo in itertools.product(*options.values())]
