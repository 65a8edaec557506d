"""Domain types, dataset ingestion and raw-score persistence.

File formats handled here:

* Every input text file (dataset, annotations, plan, taxonomy, lexicon,
  vectors, stop words, char filter) is UTF-8 read by :func:`read_lines`.
* Dataset TSV: ``sentence1<TAB>sentence2<TAB>score`` per line. The first
  non-blank line is a header when its third field is not numeric.
  Extra trailing columns are ignored with a warning.
* Annotation sidecar TSV: ``row_index<TAB>s1|s2<TAB>start<TAB>end<TAB>code``.
* Raw-score CSV: header ``pair_index,score``, one row per pair, CRLF line
  ends (the ``csv`` module's default), scores rendered with 17 significant
  digits so that a read/write round trip is bit-exact. Runs of one dataset
  with equal scores may share one file through hard links
  (:func:`write_raw_scores`).
"""

from __future__ import annotations

import csv
import math
import operator
import os
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


class DatasetError(ValueError):
    """Malformed dataset, annotation or raw-score file, or text that is not UTF-8."""


@dataclass(frozen=True)
class Annotation:
    """A character span of a sentence labelled with an opaque concept code.

    The code holds no whitespace, which would split it into several tokens
    once it replaces its span.
    """

    start: int
    end: int
    code: str

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise DatasetError(f"invalid span ({self.start}, {self.end})")
        if not self.code:
            raise DatasetError("empty concept code")
        if self.code.split() != [self.code]:
            raise DatasetError(f"concept code {self.code!r} holds whitespace")


def _check_spans(text: str, annotations: tuple[Annotation, ...]) -> None:
    ordered = sorted(annotations, key=lambda a: a.start)
    prev_end = 0
    for ann in ordered:
        if ann.end > len(text):
            raise DatasetError(f"span ({ann.start}, {ann.end}) exceeds text length {len(text)}")
        if ann.start < prev_end:
            raise DatasetError(f"overlapping annotation span at {ann.start}")
        prev_end = ann.end


@dataclass(frozen=True)
class RawSentence:
    """A raw input sentence, optionally carrying concept annotations."""

    text: str
    annotations: tuple[Annotation, ...] = ()

    def __post_init__(self):
        if self.annotations:
            _check_spans(self.text, self.annotations)


@dataclass(frozen=True)
class SentencePair:
    s1: RawSentence
    s2: RawSentence
    human_score: float

    def __post_init__(self):
        if not 0.0 <= self.human_score <= 1.0:
            raise DatasetError(f"human score {self.human_score} outside [0, 1]")


@dataclass(frozen=True)
class Dataset:
    """An ordered, non-empty collection of scored sentence pairs."""

    name: str
    pairs: tuple[SentencePair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise DatasetError(f"dataset {self.name!r} is empty")

    def __len__(self) -> int:
        return len(self.pairs)

    def human_scores(self) -> list[float]:
        return [p.human_score for p in self.pairs]


@dataclass(frozen=True)
class BenchmarkRun:
    """Raw per-pair scores of one measure over one dataset."""

    dataset_name: str
    measure_id: str
    preprocess_config: str
    scores: tuple[float, ...]

    def __post_init__(self):
        if not self.scores:
            raise DatasetError("benchmark run has no scores")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file, as it is read, with its 1-based number
    and without its line end. A leading byte-order mark is skipped. Lines
    end at LF, CRLF or CR only, not at a form feed, U+0085 or U+2028. Bytes
    that are not UTF-8 raise :class:`DatasetError` at their line."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            yield from enumerate((line.rstrip("\n") for line in fh), start=1)
        except UnicodeDecodeError:
            try:  # the stream decodes in chunks, so find the bad byte in the whole file
                Path(path).read_bytes().decode("utf-8-sig")
            except UnicodeDecodeError as exc:
                head = exc.object[:exc.start]
                lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise DatasetError(f"{path}:{lineno}: not UTF-8 text") from None


def load_dataset(path: str | Path, name: str | None = None) -> Dataset:
    """Load a sentence-pair dataset from a TSV file (:func:`read_lines`).

    A first line whose score ``float`` cannot parse is the header. If any
    score exceeds 1, the whole score column is min-max normalized to [0, 1]
    and a warning is emitted. Otherwise a negative score is an error at its
    line.
    """
    path = Path(path)
    rows: list[tuple[str, str, float]] = []
    negative = None  # the line and value of the first score below 0
    warned_extra = False
    first = True
    for lineno, line in read_lines(path):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) < 3:
            raise DatasetError(f"{path}:{lineno}: expected >= 3 tab-separated fields, got {len(fields)}")
        try:
            score = float(fields[2])
        except ValueError:
            score = None
        if first:
            first = False
            if score is None:
                continue  # header line
        if len(fields) > 3 and not warned_extra:
            warnings.warn(f"{path}: ignoring extra trailing columns (first seen at line {lineno})")
            warned_extra = True
        if score is None:
            raise DatasetError(f"{path}:{lineno}: score {fields[2]!r} is not a number")
        if not math.isfinite(score):
            raise DatasetError(f"{path}:{lineno}: score {fields[2]!r} is not a finite number")
        if score < 0.0 and negative is None:
            negative = lineno, score
        rows.append((fields[0], fields[1], score))
    if not rows:
        raise DatasetError(f"{path}: no sentence pairs")
    scores = [r[2] for r in rows]
    if max(scores) > 1.0:
        lo, hi = min(scores), max(scores)
        warnings.warn(f"{path}: scores exceed 1, min-max normalizing column from [{lo}, {hi}] to [0, 1]")
        if hi == lo:
            scores = [1.0 for _ in scores]
        else:
            scores = [(s - lo) / (hi - lo) for s in scores]
    elif negative is not None:
        raise DatasetError(f"{path}:{negative[0]}: human score {negative[1]} outside [0, 1]")
    pairs = tuple(
        SentencePair(RawSentence(s1), RawSentence(s2), sc)
        for (s1, s2, _), sc in zip(rows, scores)
    )
    return Dataset(name or path.stem, pairs)


SentenceId = tuple[int, str]  # (row index, "s1" | "s2")

_SIDES = ("s1", "s2")


def load_annotations(path: str | Path) -> dict[SentenceId, list[Annotation]]:
    """Load an annotation sidecar file.

    Span bounds can only be checked against sentence text at attach time
    (see :func:`attach_annotations`); overlap and ordering are checked here.
    """
    path = Path(path)
    out: dict[SentenceId, list[Annotation]] = {}
    for lineno, line in read_lines(path):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise DatasetError(f"{path}:{lineno}: expected 5 fields, got {len(fields)}")
        row_s, side, start_s, end_s, code = fields
        if side not in _SIDES:
            raise DatasetError(f"{path}:{lineno}: sentence selector must be s1 or s2, got {side!r}")
        try:
            row, start, end = int(row_s), int(start_s), int(end_s)
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
        try:
            ann = Annotation(start, end, code)
        except DatasetError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}") from None
        out.setdefault((row, side), []).append(ann)
    for key, anns in out.items():
        ordered = sorted(anns, key=lambda a: a.start)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise DatasetError(f"{path}: overlapping spans for sentence {key}")
        out[key] = ordered
    return out


def attach_annotations(dataset: Dataset, annotations: dict[SentenceId, list[Annotation]]) -> Dataset:
    """Return a copy of the dataset with sidecar annotations attached.

    Rejects sentence ids outside the dataset; span bounds are validated by
    the RawSentence constructor.
    """
    for (row, side) in annotations:
        if not 0 <= row < len(dataset):
            raise DatasetError(f"annotation refers to unknown row {row}")
    pairs = []
    for i, pair in enumerate(dataset.pairs):
        s1 = pair.s1
        s2 = pair.s2
        if (i, "s1") in annotations:
            s1 = RawSentence(s1.text, tuple(annotations[(i, "s1")]))
        if (i, "s2") in annotations:
            s2 = RawSentence(s2.text, tuple(annotations[(i, "s2")]))
        pairs.append(replace(pair, s1=s1, s2=s2))
    return Dataset(dataset.name, tuple(pairs))


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write a header and rows as LF-terminated CSV, creating the parent directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def raw_scores_texts(scores: np.ndarray) -> list[str]:
    """The raw-score CSV of each row of a float64 matrix: 17 significant
    digits, CRLF line ends. Each distinct float of the matrix is rendered
    once; floats are told apart by their bits, so ``0.0`` and ``-0.0``,
    which compare equal, keep their own text."""
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    bits, cell = np.unique(scores.view(np.uint64), return_inverse=True)
    texts = np.array([f"{x:.17g}\r\n" for x in bits.view(np.float64).tolist()], dtype=object)
    prefixes = [f"{i}," for i in range(scores.shape[1])]
    return ["pair_index,score\r\n" + "".join(map(operator.add, prefixes, row))
            for row in texts[cell.reshape(scores.shape)].tolist()]


def write_raw_scores(run: BenchmarkRun, path: str | Path, text: str, like: str | Path | None = None) -> None:
    """Write a run's raw-score CSV, ``text`` being its
    :func:`raw_scores_texts` row.

    A file already at ``path`` is unlinked first, so that a file hard-linked
    to it keeps its bytes. ``like`` names a file already written with this
    very ``text``: ``path`` then becomes a hard link to it, which allocates
    no new inode, and where the file system refuses the link the text is
    written as usual.
    """
    path = Path(path)
    try:
        path.unlink(missing_ok=True)
        if like is not None:
            try:
                os.link(like, path)
                return
            except OSError:
                pass
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DatasetError(f"cannot write raw scores to {path}: {exc}") from exc


def read_raw_scores(path: str | Path, dataset_name: str = "", measure_id: str = "",
                    preprocess_config: str = "") -> BenchmarkRun:
    path = Path(path)
    scores: list[float] = []
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["pair_index", "score"]:
                raise DatasetError(f"{path}: unexpected header {header}")
            for row in reader:
                if len(row) != 2:
                    raise DatasetError(f"{path}:{reader.line_num}: malformed row {row}")
                try:
                    scores.append(float(row[1]))
                except ValueError:
                    raise DatasetError(f"{path}:{reader.line_num}: score {row[1]!r} is not a number") from None
    except OSError as exc:
        raise DatasetError(f"cannot read raw scores from {path}: {exc}") from exc
    return BenchmarkRun(dataset_name, measure_id, preprocess_config, tuple(scores))
