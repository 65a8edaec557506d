"""Benchmark orchestration: plans, scorers, runs, reports and throughput."""

from __future__ import annotations

import time
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

import numpy as np

from . import ontosim, strsim, vecsim
from .core import (
    BenchmarkRun,
    Dataset,
    RawSentence,
    attach_annotations,
    load_annotations,
    load_dataset,
    raw_scores_texts,
    write_raw_scores,
    write_table,
)
from .preprocess import PreprocessConfig, token_tables
from .stats import row_correlations


class PlanError(ValueError):
    """Invalid benchmark plan or unresolvable resource."""


# measure id -> (family, how it is computed). "string": "ids" for the five
# token measures, which ``score_runs`` scores a table at a time from its ids
# by ``strsim.token_pair_scores``, and "texts" for Levenshtein, scored by
# ``strsim.levenshtein_pair_scores``. "ontology": the word-similarity kind
# and the NER modes of the token views it reads; UBSM is WBSM over the
# concept-substituted view, COM averages the two. "swem": the pooling mode.
# Every measure but the five token measures is scored through the pair memo,
# on the texts of each new pair.
MEASURES = {
    "qgram": ("string", "ids"), "jaccard": ("string", "ids"),
    "block": ("string", "ids"), "liblock": ("string", "ids"),
    "levenshtein": ("string", "texts"), "overlap": ("string", "ids"),
    "wbsm-rada": ("ontology", ("rada", ("none",))),
    "wbsm-jc": ("ontology", ("jiang-conrath", ("none",))),
    "ubsm-rada": ("ontology", ("rada", ("annotations",))),
    "ubsm-jc": ("ontology", ("jiang-conrath", ("annotations",))),
    "com": ("ontology", ("rada", ("none", "annotations"))),
    **{f"swem:{mode}": ("swem", mode) for mode in vecsim.POOLING_MODES},
}
STRING_MEASURES = tuple(m for m, (family, _) in MEASURES.items() if family == "string")


def known_measure(measure_id: str) -> bool:
    return measure_id in MEASURES


@dataclass
class Resources:
    """Shared immutable models loaded once per plan, and one memoised word
    measure per kind, shared by every scorer and config."""

    vectors: vecsim.VectorModel | None = None
    taxonomy: ontosim.Taxonomy | None = None
    lexicon: dict[str, frozenset[str]] | None = None
    word_measures: dict[str, ontosim.WordSimMeasure] = field(default_factory=dict, repr=False)

    def word_measure(self, kind: str) -> ontosim.WordSimMeasure:
        """Built on first use, which checks the lexicon against the taxonomy."""
        if kind not in self.word_measures:
            self.word_measures[kind] = ontosim.WordSimMeasure(kind, self.taxonomy, self.lexicon)
        return self.word_measures[kind]


class PairScorer:
    """Scores sentence pairs for one (measure, pre-processing) choice.

    ``views`` are the configs whose token sequences the measure reads: the
    scorer's own config, or its word and concept variants for the ontology
    measures (both for ``com``). ``score_pairs`` scores a list of pairs of
    non-empty texts (:attr:`TokenTable.texts`) of one view; it is None for
    the five token measures, which have a table kernel on ids. The ontology
    and SWEM measures split each text back into its tokens.
    ``com`` is WBSM over each of its views, combined by :func:`score_runs`.
    ``kernel`` names what the measure computes on one view, and keys both of
    :func:`score_runs`' memos: the word-similarity kind for the WBSM-based
    measures (``wbsm-*``, ``ubsm-*`` and ``com``), which share it, and the
    measure id for every other measure. Two scorers of one kernel give a
    pair of texts the same score, so Levenshtein and the ontology and SWEM
    measures score each distinct pair once per plan and kernel.
    """

    def __init__(self, measure_id: str, config: PreprocessConfig, resources: Resources):
        if not known_measure(measure_id):
            raise PlanError(f"unknown measure id {measure_id!r}")
        self.measure_id = measure_id
        self.config = config
        self.views: tuple[PreprocessConfig, ...] = (config,)
        self.kernel = measure_id
        family, how = MEASURES[measure_id]
        if family == "string":
            self.score_pairs = None if how == "ids" else _levenshtein_pairs
        elif family == "swem":
            vectors = resources.vectors
            if vectors is None:
                raise PlanError(f"measure {measure_id!r} requires a word-vector model")
            self.score_pairs = lambda pairs: [vecsim.rescale_signed(vecsim.swem_sim(a, b, vectors, how))
                                              for a, b in _token_pairs(pairs)]
        else:
            if resources.taxonomy is None or resources.lexicon is None:
                raise PlanError(f"measure {measure_id!r} requires a taxonomy and lexicon")
            self.kernel, ners = how
            words = resources.word_measure(self.kernel)
            self.views = tuple(replace(config, ner=ner) for ner in ners)
            self.score_pairs = lambda pairs: [ontosim.wbsm(a, b, words) for a, b in _token_pairs(pairs)]


def _token_pairs(pairs: list[tuple[str, str]]) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Each pair of non-empty texts as its pair of token sequences."""
    return ((tuple(a.split(" ")), tuple(b.split(" "))) for a, b in pairs)


def _levenshtein_pairs(pairs: list[tuple[str, str]]) -> list[float]:
    """Levenshtein of each pair of texts, by one call on the pairs as given:
    pair k is texts 2k and 2k + 1 of their flat list."""
    texts = [text for pair in pairs for text in pair]
    return strsim.levenshtein_pair_scores(texts, np.arange(len(texts)).reshape(-1, 2)).tolist()


@dataclass
class MeasureSpec:
    measure_id: str
    configs: list[PreprocessConfig]


@dataclass
class BenchmarkPlan:
    datasets: dict[str, Path]
    measures: list[MeasureSpec]
    out_dir: Path = Path("results")
    vectors: Path | None = None
    taxonomy: Path | None = None
    lexicon: Path | None = None
    annotations: dict[str, Path] = field(default_factory=dict)


def validate_plan(plan: BenchmarkPlan) -> list[PairScorer]:
    """Fail-fast resolution of every named resource in the plan.

    Returns one scorer per (measure, config), in plan order.
    """
    if not plan.datasets:
        raise PlanError("plan names no datasets")
    if not plan.measures:
        raise PlanError("plan names no measures")
    for name, path in plan.datasets.items():
        # the name is the first part of each raw-score file name in out_dir
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise PlanError(f"dataset name {name!r} is not one file-name component")
        if not Path(path).is_file():
            raise PlanError(f"dataset {name!r}: no such file {path}")
    for name, path in plan.annotations.items():
        if name not in plan.datasets:
            raise PlanError(f"annotations given for unknown dataset {name!r}")
        if not Path(path).is_file():
            raise PlanError(f"annotations for {name!r}: no such file {path}")
    seen: set[tuple[str, PreprocessConfig]] = set()
    for spec in plan.measures:
        if not known_measure(spec.measure_id):
            raise PlanError(f"unknown measure id {spec.measure_id!r}")
        for cfg in spec.configs:
            if (spec.measure_id, cfg) in seen:
                raise PlanError(f"duplicate measure entry {spec.measure_id!r} ({cfg.label()})")
            seen.add((spec.measure_id, cfg))
    resources = Resources()
    if plan.vectors is not None:
        resources.vectors = vecsim.load_vectors(plan.vectors)
    if plan.taxonomy is not None:
        resources.taxonomy = ontosim.load_taxonomy(plan.taxonomy)
    if plan.lexicon is not None:
        resources.lexicon = ontosim.load_lexicon(plan.lexicon)
    # constructing a scorer re-checks per-measure resource requirements
    return [PairScorer(spec.measure_id, cfg, resources) for spec in plan.measures for cfg in spec.configs]


def load_plan_datasets(plan: BenchmarkPlan) -> dict[str, Dataset]:
    datasets = {}
    for name, path in plan.datasets.items():
        ds = load_dataset(path, name=name)
        if name in plan.annotations:
            ds = attach_annotations(ds, load_annotations(plan.annotations[name]))
        datasets[name] = ds
    return datasets


def score_runs(scorers: list[PairScorer], datasets: Sequence[Dataset]
               ) -> Iterator[tuple[np.ndarray, list[tuple[int, BenchmarkRun, int, int]]]]:
    """Score every dataset with every scorer, in one pass over the plan, and
    yield each dataset's float64 score matrix, a row per distinct scores list
    and a column per pair, and its runs as ``(scorer index, run, row,
    empty)`` in the order they were scored, ``empty`` being the number of
    pairs scored by the empty-input rule of every measure (:func:`_memo_row`);
    ``com`` counts a pair empty in either of its views.

    Everything is scored before the first dataset is yielded, and each
    dataset gives back what it would give scored alone: its runs, its
    empty counts and, once its turn comes, its warnings. A measure that
    reads the ``ner=annotations`` view of a dataset without annotations
    warns once, just before the dataset is yielded; the empty-input warning
    is the caller's, so that it can come after the run's statistics, beside
    their warnings (:func:`report_rows`).

    The distinct sentences of every dataset are pre-processed through one
    :func:`token_tables` call, in grid order, so the plan has one
    vocabulary and one map per stage option, and every scorer reading a
    config scores its table, over the pairs of every dataset, in the step
    that made it. Configs often give equal tables (22 distinct of the 48
    grid configs on the benchmark's string corpus), so the memo maps
    (kernel, :attr:`TokenTable.key`) to a row and every config with that
    key gets the very same row. The key is a sha256 of the table's
    whitespace split and its composed stage map, so a table whose key was
    seen is neither expanded to ids nor scored again; its empty-pair mask is
    kept per key too. The kernel is :attr:`PairScorer.kernel`, so a table
    that ``wbsm-rada``, ``ubsm-rada`` and ``com`` all read is scored once.

    A new table is scored in one of two ways. The five token measures come
    from one :func:`strsim.token_pair_scores` call on its ids; they never
    decode a table, which the pair memo's keys need, and a memo over their
    pairs was measured slower (see the README). Levenshtein
    and the ontology and SWEM measures go through the pair memo, which maps
    (kernel, pair of texts) to a score: tables that differ still share
    most sentence pairs, so each distinct pair, in order, is scored once per
    plan and kernel, and each row is gathered from the memo
    (:func:`_memo_row`). The memo is keyed on the tables' texts
    (:attr:`TokenTable.texts`), one per sentence. ``com`` keeps the row of
    each of its views and, at the last one, combines them with
    :func:`ontosim.com`.

    A dataset's matrix holds the columns of its pairs. Tables that differ
    over the plan can still score one dataset alike, so the rows are
    deduplicated by their bytes, and every run whose scores are equal
    points at one row.
    """
    ids: dict[RawSentence, int] = {}
    indexes = [[(ids.setdefault(p.s1, len(ids)), ids.setdefault(p.s2, len(ids))) for p in ds.pairs]
               for ds in datasets]
    bounds = np.cumsum([0, *map(len, indexes)]).tolist()
    rows, runs = _score_tables(scorers, list(ids), [pair for index in indexes for pair in index])
    annotated = dict.fromkeys(s.measure_id for s in scorers if any(v.ner == "annotations" for v in s.views))
    for dataset, start, stop in zip(datasets, bounds, bounds[1:]):
        if not any(s.annotations for p in dataset.pairs for s in (p.s1, p.s2)):
            for mid in annotated:
                warnings.warn(f"{mid} on {dataset.name!r}: no sentence has annotations, so the "
                              "ner=annotations view is the text without concept substitution")
        columns: list[np.ndarray] = []
        here: dict[bytes, int] = {}  # a row's bytes on this dataset -> row here
        mine = []
        for k, row, empty in runs:
            part = rows[row][start:stop]
            i = here.setdefault(part.tobytes(), len(here))
            if i == len(columns):
                columns.append(part)
            mine.append((k, i, np.count_nonzero(empty[start:stop])))
        matrix = np.array(columns, dtype=np.float64)
        scores = [tuple(r) for r in matrix.tolist()]
        yield matrix, [(k, BenchmarkRun(dataset.name, scorers[k].measure_id, scorers[k].config.label(),
                                        scores[i]), i, empty) for k, i, empty in mine]


def _score_tables(scorers: list[PairScorer], sentences: list[RawSentence], pairs: list[tuple[int, int]]
                  ) -> tuple[list[np.ndarray], list[tuple[int, int, np.ndarray]]]:
    """The rows of :func:`score_runs` over the plan's pairs of sentences:
    the rows, and each run as (scorer index, row, empty-pair mask)."""
    pair_index = np.array(pairs)
    readers: dict[PreprocessConfig, list[int]] = {}
    for k, scorer in enumerate(scorers):
        for view in scorer.views:
            readers.setdefault(view, []).append(k)
    memo: dict[tuple[str, bytes], int] = {}  # (kernel, table key) -> row
    pair_memo: dict[str, dict[tuple[str, str], float]] = {}  # kernel -> (text, text) -> score
    empties: dict[bytes, np.ndarray] = {}  # table key -> mask of the pairs with an empty side
    rows: list[np.ndarray] = []
    view_rows: dict[int, dict[PreprocessConfig, tuple[int, np.ndarray]]] = {}  # com's views so far: row, mask
    runs: list[tuple[int, int, np.ndarray]] = []
    for cfg, table in token_tables(sentences, readers):
        key = table.key
        if key not in empties:
            empties[key] = table.lengths[pair_index].min(axis=1) == 0
        batch = text_pairs = None
        for k in readers[cfg]:
            scorer, empty = scorers[k], empties[key]
            row = memo.get((scorer.kernel, key))
            if row is None:
                if scorer.score_pairs is None:
                    batch = batch or strsim.token_pair_scores(table.ids, table.lengths, len(table.vocab), pair_index)
                    rows.append(batch[scorer.measure_id])
                else:
                    texts = table.texts
                    text_pairs = text_pairs or [(texts[a], texts[b]) for a, b in pairs]
                    rows.append(_memo_row(scorer, text_pairs, pair_memo.setdefault(scorer.kernel, {})))
                row = memo[scorer.kernel, key] = len(rows) - 1
            if len(scorer.views) > 1:
                done = view_rows.setdefault(k, {})
                done[cfg] = row, empty
                if len(done) < len(scorer.views):
                    continue
                rows.append(ontosim.com(*(rows[done[v][0]] for v in scorer.views)))
                row, empty = len(rows) - 1, np.any([done[v][1] for v in scorer.views], axis=0)
            runs.append((k, row, empty))
    return rows, runs


def _memo_row(scorer: PairScorer, pairs: list[tuple[str, str]],
              memo: dict[tuple[str, str], float]) -> np.ndarray:
    """The scorer's score of each pair of texts, read from ``memo``, the
    scores of its kernel so far. The pairs that the memo lacks are scored
    first, so a pair that an earlier table scored gets the very same float:
    a pair with an empty side by the empty-input rule, 1.0 if both sides are
    empty and 0.0 if one is, and the rest by one ``score_pairs`` call."""
    new = [pair for pair in dict.fromkeys(pairs) if pair not in memo]
    full = [(a, b) for a, b in new if a and b]
    memo.update({(a, b): float(a == b) for a, b in new if not (a and b)})
    if full:
        memo.update(zip(full, scorer.score_pairs(full)))
    return np.fromiter(map(memo.__getitem__, pairs), np.float64, len(pairs))


def score_dataset(scorer: PairScorer, dataset: Dataset) -> BenchmarkRun:
    """Score every pair of a dataset with one scorer, warning about the pairs
    scored by the empty-input rule."""
    [(_, [(_, result, _, empty)])] = score_runs([scorer], [dataset])
    _warn_run(result, empty)
    return result


def _warn_run(result: BenchmarkRun, empty: int, degenerate: Sequence[tuple[slice, str]] = ()) -> None:
    """A run's warnings: the pairs scored by the empty-input rule, then each
    part of the pairs whose statistics were degenerate, with the reason."""
    where = f"{result.measure_id} on {result.dataset_name!r}"
    if empty:
        warnings.warn(f"{where} ({result.preprocess_config}): {empty} "
                      "pair(s) with an empty token sequence scored by the empty-input rule")
    for part, reason in degenerate:
        pairs = "" if part == slice(None) else f" pairs[{part.start}:{part.stop}]"
        warnings.warn(f"{where}{pairs} ({result.preprocess_config}): {reason}; reporting nan")


@dataclass(frozen=True)
class ReportRow:
    dataset: str
    measure_id: str
    config: str
    r: float
    rho: float
    h: float


@dataclass
class EvalReport:
    rows: list[ReportRow]

    def write_csv(self, path: str | Path) -> None:
        write_table(path, ["dataset", "method", "config", "r", "rho", "h"],
                    ([row.dataset, row.measure_id, row.config, f"{row.r:.6f}", f"{row.rho:.6f}", f"{row.h:.6f}"]
                     for row in self.rows))

    def format_table(self) -> str:
        header = f"{'dataset':<12} {'method':<12} {'r':>8} {'rho':>8} {'h':>8}  config"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(f"{row.dataset:<12} {row.measure_id:<12} "
                         f"{row.r:8.3f} {row.rho:8.3f} {row.h:8.3f}  {row.config}")
        return "\n".join(lines)


def best_config(report: EvalReport, measure_id: str) -> tuple[str, float] | None:
    """The config label maximizing the mean harmonic score across datasets,
    and that mean h (the config's h summed in report order, over their count).

    Exact ties resolve to the earlier config in grid order, with a warning.
    When every config was degenerate (mean h nan) there is none: None, with
    a warning.
    """
    hs: dict[str, list[float]] = {}  # each config's h, configs in grid order
    for row in report.rows:
        if row.measure_id == measure_id:
            hs.setdefault(row.config, []).append(row.h)
    if not hs:
        raise ValueError(f"report has no rows for measure {measure_id!r}")
    means = {config: sum(h) / len(h) for config, h in hs.items()}
    best = max((m for m in means.values() if m == m), default=None)  # nan: degenerate
    if best is None:
        warnings.warn(f"{measure_id}: every config was degenerate; no best config")
        return None
    winners = [c for c, m in means.items() if m == best]
    if len(winners) > 1:
        warnings.warn(f"{measure_id}: {len(winners)} configs tie at h={best:.6f}; "
                      "keeping the earliest in grid order")
    return winners[0], means[winners[0]]


def _run_file_name(run: BenchmarkRun) -> str:
    safe_cfg = run.preprocess_config.replace("=", "-").replace(",", "_")
    return f"{run.dataset_name}__{run.measure_id.replace(':', '-')}__{safe_cfg}.csv"


def report_rows(matrix: np.ndarray, runs: list[tuple[int, BenchmarkRun, int, int]],
                human: list[float], parts: Sequence[slice] = (slice(None),)) -> list[list[ReportRow]]:
    """Each run's report row for each part of the pairs (all by default),
    from the score matrix and runs that :func:`score_runs` returns.

    The statistics are computed once per part for the whole matrix
    (:func:`stats.row_correlations`), and a degenerate statistic gives a nan
    row. Then the warnings come run by run in the order of ``runs``, each
    run's empty-input count before its degenerate parts, just as when each
    run was evaluated alone.
    """
    human = np.asarray(human, dtype=np.float64)
    per_part = [(part, row_correlations(matrix[:, part], human[part])) for part in parts]
    values = [list(zip(c.r.tolist(), c.rho.tolist(), c.h.tolist())) for _, c in per_part]
    out = []
    for _, result, i, empty in runs:
        _warn_run(result, empty, [(part, c.errors[i]) for part, c in per_part if c.errors[i]])
        out.append([ReportRow(result.dataset_name, result.measure_id, result.preprocess_config, *v[i])
                    for v in values])
    return out


def run(plan: BenchmarkPlan) -> tuple[list[BenchmarkRun], EvalReport]:
    """Execute a validated plan: score, persist raw CSVs, build the report.

    Runs and report rows come in plan order: measure, config, dataset. The
    runs of every dataset are scored first, in one pass (:func:`score_runs`);
    then each dataset's statistics and raw-score text come from its score
    matrix, a row per distinct scores list
    (:func:`report_rows`, :func:`core.raw_scores_texts`), and each config
    still has its own file and warns under its own label. The file of a run
    whose row an earlier run of the dataset wrote is a hard link to that
    earlier file (:func:`core.write_raw_scores`): creating a file costs far
    more than linking one, whatever its size. A dataset of fewer than 2
    pairs is an error before any scoring.
    """
    scorers = validate_plan(plan)
    datasets = load_plan_datasets(plan)
    for name, dataset in datasets.items():
        if len(dataset) < 2:
            raise PlanError(f"dataset {name!r} of {len(dataset)} pair is too small: "
                            "Pearson and Spearman need at least 2 pairs")
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    done: dict[tuple[int, str], tuple[BenchmarkRun, ReportRow]] = {}
    for (name, dataset), (matrix, runs) in zip(datasets.items(), score_runs(scorers, list(datasets.values()))):
        rows = report_rows(matrix, runs, dataset.human_scores())
        texts = raw_scores_texts(matrix)
        written: dict[int, Path] = {}  # matrix row -> the first file written with its text
        for (k, result, i, _), (row,) in zip(runs, rows):
            path = out_dir / _run_file_name(result)
            write_raw_scores(result, path, texts[i], written.get(i))
            written.setdefault(i, path)
            done[k, name] = result, row
    ordered = [done[k, name] for k in range(len(scorers)) for name in datasets]
    return [result for result, _ in ordered], EvalReport([row for _, row in ordered])


def throughput(scorer: PairScorer, dataset: Dataset, repeats: int = 3) -> float:
    """Median pairs/second over repeats, timing pre-processing plus scoring."""
    if repeats < 3:
        raise ValueError(f"repeats must be >= 3, got {repeats}")
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        score_dataset(scorer, dataset)
        times.append(time.perf_counter() - start)
    return len(dataset) / median(times)
