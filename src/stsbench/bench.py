"""Benchmark orchestration: plans, scorers, runs, reports and throughput."""

from __future__ import annotations

import time
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

from . import ontosim, strsim, vecsim
from .core import (
    BenchmarkRun,
    Dataset,
    RawSentence,
    attach_annotations,
    load_annotations,
    load_dataset,
    write_raw_scores,
    write_table,
)
from .preprocess import PreprocessConfig, TokenSequence, token_tables
from .stats import DegenerateDataError, harmonic, pearson, spearman


class PlanError(ValueError):
    """Invalid benchmark plan or unresolvable resource."""


# measure id -> (family, how it is computed). "string": the kernel's name in
# ``strsim``, looked up when a scorer is built so that a kernel replaced on the
# module (by a profiler, say) is the one called. "ontology": the word-similarity
# kind and the NER modes of the token views it reads; UBSM is WBSM over the
# concept-substituted view, COM averages the two. "swem": the pooling mode.
MEASURES = {
    "qgram": ("string", "qgram_sim"), "jaccard": ("string", "jaccard_sim"),
    "block": ("string", "block_distance_sim"), "liblock": ("string", "liblock_sim"),
    "levenshtein": ("string", "levenshtein_sim"), "overlap": ("string", "overlap_sim"),
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
    measures (both for ``com``). ``score_tokens`` takes each side's tokens,
    a tuple with one sequence per view when there are several. String
    measures follow the empty-input rule of :func:`strsim.with_empty_rule`.
    """

    def __init__(self, measure_id: str, config: PreprocessConfig, resources: Resources):
        if not known_measure(measure_id):
            raise PlanError(f"unknown measure id {measure_id!r}")
        self.measure_id = measure_id
        self.config = config
        self.views: tuple[PreprocessConfig, ...] = (config,)
        family, how = MEASURES[measure_id]
        if family == "string":
            self.score_tokens = strsim.with_empty_rule(getattr(strsim, how))
        elif family == "swem":
            vectors = resources.vectors
            if vectors is None:
                raise PlanError(f"measure {measure_id!r} requires a word-vector model")
            self.score_tokens = lambda t1, t2: vecsim.rescale_signed(vecsim.swem_sim(t1, t2, vectors, how))
        else:
            if resources.taxonomy is None or resources.lexicon is None:
                raise PlanError(f"measure {measure_id!r} requires a taxonomy and lexicon")
            kind, ners = how
            words = resources.word_measure(kind)
            self.views = tuple(replace(config, ner=ner) for ner in ners)
            if len(ners) == 1:
                self.score_tokens = lambda a, b: ontosim.wbsm(a, b, words)
            else:
                self.score_tokens = lambda a, b: ontosim.com(ontosim.wbsm(a[0], b[0], words),
                                                             ontosim.wbsm(a[1], b[1], words))


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


def score_runs(scorers: list[PairScorer], dataset: Dataset) -> Iterator[tuple[int, BenchmarkRun]]:
    """Score a dataset with every scorer; yields (scorer index, run).

    Each distinct sentence is pre-processed once per config
    (:func:`token_tables`, in grid order) and every scorer reading that
    config scores from the same table. A table is dropped as soon as no
    pending scorer needs it. A measure that reads the ``ner=annotations``
    view of a dataset without annotations warns once.
    """
    ids: dict[RawSentence, int] = {}
    pairs = [(ids.setdefault(p.s1, len(ids)), ids.setdefault(p.s2, len(ids))) for p in dataset.pairs]
    if not any(s.annotations for s in ids):
        for mid in dict.fromkeys(s.measure_id for s in scorers if any(v.ner == "annotations" for v in s.views)):
            warnings.warn(f"{mid} on {dataset.name!r}: no sentence has annotations, so the "
                          "ner=annotations view is the text without concept substitution")
    pending = dict(enumerate(scorers))
    tables: dict[PreprocessConfig, list[TokenSequence]] = {}
    for cfg, table in token_tables(list(ids), {v for s in scorers for v in s.views}):
        tables[cfg] = table
        for k, scorer in list(pending.items()):
            if all(v in tables for v in scorer.views):
                del pending[k]
                yield k, _score_pairs(scorer, dataset.name, [tables[v] for v in scorer.views], pairs)
        needed = {v for s in pending.values() for v in s.views}
        tables = {v: t for v, t in tables.items() if v in needed}


def _score_pairs(scorer: PairScorer, name: str, views: list[list[TokenSequence]],
                 pairs: list[tuple[int, int]]) -> BenchmarkRun:
    table = views[0] if len(views) == 1 else list(zip(*views))
    score = scorer.score_tokens
    scores: list[float] = []
    try:
        for a, b in pairs:
            scores.append(score(table[a], table[b]))
    except Exception as exc:
        raise RuntimeError(
            f"{scorer.measure_id} failed on pair {len(scores)} of {name!r}: {exc}") from exc
    if MEASURES[scorer.measure_id][0] == "string":
        empty = sum(1 for a, b in pairs if not table[a] or not table[b])
        if empty:
            warnings.warn(f"{scorer.measure_id} on {name!r} ({scorer.config.label()}): {empty} "
                          "pair(s) with an empty token sequence scored by the empty-input rule")
    return BenchmarkRun(name, scorer.measure_id, scorer.config.label(), tuple(scores))


def score_dataset(scorer: PairScorer, dataset: Dataset) -> BenchmarkRun:
    """Score every pair of a dataset with one scorer."""
    return next(score_runs([scorer], dataset))[1]


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

    def average_h(self, measure_id: str, config: str) -> float:
        hs = [row.h for row in self.rows if row.measure_id == measure_id and row.config == config]
        if not hs:
            raise ValueError(f"no rows for {measure_id!r} with config {config!r}")
        return sum(hs) / len(hs)

    def configs_for(self, measure_id: str) -> list[str]:
        return list(dict.fromkeys(row.config for row in self.rows if row.measure_id == measure_id))

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


def best_config(report: EvalReport, measure_id: str) -> str:
    """Config label maximizing the mean harmonic score across datasets.

    Exact ties resolve to the earlier config in grid order, with a warning.
    """
    configs = report.configs_for(measure_id)
    if not configs:
        raise ValueError(f"report has no rows for measure {measure_id!r}")
    scores = [report.average_h(measure_id, c) for c in configs]
    finite = [s for s in scores if s == s]
    if not finite:
        raise ValueError(f"every config of {measure_id!r} was degenerate")
    best = max(finite)
    winners = [c for c, s in zip(configs, scores) if s == best]
    if len(winners) > 1:
        warnings.warn(f"{measure_id}: {len(winners)} configs tie at h={best:.6f}; "
                      "keeping the earliest in grid order")
    return winners[0]


def _run_file_name(run: BenchmarkRun) -> str:
    safe_cfg = run.preprocess_config.replace("=", "-").replace(",", "_")
    return f"{run.dataset_name}__{run.measure_id.replace(':', '-')}__{safe_cfg}.csv"


def report_row(result: BenchmarkRun, human: list[float], part: slice = slice(None)) -> ReportRow:
    """Pearson, Spearman and harmonic score of the run's pairs in ``part`` (all by
    default); a degenerate statistic gives a nan row and a warning naming the part."""
    try:
        r = pearson(result.scores[part], human[part])
        rho = spearman(result.scores[part], human[part])
        h = harmonic(r, rho)
    except DegenerateDataError as exc:
        where = "" if part == slice(None) else f" pairs[{part.start}:{part.stop}]"
        warnings.warn(f"{result.measure_id} on {result.dataset_name!r}{where} "
                      f"({result.preprocess_config}): {exc}; reporting nan")
        r = rho = h = float("nan")
    return ReportRow(result.dataset_name, result.measure_id, result.preprocess_config, r, rho, h)


def run(plan: BenchmarkPlan) -> tuple[list[BenchmarkRun], EvalReport]:
    """Execute a validated plan: score, persist raw CSVs, build the report.

    Runs and report rows come in plan order: measure, config, dataset.
    """
    scorers = validate_plan(plan)
    datasets = load_plan_datasets(plan)
    out_dir = Path(plan.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    done: dict[tuple[int, str], tuple[BenchmarkRun, ReportRow]] = {}
    for name, dataset in datasets.items():
        human = dataset.human_scores()
        for k, result in score_runs(scorers, dataset):
            write_raw_scores(result, out_dir / _run_file_name(result))
            done[k, name] = result, report_row(result, human)
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
