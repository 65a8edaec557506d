"""Command-line benchmark driver.

Subcommands::

    stsbench run             score measures over datasets, write reports
    stsbench grid            sweep the full pre-processing grid per measure
    stsbench significance    pairwise t-tests over uniform dataset splits
    stsbench error-analysis  per-pair errors and their density estimate
    stsbench throughput      median pairs/second of one measure
    stsbench validate        fail-fast plan and resource check

Datasets, annotations, resources and measures come either from repeatable
flags or from a plan file (see the README for the plan grammar). Flags
override plan entries.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, stats
from .bench import BenchmarkPlan, MeasureSpec, PlanError
from .core import read_lines, write_table
from .preprocess import OPTIONS, PreprocessConfig, full_grid


def _parse_bool(value: str) -> bool:
    if value in ("yes", "true", "1"):
        return True
    if value in ("no", "false", "0"):
        return False
    raise PlanError(f"expected yes/no, got {value!r}")


_RESOURCE_KEYS = ("vectors", "taxonomy", "lexicon")
# the loose ``key = value`` lines a plan file may carry
_PLAN_KEYS = (*OPTIONS, "grid", "out", *_RESOURCE_KEYS)


def _config_from_items(items: dict[str, str], base: PreprocessConfig | None = None) -> PreprocessConfig:
    kwargs = {}
    for key, value in items.items():
        key = key.replace("-", "_")
        if key not in OPTIONS:
            raise PlanError(f"unknown pre-processing option {key!r}")
        kwargs[key] = _parse_bool(value) if isinstance(OPTIONS[key][0], bool) else value
    return PreprocessConfig(**kwargs) if base is None else replace(base, **kwargs)


def _parse_measure_entry(entry: str, base: PreprocessConfig) -> MeasureSpec:
    """``id`` or ``id @ key=value,...`` with the inline part overriding base."""
    if "@" in entry:
        mid, _, cfg_part = entry.partition("@")
        items = {}
        for piece in cfg_part.strip().split(","):
            if "=" not in piece:
                raise PlanError(f"bad measure config fragment {piece!r} in {entry!r}")
            k, _, v = piece.partition("=")
            items[k.strip()] = v.strip()
        return MeasureSpec(mid.strip(), [_config_from_items(items, base)])
    return MeasureSpec(entry.strip(), [base])


def parse_plan_file(path: str | Path) -> dict:
    """Parse the flat ``key = value`` plan grammar into a raw dict.

    Repeatable keys (``measure``) accumulate; ``dataset.NAME`` and
    ``annotations.NAME`` populate per-dataset maps. Any other key given
    twice is an error.
    """
    raw = {"datasets": {}, "annotations": {}, "measures": [], "options": {}}
    seen = set()
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlanError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key != "measure":
            if key in seen:
                raise PlanError(f"{path}:{lineno}: repeated key {key!r}")
            seen.add(key)
        if key.startswith("dataset."):
            raw["datasets"][key[len("dataset."):]] = value
        elif key.startswith("annotations."):
            raw["annotations"][key[len("annotations."):]] = value
        elif key == "measure":
            raw["measures"].append(value)
        elif key in _PLAN_KEYS:
            raw["options"][key] = value
        else:
            raise PlanError(f"{path}:{lineno}: unknown plan key {key!r}")
    return raw


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plan", help="plan file; flags override its entries")
    p.add_argument("--dataset", action="append", default=[], metavar="NAME=PATH",
                   help="dataset TSV, repeatable")
    p.add_argument("--annotations", action="append", default=[], metavar="NAME=PATH",
                   help="annotation sidecar TSV for a named dataset, repeatable")
    p.add_argument("--measure", action="append", default=[], metavar="ID",
                   help="measure id, optionally 'id @ key=value,...', repeatable")
    p.add_argument("--vectors", help="word-vector text file")
    p.add_argument("--taxonomy", help="taxonomy edge file (child<TAB>parent)")
    p.add_argument("--lexicon", help="surface-form lexicon file")
    p.add_argument("--out", help="output directory (default: results)")
    for key, values in OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"),
                       choices=[("yes" if v else "no") if isinstance(v, bool) else v for v in values])


def _split_name_path(values: list[str], flag: str) -> dict[str, str]:
    out = {}
    for v in values:
        if "=" not in v:
            raise PlanError(f"--{flag} expects NAME=PATH, got {v!r}")
        name, _, path = v.partition("=")
        if name in out:
            raise PlanError(f"--{flag} gives {name!r} twice")
        out[name] = path
    return out


def build_plan(args: argparse.Namespace, grid: bool = False) -> BenchmarkPlan:
    """Merge plan file and flags into a validated-shape BenchmarkPlan."""
    raw = parse_plan_file(args.plan) if args.plan else {
        "datasets": {}, "annotations": {}, "measures": [], "options": {}}
    options = raw["options"]
    datasets = dict(raw["datasets"])
    datasets.update(_split_name_path(args.dataset, "dataset"))
    annotations = dict(raw["annotations"])
    annotations.update(_split_name_path(args.annotations, "annotations"))
    measure_entries = list(raw["measures"]) + list(args.measure)

    def opt(key):
        v = getattr(args, key, None)
        return v if v is not None else options.get(key)

    base = _config_from_items({k: opt(k) for k in OPTIONS if opt(k) is not None})

    specs = [_parse_measure_entry(entry, base) for entry in measure_entries]
    if grid or _parse_bool(options.get("grid", "no")):
        # each entry at its own NER mode, inline or the plan's; one grid per mode
        grids = {ner: full_grid(ner=ner) for ner in {s.configs[0].ner for s in specs}}
        specs = [MeasureSpec(s.measure_id, grids[s.configs[0].ner]) for s in specs]

    return BenchmarkPlan(
        datasets={k: Path(v) for k, v in datasets.items()},
        measures=specs,
        out_dir=Path(opt("out") or "results"),
        annotations={k: Path(v) for k, v in annotations.items()},
        **{k: Path(opt(k)) if opt(k) else None for k in _RESOURCE_KEYS},
    )


def _cmd_run(args, grid: bool = False) -> int:
    plan = build_plan(args, grid=grid)
    runs, report = bench.run(plan)
    report.write_csv(Path(plan.out_dir) / "report.csv")
    if not grid:
        print(report.format_table())
        print(f"\n{len(runs)} runs written to {plan.out_dir}")
        return 0
    for measure_id in dict.fromkeys(spec.measure_id for spec in plan.measures):
        best = bench.best_config(report, measure_id)
        print(f"{measure_id}: no best config (every config degenerate)" if best is None
              else f"{measure_id}: best config {best[0]} (mean h = {best[1]:.4f})")
    return 0


def _single_dataset(args, one_measure: str = ""):
    """The plan, its scorers and its one dataset. A plan of several datasets,
    or of more than one measure where ``one_measure`` names the command that
    needs exactly one, is refused before any resource or dataset is loaded;
    ``validate_plan`` refuses a plan of none."""
    plan = build_plan(args)
    if one_measure and (len(plan.measures) != 1 or len(plan.measures[0].configs) != 1):
        raise PlanError(f"{one_measure} needs exactly one measure")
    if len(plan.datasets) > 1:
        raise PlanError(f"this command needs exactly one dataset, got {len(plan.datasets)}")
    scorers = bench.validate_plan(plan)
    [dataset] = bench.load_plan_datasets(plan).values()
    return plan, scorers, dataset


def _cmd_significance(args) -> int:
    plan, scorers, dataset = _single_dataset(args)
    most = len(dataset) // 2
    if most < 2:
        raise PlanError(f"{bench.sized(dataset)} is too small for a significance test: "
                        "a paired t-test needs at least 2 splits of at least 2 pairs each")
    if args.splits < 2:
        raise PlanError(f"--splits {args.splits} is too few: a paired t-test needs at least 2 split "
                        f"scores, so it must be at least 2, and at most {most} for {bench.sized(dataset)}")
    if args.splits > most:
        raise PlanError(f"--splits {args.splits} is too many for {bench.sized(dataset)}: "
                        f"each split needs at least 2 pairs, so at most {most} splits")
    parts = stats.uniform_split(len(dataset), args.splits)
    [(matrix, runs)] = bench.score_runs(scorers, [dataset])
    rows = bench.report_rows(matrix, runs, dataset.human_scores(), parts)
    hs = {k: [row.h for row in part_rows] for (k, *_), part_rows in zip(runs, rows)}
    # a measure evaluated at several configs gets one row per config
    ids = [sc.measure_id for sc in scorers]
    labels = [sc.measure_id if ids.count(sc.measure_id) == 1 else f"{sc.measure_id} @ {sc.config.label()}"
              for sc in scorers]
    matrix = stats.significance_matrix({label: hs[k] for k, label in enumerate(labels)})
    dest = Path(plan.out_dir) / "significance.csv"
    write_table(dest, ["method", *matrix.methods],
                ([mi, *("" if v != v else f"{v:.6g}" for v in row)]
                 for mi, row in zip(matrix.methods, matrix.p_values)))
    print(f"significance matrix over {args.splits} splits written to {dest}")
    if matrix.degenerate.any():
        print("warning: some comparisons were degenerate (zero-variance differences or a nan split)")
    return 0


def _cmd_error_analysis(args) -> int:
    plan, [scorer], dataset = _single_dataset(args, one_measure="error-analysis")
    if len(dataset) < 2:
        raise PlanError(f"{bench.sized(dataset)} is too small: error analysis needs at least 2 pairs")
    result = bench.score_dataset(scorer, dataset)
    analysis = stats.error_analysis(result.scores, dataset.human_scores())
    dest = Path(plan.out_dir) / "error_kde.csv"
    write_table(dest, ["x", "density"],
                ([f"{x:.10g}", f"{d:.10g}"] for x, d in zip(analysis.kde_x, analysis.kde_density)))
    print(f"mean error {analysis.mean:+.4f}, bandwidth {analysis.bandwidth:.5f}"
          + (" (fallback)" if analysis.bandwidth_fallback else ""))
    print(f"closest pair {analysis.idx_min_abs}, farthest pair {analysis.idx_max_abs}")
    print(f"density estimate written to {dest}")
    return 0


def _cmd_throughput(args) -> int:
    if args.repeats < 3:  # refused before any load, in bench.throughput's words
        raise PlanError(f"repeats must be >= 3, got {args.repeats}")
    _, [scorer], dataset = _single_dataset(args, one_measure="throughput")
    rate = bench.throughput(scorer, dataset, repeats=args.repeats)
    print(f"{scorer.measure_id}: {rate:.2f} pairs/sec "
          f"({len(dataset)} pairs, median of {args.repeats} repeats)")
    return 0


def _cmd_validate(args) -> int:
    plan = build_plan(args)
    bench.validate_plan(plan)
    n_runs = sum(len(s.configs) for s in plan.measures) * len(plan.datasets)
    print(f"plan OK: {len(plan.datasets)} dataset(s), "
          f"{len(plan.measures)} measure(s), {n_runs} run(s)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="stsbench",
                                     description="sentence-similarity benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # its actions are copied, not re-checked
    _add_common_args(common)
    for name, fn in (
        ("run", _cmd_run),
        ("grid", lambda args: _cmd_run(args, grid=True)),
        ("significance", _cmd_significance),
        ("error-analysis", _cmd_error_analysis),
        ("throughput", _cmd_throughput),
        ("validate", _cmd_validate),
    ):
        p = sub.add_parser(name, parents=[common])
        if name == "significance":
            p.add_argument("--splits", type=int, default=10)
        if name == "throughput":
            p.add_argument("--repeats", type=int, default=3)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
