"""Benchmark entry point: generate a workload's inputs, measure them, check them.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload string-grid --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

The corpus is generated here, from ``--seed``; a fresh worker process then
runs the workload through ``stsbench.cli.main`` (see ``worker.py``), so its
peak RSS covers the program alone. The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).

The raw-score sha256 of each (workload, seed, code) and, when traced, the
exact counts are stored under ``.bench_work/state``; a later run of the same
code and seed must reproduce them. A worker that crashes or times out
fails its workload: every output it should have written counts as failed
and ``correct`` is false. Exits 1 when a workload fails or an output check
fails, and 2 when the checkout has no ``src/stsbench`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
from workloads import METRIC_MAP, WORKLOADS  # noqa: E402

# Units and the reason for each workload come from BENCHMARK.json, so they
# are written down once. A workload that BENCHMARK.json does not list
# (onto-swem, see ``workloads.onto_swem``) still runs when asked for.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer") for m in _BENCH[kind]}
WHY = {w["name"]: w["why"] for w in _BENCH["workloads"]}

# Mean time of ``worker.calibration_loop`` on the machine the bounds were set on.
HOST_REF_S = 0.0038

# Counts that must repeat exactly between traced runs of the same code and seed.
EXACT_COUNTS = ("preprocess.calls", "preprocess.unique_frac", "bench.scorer_builds",
                "ontosim.shortest_path.calls", "strsim.levenshtein.cells")


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


def code_hash() -> str:
    """sha256 over the package sources and the benchmark's own code."""
    digest = hashlib.sha256()
    files = [p for p in sorted((ROOT / "src").rglob("*")) if p.is_file() and "__pycache__" not in p.parts]
    files += sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def compare_state(key: str, observed: dict) -> list[str]:
    """Store observed values the first time; later report any that differ."""
    path = WORK / "state" / f"{key}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems = [f"{name}: {stored[name]!r} before, {value!r} now"
                for name, value in observed.items() if name in stored and stored[name] != value]
    if not problems:
        stored.update(observed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(stored, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def worker_timeout(seconds: int) -> int:
    """Seconds a worker may take before it is killed.

    The untraced evaluations fill ``seconds``; set-up, a last iteration that
    overshoots and the traced pass (two whole evaluations, however short
    ``seconds`` is) come on top. 170 s at ``--seconds 30`` keeps one
    workload's run within 180 s.
    """
    return max(170, 4 * seconds + 50)


class WorkerFailed(Exception):
    """The worker crashed or timed out; ``attempted`` is what it should have written."""

    def __init__(self, message: str, attempted: int):
        super().__init__(message)
        self.attempted = attempted


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = WORKLOADS[name](work, seed)
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "STSBENCH_THREADS"}
        result_path = work / "result.json"
        # one per evaluation command, plus the raw-score files it writes
        attempted = sum(1 + sum(cmd["raw_csvs"].values()) for cmd in spec["commands"])
        timeout = worker_timeout(seconds)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path),
                 str(seconds), str(int(trace))],
                cwd=ROOT, env=env, timeout=timeout, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            raise WorkerFailed(f"worker timed out after {timeout} s", attempted) from None
        if proc.returncode != 0 or not result_path.is_file():
            raise WorkerFailed(f"worker exited {proc.returncode}: {proc.stdout[-2000:]}", attempted)
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["spec"] = spec
    return result


def summarize(name: str, seed: int, result: dict, trace: bool) -> dict:
    problems = list(dict.fromkeys(result["problems"]))  # iterations repeat the same findings
    shas = set(result["sha256"])
    if len(shas) != 1:
        problems.append(f"raw-score sha256 differs between iterations: {sorted(shas)}")
    observed = {"raw_sha256": result["sha256"][0]}
    if trace:
        observed.update({k: result["per_layer"][k] for k in EXACT_COUNTS})
    problems += compare_state(f"{name}-seed{seed}-{code_hash()}", observed)

    # Times are scaled to the host speed the bounds were set on, by the
    # calibration samples taken during the same phase of the run.
    samples = result.get("host_samples", {})
    scale = {phase: HOST_REF_S / statistics.mean(samples[phase] or samples["eval"])
             for phase in samples}
    if trace:
        metrics = dict(result["per_layer"])
        metrics["trace_overhead_frac"] = result["traced_eval_s"] / result["eval_s"][0] - 1.0
    else:
        eval_s = statistics.median(result["eval_s"]) * scale["eval"]
        metrics = {
            "eval_s": eval_s,
            "pairs_per_s": result["spec"]["pairs_scored"] / eval_s,
            "setup_s": statistics.median(result["setup_s"]) * scale["setup"],
            "peak_rss_mb": result["maxrss_mb"],
        }
    return {
        "workload": name, "seed": seed, "why": WHY.get(name, "not listed in BENCHMARK.json"),
        "machine": machine_info(),
        "iterations": len(result["eval_s"]), "setup_reps": len(result["setup_s"]),
        "pairs_scored": result["spec"]["pairs_scored"],
        "eval_s_each": result["eval_s"], "setup_s_median": statistics.median(result["setup_s"]),
        "scale": scale, "raw_sha256": observed["raw_sha256"],
        "exact_counts": {k: v for k, v in observed.items() if k != "raw_sha256"},
        "skipped_spans": result.get("skipped", []),
        "failed_frac": result["failed"] / result["attempted"],
        "errors": list(dict.fromkeys(result["errors"])), "problems": problems,
        "correct": not problems,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    }


def report(summary: dict) -> None:
    print(f"workload {summary['workload']} seed {summary['seed']}: {summary['why']}")
    print("machine " + json.dumps(summary["machine"]))
    print(f"iterations {summary['iterations']} eval_s_each {summary['eval_s_each']} "
          f"setup_reps {summary['setup_reps']} pairs_scored {summary['pairs_scored']}")
    if summary["scale"]:
        print(f"unscaled eval_s median {statistics.median(summary['eval_s_each']):.6g} s, setup_s "
              f"median {summary['setup_s_median']:.6g} s; host speed scale "
              + ", ".join(f"{phase} {v:.4g}" for phase, v in summary["scale"].items()))
    print(f"raw-score sha256 {summary['raw_sha256']}")
    if summary["exact_counts"]:
        print("exact counts " + json.dumps(summary["exact_counts"]))
    if summary["skipped_spans"]:
        print("skipped spans (no longer in the program): " + ", ".join(summary["skipped_spans"]))
    print(f"failed_frac {summary['failed_frac']:.6g} ({summary['failed']} of {summary['attempted']})")
    for line in summary["errors"]:
        print(f"failed: {line}")
    for line in summary["problems"]:
        print(f"OUTPUT CHECK FAILED: {line}")
    for metric, value in summary["metrics"].items():
        print(f"{summary['workload']} {metric} = {value:.6g} {UNITS[metric]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "stsbench" / "cli.py").is_file():
        print(f"error: no stsbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerFailed as exc:
            print(f"workload {name} seed {args.seed}: WORKLOAD FAILED: {exc}")
            summaries.append({"workload": name, "correct": False, "attempted": exc.attempted,
                              "failed": exc.attempted, "metrics": {}})
            continue
        summary = summarize(name, args.seed, result, bool(args.trace))
        report(summary)
        summaries.append(summary)
    if args.trace:
        print("metric -> end-to-end metric, workload: " + json.dumps(METRIC_MAP))

    def metric_key(summary: dict, metric: str) -> str:
        return metric if len(names) == 1 else f"{summary['workload']}.{metric}"

    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {metric_key(s, m): {"value": v, "unit": UNITS[m]}
                    for s in summaries for m, v in s["metrics"].items()},
    }))
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
