"""Measures one workload in a fresh process; ``run.py`` starts it.

Usage: worker.py SPEC_JSON RESULT_JSON SECONDS TRACE

Untraced (TRACE 0): the evaluation commands run as whole iterations, each
started only while the previous ones plus one more fit in SECONDS (at least
one runs). ``stsbench validate`` is repeated before and after them for
``setup_s``.
Traced (TRACE 1): one traced validate, one untraced and one traced
evaluation; the two evaluations give the tracing overhead.

Every iteration's outputs are checked and hashed. The result goes to
RESULT_JSON; the program's own console output is discarded.

While anything is timed, a timer signal runs a fixed calibration loop every
``SAMPLE_PERIOD_S`` in the measured process itself (``HostSpeed``). Its
duration follows the speed the host gives this process at that moment; the
loop's own time is taken out of every measured interval.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import stsbench  # noqa: E402
from stsbench import cli, core  # noqa: E402

from tracer import Tracer  # noqa: E402

# per side of the evaluation
SETUP_MIN_REPS = 2
SETUP_MAX_REPS = 400
SETUP_BUDGET_S = 1.0

SAMPLE_PERIOD_S = 0.1
_CAL_WORDS = "The IL-6 (interleukin) level, in 40% of the patients, rose after miR-146a".split()


def calibration_loop() -> int:
    """A fixed few milliseconds of the kind of work the program does: string
    clean-up, dict counts, set algebra and a small edit-distance table."""
    total = 0
    for _ in range(12):
        tokens = [w.lower().strip(",.()") for w in _CAL_WORDS]
        counts: dict[str, int] = {}
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
        total += len(set(tokens) & set(tokens[::2]))
        a, b = " ".join(tokens[:6]), " ".join(tokens[3:9])
        row = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            prev, row[0] = row[0], i
            for j, cb in enumerate(b, 1):
                prev, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev + (ca != cb))
        total += row[-1] + len(counts)
    return total


class HostSpeed:
    """Samples how fast the host runs this process while the program runs.

    On a shared host the same work can take 25% longer for a minute at a
    time. Every ``SAMPLE_PERIOD_S`` of wall time SIGALRM interrupts the
    program between two bytecodes and times ``calibration_loop``. ``spent``
    is the wall time taken by those samples, which every measured interval
    leaves out.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        calibration_loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``fn(*args)`` and its wall time less the samples taken during it."""
        spent, start = self.spent, time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - start - (self.spent - spent)


def run_command(argv: list[str]) -> str | None:
    """Run one CLI command in-process; None on success, else what went wrong."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)  # looked up per call, so a traced main is used
    except SystemExit as exc:
        return f"{argv[0]}: exit {exc.code}: {sink.getvalue()[-300:].strip()}"
    except Exception as exc:  # the CLI lets scoring errors escape; record, keep measuring
        return f"{argv[0]}: {type(exc).__name__}: {exc}"
    if code != 0:
        return f"{argv[0]}: exit {code}: {sink.getvalue()[-300:].strip()}"
    return None


def evaluate(spec: dict, it_dir: Path) -> list[str]:
    """One pass over the evaluation commands; what failed."""
    errors = []
    for cmd in spec["commands"]:
        out = str(it_dir / cmd["out"])
        err = run_command([out if a == "{out}" else a for a in cmd["argv"]])
        if err:
            errors.append(err)
    return errors


def _data_rows(path: Path) -> int:
    with path.open(encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def check(spec: dict, it_dir: Path, errors: list[str]) -> tuple[int, int, list[str], str]:
    """(attempted, failed, problems, sha256) for one iteration's outputs.

    Failed: each command that exited non-zero or raised, and each raw-score
    CSV it did not write. A problem is output that is missing although its
    command succeeded, or that was written but is wrong.
    """
    failed_cmds = {e.split(":", 1)[0] for e in errors}
    attempted = failed = 0
    problems: list[str] = []
    digest = hashlib.sha256()
    sizes = spec["sizes"]
    for cmd in spec["commands"]:
        out = it_dir / cmd["out"]
        name = cmd["argv"][0]
        expected = sum(cmd["raw_csvs"].values())
        attempted += 1 + expected
        written = 0
        for path in sorted(out.glob("*.csv")) if out.is_dir() else []:
            if path.name in cmd["files"]:
                continue
            dataset = path.name.split("__", 1)[0]
            if dataset not in cmd["raw_csvs"]:
                problems.append(f"{name}: unexpected file {path.name}")
                continue
            written += 1
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
            run = core.read_raw_scores(path)
            bad = [(i, s) for i, s in enumerate(run.scores) if not (math.isfinite(s) and 0.0 <= s <= 1.0)]
            if len(run.scores) != sizes[dataset]:
                problems.append(f"{path.name}: {len(run.scores)} scores, expected {sizes[dataset]}")
            elif bad:
                shown = ", ".join(f"pair {i} = {s!r}" for i, s in bad[:3])
                problems.append(f"{path.name}: {len(bad)} scores not finite in [0, 1] ({shown})")
        failed += expected - written
        if name in failed_cmds:
            failed += 1
            continue
        if written != expected:
            problems.append(f"{name}: wrote {written} raw-score files, expected {expected}")
        for fname, rows in cmd["files"].items():
            path = out / fname
            got = _data_rows(path) if path.is_file() else None
            if got != rows:
                problems.append(f"{name}: {fname} has {got} data rows, expected {rows}")
    return attempted, failed, problems, digest.hexdigest()


def main(argv: list[str]) -> int:
    spec_path, result_path, seconds, trace = Path(argv[0]), Path(argv[1]), float(argv[2]), argv[3] == "1"
    if not Path(stsbench.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"stsbench imported from {stsbench.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    work = spec_path.parent
    result: dict = {"setup_s": [], "eval_s": [], "errors": [], "problems": [], "sha256": [],
                    "attempted": 0, "failed": 0}

    host = HostSpeed()

    def timed(fn, *args):
        if trace:  # samples would land inside the spans
            start = time.perf_counter()
            return fn(*args), time.perf_counter() - start
        return host.timed(fn, *args)

    def one_iteration(label: str) -> float:
        it_dir = work / f"iter-{label}"
        gc.collect()
        errors, elapsed = timed(evaluate, spec, it_dir)
        attempted, failed, problems, sha = check(spec, it_dir, errors)
        shutil.rmtree(it_dir, ignore_errors=True)
        result["attempted"] += attempted
        result["failed"] += failed
        result["errors"] += errors
        result["problems"] += problems
        result["sha256"].append(sha)
        return elapsed

    def setup_once() -> float:
        err, elapsed = timed(run_command, spec["setup"])
        if err:
            result["problems"].append(f"set-up failed: {err}")
        return elapsed

    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            result["setup_s"].append(setup_once())
        finally:
            tracer.uninstall()
        result["eval_s"].append(one_iteration("untraced"))
        tracer.install()
        try:
            result["traced_eval_s"] = one_iteration("traced")
        finally:
            tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        result["skipped"] = tracer.skipped
    else:
        def setup_reps() -> None:
            # half the set-up samples before the evaluation and half after,
            # so that they see the machine at two moments of the run
            reps, spent = 0, 0.0
            while reps < SETUP_MIN_REPS or (spent < SETUP_BUDGET_S and reps < SETUP_MAX_REPS):
                result["setup_s"].append(setup_once())
                spent += result["setup_s"][-1]
                reps += 1

        def sampled(phase: str, fn) -> None:
            first = len(host.samples)
            fn()
            result["host_samples"][phase] += host.samples[first:]

        def evaluations() -> None:
            spent = 0.0
            while not result["eval_s"] or spent + statistics.median(result["eval_s"]) <= seconds:
                result["eval_s"].append(one_iteration(str(len(result["eval_s"]))))
                spent += result["eval_s"][-1]

        result["host_samples"] = {"setup": [], "eval": []}
        with host:
            sampled("setup", setup_reps)
            sampled("eval", evaluations)
            sampled("setup", setup_reps)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
