"""The benchmark workloads: generated inputs, plans and CLI commands.

Each workload writes its corpus and plan file into a directory and returns
a spec: the ``stsbench validate`` command that is timed as set-up, the
evaluation commands that are timed as ``eval_s``, and the outputs each
command must leave behind. ``{out}`` in a command stands for that
command's output directory in the current iteration.
"""

from __future__ import annotations

from pathlib import Path

import corpus

# Pair counts of BIOSSES, CTR and MedSTS.
STRING_SIZES = {"biosses": 100, "ctr": 170, "medsts": 1068}
GRID_CONFIGS = 48
STRING_MEASURES = ("qgram", "jaccard", "block", "liblock", "overlap")
CHAR_FILTERS = ("none", "default", "biosses", "blagec2019")
ONTO_MEASURES = ("wbsm-rada", "wbsm-jc", "ubsm-rada", "ubsm-jc", "com", "swem:mean", "swem:max")
ONTO_PAIRS = 100
TAXONOMY_NODES = 50_000
LEXICON_WORDS = 6
VECTORS = 20_000
VECTOR_DIM = 100
SPLITS = 10
KDE_POINTS = 512  # rows of error_kde.csv, the error_analysis default

# One fixed configuration for significance and error analysis.
FIXED_CONFIG = ("--tokenizer", "treebank-rules", "--lowercase", "yes",
                "--char-filter", "default", "--stopwords", "nltk2018")

# Which end-to-end metric each per-layer metric should move, on which workload.
METRIC_MAP = {
    "core.*": ("eval_s", "string-grid"),
    "preprocess.*": ("pairs_per_s", "string-grid; no change on levenshtein"),
    "strsim.*": ("pairs_per_s", "levenshtein; no change on string-grid"),
    "ontosim.taxonomy_load_s, ontosim.taxonomy_rss_mb": ("setup_s, peak_rss_mb", "onto-swem"),
    "ontosim.* (others)": ("pairs_per_s", "onto-swem"),
    "vecsim.load_s": ("setup_s", "onto-swem"),
    "vecsim.swem.*": ("pairs_per_s", "onto-swem"),
    "stats.*": ("eval_s", "string-grid"),
    "bench.*": ("eval_s", "string-grid"),
    "cli.self_s": ("eval_s", "all workloads; expected to stay small"),
}


def _command(argv: list[str], out: str, raw_csvs: dict[str, int] | None = None,
             files: dict[str, int] | None = None) -> dict:
    """``files`` maps an output file name to its expected data-row count."""
    return {"argv": argv + ["--out", "{out}"], "out": out,
            "raw_csvs": raw_csvs or {}, "files": files or {}}


def _plan(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def string_grid(work: Path, seed: int) -> dict:
    data = corpus.string_corpus(work, seed, STRING_SIZES)
    plan = _plan(work / "plan.txt",
                 [f"dataset.{n} = {p}" for n, p in data.items()]
                 + [f"measure = {m}" for m in STRING_MEASURES] + ["grid = yes"])
    per_dataset = len(STRING_MEASURES) * GRID_CONFIGS
    medsts = ["--dataset", f"medsts={data['medsts']}"]
    measures = [a for m in STRING_MEASURES for a in ("--measure", m)]
    return {
        "setup": ["validate", "--plan", str(plan)],
        "commands": [
            _command(["grid", "--plan", str(plan)], "grid",
                     raw_csvs={n: per_dataset for n in data},
                     files={"report.csv": per_dataset * len(data)}),
            _command(["significance", *medsts, *measures, *FIXED_CONFIG, "--splits", str(SPLITS)],
                     "significance", files={"significance.csv": len(STRING_MEASURES)}),
            _command(["error-analysis", *medsts, "--measure", "liblock", *FIXED_CONFIG],
                     "error", files={"error_kde.csv": KDE_POINTS}),
        ],
        "sizes": dict(STRING_SIZES),
        "pairs_scored": (sum(STRING_SIZES.values()) * len(STRING_MEASURES) * GRID_CONFIGS
                         + STRING_SIZES["medsts"] * (len(STRING_MEASURES) + 1)),
    }


def levenshtein(work: Path, seed: int) -> dict:
    data = corpus.string_corpus(work, seed, STRING_SIZES)
    plan = _plan(work / "plan.txt",
                 [f"dataset.{n} = {p}" for n, p in data.items()]
                 + [f"measure = levenshtein @ char_filter={cf}" for cf in CHAR_FILTERS]
                 + ["tokenizer = whitespace", "lowercase = yes", "stopwords = none"])
    runs = len(CHAR_FILTERS)
    return {
        "setup": ["validate", "--plan", str(plan)],
        "commands": [_command(["run", "--plan", str(plan)], "run",
                              raw_csvs={n: runs for n in data},
                              files={"report.csv": runs * len(data)})],
        "sizes": dict(STRING_SIZES),
        "pairs_scored": sum(STRING_SIZES.values()) * runs,
    }


def onto_swem(work: Path, seed: int) -> dict:
    """Ontology and SWEM measures with a 50k-node taxonomy and 20k vectors.

    Set-up and memory grow with the resources, and scoring is path search.
    BENCHMARK.json does not list this workload: on most seeds
    ``ontosim.semantic_vector_sim`` scores a pair 1.0000000000000002, the
    [0, 1] output check fails and the run exits 1. It belongs in
    BENCHMARK.json again once the program keeps its scores within [0, 1].
    """
    files = corpus.onto_corpus(work, seed, ONTO_PAIRS, TAXONOMY_NODES, LEXICON_WORDS,
                               VECTORS, VECTOR_DIM)
    plan = _plan(work / "plan.txt", [
        f"dataset.onto = {files['onto']}",
        f"annotations.onto = {files['onto_annotations']}",
        f"taxonomy = {files['taxonomy']}",
        f"lexicon = {files['lexicon']}",
        f"vectors = {files['vectors']}",
        *[f"measure = {m}" for m in ONTO_MEASURES],
        "tokenizer = treebank-rules", "lowercase = yes",
        "char_filter = default", "stopwords = nltk2018",
    ])
    return {
        "setup": ["validate", "--plan", str(plan)],
        "commands": [_command(["run", "--plan", str(plan)], "run",
                              raw_csvs={"onto": len(ONTO_MEASURES)},
                              files={"report.csv": len(ONTO_MEASURES)})],
        "sizes": {"onto": ONTO_PAIRS},
        "pairs_scored": ONTO_PAIRS * len(ONTO_MEASURES),
    }


WORKLOADS = {"string-grid": string_grid, "levenshtein": levenshtein, "onto-swem": onto_swem}
