"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of ``stsbench`` at the attribute
where their callers look them up (``stsbench.bench.preprocess`` is what
``bench`` calls, ``stsbench.strsim.block_distance_sim`` what ``PairScorer``
calls) with wrappers that time each call. Spans nest: a span's self time is
its duration minus the time of the traced spans it encloses. Names the
program no longer has are skipped and listed, so the tracer keeps working
as functions are merged or deleted.

Tracing is off unless :meth:`Tracer.install` was called; :meth:`uninstall`
puts every original back.
"""

from __future__ import annotations

import importlib
import resource
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

# (attribute path under ``stsbench``, span key, layer, outer_only)
# outer_only: inside a span of the same layer the call is not traced, so
# e.g. the block distance that ``liblock_sim`` computes counts as liblock.
SPANS = (
    ("bench.load_dataset", "core.load", "core", False),
    ("bench.load_annotations", "core.load", "core", False),
    ("bench.attach_annotations", "core.load", "core", False),
    ("bench.write_raw_scores", "core.write", "core", False),
    ("bench.preprocess", "preprocess.preprocess", "preprocess", False),
    ("preprocess.tokenize", "preprocess.tokenize", "preprocess", False),
    ("preprocess.substitute_concepts", "preprocess.substitute", "preprocess", False),
    ("preprocess.CharFilter.apply", "preprocess.char_filter", "preprocess", False),
    ("strsim.qgram_sim", "strsim.qgram", "strsim", True),
    ("strsim.jaccard_sim", "strsim.jaccard", "strsim", True),
    ("strsim.block_distance_sim", "strsim.block", "strsim", True),
    ("strsim.liblock_sim", "strsim.liblock", "strsim", True),
    ("strsim.levenshtein_sim", "strsim.levenshtein", "strsim", True),
    ("strsim.overlap_sim", "strsim.overlap", "strsim", True),
    ("ontosim.load_taxonomy", "ontosim.taxonomy_load", "ontosim", False),
    ("ontosim.load_lexicon", "ontosim.lexicon_load", "ontosim", False),
    ("ontosim.Taxonomy.shortest_path_len", "ontosim.shortest_path", "ontosim", False),
    ("ontosim.Taxonomy.ic_sanchez", "ontosim.ic", "ontosim", False),
    ("ontosim.WordSimMeasure.word_sim", "ontosim.word_sim", "ontosim", False),
    ("ontosim.semantic_vector_sim", "ontosim.semantic_vector", "ontosim", False),
    ("ontosim.wbsm", "ontosim.sentence", "ontosim", False),
    ("ontosim.ubsm", "ontosim.sentence", "ontosim", False),
    ("ontosim.com", "ontosim.sentence", "ontosim", False),
    ("vecsim.load_vectors", "vecsim.load", "vecsim", False),
    ("vecsim.swem_sim", "vecsim.swem", "vecsim", False),
    ("bench.pearson", "stats.corr", "stats", True),
    ("bench.spearman", "stats.corr", "stats", True),
    ("bench.harmonic", "stats.corr", "stats", True),
    ("stats.pearson", "stats.corr", "stats", True),
    ("stats.spearman", "stats.corr", "stats", True),
    ("stats.harmonic", "stats.corr", "stats", True),
    ("stats.uniform_split", "stats.significance", "stats", True),
    ("stats.significance_matrix", "stats.significance", "stats", True),
    ("stats.error_analysis", "stats.kde", "stats", True),
    ("bench.validate_plan", "bench.validate", "bench", False),
    ("bench.PairScorer.__init__", "bench.scorer_build", "bench", False),
    ("bench.PairScorer.clear_cache", "bench.clear_cache", "bench", False),
    ("bench.load_plan_datasets", "bench.load_plan_datasets", "bench", False),
    ("bench.score_dataset", "bench.score_dataset", "bench", False),
    ("bench.run", "bench.run", "bench", False),
    ("bench.grid_specs", "bench.grid_specs", "bench", False),
    ("bench.best_config", "bench.best_config", "bench", False),
    ("cli.main", "cli.main", "cli", False),
)


def _rss_bytes() -> int | None:
    """Resident set size of this process, or None where /proc is missing."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return None
    return pages * resource.getpagesize()


def _resolve(path: str):
    """(owner object, attribute name) for a dotted path, or None if gone."""
    parts = path.split(".")
    try:
        owner = importlib.import_module(f"stsbench.{parts[0]}")
    except ImportError:
        return None
    for name in parts[1:-1]:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type) and parts[-1] not in vars(owner):
        return None
    if not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1]


class Tracer:
    """Span times, self times and counts per layer, kept in memory."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.time: defaultdict[str, float] = defaultdict(float)       # inclusive
        self.self_time: defaultdict[str, float] = defaultdict(float)  # per span key
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.skipped: list[str] = []
        self.taxonomy_rss_bytes: int | None = None
        self._rss_before: int | None = None
        self._stack: list[list] = []  # [layer, child seconds]
        self._installed: list[tuple[object, str, object]] = []
        self._preprocess_keys: set = set()
        self._word_pairs: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- argument-derived counters -------------------------------------
    def _on_preprocess(self, args, kwargs):
        self._preprocess_keys.add((args[0], args[1]))

    def _on_levenshtein(self, args, kwargs):
        self.counts["strsim.levenshtein.cells"] += len(" ".join(args[0])) * len(" ".join(args[1]))

    def _on_word_sim(self, args, kwargs):
        measure, w1, w2 = args
        seen = self._word_pairs.setdefault(measure, set())
        key = (w1, w2) if w1 <= w2 else (w2, w1)
        if key in seen:
            self.counts["ontosim.word_sim.memo_hits"] += 1
        else:
            seen.add(key)

    def _after_write(self, args, kwargs):
        self.counts["core.files"] += 1
        self.counts["core.bytes"] += Path(args[1]).stat().st_size

    def _before_taxonomy(self, args, kwargs):
        if self.taxonomy_rss_bytes is None:
            self._rss_before = _rss_bytes()

    def _after_taxonomy(self, args, kwargs):
        if self.taxonomy_rss_bytes is None and self._rss_before is not None:
            self.taxonomy_rss_bytes = _rss_bytes() - self._rss_before

    _BEFORE = {
        "preprocess.preprocess": _on_preprocess,
        "strsim.levenshtein": _on_levenshtein,
        "ontosim.word_sim": _on_word_sim,
        "ontosim.taxonomy_load": _before_taxonomy,
    }
    _AFTER = {"core.write": _after_write, "ontosim.taxonomy_load": _after_taxonomy}

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, key: str, layer: str, outer_only: bool):
        stack, clock = self._stack, time.perf_counter
        calls, total, self_time, layer_self = self.calls, self.time, self.self_time, self.layer_self
        before = self._BEFORE.get(key)
        after = self._AFTER.get(key)
        tracer = self

        def traced(*args, **kwargs):
            if outer_only and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            if before is not None:
                # counter upkeep is tracing cost, not the enclosing span's work
                t = clock()
                before(tracer, args, kwargs)
                if stack:
                    stack[-1][1] += clock() - t
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[key] += 1
                total[key] += elapsed
                self_time[key] += elapsed - frame[1]
                layer_self[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if after is not None:
                    t = clock()
                    after(tracer, args, kwargs)
                    if stack:
                        stack[-1][1] += clock() - t

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.skipped = []
        for path, key, layer, outer_only in SPANS:
            found = _resolve(path)
            if found is None:
                self.skipped.append(path)
                continue
            owner, name = found
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, key, layer, outer_only))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed = []
        self._stack.clear()

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """The per-layer metrics; a layer the run never entered reads 0."""
        c, t = self.calls, self.time
        m: dict[str, float] = {
            "core.load_s": t["core.load"],
            "core.write_s": t["core.write"],
            "core.files": self.counts["core.files"],
            "core.bytes": self.counts["core.bytes"],
            "preprocess.calls": c["preprocess.preprocess"],
            "preprocess.unique_frac": (len(self._preprocess_keys) / c["preprocess.preprocess"]
                                       if c["preprocess.preprocess"] else 0.0),
            "preprocess.s": self.self_time["preprocess.preprocess"],
            "preprocess.tokenize_s": t["preprocess.tokenize"],
            "preprocess.substitute_s": t["preprocess.substitute"],
            "preprocess.char_filter_s": t["preprocess.char_filter"],
        }
        for k in ("qgram", "jaccard", "block", "liblock", "overlap", "levenshtein"):
            m[f"strsim.{k}.calls"] = c[f"strsim.{k}"]
            m[f"strsim.{k}.s"] = t[f"strsim.{k}"]
        cells = self.counts["strsim.levenshtein.cells"]
        m["strsim.levenshtein.cells"] = cells
        m["strsim.levenshtein.cells_per_s"] = cells / t["strsim.levenshtein"] if cells else 0.0
        m.update({
            "ontosim.taxonomy_load_s": t["ontosim.taxonomy_load"],
            "ontosim.taxonomy_rss_mb": (self.taxonomy_rss_bytes or 0) / 2**20,
            "ontosim.shortest_path.calls": c["ontosim.shortest_path"],
            "ontosim.shortest_path.s": t["ontosim.shortest_path"],
            "ontosim.ic.calls": c["ontosim.ic"],
            "ontosim.ic.s": t["ontosim.ic"],
            "ontosim.word_sim.calls": c["ontosim.word_sim"],
            "ontosim.word_sim.memo_hit_frac": (self.counts["ontosim.word_sim.memo_hits"]
                                               / c["ontosim.word_sim"] if c["ontosim.word_sim"] else 0.0),
            "ontosim.semantic_vector.s": t["ontosim.semantic_vector"],
            "vecsim.load_s": t["vecsim.load"],
            "vecsim.swem.calls": c["vecsim.swem"],
            "vecsim.swem.s": t["vecsim.swem"],
            "stats.corr_s": t["stats.corr"],
            "stats.significance_s": t["stats.significance"],
            "stats.kde_s": t["stats.kde"],
            "bench.validate_s": t["bench.validate"],
            "bench.scorer_builds": c["bench.scorer_build"],
            "bench.score_dataset.s": t["bench.score_dataset"],
            "bench.self_s": self.layer_self["bench"],
            "cli.self_s": self.layer_self["cli"],
        })
        return m
