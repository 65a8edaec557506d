"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces the stated tolerance. Criterion 9
needs a user-supplied BIOSSES TSV and is skipped when absent.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path as csgraph_shortest_path
from scipy.stats import norm

from conftest import (
    VOCAB,
    block_distance_sim,
    exact_match_sim,
    harmonic,
    li_adapted_sim,
    liblock_sim,
    make_dataset,
    pair_scores,
    pairs_table,
    pearson,
    random_dag,
    random_tokens,
    spearman,
    spearman_closed_form,
    trapezoid,
    write_dataset,
)
from stsbench import bench
from stsbench.bench import BenchmarkPlan, MeasureSpec, PairScorer, Resources
from stsbench.core import RawSentence, SentencePair, load_dataset
from stsbench.ontosim import Taxonomy, WordSimMeasure, com, semantic_vector_sim, wbsm
from stsbench.preprocess import PreprocessConfig
from stsbench.stats import error_analysis, paired_ttest_one_sided, uniform_split
from stsbench.strsim import levenshtein_pair_scores, token_pair_scores
from test_stats import naive_pearson
from test_strsim import EXAMPLE_S1, EXAMPLE_S2


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_worked_example():
    start = time.perf_counter()
    liad = li_adapted_sim(set(EXAMPLE_S1), set(EXAMPLE_S2))
    block = block_distance_sim(EXAMPLE_S1, EXAMPLE_S2)
    libk = liblock_sim(EXAMPLE_S1, EXAMPLE_S2)
    elapsed = time.perf_counter() - start
    # the program's kernel scores the example as the timed per-pair oracles do
    scores = pair_scores(EXAMPLE_S1, EXAMPLE_S2)
    ok = (abs(liad - 0.471) <= 5e-4 and abs(block - 0.444) <= 5e-4
          and abs(libk - 0.458) <= 5e-4 and elapsed < 1e-3
          and (scores["block"], scores["liblock"]) == (block, libk))
    _report("criterion 1 (worked example)",
            ok, f"liad={liad:.4f} block={block:.4f} libk={libk:.4f} in {elapsed*1e6:.0f}us")


def test_criterion_2_harmonic_cross_check(tmp_path, rng):
    h = harmonic(0.798, 0.818)
    ok = abs(h - 0.808) <= 5e-4
    ds = make_dataset(rng, 30)
    path = tmp_path / "d.tsv"
    write_dataset(ds, path)
    plan = BenchmarkPlan({"d": path},
                         [MeasureSpec("block", [PreprocessConfig()]),
                          MeasureSpec("liblock", [PreprocessConfig()])],
                         out_dir=tmp_path / "out")
    _, report = bench.run(plan)
    worst = 0.0
    finite = [row for row in report.rows if math.isfinite(row.h)]
    for row in finite:
        worst = max(worst, abs(row.h - harmonic(row.r, row.rho)))
    # a degenerate row is nan throughout, never a number beside a nan
    all_nan = all(math.isnan(v) for row in report.rows if not math.isfinite(row.h)
                  for v in (row.r, row.rho, row.h))
    ok = ok and worst <= 1e-12 and bool(finite) and all_nan
    _report("criterion 2 (harmonic score)", ok,
            f"harmonic(0.798,0.818)={h:.6f}, max report drift={worst:.2e} over {len(finite)} "
            f"finite rows, degenerate rows all nan: {all_nan}")


def test_criterion_3_metric_oracles(rng):
    worst_sp, worst_cf, worst_pe = 0.0, 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(5, 40))
        x = rng.permutation(n).astype(float) + rng.random(n) * 0.0
        y = rng.permutation(n).astype(float)
        ranks_oracle = pearson(np.argsort(np.argsort(x)) + 1.0,
                               np.argsort(np.argsort(y)) + 1.0)
        worst_sp = max(worst_sp, abs(spearman(x, y) - ranks_oracle))
        worst_cf = max(worst_cf, abs(spearman(x, y) - spearman_closed_form(x, y)))
        xr, yr = rng.normal(size=n), rng.normal(size=n)
        worst_pe = max(worst_pe, abs(pearson(xr, yr) - naive_pearson(list(xr), list(yr))))
    ok = worst_sp == 0.0 and worst_cf <= 1e-12 and worst_pe <= 1e-12
    _report("criterion 3 (metric oracles)", ok,
            f"spearman drift={worst_sp:.2e} closed-form={worst_cf:.2e} pearson={worst_pe:.2e}")


@pytest.fixture(scope="module")
def onto_setup():
    dag_rng = np.random.default_rng(99)
    tax = Taxonomy(random_dag(dag_rng, 40))
    lexicon = {w: frozenset({f"c{i % 40}"}) for i, w in enumerate(VOCAB)}
    rada = WordSimMeasure("rada", tax, lexicon)
    jc = WordSimMeasure("jiang-conrath", tax, lexicon)
    return rada, jc


def test_criterion_4_measure_properties(rng, onto_setup):
    rada, jc = onto_setup
    checks = 10_000
    pairs = [(random_tokens(rng, 1, 8), random_tokens(rng, 1, 8)) for _ in range(checks)]
    # the six string measures, each over all pairs at once
    table, index = pairs_table(pairs)
    texts = [" ".join(s) for pair in pairs for s in pair]

    def string_scores(index):
        return {**token_pair_scores(*table, index), "levenshtein": levenshtein_pair_scores(texts, index)}

    forward = string_scores(index)
    backward = string_scores(index[:, ::-1])
    itself = string_scores(index[:, [0, 0]])
    for name, v in forward.items():
        for what, bad in (("out of range", ~((0.0 <= v) & (v <= 1.0))), ("asymmetric", v != backward[name]),
                          ("self-sim != 1", np.abs(itself[name] - 1.0) > 1e-12)):
            assert not bad.any(), f"{name} {what} on {pairs[np.argmax(bad)]}"
    per_pair = {
        "wbsm": lambda a, b: wbsm(a, b, rada),
        "ubsm": lambda a, b: wbsm(a, b, jc),
        "com": lambda a, b: com(wbsm(a, b, rada), wbsm(a, b, jc)),
    }
    for name, m in per_pair.items():
        for i, (s1, s2) in enumerate(pairs):
            v = m(s1, s2)
            assert 0.0 <= v <= 1.0, f"{name} out of range on {s1} {s2}"
            assert v == m(s2, s1), f"{name} asymmetric on {s1} {s2}"
            if i % 10 == 0:
                assert abs(m(s1, s1) - 1.0) <= 1e-12, f"{name} self-sim != 1"
    # branch consistency: disjoint vocabularies collapse LiBlock to Block
    disjoint = [(tuple(rng.choice(VOCAB[:15], size=rng.integers(1, 8))),
                 tuple(rng.choice(VOCAB[15:], size=rng.integers(1, 8)))) for _ in range(1000)]
    table, index = pairs_table(disjoint)
    scores = token_pair_scores(*table, index)
    assert np.array_equal(scores["liblock"], scores["block"])
    _report("criterion 4 (measure properties)", True,
            f"{checks} checks x {len(forward) + len(per_pair)} measures, branch consistency exact")


def test_criterion_5_taxonomy_oracle(rng):
    for trial in range(50):
        n = int(rng.integers(2, 201))
        edges = random_dag(rng, n)
        tax = Taxonomy(edges)
        nodes = sorted(tax.nodes)
        index = {m: i for i, m in enumerate(nodes)}
        rows, cols = [], []
        for c, p in edges:
            rows += [index[c], index[p]]
            cols += [index[p], index[c]]
        graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        dist = csgraph_shortest_path(graph, method="D", unweighted=True)
        if n <= 40:
            queries = [(a, b) for a in nodes for b in nodes]
        else:
            idx = rng.integers(0, n, size=(300, 2))
            queries = [(nodes[i], nodes[j]) for i, j in idx]
        for a, b in queries:
            assert tax.shortest_path_len(a, b) == int(dist[index[a], index[b]])
        for child, parent in edges:
            assert tax.ic_sanchez(child) >= tax.ic_sanchez(parent) - 1e-12
        # ic_max is taken over the leaves only, depth from the topological pass
        assert tax.ic_max() == max(tax.ic_sanchez(m) for m in nodes)
        down = csr_matrix((np.ones(len(edges)), ([index[p] for _, p in edges],
                                                 [index[c] for c, _ in edges])), shape=(n, n))
        depth = csgraph_shortest_path(down, directed=True, unweighted=True, indices=index[tax.root])
        assert [tax.depth(m) for m in nodes] == [int(d) for d in depth]
        # a concept's leaf count is the number of leaves reachable below it
        below = np.isfinite(csgraph_shortest_path(down, directed=True, unweighted=True))
        leaves = np.diff(down.indptr) == 0
        assert [tax.leaf_count(m) for m in nodes] == below[:, leaves].sum(axis=1).tolist()
    # 0/1 word similarity must reproduce the binary cosine bit for bit
    for _ in range(2000):
        s1 = set(random_tokens(rng, 1, 10))
        s2 = set(random_tokens(rng, 1, 10))
        assert semantic_vector_sim(s1, s2, exact_match_sim) == li_adapted_sim(s1, s2)
    _report("criterion 5 (taxonomy oracle)", True,
            "50 DAGs vs BFS oracle, leaf counts vs reachability, IC monotone, binary case bit-equal")


def test_criterion_6_significance_machinery(rng):
    p_small = paired_ttest_one_sided([1.1, 2.2, 3.3], [1.0, 2.0, 3.0])
    ok_small = abs(p_small - 0.0371) <= 1e-3
    # with huge df the t tail must match the normal tail
    n = 200_000
    d = rng.normal(0.0037, 1.0, size=n)
    t = d.mean() / (d.std(ddof=1) / math.sqrt(n))
    p_big = paired_ttest_one_sided(d, np.zeros(n))
    ok_norm = abs(p_big - float(norm.sf(t))) <= 1e-3
    pairs = tuple(SentencePair(RawSentence("a"), RawSentence("b"), 0.5) for _ in range(1068))
    parts = [pairs[s] for s in uniform_split(len(pairs), 10)]
    sizes = [len(p) for p in parts]
    ok_split = sorted(sizes, reverse=True) == [107] * 8 + [106] * 2
    rebuilt = tuple(pair for p in parts for pair in p)
    ok_split = ok_split and rebuilt == pairs
    ok = ok_small and ok_norm and ok_split
    _report("criterion 6 (significance machinery)", ok,
            f"df=2 p={p_small:.4f}, normal-limit drift={abs(p_big - float(norm.sf(t))):.2e}, "
            f"split sizes={sorted(set(sizes), reverse=True)}")


def test_criterion_7_kde_normalization(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 200))
        ds = make_dataset(rng, n)
        scores = tuple(np.clip(np.array(ds.human_scores())
                               + rng.normal(0, rng.uniform(0.02, 0.3), size=n), 0, 1))
        es = error_analysis(scores, ds.human_scores())
        integral = float(trapezoid(es.kde_density, es.kde_x))
        worst = max(worst, abs(integral - 1.0))
    ok = worst <= 1e-3
    _report("criterion 7 (KDE normalization)", ok, f"max |integral - 1| = {worst:.2e}")


def test_criterion_8_throughput(rng):
    ds = make_dataset(rng, 1339, name="throughput-corpus")
    cfg = PreprocessConfig(char_filter="default", stopwords="nltk2018")
    block_rate = bench.throughput(PairScorer("block", cfg, Resources()), ds)
    liblock_rate = bench.throughput(PairScorer("liblock", cfg, Resources()), ds)
    ok = block_rate >= 1000 and liblock_rate >= 500
    _report("criterion 8 (throughput)", ok,
            f"block={block_rate:.0f} pairs/s (>=1000), liblock={liblock_rate:.0f} pairs/s (>=500)")


BIOSSES_PATH = os.environ.get("STSBENCH_BIOSSES", "tests/data/biosses.tsv")


@pytest.mark.skipif(not os.path.isfile(BIOSSES_PATH),
                    reason="no user-supplied BIOSSES TSV (set STSBENCH_BIOSSES)")
def test_criterion_9_biosses_pearson():
    ds = load_dataset(BIOSSES_PATH, name="biosses")
    cfg = PreprocessConfig(tokenizer="whitespace", lowercase=True,
                           char_filter="biosses", stopwords="nltk2018")
    scorer = PairScorer("block", cfg, Resources())
    run = bench.score_dataset(scorer, ds)
    r = pearson(run.scores, ds.human_scores())
    ok = abs(r - 0.798) <= 0.03
    _report("criterion 9 (BIOSSES check)", ok, f"pearson r = {r:.4f} (target 0.798 +/- 0.03)")
