import math

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats

from conftest import make_dataset, spearman_closed_form, trapezoid
from stsbench.core import BenchmarkRun, Dataset, RawSentence, SentencePair
from stsbench.stats import (
    DegenerateDataError,
    average_ranks,
    error_analysis,
    gaussian_kde,
    harmonic,
    paired_ttest_one_sided,
    pearson,
    significance_matrix,
    spearman,
    uniform_split,
)


def naive_pearson(x, y):
    """Independent oracle: two-pass textbook formula."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    dx = math.sqrt(sum((a - mx) ** 2 for a in x))
    dy = math.sqrt(sum((b - my) ** 2 for b in y))
    return num / (dx * dy)


def test_pearson_against_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(3, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        assert pearson(x, y) == pytest.approx(naive_pearson(list(x), list(y)), abs=1e-12)


def test_pearson_perfect_and_degenerate():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    with pytest.raises(DegenerateDataError):
        pearson([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


def test_average_ranks_ties():
    assert list(average_ranks([10, 20, 30])) == [1, 2, 3]
    assert list(average_ranks([10, 20, 20, 30])) == [1, 2.5, 2.5, 4]
    assert list(average_ranks([5, 5, 5])) == [2, 2, 2]


def test_spearman_matches_scipy_with_ties(rng):
    for _ in range(50):
        n = int(rng.integers(5, 40))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = scipy_stats.spearmanr(x, y).statistic
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_closed_form_tie_free(rng):
    for _ in range(100):
        n = int(rng.integers(3, 50))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        assert spearman(x, y) == pytest.approx(spearman_closed_form(x, y), abs=1e-12)


def test_harmonic():
    assert harmonic(0.798, 0.818) == pytest.approx(0.808, abs=5e-4)
    assert harmonic(0.5, 0.5) == 0.5
    with pytest.raises(DegenerateDataError):
        harmonic(0.3, -0.3)
    for r, rho in ((0.3, -0.2), (-0.2, 0.3)):
        with pytest.raises(DegenerateDataError, match="opposite signs"):
            harmonic(r, rho)


def test_uniform_split_sizes(rng):
    ds = make_dataset(rng, 25)
    parts = [ds.pairs[s] for s in uniform_split(len(ds), 4)]
    assert [len(p) for p in parts] == [7, 6, 6, 6]
    rebuilt = tuple(pair for p in parts for pair in p)
    assert rebuilt == ds.pairs


def test_uniform_split_errors(rng):
    ds = make_dataset(rng, 5)
    with pytest.raises(ValueError):
        uniform_split(len(ds), 0)
    with pytest.raises(ValueError):
        uniform_split(len(ds), 6)
    assert len(uniform_split(len(ds), 5)) == 5
    assert len(uniform_split(len(ds), 1)) == 1


def test_paired_ttest_small_sample():
    # differences 0.1, 0.2, 0.3: t = sqrt(3) * 0.2 / 0.1 = 3.464, df = 2
    p = paired_ttest_one_sided([1.1, 2.2, 3.3], [1.0, 2.0, 3.0])
    assert p == pytest.approx(0.0371, abs=1e-3)


def test_paired_ttest_against_numeric_oracle(rng):
    """Cross-check the t tail probability by integrating the density."""
    def t_pdf(x, df):
        c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    for _ in range(10):
        n = int(rng.integers(3, 25))
        a = rng.normal(0.2, 1.0, size=n)
        b = rng.normal(0.0, 1.0, size=n)
        d = a - b
        t = d.mean() / (d.std(ddof=1) / math.sqrt(n))
        tail, _ = integrate.quad(t_pdf, t, np.inf, args=(n - 1,))
        assert paired_ttest_one_sided(a, b) == pytest.approx(tail, abs=1e-8)


def test_paired_ttest_degenerate():
    with pytest.raises(DegenerateDataError):
        paired_ttest_one_sided([1.0, 2.0], [0.5, 1.5])


def test_significance_matrix(rng):
    runs = {
        "m1": list(rng.random(10)),
        "m2": list(rng.random(10)),
        "m3": list(rng.random(10)),
    }
    mat = significance_matrix(runs)
    assert mat.methods == ("m1", "m2", "m3")
    for i in range(3):
        assert np.isnan(mat.p_values[i, i])
        for j in range(3):
            if i != j:
                assert mat.p_values[i, j] + mat.p_values[j, i] == pytest.approx(1.0, abs=1e-9)
                assert not mat.degenerate[i, j]


def test_significance_matrix_degenerate_pairs():
    runs = {
        "better": [0.5, 0.6, 0.7],
        "shifted": [0.4, 0.5, 0.6],  # constant difference of 0.1
        "same": [0.5, 0.6, 0.7],
    }
    mat = significance_matrix(runs)
    i, j, k = 0, 1, 2
    assert mat.degenerate[i, j] and mat.p_values[i, j] == 0.0
    assert mat.degenerate[j, i] and mat.p_values[j, i] == 1.0
    assert mat.degenerate[i, k] and np.isnan(mat.p_values[i, k])


def test_significance_matrix_nan_split_score():
    runs = {
        "a": [0.5, 0.6, 0.8, 0.7],
        "b": [0.4, 0.5, 0.6, 0.65],
        "undefined": [0.5, float("nan"), 0.7, 0.6],
    }
    mat = significance_matrix(runs)
    assert not mat.degenerate[0, 1] and 0.0 < mat.p_values[0, 1] < 1.0
    for i, j in ((0, 2), (2, 0), (1, 2), (2, 1)):
        assert mat.degenerate[i, j] and np.isnan(mat.p_values[i, j])


def test_significance_matrix_length_mismatch():
    with pytest.raises(ValueError, match="differing split counts"):
        significance_matrix({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})


def test_gaussian_kde_matches_direct_sum(rng):
    sample = rng.normal(size=30)
    bw = 0.3
    grid, density = gaussian_kde(sample, bw, points=64)
    at = grid[10]
    direct = sum(math.exp(-0.5 * ((at - s) / bw) ** 2) for s in sample)
    direct /= len(sample) * bw * math.sqrt(2 * math.pi)
    assert density[10] == pytest.approx(direct, abs=1e-12)
    assert grid[0] == pytest.approx(sample.min() - 4 * bw)
    assert grid[-1] == pytest.approx(sample.max() + 4 * bw)


def test_error_analysis(rng):
    ds = make_dataset(rng, 30)
    scores = tuple(np.clip(ds.human_scores() + rng.normal(0, 0.1, size=30), 0, 1))
    run = BenchmarkRun(ds.name, "block", "cfg", scores)
    es = error_analysis(run, ds)
    errors = np.array(scores) - np.array(ds.human_scores())
    assert np.allclose(es.errors, errors)
    assert es.mean == pytest.approx(errors.mean())
    assert es.idx_min_abs == int(np.abs(errors).argmin())
    assert es.idx_max_abs == int(np.abs(errors).argmax())
    assert not es.bandwidth_fallback
    assert trapezoid(es.kde_density, es.kde_x) == pytest.approx(1.0, abs=1e-3)


def test_error_analysis_bandwidth_fallback(rng):
    ds = make_dataset(rng, 5)
    shifted = tuple(min(1.0, h) for h in ds.human_scores())
    run = BenchmarkRun(ds.name, "m", "cfg", shifted)
    es = error_analysis(run, ds)  # all errors identical (zero)
    assert es.bandwidth_fallback
    assert es.bandwidth == 1e-3
    # eleven equal errors of 0.6 - 0.5 have a float sd of 1.5e-17, a rounding residue
    pairs = tuple(SentencePair(RawSentence("a"), RawSentence("b"), 0.5) for _ in range(11))
    es = error_analysis(BenchmarkRun("d", "m", "cfg", (0.6,) * 11), Dataset("d", pairs))
    assert es.bandwidth_fallback
    assert es.bandwidth == 1e-3


def test_error_analysis_tie_cluster_integrates_to_one():
    # 35 tied errors make the IQR 0; the sd rule and the +/- 4 bandwidth span
    # keep the density's integral within criterion 7's bound
    rng = np.random.default_rng(7)
    n = 40
    ds = make_dataset(rng, n)
    worst = 0.0
    for _ in range(50):
        errors = np.concatenate([np.zeros(n - 5), rng.uniform(-0.5, 0.5, size=5)])
        human = np.array(ds.human_scores())
        run = BenchmarkRun(ds.name, "m", "cfg", tuple(human + errors))
        es = error_analysis(run, ds)
        assert es.bandwidth_fallback
        assert es.bandwidth == 0.9 * np.std(es.errors, ddof=1) * n ** (-0.2)
        worst = max(worst, abs(float(trapezoid(es.kde_density, es.kde_x)) - 1.0))
    assert worst <= 1e-3


def test_error_analysis_validation(rng):
    ds = make_dataset(rng, 5)
    with pytest.raises(ValueError, match="scores"):
        error_analysis(BenchmarkRun(ds.name, "m", "c", (0.5,)), ds)
