import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import stats as scipy_stats

from conftest import harmonic, make_dataset, pearson, spearman, spearman_closed_form, trapezoid
from stsbench.core import BenchmarkRun, Dataset, RawSentence, SentencePair
from stsbench.stats import (
    DegenerateDataError,
    average_ranks,
    error_analysis,
    gaussian_kde,
    paired_ttest_one_sided,
    row_correlations,
    significance_matrix,
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


@pytest.mark.parametrize("x, y", [([0.1] * 3, [0, 1, 2]), ([1 / 3] * 1068, range(1068))])
def test_pearson_of_a_constant_sample_with_an_inexact_mean_is_degenerate(x, y):
    # the float mean of these samples is not their value, so the deviations
    # are a rounding residue rather than zero
    assert np.asarray(x).mean() != x[0]
    for a, b in ((x, y), (y, x)):
        with pytest.raises(DegenerateDataError, match="zero variance: correlation undefined"):
            pearson(a, b)


def test_average_ranks_ties():
    assert list(average_ranks([10, 20, 30])) == [1, 2, 3]
    assert list(average_ranks([10, 20, 20, 30])) == [1, 2.5, 2.5, 4]
    assert list(average_ranks([5, 5, 5])) == [2, 2, 2]


def test_average_ranks_equal_rankdata_bit_for_bit(rng):
    for _ in range(2000):
        n = int(rng.integers(0, 25))
        x = rng.integers(-3, 4, size=n) / 2
        odd = rng.random(n) < 0.2  # ties with 0.0, infinities and nans
        x[odd] = rng.choice([-0.0, np.inf, -np.inf, np.nan], size=odd.sum())
        ranks = average_ranks(x)
        assert ranks.dtype == np.float64
        assert ranks.tobytes() == scipy_stats.rankdata(x).tobytes()
    m = np.round(rng.random((300, 1068)), 2)
    m[3], m[4, ::2], m[5, 7], m[6] = 0.0, -0.0, np.nan, np.inf
    ranks = average_ranks(m)
    assert ranks.flags.c_contiguous
    assert ranks.tobytes() == scipy_stats.rankdata(m, axis=1).tobytes()


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
    for r, rho in ((math.nan, math.nan), (math.nan, 0.5), (0.5, math.inf), (-math.inf, -0.5)):
        with pytest.raises(DegenerateDataError, match="not both finite"):
            harmonic(r, rho)


def _scalar_statistics(x, y) -> tuple[tuple[float, float, float], str | None]:
    try:
        r = pearson(x, y)
        rho = spearman(x, y)
        return (r, rho, harmonic(r, rho)), None
    except DegenerateDataError as exc:
        return (math.nan,) * 3, str(exc)


def _score_matrix(rng, n: int, human: np.ndarray) -> np.ndarray:
    """Random score rows with ties, constant rows, non-finite rows and rows
    whose r and rho have opposite signs."""
    rows = [rng.random(n), np.round(rng.random(n), 1), human * 0.5, -human,
            np.full(n, 0.1), np.full(n, 1 / 3), np.zeros(n)]
    for bad in (math.nan, math.inf, -math.inf):
        row = rng.random(n)
        row[int(rng.integers(n))] = bad
        rows.append(row)
    # an outlier at the top human score makes r positive while the ranks
    # still mostly fall: r > 0 > rho
    outlier = -human + rng.random(n) * 1e-3
    outlier[int(np.argmax(human))] = 1e3
    rows += [outlier, -outlier]
    return np.array(rows + [rng.random(n) for _ in range(20)])


@pytest.mark.parametrize("n, k", [(2, 1), (9, 4), (129, 10), (1068, 10)])
def test_row_correlations_match_the_scalar_statistics_bit_for_bit(rng, n, k):
    # 129 and 1068 pass numpy's 128-element pairwise-summation blocks
    errors = set()
    for human in (rng.random(n), np.round(rng.random(n) * 4) / 4):
        scores = _score_matrix(rng, n, human)
        for part in [slice(None), *uniform_split(n, k)]:
            got = row_correlations(scores[:, part], human[part])
            for i, row in enumerate(scores[:, part]):
                values, error = _scalar_statistics(row, human[part])
                assert got.errors[i] == error
                assert np.array([got.r[i], got.rho[i], got.h[i]]).tobytes() == np.array(values).tobytes()
                errors.add(error)
    assert "non-finite value: correlation undefined" in errors
    assert "zero variance: correlation undefined" in errors
    assert None in errors
    if n > 2:
        assert any(e and "opposite signs" in e for e in errors)


def test_row_correlations_degenerate_human_scores_and_shapes(rng):
    scores = rng.random((3, 5))
    for human, error in (([0.5] * 5, "zero variance"), ([0.1, math.nan, 0.3, 0.4, 0.5], "non-finite")):
        got = row_correlations(scores, human)
        assert all(e.startswith(error) for e in got.errors)
        assert np.isnan(np.concatenate([got.r, got.rho, got.h])).all()
    with pytest.raises(ValueError, match="at least 2 observations"):
        row_correlations(scores[:, :1], [0.5])
    with pytest.raises(ValueError, match="one column per human score"):
        row_correlations(scores, [0.5] * 4)


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


def test_paired_ttest_equals_t_sf_bit_for_bit(rng):
    for _ in range(500):
        n = int(rng.integers(2, 40))
        a, b = rng.normal(0.1, 1.0, size=n), rng.normal(0.0, 1.0, size=n)
        if rng.random() < 0.1:  # a huge |t|, whose tail underflows or saturates
            b = a - rng.choice([-1.0, 1.0]) * (1.0 + 1e-12 * rng.random(n))
        d = a - b
        t = float(np.mean(d)) / (float(np.std(d, ddof=1)) / np.sqrt(n))
        assert paired_ttest_one_sided(a, b) == float(scipy_stats.t.sf(t, df=n - 1))


def test_cli_import_leaves_out_scipy():
    import os
    import subprocess
    import sys
    import stsbench
    src = str(Path(stsbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, stsbench.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == "[]"


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


def test_gaussian_kde_equals_the_four_temporary_expression_bit_for_bit(rng):
    # the density as it was computed before it ran in one buffer
    def oracle(sample, bandwidth, points):
        grid = np.linspace(sample.min() - 4.0 * bandwidth, sample.max() + 4.0 * bandwidth, points)
        z = (grid[:, None] - sample[None, :]) / bandwidth
        return grid, np.exp(-0.5 * z * z).sum(axis=1) / (len(sample) * bandwidth * np.sqrt(2.0 * np.pi))

    cases = [(rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=rng.integers(1, 60)),
              10.0 ** rng.uniform(-4, 3)) for _ in range(200)]
    cases += [(rng.normal(size=20), 1e-300), (rng.normal(size=20), 1e3), (np.zeros(5), 1e-3)]
    with np.errstate(over="ignore"):  # at bandwidth 1e-300, z * z overflows; exp(-inf) is 0 in both forms
        for sample, bandwidth in cases:
            for got, want in zip(gaussian_kde(sample, bandwidth, 64), oracle(sample, bandwidth, 64)):
                assert got.tobytes() == want.tobytes()


def test_error_analysis(rng):
    ds = make_dataset(rng, 30)
    scores = tuple(np.clip(ds.human_scores() + rng.normal(0, 0.1, size=30), 0, 1))
    run = BenchmarkRun(ds.name, "block", "cfg", scores)
    es = error_analysis(run.scores, ds.human_scores())
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
    es = error_analysis(run.scores, ds.human_scores())  # all errors identical (zero)
    assert es.bandwidth_fallback
    assert es.bandwidth == 1e-3
    # eleven equal errors of 0.6 - 0.5 have a float sd of 1.5e-17, a rounding residue
    pairs = tuple(SentencePair(RawSentence("a"), RawSentence("b"), 0.5) for _ in range(11))
    es = error_analysis((0.6,) * 11, Dataset("d", pairs).human_scores())
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
        es = error_analysis(run.scores, ds.human_scores())
        assert es.bandwidth_fallback
        assert es.bandwidth == 0.9 * np.std(es.errors, ddof=1) * n ** (-0.2)
        worst = max(worst, abs(float(trapezoid(es.kde_density, es.kde_x)) - 1.0))
    assert worst <= 1e-3


def test_error_analysis_validation(rng):
    ds = make_dataset(rng, 5)
    with pytest.raises(ValueError, match="scores"):
        error_analysis((0.5,), ds.human_scores())


def test_error_analysis_rejects_a_side_that_would_broadcast():
    human = [0.1, 0.3, 0.5, 0.7, 0.9]
    for scores, other in (([0.5], human), (human, [0.5])):
        with pytest.raises(ValueError, match=f"^run has {len(scores)} scores, dataset {len(other)} pairs$"):
            error_analysis(scores, other)
    with pytest.raises(ValueError, match="need at least 2 pairs"):
        error_analysis([0.5], [0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_correlations_of_non_finite_samples_are_degenerate(bad):
    from stsbench.bench import report_rows
    x, y = [0.1, bad, 0.3], [0.1, 0.2, 0.3]
    for corr in (pearson, spearman):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DegenerateDataError, match="non-finite value: correlation undefined"):
                corr(a, b)
    with pytest.warns(UserWarning, match="non-finite value: correlation undefined; reporting nan"):
        [[row]] = report_rows(np.array([x]), [(0, BenchmarkRun("d", "block", "cfg", tuple(x)), 0, 0)], y)
    assert all(math.isnan(v) for v in (row.r, row.rho, row.h))
