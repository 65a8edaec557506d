"""Evaluation metrics, significance testing, splits and error analysis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as scipy_stats

from .core import BenchmarkRun, Dataset


class DegenerateDataError(ValueError):
    """Zero-variance or otherwise degenerate input to a statistic."""


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValueError(f"expected equal-length 1-d samples, got {xa.shape} and {ya.shape}")
    if len(xa) < 2:
        raise ValueError("need at least 2 observations")
    return xa, ya


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length samples."""
    xa, ya = _as_pair(x, y)
    xd = xa - xa.mean()
    yd = ya - ya.mean()
    denom = np.sqrt(np.sum(xd * xd)) * np.sqrt(np.sum(yd * yd))
    if denom == 0.0:
        raise DegenerateDataError("zero variance: correlation undefined")
    return float(np.sum(xd * yd) / denom)


def average_ranks(x) -> np.ndarray:
    """1-based ranks with ties assigned their average rank."""
    return scipy_stats.rankdata(np.asarray(x, dtype=float), method="average")


def spearman(x, y) -> float:
    """Rank correlation: Pearson over average-ranked values.

    Coincides with the 1 - 6*sum(d^2)/(n(n^2-1)) closed form when there
    are no ties.
    """
    xa, ya = _as_pair(x, y)
    return pearson(average_ranks(xa), average_ranks(ya))


def harmonic(r: float, rho: float) -> float:
    """Harmonic combination 2*r*rho / (r + rho) of the two correlations.

    Undefined, and raised as degenerate, when r and rho have opposite signs
    (the formula would leave [-1, 1]) or sum to zero.
    """
    if r < 0.0 < rho or rho < 0.0 < r:
        raise DegenerateDataError(f"r = {r:.6g} and rho = {rho:.6g} have opposite signs: "
                                  "harmonic score undefined")
    if r + rho == 0.0:
        raise DegenerateDataError("r + rho is zero: harmonic score undefined")
    return 2.0 * r * rho / (r + rho)


def uniform_split(n: int, k: int = 10) -> list[slice]:
    """Split ``range(n)`` into k contiguous, near-uniform slices.

    The first ``n % k`` slices get the extra item each; together they cover
    ``range(n)`` in order.
    """
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    base, extra = divmod(n, k)
    bounds = [i * base + min(i, extra) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def paired_ttest_one_sided(sample_a, sample_b) -> float:
    """One-sided paired t-test p-value for mean(a - b) > 0."""
    a, b = _as_pair(sample_a, sample_b)
    d = a - b
    sd = float(np.std(d, ddof=1))
    if not sd > 0.0:  # zero, or nan from a nan score
        raise DegenerateDataError("paired differences have zero or undefined variance")
    n = len(d)
    t = float(np.mean(d)) / (sd / np.sqrt(n))
    return float(scipy_stats.t.sf(t, df=n - 1))


@dataclass(frozen=True)
class SignificanceMatrix:
    methods: tuple[str, ...]
    p_values: np.ndarray      # (i, j): p for "method i outperforms method j"; nan on diagonal
    degenerate: np.ndarray    # bool mask of degenerate comparisons


def significance_matrix(runs: dict[str, list[float]]) -> SignificanceMatrix:
    """Pairwise one-sided paired t-tests over per-split harmonic scores.

    Degenerate pairs (zero-variance differences, or a nan split score) are
    flagged and reported as p = 0 when the mean difference is positive,
    p = 1 when negative, and nan when the score vectors are identical or
    hold a nan.
    """
    methods = tuple(runs)
    lengths = {len(v) for v in runs.values()}
    if len(lengths) != 1:
        raise ValueError(f"methods evaluated on differing split counts: {sorted(lengths)}")
    m = len(methods)
    p = np.full((m, m), np.nan)
    degenerate = np.zeros((m, m), dtype=bool)
    for i, mi in enumerate(methods):
        for j, mj in enumerate(methods):
            if i == j:
                continue
            try:
                p[i, j] = paired_ttest_one_sided(runs[mi], runs[mj])
            except DegenerateDataError:
                degenerate[i, j] = True
                diff = float(np.mean(np.asarray(runs[mi]) - np.asarray(runs[mj])))
                p[i, j] = 0.0 if diff > 0 else (1.0 if diff < 0 else np.nan)
    return SignificanceMatrix(methods, p, degenerate)


@dataclass(frozen=True)
class ErrorSample:
    """Per-pair similarity errors of a run plus their density estimate."""

    errors: np.ndarray
    mean: float
    idx_min_abs: int
    idx_max_abs: int
    kde_x: np.ndarray
    kde_density: np.ndarray
    bandwidth: float
    bandwidth_fallback: bool


def _rule_of_thumb_bandwidth(errors: np.ndarray) -> tuple[float, bool]:
    # all-equal errors can have a nonzero float sd, a rounding residue
    sd = float(np.std(errors, ddof=1)) if errors.max() > errors.min() else 0.0
    q75, q25 = np.percentile(errors, [75, 25])
    spread = min(sd, float(q75 - q25) / 1.34)
    if spread == 0.0:  # ties make the IQR 0
        return (0.9 * sd * len(errors) ** (-0.2) if sd > 0.0 else 1e-3), True
    return 0.9 * spread * len(errors) ** (-0.2), False


def gaussian_kde(sample: np.ndarray, bandwidth: float, points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density on an equispaced grid spanning the sample +/- 4
    bandwidths, outside which lies at most 2 * Phi(-4), about 6.3e-5, of its mass."""
    grid = np.linspace(sample.min() - 4.0 * bandwidth, sample.max() + 4.0 * bandwidth, points)
    z = (grid[:, None] - sample[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(sample) * bandwidth * np.sqrt(2.0 * np.pi))
    return grid, density


def error_analysis(run: BenchmarkRun, dataset: Dataset, kde_points: int = 512) -> ErrorSample:
    """Similarity errors (method minus human) with a kernel density estimate.

    The bandwidth is Silverman's (1986) 0.9 * min(sd, IQR/1.34) * n^(-1/5)
    rule. Where that gives 0, ``bandwidth_fallback`` is set and the bandwidth
    is 0.9 * sd * n^(-1/5) when ties make the IQR 0, or 1e-3 when every error
    is equal.
    """
    if len(run.scores) != len(dataset):
        raise ValueError(f"run has {len(run.scores)} scores, dataset {len(dataset)} pairs")
    if len(dataset) < 2:
        raise ValueError("need at least 2 pairs for error analysis")
    errors = np.asarray(run.scores, dtype=float) - np.asarray(dataset.human_scores(), dtype=float)
    abs_errors = np.abs(errors)
    bandwidth, fallback = _rule_of_thumb_bandwidth(errors)
    grid, density = gaussian_kde(errors, bandwidth, kde_points)
    return ErrorSample(
        errors=errors,
        mean=float(errors.mean()),
        idx_min_abs=int(abs_errors.argmin()),
        idx_max_abs=int(abs_errors.argmax()),
        kde_x=grid,
        kde_density=density,
        bandwidth=bandwidth,
        bandwidth_fallback=fallback,
    )
