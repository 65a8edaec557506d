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


def spearman_closed_form(x, y) -> float:
    """Tie-free closed form; callers must guarantee tie-free inputs."""
    xa, ya = _as_pair(x, y)
    n = len(xa)
    d = average_ranks(xa) - average_ranks(ya)
    return 1.0 - 6.0 * float(np.sum(d * d)) / (n * (n * n - 1))


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


def uniform_split(dataset: Dataset, k: int = 10) -> list[Dataset]:
    """Split into k contiguous, order-preserving, near-uniform parts.

    The first ``len % k`` parts get the extra pair each; concatenating the
    parts reproduces the dataset.
    """
    n = len(dataset)
    if k <= 0 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    base, extra = divmod(n, k)
    parts = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        parts.append(Dataset(f"{dataset.name}[{i}]", dataset.pairs[start : start + size]))
        start += size
    return parts


def paired_ttest_one_sided(sample_a, sample_b) -> float:
    """One-sided paired t-test p-value for mean(a - b) > 0."""
    a, b = _as_pair(sample_a, sample_b)
    d = a - b
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        raise DegenerateDataError("paired differences have zero variance")
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

    Degenerate pairs (zero-variance differences) are flagged and reported
    as p = 0 when the mean difference is positive, p = 1 when negative,
    and nan when the score vectors are identical.
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


def _rule_of_thumb_bandwidth(errors: np.ndarray) -> float:
    sd = float(np.std(errors, ddof=1))
    q75, q25 = np.percentile(errors, [75, 25])
    iqr = float(q75 - q25)
    return 0.9 * min(sd, iqr / 1.34) * len(errors) ** (-0.2)


def gaussian_kde(sample: np.ndarray, bandwidth: float, points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian-kernel density on an equispaced grid spanning the sample +/- 3 bandwidths."""
    grid = np.linspace(sample.min() - 3.0 * bandwidth, sample.max() + 3.0 * bandwidth, points)
    z = (grid[:, None] - sample[None, :]) / bandwidth
    density = np.exp(-0.5 * z * z).sum(axis=1) / (len(sample) * bandwidth * np.sqrt(2.0 * np.pi))
    return grid, density


def error_analysis(run: BenchmarkRun, dataset: Dataset, kde_points: int = 512) -> ErrorSample:
    """Similarity errors (method minus human) with a kernel density estimate.

    The bandwidth is the 0.9 * min(sd, IQR/1.34) * n^(-1/5) rule; a zero
    bandwidth (all-equal errors) falls back to 1e-3 with a flag.
    """
    if len(run.scores) != len(dataset):
        raise ValueError(f"run has {len(run.scores)} scores, dataset {len(dataset)} pairs")
    if len(dataset) < 2:
        raise ValueError("need at least 2 pairs for error analysis")
    errors = np.asarray(run.scores, dtype=float) - np.asarray(dataset.human_scores(), dtype=float)
    abs_errors = np.abs(errors)
    bandwidth = _rule_of_thumb_bandwidth(errors)
    fallback = bandwidth <= 0.0
    if fallback:
        bandwidth = 1e-3
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
