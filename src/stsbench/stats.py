"""Evaluation metrics, significance testing, splits and error analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateDataError(ValueError):
    """Zero-variance or otherwise degenerate input to a statistic."""


_NON_FINITE = "non-finite value: correlation undefined"
_ZERO_VARIANCE = "zero variance: correlation undefined"


def _as_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or xa.shape != ya.shape:
        raise ValueError(f"expected equal-length 1-d samples, got {xa.shape} and {ya.shape}")
    if len(xa) < 2:
        raise ValueError("need at least 2 observations")
    return xa, ya


def average_ranks(x) -> np.ndarray:
    """1-based ranks along the last axis, ties given their average rank, and
    all nan in a row that holds a nan: ``scipy.stats.rankdata``, bit for bit."""
    x = np.asarray(x, dtype=float)
    order = np.argsort(x, axis=-1)
    s = np.take_along_axis(x, order, axis=-1)
    at = np.arange(s.shape[-1])
    tie = s == np.roll(s, 1, axis=-1)  # equal to the value before (moot for the first)
    # where each value's run of equal values starts, in the row and in the reversed row
    first, rev = (np.maximum.accumulate(np.where(t, 0, at), axis=-1)
                  for t in (tie, np.roll(tie, -1, axis=-1)[..., ::-1]))
    ranks = np.empty_like(s)  # mean of positions first + 1 to last + 1, last = len - 1 - rev reversed
    np.put_along_axis(ranks, order, (first + len(at) + 1 - rev[..., ::-1]) / 2, axis=-1)
    return np.where(np.isnan(s[..., -1:]), np.nan, ranks)


def _harmonic_error(r: float, rho: float) -> str | None:
    """Why the harmonic score of r and rho is undefined, or None."""
    if not (math.isfinite(r) and math.isfinite(rho)):
        return f"r = {r:.6g} and rho = {rho:.6g} are not both finite: harmonic score undefined"
    if r < 0.0 < rho or rho < 0.0 < r:
        return f"r = {r:.6g} and rho = {rho:.6g} have opposite signs: harmonic score undefined"
    if r + rho == 0.0:
        return "r + rho is zero: harmonic score undefined"
    return None


@dataclass(frozen=True)
class RowCorrelations:
    """Pearson, Spearman and harmonic score of each row of a score matrix.

    ``errors[i]`` is why row i's statistics are undefined, its three values
    then being nan, or None: the message of the :class:`DegenerateDataError`
    that the one-row oracles ``pearson``, ``spearman`` and ``harmonic`` of
    ``tests/conftest.py`` raise on that row.
    """

    r: np.ndarray
    rho: np.ndarray
    h: np.ndarray
    errors: list[str | None]


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson's r of each finite C-contiguous row of ``x`` against ``y``,
    and the mask of rows with zero variance. A constant row has zero variance
    even where its float mean is not exactly its value (``[0.1] * 3``) and
    the deviations are a rounding residue, so it is caught by ``max == min``.
    The row-wise means and sums run over contiguous memory, in the order that
    the 1-d ones do, so each value is bit-identical to the one-row oracle
    ``pearson`` of ``tests/conftest.py`` on the row alone."""
    xd = x - x.mean(axis=1)[:, None]
    yd = y - y.mean()
    denom = np.sqrt(np.sum(xd * xd, axis=1)) * np.sqrt(np.sum(yd * yd))
    flat = (x.max(axis=1) == x.min(axis=1)) | (y.max() == y.min()) | (denom == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sum(xd * yd, axis=1) / denom, flat


def row_correlations(scores: np.ndarray, human) -> RowCorrelations:
    """Pearson, Spearman and harmonic score of every row of ``scores`` (one
    row per run, one column per pair) against ``human``, in one pass:
    row-wise statistics, :func:`average_ranks` over the whole matrix and the
    human ranks once. Each value and error equals what the one-row oracles
    ``pearson``, ``spearman`` and ``harmonic`` of ``tests/conftest.py`` give
    on the row alone: a row that is not finite or has zero variance gets
    that error, and every other row the verdict of :func:`_harmonic_error`."""
    x = np.ascontiguousarray(scores, dtype=float)
    y = np.asarray(human, dtype=float)
    if x.ndim != 2 or y.shape != x.shape[1:]:
        raise ValueError(f"expected a score matrix with one column per human score, "
                         f"got {x.shape} and {y.shape}")
    if x.shape[1] < 2:
        raise ValueError("need at least 2 observations")
    finite = np.isfinite(x).all(axis=1) & bool(np.isfinite(y).all())
    if not finite.all():  # zero rows that are reported as non-finite anyway
        x = np.where(finite[:, None], x, 0.0)
        y = np.where(np.isfinite(y), y, 0.0)
    r, flat = _pearson_rows(x, y)
    rho, flat_ranks = _pearson_rows(average_ranks(x), average_ranks(y))
    flagged = ~finite | flat | flat_ranks
    errors = [(_ZERO_VARIANCE if fin else _NON_FINITE) if flag else _harmonic_error(a, b)
              for flag, fin, a, b in zip(flagged.tolist(), finite.tolist(), r.tolist(), rho.tolist())]
    bad = np.array([e is not None for e in errors], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = 2.0 * r * rho / (r + rho)
    return RowCorrelations(*(np.where(bad, np.nan, v) for v in (r, rho, h)), errors)


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
    from scipy.special import stdtr  # here, so that only the t-tests load scipy
    return float(stdtr(n - 1, -t))  # the t distribution's survival function at t


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
    # one (points, n) buffer: -0.5 * z * z in place, as scaling by -0.5 is exact
    z = np.subtract.outer(grid, sample)
    z /= bandwidth
    np.square(z, out=z)
    z *= -0.5
    np.exp(z, out=z)
    density = z.sum(axis=1) / (len(sample) * bandwidth * np.sqrt(2.0 * np.pi))
    return grid, density


def error_analysis(scores, human) -> ErrorSample:
    """Similarity errors (method minus human) with a 512-point kernel density
    estimate, from one run's scores and its dataset's human scores, of equal
    length and at least 2 each.

    The bandwidth is Silverman's (1986) 0.9 * min(sd, IQR/1.34) * n^(-1/5)
    rule. Where that gives 0, ``bandwidth_fallback`` is set and the bandwidth
    is 0.9 * sd * n^(-1/5) when ties make the IQR 0, or 1e-3 when every error
    is equal.
    """
    if len(scores) != len(human):  # a length-1 side would broadcast
        raise ValueError(f"run has {len(scores)} scores, dataset {len(human)} pairs")
    if len(human) < 2:
        raise ValueError("need at least 2 pairs for error analysis")
    errors = np.asarray(scores, dtype=float) - np.asarray(human, dtype=float)
    abs_errors = np.abs(errors)
    bandwidth, fallback = _rule_of_thumb_bandwidth(errors)
    grid, density = gaussian_kde(errors, bandwidth)
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
