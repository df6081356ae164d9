"""Estimators and tail diagnostics: empirical spectral measures, the Hill
tail-index estimator with a bootstrap interval, exceedance functionals
under the n^(1/alpha) norming, and grid scans of normalized tails that
witness convergence, divergence or oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch import SampleBatch
from .errors import DegenerateTail, DimensionMismatch, EmptyInput, UnsupportedPair
from .measures import SpectralMeasure, distance_ks, distance_tv
from .rng import BOOTSTRAP_STREAM, substream
from .sphere import ArcSet, CapSet

BOOTSTRAP_RESAMPLES = 200
_TOP_FACTOR = 4  # the bootstrap's top M is _TOP_FACTOR * (k+1) norms


def _top_indices(norms: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest norms, largest first; ties are resolved by
    original sample order, exactly as argsort(-norms, kind="stable")[:k].

    A partition finds the k-th largest norm; every index above it and the
    earliest indices equal to it make up the top k, and only those k rows
    are sorted.
    """
    threshold = np.partition(norms, norms.size - k)[norms.size - k]
    above = np.flatnonzero(norms > threshold)
    tied = np.flatnonzero(norms == threshold)[:k - above.size]
    top = np.concatenate((above, tied))
    return top[np.lexsort((top, -norms[top]))]


def empirical_spectral(batch: SampleBatch, k_top: int) -> SpectralMeasure:
    """Uniform weights 1/k on the directions of the k largest norms."""
    if batch.size == 0:
        raise EmptyInput("cannot estimate a spectral measure from no points")
    if not 1 <= k_top <= batch.size:
        raise ValueError("k_top must lie in [1, batch size]")
    top = _top_indices(batch.norms, k_top)
    w = np.full(k_top, 1.0 / k_top)
    if batch.dim == 2:
        return SpectralMeasure.empirical(batch.angles()[top], w, total_mass=1.0)
    return SpectralMeasure("empirical", batch.dim, coords=batch.dirs[:, top],
                           weights=w, total_mass=1.0)


def _mean_log_spacing(top: np.ndarray, threshold: float, k: int,
                      counts=1) -> float:
    """(1/k) sum_j counts_j ln(top_j / threshold), the Hill mean log-ratio.

    counts_j copies of top_j make up the k order statistics above the
    threshold R_(k+1). Ratios, not differences of logs, keep the statistic
    exactly invariant under power-of-two scaling.
    """
    return float(np.sum(counts * np.log(top / threshold))) / k


def hill_estimator(batch_or_norms, k: int) -> float:
    """Inverse mean log-ratio of the top order statistics.

    alpha_hat = [ (1/k) sum_{i<=k} ln(R_(i) / R_(k+1)) ]^-1 with R_(1) >=
    R_(2) >= ... the descending order statistics of the norms. Ratios make
    the estimate scale-invariant.
    """
    norms = batch_or_norms.norms if isinstance(batch_or_norms, SampleBatch) \
        else np.asarray(batch_or_norms, dtype=float)
    n = norms.size
    if not 1 <= k < n:
        raise ValueError("k must satisfy 1 <= k < sample size")
    part = np.partition(norms, n - k - 1)
    threshold = part[n - k - 1]
    if threshold <= 0:
        raise DegenerateTail("threshold order statistic is not positive")
    mean_log = _mean_log_spacing(part[n - k:], threshold, k)
    if mean_log == 0.0:
        raise DegenerateTail("all top order statistics are equal")
    return 1.0 / mean_log


def qn_measure(batch: SampleBatch, model_alpha: float, r: float, sets) -> float:
    """n times the empirical frequency of {direction in sets, norm > r b_n},
    with b_n = n^(1/alpha)."""
    n = batch.size
    if n == 0:
        raise EmptyInput("empty batch")
    threshold = r * n ** (1.0 / model_alpha)
    if isinstance(sets, ArcSet):
        member = sets.contains(batch.angles())
    elif isinstance(sets, CapSet):
        member = sets.contains(batch.dirs)
    else:
        raise TypeError("sets must be an ArcSet or CapSet")
    return float(np.count_nonzero(member & (batch.norms > threshold)))


@dataclass
class TailScan:
    """Table of r^alpha * P{direction in B, norm > r} over a grid.

    mode records whether values come from closed-form tails or empirical
    frequencies. The boundedness verdict (max <= 10 * median) and the
    oscillation range over the upper half of the grid are diagnostic
    labels only; exact checks use the values themselves.
    """

    r_grid: np.ndarray
    sets: list
    values: np.ndarray  # (len(r_grid), len(sets))
    mode: str
    is_bounded: list[bool] = field(default_factory=list)
    oscillation_range: list[float] = field(default_factory=list)

    def __post_init__(self):
        if np.any(np.diff(self.r_grid) <= 0):
            raise ValueError("r grid must be strictly increasing")
        if np.any(self.values < 0):
            raise ValueError("scan values must be nonnegative")
        if not self.is_bounded:
            upper = self.r_grid >= np.median(self.r_grid)
            for j in range(self.values.shape[1]):
                col = self.values[:, j]
                med = float(np.median(col))
                self.is_bounded.append(bool(np.max(col) <= 10.0 * med) if med > 0
                                       else bool(np.max(col) == 0.0))
                upp = col[upper]
                self.oscillation_range.append(float(np.max(upp) - np.min(upp)))


def tail_scan(source, alpha: float, sets, r_grid) -> TailScan:
    """Scan r^alpha * P{direction in B, norm > r} over a grid of r.

    source is a model with exact tails (exact mode) or a SampleBatch of at
    least 10^3 points (empirical mode).
    """
    r_grid = np.asarray(r_grid, dtype=float)
    sets = list(sets)
    values = np.empty((r_grid.size, len(sets)))
    if isinstance(source, SampleBatch):
        if source.size < 1000:
            raise ValueError("empirical scans need at least 10^3 points")
        n = source.size
        for j, b in enumerate(sets):
            member = b.contains(source.angles()) if isinstance(b, ArcSet) \
                else b.contains(source.dirs)
            for i, r in enumerate(r_grid):
                count = np.count_nonzero(member & (source.norms > r))
                values[i, j] = r ** alpha * count / n
        mode = "empirical"
    else:
        for j, b in enumerate(sets):
            for i, r in enumerate(r_grid):
                t = source.exact_tail(float(r), b)
                if t is None:
                    raise ValueError("source has no exact tail; pass a batch")
                values[i, j] = r ** alpha * t
        mode = "exact"
    return TailScan(r_grid, sets, values, mode)


@dataclass
class EstimationReport:
    """Bundled tail-index and spectral estimates with target distances."""

    alpha_hat: float
    alpha_ci: tuple[float, float]
    k_used: int
    spectral_hat: SpectralMeasure
    distances: dict[str, float]

    def to_dict(self) -> dict:
        from .specs import measure_to_spec

        return {
            "alpha_hat": self.alpha_hat,
            "alpha_ci": [self.alpha_ci[0], self.alpha_ci[1]],
            "k_used": self.k_used,
            "spectral_hat": measure_to_spec(self.spectral_hat),
            "distances": dict(self.distances),
        }


def _bootstrap_hill(norms: np.ndarray, k: int, rng: np.random.Generator,
                    resamples: int) -> np.ndarray:
    """Hill statistics of `resamples` n-out-of-n resamples of the norms.

    Only the top k+1 order statistics of a resample enter the statistic, so
    each resample is drawn through the sorted top M = min(n, 4(k+1)) norms:
    C ~ Binomial(n, M/n) of the n draws land there, spread uniformly over
    the M positions. When C >= k+1 the resample's top k+1 lie among them.
    Otherwise the other n - C draws are taken from the norms below the top
    M as well. Both cases give the full resample's law exactly.
    """
    n = norms.size
    m = min(n, _TOP_FACTOR * (k + 1))
    part = np.partition(norms, n - m)
    below = part[:n - m]
    desc = np.sort(part[n - m:])[::-1]
    stats = np.empty(resamples)
    for b in range(resamples):
        hits = int(rng.binomial(n, m / n))
        counts = np.bincount(rng.integers(0, m, hits), minlength=m)
        if hits >= k + 1:
            j = int(np.searchsorted(np.cumsum(counts), k + 1))
            mean_log = _mean_log_spacing(desc[:j], desc[j], k, counts[:j])
        else:
            res = np.concatenate((np.repeat(desc, counts),
                                  below[rng.integers(0, n - m, n - hits)]))
            res = np.partition(res, n - k - 1)
            mean_log = _mean_log_spacing(res[n - k:], res[n - k - 1], k)
        stats[b] = np.inf if mean_log == 0.0 else 1.0 / mean_log
    return stats


def bootstrap_alpha_ci(norms: np.ndarray, k: int, seed: int,
                       resamples: int = BOOTSTRAP_RESAMPLES) -> tuple[float, float]:
    """Percentile bootstrap interval for the Hill estimate, seeded."""
    stats = _bootstrap_hill(norms, k, substream(seed, BOOTSTRAP_STREAM), resamples)
    # Degenerate resamples have infinite statistics. Interpolating toward one
    # computes inf - inf inside np.percentile; such an end is infinite. A
    # NaN statistic, by contrast, is left to make both ends NaN.
    with np.errstate(invalid="ignore"):
        ends = np.percentile(stats, [2.5, 97.5])
    if not np.isnan(stats).any():
        ends[np.isnan(ends)] = np.inf
    return float(ends[0]), float(ends[1])


def estimate(batch: SampleBatch, k_top: int,
             target: SpectralMeasure | None = None,
             seed: int = 0) -> EstimationReport:
    """Hill estimate with bootstrap interval, empirical spectral measure,
    and distances to a declared target when one is given."""
    if batch.size == 0:
        raise EmptyInput("empty batch")
    if not 1 <= k_top < batch.size:
        raise ValueError("k_top must satisfy 1 <= k_top < batch size")
    alpha_hat = hill_estimator(batch, k_top)
    ci = bootstrap_alpha_ci(batch.norms, k_top, seed)
    spectral_hat = empirical_spectral(batch, k_top)
    distances: dict[str, float] = {}
    if target is not None:
        try:
            distances["tv"] = distance_tv(spectral_hat, target)
        except UnsupportedPair:
            pass
        try:
            distances["ks"] = distance_ks(spectral_hat, target)
        except DimensionMismatch:
            pass
    return EstimationReport(alpha_hat, ci, k_top, spectral_hat, distances)
