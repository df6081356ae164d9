"""Estimators and tail diagnostics: empirical spectral measures, the Hill
tail-index estimator with a bootstrap interval, exceedance counts, and grid
scans of normalized tails that witness convergence, divergence or
oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .batch import SampleBatch
from .errors import (
    DegenerateTail,
    DimensionMismatch,
    EmptyInput,
    InvalidParameter,
    UnsupportedPair,
    positive_finite,
)
from .measures import SpectralMeasure, distance_ks, distance_tv
from .rng import BOOTSTRAP_STREAM, CHUNK, substream
from .specs import measure_to_spec
from .sphere import ArcSet, angles_of

BOOTSTRAP_RESAMPLES = 200
_TOP_FACTOR = 4  # the bootstrap's top M is _TOP_FACTOR * (k+1) norms


def top_count(n: int, frac: float) -> int:
    """The number of largest norms a top fraction frac of n points keeps:
    frac * n rounded half to even, and at least 1."""
    return max(1, int(round(frac * n)))


def top_set(norms: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest norms in index order, 1 <= k <= norms.size:
    the first k of argsort(-norms, kind="stable"), sorted.

    A partition finds the k-th largest norm; every index above it and the
    earliest indices equal to it make up the set.
    """
    threshold = np.partition(norms, norms.size - k)[norms.size - k]
    keep = norms > threshold
    keep[np.flatnonzero(norms == threshold)[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def top_indices(norms: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest norms, largest first; ties are resolved by
    original sample order, exactly as argsort(-norms, kind="stable")[:k].
    Only the k indices of top_set are sorted."""
    top = top_set(norms, k)
    return top[np.argsort(-norms[top], kind="stable")]


def _uniform_on(dirs: np.ndarray) -> SpectralMeasure:
    """Weights 1/k on the k columns of a (d, k) array of directions."""
    k = dirs.shape[1]
    return SpectralMeasure("empirical", dirs.shape[0], coords=dirs,
                           weights=np.full(k, 1.0 / k), merge=True,
                           total_mass=1.0)


def empirical_spectral(batch: SampleBatch, k_top: int) -> SpectralMeasure:
    """Uniform weights 1/k on the directions of the k largest norms."""
    if batch.size == 0:
        raise EmptyInput("cannot estimate a spectral measure from no points")
    if not 1 <= k_top <= batch.size:
        raise InvalidParameter("k_top must lie in [1, batch size]")
    return _uniform_on(batch.dirs[:, top_indices(batch.norms, k_top)])


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
        raise InvalidParameter("k must satisfy 1 <= k < sample size")
    part = np.partition(norms, n - k - 1)
    threshold = part[n - k - 1]
    if threshold <= 0:
        raise DegenerateTail("threshold order statistic is not positive")
    mean_log = _mean_log_spacing(part[n - k:], threshold, k)
    if mean_log == 0.0:
        raise DegenerateTail("all top order statistics are equal")
    return 1.0 / mean_log


def exceedance_counts(batch: SampleBatch, sets: list,
                      radii: np.ndarray) -> np.ndarray:
    """(len(radii), len(sets)) int64 counts of the points with direction in
    sets[j] and norm > radii[i].

    The points are taken CHUNK at a time. A chunk's set memberships are
    found once (angles only when some set is an ArcSet); then each radius
    marks the chunk's norms above it in one chunk-sized buffer, and each
    set counts its members among them in another. No array is as large as
    radii times a chunk, so memory does not grow with the grid.
    """
    counts = np.zeros((radii.size, len(sets)), dtype=np.int64)
    arcs = any(isinstance(b, ArcSet) for b in sets)
    size = min(CHUNK, batch.size)
    above, both = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    for start in range(0, batch.size, CHUNK):
        norms = batch.norms[start:start + CHUNK]
        dirs = batch.dirs[:, start:start + CHUNK]
        theta = angles_of(dirs) if arcs else None
        members = [b.contains(theta if isinstance(b, ArcSet) else dirs) for b in sets]
        above_m, both_m = above[:norms.size], both[:norms.size]
        for i, r in enumerate(radii):
            np.greater(norms, r, out=above_m)
            for j, member in enumerate(members):
                counts[i, j] += np.count_nonzero(
                    np.logical_and(above_m, member, out=both_m))
    return counts


@dataclass
class TailScan:
    """Table of r^alpha * P{direction in B, norm > r} over a grid; mode
    records whether values are closed-form tails or empirical frequencies."""

    r_grid: np.ndarray
    sets: list
    values: np.ndarray  # (len(r_grid), len(sets))
    mode: str


def check_r_grid(r_grid) -> np.ndarray:
    """r_grid as floats; InvalidParameter unless positive, finite, increasing."""
    r_grid = np.asarray(r_grid, dtype=float)
    if not (np.all((r_grid > 0) & (r_grid < np.inf)) and np.all(np.diff(r_grid) > 0)):
        raise InvalidParameter("r_grid must be positive, finite and strictly increasing")
    return r_grid


def tail_scan(source, alpha: float, sets, r_grid) -> TailScan:
    """Scan r^alpha * P{direction in B, norm > r} over a grid of r.

    source is a model with exact tails (exact mode) or a SampleBatch of at
    least 10^3 points (empirical mode), whose exact counts are taken by
    blocks of CHUNK points. alpha and every radius must be positive and
    finite, and the grid strictly increasing.
    """
    positive_finite(alpha, "alpha")
    r_grid = check_r_grid(r_grid)
    sets = list(sets)
    values = np.empty((r_grid.size, len(sets)))
    if isinstance(source, SampleBatch):
        if source.size < 1000:
            raise InvalidParameter("empirical scans need at least 10^3 points")
        counts = exceedance_counts(source, sets, r_grid)
        for i, r in enumerate(r_grid):
            values[i] = r ** alpha * counts[i] / source.size
        mode = "empirical"
    else:
        for j, b in enumerate(sets):
            for i, r in enumerate(r_grid):
                t = source.exact_tail(float(r), b)
                if t is None:
                    raise UnsupportedPair("source has no exact tail; pass a batch")
                values[i, j] = r ** alpha * t
        mode = "exact"
    return TailScan(r_grid, sets, values, mode)


@dataclass(frozen=True)
class EstimationReport:
    """Bundled tail-index and spectral estimates with target distances.

    alpha_ci, the bootstrap interval of the Hill estimate, is drawn from
    the sample's n norms and the seed on its first read (to_dict reads
    it) and kept; a report that is never asked for it draws no bootstrap.
    So a report holds its n norms, 8n bytes, until it is dropped, and a
    bootstrap with no finite resample raises DegenerateTail on that read.
    """

    alpha_hat: float
    k_used: int
    spectral_hat: SpectralMeasure
    distances: dict[str, float]
    norms: np.ndarray = field(repr=False, compare=False)
    seed: int = field(repr=False, compare=False)

    @cached_property
    def alpha_ci(self) -> tuple[float, float]:
        return bootstrap_alpha_ci(self.norms, self.k_used, self.seed)

    def to_dict(self) -> dict:
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
    """Percentile bootstrap interval for the Hill estimate, seeded.

    A resample whose top k+1 norms are copies of one value has no finite
    statistic; the percentiles are taken over the finite statistics, and
    DegenerateTail is raised when there are none.
    """
    stats = _bootstrap_hill(norms, k, substream(seed, BOOTSTRAP_STREAM), resamples)
    stats = stats[np.isfinite(stats)]
    if stats.size == 0:
        raise DegenerateTail("every bootstrap resample has equal top order "
                             "statistics")
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return float(lo), float(hi)


def check_top(n: int, k_top: int) -> None:
    """Refuse what estimate refuses: no points, or k_top outside [1, n)."""
    if n == 0:
        raise EmptyInput("empty batch")
    if not 1 <= k_top < n:
        raise InvalidParameter("k_top must satisfy 1 <= k_top < batch size")


def estimate_from_top(norms: np.ndarray, top_dirs: np.ndarray,
                      target: SpectralMeasure | None = None,
                      seed: int = 0) -> EstimationReport:
    """estimate() from the norms of all n points and the (d, k) directions
    of the k largest, in the order of top_indices(norms, k), for k passing
    check_top: a caller that holds no whole batch computes only these.

    The report keeps norms, 8n bytes, until it is dropped, and draws its
    alpha_ci from them on first read, where a degenerate bootstrap raises
    DegenerateTail; norms must not change before then."""
    k_top = top_dirs.shape[1]
    alpha_hat = hill_estimator(norms, k_top)
    spectral_hat = _uniform_on(top_dirs)
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
    return EstimationReport(alpha_hat, k_top, spectral_hat, distances, norms, seed)


def estimate(batch: SampleBatch, k_top: int,
             target: SpectralMeasure | None = None,
             seed: int = 0) -> EstimationReport:
    """Hill estimate, empirical spectral measure, and distances to a
    declared target when one is given. The bootstrap interval alpha_ci is
    drawn on its first read, from the batch's norms, which the report
    keeps (8n bytes) until it is dropped; a degenerate bootstrap raises
    DegenerateTail on that read, not here."""
    check_top(batch.size, k_top)
    top = top_indices(batch.norms, k_top)
    return estimate_from_top(batch.norms, batch.dirs[:, top], target, seed)
