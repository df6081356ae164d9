"""Ordered batches of sample points with cached polar decomposition."""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePoint, InvalidParameter, NonFiniteInput
from .sphere import norms_of


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of a that refuses writes; a itself stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def check_norms(norms: np.ndarray) -> np.ndarray:
    """norms, once every one is positive and finite: DegeneratePoint for a
    norm that is not positive, NonFiniteInput for a NaN or infinite one,
    as an overflowed draw gives."""
    if norms.size:
        lo, hi = norms.min(), norms.max()  # a NaN propagates to both
        if lo <= 0.0:
            raise DegeneratePoint("norms must be positive")
        if not (lo > 0.0 and hi < np.inf):
            raise NonFiniteInput("a norm is NaN or infinite")
    return norms


class SampleBatch:
    """Ordered collection of nonzero points in R^d.

    Points are stored as a (d, n) float64 array (one contiguous row per
    coordinate). The polar cache (norms, dirs) is exact for batches built
    from native polar data; from_points recomputes it canonically, which is
    also what happens when a batch round-trips through CSV. zero_count
    records points collapsed to the origin by transforms and removed.

    points, norms and dirs are read-only views, so batches share arrays
    instead of copying them: canonical() shares points, a sphere map shares
    norms, and a gain that removes no point shares dirs. Writing into any
    of them raises ValueError.
    """

    def __init__(self, points: np.ndarray, norms: np.ndarray, dirs: np.ndarray,
                 zero_count: int = 0):
        self.points = _read_only(np.ascontiguousarray(points, dtype=float))
        self.norms = _read_only(np.asarray(norms, dtype=float))
        self.dirs = _read_only(np.asarray(dirs, dtype=float))
        self.zero_count = int(zero_count)
        if self.points.ndim != 2:
            raise InvalidParameter("points must be a (d, n) array")
        if self.zero_count < 0:
            raise InvalidParameter("zero_count must be nonnegative")

    @classmethod
    def from_points(cls, points: np.ndarray,
                    zero_count: int = 0) -> "SampleBatch":
        """Build a batch from raw coordinates, recomputing the polar cache."""
        points = np.ascontiguousarray(points, dtype=float)
        norms = norms_of(points)
        if np.any(norms == 0.0):
            raise DegeneratePoint("batch contains the zero vector")
        return cls(points, norms, points / norms, zero_count=zero_count)

    @classmethod
    def from_polar(cls, norms: np.ndarray, dirs: np.ndarray,
                   zero_count: int = 0) -> "SampleBatch":
        """Build a batch from native (norm, direction) data, whose norms
        pass check_norms."""
        norms = check_norms(np.asarray(norms, dtype=float))
        dirs = np.asarray(dirs, dtype=float)
        return cls(dirs * norms, norms, dirs, zero_count=zero_count)

    @property
    def dim(self) -> int:
        return self.points.shape[0]

    @property
    def size(self) -> int:
        return self.points.shape[1]

    def canonical(self) -> "SampleBatch":
        """Batch rebuilt from coordinates alone.

        This is the same normal form a batch takes after a lossless CSV
        round-trip, so pipelines that canonicalize at stage boundaries give
        bit-identical results in memory and through files.
        """
        return SampleBatch.from_points(self.points, zero_count=self.zero_count)

    def __repr__(self):
        return (f"SampleBatch(d={self.dim}, n={self.size}, "
                f"zero_count={self.zero_count})")
