"""Ordered batches of sample points in polar form, with the points stored
only where they are the batch's source."""

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
    """Ordered collection of nonzero points in R^d, in polar form.

    Every batch stores its norms (n,) and directions (d, n), one contiguous
    row per coordinate. What else it stores follows from how it was built:

    * from_polar stores norms and dirs alone, 3n floats in d = 2 where the
      points would add 2n more. points is computed on each read as
      dirs * norms, a fresh C-contiguous array;
    * from_points stores the points it was given, which are its source, and
      the polar form recomputed from them canonically. This is also what a
      batch becomes after a round-trip through CSV.

    A caller that reads points more than once reads it once into a name.
    zero_count records points collapsed to the origin by transforms and
    removed.

    points, norms and dirs are read-only, so batches share arrays instead
    of copying them: a sphere map shares norms, and a gain that removes no
    point shares dirs. Writing into any of them raises ValueError. The
    constructor refuses with InvalidParameter arrays whose shapes disagree.
    """

    def __init__(self, points: np.ndarray | None, norms: np.ndarray,
                 dirs: np.ndarray, zero_count: int = 0):
        self._points = None if points is None else \
            _read_only(np.ascontiguousarray(points, dtype=float))
        self.norms = _read_only(np.asarray(norms, dtype=float))
        self.dirs = _read_only(np.asarray(dirs, dtype=float))
        self.zero_count = int(zero_count)
        if self.dirs.ndim != 2 or self.norms.shape != self.dirs.shape[1:]:
            raise InvalidParameter(
                f"need (n,) norms and (d, n) dirs, got shapes "
                f"{self.norms.shape} and {self.dirs.shape}")
        if self._points is not None and self._points.shape != self.dirs.shape:
            raise InvalidParameter(
                f"points of shape {self._points.shape} do not match dirs "
                f"of shape {self.dirs.shape}")
        if self.zero_count < 0:
            raise InvalidParameter("zero_count must be nonnegative")

    @classmethod
    def from_points(cls, points: np.ndarray,
                    zero_count: int = 0) -> "SampleBatch":
        """Build a batch from raw coordinates, recomputing the polar cache."""
        points = np.ascontiguousarray(points, dtype=float)
        if points.ndim != 2:
            raise InvalidParameter("points must be a (d, n) array")
        norms = norms_of(points)
        if np.any(norms == 0.0):
            raise DegeneratePoint("batch contains the zero vector")
        return cls(points, norms, points / norms, zero_count=zero_count)

    @classmethod
    def from_polar(cls, norms: np.ndarray, dirs: np.ndarray,
                   zero_count: int = 0) -> "SampleBatch":
        """Build a batch from native (norm, direction) data, whose norms
        pass check_norms; its points are computed on read."""
        norms = check_norms(np.asarray(norms, dtype=float))
        return cls(None, norms, dirs, zero_count=zero_count)

    @property
    def points(self) -> np.ndarray:
        """The (d, n) points, read-only and C-contiguous: the stored array,
        or dirs * norms computed afresh."""
        if self._points is not None:
            return self._points
        points = np.ascontiguousarray(self.dirs * self.norms)
        points.flags.writeable = False
        return points

    @property
    def holds_points(self) -> bool:
        """Whether points are stored (from_points) rather than computed."""
        return self._points is not None

    @property
    def dim(self) -> int:
        return self.dirs.shape[0]

    @property
    def size(self) -> int:
        return self.dirs.shape[1]

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
