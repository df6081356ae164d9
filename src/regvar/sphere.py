"""Geometry on the unit sphere: polar decomposition, angles, arcs and caps.

Directions are unit numpy vectors; angles are floats in the canonical
interval [0, 2*pi). Euclidean norms come from one function, norms_of, which
polar and SampleBatch.from_points share; it stays finite and positive for
nonzero points whose squares underflow or overflow. Evaluation sets are
finite unions of half-open arcs [a, b) on the circle (membership via
ArcSet.contains), or spherical caps for d >= 3. sorted_eval runs the
density quantile's angle table lookup over sorted queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, DimensionMismatch, InvalidParameter, NonFiniteInput

TWO_PI = 2.0 * np.pi

UNIT_NORM_TOL = 1e-12

# 2**-511, the square root of the smallest normal double
_SQRT_TINY = float(np.sqrt(np.finfo(float).tiny))


def wrap_angle(theta):
    """Reduce angles to [0, 2*pi); scalar or array.

    The result is np.mod(theta, 2*pi) bit for bit, with 2*pi sent to 0.
    On [-2*pi, 2*pi], which holds every arctan2 angle, np.mod adds 2*pi to
    the negative angles with one rounding and returns the others, -0 as
    +0; adding each angle to 2*pi or to +0 does the same without np.mod's
    float division. Other inputs, NaN included, go through np.mod.
    """
    t = np.asarray(theta, dtype=float)
    if t.size and t.min() >= -TWO_PI and t.max() <= TWO_PI:
        out = (t < 0.0) * TWO_PI
        out += t
    else:
        out = np.mod(t, TWO_PI)
    # -eps % 2pi can round up to exactly 2pi
    out = np.where(out >= TWO_PI, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def sorted_eval(fn, x):
    """fn(x) for an elementwise fn, evaluated on the sorted values of x and
    scattered back into x's order and shape.

    Its one caller is the density quantile (SpectralMeasure.quantile), whose
    np.interp over the CDF table searches from the previous query's answer,
    so sorted queries cost a fraction of random ones; each element's result
    does not depend on the order, so it is the same bits.
    """
    flat = np.ravel(x)
    order = np.argsort(flat)
    values = fn(flat[order])
    out = np.empty_like(values)
    out[order] = values
    return out.reshape(np.shape(x))


def unit_vector(v) -> np.ndarray:
    """Validate v as a direction: d >= 2 and unit Euclidean norm."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise DimensionMismatch("a direction needs d >= 2 coordinates")
    n = float(norms_of(v[:, None])[0])
    if abs(n - 1.0) > UNIT_NORM_TOL:
        raise InvalidParameter(f"not a unit vector: |norm - 1| = {abs(n - 1.0):.3e}")
    return v


def norms_of(points: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of a (d, n) array of finite points.

    Columns whose sum of squares is a normal finite double get exactly
    sqrt(sum(x*x)): the squares are added row by row, in the order
    np.sum(x * x, axis=0) adds them, without a (d, n) temporary. Only
    columns where that sum underflows below the smallest normal double or
    overflows are recomputed with max-abs scaling, so tiny and huge points
    get their true norm. Zero columns keep norm 0. A NaN or infinite
    coordinate, or a norm beyond the double range, raises NonFiniteInput.
    """
    x = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):
        norms = x[0] * x[0]
        for row in x[1:]:
            norms += row * row
    np.sqrt(norms, out=norms)
    # sqrt is monotone and exact at the smallest normal double, so a norm
    # below _SQRT_TINY, infinite or NaN marks a sum of squares that
    # underflowed or overflowed, or a coordinate that is not finite; two
    # reductions rule all of them out without building a mask
    if norms.size and not (norms.min() >= _SQRT_TINY and norms.max() < np.inf):
        if not np.all(np.isfinite(x)):
            raise NonFiniteInput("a coordinate is NaN or infinite")
        redo = (norms < _SQRT_TINY) | np.isinf(norms)
        cols = x[:, redo]
        scale = np.max(np.abs(cols), axis=0)
        unit = cols / np.where(scale > 0.0, scale, 1.0)
        with np.errstate(over="ignore"):
            norms[redo] = scale * np.sqrt(np.sum(unit * unit, axis=0))
        if np.any(np.isinf(norms)):
            raise NonFiniteInput("a norm exceeds the double range")
    return norms


def polar(point):
    """Split a nonzero point into (norm, direction).

    The zero vector has no direction and raises DegeneratePoint.
    """
    p = np.asarray(point, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise DimensionMismatch("a point needs d >= 2 coordinates")
    n = float(norms_of(p[:, None])[0])
    if n == 0.0:
        raise DegeneratePoint("cannot decompose the zero vector")
    return n, p / n


def angles_of(dirs: np.ndarray) -> np.ndarray:
    """Canonical angles of a (2, n) array of planar directions."""
    if dirs.shape[0] != 2:
        raise DimensionMismatch("only planar directions have an angle (d = 2)")
    return wrap_angle(np.arctan2(dirs[1], dirs[0]))


def directions_of(theta: np.ndarray) -> np.ndarray:
    """(2, n) array of planar unit vectors for an angle array."""
    t = np.asarray(theta, dtype=float)
    out = np.empty((2,) + t.shape)
    np.cos(t, out=out[0, ...])
    np.sin(t, out=out[1, ...])
    return out


@dataclass(frozen=True)
class ArcSet:
    """Finite union of pairwise disjoint half-open arcs [a, b) on [0, 2*pi].

    Membership is exact on boundaries: a is in, b is out. A set wrapping
    through 0 is modeled as two arcs, e.g. {[3*pi/2, 2*pi), [0, pi/4)}.
    """

    arcs: tuple[tuple[float, float], ...]

    def __init__(self, arcs):
        pairs = sorted((float(a), float(b)) for a, b in arcs)
        for a, b in pairs:
            if not (0.0 <= a < b <= TWO_PI):
                raise InvalidParameter(f"arc [{a}, {b}) outside [0, 2*pi] or empty")
        for (_, b0), (a1, _) in zip(pairs, pairs[1:]):
            if a1 < b0:
                raise InvalidParameter("arcs overlap")
        object.__setattr__(self, "arcs", tuple(pairs))

    @classmethod
    def full_circle(cls) -> "ArcSet":
        return cls([(0.0, TWO_PI)])

    def endpoints(self) -> np.ndarray:
        return np.array([e for arc in self.arcs for e in arc])

    def contains(self, theta):
        """Vectorized membership; scalar in, bool out."""
        t = np.asarray(theta, dtype=float)
        hit = np.zeros(t.shape, dtype=bool)
        for a, b in self.arcs:
            hit |= (t >= a) & (t < b)
        if np.ndim(theta) == 0:
            return bool(hit)
        return hit


@dataclass(frozen=True)
class CapSet:
    """Union of spherical caps {x : <x, center> >= threshold} for d >= 3."""

    centers: np.ndarray = field(repr=False)  # (d, m) unit columns
    thresholds: np.ndarray = field(repr=False)  # (m,) in [-1, 1]

    def __init__(self, caps):
        centers = []
        thresholds = []
        for center, thr in caps:
            c = unit_vector(center)
            thr = float(thr)
            if not -1.0 <= thr <= 1.0:
                raise InvalidParameter("cap threshold must lie in [-1, 1]")
            centers.append(c)
            thresholds.append(thr)
        if not centers:
            raise InvalidParameter("CapSet needs at least one cap")
        object.__setattr__(self, "centers", np.stack(centers, axis=1))
        object.__setattr__(self, "thresholds", np.asarray(thresholds))

    @property
    def dim(self) -> int:
        return self.centers.shape[0]

    def contains(self, dirs):
        """Membership for a direction vector or a (d, n) array of directions."""
        x = np.asarray(dirs, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.shape[0] != self.dim:
            raise DimensionMismatch("direction dimension does not match caps")
        dots = self.centers.T @ x  # (m, n)
        hit = np.any(dots >= self.thresholds[:, None], axis=0)
        return bool(hit[0]) if single else hit
