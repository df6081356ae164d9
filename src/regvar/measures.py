"""Finite measures on the unit sphere and their transformation calculus.

A spectral measure is either discrete (weighted atoms), an angular density
on the circle, or empirical (atoms estimated from data). The two measure
transformations are the pushforward under a sphere map, sigma f^{-1}, and
the reweighting by a radial gain, d(mu)/d(sigma) = h^alpha. For d = 2 the
module also provides the CDF/quantile calculus on [0, 2*pi) that turns a
uniform direction law into an arbitrary prescribed one, and total-variation
and Kolmogorov distances used by the diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyMeasure,
    InvalidConstruction,
    InvalidGain,
    InvalidParameter,
    MomentDivergence,
    NonFiniteInput,
    UnsupportedPair,
    positive_finite,
)
from .quadrature import integrate
from .sphere import (
    TWO_PI,
    UNIT_NORM_TOL,
    ArcSet,
    CapSet,
    angles_of,
    directions_of,
    norms_of,
    sorted_eval,
    wrap_angle,
)

ATOM_MERGE_TOL = 1e-12
TV_MATCH_TOL = 1e-6
KS_GRID = 1 << 14
DENSITY_CDF_CELLS = 1 << 16
# cells integrated at a time: 128 KB per array of their 4 nodes each
DENSITY_CDF_BLOCK_CELLS = 1 << 12
PUSHFORWARD_BINS = 1 << 16
# rows of Monte Carlo gain draws summed at a time (1 MB per row block at 16 probes)
MC_CHUNK_ROWS = 8192

# 4-point Gauss-Legendre rule on [-1, 1]
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626,
                  0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745385, 0.6521451548625461,
                  0.6521451548625461, 0.34785484513745385])


def arc_integral(fn, arcs, singular_points) -> float:
    """Integral of fn over a union of arcs [(a, b), ...], each arc cut at
    the singular points {angle: order} inside it (see integrate)."""
    return float(sum(integrate(fn, a, b, singular_points)[0] for a, b in arcs))


def merge_atoms(at: np.ndarray, weights: np.ndarray, tol: float):
    """Merge atoms that lie within tol; at holds angles (m,) or unit
    columns (d, m). Sorted angles merge in runs of steps at most tol, and
    across the 0/2*pi seam, at each run's smallest angle. Columns merge by
    cell of a grid of pitch tol, at each cell's first member, in order of
    first appearance; two columns within tol can straddle a cell edge and
    stay apart. An atom that merges with none keeps its weight bit for bit.
    """
    if at.ndim == 2:
        _, first, cell = np.unique(np.round(at / tol), axis=1,
                                   return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        return at[:, first[order]], np.bincount(rank[cell], weights=weights,
                                                minlength=order.size)
    order = np.argsort(at, kind="stable")
    a = at[order]
    w = weights[order]
    if a.size == 0:
        return a, w
    breaks = np.flatnonzero(np.diff(a) > tol)
    starts = np.concatenate(([0], breaks + 1))
    merged_a = a[starts]
    merged_w = np.add.reduceat(w, starts)
    if merged_a.size > 1 and (merged_a[0] + TWO_PI) - a[-1] <= tol:
        merged_w[0] += merged_w[-1]
        merged_a = merged_a[:-1]
        merged_w = merged_w[:-1]
    return merged_a, merged_w


class SpectralMeasure:
    """Finite measure on S^{d-1}.

    kind is "discrete", "empirical" (same shape, flagged as estimated) or
    "density" (d = 2 only, density with respect to the angle coordinate).
    Atoms come as angles (d = 2) or unit columns coords (d, m); atoms
    within 1e-12 are rejected, or merged when merge is set. atoms holds
    them as sorted angles when d = 2 (coords derived) and as columns
    otherwise. total_mass is cached; weights are strictly positive. A
    density's singular_points map angles c to orders s: near c the density
    behaves like |t - c|^-s, and s = 0 marks a jump.
    """

    def __init__(self, kind, dim, angles=None, weights=None, coords=None,
                 density_fn=None, density_spec=None, singular_points=None,
                 total_mass=None, merge=False):
        self.kind = kind
        self.dim = int(dim)
        if self.dim < 2:
            raise DimensionMismatch("measures live on S^{d-1} with d >= 2")
        self.density_fn = density_fn
        self.density_spec = density_spec
        self.singular_points = dict(singular_points or {})
        self._cdf_cache = None
        self._normalized = None
        self._arc_masses = {}
        self.atoms = self.angles = self.weights = self.coords = None
        if kind in ("discrete", "empirical"):
            weights = np.asarray(weights, dtype=float)
            if self.dim == 2 and coords is None:
                angles = np.asarray(angles, dtype=float)
                if not np.all(np.isfinite(angles)):
                    raise InvalidParameter("atom angles must be finite")
                at = wrap_angle(angles)
                if at.shape != weights.shape or at.ndim != 1:
                    raise InvalidParameter("angles and weights must be 1-d, same length")
            else:
                coords = np.asarray(coords, dtype=float)
                if coords.shape != (self.dim, weights.size):
                    raise InvalidParameter("coords must be (d, m) matching weights")
                if not np.all(np.isfinite(coords)):
                    raise InvalidParameter("atom coordinates must be finite")
                if np.any(np.abs(norms_of(coords) - 1.0) > UNIT_NORM_TOL):
                    raise InvalidParameter("atom coordinates must be unit vectors")
                at = angles_of(coords) if self.dim == 2 else coords
            if weights.size == 0:
                raise EmptyMeasure("measure has no atoms")
            if not (weights.min() > 0 and float(weights.max()) * weights.size < math.inf):
                raise InvalidParameter("weights must be positive, with a finite sum")
            self.atoms, self.weights = merge_atoms(at, weights, ATOM_MERGE_TOL)
            if not merge and self.weights.size < weights.size:
                raise InvalidParameter("atoms closer than the merge tolerance; "
                                       "pass merge=True to combine them")
            if at.ndim == 1:
                self.angles, self.coords = self.atoms, directions_of(self.atoms)
            else:
                self.coords = self.atoms
            self.total_mass = float(total_mass) if total_mass is not None \
                else float(math.fsum(self.weights.tolist()))
        elif kind == "density":
            if self.dim != 2:
                raise DimensionMismatch("a density is in the angle, so d = 2 only")
            if density_fn is None:
                raise InvalidConstruction("density measure needs a density function")
            self.total_mass = float(total_mass) if total_mass is not None \
                else arc_integral(density_fn, [(0.0, TWO_PI)], self.singular_points)
        else:
            raise InvalidParameter(f"unknown measure kind {kind!r}")
        if not np.isfinite(self.total_mass) or self.total_mass < 0:
            raise EmptyMeasure("total mass must be finite and nonnegative")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def discrete(cls, at, weights, merge=False):
        """Atoms at angles, shape (m,) in d = 2, or at unit columns (d, m)."""
        at = np.asarray(at, dtype=float)
        if at.ndim == 2:
            return cls("discrete", at.shape[0], coords=at, weights=weights,
                       merge=merge)
        return cls("discrete", 2, angles=at, weights=weights, merge=merge)

    @classmethod
    def density(cls, density_fn, spec=None, singular_points=None, total_mass=None):
        return cls("density", 2, density_fn=density_fn, density_spec=spec,
                   singular_points=singular_points, total_mass=total_mass)

    @classmethod
    def uniform(cls):
        c = 1.0 / TWO_PI
        return cls.density(lambda t: np.full_like(np.asarray(t, dtype=float), c),
                           spec={"name": "uniform"}, total_mass=1.0)

    @classmethod
    def cosine_bump(cls, amplitude: float):
        a = float(amplitude)
        if not -1.0 <= a <= 1.0:
            raise InvalidParameter("cosine_bump amplitude must lie in [-1, 1]")
        return cls.density(lambda t: (1.0 + a * np.cos(t)) / TWO_PI,
                           spec={"name": "cosine_bump", "amplitude": a},
                           total_mass=1.0)

    # ------------------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind in ("discrete", "empirical")

    @property
    def n_atoms(self) -> int:
        return 0 if self.weights is None else int(self.weights.size)

    def normalized(self) -> "SpectralMeasure":
        """Same shape scaled to total mass one."""
        if self.total_mass <= 0:
            raise EmptyMeasure("cannot normalize a zero-mass measure")
        return self.scaled(1.0 / self.total_mass)

    def scaled(self, factor: float) -> "SpectralMeasure":
        f = positive_finite(factor, "scale factor")
        if self.is_discrete:
            return self._with_atoms(self.atoms, self.weights * f,
                                    total_mass=self.total_mass * f)
        fn = self.density_fn
        return SpectralMeasure.density(lambda t, _fn=fn: _fn(t) * f,
                                       singular_points=self.singular_points,
                                       total_mass=self.total_mass * f)

    def _with_atoms(self, at, weights, **kwargs) -> "SpectralMeasure":
        """A measure of this kind and dimension on the atoms at, given in
        the form of self.atoms."""
        place = {"angles": at} if at.ndim == 1 else {"coords": at}
        return SpectralMeasure(self.kind, self.dim, weights=weights,
                               **place, **kwargs)

    # ------------------------------------------------------------------
    # evaluation

    def atoms_in(self, sets) -> np.ndarray:
        """Membership mask of the atoms in an ArcSet (d = 2) or a CapSet."""
        if isinstance(sets, ArcSet):
            if self.dim != 2:
                raise DimensionMismatch("arcs are sets of angles, so d = 2 only")
            return sets.contains(self.angles)
        if isinstance(sets, CapSet):
            return sets.contains(self.coords)
        raise UnsupportedPair("sets must be an ArcSet or a CapSet")

    def mass_on(self, sets) -> float:
        """Measure of an ArcSet (d = 2) or CapSet (d >= 3); a density
        remembers the mass of each ArcSet it has integrated."""
        if self.is_discrete:
            return float(np.sum(self.weights[self.atoms_in(sets)]))
        if not isinstance(sets, ArcSet):
            raise UnsupportedPair("a density is evaluated on an ArcSet alone")
        if sets not in self._arc_masses:
            self._arc_masses[sets] = arc_integral(self.density_fn, sets.arcs,
                                                  self.singular_points)
        return self._arc_masses[sets]

    def boundary_mass(self, arcset: ArcSet) -> float:
        """Atom mass sitting on arc endpoints, within ATOM_MERGE_TOL."""
        if self.dim != 2:
            raise DimensionMismatch("boundary_mass is on arc ends, so d = 2 only")
        if not self.is_discrete:
            return 0.0
        ends = arcset.endpoints()
        diff = np.abs(self.angles[:, None] - ends[None, :])
        circ = np.minimum(diff, TWO_PI - diff)
        on_boundary = np.any(circ <= ATOM_MERGE_TOL, axis=1)
        return float(np.sum(self.weights[on_boundary]))

    def _density_cdf_table(self):
        if self._cdf_cache is None:
            grid = np.linspace(0.0, TWO_PI, DENSITY_CDF_CELLS + 1)
            half = 0.5 * (grid[1] - grid[0])
            # each cell's rule sums its own nodes alone, so the cells are
            # integrated in blocks, with the bits of a one-shot build
            cell = np.empty(DENSITY_CDF_CELLS)
            for first in range(0, DENSITY_CDF_CELLS, DENSITY_CDF_BLOCK_CELLS):
                edges = grid[first:first + DENSITY_CDF_BLOCK_CELLS + 1]
                mid = 0.5 * (edges[1:] + edges[:-1])
                nodes = mid[None, :] + half * _GL_X[:, None]
                cell[first:first + mid.size] = half * np.sum(
                    _GL_W[:, None] * self.density_fn(nodes), axis=0)
            # the cells that end at a singular point, or hold it together
            # with their two neighbours, are integrated with its order; cell
            # -1, the last, ends at 2 pi, which is 0. A set, as numpy 2.4's
            # np.unique imports numpy.ma (+1.4 MB RSS)
            at = wrap_angle(list(self.singular_points))
            lo, hi = (np.searchsorted(grid, at, side) - 1 for side in ("left", "right"))
            cells = np.concatenate([lo, hi, lo[lo == hi] - 1, hi[lo == hi] + 1])
            for i in set((cells % cell.size).tolist()):
                cell[i] = integrate(self.density_fn, grid[i], grid[i + 1],
                                    self.singular_points)[0]
            cum = np.empty(cell.size + 1)
            cum[0] = 0.0
            np.cumsum(cell, out=cum[1:])
            if cum[-1] > 0:
                cum *= self.total_mass / cum[-1]
            self._cdf_cache = (grid, cum)
        return self._cdf_cache

    def cdf(self, theta):
        """F(theta) = mass of [0, theta]; right-continuous, in [0, total]."""
        if self.dim != 2:
            raise DimensionMismatch("cdf is of the angle, so d = 2 only")
        t = np.asarray(theta, dtype=float)
        if self.is_discrete:
            cum = np.cumsum(self.weights)
            idx = np.searchsorted(self.angles, t, side="right")
            out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
        else:
            grid, cum = self._density_cdf_table()
            out = np.interp(t, grid, cum)
        if np.ndim(theta) == 0:
            return float(out)
        return out

    def quantile(self, u):
        """Generalized inverse of the CDF for a normalized measure.

        For u > 0 this is inf{x : F(x) >= u}; u = 0 returns the infimum of
        the support, so that atoms at 0 behave like every other atom.
        """
        if self.dim != 2:
            raise DimensionMismatch("quantile inverts the angle cdf, so d = 2 only")
        if abs(self.total_mass - 1.0) > 1e-6:
            raise InvalidParameter("quantile requires a normalized measure")
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr < 0) | (u_arr >= 1)):
            raise InvalidParameter("quantile levels must lie in [0, 1)")
        if self.is_discrete:
            cum = np.cumsum(self.weights)
            idx = np.searchsorted(cum, u_arr, side="left")
            idx = np.minimum(idx, self.angles.size - 1)
            out = self.angles[idx]
        else:
            grid, cum = self._density_cdf_table()
            levels = cum / cum[-1]
            out = sorted_eval(lambda v: np.interp(v, levels, grid), u_arr)
        if np.ndim(u) == 0:
            return float(out)
        return out

    # ------------------------------------------------------------------
    # sampling

    def sample_atoms(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. atom indices of a discrete measure, drawn with the
        normalized weights: columns of coords."""
        return rng.choice(self.weights.size, size=n, p=self.weights / self.total_mass)

    def sample_directions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(d, n) i.i.d. directions from the normalized measure."""
        if self.is_discrete:
            # np.take keeps the (d, n) result C-ordered; coords[:, idx] would
            # be F-ordered, and so would the batch's dirs
            return np.take(self.coords, self.sample_atoms(rng, n), axis=1)
        if self.density_spec and self.density_spec.get("name") == "uniform":
            return directions_of(TWO_PI * rng.random(n))
        # The normalized measure, and with it its CDF table, is built once.
        # Sampling threads may race to build it; each builds the same table
        # and the assignment is atomic, so every draw sees identical values.
        if self._normalized is None:
            self._normalized = self.normalized()
        return directions_of(self._normalized.quantile(rng.random(n)))

    def __repr__(self):
        if self.is_discrete:
            return (f"SpectralMeasure({self.kind}, d={self.dim}, "
                    f"atoms={self.n_atoms}, mass={self.total_mass:.6g})")
        return f"SpectralMeasure(density, mass={self.total_mass:.6g})"


# ----------------------------------------------------------------------
# maps and gains


@dataclass(frozen=True)
class StepAngles:
    """Piecewise-constant function of the angle: [breaks[i], breaks[i+1])
    -> values[i]. Values are stored as given; a sphere map wraps them."""

    breaks: np.ndarray
    values: np.ndarray

    def __init__(self, breaks, values):
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or breaks.size == 0 or breaks.shape != values.shape:
            raise InvalidParameter("breaks and values must be 1-d, nonempty and "
                                   "of equal length")
        if not (breaks[0] == 0.0 and np.all(np.diff(breaks) > 0)
                and breaks[-1] < TWO_PI):
            raise InvalidParameter("breaks must start at 0 and increase within [0, 2*pi)")
        if not np.all(np.isfinite(values)):
            raise InvalidParameter("step values must be finite")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def apply(self, theta):
        idx = np.searchsorted(self.breaks, theta, side="right") - 1
        return self.values[idx]

    def pieces(self):
        """(start, stop, value) triples covering [0, 2*pi)."""
        stops = np.append(self.breaks[1:], TWO_PI)
        return zip(self.breaks, stops, self.values)


class _SphereFunction:
    """What a sphere map and a radial gain share: an action on planar
    angles, on (d, n) coordinate columns, or both, and the one dispatch
    between them. Planar input takes the angle action when there is one,
    so d = 2 results come from the exact angles."""

    def __init__(self, angle_fn, coords_fn):
        if angle_fn is None and coords_fn is None:
            raise InvalidConstruction(f"{type(self).__name__} has no action")
        self.angle_fn = angle_fn
        self.coords_fn = coords_fn

    def _on_angles(self, theta):
        if self.angle_fn is None:
            raise DimensionMismatch(f"{type(self).__name__} has no planar angle action")
        vals = self.angle_fn(np.asarray(theta, dtype=float))
        return self._finish(np.asarray(vals, dtype=float), planar=True)

    def _on_dirs(self, dirs: np.ndarray):
        if dirs.shape[0] == 2 and self.angle_fn is not None:
            return self._planar_dirs(self._on_angles(angles_of(dirs)))
        if self.coords_fn is None:
            raise DimensionMismatch(f"{type(self).__name__} has no coordinate action")
        return self._finish(np.asarray(self.coords_fn(dirs), dtype=float),
                            planar=False)

    # the result at planar directions, from the result at their angles
    _planar_dirs = staticmethod(np.asarray)

    def on_atoms(self, sigma: "SpectralMeasure"):
        """The action at the atoms of a discrete measure, in the form of
        sigma.atoms: on the angles when d = 2, on the columns otherwise."""
        if sigma.dim == 2:
            return self._on_angles(sigma.atoms)
        return self._on_dirs(sigma.atoms)


class SphereMap(_SphereFunction):
    """Map of the sphere into itself, applied to directions.

    For d = 2 the map acts on canonical angles; a StepAngles representation,
    when present, makes pushforwards of density measures exact. apply_dirs
    maps a (d, n) array of unit vectors and re-normalizes the output.
    """

    def __init__(self, angle_fn=None, coords_fn=None, steps: StepAngles | None = None):
        # the directions of a step map's wrapped values, one column a piece
        self._step_dirs = None
        if angle_fn is None and steps is not None:
            angle_fn = steps.apply
            self._step_dirs = directions_of(self._finish(steps.values, planar=True))
        super().__init__(angle_fn, coords_fn)
        self.steps = steps

    apply_angles = _SphereFunction._on_angles
    _planar_dirs = staticmethod(directions_of)

    def apply_dirs(self, dirs: np.ndarray):
        """The images of a (d, n) array of unit vectors.

        A planar step map looks each direction's piece up in its table of
        piece directions, with the bits directions_of gives at the mapped
        angle: one cos and sin per piece, not per point. np.take keeps the
        result C-ordered, as directions_of's is.
        """
        if self._step_dirs is None or dirs.shape[0] != 2:
            return self._on_dirs(dirs)
        idx = np.searchsorted(self.steps.breaks, angles_of(dirs), "right")
        idx -= 1
        return np.take(self._step_dirs, idx, axis=1)

    @staticmethod
    def _finish(out, planar):
        if planar:
            if not np.all(np.isfinite(out)):
                raise NonFiniteInput("map output angle is NaN or infinite")
            return wrap_angle(out)
        # norms_of raises NonFiniteInput on a NaN or infinite coordinate
        norms = norms_of(out)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise InvalidParameter("map output is not a unit vector")
        return out / norms


def identity_map() -> SphereMap:
    return SphereMap(angle_fn=lambda t: t, coords_fn=lambda x: x)


def constant_map(theta0: float) -> SphereMap:
    return SphereMap(steps=StepAngles([0.0], [theta0]))


def quadrant_snap_map() -> SphereMap:
    """Snap each planar direction to the center of its quadrant; the map
    jumps on the coordinate axes."""
    q = np.pi / 2.0
    return SphereMap(
        steps=StepAngles([0.0, q, 2 * q, 3 * q], [q / 2, 3 * q / 2, 5 * q / 2, 7 * q / 2]))


def step_map(breaks, values) -> SphereMap:
    return SphereMap(steps=StepAngles(breaks, values))


class RadialGain(_SphereFunction):
    """Nonnegative direction-dependent factor applied to norms.

    declared_bound, when present, asserts a finite supremum; evaluation
    enforces nonnegativity and the declared bound on every probe.
    singular_points map the angles c where the gain jumps or blows up to
    orders s: near c the gain behaves like |t - c|^-s, and s = 0 marks a
    jump. Quadrature cuts at them and integrates each with its order.
    """

    def __init__(self, angle_fn=None, coords_fn=None, declared_bound=None,
                 singular_points=None):
        super().__init__(angle_fn, coords_fn)
        self.declared_bound = None if declared_bound is None else float(declared_bound)
        self.singular_points = dict(singular_points or {})

    at_angles = _SphereFunction._on_angles
    at_dirs = _SphereFunction._on_dirs

    def product_orders(self, sigma: SpectralMeasure, p: float) -> dict:
        """Singular points of sigma's density times this gain to the power p:
        p multiplies the gain's orders, and orders at one angle add. An order
        of 1 or more is not integrable and raises MomentDivergence."""
        orders = dict(sigma.singular_points)
        for angle, s in self.singular_points.items():
            orders[angle] = orders.get(angle, 0.0) + p * s
        for angle, s in orders.items():
            if s >= 1.0:
                raise MomentDivergence(
                    f"density times gain^{p:g} is not integrable: it grows like "
                    f"|t - c|^-{s:g} at c = {angle!r}, and an order >= 1 diverges")
        return orders

    def _finish(self, vals: np.ndarray, planar) -> np.ndarray:
        if np.any(np.isnan(vals)) or np.any(vals < 0):
            raise InvalidGain("gain evaluated negative or NaN")
        if self.declared_bound is not None and np.any(vals > self.declared_bound * (1 + 1e-12)):
            raise InvalidGain("gain exceeds its declared bound")
        return vals


def constant_gain(value: float) -> RadialGain:
    v = float(value)
    if not v >= 0:
        raise InvalidGain("constant gain value must be nonnegative")
    return RadialGain(angle_fn=lambda t: np.full_like(np.asarray(t, float), v),
                      declared_bound=v)


def step_gain(breaks, values) -> RadialGain:
    """Piecewise-constant gain, bounded by its largest value."""
    steps = StepAngles(breaks, values)
    if np.any(steps.values < 0):
        raise InvalidGain("step gain values must be nonnegative")
    return RadialGain(angle_fn=steps.apply,
                      declared_bound=float(np.max(steps.values)),
                      singular_points=dict.fromkeys(steps.breaks[1:].tolist(), 0.0))


def indicator_gain(arcset: ArcSet) -> RadialGain:
    return RadialGain(angle_fn=lambda t: np.asarray(arcset.contains(t), float),
                      declared_bound=1.0,
                      singular_points=dict.fromkeys(arcset.endpoints().tolist(), 0.0))


def power_cusp_gain(center: float, gamma: float) -> RadialGain:
    """h(theta) = (circular distance to center)^(-gamma): of order gamma at
    the center, and of order 0 at the antipode, where the distance kinks."""
    c = wrap_angle(center)
    g = positive_finite(gamma, "gamma")

    def fn(t):
        diff = np.abs(np.asarray(t, float) - c)
        dist = np.minimum(diff, TWO_PI - diff)
        with np.errstate(divide="ignore"):
            return dist ** (-g)

    return RadialGain(angle_fn=fn, singular_points={c: g, wrap_angle(c + np.pi): 0.0})


class RandomGainProcess:
    """Random nonnegative factor Z(theta), independent of the point it scales.

    sample_fn(theta, rng) draws one value per angle; moment_fn(theta, p),
    when known, returns E[Z(theta)^p] analytically. Without moment_fn,
    moments are Monte Carlo averages over mc_budget draws using an explicit
    generator, so the estimate is reproducible and race-free. The draws are
    taken MC_CHUNK_ROWS rows at a time and summed as they come; the result
    is bit-identical to the mean of one mc_budget-row draw.
    """

    def __init__(self, sample_fn, moment_fn=None, mc_budget: int = 200_000):
        self.sample_fn = sample_fn
        self.moment_fn = moment_fn
        self.mc_budget = int(mc_budget)

    def sample(self, theta, rng: np.random.Generator):
        vals = np.asarray(self.sample_fn(np.asarray(theta, dtype=float), rng),
                          dtype=float)
        if np.any(vals < 0) or np.any(np.isnan(vals)):
            raise InvalidGain("random gain drew a negative or NaN value")
        return vals

    def moment(self, theta, p: float, rng: np.random.Generator | None = None):
        """E[Z(theta)^p], analytic when available, else seeded Monte Carlo."""
        t = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.moment_fn is not None:
            out = np.asarray(self.moment_fn(t, float(p)), dtype=float)
        else:
            if rng is None:
                raise InvalidParameter("Monte Carlo moments need an explicit rng")
            # the running sum heads each chunk, so rows are added in the
            # order, and with the rounding, of one whole-array sum
            total = np.zeros((1, t.size))
            for start in range(0, self.mc_budget, MC_CHUNK_ROWS):
                rows = min(MC_CHUNK_ROWS, self.mc_budget - start)
                draws = self.sample(np.broadcast_to(t, (rows, t.size)), rng)
                total = np.sum(np.concatenate([total, draws ** float(p)]),
                               axis=0, keepdims=True)
            out = total[0] / self.mc_budget
        if np.any(~np.isfinite(out)):
            raise MomentDivergence("gain moment is not finite")
        if np.ndim(theta) == 0:
            return float(out[0])
        return out


def exponential_gain_process(mean_fn) -> RandomGainProcess:
    """Z(theta) exponential with direction-dependent mean m(theta).

    E[Z^p] = m(theta)^p * Gamma(1 + p).
    """

    def sample(t, rng):
        # a broadcast view (the Monte Carlo moment's rows of probes) repeats
        # its values along the axes of stride 0: the mean is evaluated once
        # per distinct angle and the draw broadcasts it, to the same bits.
        # Scaling standard draws gives rng.exponential(scale=...)'s bits and
        # generator state without its slow per-element broadcast path
        distinct = t[tuple(slice(0, 1) if step == 0 else slice(None)
                           for step in t.strides)]
        return rng.standard_exponential(t.shape) * np.broadcast_to(
            mean_fn(distinct), t.shape)

    def moment(t, p):
        return np.asarray(mean_fn(t), dtype=float) ** p * math.gamma(1.0 + p)

    return RandomGainProcess(sample, moment)


# ----------------------------------------------------------------------
# transformations of measures


def pushforward(sigma: SpectralMeasure, f: SphereMap) -> SpectralMeasure:
    """Image measure sigma f^{-1}.

    Discrete atoms are mapped individually and merged within 1e-12; total
    mass is conserved exactly. A density input with a piecewise-constant
    map representation is integrated piece by piece (exact); otherwise it
    is binned into 2^16 cells and the cell midpoints are mapped, which is
    exact only for maps constant on each cell.
    """
    if sigma.is_discrete:
        return sigma._with_atoms(f.on_atoms(sigma), sigma.weights, merge=True,
                                 total_mass=sigma.total_mass)
    if f.steps is not None:
        atoms = []
        masses = []
        for start, stop, value in f.steps.pieces():
            m = arc_integral(sigma.density_fn, [(start, stop)], sigma.singular_points)
            if m > 0:
                atoms.append(value)
                masses.append(m)
        return SpectralMeasure("discrete", 2, angles=np.asarray(atoms),
                               weights=np.asarray(masses), merge=True,
                               total_mass=sigma.total_mass)
    edges = np.linspace(0.0, TWO_PI, PUSHFORWARD_BINS + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    masses = sigma.density_fn(mid) * (TWO_PI / PUSHFORWARD_BINS)
    keep = masses > 0
    return SpectralMeasure("discrete", 2, angles=f.apply_angles(mid[keep]),
                           weights=masses[keep], merge=True)


def reweight(sigma: SpectralMeasure, h: RadialGain, alpha: float) -> SpectralMeasure:
    """Measure with density h^alpha with respect to sigma (not renormalized).

    The result is a finite measure whose total mass carries the tail
    constant; callers normalize explicitly when comparing shapes.
    """
    a = positive_finite(alpha, "alpha")
    if sigma.is_discrete:
        mult = h.on_atoms(sigma) ** a
        if np.any(~np.isfinite(mult)):
            raise InvalidGain("gain not finite at an atom of the measure")
        return _reweighted_atoms(sigma, mult)
    dens = sigma.density_fn

    def new_density(t, _d=dens, _h=h, _a=a):
        return _d(t) * _h.at_angles(t) ** _a

    return SpectralMeasure.density(new_density,
                                   singular_points=h.product_orders(sigma, a))


def _reweighted_atoms(sigma: SpectralMeasure, mult: np.ndarray) -> SpectralMeasure:
    """sigma's atoms with their weights times mult; atoms whose multiplier
    is zero are dropped."""
    keep = mult > 0
    if not np.any(keep):
        raise EmptyMeasure("reweighting removed all mass")
    return sigma._with_atoms(sigma.atoms[..., keep], sigma.weights[keep] * mult[keep])


def expected_gain_reweight(sigma: SpectralMeasure, z: RandomGainProcess,
                           alpha: float,
                           rng: np.random.Generator | None = None) -> SpectralMeasure:
    """Measure with density E[Z(theta)^alpha] with respect to sigma.

    The multiplier uses the moment of order alpha of the random gain; for a
    degenerate process this reduces to reweighting by h^alpha.
    """
    a = positive_finite(alpha, "alpha")
    if sigma.is_discrete:
        if sigma.dim != 2:
            raise DimensionMismatch("random gains act on planar angles (d = 2)")
        return _reweighted_atoms(sigma, z.moment(sigma.angles, a, rng))
    if z.moment_fn is None:
        raise MomentDivergence("density reweighting needs an analytic moment")
    dens = sigma.density_fn

    def new_density(t, _d=dens, _z=z, _a=a):
        return _d(t) * np.asarray(_z.moment_fn(np.asarray(t, float), _a), float)

    return SpectralMeasure.density(new_density,
                                   singular_points=sigma.singular_points)


def quantile_transform_map(mu: SpectralMeasure) -> SphereMap:
    """Map g(theta) = F^{-1}(theta / 2*pi) for the CDF F of mu.

    Pushing the uniform measure forward through g yields mu; for a discrete
    mu the map is an exact step function with thresholds at 2*pi times the
    cumulative weights, and for a density it is continuous where the
    density is positive.
    """
    if mu.dim != 2:
        raise DimensionMismatch("the quantile transform maps angles, so d = 2 only")
    if abs(mu.total_mass - 1.0) > 1e-6:
        raise InvalidParameter("quantile transform requires a normalized measure")
    if mu.is_discrete:
        cum = np.cumsum(mu.weights)
        breaks = np.concatenate(([0.0], TWO_PI * cum[:-1]))
        return SphereMap(steps=StepAngles(breaks, mu.angles))
    return SphereMap(angle_fn=lambda t: mu.quantile(np.asarray(t) / TWO_PI))


# ----------------------------------------------------------------------
# distances


def matched_masses(a: SpectralMeasure, b: SpectralMeasure):
    """The mass under a and the mass under b of each group that merge_atoms
    makes of both measures' atoms at TV_MATCH_TOL: the one rule for which
    atoms of two measures are the same. When d = 2 the groups come in angle
    order, the group across the 0/2*pi seam first."""
    if not (a.is_discrete and b.is_discrete):
        raise UnsupportedPair("matching atoms needs two atomic measures")
    if a.dim != b.dim:
        raise DimensionMismatch("measures live on different spheres")
    at = np.concatenate([a.atoms, b.atoms], axis=-1)
    return tuple(merge_atoms(at, np.concatenate(w), TV_MATCH_TOL)[1]
                 for w in ((a.weights, np.zeros(b.n_atoms)),
                           (np.zeros(a.n_atoms), b.weights)))


def distance_tv(a: SpectralMeasure, b: SpectralMeasure) -> float:
    """Total variation distance between two atomic measures: half the sum of
    |mass of a - mass of b| over the groups of matched_masses, so unmatched
    mass counts fully. For d >= 3 two atoms within TV_MATCH_TOL can straddle
    a grid cell edge and count as unmatched (see merge_atoms)."""
    ma, mb = matched_masses(a, b)
    return 0.5 * float(np.sum(np.abs(ma - mb)))


def distance_ks(a: SpectralMeasure, b: SpectralMeasure) -> float:
    """Kolmogorov distance sup |F_a - F_b| of the angle CDFs (d = 2).

    Two atomic measures step at the groups of matched_masses, the atoms
    that TV matches, so KS <= TV for equal masses; each side's masses are
    summed apart, as cdf does. Against a density the supremum is taken over
    a 2^14-point grid plus every atom location.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("Kolmogorov distance compares angle cdfs, so d = 2 only")
    if a.is_discrete and b.is_discrete:
        ma, mb = matched_masses(a, b)
        return float(np.max(np.abs(np.cumsum(ma) - np.cumsum(mb))))
    pts = [np.linspace(0.0, TWO_PI, KS_GRID, endpoint=False)]
    grid = np.unique(np.concatenate(pts + [m.angles for m in (a, b) if m.is_discrete]))
    return float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))


# ----------------------------------------------------------------------
# moment condition


def moment_condition(sigma: SpectralMeasure, h: RadialGain, alpha: float,
                     epsilon: float) -> float:
    """Integral of h^(alpha + epsilon) against sigma.

    Returns the finite value, or raises MomentDivergence when the sum or
    integral is infinite. For atoms the sum is checked directly. For a
    density the integral is cut at every singular point of the integrand,
    whose orders the gain's power gives (product_orders): it diverges
    when an order reaches 1, the exact condition for a cusp |t - c|^-s,
    and it has failed when the error estimate exceeds 1e-6 relative or
    1e-8 absolute.
    """
    if epsilon <= 0:
        raise InvalidParameter("epsilon must be positive")
    p = float(alpha) + float(epsilon)
    if sigma.is_discrete:
        total = float(np.sum(sigma.weights * h.on_atoms(sigma) ** p))
        if not np.isfinite(total):
            raise MomentDivergence("moment sum is infinite")
        return total

    def integrand(t):
        return sigma.density_fn(t) * h.at_angles(t) ** p

    value, abserr = integrate(integrand, 0.0, TWO_PI, h.product_orders(sigma, p))
    if not np.isfinite(value) or abserr > max(1e-6 * abs(value), 1e-8):
        raise MomentDivergence("moment integral diverges or failed to converge")
    return value
