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
    InvalidGain,
    InvalidParameter,
    MomentDivergence,
    UnsupportedPair,
    positive_finite,
)
from .quadrature import integrate
from .sphere import (
    TWO_PI,
    ArcSet,
    CapSet,
    angles_of,
    directions_of,
    sorted_eval,
    wrap_angle,
)

ATOM_MERGE_TOL = 1e-12
TV_MATCH_TOL = 1e-6
KS_GRID = 1 << 14
DENSITY_CDF_CELLS = 1 << 16
PUSHFORWARD_BINS = 1 << 16
# rows of Monte Carlo gain draws summed at a time (1 MB per row block at 16 probes)
MC_CHUNK_ROWS = 8192

# 4-point Gauss-Legendre rule on [-1, 1]
_GL_X = np.array([-0.8611363115940526, -0.33998104358485626,
                  0.33998104358485626, 0.8611363115940526])
_GL_W = np.array([0.34785484513745385, 0.6521451548625461,
                  0.6521451548625461, 0.34785484513745385])


def arc_integral(fn, arcs, singular_points) -> float:
    """Integral of fn over a union of arcs [(a, b), ...], each arc split at
    the singular points inside it and refined toward those at its ends."""
    return float(sum(integrate(fn, a, b, singular_points)[0] for a, b in arcs))


def _merge_sorted_atoms(angles: np.ndarray, weights: np.ndarray, tol: float):
    """Merge atoms whose angles agree within tol; input need not be sorted.

    Clusters are contiguous runs after sorting; the first and last cluster
    merge across the 0/2*pi seam when they are within tol of it. Each
    cluster keeps its smallest angle as representative.
    """
    order = np.argsort(angles, kind="stable")
    a = angles[order]
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
    total_mass is cached; weights are strictly positive.
    """

    def __init__(self, kind, dim, angles=None, weights=None, coords=None,
                 density_fn=None, density_spec=None, singular_points=(),
                 total_mass=None, merge=False):
        self.kind = kind
        self.dim = int(dim)
        if self.dim < 2:
            raise DimensionMismatch("measures live on S^{d-1} with d >= 2")
        self.density_fn = density_fn
        self.density_spec = density_spec
        self.singular_points = tuple(singular_points)
        self._cdf_cache = None
        self._normalized = None
        if kind in ("discrete", "empirical"):
            if self.dim == 2:
                angles = np.asarray(angles, dtype=float)
                if not np.all(np.isfinite(angles)):
                    raise InvalidParameter("atom angles must be finite")
                angles = wrap_angle(angles)
                weights = np.asarray(weights, dtype=float)
                if angles.shape != weights.shape or angles.ndim != 1:
                    raise ValueError("angles and weights must be 1-d, same length")
                if np.any(weights <= 0):
                    raise ValueError("weights must be positive")
                if merge:
                    angles, weights = _merge_sorted_atoms(angles, weights,
                                                          ATOM_MERGE_TOL)
                else:
                    order = np.argsort(angles, kind="stable")
                    angles, weights = angles[order], weights[order]
                    if angles.size > 1 and (np.min(np.diff(angles)) <= ATOM_MERGE_TOL
                                            or (angles[0] + TWO_PI) - angles[-1] <= ATOM_MERGE_TOL):
                        raise ValueError("atoms closer than the merge tolerance; "
                                         "pass merge=True to combine them")
                self.angles = angles
                self.weights = weights
                self.coords = directions_of(angles)
            else:
                coords = np.asarray(coords, dtype=float)
                weights = np.asarray(weights, dtype=float)
                if coords.shape[0] != self.dim or coords.shape[1] != weights.size:
                    raise ValueError("coords must be (d, m) matching weights")
                if not np.all(np.isfinite(coords)):
                    raise InvalidParameter("atom coordinates must be finite")
                if np.any(weights <= 0):
                    raise ValueError("weights must be positive")
                norms = np.sqrt(np.sum(coords * coords, axis=0))
                if np.any(np.abs(norms - 1.0) > 1e-12):
                    raise ValueError("atom coordinates must be unit vectors")
                self.angles = None
                self.weights = weights
                self.coords = coords
            if weights.size == 0:
                raise EmptyMeasure("measure has no atoms")
            self.total_mass = float(total_mass) if total_mass is not None \
                else float(math.fsum(self.weights.tolist()))
        elif kind == "density":
            if self.dim != 2:
                raise DimensionMismatch("density measures are d = 2 only")
            if density_fn is None:
                raise ValueError("density measure needs a density function")
            self.angles = None
            self.weights = None
            self.coords = None
            self.total_mass = float(total_mass) if total_mass is not None \
                else arc_integral(density_fn, [(0.0, TWO_PI)], self.singular_points)
        else:
            raise ValueError(f"unknown measure kind {kind!r}")
        if not np.isfinite(self.total_mass) or self.total_mass < 0:
            raise EmptyMeasure("total mass must be finite and nonnegative")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def discrete(cls, angles, weights, merge=False):
        return cls("discrete", 2, angles=angles, weights=weights, merge=merge)

    @classmethod
    def discrete_dirs(cls, coords, weights):
        coords = np.asarray(coords, dtype=float)
        return cls("discrete", coords.shape[0], coords=coords, weights=weights)

    @classmethod
    def empirical(cls, angles, weights, total_mass=None):
        return cls("empirical", 2, angles=angles, weights=weights, merge=True,
                   total_mass=total_mass)

    @classmethod
    def density(cls, density_fn, spec=None, singular_points=(), total_mass=None):
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
            raise ValueError("cosine_bump amplitude must lie in [-1, 1]")
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
            return SpectralMeasure(self.kind, self.dim, angles=self.angles,
                                   weights=None if self.weights is None else self.weights * f,
                                   coords=self.coords if self.dim > 2 else None,
                                   total_mass=self.total_mass * f)
        fn = self.density_fn
        return SpectralMeasure.density(lambda t, _fn=fn: _fn(t) * f,
                                       singular_points=self.singular_points,
                                       total_mass=self.total_mass * f)

    # ------------------------------------------------------------------
    # evaluation

    def mass_on(self, sets) -> float:
        """Measure of an ArcSet (d = 2) or CapSet (d >= 3)."""
        if isinstance(sets, ArcSet):
            if self.dim != 2:
                raise DimensionMismatch("arc evaluation needs d = 2")
            if self.is_discrete:
                return float(np.sum(self.weights[sets.contains(self.angles)]))
            return arc_integral(self.density_fn, sets.arcs, self.singular_points)
        if isinstance(sets, CapSet):
            if not self.is_discrete:
                raise UnsupportedPair("cap evaluation needs a discrete measure")
            return float(np.sum(self.weights[sets.contains(self.coords)]))
        raise TypeError("sets must be an ArcSet or a CapSet")

    def boundary_mass(self, arcset: ArcSet) -> float:
        """Atom mass sitting exactly (within 1e-12) on arc endpoints."""
        if self.dim != 2:
            raise DimensionMismatch("boundary_mass needs d = 2")
        if not self.is_discrete:
            return 0.0
        ends = arcset.endpoints()
        diff = np.abs(self.angles[:, None] - ends[None, :])
        circ = np.minimum(diff, TWO_PI - diff)
        on_boundary = np.any(circ <= 1e-12, axis=1)
        return float(np.sum(self.weights[on_boundary]))

    def _density_cdf_table(self):
        if self._cdf_cache is None:
            grid = np.linspace(0.0, TWO_PI, DENSITY_CDF_CELLS + 1)
            mid = 0.5 * (grid[1:] + grid[:-1])
            half = 0.5 * (grid[1] - grid[0])
            nodes = mid[None, :] + half * _GL_X[:, None]
            vals = self.density_fn(nodes)
            cell = half * np.sum(_GL_W[:, None] * vals, axis=0)
            cum = np.concatenate(([0.0], np.cumsum(cell)))
            if cum[-1] > 0:
                cum *= self.total_mass / cum[-1]
            self._cdf_cache = (grid, cum)
        return self._cdf_cache

    def cdf(self, theta):
        """F(theta) = mass of [0, theta]; right-continuous, in [0, total]."""
        if self.dim != 2:
            raise DimensionMismatch("cdf needs d = 2")
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
            raise DimensionMismatch("quantile needs d = 2")
        if abs(self.total_mass - 1.0) > 1e-6:
            raise ValueError("quantile requires a normalized measure")
        u_arr = np.asarray(u, dtype=float)
        if np.any((u_arr < 0) | (u_arr >= 1)):
            raise ValueError("quantile levels must lie in [0, 1)")
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

    def sample_angles(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. angles from the normalized measure (d = 2)."""
        if self.dim != 2:
            raise DimensionMismatch("sample_angles needs d = 2")
        if self.is_discrete:
            p = self.weights / self.total_mass
            idx = rng.choice(self.weights.size, size=n, p=p)
            return self.angles[idx]
        if self.density_spec and self.density_spec.get("name") == "uniform":
            return TWO_PI * rng.random(n)
        # The normalized measure, and with it its CDF table, is built once.
        # Sampling threads may race to build it; each builds the same table
        # and the assignment is atomic, so every draw sees identical values.
        if self._normalized is None:
            self._normalized = self.normalized()
        return self._normalized.quantile(rng.random(n))

    def sample_directions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """(d, n) i.i.d. directions from the normalized measure."""
        if self.dim == 2:
            return directions_of(self.sample_angles(rng, n))
        p = self.weights / self.total_mass
        idx = rng.choice(self.weights.size, size=n, p=p)
        return self.coords[:, idx]

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
            raise ValueError("breaks and values must be 1-d, nonempty and of "
                             "equal length")
        if not (breaks[0] == 0.0 and np.all(np.diff(breaks) > 0)
                and breaks[-1] < TWO_PI):
            raise ValueError("breaks must start at 0 and increase within [0, 2*pi)")
        if not np.all(np.isfinite(values)):
            raise ValueError("step values must be finite")
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)

    def apply(self, theta):
        idx = np.searchsorted(self.breaks, theta, side="right") - 1
        return self.values[idx]

    def pieces(self):
        """(start, stop, value) triples covering [0, 2*pi)."""
        stops = np.append(self.breaks[1:], TWO_PI)
        return zip(self.breaks, stops, self.values)


class SphereMap:
    """Map of the sphere into itself, applied to directions.

    For d = 2 the map acts on canonical angles; a StepAngles representation,
    when present, makes pushforwards of density measures exact.
    """

    def __init__(self, angle_fn=None, coords_fn=None, steps: StepAngles | None = None):
        if angle_fn is None and steps is not None:
            angle_fn = steps.apply
        if angle_fn is None and coords_fn is None:
            raise ValueError("SphereMap needs an angle or coordinate action")
        self.angle_fn = angle_fn
        self.coords_fn = coords_fn
        self.steps = steps

    def apply_angles(self, theta):
        if self.angle_fn is None:
            raise DimensionMismatch("map has no planar angle action")
        return wrap_angle(self.angle_fn(np.asarray(theta, dtype=float)))

    def apply_dirs(self, dirs: np.ndarray) -> np.ndarray:
        """Apply to a (d, n) array of unit vectors; output re-normalized."""
        if dirs.shape[0] == 2 and self.angle_fn is not None:
            return directions_of(self.apply_angles(angles_of(dirs)))
        if self.coords_fn is None:
            raise DimensionMismatch("map has no coordinate action")
        out = np.asarray(self.coords_fn(dirs), dtype=float)
        norms = np.sqrt(np.sum(out * out, axis=0))
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("map output is not a unit vector")
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


class RadialGain:
    """Nonnegative direction-dependent factor applied to norms.

    declared_bound, when present, asserts a finite supremum; evaluation
    enforces nonnegativity and the declared bound on every probe.
    singular_points list angles where the gain blows up or jumps, used as
    quadrature split hints.
    """

    def __init__(self, angle_fn=None, coords_fn=None, declared_bound=None,
                 singular_points=()):
        if angle_fn is None and coords_fn is None:
            raise ValueError("RadialGain needs an angle or coordinate action")
        self.angle_fn = angle_fn
        self.coords_fn = coords_fn
        self.declared_bound = None if declared_bound is None else float(declared_bound)
        self.singular_points = tuple(singular_points)

    @property
    def is_bounded(self) -> bool:
        return self.declared_bound is not None

    def _check(self, vals: np.ndarray) -> np.ndarray:
        if np.any(np.isnan(vals)) or np.any(vals < 0):
            raise InvalidGain("gain evaluated negative or NaN")
        if self.declared_bound is not None and np.any(vals > self.declared_bound * (1 + 1e-12)):
            raise InvalidGain("gain exceeds its declared bound")
        return vals

    def at_angles(self, theta):
        if self.angle_fn is None:
            raise DimensionMismatch("gain has no planar angle action")
        vals = np.asarray(self.angle_fn(np.asarray(theta, dtype=float)), dtype=float)
        return self._check(vals)

    def at_dirs(self, dirs: np.ndarray):
        if dirs.shape[0] == 2 and self.angle_fn is not None:
            return self.at_angles(angles_of(dirs))
        if self.coords_fn is None:
            raise DimensionMismatch("gain has no coordinate action")
        return self._check(np.asarray(self.coords_fn(dirs), dtype=float))


def constant_gain(value: float) -> RadialGain:
    v = float(value)
    return RadialGain(angle_fn=lambda t: np.full_like(np.asarray(t, float), v),
                      declared_bound=v)


def step_gain(breaks, values) -> RadialGain:
    """Piecewise-constant gain, bounded by its largest value."""
    steps = StepAngles(breaks, values)
    if np.any(steps.values < 0):
        raise InvalidGain("step gain values must be nonnegative")
    return RadialGain(angle_fn=steps.apply,
                      declared_bound=float(np.max(steps.values)),
                      singular_points=tuple(steps.breaks[1:]))


def indicator_gain(arcset: ArcSet) -> RadialGain:
    return RadialGain(angle_fn=lambda t: arcset.contains(t).astype(float),
                      declared_bound=1.0,
                      singular_points=tuple(arcset.endpoints()))


def power_cusp_gain(center: float, gamma: float) -> RadialGain:
    """h(theta) = (circular distance to center)^(-gamma); unbounded."""
    c = wrap_angle(center)
    g = positive_finite(gamma, "gamma")

    def fn(t):
        diff = np.abs(np.asarray(t, float) - c)
        dist = np.minimum(diff, TWO_PI - diff)
        with np.errstate(divide="ignore"):
            return dist ** (-g)

    return RadialGain(angle_fn=fn, declared_bound=None, singular_points=(c,))


class RandomGainProcess:
    """Random nonnegative factor Z(theta), independent of the point it scales.

    sample_fn(theta, rng) draws one value per angle; moment_fn(theta, p),
    when known, returns E[Z(theta)^p] analytically. Without moment_fn,
    moments are Monte Carlo averages over mc_budget draws using an explicit
    generator, so the estimate is reproducible and race-free. The draws are
    taken MC_CHUNK_ROWS rows at a time and summed as they come; the result
    is bit-identical to the mean of one mc_budget-row draw.
    """

    def __init__(self, sample_fn, moment_fn=None, mc_budget: int = 100_000):
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
                raise ValueError("Monte Carlo moments need an explicit rng")
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
        # per distinct angle and the draw broadcasts it, to the same bits
        distinct = t[tuple(slice(0, 1) if step == 0 else slice(None)
                           for step in t.strides)]
        return rng.exponential(
            scale=np.broadcast_to(mean_fn(distinct), t.shape))

    def moment(t, p):
        return np.asarray(mean_fn(t), dtype=float) ** p * math.gamma(1.0 + p)

    return RandomGainProcess(sample, moment)


def degenerate_gain_process(gain: RadialGain) -> RandomGainProcess:
    """Deterministic process Z(theta) = h(theta)."""
    return RandomGainProcess(lambda t, rng: gain.at_angles(t),
                             lambda t, p: gain.at_angles(t) ** p)


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
        if sigma.dim == 2:
            mapped = f.apply_angles(sigma.angles)
            return SpectralMeasure(sigma.kind, 2, angles=mapped,
                                   weights=sigma.weights.copy(), merge=True,
                                   total_mass=sigma.total_mass)
        mapped = f.apply_dirs(sigma.coords)
        return SpectralMeasure(sigma.kind, sigma.dim, coords=mapped,
                               weights=sigma.weights.copy(),
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
        if sigma.dim == 2:
            mult = h.at_angles(sigma.angles) ** a
        else:
            mult = h.at_dirs(sigma.coords) ** a
        if np.any(~np.isfinite(mult)):
            raise InvalidGain("gain not finite at an atom of the measure")
        keep = mult > 0
        if not np.any(keep):
            raise EmptyMeasure("reweighting removed all mass")
        if sigma.dim == 2:
            return SpectralMeasure(sigma.kind, 2, angles=sigma.angles[keep],
                                   weights=sigma.weights[keep] * mult[keep])
        return SpectralMeasure(sigma.kind, sigma.dim,
                               coords=sigma.coords[:, keep],
                               weights=sigma.weights[keep] * mult[keep])
    dens = sigma.density_fn

    def new_density(t, _d=dens, _h=h, _a=a):
        return _d(t) * _h.at_angles(t) ** _a

    sing = tuple(sorted(set(sigma.singular_points) | set(h.singular_points)))
    return SpectralMeasure.density(new_density, singular_points=sing)


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
            raise DimensionMismatch("random-gain reweighting is planar only")
        mult = z.moment(sigma.angles, a, rng)
        keep = mult > 0
        if not np.any(keep):
            raise EmptyMeasure("reweighting removed all mass")
        return SpectralMeasure(sigma.kind, 2, angles=sigma.angles[keep],
                               weights=sigma.weights[keep] * mult[keep])
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
        raise DimensionMismatch("quantile transform needs d = 2")
    if abs(mu.total_mass - 1.0) > 1e-6:
        raise ValueError("quantile transform requires a normalized measure")
    if mu.is_discrete:
        cum = np.cumsum(mu.weights)
        breaks = np.concatenate(([0.0], TWO_PI * cum[:-1]))
        return SphereMap(steps=StepAngles(breaks, mu.angles))
    return SphereMap(angle_fn=lambda t: mu.quantile(np.asarray(t) / TWO_PI))


# ----------------------------------------------------------------------
# distances


def _cluster_differences(a: SpectralMeasure, b: SpectralMeasure, atol: float):
    """Cluster the union of atom locations within atol and return, per
    cluster, the weight of a minus the weight of b."""
    w = np.concatenate([a.weights, -b.weights])
    if a.dim == 2:
        angles = np.concatenate([a.angles, b.angles])
        return _merge_sorted_atoms(angles, w, atol)[1]
    # d >= 3: greedy clustering on chord distance
    coords = np.concatenate([a.coords.T, b.coords.T])
    chord = 2.0 * np.sin(min(atol, np.pi) / 2.0)
    unassigned = np.ones(len(coords), bool)
    diffs = []
    for i in range(len(coords)):
        if not unassigned[i]:
            continue
        d = np.sqrt(np.sum((coords - coords[i]) ** 2, axis=1))
        members = unassigned & (d <= chord)
        unassigned &= ~members
        diffs.append(np.sum(w[members]))
    return np.asarray(diffs)


def distance_tv(a: SpectralMeasure, b: SpectralMeasure,
                atol: float = TV_MATCH_TOL) -> float:
    """Total variation distance between two atomic measures.

    Atoms are matched within the angular tolerance; unmatched mass counts
    fully. Density measures are not supported (use distance_ks).
    """
    if not (a.is_discrete and b.is_discrete):
        raise UnsupportedPair("total variation needs two atomic measures")
    if a.dim != b.dim:
        raise DimensionMismatch("measures live on different spheres")
    return 0.5 * float(np.sum(np.abs(_cluster_differences(a, b, atol))))


def distance_ks(a: SpectralMeasure, b: SpectralMeasure) -> float:
    """Kolmogorov distance sup |F_a - F_b| of the angle CDFs (d = 2).

    The supremum is taken over a 2^14-point grid plus every atom location,
    which attains it exactly for step CDFs.
    """
    if a.dim != 2 or b.dim != 2:
        raise DimensionMismatch("Kolmogorov distance needs d = 2")
    pts = [np.linspace(0.0, TWO_PI, KS_GRID, endpoint=False)]
    for m in (a, b):
        if m.is_discrete:
            pts.append(m.angles)
    grid = np.unique(np.concatenate(pts))
    return float(np.max(np.abs(a.cdf(grid) - b.cdf(grid))))


# ----------------------------------------------------------------------
# moment condition


def moment_condition(sigma: SpectralMeasure, h: RadialGain, alpha: float,
                     epsilon: float) -> float:
    """Integral of h^(alpha + epsilon) against sigma.

    Returns the finite value, or raises MomentDivergence when the sum or
    integral is infinite. For atoms the sum is checked directly. For a
    density the integral is refined toward every singular point in
    geometric shells; it diverges when the deepest shell holds at least as
    much as the one before it (the ratio 2^(s - 1) of a cusp |t - c|^-s
    reaches 1 at s = 1), and it has failed when the error estimate exceeds
    1e-6 relative or 1e-8 absolute.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    p = float(alpha) + float(epsilon)
    if sigma.is_discrete:
        if sigma.dim == 2:
            vals = h.at_angles(sigma.angles) ** p
        else:
            vals = h.at_dirs(sigma.coords) ** p
        total = float(np.sum(sigma.weights * vals))
        if not np.isfinite(total):
            raise MomentDivergence("moment sum is infinite")
        return total

    def integrand(t):
        return sigma.density_fn(t) * h.at_angles(t) ** p

    hints = set(sigma.singular_points) | set(h.singular_points)
    value, abserr = integrate(integrand, 0.0, TWO_PI, hints)
    if not np.isfinite(value) or abserr > max(1e-6 * abs(value), 1e-8):
        raise MomentDivergence("moment integral diverges or failed to converge")
    return value
