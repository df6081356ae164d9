"""Sampleable laws on R^d with regularly varying (or deliberately not
regularly varying) tails.

The generic model draws direction and norm independently. Three planar
constructions stress the transformation theory:

* an oscillating-tail mixture whose half-and-half blend is exactly Pareto
  while each component's normalized tail oscillates forever,
* a discrete accumulating-atom law paired with an unbounded piecewise
  gain whose transformed tail diverges,
* a staircase-graph law whose spectral measure is a single atom at angle 0
  and which loses half its mass under an indicator gain.

All three expose closed-form tail probabilities so diagnostics can compare
Monte Carlo output against exact values.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .batch import SampleBatch
from .errors import InvalidConstruction, MomentDivergence, positive_finite
from .measures import RadialGain, SpectralMeasure
from .radial import OscillatingTailLaw, ParetoLaw, RadialLaw
from .rng import SAMPLE_STREAM, chunk_seeds, chunk_sizes
from .sphere import TWO_PI, ArcSet, directions_of


def _close_gaps(a: np.ndarray, spans) -> np.ndarray:
    """a cut down to the (start, length) spans of each row, in place.

    The spans move up against each other, row by row and in span order, and
    the result is a C-contiguous view of a's leading elements. Each move goes
    to a lower address than its source and ends at or before the next one's
    source, so no span is overwritten before it moves.
    """
    n = a.shape[-1]
    flat = a.reshape(-1)
    end = 0
    for row_start in range(0, flat.size, n):
        for start, length in spans:
            src = row_start + start
            flat[end:end + length] = flat[src:src + length]
            end += length
    return flat[:end].reshape(a.shape[:-1] + (-1,))


class RegVarModel:
    """Sampleable law with tail index alpha and optional exact tail.

    sample() splits n into fixed-size chunks and draws each chunk from its
    own deterministic substream, so the result depends only on (n, seed),
    not on the worker count. The worker that draws a chunk writes it into
    the chunk's own slice of the output, which is allocated once; a chunk
    that drops points (a zero gain) leaves a gap at the end of its slice,
    and the gaps close up in chunk order once every chunk is in.
    """

    alpha: float
    dim: int = 2
    spectral: SpectralMeasure | None = None

    def _sample_chunk(self, rng: np.random.Generator, m: int) -> SampleBatch:
        raise NotImplementedError

    def sample(self, n: int, seed: int, workers: int = 1) -> SampleBatch:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        sizes = chunk_sizes(n)
        starts = [0, *itertools.accumulate(sizes)][:len(sizes)]
        seeds = chunk_seeds(seed, SAMPLE_STREAM, len(sizes))
        points, dirs = np.empty((self.dim, n)), np.empty((self.dim, n))
        norms = np.empty(n)

        def draw(i: int) -> tuple[int, int]:
            # an overflowing draw becomes an infinite norm, which from_polar
            # rejects; errstate is per thread, so it is set here in the worker
            with np.errstate(over="ignore"):
                part = self._sample_chunk(np.random.default_rng(seeds[i]),
                                          sizes[i])
            lo, hi = starts[i], starts[i] + part.size
            points[:, lo:hi] = part.points
            norms[lo:hi] = part.norms
            dirs[:, lo:hi] = part.dirs
            return part.size, part.zero_count

        if workers > 1 and len(sizes) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                counts = list(pool.map(draw, range(len(sizes))))
        else:
            counts = [draw(i) for i in range(len(sizes))]
        kept = [size for size, _ in counts]
        if sum(kept) < n:
            spans = list(zip(starts, kept))
            points, norms, dirs = (_close_gaps(a, spans)
                                   for a in (points, norms, dirs))
        return SampleBatch(points, norms, dirs, seed=seed,
                           zero_count=sum(zeros for _, zeros in counts))

    def exact_tail(self, r: float, sets) -> float | None:
        """P{direction in sets, norm > r} in closed form, when available."""
        return None


class PolarIndependentModel(RegVarModel):
    """Direction ~ sigma and norm ~ radial law, drawn independently, so
    exact_tail = sigma(B) * P{R > r}."""

    def __init__(self, sigma: SpectralMeasure, alpha: float, radial: RadialLaw):
        if abs(sigma.total_mass - 1.0) > 1e-9:
            raise ValueError("sigma must be normalized")
        if abs(radial.alpha - float(alpha)) > 1e-12:
            raise InvalidConstruction("radial law index must equal alpha")
        self.sigma = sigma
        self.alpha = float(alpha)
        self.radial = radial
        self.dim = sigma.dim
        coef = radial.tail_coefficient
        self.spectral = None if coef is None else (
            sigma if coef == 1.0 else sigma.scaled(coef))

    def _sample_chunk(self, rng, m):
        dirs = self.sigma.sample_directions(rng, m)
        norms = self.radial.sample(rng, m)
        return SampleBatch.from_polar(norms, dirs)

    def exact_tail(self, r, sets):
        return self.sigma.mass_on(sets) * float(self.radial.tail(r))


# ----------------------------------------------------------------------
# oscillating mixture on two accumulating rays


class Example1Model(RegVarModel):
    """Mixture of two oscillating-tail laws on rays accumulating at angle 0.

    A fair coin picks the side s in {+1, -1}; the norm R follows the
    oscillating law with that sign and the point sits on the ray through
    angle s / max(1, floor(R)), so mass with norm in [n, n+1) lies on the
    ray through s/n. The mixture tail is exactly Pareto (the modulations
    cancel) with spectral measure concentrated at angle 0, while each
    side's normalized tail r^alpha P{R > r} oscillates in [1-a, 1+a].
    The side laws' construction checks that their tails are monotone.
    """

    MAX_EXPLICIT_RAYS = 2_000_000

    def __init__(self, alpha: float = 1.0, amplitude: float = 0.5):
        self.alpha = float(alpha)
        self.amplitude = float(amplitude)
        self.plus_law = OscillatingTailLaw(alpha, amplitude, +1)
        self.minus_law = OscillatingTailLaw(alpha, amplitude, -1)
        self.spectral = SpectralMeasure.discrete([0.0], [1.0])

    def side_law(self, sign: int) -> OscillatingTailLaw:
        return self.plus_law if sign > 0 else self.minus_law

    def _sample_chunk(self, rng, m):
        plus = rng.random(m) < 0.5
        u = 1.0 - rng.random(m)
        sign = np.where(plus, 1.0, -1.0)
        radii = OscillatingTailLaw.inverse_tail(u, self.alpha, self.amplitude, sign)
        ray = np.maximum(1.0, np.floor(radii))
        theta = np.where(plus, 1.0 / ray, TWO_PI - 1.0 / ray)
        return SampleBatch.from_polar(radii, directions_of(theta))

    def _side_tail_on(self, r: float, arcs: ArcSet, sign: int) -> float:
        """P{R_sign > r, ray angle in arcs} for one side of the mixture."""
        law = self.side_law(sign)
        endpoints = arcs.endpoints()
        gaps = [e for e in endpoints if e > 0.0] + [TWO_PI - e for e in endpoints
                                                    if e < TWO_PI]
        closest = min(gaps) if gaps else 1.0
        n_max = int(min(max(64.0, np.ceil(1.0 / closest) + 1),
                        self.MAX_EXPLICIT_RAYS))
        if closest < 1.0 / self.MAX_EXPLICIT_RAYS:
            raise ValueError("arc endpoint too close to the accumulation point")
        n = np.arange(1, n_max + 1, dtype=float)
        theta = 1.0 / n if sign > 0 else TWO_PI - 1.0 / n
        member = arcs.contains(theta)
        lo = np.maximum(r, n)
        contrib = np.maximum(0.0, law.tail(lo) - law.tail(n + 1.0))
        total = float(np.sum(contrib[member]))
        # beyond n_max every ray angle is closer to the accumulation point
        # than any endpoint, so membership is decided by the arcs touching it
        if sign > 0:
            run_member = any(a == 0.0 for a, _ in arcs.arcs)
        else:
            run_member = any(b == TWO_PI for _, b in arcs.arcs)
        if run_member:
            total += float(law.tail(max(r, float(n_max + 1))))
        return total

    def exact_tail(self, r, sets):
        if not isinstance(sets, ArcSet):
            raise TypeError("example1 evaluation sets are arc unions")
        return 0.5 * (self._side_tail_on(r, sets, +1)
                      + self._side_tail_on(r, sets, -1))


# ----------------------------------------------------------------------
# accumulating atoms with an unbounded companion gain

# smallest k whose atom angle pi - pi * 2^(1-k) rounds to pi in double
_K_FLOAT_PI = 55
_SPECTRAL_ATOMS = 40


def _atom_angle(k):
    """Angle of the k-th atom, pi - pi / 2^(k-1)."""
    return np.pi - np.pi * np.exp2(1.0 - np.asarray(k, dtype=float))


# B_2j / (2j)! for j = 1..12: the Euler-Maclaurin coefficients
_EULER_MACLAURIN = np.array([
    b / math.factorial(2 * j) for j, b in enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
         -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
         -236364091 / 2730), start=1)])


def _hurwitz_zeta(x, q: float) -> np.ndarray:
    """Hurwitz zeta sum of (q + k)^-x over k >= 0, for x > 1 and q >= 64.

    Euler-Maclaurin at q itself with 12 Bernoulli terms:
    q^(1-x) [1/(x-1) + 1/(2q) + sum_j B_2j/(2j)! x(x+1)...(x+2j-2) q^-2j].
    With q^(1-x) factored out every bracket term is O(1), so no term
    underflows before the result does. The first omitted term is below
    1e-18 relative for x <= 60.
    """
    x = np.asarray(x, dtype=float)
    q = float(q)
    column = (-1,) + (1,) * x.ndim
    # row j - 1 holds x(x+1)...(x+2j-2) q^(1-2j), built by running products
    j = np.arange(1, _EULER_MACLAURIN.size).reshape(column)
    steps = (x + 2 * j - 1) * (x + 2 * j) / (q * q)
    rising = np.cumprod(np.concatenate([(x / q)[None], steps]), axis=0)
    # summed smallest term first
    corr = np.sum((_EULER_MACLAURIN.reshape(column) * rising)[::-1], axis=0)
    return q ** (1.0 - x) * (1.0 / (x - 1.0) + (0.5 / q + corr / q))


def _qk_power_sum_from(m: int, s: float) -> float:
    """Sum of k^s / (k (k+1)) over k >= m, for s < 1.

    Explicit head to M = max(m, 64), then 1/(1+1/k) expanded into an
    alternating series of Hurwitz zeta tails; truncation error is below
    64^-24 relative.
    """
    if s >= 1.0:
        raise MomentDivergence("series sum of k^s/(k(k+1)) diverges for s >= 1")
    big = max(int(m), 64)
    k = np.arange(m, big, dtype=float)
    head = float(np.sum(k ** s / (k * (k + 1)))) if k.size else 0.0
    j = np.arange(25)
    tail = float(np.sum((-1.0) ** j * _hurwitz_zeta(2.0 - s + j, big)))
    return head + tail


def _qk_range_sum(k_lo: int, k_hi: int | None) -> float:
    """Sum of 1/(k(k+1)) over [k_lo, k_hi); telescopes to 1/k_lo - 1/k_hi."""
    hi = 0.0 if k_hi is None else 1.0 / k_hi
    return 1.0 / k_lo - hi


class Example2Model(RegVarModel):
    """Atoms q_k = 1/(k(k+1)) at angles accumulating at pi, with per-atom
    radial law mixing an atom at 1 (mass 1 - k^-nu) and a Pareto tail of
    coefficient k^-nu.

    The law is regularly varying with spectral mass q_k k^-nu at the k-th
    atom: r^alpha P{direction in B, norm > r} equals that sum exactly for
    every r > 1. The companion unbounded gain (see Example2Gain) destroys
    this: the transformed normalized tail grows without bound. K is drawn
    by its closed-form inverse CDF.
    """

    def __init__(self, alpha: float, nu: float, beta: float):
        self.alpha = positive_finite(alpha, "alpha")
        self.nu = positive_finite(nu, "nu")
        self.beta = float(beta)
        if not (1.0 / self.alpha < self.beta < (1.0 + self.nu) / self.alpha):
            raise InvalidConstruction(
                "gain exponent must satisfy 1/alpha < beta < (1+nu)/alpha")
        self.spectral = self._materialized_spectral()

    def _materialized_spectral(self) -> SpectralMeasure:
        # first atoms exactly, the infinite remainder lumped into the next
        # atom position; total mass is the exact series value
        k = np.arange(1, _SPECTRAL_ATOMS + 1, dtype=float)
        w = k ** -self.nu / (k * (k + 1))
        rest = _qk_power_sum_from(_SPECTRAL_ATOMS + 1, -self.nu)
        angles = np.append(_atom_angle(k), _atom_angle(_SPECTRAL_ATOMS + 1))
        weights = np.append(w, rest)
        return SpectralMeasure.discrete(angles, weights)

    def sigma_total(self) -> float:
        """Exact spectral total mass, sum of q_k k^-nu."""
        return _qk_power_sum_from(1, -self.nu)

    def _sample_chunk(self, rng, m):
        u = rng.random(m)
        k = np.maximum(1, np.ceil(1.0 / (1.0 - u)).astype(np.int64) - 1)
        coef = np.asarray(k, dtype=float) ** -self.nu
        v = rng.random(m)
        radii = np.maximum(1.0, (coef / (1.0 - v)) ** (1.0 / self.alpha))
        return SampleBatch.from_polar(radii, directions_of(_atom_angle(k)))

    def _atom_membership(self, sets: ArcSet):
        """Explicit membership for k < 55 plus the cofinite near-pi flag."""
        k = np.arange(1, _K_FLOAT_PI)
        member = sets.contains(_atom_angle(k))
        cofinite = bool(sets.contains(np.pi))
        return k, member, cofinite

    def exact_tail(self, r, sets):
        if not isinstance(sets, ArcSet):
            raise TypeError("example2 evaluation sets are arc unions")
        k, member, cofinite = self._atom_membership(sets)
        kf = k.astype(float)
        if r >= 1.0:
            head = float(np.sum((kf ** -self.nu / (kf * (kf + 1)))[member]))
            if cofinite:
                head += _qk_power_sum_from(_K_FLOAT_PI, -self.nu)
            return head * float(r) ** -self.alpha
        head = float(np.sum((1.0 / (kf * (kf + 1)))[member]))
        if cofinite:
            head += _qk_range_sum(_K_FLOAT_PI, None)
        return head

    def transformed_tail(self, r: float, sets: ArcSet | None = None) -> float:
        """P{direction in sets, norm > r} after scaling by the companion gain.

        On the k-th atom the gain equals k^beta, so the transformed radial
        tail at r is the base tail at r / k^beta; atoms with k^beta > r
        contribute their full mass. Over the full circle r^alpha times this
        tail is at least r^alpha / (r^(1/beta) + 1), so it diverges as r
        grows.
        """
        r = float(r)
        if r <= 1.0:
            raise ValueError("transformed tail is defined for r > 1")
        split = _beta_split(r, self.beta)
        if sets is None:
            sets = ArcSet.full_circle()
        k, member, cofinite = self._atom_membership(sets)
        kf = k.astype(float)
        # k <= split: Pareto branch; k > split: full atom mass
        pareto = member & (k <= split)
        full = member & (k > split)
        total = float(np.sum((kf ** (self.alpha * self.beta - self.nu)
                              / (kf * (kf + 1)))[pareto])) * r ** -self.alpha
        total += float(np.sum((1.0 / (kf * (kf + 1)))[full]))
        if cofinite:
            lo = _K_FLOAT_PI
            if split >= lo:
                ks = np.arange(lo, split + 1, dtype=float)
                total += float(np.sum(ks ** (self.alpha * self.beta - self.nu)
                                      / (ks * (ks + 1)))) * r ** -self.alpha
                total += _qk_range_sum(split + 1, None)
            else:
                total += _qk_range_sum(lo, None)
        return total


def _beta_split(r: float, beta: float) -> int:
    """Largest integer k with k^beta <= r, robust to rounding."""
    m = int(np.floor(r ** (1.0 / beta)))
    while (m + 1) ** beta <= r:
        m += 1
    while m >= 1 and m ** beta > r:
        m -= 1
    return m


class Example2Gain(RadialGain):
    """Unbounded gain k^beta on shrinking windows around the atoms.

    The window around the k-th atom has half-width pi / 2^(k+1); windows
    are pairwise disjoint, separated by gaps, and do not reach the
    accumulation point at pi, so the gain is almost-everywhere continuous
    for the atom measure but unbounded. Window 1 wraps through 0.
    """

    def __init__(self, beta: float):
        self.beta = float(beta)
        super().__init__(angle_fn=self._values, declared_bound=None)

    def _values(self, theta):
        t = np.asarray(theta, dtype=float)
        out = np.zeros_like(t)
        in_first = (t < np.pi / 4.0) | (t > 7.0 * np.pi / 4.0)
        out[in_first] = 1.0
        u = (np.pi - t) / np.pi
        todo = ~in_first & (u > 0.0)
        if np.any(todo):
            uu = u[todo]
            # window k covers u in the open interval (3, 5) * 2^-(k+1)
            k = np.ceil(np.log2(3.0 / uu) - 1.0)
            width = np.exp2(-(k + 1.0))
            inside = (k >= 2) & (3.0 * width < uu) & (uu < 5.0 * width)
            vals = np.zeros_like(uu)
            vals[inside] = k[inside] ** self.beta
            out[todo] = vals
        return out


def example2_moment(alpha: float, nu: float, beta: float,
                    delta: float) -> float:
    """Integral of h^(alpha+delta) against the spectral measure: the series
    sum of k^((alpha+delta)beta - nu) q_k, finite iff the exponent is
    below 1 + nu - ... i.e. (alpha+delta)*beta - nu < 1."""
    s = (alpha + delta) * beta - nu
    return _qk_power_sum_from(1, s)


# ----------------------------------------------------------------------
# staircase graph plus axis


class Example3Model(RegVarModel):
    """Half the mass rides the x-axis, half rides the staircase graph
    y = 2^-k on x in (k, k+1], with a Pareto x-coordinate.

    Graph directions tilt toward angle 0 as the norm grows, so the
    spectral measure is a single atom at 0 even though the graph part
    never touches the axis. Tail evaluation follows the x-coordinate
    (the graph point's norm exceeds x by a relative O(x^-2), which the
    sampler reports faithfully).
    """

    def __init__(self, alpha: float):
        self.alpha = positive_finite(alpha, "alpha")
        self.spectral = SpectralMeasure.discrete([0.0], [1.0])

    def _sample_chunk(self, rng, m):
        x = ParetoLaw(self.alpha).sample(rng, m)
        on_axis = rng.random(m) < 0.5
        y = np.where(on_axis, 0.0, staircase(x))
        return SampleBatch.from_points(np.stack([x, y]))

    def _x_tail(self, r: float) -> float:
        return min(1.0, float(r) ** -self.alpha) if r > 0 else 1.0

    def _graph_tail_on(self, r: float, a1: float, a2: float) -> float:
        """Mass of the graph part with x > r and angle in [a1, a2), a1 > 0."""
        a2 = min(a2, np.pi / 2.0)
        if a1 <= 0.0:
            raise ValueError("graph enumeration needs a1 > 0")
        if a1 >= a2:
            return 0.0
        tan_lo = np.tan(a1)
        total = 0.0
        k = max(0, int(np.floor(r - 1.0)) + 1)
        # heights halve each step: by k ~ 1100 they are below the smallest
        # subnormal times any representable lower angle, so the loop breaks
        for _ in range(1200):
            height = 2.0 ** -k
            if height <= tan_lo * max(k, r, 1.0):
                break
            lo = max(float(k), r)
            if a2 < np.pi / 2.0:
                lo = max(lo, height / np.tan(a2))
            hi = min(float(k + 1), height / tan_lo)
            if hi > lo:
                total += max(0.0, self._x_tail(lo) - self._x_tail(hi))
            k += 1
        return total

    def exact_tail(self, r, sets):
        if not isinstance(sets, ArcSet):
            raise TypeError("example3 evaluation sets are arc unions")
        r = float(r)
        value = 0.0
        if sets.contains(0.0):
            value += 0.5 * self._x_tail(r)
        for a, b in sets.arcs:
            if a == 0.0:
                # graph angles are strictly positive: complement within the graph
                value += 0.5 * (self._x_tail(r)
                                - self._graph_tail_on(r, b, np.pi / 2.0))
            else:
                value += 0.5 * self._graph_tail_on(r, a, b)
        return value


def staircase(x):
    """g(x) = 2^-k on (k, k+1]; the graph height of the staircase model."""
    x = np.asarray(x, dtype=float)
    out = np.exp2(1.0 - np.ceil(x))
    out = np.where(x <= 0.0, np.nan, out)
    return float(out) if out.ndim == 0 else out
