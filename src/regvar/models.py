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
Monte Carlo output against exact values. gained_tail is the tail after a
radial gain: any gain for independent polar parts, the companion for atoms.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .batch import SampleBatch
from .errors import (
    InvalidConstruction,
    InvalidParameter,
    MomentDivergence,
    UnsupportedPair,
    positive_finite,
)
from .measures import RadialGain, SpectralMeasure, arc_integral
from .radial import OscillatingTailLaw, ParetoLaw, RadialLaw
from .rng import CHUNK, SAMPLE_STREAM, chunk_seeds, chunk_sizes
from .sphere import TWO_PI, ArcSet, directions_of


def _leading(a: np.ndarray, kept: int) -> np.ndarray:
    """a[..., :kept] moved into place as a C-contiguous view of a's leading
    elements.

    Row after row moves down to follow the one before, CHUNK elements at a
    time and in order. Each move goes to a lower address than its source,
    so no element is overwritten before it moves, and numpy buffers at most
    one move where a move overlaps its own source.
    """
    n = a.shape[-1]
    flat = a.reshape(-1)
    end = 0
    for row_start in range(0, flat.size, n):
        for start in range(row_start, row_start + kept, CHUNK):
            length = min(CHUNK, row_start + kept - start)
            flat[end:end + length] = flat[start:start + length]
            end += length
    return flat[:end].reshape(a.shape[:-1] + (-1,))


def _drawn_ahead(draw, count: int, workers: int):
    """draw(0), ..., draw(count - 1) in order, computed by a pool of worker
    threads.

    At most `workers` draws are in flight, the one the caller holds
    included, so a caller that copies each result out as it comes holds no
    more chunks than the workers draw. A draw that raises stops the
    generator, and the draws not yet started are cancelled.
    """
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = deque()
        try:
            for i in range(count):
                ahead.append(pool.submit(draw, i))
                if len(ahead) == workers:
                    yield ahead.popleft().result()
            while ahead:
                yield ahead.popleft().result()
        finally:
            for future in ahead:
                future.cancel()


class RegVarModel:
    """Sampleable law with tail index alpha and optional exact tails, before
    and after a radial gain (exact_tail, gained_tail).

    chunks() splits n into fixed-size chunks and draws each chunk from its
    own deterministic substream, so the result depends only on (n, seed),
    not on the worker count. sample() copies the chunks into an output that
    is allocated once, each after the last; a chunk that drops points (a
    zero gain) leaves the unused tail of the output, which closes up once
    every chunk is in. The output holds the chunks' norms and dirs, and
    their points only where the chunks store them (SampleBatch).

    A model whose directions come from a fixed table sets atom_dirs to
    that (d, K) table, read-only, and draws its chunks as (norms, column)
    pairs with _draw_atoms(rng, m), the same draws that its _sample_chunk
    makes; the point with column c has direction atom_dirs[:, c]. A
    transform can then work once per column, not once per point. atom_dirs
    is None for every other model.
    """

    alpha: float
    dim: int = 2
    spectral: SpectralMeasure | None = None
    atom_dirs: np.ndarray | None = None

    def _sample_chunk(self, rng: np.random.Generator, m: int) -> SampleBatch:
        raise NotImplementedError

    def chunks(self, n: int, seed: int, workers: int = 1):
        """An iterator over the chunks of sample(n, seed, workers), as
        SampleBatch, in order. Bad n or workers raise here, before any
        chunk is drawn; with workers > 1 a thread pool draws ahead
        (_drawn_ahead)."""
        if n < 0 or workers < 1:
            raise InvalidParameter(f"need n >= 0 and workers >= 1, got {n}, {workers}")
        sizes = chunk_sizes(n)
        seeds = chunk_seeds(seed, SAMPLE_STREAM, len(sizes))

        def draw(i: int) -> SampleBatch:
            # an overflowing draw becomes an infinite norm, which from_polar
            # rejects; errstate is per thread, so it is set here in the worker
            with np.errstate(over="ignore"):
                return self._sample_chunk(np.random.default_rng(seeds[i]),
                                          sizes[i])

        if workers == 1 or len(sizes) < 2:
            return map(draw, range(len(sizes)))
        return _drawn_ahead(draw, len(sizes), workers)

    def sample(self, n: int, seed: int, workers: int = 1) -> SampleBatch:
        # a model builds every chunk the same way, so the first says whether
        # the output stores points
        points, norms, dirs = None, np.empty(n), np.empty((self.dim, n))
        size = zero_count = 0
        for part in self.chunks(n, seed, workers):
            end = size + part.size
            if points is None and size == 0 and part.holds_points:
                points = np.empty((self.dim, n))
            if points is not None:
                points[:, size:end] = part.points
            norms[size:end] = part.norms
            dirs[:, size:end] = part.dirs
            size, zero_count = end, zero_count + part.zero_count
            del part  # before the next chunk is drawn
        if size < n:
            norms, dirs = _leading(norms, size), _leading(dirs, size)
            if points is not None:
                points = _leading(points, size)
        return SampleBatch(points, norms, dirs, zero_count=zero_count)

    def exact_tail(self, r: float, sets) -> float | None:
        """P{direction in sets, norm > r} in closed form, when available."""
        return None

    def gained_tail(self, r: float, sets, gain: RadialGain) -> float | None:
        """P{direction in sets, gain(direction) * norm > r} in closed form,
        when available: the exact tail of the vector rescaled by the gain."""
        return None


class PolarIndependentModel(RegVarModel):
    """Direction ~ sigma and norm ~ radial law, drawn independently, so
    exact_tail = sigma(B) * P{R > r}. A discrete sigma's atoms are the
    model's atom_dirs; each chunk draws its directions before its norms."""

    def __init__(self, sigma: SpectralMeasure, alpha: float, radial: RadialLaw):
        if abs(sigma.total_mass - 1.0) > 1e-9:
            raise InvalidParameter("sigma must be normalized")
        if abs(radial.alpha - float(alpha)) > 1e-12:
            raise InvalidConstruction("radial law index must equal alpha")
        self.sigma = sigma
        self.alpha = float(alpha)
        self.radial = radial
        self.dim = sigma.dim
        coef = radial.tail_coefficient
        self.spectral = None if coef is None else (
            sigma if coef == 1.0 else sigma.scaled(coef))
        if sigma.is_discrete:
            self.atom_dirs = sigma.coords.view()
            self.atom_dirs.flags.writeable = False

    def _draw_atoms(self, rng, m):
        # the draws of _sample_chunk: sample_directions takes a discrete
        # sigma's directions at sample_atoms' columns
        col = self.sigma.sample_atoms(rng, m)
        return self.radial.sample(rng, m), col

    def _sample_chunk(self, rng, m):
        dirs = self.sigma.sample_directions(rng, m)
        norms = self.radial.sample(rng, m)
        return SampleBatch.from_polar(norms, dirs)

    def exact_tail(self, r, sets):
        return self.sigma.mass_on(sets) * float(self.radial.tail(r))

    def gained_tail(self, r, sets, gain):
        """sigma-average of P{R > r / h}, over atoms or a density's arcs."""
        sigma = self.sigma
        if sigma.is_discrete:
            vals = gain.on_atoms(sigma)
            keep = sigma.atoms_in(sets) & (vals > 0.0)
            if not np.any(keep):
                return 0.0
            # a subnormal gain overflows r / h to inf, where the tail is 0
            with np.errstate(over="ignore"):
                levels = float(r) / vals[keep]
            return float(np.sum(sigma.weights[keep] * self.radial.tail(levels)))

        def integrand(t):
            v = gain.at_angles(t)
            out = np.zeros_like(v)
            pos = v > 0
            with np.errstate(over="ignore"):
                levels = float(r) / v[pos]
            out[pos] = self.radial.tail(levels)
            return sigma.density_fn(t) * out

        # P{R > r / h} <= 1 is bounded: the gain's points are cuts
        return arc_integral(integrand, sets.arcs, gain.product_orders(sigma, 0.0))


# ----------------------------------------------------------------------
# oscillating mixture on two accumulating rays


# smallest ray n whose minus-side angle 2 pi - 1/n rounds to 2 pi in double:
# 1/n is half an ulp of 2 pi there and ties to even
_MINUS_RAY_AT_ZERO = 2 ** 51
# rays 1.._NEAR_RAYS of each side carry 1 - 1/(_NEAR_RAYS + 1) of the mass
# at alpha = 1; the sampler looks their directions up
_NEAR_RAYS = 1024


@functools.cache
def _near_ray_dirs() -> np.ndarray:
    """Directions of rays 1.._NEAR_RAYS: column n - 1 holds the plus-side
    ray n at angle 1/n, column _NEAR_RAYS + n - 1 the minus-side ray at
    2 pi - 1/n. Built on first use and read-only, since callers share it."""
    near = 1.0 / np.arange(1.0, _NEAR_RAYS + 1)
    dirs = directions_of(np.concatenate([near, TWO_PI - near]))
    dirs.flags.writeable = False
    return dirs


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

    def __init__(self, alpha: float = 1.0, amplitude: float = 0.5):
        self.alpha = float(alpha)
        self.amplitude = float(amplitude)
        self.plus_law = OscillatingTailLaw(alpha, amplitude, +1)
        self.minus_law = OscillatingTailLaw(alpha, amplitude, -1)
        self.spectral = SpectralMeasure.discrete([0.0], [1.0])

    def side_law(self, sign: int) -> OscillatingTailLaw:
        return self.plus_law if sign > 0 else self.minus_law

    def _sample_chunk(self, rng, m):
        # the mixture's norm is Pareto(alpha); by Bayes' rule, given R = r
        # the side is + with probability half the plus law's density ratio
        radii = ParetoLaw(self.alpha).sample(rng, m)
        ratio = self.plus_law.density_ratio(radii)
        u = rng.random(m)
        u += u
        minus = ~(u < ratio)
        del ratio, u  # before the rays and the directions are built
        ray = np.floor(radii)
        np.maximum(ray, 1.0, out=ray)
        # a ray beyond the table sits at 1 / ray on the plus side and at
        # 2 pi - 1 / ray on the other
        far = np.flatnonzero(ray > _NEAR_RAYS)
        theta = 1.0 / ray[far]
        np.subtract(TWO_PI, theta, out=theta, where=minus[far])
        np.minimum(ray, _NEAR_RAYS, out=ray)
        col = ray.astype(np.intp)
        del ray
        col -= 1
        np.add(col, _NEAR_RAYS, out=col, where=minus)
        dirs = np.take(_near_ray_dirs(), col, axis=1)
        del col
        dirs[:, far] = directions_of(theta)
        return SampleBatch.from_polar(radii, dirs)

    def _side_tail_on(self, r: float, arcs: ArcSet, sign: int) -> float:
        """P{R_sign > r, ray angle in arcs} for one side of the mixture.

        Ray n sits at angle 1/n on the plus side and 2 pi - 1/n on the
        minus side, so an arc [a, b) holds a run of rays first..last: the
        floors of the reciprocal distances from its ends to the
        accumulation point, each moved one step where the float angle's
        membership disagrees. The run's masses P{max(r, n) < R <= n + 1}
        telescope to T(max(r, first)) - T(last + 1), T the side's tail, or 0
        if that is negative; last = inf where 1/distance overflows, T(inf) = 0.
        Minus-side rays from _MINUS_RAY_AT_ZERO on sit at the float angle
        2 pi, which the sampler's points read as 0: they count in an arc
        holding 0, not in one ending at 2 pi.
        """
        law = self.side_law(sign)

        def index(gap):  # floor(1/gap); inf at 0 or where 1/gap overflows
            inv = 1.0 / gap if gap > 0.0 else math.inf
            return math.floor(inv) if inv < math.inf else inv

        def member(n, a, b):  # there is no ray 0
            return n >= 1 and a <= (1.0 / n if sign > 0 else TWO_PI - 1.0 / n) < b

        def run_end(n, out, a, b):  # the true end is within one step of n
            if member(n + out, a, b):
                return n + out
            return n if member(n, a, b) else n - out

        runs = []
        for a, b in arcs.arcs:
            near, far = (a, b) if sign > 0 else (TWO_PI - b, TWO_PI - a)
            first = run_end(index(far) + 1, -1, a, b)
            last = run_end(index(near), +1, a, b)
            if sign < 0:
                last = min(last, _MINUS_RAY_AT_ZERO - 1)
            runs.append((max(r, first), last + 1))
        if sign < 0 and arcs.contains(0.0):
            runs.append((max(r, _MINUS_RAY_AT_ZERO), math.inf))
        ends = np.array(runs, dtype=float)
        tails = np.where(ends < np.inf, law.tail(ends), 0.0)
        return float(sum(max(0.0, hi - lo) for hi, lo in tails))

    def exact_tail(self, r, sets):
        if not isinstance(sets, ArcSet):
            raise UnsupportedPair("example1 evaluation sets are arc unions")
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


# directions of atoms 1.._K_FLOAT_PI; column k - 1 holds atom k. Read-only,
# since every Example2Model shares it as its atom_dirs
_ATOM_DIRS = directions_of(_atom_angle(np.arange(1, _K_FLOAT_PI + 1)))
_ATOM_DIRS.flags.writeable = False


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


class Example2Model(RegVarModel):
    """Atoms q_k = 1/(k(k+1)) at angles accumulating at pi, with per-atom
    radial law mixing an atom at 1 (mass 1 - k^-nu) and a Pareto tail of
    coefficient k^-nu.

    The law is regularly varying with spectral mass q_k k^-nu at the k-th
    atom: r^alpha P{direction in B, norm > r} equals that sum exactly for
    every r > 1. The companion unbounded gain (see Example2Gain) destroys
    this: the transformed normalized tail grows without bound. K is drawn
    by its closed-form inverse CDF; atoms from 55 on share the float pi, so
    atom_dirs has 55 columns and atom k draws column min(k, 55) - 1.
    """

    atom_dirs = _ATOM_DIRS

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
        k = np.arange(1, _SPECTRAL_ATOMS + 2, dtype=float)
        w = k ** -self.nu / (k * (k + 1))
        if w[-1] == 0.0:  # the remainder's first term: nu is too large
            raise InvalidConstruction(f"nu = {self.nu} leaves atoms of no mass")
        weights = np.append(w[:-1], _qk_power_sum_from(_SPECTRAL_ATOMS + 1, -self.nu))
        return SpectralMeasure.discrete(_atom_angle(k), weights)

    def _draw_atoms(self, rng, m):
        u = rng.random(m)
        k = np.maximum(1, np.ceil(1.0 / (1.0 - u)).astype(np.int64) - 1)
        coef = np.asarray(k, dtype=float) ** -self.nu
        v = rng.random(m)
        radii = np.maximum(1.0, (coef / (1.0 - v)) ** (1.0 / self.alpha))
        np.minimum(k, _K_FLOAT_PI, out=k)
        k -= 1
        return radii, k

    def _sample_chunk(self, rng, m):
        # np.take keeps the (d, m) directions C-ordered
        norms, col = self._draw_atoms(rng, m)
        return SampleBatch.from_polar(norms, np.take(_ATOM_DIRS, col, axis=1))

    def _scaled_tail(self, r: float, sets: ArcSet, b: float) -> float:
        """P{direction in sets, k^b R_k > r} for the atom index k.

        k^b R_k exceeds r surely when r < k^b, and with probability
        k^(alpha b - nu) r^-alpha otherwise. Atoms from 55 on sit at the
        float pi: their sure masses telescope to 1/(split + 1), and the
        others sum as the Hurwitz series from 55 less the one past split.
        """
        if not isinstance(sets, ArcSet):
            raise UnsupportedPair("example2 evaluation sets are arc unions")
        r = float(r)
        s = self.alpha * b - self.nu
        split = _beta_split(r, b)
        k = np.arange(1, _K_FLOAT_PI, dtype=float)
        member = sets.contains(_atom_angle(k))
        cofinite = sets.contains(np.pi)
        head = float(np.sum((k ** s / (k * (k + 1)))[member & (k <= split)]))
        if cofinite and split >= _K_FLOAT_PI:
            head += _qk_power_sum_from(_K_FLOAT_PI, s) - (
                _qk_power_sum_from(split + 1, s) if split < math.inf else 0.0)
        # r < 1 leaves the head empty, and r^-alpha may overflow there
        tail = head * r ** -self.alpha if head else 0.0
        tail += float(np.sum((1.0 / (k * (k + 1)))[member & (k > split)]))
        if cofinite:
            tail += 1.0 / (max(split, _K_FLOAT_PI - 1) + 1)
        return tail

    def exact_tail(self, r, sets):
        return self._scaled_tail(r, sets, 0.0)

    def gained_tail(self, r, sets, gain):
        """The tail after the companion gain, k^beta on atom k; r^alpha times
        it is at least r^alpha / (r^(1/beta) + 1), so it diverges."""
        if not isinstance(gain, Example2Gain) or abs(gain.beta - self.beta) > 1e-12:
            return None
        return self._scaled_tail(r, sets, self.beta)


def _beta_split(r: float, beta: float) -> float:
    """Largest integer k >= 0 with k^beta <= r, robust to rounding: 0 when
    r < 1, and inf when beta = 0 and r >= 1."""
    if r < 1.0:
        return 0
    if beta == 0.0:
        return math.inf
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
    sum of k^s q_k with s = (alpha+delta)*beta - nu, finite iff s < 1, since
    the sum of k^s / (k(k+1)) converges iff s < 1."""
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
            raise UnsupportedPair("example3 evaluation sets are arc unions")
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
