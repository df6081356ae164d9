"""Radial laws: distributions of the norm, with exact tail functions.

Each law exposes tail(r) = P{R > r}, inverse-transform sampling, and,
when the tail is exactly of power type, the coefficient
c = lim r^alpha * P{R > r} (None when the limit does not exist).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConstruction, positive_finite
from .sphere import TWO_PI, sorted_eval

# cells per period of the table that starts the oscillating-tail inverse
_TABLE_CELLS = 1024
# Newton steps after the tabulated start
_NEWTON_STEPS = 5


def _tabulated_start(log_u, sa, alpha, amplitude):
    """Start t and bracket [lo, hi] for -alpha*t + log1p(sa*sin t) = ln u.

    sa is sign * a. The s = -1 law is the s = +1 law shifted by pi in t,
    so both solve P(t) = z for P(t) = alpha*t - log1p(a*sin t), with
    z = alpha*shift - ln u and t less shift, shift = pi for s = -1.
    P increases, and P(t + 2*pi) = P(t) + 2*pi*alpha. One period of P is
    tabulated at _TABLE_CELLS + 1 points centred on its flattest point
    t_c = 2*pi - asin(a), where P'(t_c) = alpha - a/sqrt(1 - a^2) is 0 at
    the monotonicity bound. z is reduced into the period and its cell
    found by binary search, run over the queries in sorted order. t is
    interpolated linearly against cbrt(P - P(t_c)), in which t is smooth
    even where P is flat (there P - P(t_c) ~ (t - t_c)^3), so the start is
    close there too. The bracket is the cell, cut at t = 0.
    """
    shift = np.where(sa < 0.0, np.pi, 0.0)
    z = alpha * shift - log_u
    step = TWO_PI / _TABLE_CELLS
    mid = _TABLE_CELLS // 2
    nodes = (TWO_PI - np.arcsin(amplitude)
             + (np.arange(_TABLE_CELLS + 1) - mid) * step)
    p = alpha * nodes - np.log1p(amplitude * np.sin(nodes))
    key = np.cbrt(p - p[mid])
    width = np.diff(key)
    width[width <= 0.0] = np.inf
    periods = np.floor((z - p[0]) / (TWO_PI * alpha))
    q = z - periods * (TWO_PI * alpha)
    q -= p[mid]
    np.cbrt(q, out=q)
    cell = sorted_eval(lambda v: np.searchsorted(key, v), q)
    cell -= 1
    np.clip(cell, 0, _TABLE_CELLS - 1, out=cell)
    q -= key[cell]
    q /= width[cell]
    np.clip(q, 0.0, 1.0, out=q)
    lo = periods
    lo *= TWO_PI
    lo += nodes[0] - shift
    lo += cell * step
    q *= step
    q += lo
    hi = lo + step
    np.maximum(lo, 0.0, out=lo)
    np.maximum(hi, lo, out=hi)
    np.clip(q, lo, hi, out=q)
    return q, lo, hi


class RadialLaw:
    """Base class; subclasses implement tail() and sample()."""

    alpha: float

    def tail(self, r):
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def tail_coefficient(self) -> float | None:
        return None


class ParetoLaw(RadialLaw):
    """P{R > r} = min(1, r^-alpha); support [1, infinity)."""

    def __init__(self, alpha: float):
        self.alpha = positive_finite(alpha, "alpha")

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= 1.0, 1.0, r ** -self.alpha)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, n):
        u = rng.random(n)
        return (1.0 - u) ** (-1.0 / self.alpha)

    @property
    def tail_coefficient(self):
        return 1.0

    def __repr__(self):
        return f"ParetoLaw(alpha={self.alpha})"


class AtomPlusParetoLaw(RadialLaw):
    """Atom of mass 1 - c at 1 plus a Pareto tail P{R > r} = c * r^-alpha.

    The distribution function is 0 below 1 and 1 - c * x^-alpha for x >= 1.
    """

    def __init__(self, alpha: float, tail_coef: float):
        self.alpha = positive_finite(alpha, "alpha")
        if not 0.0 < tail_coef <= 1.0:
            raise ValueError("tail coefficient must lie in (0, 1]")
        self.coef = float(tail_coef)

    @property
    def atom_mass(self) -> float:
        return 1.0 - self.coef

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r < 1.0, 1.0, self.coef * r ** -self.alpha)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng, n):
        u = rng.random(n)
        return np.maximum(1.0, (self.coef / (1.0 - u)) ** (1.0 / self.alpha))

    @property
    def tail_coefficient(self):
        return self.coef

    def __repr__(self):
        return f"AtomPlusParetoLaw(alpha={self.alpha}, coef={self.coef})"


class OscillatingTailLaw(RadialLaw):
    """P{R > r} = min(1, r^-alpha * (1 + sign * a * sin(ln r))).

    The log-periodic modulation keeps r^alpha * P{R > r} oscillating in
    [1 - a, 1 + a] forever, so the law has no power-type tail limit, yet
    the half-half mixture of the two signs is exactly Pareto(alpha).
    The tail is nonincreasing iff max_t a*cos(t) / (1 + a*sin(t)) <= alpha;
    the maximum, at sin t = -a, is a/sqrt(1 - a^2).
    """

    def __init__(self, alpha: float, amplitude: float, sign: int = +1):
        self.alpha = positive_finite(alpha, "alpha")
        if not 0.0 < amplitude < 1.0:
            raise ValueError("amplitude must lie in (0, 1)")
        if sign not in (-1, +1):
            raise ValueError("sign must be +1 or -1")
        self.amplitude = float(amplitude)
        self.sign = int(sign)
        if self.amplitude / np.sqrt(1.0 - self.amplitude ** 2) > self.alpha:
            raise InvalidConstruction(
                f"amplitude {amplitude} makes the tail non-monotone for "
                f"alpha {alpha} (needs a / sqrt(1 - a^2) <= alpha)")

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            mod = 1.0 + self.sign * self.amplitude * np.sin(np.log(r))
            out = np.minimum(1.0, r ** -self.alpha * mod)
        out = np.where(r <= 1.0, 1.0, out)
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def inverse_tail(u, alpha, amplitude, sign):
        """Solve P{R > r} = u for r, by bracketed Newton steps on t = ln r.

        The root of g(t) = -alpha*t + log1p(s*a*sin t) - ln u, s = sign, is
        looked up in a table of one period of the s = +1 law
        (_tabulated_start); the s = -1 law is the same law shifted by pi in
        t. The lookup gives a start and a bracket [lo, hi] one table cell
        wide (2*pi/_TABLE_CELLS) that holds the root, cut at t = 0.

        Each step moves lo to t where g(t) > 0 and hi to t elsewhere, then
        takes the Newton step with g'(t) = -alpha + s*a*cos t/(1 + s*a*sin t)
        <= 0, clipped to [lo, hi]. A 0/0 step, where t is already a root,
        lands on hi, which is then t. There is no bisection fallback: the
        bracket is one cell wide from the start. The result is the evaluated
        t with the least |g|, t = 0 (the root for u = 1) included, because
        next to a flat point of g a Newton step from a good t can land on a
        bracket end.

        Draws retire once they reach a fixed point. After each step, the draws
        whose t did not change are marked; once fewer than half of the active
        draws moved, the others keep their best t and leave the arrays. That
        is exact: an unchanged t gives the same g, so the strict < keeps its
        best; the bracket update sets lo or hi to t, which it already is; and
        clipping the same Newton point to the same bracket returns t again.
        A NaN t never equals itself and stays active. At alpha = 1, a = 0.5,
        37% of the draws still move in the third step and 22% in the fifth.

        Why _NEWTON_STEPS = 5 steps are enough: where g' stays away from 0
        the start is within O(cell^2) of the root and each step doubles the
        correct digits; where g' nearly vanishes, at alpha near the
        monotonicity bound, the cube-root interpolation makes the start
        itself close. Across amplitudes 1e-6 to 1 - 1e-6, alpha from the
        bound to 10^4 times it, both signs, roots at and near the flat
        points and u down to 1e-300, 4 steps brought |g(ln r)| within 4 ulp
        of max(|ln u|, 1, alpha, 1/(1 - a)) and 3 steps left 1.4e4 ulp; the
        fifth is margin. That scale is the rounding floor: exp rounds r,
        which g' ~ -alpha magnifies, and log1p magnifies the rounding of
        a*sin t by up to 1/(1 - a). u and sign may be scalars or arrays.
        """
        shape = np.broadcast_shapes(np.shape(u), np.shape(sign))
        sa, log_u = (np.broadcast_to(x, shape).ravel() for x in (
            np.asarray(sign, dtype=float) * amplitude,
            np.log(np.asarray(u, dtype=float))))
        t, lo, hi = _tabulated_start(log_u, sa, alpha, amplitude)
        g = np.empty_like(t)
        w = np.empty_like(t)
        dg = np.empty_like(t)
        t_next = np.empty_like(t)
        above = np.empty(t.shape, dtype=bool)
        # t = 0, where g = -ln u, is the first candidate: the root for u = 1
        best_t = np.zeros_like(t)
        best_g = np.negative(log_u)
        # the draws still iterating, and the best t of those retired
        active = np.arange(t.size)
        out = np.empty_like(t)

        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(_NEWTON_STEPS + 1):
                np.sin(t, out=w)
                w *= sa
                np.log1p(w, out=g)
                np.multiply(t, alpha, out=dg)
                g -= dg
                g -= log_u
                np.abs(g, out=dg)
                np.less(dg, best_g, out=above)
                np.copyto(best_g, dg, where=above)
                np.copyto(best_t, t, where=above)
                if i == _NEWTON_STEPS:
                    break
                np.greater(g, 0.0, out=above)
                np.copyto(lo, t, where=above)
                np.logical_not(above, out=above)
                np.copyto(hi, t, where=above)
                np.cos(t, out=dg)
                dg *= sa
                w += 1.0
                dg /= w
                dg -= alpha
                g /= dg
                np.subtract(t, g, out=t_next)
                np.clip(t_next, lo, hi, out=t_next)
                np.isnan(t_next, out=above)
                np.copyto(t_next, hi, where=above)
                np.not_equal(t_next, t, out=above)
                t, t_next = t_next, t
                moved = np.count_nonzero(above)
                if 2 * moved >= t.size:
                    continue
                # retire the draws whose t stayed put: they are fixed points
                keep = np.flatnonzero(above)
                out[active] = best_t
                active = active[keep]
                t, lo, hi, sa, log_u, best_t, best_g = (
                    x[keep] for x in (t, lo, hi, sa, log_u, best_t, best_g))
                g, w, dg, t_next, above = (
                    x[:moved] for x in (g, w, dg, t_next, above))
        out[active] = best_t
        return np.exp(out).reshape(shape)[()]

    def sample(self, rng, n):
        u = 1.0 - rng.random(n)  # in (0, 1]
        return self.inverse_tail(u, self.alpha, self.amplitude, float(self.sign))

    @property
    def tail_coefficient(self):
        return None

    def __repr__(self):
        return (f"OscillatingTailLaw(alpha={self.alpha}, a={self.amplitude}, "
                f"sign={self.sign:+d})")
