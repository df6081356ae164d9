"""Radial laws: distributions of the norm, with exact tail functions.

Each law exposes tail(r) = P{R > r}, inverse-transform sampling, and,
when the tail is exactly of power type, the coefficient
c = lim r^alpha * P{R > r} (None when the limit does not exist).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidConstruction, positive_finite
from .sphere import TWO_PI

# cells per period of the table that starts the oscillating-tail inverse
_TABLE_CELLS = 4096
# Newton steps that solve each table node, and each draw after its start
_NODE_STEPS = 6
_NEWTON_STEPS = 2
# draws solved at once: bounds the solver's dozen work arrays to 1.6 MB
_SOLVE_BLOCK = 16_384


@functools.lru_cache(maxsize=8)
def _start_table(alpha, amplitude):
    """Table of the inverse of P(t) = alpha*t - log1p(a*sin t) over a period.

    P increases, P(t + 2*pi) = P(t) + 2*pi*alpha, and P is flattest at
    t_c = 2*pi - asin(a), where P'' = 0: near it P(t_c + h) - p_c, p_c =
    P(t_c), is slope*h + cubic*h^3 to third order, with slope = alpha -
    a/sqrt(1 - a^2) >= 0, which is 0 at the monotonicity bound, and cubic =
    a/(6*(1 - a^2)^1.5). The key kappa(t) = cbrt(P(t) - p_c) runs from
    k0 = kappa(t_c - pi) to cbrt(k0^3 + 2*pi*alpha) over the period around
    t_c. Node j, at kappa_j = k0 + j*dk for j = -1 .. _TABLE_CELLS + 1,
    solves P(t_j) = p_c + kappa_j^3: it starts from linear interpolation in
    kappa on a uniform grid in t, and each of _NODE_STEPS Newton steps from
    the least-residual t so far is kept when its residual is smaller.

    What is interpolated is t_j less the root of the third-order model,
    _flat_root(kappa_j^3). That remainder is smooth in kappa, while t itself
    bends within |kappa| ~ sqrt(slope)/cubic^(1/6) of 0, a few cells or
    less when alpha is within about 1e-6 (relative) of the bound.

    Returns p0 = P(t_c - pi), p_c, k0, dk, cubic, m2 = slope/(3*cubic), the
    node t's for j = 0 .. _TABLE_CELLS, and the rows c3, c2, c1, c0 of each
    cell j's cubic in x = (kappa - kappa_j)/dk through the remainders at
    nodes j - 1 .. j + 2 (4-point Lagrange). m2 is at least 1e-100, so at
    the bound _flat_root(0) is 0 and not 0/0. The arrays are read-only,
    since every caller shares them.
    """
    t_c = TWO_PI - np.arcsin(amplitude)

    def p(t):
        return alpha * t - np.log1p(amplitude * np.sin(t))

    p_c = p(t_c)
    p0 = p(t_c - np.pi)
    # the clamps keep _flat_root finite for any amplitude in (0, 1); beyond
    # them the model's root is smooth in kappa, and the remainder still is
    cubic = max(amplitude / (6.0 * (1.0 - amplitude ** 2) ** 1.5), 1e-100)
    slope = alpha - amplitude / np.sqrt(1.0 - amplitude ** 2)
    m2 = min(max(slope / (3.0 * cubic), 1e-100), 1e100)
    k0 = np.cbrt(p0 - p_c)
    dk = (np.cbrt(p0 + TWO_PI * alpha - p_c) - k0) / _TABLE_CELLS
    kappa = k0 + np.arange(-1, _TABLE_CELLS + 2) * dk
    target = p_c + kappa ** 3
    # the nodes' first guesses, interpolated on a uniform grid in t: the
    # period and 4 grid steps beyond each end, since the outer nodes lie up
    # to about 3.4 steps beyond it
    grid = t_c + (np.arange(_TABLE_CELLS + 9) - (_TABLE_CELLS // 2 + 4)) * (
        TWO_PI / _TABLE_CELLS)
    t = np.interp(kappa, np.cbrt(p(grid) - p_c), grid)
    residual = np.abs(p(t) - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NODE_STEPS):
            w = amplitude * np.sin(t)
            step = t - (alpha * t - np.log1p(w) - target) / (
                alpha - amplitude * np.cos(t) / (1.0 + w))
            step_residual = np.abs(p(step) - target)
            better = step_residual < residual
            t = np.where(better, step, t)
            residual = np.where(better, step_residual, residual)
    nodes = t[1:-1]
    rest = t - _flat_root(kappa ** 3, cubic, m2)
    ym, y0, y1, y2 = rest[:-3], rest[1:-2], rest[2:-1], rest[3:]
    coefs = np.stack([(y2 - ym) / 6.0 + (y0 - y1) / 2.0,
                      (ym + y1) / 2.0 - y0,
                      y1 - y0 / 2.0 - ym / 3.0 - y2 / 6.0,
                      y0])
    nodes.flags.writeable = False
    coefs.flags.writeable = False
    return p0, p_c, k0, dk, cubic, m2, nodes, coefs


def _flat_root(y, cubic, m2):
    """The real root h of cubic*(h^3 + 3*m2*h) = y, m2 > 0, elementwise.

    Cardano: with A = |y|/(2*cubic) and U^3 = A + sqrt(A^2 + m2^3),
    |h| = 2*A/(U^2 + m2 + m2^2/U^2). The denominator is h^2 + 3*m2, a sum
    of positive terms, so nothing cancels; h has the sign of y.
    """
    a = np.abs(y)
    a *= 0.5 / cubic
    u2 = np.hypot(a, m2 ** 1.5)
    u2 += a
    np.cbrt(u2, out=u2)
    np.square(u2, out=u2)
    h = np.divide(m2 * m2, u2)
    h += u2
    h += m2
    np.divide(a, h, out=h)
    h += h
    return np.copysign(h, y, out=h)


def _tabulated_start(log_u, sa, alpha, amplitude):
    """Start t and bracket [lo, hi] for -alpha*t + log1p(sa*sin t) = ln u.

    sa is sign * a. The s = -1 law is the s = +1 law shifted by pi in t,
    so both solve P(t) = z for P(t) = alpha*t - log1p(a*sin t), with
    z = alpha*shift - ln u and t less shift, shift = pi for s = -1.
    z is reduced into the tabulated period of P (_start_table): y = z - p_c
    there, and its key q = cbrt(y) falls in cell floor((q - k0)/dk), found
    in O(1). The start is _flat_root(y) plus the cell's cubic at q,
    accurate to about 1e-11 in t; the bracket is the cell's two node t's,
    cut at t = 0.
    """
    p0, p_c, k0, dk, cubic, m2, nodes, coefs = _start_table(alpha, amplitude)
    shift = np.where(sa < 0.0, np.pi, 0.0)
    z = alpha * shift - log_u
    base = z - p0
    base /= TWO_PI * alpha
    np.floor(base, out=base)
    q = base * (TWO_PI * alpha)
    np.subtract(z, q, out=q)
    q -= p_c
    t = _flat_root(q, cubic, m2)
    np.cbrt(q, out=q)
    q -= k0
    q /= dk
    np.floor(q, out=z)
    cell = z.astype(np.intp)
    np.clip(cell, 0, _TABLE_CELLS - 1, out=cell)
    q -= cell
    # lo holds the cell's cubic (Horner) before it holds the bracket end
    lo = np.take(coefs[0], cell)
    for row in coefs[1:]:
        lo *= q
        np.take(row, cell, out=z)
        lo += z
    t += lo
    base *= TWO_PI
    base -= shift
    t += base
    np.take(nodes, cell, out=lo)
    lo += base
    cell += 1
    hi = np.take(nodes, cell)
    hi += base
    np.maximum(lo, 0.0, out=lo)
    np.maximum(hi, lo, out=hi)
    np.clip(t, lo, hi, out=t)
    return t, lo, hi


def _newton(log_u, sa, alpha, amplitude, out):
    """OscillatingTailLaw.inverse_tail on one block, written into out:
    log_u is ln u and sa is sign * amplitude, elementwise."""
    t, lo, hi = _tabulated_start(log_u, sa, alpha, amplitude)
    g = np.empty_like(t)
    w = np.empty_like(t)
    dg = np.empty_like(t)
    above = np.empty(t.shape, dtype=bool)
    # t = 0, where g = -ln u, is the first candidate: the root for u = 1
    best_t = np.zeros_like(t)
    best_g = np.negative(log_u)

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
            t -= g
            np.clip(t, lo, hi, out=t)
            np.isnan(t, out=above)
            np.copyto(t, hi, where=above)
    np.exp(best_t, out=out)


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
        """Solve P{R > r} = u for r, by two bracketed Newton steps on t = ln r.

        The root of g(t) = -alpha*t + log1p(s*a*sin t) - ln u, s = sign, is
        started from a table of one period of the s = +1 law, looked up in
        O(1) per draw (_tabulated_start); the s = -1 law is the same law
        shifted by pi in t. The start is within about 1e-11 of the root, and
        the bracket [lo, hi], one table cell, holds the root, cut at t = 0.
        The table is a pure function of (alpha, amplitude), built on first
        use and kept in a small cache (_start_table).

        Each step moves lo to t where g(t) > 0 and hi to t elsewhere, then
        takes the Newton step with g'(t) = -alpha + s*a*cos t/(1 + s*a*sin t)
        <= 0, clipped to [lo, hi]. A 0/0 step, where t is already a root,
        lands on hi, which is then t. The result is the evaluated t with the
        least |g|, t = 0 (the root for u = 1) included, because next to a
        flat point of g a Newton step from a good t can land on a bracket end.

        Why _NEWTON_STEPS = 2 steps are enough: where g' stays away from 0,
        each step doubles the correct digits of a 1e-11 start, so the first
        reaches the rounding floor; where g' nearly vanishes, at alpha near
        the monotonicity bound, the start follows the third-order model of
        the flat point (_flat_root), so it stays close there too. Amplitudes
        1e-6 to 1 - 1e-6 were swept with both signs: 16 000 laws with alpha
        from the bound to 10^4 times it and u down to e^-700, roots at and
        within 0.02 of the flat points (1e6 draws), and 15 000 laws with
        alpha 1e-15 to 1 (relative) above the bound and roots 1e-9 to 0.3
        from a flat point. 2 steps brought every |g(ln r)| within 3 ulp of
        max(|ln u|, 1, alpha, 1/(1 - a)); 1 step left up to 42 ulp. Without
        the model, 2 steps left up to 700 ulp where the flat point's bend is
        0.01 to 3 cells wide. That scale is the rounding floor: exp rounds r,
        which g' ~ -alpha magnifies, and log1p magnifies the rounding of
        a*sin t by up to 1/(1 - a). u and sign may be scalars or arrays;
        the draws are solved _SOLVE_BLOCK at a time, each from its own u and
        sign alone.
        """
        shape = np.broadcast_shapes(np.shape(u), np.shape(sign))
        u, sign = (np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1)
                   for x in (u, sign))
        out = np.empty(u.size)
        for lo in range(0, u.size, _SOLVE_BLOCK):
            hi = lo + _SOLVE_BLOCK
            _newton(np.log(u[lo:hi]), sign[lo:hi] * amplitude, alpha, amplitude,
                    out[lo:hi])
        return out.reshape(shape)[()]

    def sample(self, rng, n):
        u = 1.0 - rng.random(n)  # in (0, 1]
        return self.inverse_tail(u, self.alpha, self.amplitude, float(self.sign))

    @property
    def tail_coefficient(self):
        return None

    def __repr__(self):
        return (f"OscillatingTailLaw(alpha={self.alpha}, a={self.amplitude}, "
                f"sign={self.sign:+d})")
