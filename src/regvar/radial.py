"""Radial laws: distributions of the norm, with exact tail functions.

Each law exposes tail(r) = P{R > r}, inverse-transform sampling, and,
when the tail is exactly of power type, the coefficient
c = lim r^alpha * P{R > r} (None when the limit does not exist).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConstruction


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
        if not 0.0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        self.alpha = float(alpha)

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
        if not 0.0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < tail_coef <= 1.0:
            raise ValueError("tail coefficient must lie in (0, 1]")
        self.alpha = float(alpha)
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
    Requires a * max_t cos(t) / (1 + a sin(t)) <= alpha so the tail is
    nonincreasing; the condition is checked on a 10^4-point grid.
    """

    GRID = 10_000

    def __init__(self, alpha: float, amplitude: float, sign: int = +1):
        if not 0.0 < alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < amplitude < 1.0:
            raise ValueError("amplitude must lie in (0, 1)")
        if sign not in (-1, +1):
            raise ValueError("sign must be +1 or -1")
        self.alpha = float(alpha)
        self.amplitude = float(amplitude)
        self.sign = int(sign)
        t = np.linspace(0.0, 2.0 * np.pi, self.GRID, endpoint=False)
        worst = float(np.max(self.amplitude * np.cos(t) /
                             (1.0 + self.amplitude * np.sin(t))))
        if worst > self.alpha:
            raise InvalidConstruction(
                f"amplitude {amplitude} makes the tail non-monotone for "
                f"alpha {alpha} (needs a * max cos t / (1 + a sin t) <= alpha)")

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            mod = 1.0 + self.sign * self.amplitude * np.sin(np.log(r))
            out = np.minimum(1.0, r ** -self.alpha * mod)
        out = np.where(r <= 1.0, 1.0, out)
        return float(out) if out.ndim == 0 else out

    @staticmethod
    def inverse_tail(u, alpha, amplitude, sign):
        """Solve P{R > r} = u for r, by bisection on t = ln r.

        Solves -alpha*t + log1p(sign*a*sin t) = ln u on [0, t_hi] where the
        left side is decreasing; 90 halvings push the bracket error far
        below the double-precision noise floor of exp. sign may be a
        per-element array.
        """
        u = np.asarray(u, dtype=float)
        s = np.asarray(sign, dtype=float)
        log_u = np.log(u)
        lo = np.zeros_like(u)
        hi = (np.log1p(amplitude) - log_u) / alpha
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            val = -alpha * mid + np.log1p(s * amplitude * np.sin(mid))
            high_side = val > log_u
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
        return np.exp(0.5 * (lo + hi))

    def sample(self, rng, n):
        u = 1.0 - rng.random(n)  # in (0, 1]
        return self.inverse_tail(u, self.alpha, self.amplitude, float(self.sign))

    @property
    def tail_coefficient(self):
        return None

    def __repr__(self):
        return (f"OscillatingTailLaw(alpha={self.alpha}, a={self.amplitude}, "
                f"sign={self.sign:+d})")
