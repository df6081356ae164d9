"""Radial laws: distributions of the norm, with exact tail functions.

Each law exposes tail(r) = P{R > r}, a sampler, and, when the tail is
exactly of power type, the coefficient
c = lim r^alpha * P{R > r} (None when the limit does not exist).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConstruction, InvalidParameter, positive_finite


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
            raise InvalidParameter("tail coefficient must lie in (0, 1]")
        self.coef = float(tail_coef)

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
            raise InvalidParameter(f"amplitude must lie in (0, 1), got {amplitude!r}")
        if isinstance(sign, bool) or sign not in (-1, +1):
            raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
        self.amplitude = float(amplitude)
        self.sign = int(sign)
        if self.amplitude / np.sqrt(1.0 - self.amplitude ** 2) > self.alpha:
            raise InvalidConstruction(
                f"amplitude {amplitude} makes the tail non-monotone for "
                f"alpha {alpha} (needs a / sqrt(1 - a^2) <= alpha)")
        # density_ratio's amplitude factor and phase
        self._rho = np.sqrt(1.0 + self.alpha ** -2)
        self._phase = np.arctan2(1.0, self.alpha)

    def tail(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            mod = 1.0 + self.sign * self.amplitude * np.sin(np.log(r))
            out = np.minimum(1.0, r ** -self.alpha * mod)
        out = np.where(r <= 1.0, 1.0, out)
        return float(out) if out.ndim == 0 else out

    def density_ratio(self, r):
        """The law's density relative to Pareto(alpha) at r >= 1.

        The tail r^-alpha * (1 + s*a*sin(ln r)), s = sign, has density
        alpha * r^(-alpha - 1) * (1 + s*m(r)), m(r) = a*(sin(ln r) -
        cos(ln r)/alpha) = a*rho*sin(ln r - phi), rho = sqrt(1 + alpha^-2)
        and phi = atan2(1, alpha), so the ratio is 1 + s*m(r), one sine per
        r. It differs from the sine-and-cosine form by rounding, mostly
        that of ln r - phi: below 5e-16 * (1 + ln r) over alpha in
        [0.05, 100]. It lies in [0, bound], bound = 1 + a*rho, and
        bound <= 2 is the monotonicity check a/sqrt(1 - a^2) <= alpha
        rewritten. At r = inf it is NaN.
        """
        with np.errstate(invalid="ignore"):
            m = np.sin(np.log(r) - self._phase)
        m *= self.sign * self.amplitude * self._rho
        m += 1.0
        return m

    @staticmethod
    def inverse_tail(u, alpha, amplitude, sign):
        """Solve P{R > r} = u for r, by 90 halvings of a bracket of t = ln r.

        g(t) = -alpha*t + log1p(s*a*sin t) - ln u, s = sign, is
        nonincreasing, g(0) = -ln u >= 0, and g <= 0 at
        t = (log1p(a) - ln u)/alpha, so [0, that t] holds the root; 90
        halvings shrink it below the spacing of doubles. u and sign may be
        scalars or arrays; each draw is solved from its own u and sign.
        """
        log_u = np.log(u)
        sa = np.asarray(sign, dtype=float) * amplitude
        lo = np.zeros(np.broadcast_shapes(np.shape(log_u), np.shape(sa)))
        hi = lo + (np.log1p(amplitude) - log_u) / alpha
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            high_side = -alpha * mid + np.log1p(sa * np.sin(mid)) > log_u
            lo = np.where(high_side, mid, lo)
            hi = np.where(high_side, hi, mid)
        return np.exp(0.5 * (lo + hi))[()]

    def sample(self, rng, n):
        """Pareto(alpha) draws thinned by density_ratio / bound (rejection
        sampling; Devroye 1986, II.3): each round keeps at least half of its
        proposals, and rounds repeat until n are kept. An overflowed,
        infinite proposal has a NaN ratio and is kept, so that the infinite
        norm raises where the batch is built rather than the law being
        conditioned on finite draws."""
        proposal = ParetoLaw(self.alpha)
        bound = 1.0 + self.amplitude * self._rho
        out = np.empty(n)
        done = 0
        while done < n:
            r = proposal.sample(rng, n - done)
            ratio = self.density_ratio(r)
            u = rng.random(r.size)
            u *= bound
            keep = ~(u > ratio)  # a NaN ratio compares false: kept
            kept = done + np.count_nonzero(keep)
            np.compress(keep, r, out=out[done:kept])
            done = kept
        return out

    @property
    def tail_coefficient(self):
        return None

    def __repr__(self):
        return (f"OscillatingTailLaw(alpha={self.alpha}, a={self.amplitude}, "
                f"sign={self.sign:+d})")
