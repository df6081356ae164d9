"""Adaptive quadrature on an interval, in numpy, that knows where its
integrand is singular.

integrate() cuts [a, b] at its hints: angles c where the integrand behaves
like |t - c|^-s, with s = 0 at a jump or a kink. Each piece is covered by
the two halves that touch its ends, one row each. A row is QUADPACK's
21-point Kronrod rule, with its embedded 10-point Gauss rule for the error
estimate, unless its end has an order s in (0, 1): then it is a 21-node
Gauss-Jacobi rule for the weight u^-s, u the distance to the end, and the
gap to the 10-node rule. The weight is integrated exactly and the nodes
sample only the smooth factor, as in QUADPACK's QAWS (Piessens et al.,
1983); the rules come from the Jacobi recurrence (Golub & Welsch, 1969).
The worst rows are bisected until the estimates meet the tolerance.
"""

from __future__ import annotations

import functools

import numpy as np

from .sphere import TWO_PI

# QUADPACK qk21 on [0, 1]: the Kronrod abscissae, whose odd positions are
# the Gauss nodes, the Kronrod weights and the Gauss weights at those nodes
_XK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169])
_WG = np.zeros(11)
_WG[1::2] = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
             0.26926671930999635, 0.29552422471475287]
# the 21 nodes on [-1, 1] in increasing order, with both weight sets
_X21 = np.concatenate([-_XK[:-1], _XK[::-1]])
_WK21 = np.concatenate([_WK[:-1], _WK[::-1]])
_WG21 = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = float(np.finfo(float).eps)
EPSABS = 1e-13
EPSREL = 1e-12
# bisections allowed per integral
LIMIT = 200


@functools.lru_cache(maxsize=None)
def _jacobi_rule(s: float):
    """Nodes on [0, 1] of the 21-node, then the 10-node, Gauss rule for the
    weight x^-s, and each rule's weights at all 31 nodes (zero at the other
    rule's) times x^s, so that they apply to an integrand that behaves like
    x^-s. The nodes are the eigenvalues of the Jacobi matrix of the weight's
    recurrence, the weights the squared first components of its
    eigenvectors times the mass 1 / (1 - s). Built on first use.
    """
    rules = []
    for n in (21, 10):
        # the recurrence of (1 + y)^-s on [-1, 1], moved to x = (1 + y) / 2
        k = np.arange(1, n)
        m = 2.0 * k - s
        diag = np.concatenate(([-s / (2.0 - s)], s * s / (m * (m + 2.0))))
        off = k * (k - s) / (m * np.sqrt(m * m - 1.0))
        rules.append(np.linalg.eigh(np.diag(0.5 + 0.5 * diag) + np.diag(off, 1)
                                    + np.diag(off, -1)))
    (x21, v21), (x10, v10) = rules
    x = np.concatenate([x21, x10])
    scale = x ** s / (1.0 - s)
    return (x, np.concatenate([v21[0] ** 2, 0.0 * x10]) * scale,
            np.concatenate([0.0 * x21, v10[0] ** 2]) * scale)


def _rows(fn, anchor, sign, near, far, order):
    """Integrals, error estimates and at-floor flags over the intervals
    anchor + sign * [near, far], one per row, from one call of fn. Nodes
    are offsets from the anchor, so they keep their spacing near a hinted
    end. A row of order s > 0 has near = 0 and takes the Gauss-Jacobi rule;
    its estimate is floored at the rounding of its nodes, s * eps * |anchor|
    / u1 relative for the nearest node u1, which no split can undercut.
    """
    weighted = order > 0.0
    plain = ~weighted
    mid = 0.5 * (near[plain] + far[plain])
    half = 0.5 * (far[plain] - near[plain])
    t = anchor[plain, None] + sign[plain, None] * (mid[:, None] + half[:, None] * _X21)
    rules = [_jacobi_rule(s) for s in order[weighted].tolist()]
    x, wk, wg = (np.reshape([rule[i] for rule in rules], (-1, 31)) for i in range(3))
    length = far[weighted]
    tw = anchor[weighted, None] + sign[weighted, None] * length[:, None] * x
    f = np.asarray(fn(np.concatenate([t.ravel(), tw.ravel()])), dtype=float)
    f = np.broadcast_to(f, (t.size + tw.size,))
    fw = f[t.size:].reshape(tw.shape)
    f = f[:t.size].reshape(t.shape)

    res, err, floored = np.empty(order.shape), np.empty(order.shape), weighted.copy()
    kronrod = f @ _WK21
    # QUADPACK's estimate: the Kronrod-Gauss gap, scaled by the integrand's
    # spread about its mean and floored at the rounding of the sum
    gap = np.abs(kronrod - f @ _WG21) * half
    spread = np.abs(f - 0.5 * kronrod[:, None]) @ _WK21 * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5)
    res[plain] = kronrod * half
    err[plain] = np.maximum(np.where(spread > 0.0, scaled, gap),
                            50.0 * _EPS * (np.abs(f) @ _WK21) * half)

    res[weighted] = np.sum(fw * wk, axis=1) * length
    gap = np.abs(res[weighted] - np.sum(fw * wg, axis=1) * length)
    rounding = 50.0 + order[weighted] * np.abs(anchor[weighted]) / (length * x[:, 0])
    floor = rounding * _EPS * np.sum(np.abs(fw) * wk, axis=1) * length
    err[weighted] = np.maximum(gap, floor)
    floored[weighted] = gap <= floor
    return res, err, floored


def integrate(fn, a: float, b: float, hints=None) -> tuple[float, float]:
    """(value, abserr) of the integral of fn over [a, b].

    fn takes a 1-d array of angles and returns one value per angle. hints
    maps angles c to orders s: near c, fn behaves like |t - c|^-s. Interior
    hints cut [a, b], and an end is hinted when it equals a hint modulo
    2*pi (a cusp at 0 marks both ends of [0, 2*pi]). An end of order
    s <= 0 is only a cut, one of order s in (0, 1) takes the Gauss-Jacobi
    rule, and one of order 1 or more returns (inf, inf). abserr is the sum
    of the rows' error estimates.
    """
    hints = hints or {}
    # of angles equal modulo 2*pi, the largest order counts
    wrapped = {float(c) % TWO_PI: float(s)
               for c, s in sorted(hints.items(), key=lambda cs: cs[1])}
    edges = [float(a)] + sorted({float(c) for c in hints if a < c < b}) + [float(b)]
    ends = [max(wrapped.get(e % TWO_PI, 0.0), 0.0) for e in edges]
    if max(ends) >= 1.0:
        return np.inf, np.inf
    # each piece's two halves, anchored at its ends
    anchor, order = (np.column_stack([v[:-1], v[1:]]).ravel()
                     for v in (np.array(edges), np.array(ends)))
    sign = np.tile([1.0, -1.0], len(edges) - 1)
    far = np.repeat(0.5 * np.diff(edges), 2)
    near = np.zeros_like(far)
    res, err, floored = _rows(fn, anchor, sign, near, far, order)

    splits = 0
    while splits < LIMIT:
        total_err = float(np.sum(err))
        tol = max(EPSABS, EPSREL * abs(float(np.sum(res))))
        # rows at their rounding floor cannot improve; the others meet tol
        floors = float(np.sum(err[floored]))
        if total_err - floors <= tol:
            break
        # rows whose nodes still differ from their neighbours' in double
        splittable = ~floored & (far - near > 64.0 * _EPS * (np.abs(anchor) + far))
        worst = np.argsort(np.where(splittable, -err, np.inf), kind="stable")
        # the fewest worst rows whose errors cover the excess over tol
        take = int(np.searchsorted(np.cumsum(err[worst]),
                                   total_err - floors - 0.5 * tol)) + 1
        take = min(take, LIMIT - splits, int(np.count_nonzero(splittable)))
        if take <= 0:
            break
        pick, rest = worst[:take], worst[take:]
        cut = 0.5 * (near[pick] + far[pick])
        # a weighted row's weight stays on the half that touches its end
        new = (np.tile(anchor[pick], 2), np.tile(sign[pick], 2),
               np.concatenate([near[pick], cut]), np.concatenate([cut, far[pick]]),
               np.concatenate([order[pick], np.zeros(take)]))
        new += _rows(fn, *new)
        anchor, sign, near, far, order, res, err, floored = (
            np.concatenate([old[rest], part]) for old, part in
            zip((anchor, sign, near, far, order, res, err, floored), new))
        splits += take
    return float(np.sum(res)), float(np.sum(err))
