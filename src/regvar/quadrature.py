"""Adaptive Gauss-Kronrod quadrature on an interval, in numpy.

integrate() evaluates QUADPACK's 21-point Kronrod rule, with its embedded
10-point Gauss rule for the error estimate, on every node of every live
interval in one call of the integrand. The interval is cut at the interior
hints (angles where the integrand jumps or blows up). Between hints the
pieces are refined by bisection. Toward each hinted end a piece is split
into geometric shells of width 1/2, 1/4, ... of its half; their integrals
T_0, T_1, ... are summed and the remainder beyond the last shell is
extrapolated by Wynn's epsilon algorithm (Wynn, 1956), as QUADPACK's QAGS
does for end-point singularities (Piessens et al., 1983). A power cusp
|t - c|^-s gives shells in the ratio 2^(s - 1), so a last ratio
T_k / T_{k-1} of one or more means the integral diverges.
"""

from __future__ import annotations

import numpy as np

from .sphere import TWO_PI

# QUADPACK qk21: Kronrod abscissae on [0, 1] (odd positions are the Gauss
# nodes), Kronrod weights and the 10-point Gauss weights at those nodes
_XK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980519178, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0])
# the 21 nodes on [-1, 1] in increasing order, with both weight sets
_X21 = np.concatenate([-_XK[:-1], _XK[::-1]])
_WK21 = np.concatenate([_WK[:-1], _WK[::-1]])
_WG21 = np.concatenate([_WG[:-1], _WG[::-1]])

_EPS = float(np.finfo(float).eps)
EPSABS = 1e-13
EPSREL = 1e-12
# bisections allowed per integral
LIMIT = 200
SHELLS = 22


def _kronrod(fn, anchor, sign, near, far):
    """Integrals and error estimates over the intervals
    anchor + sign * [near, far], one per row, from one call of fn.

    Nodes are offsets from the anchor, so shells toward a hinted end keep
    their relative spacing however close they come to it.
    """
    mid = 0.5 * (near + far)
    half = 0.5 * (far - near)
    t = anchor[:, None] + sign[:, None] * (mid[:, None] + half[:, None] * _X21)
    f = np.broadcast_to(np.asarray(fn(t.ravel()), dtype=float), (t.size,))
    f = f.reshape(t.shape)
    kronrod = f @ _WK21
    # QUADPACK's estimate: the Kronrod-Gauss gap, scaled by the integrand's
    # spread about its mean and floored at the rounding of the sum
    gap = np.abs(kronrod - f @ _WG21) * half
    spread = np.abs(f - 0.5 * kronrod[:, None]) @ _WK21 * half
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * gap / spread) ** 1.5)
    err = np.where(spread > 0.0, scaled, gap)
    err = np.maximum(err, 50.0 * _EPS * (np.abs(f) @ _WK21) * half)
    return kronrod * half, err


def _wynn(partial: np.ndarray):
    """(limits, errors) of sequences of partial sums, one per row, by
    Wynn's epsilon algorithm.

    Each even column of the epsilon table is a sequence of extrapolants;
    a row's answer is the later of the two neighbours, in the back half of
    the sequence, that differ least, and their difference is the error.
    The deepest shells carry the most rounding in their node positions,
    so the closest pair beats the last one. A zero difference makes the
    next entries infinite or NaN, and those are never chosen.
    """
    rows, k = partial.shape
    best = partial[:, -1]
    err = np.abs(partial[:, -1] - partial[:, -2])
    prev, cur = np.zeros((rows, k + 1)), partial
    every = np.arange(rows)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(1, k - 1):
            prev, cur = cur, prev[:, 1:cur.shape[1]] + 1.0 / np.diff(cur, axis=1)
            if col % 2:
                continue
            gaps = np.abs(np.diff(cur, axis=1))
            # entry i of column col extrapolates partial[:, i:i + col + 1]
            gaps[:, :max(0, k // 2 - col - 1)] = np.inf
            gaps[~np.isfinite(gaps)] = np.inf
            i = np.argmin(gaps, axis=1)
            closer = gaps[every, i] < err
            best = np.where(closer, cur[every, i + 1], best)
            err = np.where(closer, gaps[every, i], err)
    return best, err


def integrate(fn, a: float, b: float, hints=()) -> tuple[float, float]:
    """(value, abserr) of the integral of fn over [a, b].

    fn takes a 1-d array of angles and returns one value per angle.
    Interior hints cut [a, b]; an end is hinted when it is an interior
    hint or equals a hint modulo 2*pi (a cusp at 0 marks both ends of
    [0, 2*pi]). A divergent shell sequence returns (inf, inf).

    abserr is an estimate, not a bound. Near a cusp under a non-constant
    factor it can be an order of magnitude low: for
    (1 + 0.5 cos t) |t - 3|^-0.99 / (2*pi) on [0, 2*pi] it reads 1.2e-11
    relative against a true error of 1.2e-10.
    """
    wrapped = {float(h) % TWO_PI for h in hints}
    inner = sorted({float(h) for h in hints if a < h < b})
    edges = [float(a)] + inner + [float(b)]
    hinted = [0 < i < len(edges) - 1 or e % TWO_PI in wrapped
              for i, e in enumerate(edges)]
    depth = 0.5 ** np.arange(SHELLS + 1)
    anchor, sign, near, far, shell = [], [], [], [], []
    groups = 0
    for i in range(len(edges) - 1):
        half = 0.5 * (edges[i + 1] - edges[i])
        for end, direction, is_hinted in ((edges[i], 1.0, hinted[i]),
                                          (edges[i + 1], -1.0, hinted[i + 1])):
            if is_hinted:
                anchor += [end] * SHELLS
                sign += [direction] * SHELLS
                near += list(half * depth[1:])
                far += list(half * depth[:-1])
                shell += list(range(groups * SHELLS, (groups + 1) * SHELLS))
                groups += 1
            else:
                anchor.append(end)
                sign.append(direction)
                near.append(0.0)
                far.append(half)
                shell.append(-1)
    anchor, sign, near, far, shell = (np.asarray(v) for v in
                                      (anchor, sign, near, far, shell))
    res, err = _kronrod(fn, anchor, sign, near, far)

    splits = 0
    while splits < LIMIT:
        total_err = float(np.sum(err))
        tol = max(EPSABS, EPSREL * abs(float(np.sum(res))))
        if total_err <= tol:
            break
        # intervals whose nodes still differ from their neighbours' in double
        splittable = far - near > 64.0 * _EPS * (np.abs(anchor) + far)
        order = np.argsort(np.where(splittable, -err, np.inf), kind="stable")
        # the fewest worst intervals whose errors cover the excess over tol
        take = int(np.searchsorted(np.cumsum(err[order]), total_err - 0.5 * tol)) + 1
        take = min(take, LIMIT - splits, int(np.count_nonzero(splittable)))
        if take <= 0:
            break
        pick = order[:take]
        rest = order[take:]
        cut = 0.5 * (near[pick] + far[pick])
        new = (np.tile(anchor[pick], 2), np.tile(sign[pick], 2),
               np.concatenate([near[pick], cut]), np.concatenate([cut, far[pick]]))
        new_res, new_err = _kronrod(fn, *new)
        anchor, sign, near, far = (np.concatenate([old[rest], part])
                                   for old, part in zip((anchor, sign, near, far), new))
        shell = np.concatenate([shell[rest], np.tile(shell[pick], 2)])
        res = np.concatenate([res[rest], new_res])
        err = np.concatenate([err[rest], new_err])
        splits += take

    plain = shell < 0
    value = float(np.sum(res[plain]))
    abserr = float(np.sum(err))
    if groups:
        sums = np.bincount(shell[~plain], weights=res[~plain],
                           minlength=groups * SHELLS).reshape(groups, SHELLS)
        ratio = np.divide(sums[:, -1], sums[:, -2], out=np.zeros(groups),
                          where=sums[:, -2] != 0.0)
        if np.any(ratio >= 1.0):
            return np.inf, np.inf
        limits, limit_errs = _wynn(np.cumsum(sums, axis=1))
        for limit, limit_err in zip(limits.tolist(), limit_errs.tolist()):
            value += limit
            abserr += limit_err
    return value, abserr
