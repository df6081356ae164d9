"""Exact "%.17g" text of float64 arrays, computed with array arithmetic.

CPython's correctly rounded `'%.17g' % v` runs once per value in the
interpreter. `format_rows` gives the same bytes for a whole block at once.
Each finite nonzero |x| = f * 2**e, with f an integer in [2**52, 2**53),
has decimal exponent X = floor(log10 |x|) and 17-digit significand
N = round(|x| * 10**(16 - X)), rounded half to even as CPython does. N is
found without division:

- For each binary exponent e, exact Python-int arithmetic gives the two
  exponents X that f * 2**e can have, the integer f at which X steps up,
  and each scale 10**(16 - X) * 2**e as a double-double hi + lo. These
  rows are built on first use and memoized per exponent, never at import.
- f * hi is taken exactly as p + err by Dekker's TwoProduct (numpy has no
  fused multiply-add), so the scaled value f * scale is p + (err + f * lo)
  up to an error below 2**-47 (see `format_rows`). p is an integer-valued
  double above 2**53, so N is p plus the rounded small remainder.

A value whose remainder lies within 2**-30 of a rounding tie, zeros and
non-finite values are formatted one at a time by `'%.17g' %`, so every
output byte is CPython's. The digits are then laid out by printf's %g
rules: fixed notation for -4 <= X < 17, otherwise d.ddd followed by
e+XX or e+XXX, with trailing zeros and a bare '.' stripped.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# f * 2**e with f in [2**52, 2**53): e runs from -1126 (the smallest
# subnormal, 2**-1074) to 971 (the largest double); e + _BIAS indexes a row
_BIAS = 1126
_N_EXP = 2098
_SPLIT = 2.0 ** 27 + 1   # Veltkamp's constant: splits a double into 26-bit halves
_TIE = 2.0 ** -30        # remainders this close to 1/2 go to '%.17g' %

# A value's text is laid out in five 8-byte words: sign and "0.000" (for
# -4 <= X < 0), then 24 bytes for 17 digits and a '.', then "e-308" and the
# separator. Unused bytes hold NUL, and joining a block drops them.
_WORDS = 5
_X_MIN = -324            # decimal exponents run from -324 to 308
_N_X = 633


def _pow2_at_least_pow10(a: int, x: int) -> bool:
    """2**a >= 10**x, exactly."""
    return (2 ** max(a, 0) * 10 ** max(-x, 0)
            >= 10 ** max(x, 0) * 2 ** max(-a, 0))


def _double_double(p10: int, e: int) -> tuple[float, float]:
    """(hi, lo): hi is the double nearest 10**p10 * 2**e, lo the one nearest
    the rest. Python's int / int is correctly rounded."""
    num = 10 ** max(p10, 0) * 2 ** max(e, 0)
    den = 10 ** max(-p10, 0) * 2 ** max(-e, 0)
    hi = num / den
    p, q = hi.as_integer_ratio()
    return hi, (num * q - p * den) / (den * q)


@functools.cache
def _scale_row(e: int) -> tuple[float, ...]:
    """Decimal exponents and scales of f * 2**e for f in [2**52, 2**53).

    Returns (x, t, hi, lo, hi_hi, hi_lo, then the same four for x + 1):
    floor(log10(f * 2**e)) is x for f < t and x + 1 for f >= t, and each
    scale 10**(16 - X) * 2**e is hi + lo with hi split as hi_hi + hi_lo.
    """
    a = e + 52
    x = math.floor(a * math.log10(2))
    while not _pow2_at_least_pow10(a, x):
        x -= 1
    while _pow2_at_least_pow10(a, x + 1):
        x += 1
    # smallest f with f * 2**e >= 10**(x + 1), at most 2**53 (never reached)
    num = 10 ** max(x + 1, 0) * 2 ** max(-e, 0)
    den = 10 ** max(-x - 1, 0) * 2 ** max(e, 0)
    row = [float(x), float(min(-(-num // den), 2 ** 53))]
    for exponent in (x, x + 1):
        hi, lo = _double_double(16 - exponent, e)
        c = _SPLIT * hi
        hi_hi = c - (c - hi)
        row += [hi, lo, hi_hi, hi - hi_hi]
    return tuple(row)


def _words(texts, end: int = 8) -> np.ndarray:
    """Each text ending at byte end of a NUL-padded 8-byte word, as uint64."""
    padded = (t.encode("ascii").rjust(end, b"\0").ljust(8, b"\0")
              for t in texts)
    return np.frombuffer(b"".join(padded), np.uint64)


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """Digit and layout lookup tables, built on first use.

    group: "0000".."9999" as 4-byte words; tz4: the trailing zeros of each
    (4 for 0000). With i = X - _X_MIN: cut[i] is where the '.' goes in the
    digits (X + 1 in fixed notation, 1 in exponent notation, 0 when all
    digits follow "0.000"); prefix[neg * _N_X + i] is the sign and the
    "0.000" word, suffix[i] the "e-308" word. For index cut * 18 + keep,
    with digits D[0..16], body byte c is D[c] where lead[c], '.' where
    dot[c] and D[c - 1] where tail[c]: cut digits, then '.' and the digits
    from cut to keep - 1 when keep > cut.
    """
    group = np.arange(10_000)
    x = np.arange(_X_MIN, _X_MIN + _N_X)
    fixed = (x >= -4) & (x < 17)
    c = np.arange(24)
    cut = np.repeat(np.arange(18), 18)[:, None]
    keep = np.tile(np.arange(18), 18)[:, None]

    def bytes_where(mask, value=0xFF):
        return (mask * np.uint8(value)).view(np.uint64)

    return {
        "group": np.frombuffer(
            "".join(f"{i:04d}" for i in group).encode("ascii"), np.uint32),
        "tz4": sum((group % 10 ** k == 0).astype(np.uint8) for k in range(1, 5)),
        "cut": np.where(fixed, np.maximum(x + 1, 0), 1),
        "prefix": _words(sign + ("0." + "0" * (-i - 1) if -4 <= i < 0 else "")
                         for sign in ("", "-") for i in x),
        "suffix": _words(("" if -4 <= i < 17 else f"e{i:+03d}" for i in x), 7),
        "lead": bytes_where(c < cut),
        "dot": bytes_where((c == cut) & (keep > cut), ord(".")),
        "tail": bytes_where((c > cut) & (c <= keep)),
    }


def _significands(a: np.ndarray):
    """(N, X, tie) for finite positive a: a rounded to 17 significant digits
    is N * 10**(X - 16) with 10**16 <= N < 10**17, and tie marks the values
    whose remainder lies within _TIE of 1/2."""
    mant, k = np.frexp(a)
    f = mant * 2.0 ** 53
    eb = k + (_BIAS - 53)
    present = np.flatnonzero(np.bincount(eb, minlength=_N_EXP))
    scales = np.zeros((_N_EXP, 10))
    scales[present] = [_scale_row(int(i) - _BIAS) for i in present]
    up = f >= np.take(scales[:, 1], eb)
    exponent = np.take(scales[:, 0], eb).astype(np.int64) + up
    # columns 2 + i and 6 + i hold the same factor for X = x and x + 1
    pick = 2 * eb + up
    hi, lo, hi_hi, hi_lo = (np.take(scales[:, 2 + i::4].ravel(), pick)
                            for i in range(4))
    # TwoProduct: f * hi == p + err exactly, as both splits are exact
    p = f * hi
    c = _SPLIT * f
    f_hi = c - (c - f)
    f_lo = f - f_hi
    err = ((f_hi * hi_hi - p) + f_hi * hi_lo + f_lo * hi_hi) + f_lo * hi_lo
    rest = err + f * lo
    whole = np.floor(rest)
    frac = rest - whole
    n = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = n == 10 ** 17  # 99999999999999999.5 and up: one more digit
    n[carry] = 10 ** 16
    return n, exponent + carry, np.abs(frac - 0.5) < _TIE


def _digits(n: np.ndarray, t: dict):
    """ASCII digits of n in [10**16, 10**17) and their count without
    trailing zeros. The two (len(n), 3) uint64 arrays hold the 17 digits in
    24 bytes each, NUL-padded, from byte 0 and from byte 1."""
    lead = n // 10
    last = n - lead * 10
    top = lead // 10 ** 8
    groups = []
    for half in (top, lead - top * 10 ** 8):
        q = half // 10_000
        groups += [q, half - q * 10_000]
    d0 = np.zeros((n.size, 6), np.uint32)
    for k, g in enumerate(groups):
        d0[:, k] = t["group"][g]
    d0 = d0.view(np.uint8)
    d0[:, 16] = last + ord("0")
    d1 = np.zeros_like(d0)
    d1[:, 1:18] = d0[:, :17]
    # trailing zeros, counted only where the last digit is 0
    significant = np.full(n.size, 17)
    j = np.flatnonzero(last == 0)
    tz = np.zeros(j.size, np.int64)
    for g in groups:
        g = g[j]
        tz = np.where(g == 0, tz + 4, t["tz4"][g])
    significant[j] = 16 - tz
    return d0.view(np.uint64), d1.view(np.uint64), significant


def format_rows(block: np.ndarray) -> bytes:
    """CSV text of a (rows, d) float64 block: each value as '%.17g' % v,
    values joined by ',' and each row ended by '\\n'.

    Error bound. The scale 10**(16 - X) * 2**e lies in (1.1, 22.3), so its
    low part |lo| <= 2**-49 and hi + lo is within 2**-102 of it; f < 2**53
    makes that an absolute error below 2**-49 on the scaled value
    f * scale in [10**16, 10**17). f * lo, at most 16, is rounded to within
    2**-49, err is exact and at most 8, and err + f * lo, below 32, is
    rounded to within 2**-49. The remainder is thus off by less than
    2**-47, well below 2**-40, and every value whose remainder is 2**-30 or
    more away from 1/2 rounds as the exact product does. Values nearer a
    tie, exact ties among them, are formatted by '%.17g' % v.
    """
    rows, d = block.shape
    v = block.ravel()
    a = np.abs(v)
    slow = ~((a > 0) & (a < np.inf))  # zeros and non-finite values
    a[slow] = 1.0
    n, x, tie = _significands(a)
    slow |= tie
    t = _tables()
    d0, d1, significant = _digits(n, t)

    # digits shown: the significant ones, and any zeros before the '.';
    # after "0.000" (cut 0) all of them stand in front of the cut
    i = x - _X_MIN
    cut = np.take(t["cut"], i)
    keep = np.maximum(significant, cut)
    pick = np.where(cut == 0, keep * 19, cut * 18 + keep)

    out = np.empty((v.size, _WORDS), np.uint64)
    out[:, 0] = np.take(t["prefix"], i + _N_X * (v < 0))
    out[:, 1:4] = ((d0 & np.take(t["lead"], pick, axis=0))
                   | (d1 & np.take(t["tail"], pick, axis=0))
                   | np.take(t["dot"], pick, axis=0))
    out[:, 4] = np.take(t["suffix"], i)
    text = out.view(np.uint8)
    for j in np.flatnonzero(slow):
        value = ("%.17g" % v[j]).encode("ascii")
        text[j, :-1] = 0
        text[j, :len(value)] = np.frombuffer(value, np.uint8)
    seps = text.reshape(rows, d, 8 * _WORDS)[:, :, -1]
    seps[:] = ord(",")
    seps[:, -1] = ord("\n")
    flat = text.ravel()
    return flat[flat != 0].tobytes()
