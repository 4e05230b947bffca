"""Exact %.17g formatting of float blocks with numpy.

format_rows gives, byte for byte, what joining "%.17g" % v with "," and
"\\n" gives, without a Python call per value.  Each |x| is scaled by a power
of ten so that the exact x 10^k = p + r, p = fl(x hi) and r its exact
product error (Dekker's TwoProduct) plus x lo, lies in [10^16, 10^17); its
17 significant digits are then the nearest integer to p + r.  10^k = hi + lo
comes from integer arithmetic, and r is off from the exact remainder by far
less than _MARGIN, so a value is formatted here only where that rounding is
decided.  NaN, inf, the extremes of the double range, decimal ties, and
powers of ten and their neighbours, where p + r comes within _MARGIN of
10^16 or log10 misses by one, go through _fallback.  The text is laid out
in one fixed-width row per value, and the unused bytes are dropped.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .decoherence import _product_error, _veltkamp_split

# values of magnitude in (_LOW, _HIGH) are formatted here, whose
# k = 16 - floor(log10 |x|) lies in [_K_MIN, _K_MAX] with room to spare
_LOW, _HIGH = 1e-280, 1e280
_K_MIN, _K_MAX = -265, 298
# a scaled value this close to a tie or to 10^16 goes through _fallback
_MARGIN = 1e-6
# one row of 48 bytes per value, six uint64 words: sign, the "0.000" of fixed
# notation below one, the first digit and a decimal point; four words of four
# digits, each followed by a decimal-point slot; "e", the exponent's sign and
# three digits, the "," or "\n" that ends the value, and two unused bytes
_WIDTH, _DIGITS, _EXP = 48, 6, 40
_EXPONENTS = 400  # |exponent| < _EXPONENTS in the tail table
# the bytes a value keeps depend on its layout: its sign; its class, 0 to 20
# for the exponents -4 to 16 that %g writes in fixed notation, 21 and 22 for
# scientific notation with two and three exponent digits; and its digit
# count, 1 to 17, once trailing zeros are stripped
_LAYOUTS = 2 * 23 * 17


def _words(text: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(text), dtype=np.uint64)


@cache
def _tables():
    """(hi, split of hi, lo) of 10^k for k in [_K_MIN, _K_MAX]; the first, the
    four-digit and the last words of a row; the trailing zeros of 0000 to
    9999; and the masks of _masks."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p, q = 10 ** max(k, 0), 10 ** max(-k, 0)
        h = p / q  # int / int rounds correctly
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((p * den - num * q) / (q * den))  # 10^k - h, rounded
    hi, lo = np.array(hi), np.array(lo)
    head = _words([b"-0.000%d." % d for d in range(10)])
    exps = range(-_EXPONENTS, _EXPONENTS)
    tail = _words([b"e%+04d%c\0\0" % (e, sep) for e in exps for sep in b",\n"])
    group = np.arange(10000, dtype=np.uint16)[:, None]
    quad = np.full((10000, 8), ord("."), dtype=np.uint8)
    quad[:, ::2] = group // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10 + ord("0")
    zeros = (group % np.array([10, 100, 1000, 10000], dtype=np.uint16) == 0).sum(axis=1)
    return hi, _veltkamp_split(hi), lo, head, quad.view(np.uint64).ravel(), tail, zeros, _masks()


def _masks():
    """Per word of a row and layout (sign, class, digits - 1), the mask of
    the bytes the word keeps."""
    sign, cls, n_digits = np.unravel_index(np.arange(_LAYOUTS), (2, 23, 17))
    n_digits = n_digits + 1
    sci = cls >= 21
    exp = np.where(sci, 0, cls - 4)
    column = np.arange(17)
    keep = np.zeros((_LAYOUTS, _WIDTH), dtype=bool)
    keep[:, 0] = sign
    below_one = np.where(~sci & (exp < 0), 1 - exp, 0)  # "0." and -exp - 1 zeros
    keep[:, 1:_DIGITS] = column[:5] < below_one[:, None]
    whole = np.where(sci, 0, exp + 1)
    keep[:, _DIGITS : _EXP - 1 : 2] = column < np.maximum(n_digits, whole)[:, None]
    before_point = np.where(sci, 1, whole)
    point = np.where(n_digits > before_point, before_point, 0)
    keep[:, _DIGITS + 1 : _EXP - 1 : 2] = column[1:] == point[:, None]
    keep[:, _EXP : _EXP + 2] = sci[:, None]
    keep[:, _EXP + 2] = cls == 22  # three exponent digits
    keep[:, _EXP + 3 : _EXP + 5] = sci[:, None]
    keep[:, _EXP + 5] = True
    return (keep.astype(np.uint8) * 0xFF).view(np.uint64).T.copy()


def _fallback(value: float) -> bytes:
    return b"%.17g" % value


def _digits(x: np.ndarray):
    """The first digit, the four groups of four digits after it and the
    decimal exponent of x's 17 significant digits, and where they fall back;
    zero, and each value that falls back, gets the digits and exponent of 0."""
    hi, (hi_hi, hi_lo), lo, *_ = _tables()
    a = np.abs(x)
    fast = (a > _LOW) & (a < _HIGH)  # False for 0, NaN, inf
    a[~fast] = 1.0
    k = 16 - np.floor(np.log10(a)).astype(np.intp)
    i = k - _K_MIN
    p = a * hi[i]
    r = _product_error(_veltkamp_split(a), (hi_hi[i], hi_lo[i]), p)
    r += a * lo[i]
    # the digits stand where 10^16 <= p + r < 10^17, which log10 can miss by
    # one next to a power of ten, and where p + r is no tie
    low = (p - 1e16) + r
    whole = np.floor(r)
    r -= whole
    digits = p.astype(np.int64) + whole.astype(np.int64) + (r > 0.5)
    slow = ~fast | (low < _MARGIN) | (digits >= 10**17) | (np.abs(r - 0.5) < _MARGIN)
    exp = 16 - k
    digits[slow] = 0
    exp[slow] = 0
    top = digits // 10**8
    bottom = digits - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    upper, lower = top // 10**4, bottom // 10**4
    groups = (upper, top - upper * 10**4, lower, bottom - lower * 10**4)
    return first, groups, exp, slow & (x != 0.0)


def format_rows(block: np.ndarray) -> bytearray:
    """The rows of the 2-D float block as "%.17g" values joined by "," and
    ended by "\\n"."""
    *_, head, quad, tail, zeros, masks = _tables()
    x = block.ravel()
    first, groups, exp, slow = _digits(x)
    # the digit count once trailing zeros are stripped is 17 - trailing
    trailing = zeros[groups[3]]
    run = groups[3] == 0
    for g in groups[2::-1]:
        trailing += run * zeros[g]
        run &= g == 0
    sci = (exp < -4) | (exp >= 17)
    cls = np.where(sci, 21 + (np.abs(exp) >= 100), exp + 4)
    layout = (np.signbit(x) * 23 + cls) * 17 + (16 - trailing)
    ends = 2 * (exp + _EXPONENTS)
    ends[block.shape[1] - 1 :: block.shape[1]] += 1  # "\n" in place of ","
    text = bytearray(x.size * _WIDTH)
    rows = np.frombuffer(text, dtype=np.uint64).reshape(x.size, _WIDTH // 8)
    words = zip((head, quad, quad, quad, quad, tail), (first, *groups, ends))
    for j, (table, index) in enumerate(words):
        np.bitwise_and(table[index], masks[j][layout], out=rows[:, j])
    rows = rows.view(np.uint8)
    for i in np.flatnonzero(slow):
        fallback = _fallback(float(x[i]))
        rows[i, : _EXP + 5] = 0
        rows[i, : len(fallback)] = np.frombuffer(fallback, dtype=np.uint8)
    return text.translate(None, b"\0")
