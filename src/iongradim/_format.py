"""'{:.15e}' for a whole float64 array at once, byte for byte.

`e15_words` writes each value's text into 24 bytes, six native uint32 words,
from lookup tables, and marks the values whose text it cannot prove, which
the caller formats with str.format. It lives apart from `cli`, which lays the
words out as table rows, so that neither module is large to parse.
"""

from __future__ import annotations

import numpy as np

# A long double with at least 64 significant bits carries the proof in
# e15_words; with fewer (where long double is double) no caller may use it.
LONG_DOUBLE_OK = np.finfo(np.longdouble).nmant >= 63
CHUNK_CELLS = 1 << 15             # bounds the kernel's temporaries to a few MB
TIE_MARGIN = 2.0 ** -8            # delta in e15_words
# The doubles in [1e-99, 1e100) are those with a 2-digit decimal exponent:
# 1e-99 rounds up from 10^-99 and 1e100 is the double next above 10^100.
SMALLEST, PAST_LARGEST = 1e-99, 1e100
K_OFFSET = 101                    # table index of the exponent k is k + K_OFFSET


def ascii_words(codes) -> np.ndarray:
    """Rows of 4 ASCII codes as native uint32 words, so one gather writes 4 bytes."""
    return np.ascontiguousarray(codes, np.uint8).view(np.uint32).ravel()


def _decimal_codes(places: int) -> np.ndarray:
    """Row i: the ASCII codes of i's decimal digits, zero-padded to `places`."""
    return np.indices((10,) * places, np.uint8).reshape(places, -1).T + ord("0")


def _digit_tables():
    """Lookup tables of e15_words, about 48 KB in all, built with numpy.

    10^(15-k) for each exponent k from -K_OFFSET to K_OFFSET is parsed from
    its decimal text by strtold, so each power is the long double nearest
    the exact one. The word tables fill a cell's 24 bytes, six native uint32
    words: [lead, lead, sign, d0] [".", d1, d2, d3] [d4-d7] [d8-d11]
    [d12-d15] ["e", exponent sign, exponent tens, exponent units].
    """
    ks = np.arange(-K_OFFSET, K_OFFSET + 1)
    powers = np.array([f"1e{15 - k}" for k in ks.tolist()], dtype=np.longdouble)
    nul = np.zeros(20, np.uint8)
    sign = np.repeat(np.array([0, ord("-")], np.uint8), 10)
    sign_lead = ascii_words(np.column_stack([nul, nul, sign,
                                             np.tile(_decimal_codes(1)[:, 0], 2)]))
    dot3 = ascii_words(np.column_stack([np.full(1000, ord("."), np.uint8), _decimal_codes(3)]))
    four = ascii_words(_decimal_codes(4))
    exponent = ascii_words(np.column_stack(
        [np.full(ks.size, ord("e"), np.uint8), np.where(ks < 0, ord("-"), ord("+")),
         _decimal_codes(3)[np.abs(ks), 1:]]))
    return powers, sign_lead, dot3, four, exponent


POWERS, SIGN_LEAD, DOT3, FOUR, EXPONENT = _digit_tables()


def e15_words(values: np.ndarray, out: np.ndarray | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    """'{:.15e}' of each float64 as six uint32 words of ASCII, and where it is not proven.

    Returns (words, fallback): words is out, an (n, 6) uint32 array that may
    be a view of columns of a wider one (a table's cell buffer), or a new
    one without out. words[i] holds the bytes of
    '{:.15e}'.format(values[i]) laid out as in _digit_tables, with NUL in the
    two lead bytes and in the sign byte of a nonnegative value, wherever
    fallback[i] is False. Where fallback[i] is True the words are not the
    value's text and the caller must format it with str.format.

    For finite nonzero |x| with decimal exponent k (10^k <= |x| < 10^(k+1)),
    the 16 digits are N = round(|x| * 10^(15-k)), half to even; N = 10^16
    means the digits 1000000000000000 at exponent k+1. The kernel estimates
    k = floor(log10 |x|), computes y = |x| * P in long double, P the power
    from _digit_tables, and moves k by one if round(y) falls outside
    [10^15, 10^16). log10 is only an estimate: every k it gives is checked.

    Error bound. With p >= 64 significant bits, u = 2^-p <= 2^-64 and P =
    10^(15-k) (1 + e1), |e1| <= u (strtold rounds correctly); |x| is exact
    in long double and the product rounds once: y = t (1 + e1)(1 + e2) with
    t = |x| * 10^(15-k) exact, |e2| <= u. Wherever N = round(y) < 10^16,
    y < 10^16, so |y - t| <= 10^16 (2u + u^2) < 2^53.16 * 2^-62.99 = 2^-9.83.

    Choice of delta. Round-to-nearest of t and of y can only differ if a
    half-integer lies between them. A cell is kept only if the fractional
    part of y is at least delta = 2^-8 away from 1/2: 3.5 times the bound,
    so round(t) = round(y) = N, and t is no tie, so half-to-even does not
    matter. N strictly inside (10^15, 10^16) then puts t in [10^15, 10^16),
    which proves k. About 0.8 % of cells of random bits lie within delta of a
    tie; every exact tie does.

    Falls back: |x| outside [1e-99, 1e100) (3-digit exponents, subnormals),
    nan and +-inf, N not strictly inside (10^15, 10^16) after the one move
    of k (among them values that round into the next decade and exact
    powers of ten), and fractional parts of y within delta of 1/2. Zeros are
    written here, signed by the sign bit. No step raises a floating-point
    warning: log10 only sees finite positive values, and only 0 and values
    below 10^17 are cast to integers.
    """
    n = values.size
    words = np.empty((n, 6), np.uint32) if out is None else out
    fallback = np.empty(n, bool)
    for start in range(0, n, CHUNK_CELLS):
        part = slice(start, start + CHUNK_CELLS)
        fallback[part] = _e15_chunk(values[part], words[part])
    return words, fallback


def _e15_chunk(x: np.ndarray, words: np.ndarray) -> np.ndarray:
    """e15_words for one chunk: fills words, returns the fallback mask."""
    magnitude = np.abs(x)
    zero = magnitude == 0.0
    regular = (magnitude >= SMALLEST) & (magnitude < PAST_LARGEST)
    irregular = ~regular
    # these get k = 0 and y = 0: a zero's text, and no cast of nan or inf
    magnitude[irregular] = 1.0
    k = np.floor(np.log10(magnitude)).astype(np.intp)
    k += K_OFFSET                       # from here k is the tables' index of the exponent
    magnitude[irregular] = 0.0
    wide = magnitude.astype(np.longdouble)
    del magnitude, irregular
    y = POWERS[k]
    y *= wide
    digits = np.rint(y)
    whole = digits.astype(np.int64)     # exact: 0 or below 10^17
    move = (whole >= 10 ** 16).astype(np.intp) - ((whole < 10 ** 15) & regular)
    if np.count_nonzero(move):
        k += move
        y = POWERS[k]
        y *= wide
        np.rint(y, out=digits)
        whole = digits.astype(np.int64)
    del wide, move
    # y - digits is exact: the two are within one half of each other
    y -= digits
    del digits
    proven = (np.abs(y, out=y) <= 0.5 - TIE_MARGIN) & (whole > 10 ** 15) & (whole < 10 ** 16)
    del y
    np.minimum(whole, 10 ** 16 - 1, out=whole)     # keeps every index below in range
    high = whole // 10 ** 8
    low = whole - high * 10 ** 8
    first = high // 10 ** 4
    d0 = first // 1000
    words[:, 0] = SIGN_LEAD[d0 + 10 * np.signbit(x)]
    words[:, 1] = DOT3[first - d0 * 1000]
    words[:, 2] = FOUR[high - first * 10 ** 4]
    mid = low // 10 ** 4
    words[:, 3] = FOUR[mid]
    words[:, 4] = FOUR[low - mid * 10 ** 4]
    words[:, 5] = EXPONENT[k]
    proven |= zero
    return np.logical_not(proven, out=proven)
