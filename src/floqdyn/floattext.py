"""Exact '%.17g' text of float arrays, without a Python call per value.

A finite |x| in [1e-290, 1e290] is scaled to q = round(|x| 10^(16-k)), the
17 significant digits, with k = floor(log10 |x|): one double-double
product (Dekker, Numer. Math. 18, 224 (1971)) against 10^(16-k) held as
hi + lo to ~2^-106, from a table whose bands of scales are built as calls
need them.  Its error is below 2^-46, so q is the correctly rounded one
(Steele & White, PLDI 1990) unless the fraction lies within
1e-9 of 1/2.  Such a value, one whose q may leave [10^16, 10^17) (k one
off, or rounding into the next decade), a non-finite one and one outside
that range take the text of '%' instead.  The digits come from two
8-digit halves of q, several per uint64 at once.

The text of a value is laid out in six little-endian uint64 words of fixed
slots, NUL wherever a byte holds no text, so that no digit ever moves:

- word 0: the sign, the prefix '0.' to '0.000' (k in [-4, -1]) and, in
  byte 7, the lead digit;
- words 1 and 2: the other 16 digits, masked to those before the point;
- word 2's top byte: the point, when there is one (then at most 15 digits
  come before it, so that byte is free);
- words 3 and 4: the same 16 digits, masked to those from the point up to
  the last significant one (trailing zeros are stripped, as %g strips them);
- word 5: the exponent, 'e+XX' or 'e-XXX'.

Deleting every NUL of the words' bytes leaves the text, so a writer can
place whole words and delete the NULs of many values at once.
"""

from functools import cache

import numpy as np

FLOAT_FMT = "%.17g"

#: decimal scales s of the 10^s table: k = floor(log10 |x|) of a scaled value
#: lies in [-291, 290] (log10 may be one off next to a power of ten), s = 16 - k
_S_MIN, _S_MAX = -275, 307
_K_MIN, _K_MAX = 16 - _S_MAX, 16 - _S_MIN
#: the |x| that are scaled: |x| 10^s and its Veltkamp split stay finite and normal
_SCALED_MIN, _SCALED_MAX = 1e-290, 1e290
_SPLITTER = 2.0 ** 27 + 1

#: uint64 words of the text slots of one value (the module docstring gives
#: their layout)
SLOT_WORDS = 6

#: scales per band of the 10^s table, each built on its first need
_BAND = 32

_U64 = np.uint64
_ASCII_ZEROS = _U64(0x3030303030303030)


@cache
def _pow10_band(band: int) -> np.ndarray:
    """Rows hi, hi's two halves of at most 26 bits (Veltkamp's split of its
    mantissa) and lo, per s of the ``_BAND`` scales from _S_MIN + _BAND band
    (fewer in the last band): hi and lo are each rounded from exact integer
    arithmetic, so hi + lo is 10^s to ~2^-106."""
    hi, lo = [], []
    for s in range(_S_MIN + _BAND * band, min(_S_MIN + _BAND * (band + 1), _S_MAX + 1)):
        if s >= 0:
            h = float(10 ** s)
            lo.append(float(10 ** s - int(h)))
        else:
            n = 10 ** -s
            h = 1 / n               # int division is correctly rounded
            a, b = h.as_integer_ratio()
            lo.append((b - a * n) / (b * n))
        hi.append(h)
    mant, exp = np.frexp(hi)
    c = mant * _SPLITTER
    upper = c - (c - mant)
    rows = np.stack([hi, np.ldexp(upper, exp), np.ldexp(mant - upper, exp), lo])
    rows.flags.writeable = False
    return rows


def _pow10_rows(s_min: int, s_max: int) -> tuple:
    """(rows, s0): the rows of ``_pow10_band`` for every scale from s_min to
    s_max, built on first need, and the scale s0 of their column 0."""
    first, last = (s_min - _S_MIN) // _BAND, (s_max - _S_MIN) // _BAND
    bands = [_pow10_band(b) for b in range(first, last + 1)]
    rows = bands[0] if len(bands) == 1 else np.concatenate(bands, axis=1)
    return rows, _S_MIN + _BAND * first


@cache
def _layouts() -> tuple:
    """(per_k, mask_row, masks).  Per k from ``_K_MIN``: words 0 (the prefix
    '0.' to '0.000', without sign or lead digit) and 5 (the exponent) of the
    text, and the row of ``masks`` for its mask class and nsig = 1, nsig
    significant digits taking the next rows.  A mask class is the number a of
    the 16 digits after the lead one that come before the point, or 17 for
    k < 0, whose point is in the prefix.  Each row of ``masks`` holds the
    masks of words 1 and 2 (digits before the point), word 2's point, and the
    masks of words 3 and 4 (the digits from the point up to nsig)."""
    k = np.arange(_K_MIN, _K_MAX + 1)
    ak = np.abs(k)
    fixed = (k >= -4) & (k <= 16)
    small = fixed & (k < 0)
    zeros = np.array([0, 0x30, 0x3030, 0x303030], np.uint64)[np.clip(-k - 1, 0, 3)]
    word0 = np.where(small, _U64(0x2E3000) | (zeros << _U64(24)), _U64(0))
    digit = [(ak // 100 + 48).astype(np.uint64), (ak // 10 % 10 + 48).astype(np.uint64),
             (ak % 10 + 48).astype(np.uint64)]
    sign = np.where(k < 0, _U64(ord("-")), _U64(ord("+")))
    exponent = np.where(ak >= 100,
                        digit[0] << _U64(16) | digit[1] << _U64(24) | digit[2] << _U64(32),
                        digit[1] << _U64(16) | digit[2] << _U64(24))
    word5 = np.where(fixed, _U64(0), _U64(ord("e")) | sign << _U64(8) | exponent)
    per_k = np.stack([word0, word5])
    mask_row = 17 * np.where(small, 17, np.where(fixed, k, 0))
    # masks per class c and j = nsig - 1: digit byte i is before the point if
    # i < a, after it if a <= i < j
    c, j = np.divmod(np.arange(18 * 17), 17)
    a = np.where(c < 17, c, 0)[:, None]
    byte = np.arange(16)
    before = np.where(byte < a, 0xFF, 0).astype(np.uint8)
    after = np.where((byte >= a) & (byte < j[:, None]), 0xFF, 0).astype(np.uint8)
    point = np.where((c < 17) & (j > a[:, 0]), _U64(ord(".") << 56), _U64(0))
    masks = np.vstack([before.view("<u8").T, point, after.view("<u8").T]).astype(np.uint64)
    for t in (per_k, mask_row, masks):
        t.flags.writeable = False
    return per_k, mask_row, masks


def _digit_bytes(n: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each n < 10^8 (uint64), one per byte, the most
    significant in the lowest byte: 4-digit, 2-digit, then 1-digit halves
    split in every lane at once by multiply-shift division."""
    hi = (n * _U64(109951163)) >> _U64(40)               # n // 10^4
    x = hi | ((n - hi * _U64(10000)) << _U64(32))
    hi = ((x * _U64(10486)) >> _U64(20)) & _U64(0x0000007F0000007F)     # // 100
    x = hi | ((x - hi * _U64(100)) << _U64(16))
    hi = ((x * _U64(103)) >> _U64(10)) & _U64(0x000F000F000F000F)       # // 10
    return hi | ((x - hi * _U64(10)) << _U64(8))


def _top_byte(w: np.ndarray) -> np.ndarray:
    """Index of the highest nonzero byte of each w > 0 whose bytes are below
    16: the binary exponent of float(w), which rounding cannot carry past
    the next power of two, over 8."""
    return ((w.astype(np.float64).view(np.uint64) >> _U64(52)).astype(np.intp) - 1023) >> 3


def _scaled(values: np.ndarray) -> tuple:
    """(q, k, scaled): the 17 digits q = round(|x| 10^(16 - k)) and k of each
    value, and whether they are its '%.17g' digits.  A value that is not
    scaled has q = 0 and k = 0."""
    ax = np.abs(values)
    scaled = (ax >= _SCALED_MIN) & (ax <= _SCALED_MAX)
    ax[~scaled] = 1.0
    k = np.log10(ax)
    k = np.floor(k, out=k).astype(np.intp)
    (hi_t, upper_t, lower_t, lo_t), s0 = _pow10_rows(16 - int(k.max(initial=0)),
                                                     16 - int(k.min(initial=0)))
    s = 16 - s0 - k                     # column of 10^(16 - k)
    hi, upper, lower, lo = hi_t[s], upper_t[s], lower_t[s], lo_t[s]
    p = ax * hi                         # p + e = |x| hi exactly
    c = ax * _SPLITTER
    x_upper = c - (c - ax)
    x_lower = ax - x_upper
    e = ((x_upper * upper - p) + x_upper * lower + x_lower * upper) + x_lower * lower
    t = e + ax * lo                     # |x| 10^(16 - k) = p + t, p an integer
    r = np.rint(t)
    # |t| < 20, so q = p + r is in [10^16, 10^17) when p is this far inside
    scaled &= (p >= 1e16 + 32) & (p <= 1e17 - 64) & (np.abs(np.abs(t - r) - 0.5) > 1e-9)
    q = np.where(scaled, p.astype(np.int64) + r.astype(np.int64), 0).astype(np.uint64)
    return q, np.where(scaled, k, 0), scaled


def float_text(values: np.ndarray, out=None) -> np.ndarray:
    """The '%.17g' text of each value of a float64 array in ``SLOT_WORDS``
    uint64 words, NUL where a byte holds no text: word j of every value in
    row j of a new (``SLOT_WORDS``, *values.shape) array, or of ``out`` of
    that shape.  ±0 is scaled as q = 0 and k = 0, which lays out as '0' and
    '-0'."""
    per_k, mask_row, masks = _layouts()
    q, k, scaled = _scaled(values)
    k -= _K_MIN
    lead = q // _U64(10 ** 16)
    q -= lead * _U64(10 ** 16)
    middle = q // _U64(10 ** 8)
    low, high = _digit_bytes(middle), _digit_bytes(q - middle * _U64(10 ** 8))
    # significant digits: up to the highest nonzero digit byte
    nsig = np.where(high != 0, 10 + _top_byte(high),
                    np.where(low != 0, 2 + _top_byte(low), 1))
    words = np.take(per_k, k, axis=1)
    mask = np.take(masks, mask_row[k] + nsig - 1, axis=1)
    low += _ASCII_ZEROS
    high += _ASCII_ZEROS
    if out is None:
        out = np.empty((SLOT_WORDS, *values.shape), "<u8")
    out[0] = (words[0] | (values.view(np.uint64) >> _U64(63)) * _U64(ord("-"))
              | (lead + _U64(48)) << _U64(56))
    out[1] = low & mask[0]
    out[2] = (high & mask[1]) | mask[2]
    out[3] = low & mask[3]
    out[4] = high & mask[4]
    out[5] = words[1]
    for i in zip(*np.nonzero(~scaled & (values != 0))):
        verbatim = (FLOAT_FMT % values[i]).encode().ljust(8 * SLOT_WORDS, b"\0")
        out[(slice(None), *i)] = np.frombuffer(verbatim, "<u8")
    return out
