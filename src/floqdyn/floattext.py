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
8-digit halves of q, several per uint64 at once; the text of each value is
gathered from a 32-byte source row through a table of layouts.
"""

from functools import cache

import numpy as np

FLOAT_FMT = "%.17g"

#: decimal scales s of the 10^s table: k = floor(log10 |x|) of a scaled value
#: lies in [-291, 290] (log10 may be one off next to a power of ten), s = 16 - k
_S_MIN, _S_MAX = -275, 307
_K_MIN = 16 - _S_MAX
#: the |x| that are scaled: |x| 10^s and its Veltkamp split stay finite and normal
_SCALED_MIN, _SCALED_MAX = 1e-290, 1e290
_SPLITTER = 2.0 ** 27 + 1

# Byte offsets in a value's source row, four little-endian uint64 words: word 0
# holds '-', the first digit, '.', '0', 'e', the exponent's sign, hundreds and
# tens; words 1 and 2 the other 16 digits; word 3 the exponent's units, then NULs.
_MINUS, _D0, _POINT, _ZERO, _E, _EXP_SIGN, _EXP_100, _EXP_10 = range(8)
_EXP_1, _NUL = 24, 31
_DIGIT = (_D0, *range(8, 24))
#: the longest '%.17g' text: "-1.2345678901234567e-123", "-0.00012345678901234567"
TEXT_WIDTH = 24
#: layout classes: fixed notation for k = class - 4 in [-4, 16], then 'e' with
#: a 2-digit and with a 3-digit exponent
_N_CLASSES = 23
#: first layout id of a value whose text is its '%' text, copied verbatim
_VERBATIM = 2 * 17 * _N_CLASSES
#: values per gather of their text from the source rows
_GATHER = 2048

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


def _layout(cls: int, nsig: int) -> list:
    """Source-row offsets of the unsigned text of layout class ``cls`` with
    ``nsig`` significant digits (trailing zeros stripped, as %g strips them)."""
    digits = list(_DIGIT[:nsig])
    if cls < 4:                         # 0.000ddd
        return [_ZERO, _POINT] + [_ZERO] * (3 - cls) + digits
    if cls <= 20:                       # ddd.ddd, k + 1 digits before the point
        point = cls - 3
        return list(_DIGIT[:point]) if nsig <= point else \
            digits[:point] + [_POINT] + digits[point:]
    mantissa = digits[:1] + ([_POINT] + digits[1:] if nsig > 1 else [])
    return mantissa + [_E, _EXP_SIGN] + [_EXP_100] * (cls == 22) + [_EXP_10, _EXP_1]


@cache
def _layouts() -> tuple:
    """Offsets per layout id, ``TEXT_WIDTH`` each padded with ``_NUL``: id
    2 (17 class + nsig - 1) + sign for a scaled value, ``_VERBATIM`` + length - 1
    for a verbatim one.  Then, per k from ``_K_MIN``: 34 class, and the bytes
    of words 0 and 3 that depend on k alone."""
    unsigned = [bytes(_layout(cls, nsig)) for cls in range(_N_CLASSES) for nsig in range(1, 18)]
    texts = [text for u in unsigned for text in (u, bytes([_MINUS]) + u)]
    texts += [bytes(range(n)) for n in range(1, TEXT_WIDTH + 1)]
    offsets = np.frombuffer(b"".join(t.ljust(TEXT_WIDTH, bytes([_NUL])) for t in texts),
                            np.uint8).reshape(-1, TEXT_WIDTH)
    k = np.arange(_K_MIN, 17 - _S_MIN)
    ak = np.abs(k)
    cls = np.where((k >= -4) & (k <= 16), k + 4, np.where(ak < 100, 21, 22))

    def byte(values, offset):
        return values.astype(np.uint64) << _U64(8 * offset)

    word0 = (_U64(int.from_bytes(b"-\0.0e", "little"))
             | byte(np.where(k < 0, ord("-"), ord("+")), _EXP_SIGN)
             | byte(ak // 100 + ord("0"), _EXP_100) | byte(ak // 10 % 10 + ord("0"), _EXP_10))
    out = (offsets, 34 * cls, word0, byte(ak % 10 + ord("0"), 0))
    for a in out:
        a.flags.writeable = False
    return out


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


def _source_rows(q: np.ndarray, k: np.ndarray) -> tuple:
    """(source rows, number of significant digits) of the digits q and
    exponents k: the 32-byte row of each value, as four uint64 words."""
    _, _, word0_k, word3_k = _layouts()
    k = k - _K_MIN
    lead = q // _U64(10 ** 16)
    q = q - lead * _U64(10 ** 16)
    middle = q // _U64(10 ** 8)
    digits = _digit_bytes(middle), _digit_bytes(q - middle * _U64(10 ** 8))
    # significant digits: up to the highest nonzero digit byte
    nsig = np.where(digits[1] != 0, 10 + _top_byte(digits[1]),
                    np.where(digits[0] != 0, 2 + _top_byte(digits[0]), 1))
    words = np.empty((len(q), 4), "<u8")
    words[:, 0] = word0_k[k] | ((lead + _U64(48)) << _U64(8))
    words[:, 1] = digits[0] + _ASCII_ZEROS
    words[:, 2] = digits[1] + _ASCII_ZEROS
    words[:, 3] = word3_k[k]
    return words, nsig


def float_text(values: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each value of a flat float array, one NUL-padded
    row of ``TEXT_WIDTH`` bytes each.  ±0 is scaled as q = 0 and k = 0,
    which lays out as '0' and '-0'."""
    offsets, class_ids, _, _ = _layouts()
    q, k, scaled = _scaled(values)
    words, nsig = _source_rows(q, k)
    layout = class_ids[k - _K_MIN] + 2 * nsig - 2 + np.signbit(values)
    rows = words.view(np.uint8)
    for i in np.flatnonzero(~scaled & (values != 0)):
        verbatim = (FLOAT_FMT % values[i]).encode()
        rows[i, :len(verbatim)] = np.frombuffer(verbatim, np.uint8)
        layout[i] = _VERBATIM + len(verbatim) - 1
    # gathered a few thousand values at a time: the flat index takes 8 bytes a byte
    index = np.take(offsets, layout, axis=0)
    text = np.empty_like(index)
    for lo in range(0, len(values), _GATHER):
        text[lo:lo + _GATHER] = np.take(rows, index[lo:lo + _GATHER] + 32 * np.arange(
            lo, min(lo + _GATHER, len(values)))[:, None])
    return text
