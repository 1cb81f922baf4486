"""CSV rows from numpy columns, a chunk at a time, with exact cells.

``rows_text(columns)`` returns the text that ``",".join(cells) + "\\n"``
per row would give, without formatting each number in Python.  It takes
the three cell kinds the commands write: floats, written as
``"%.17g" % v``; non-negative integers, as ``"%d" % v``; and short ASCII
text without NUL (labels such as ``statistic``), as ``"%s" % v``.

Each column gets a fixed-width slot in every row of a zero-filled
``(rows, width)`` byte matrix.  A slot holds the cell's bytes at fixed
places, NUL bytes between them, and the separator (``,`` or ``\\n``), so
keeping the matrix's nonzero bytes gives the chunk's text.

Floats.  With X = floor(log10 |x|), the 17 significant digits of x are
D = round(t) for t = |x|·10^(16-X), in [10^16, 10^17).  A table holds each
power 10^k as two doubles: hi, the nearest to 10^k, and lo, the nearest to
10^k - hi, so |10^k - hi - lo| <= 2^-106·10^k.  Dekker's split of |x| and
hi into halves of 26 bits makes the four partial products exact, so his
TwoProduct gives p = fl(|x|·hi) and its rounding error e exactly; then
r = fl(e + fl(|x|·lo)).  Every step is a numpy ufunc of its own, rounded
once, with no fused multiply-add.  p >= 2^53 is a whole number and |r| <
32, and the three roundings left (the table's, |x|·lo's and r's) keep
|t - (p + r)| below 5e-15.  So D = p + floor(r) + (frac(r) > 1/2) is exact
wherever frac(r) lies more than ``TIE_WINDOW`` = 2^-40 from one half.  The
cells inside that window, in practice the exact ties that ``%.17g`` breaks
to even, are formatted by Python, as are NaN, ±inf, ±0 and |x| outside
[1e-283, 1e299], where the split or the table would leave float64's range.
X is estimated once: where log10 comes out one too high just below a power
of ten, t falls below 10^16 and the cell goes to Python too.  It does not
come out too low next to a power of ten, so t < 10^17, and no cell
carries: round(t) = 10^17 needs |x| within 5e-18 (relative) below some 10^k
with X = k - 1, which only the double nearest 10^k can be, and log10 gives
each such double k.  The tests check both at every k.

A float cell is laid out as ``%g`` does: fixed notation for -4 <= X < 17,
``d.ddde±XX`` otherwise, trailing zeros of the fraction stripped.  The 17
digits are a string of three little-endian ``uint64`` words; masks pick
the digits before and after the point, and a shift by whole bytes makes
room for the point (or the ``0.0...`` prefix).  The exponent suffix has a
word of its own.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

import numpy as np

# Half-width of the window around one half in which frac(r) leaves a float
# cell to Python: well above the 5e-15 bound on |t - (p + r)| (see the
# module docstring), and narrow enough that in practice only exact ties
# fall inside it.
TIE_WINDOW = 2.0 ** -40
# |x| outside [_SMALLEST, _LARGEST] goes to Python: X then lies in [-283,
# 299], or -284 should log10 round down, so 10^(16-X) <= 1e300 and neither
# factor's split overflows.
_SMALLEST = 1e-283
_LARGEST = 1e299
_SPLIT = 2.0 ** 27 + 1                # Dekker's splitter for float64

# hi[_POW_OFFSET + k] + lo[_POW_OFFSET + k] ~ 10**k, -_POW_OFFSET <= k <= _POW_TOP.
_POW_OFFSET = 283
_POW_TOP = 300
_EXP_OFFSET = 325                     # exponents[_EXP_OFFSET + X] = "e±XX"
_NO_EXP = 0                           # exponents[_NO_EXP] is empty
_MINUS = ord("-")
_FLOAT_WORDS = 4                      # 24 bytes of sign and digits, 8 of suffix and separator


def _string_words(strings):
    """Per word of a 24-byte string, the words of ``strings``, NUL-padded:
    an array of shape (3, len(strings))."""
    return np.array(strings, dtype="S24").view(np.uint64).reshape(-1, 3).T.copy()


@functools.cache
def _tables():
    """Lookup tables, built on first use (0.5 ms)."""
    # packed[q]: the 4 digits of q in 0..9999 as ASCII bytes, little-endian.
    quad = np.arange(10000, dtype=np.uint32)
    digits = [quad // 1000, quad // 100 % 10, quad // 10 % 10, quad % 10]
    packed = sum((d + ord("0")) << (8 * i) for i, d in enumerate(digits)).astype(np.uint32)
    # places[j][q]: how many of d0..d16 run up to the last nonzero digit of
    # q when q is the 4-digit group d(4j)..d(4j+3), or 0 when q is 0.
    last = np.select([quad % 10 > 0, quad % 100 > 0, quad % 1000 > 0, quad > 0], [4, 3, 2, 1], 0)
    places = [np.where(last > 0, last + 4 * j, 0).astype(np.uint8) for j in range(4)]
    # A cell is a sign byte (NUL if positive) and 23 bytes of text, in
    # which d0..d16 start at byte 1.  spans[b * 18 + k]: digits b..k-1.
    spans = _string_words([bytes(1 + b) + b"\xff" * max(k - b, 0)
                           for b in range(18) for k in range(18)])
    # marks[m]: "." after digit m - 1 for m in 1..16, or for m = 16 + zeros
    # the "0.0..." prefix of a fixed cell with X = -zeros; marks[0] is empty.
    marks = _string_words([b""] + [bytes(1 + m) + b"." for m in range(1, 17)]
                          + [b"\0" + b"0." + b"0" * (z - 1) for z in range(1, 5)])
    # float64 exponents run from -324 (subnormals) to 308.
    exponents = np.array([b""] + [b"" if -4 <= x < 17 else b"e%+03d" % x
                                  for x in range(1 - _EXP_OFFSET, 309)], dtype="S8").view(np.uint64)
    # 10**k = hi + lo for the k of every |x| in [_SMALLEST, _LARGEST]: hi
    # = a / b (b a power of two) is the nearest double, and lo the nearest to
    # the rest, both by correctly rounded int-to-float conversion or division.
    hi, lo = [], []
    power = 10 ** _POW_OFFSET
    for _ in range(_POW_OFFSET):
        hi.append(1 / power)
        a, b = hi[-1].as_integer_ratio()
        # (b - a * power) / (b * power), then the exact division by b.
        lo.append(math.ldexp((b - a * power) / power, 1 - b.bit_length()))
        power //= 10
    for _ in range(_POW_TOP + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    return SimpleNamespace(packed=packed, wide=packed.astype(np.uint64), places=places,
                           spans=spans, marks=marks, exponents=exponents,
                           hi=np.array(hi), lo=np.array(lo))


def _split(a):
    """Dekker's split of ``a`` into ``high + low``, two doubles of at most 26
    significant bits each, so that products of halves are exact."""
    high = a * _SPLIT
    low = high - a
    high -= low
    return high, np.subtract(a, high, out=low)


def _float_slots(values, words, sep):
    """Write float cells into ``words``, a ``(rows, 4)`` uint64 view: the
    cell's text in the first 24 bytes, then its exponent suffix and the
    separator."""
    tab = _tables()
    magnitude = np.abs(values)
    exact = (magnitude >= _SMALLEST) & (magnitude <= _LARGEST)
    np.copyto(magnitude, 1.0, where=~exact)
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    power = _POW_OFFSET + 16 - exponent
    hi = np.take(tab.hi, power)
    lo = np.take(tab.lo, power)
    del power
    # t = p + r: r starts as the rounding error of p = magnitude * hi, which
    # Dekker's TwoProduct sums exactly from the halves' products, in his
    # order; magnitude * lo is then added.  Temporaries are reused in place.
    mh, ml = _split(magnitude)
    hh, hl = _split(hi)
    p = magnitude * hi
    del hi
    r = mh * hh
    r -= p
    mh *= hl
    r += mh
    hh *= ml
    r += hh
    ml *= hl
    r += ml
    del mh, ml, hh, hl
    lo *= magnitude
    r += lo
    del lo
    # p is whole, so floor(t) = p + floor(r) and D adds frac(r) > 1/2.
    whole = np.floor(r)
    half = np.subtract(r, whole, out=r)
    half -= 0.5
    exact &= np.abs(half) > TIE_WINDOW
    digits = p.astype(np.int64)
    del p
    digits += whole.astype(np.int64)
    del whole
    # X is estimated once: t falls below 10^16 where log10 came out one too
    # high next to a power of ten, and the cell goes to Python.
    exact &= digits >= 10 ** 16
    digits += half > 0
    del half
    digits = digits.view(np.uint64)
    digits[~exact] = 10 ** 16
    exponent[~exact] = 0

    # The 17 digits d0..d16 as a string of three words, from four 4-digit
    # groups and the last digit.
    high = digits // 10 ** 9
    low = digits - high * 10 ** 9
    middle = low // 10
    last = low - middle * 10
    high, middle = high.astype(np.uint32), middle.astype(np.uint32)
    q0, q2 = high // 10 ** 4, middle // 10 ** 4
    groups = (q0, high - q0 * 10 ** 4, q2, middle - q2 * 10 ** 4)
    quads = [np.take(tab.wide, group) for group in groups]
    text = ((quads[0] << np.uint64(8)) | (quads[1] << np.uint64(40)),
            (quads[1] >> np.uint64(24)) | (quads[2] << np.uint64(8)) | (quads[3] << np.uint64(40)),
            (quads[3] >> np.uint64(24)) | ((last + np.uint64(ord("0"))) << np.uint64(8)))
    # Significant digits once trailing zeros are stripped.
    kept = np.where(last != 0, 17, 1).astype(np.uint8)
    for place, group in zip(tab.places, groups):
        np.maximum(kept, np.take(place, group), out=kept)
    kept = kept.astype(np.intp)

    # After the sign come the first ``before`` digits, then the digits up
    # to the last shown one, moved past the point (or past "0.0..." when
    # -4 <= X < 0).
    fixed = (exponent >= -4) & (exponent < 17)
    zeros = np.where(fixed & (exponent < 0), -exponent, 0)
    before = np.where(fixed, np.maximum(exponent + 1, 0), 1)
    tail = before * 18 + np.maximum(kept, before)
    mark = np.where(zeros > 0, 16 + zeros, np.where(kept > before, before, 0))
    move = ((zeros + 1) * 8).astype(np.uint64)
    carry = 0
    for w in range(3):
        moved = text[w] & np.take(tab.spans[w], tail)
        words[:, w] = ((text[w] & np.take(tab.spans[w], before)) | (moved << move) | carry
                       | np.take(tab.marks[w], mark))
        carry = moved >> (np.uint64(64) - move)
    words[:, 0] |= np.signbit(values) * np.uint64(_MINUS)
    suffix = np.take(tab.exponents, np.where(fixed, _NO_EXP, exponent + _EXP_OFFSET))
    words[:, 3] = suffix | np.uint64(ord(sep) << 56)

    rest = np.flatnonzero(~exact)
    if rest.size:
        words[rest, :3] = _python_cells(values[rest])


def _python_cells(values):
    """Float cells formatted by Python, as rows of three NUL-padded words."""
    cells = ["%.17g" % v for v in values.tolist()]
    return np.array(cells, dtype="S24").view(np.uint64).reshape(-1, 3)


def _int_slots(values, words, groups, sep):
    """Write non-negative integer cells into ``words``, a ``(rows, width)``
    uint32 view holding ``groups`` 4-digit groups."""
    packed = _tables().packed
    rest = values.astype(np.uint64)
    for g in range(groups - 1, -1, -1):
        quotient = rest // 10 ** 4
        words[:, g] = packed[(rest - quotient * 10 ** 4).astype(np.intp)]
        rest = quotient
    words[:, groups] = ord(sep)
    # Leading zeros are NUL: clear each "0" before the first nonzero digit,
    # except the last digit.
    digits = words[:, :groups].view(np.uint8)
    seen = np.zeros(len(digits), dtype=bool)
    for k in range(4 * groups - 1):
        seen |= digits[:, k] != ord("0")
        digits[:, k] *= seen


def _plan(values):
    """A column's slot width in bytes (a multiple of 8) and what its writer
    needs: nothing for floats, the digit group count for integers, the
    encoded cells for text."""
    kind = values.dtype.kind
    if kind == "f":
        return _FLOAT_WORDS * 8, None
    if kind in "iu":
        # 4-digit groups and a separator word, in whole 8-byte words.
        groups = -(-len(str(int(values.max()))) // 4)
        return (groups + 2) // 2 * 8, groups
    cells = [("%s" % (v,)).encode("ascii") for v in values.tolist()]
    return (max(map(len, cells)) + 8) // 8 * 8, cells


def rows_text(columns):
    """The CSV text of equal-length 1-D arrays ``columns``, one row per
    index, cells joined by ``,`` and each row ended by a newline."""
    plans = [_plan(values) for values in columns]
    chunk = np.zeros((len(columns[0]), sum(width for width, _ in plans)), dtype=np.uint8)
    start = 0
    for j, (values, (width, extra)) in enumerate(zip(columns, plans)):
        slot = chunk[:, start:start + width]
        sep = "\n" if j == len(columns) - 1 else ","
        if extra is None:
            _float_slots(values.astype(np.float64, copy=False), slot.view(np.uint64), sep)
        elif values.dtype.kind in "iu":
            _int_slots(values, slot.view(np.uint32), extra, sep)
        else:
            slot[:] = np.array(extra, dtype=f"S{width}").view(np.uint8).reshape(slot.shape)
            slot[:, -1] = ord(sep)
        start += width
    return chunk[chunk != 0].tobytes().decode("ascii")
