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
D = round(|x|·10^(16-X)), in [10^16, 10^17).  The scaled value t is one
``longdouble`` product of |x| and the nearest ``longdouble`` to 10^(16-X).
Let ulp be the spacing of ``longdouble`` values at t and eps the type's
machine epsilon.  The power's relative error, at most eps/2, moves the
product by less than one ulp; rounding the product adds half an ulp.  So t
is within 1.5 ulp of the exact value, and frac(t) - 1/2 is a whole
multiple of ulp.  A cell more than t·eps (at least one ulp) from a tie is
then at least two ulps from it, and rounding t gives the exact D.  A cell
within ``TIE_WINDOW``·t of a tie (about 1% of cells with x86's 80-bit
``longdouble``) is formatted by Python, as are NaN, ±inf and ±0.  X is
estimated once: where log10 comes out one too high just below a power of
ten, t falls below 10^16 and the cell goes to Python too.  It does not come
out too low next to a power of ten, so t < 10^17, and no cell carries:
round(t) = 10^17 needs |x| within 5e-18 (relative) below some 10^k with
X = k - 1, which only the double nearest 10^k can be, and log10 gives
each such double k.  The tests check both at every k.  Where
``longdouble`` is ``float64`` the window is wider than one half, so every
float cell takes Python's path and the bytes are the same.

A float cell is laid out as ``%g`` does: fixed notation for -4 <= X < 17,
``d.ddde±XX`` otherwise, trailing zeros of the fraction stripped.  The 17
digits are a string of three little-endian ``uint64`` words; masks pick
the digits before and after the point, and a shift by whole bytes makes
room for the point (or the ``0.0...`` prefix).  The exponent suffix has a
word of its own.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

# Relative half-width of the window around a rounding tie in which a float
# cell is left to Python (see the module docstring for the bound).
TIE_WINDOW = float(np.finfo(np.longdouble).eps)

_POW_OFFSET = 400                     # powers[_POW_OFFSET + k] ~ 10**k
_EXP_OFFSET = 325                     # exponents[_EXP_OFFSET + X] = "e±XX"
_NO_EXP = 0                           # exponents[_NO_EXP] is empty
_MINUS = ord("-")
_FLOAT_WORDS = 4                      # 24 bytes of sign and digits, 8 of suffix and separator


def _word(text):
    """``text`` (at most 8 bytes), NUL-padded, as a little-endian word."""
    return int.from_bytes(text.encode("ascii").ljust(8, b"\0"), "little")


def _string_words(strings):
    """Per word of a 24-byte string, the words of ``strings``, NUL-padded:
    an array of shape (3, len(strings))."""
    return np.array(strings, dtype="S24").view(np.uint64).reshape(-1, 3).T.copy()


@functools.cache
def _tables():
    """Lookup tables, built on first use (1.5 ms)."""
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
    exponents = np.zeros(_EXP_OFFSET + 309, dtype=np.uint64)
    for x in range(1 - _EXP_OFFSET, 309):
        if not -4 <= x < 17:
            exponents[_EXP_OFFSET + x] = _word("e%+03d" % x)
    powers = np.array(["1e%d" % k for k in range(-_POW_OFFSET, _POW_OFFSET + 1)],
                      dtype=np.longdouble)
    # Where longdouble is float64, powers past its range read 0 rather than
    # inf: t = 0 misses [10^16, 10^17), so the cell goes to Python.
    powers[np.isinf(powers)] = 0
    return SimpleNamespace(packed=packed, wide=packed.astype(np.uint64), places=places,
                           spans=spans, marks=marks, exponents=exponents, powers=powers)


def _float_slots(values, words, sep):
    """Write float cells into ``words``, a ``(rows, 4)`` uint64 view: the
    cell's text in the first 24 bytes, then its exponent suffix and the
    separator."""
    tab = _tables()
    magnitude = np.abs(values)
    exact = np.isfinite(magnitude) & (magnitude != 0)
    magnitude[~exact] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.intp)
    t = magnitude.astype(np.longdouble) * tab.powers[_POW_OFFSET + 16 - exponent]
    whole = t.astype(np.uint64)
    # frac(t) - 1/2 is a multiple of ulp(t), so float64 holds it exactly
    # wherever it is near the bound, and float64(floor t) * TIE_WINDOW lies
    # in [ulp(t), 2 ulp(t)] as t * eps does.
    half = ((t - whole.astype(np.longdouble)) - 0.5).astype(np.float64)
    exact &= np.abs(half) > whole.astype(np.float64) * TIE_WINDOW
    digits = whole + (half > 0)
    # X is estimated once: t falls below 10^16 where log10 came out one too
    # high next to a power of ten, and the cell goes to Python.
    exact &= whole >= 10 ** 16
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
    quads = [tab.wide[group] for group in groups]
    text = ((quads[0] << np.uint64(8)) | (quads[1] << np.uint64(40)),
            (quads[1] >> np.uint64(24)) | (quads[2] << np.uint64(8)) | (quads[3] << np.uint64(40)),
            (quads[3] >> np.uint64(24)) | ((last + np.uint64(ord("0"))) << np.uint64(8)))
    # Significant digits once trailing zeros are stripped.
    kept = np.where(last != 0, 17, 1).astype(np.uint8)
    for place, group in zip(tab.places, groups):
        np.maximum(kept, place[group], out=kept)
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
        moved = text[w] & tab.spans[w][tail]
        words[:, w] = ((text[w] & tab.spans[w][before]) | (moved << move) | carry
                       | tab.marks[w][mark])
        carry = moved >> (np.uint64(64) - move)
    words[:, 0] |= np.signbit(values) * np.uint64(_MINUS)
    suffix = tab.exponents[np.where(fixed, _NO_EXP, exponent + _EXP_OFFSET)]
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
