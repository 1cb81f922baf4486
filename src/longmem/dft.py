"""Unitary discrete Fourier transforms and circular convolution.

Fast paths run on an O(n log n) mixed-radix FFT.  Every operation keeps a
dense O(n^2) route behind a ``dense`` flag as a permanent cross-check
oracle: the dense transform evaluates the defining double sum, and the
dense convolution multiplies by an explicitly built circulant matrix.

Both transform directions carry the 1/sqrt(n) scale, so the transform is
unitary: it preserves the 2-norm and inverts exactly by conjugating the
exponent.

The fast convolution takes one of two routes, fixed once per row by its
length rn (:func:`transform_length`):

- rn whose prime factors are all at most ``COMPLEX_MAX_PRIME`` (67): a
  complex ``fft``/``ifft`` pair at length rn, keeping the real part.
- any other rn: the real ``rfft``/``irfft`` pair zero-padded to L, the next
  5-smooth length at least 2 rn - 1, so the linear convolution fits and its
  entries rn .. 2 rn - 2 fold back onto 0 .. rn - 2.  At rn = 200001 =
  3 x 163 x 409 this skips pocketfft's generic-radix passes, and at
  rn = 1000001 = 101 x 9901 Bluestein's.

Both routes multiply by one operator, the row's :class:`Spectrum`, and check
each output row by one law, the sum identity.

The padded route is faster at every length, smooth ones included, but it
rounds differently.  Every length whose output bytes are pinned (3, 5, 21,
41, 201 = 3 x 67, and 999999, largest factor 37) is 67-smooth and stays on
the complex route, bit for bit, until those pins are recorded again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import odd, representable, vector
from .errors import InternalConsistencyError, ResourceLimitError

# Largest order the dense O(n^2) routes will allocate.
DENSE_GUARD = 4096

# Longest grid any route will build, and the most histogram bins.  Each
# command run alone through `cli.main` at n = 999998 (numpy 2.4.6, glibc,
# peak RSS of its largest process above the ~28.6 MB after import) took 78
# (spectrum) to 92 (generate, and each child of a split hist) bytes a
# point, the same in JSON as in CSV; hist at 2**22 bins took 50 bytes a
# bin.  So 2**22 keeps every process under ~0.5 GB.  hist and study split
# over two forked children hold about twice that in all: at n = 2**22 - 2,
# hist with 3 replicates peaked at 378 MB in its largest process and
# 743 MB in the three processes' summed Pss.
LENGTH_GUARD = 2 ** 22

# Largest prime factor of rn that keeps a convolution on the complex route.
COMPLEX_MAX_PRIME = 67

# Relative ceiling, against (sum |row|)(sum |v|), for the gap between
# sum(w) and sum(row) sum(v) on either fast route; rounding leaves about
# 1e-16 of that scale, a dropped fold or a wrong 1/L scale a large share.
SUM_IDENTITY_TOL = 1e-12


def guard_length(length, what="grid length", limit=None):
    """``length``, or ResourceLimitError naming ``what`` if it exceeds
    ``limit`` (``LENGTH_GUARD`` when None); checked before anything that
    long is allocated."""
    limit = LENGTH_GUARD if limit is None else limit
    if length > limit:
        raise ResourceLimitError(f"{what} {length} exceeds the guard limit {limit}")
    return length


@representable
def unitary_dft(x, direction="forward", dense=False):
    """Unitary DFT of a vector, in either direction.

    Parameters
    ----------
    x : array_like
        Non-empty one-dimensional vector, real or complex.
    direction : {"forward", "inverse"}
        Sign of the exponent.  Both directions are scaled by
        ``1/sqrt(len(x))``, so ``inverse`` undoes ``forward`` exactly.
    dense : bool
        Use the O(n^2) summation oracle instead of the FFT; refused with
        ``ResourceLimitError`` above ``DENSE_GUARD``.

    Returns
    -------
    numpy.ndarray
        Complex vector of the same length.
    """
    arr = vector(x, "x", complex_ok=True)
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    if dense:
        return _dense_dft(arr, direction)
    # The transform runs in place, on an array that is this call's own: the
    # cast of a real x, or a copy of the caller's complex one.
    if arr is x or not arr.flags.owndata:
        arr = arr.copy()
    transform = np.fft.fft if direction == "forward" else np.fft.ifft
    return transform(arr, norm="ortho", out=arr)


def _dense_dft(arr, direction):
    # Defining double sum, evaluated against an explicit n x n kernel.
    n = arr.size
    guard_length(n, "dense transform of order", DENSE_GUARD)
    sign = -1.0 if direction == "forward" else 1.0
    j = np.arange(n)
    kernel = np.exp(sign * 2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    return kernel @ arr


def circulant_matrix(row):
    """Dense circulant matrix ``C[i, j] = row[(i - j) % n]``.

    Multiplying by ``C`` performs the circular convolution with ``row``.
    When the elements of ``row`` after the first form a palindrome, ``C``
    is symmetric and its first row equals ``row`` itself.  Orders above
    ``DENSE_GUARD`` raise ``ResourceLimitError``.
    """
    row = vector(row, "row")
    n = row.size
    guard_length(n, "dense circulant matrix of order", DENSE_GUARD)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


@representable
def circular_convolve(row, v, dense=False):
    """Circular convolution ``w[i] = sum_j row[(i - j) % n] * v[j]``.

    Convolving ``(0, 1, 0)`` with ``(a, b, c)`` gives ``(c, a, b)``.

    Parameters
    ----------
    row, v : array_like
        Real vectors of the same odd length.
    dense : bool
        Multiply by the explicit circulant matrix (O(n^2) oracle) instead
        of going through the FFT.

    Returns
    -------
    numpy.ndarray
        Real vector of the same length.

    Raises
    ------
    UnsupportedLengthError
        If the common length is even.
    InternalConsistencyError
        If the fast path fails its self-check (see :func:`convolve_rows`).
    """
    row = vector(row, "row")
    v = vector(v, "v")
    if row.size != v.size:
        raise ValueError(f"length mismatch: row has {row.size}, v has {v.size}")
    odd(row.size, "convolution length")
    return convolve_rows(convolution_operator(row, dense), v[None])[0]


def transform_length(rn):
    """The FFT length of the fast convolution at length ``rn``: ``rn`` itself
    when its prime factors are all at most ``COMPLEX_MAX_PRIME`` (the complex
    route), else the smallest ``2**a 3**b 5**c`` at least ``2 rn - 1`` (the
    padded route)."""
    # Dividing out every integer in turn leaves 1 exactly when no prime
    # factor exceeds the bound; the composites find nothing left to divide.
    left = rn
    for p in range(2, COMPLEX_MAX_PRIME + 1):
        while left % p == 0:
            left //= p
    if left == 1:
        return rn
    # Each 3**b 5**c times the least power of two that lifts it to the target;
    # 3**b and 5**c below 2**bit_length cover every candidate under 2 target.
    target = 2 * rn - 1
    bits = target.bit_length()
    return min(m << ((target - 1) // m).bit_length()
               for m in (3**b * 5**c for b in range(bits) for c in range(bits)))


@dataclass(frozen=True)
class Spectrum:
    """The fast routes' operator: the row's transform at ``length``
    (:func:`transform_length`), ``fft(row)`` when that is rn and
    ``rfft(row, length)`` otherwise, and the row's sum and absolute sum for
    the sum-identity check."""

    values: np.ndarray
    length: int
    row_sum: float
    row_abs_sum: float


def convolution_operator(row, dense=False):
    """What :func:`convolve_rows` multiplies by to convolve with ``row``:
    with ``dense`` its circulant matrix, else its :class:`Spectrum` at the
    length :func:`transform_length` routes rn to.  Computed once, it serves
    every block convolved with the same row."""
    if dense:
        return circulant_matrix(row)
    length = transform_length(row.size)
    values = np.fft.fft(row) if length == row.size else np.fft.rfft(row, length)
    return Spectrum(values, length, float(row.sum()), float(np.abs(row).sum()))


def convolve_rows(operator, block):
    """Circular convolution of each row of a ``(rows, n)`` block with the row
    behind ``operator`` (see :func:`convolution_operator`).

    Both fast routes transform the block along ``axis=1`` and check every
    row's sum identity against that row's own scale, ``|sum(w) - sum(row)
    sum(v)| <= SUM_IDENTITY_TOL * sum(|row|) sum(|v|)``; the first row that
    fails raises ``InternalConsistencyError`` naming it.  Rounding leaves a
    gap of at most about 5e-16 of that scale (spikes, alternating signs,
    wide dynamic range and the model's rows, up to rn = 200001).

    The dense route multiplies one row at a time, ``C @ v``, as the oracle
    always has.  Inputs are not validated.
    """
    if not isinstance(operator, Spectrum):
        return np.array([operator @ v for v in block])
    rn, length = block.shape[1], operator.length
    # The sums come first, so their temporaries are freed before the
    # transform buffers exist.
    expected = operator.row_sum * block.sum(axis=1)
    scale = operator.row_abs_sum * np.abs(block).sum(axis=1)
    if length == rn:
        # One complex array throughout.  The operator stays the first factor:
        # numpy's vectorized complex multiply rounds by operand order.
        w = block.astype(complex)
        np.fft.fft(w, axis=1, out=w)
        np.multiply(operator.values, w, out=w)
        w = np.fft.ifft(w, axis=1, out=w).real
    else:
        # pocketfft allocates its plan and scratch on every call (numpy caches
        # neither); `cli.main`'s allocator setting is what recycles them.
        spectrum = np.fft.rfft(block, length, axis=1)
        np.multiply(spectrum, operator.values, out=spectrum)
        linear = np.fft.irfft(spectrum, length, axis=1)
        del spectrum
        # The linear convolution's entries rn .. 2 rn - 2 wrap onto 0 .. rn - 2.
        w = linear[:, :rn].copy()
        w[:, :rn - 1] += linear[:, rn:2 * rn - 1]
    sums = w.sum(axis=1)
    gap = np.abs(sums - expected)
    failed = np.flatnonzero(gap > SUM_IDENTITY_TOL * scale)
    if failed.size:
        k = failed[0]
        raise InternalConsistencyError(
            f"fast convolution broke the sum identity in row {k}: sum {sums[k]:.17g}, "
            f"expected {expected[k]:.17g} (gap {gap[k]:.3e} against scale {scale[k]:.3e})"
        )
    return w
