"""Unitary discrete Fourier transforms and circular convolution.

Fast paths run on an O(n log n) mixed-radix FFT.  Every operation keeps a
dense O(n^2) route behind a ``dense`` flag as a permanent cross-check
oracle: the dense transform evaluates the defining double sum, and the
dense convolution multiplies by an explicitly built circulant matrix.

Both transform directions carry the 1/sqrt(n) scale, so the transform is
unitary: it preserves the 2-norm and inverts exactly by conjugating the
exponent.
"""

from __future__ import annotations

import numpy as np

from ._checks import odd, representable, vector
from .errors import InternalConsistencyError, ResourceLimitError

# Largest order the dense O(n^2) routes will allocate.
DENSE_GUARD = 4096

# Relative ceiling for the imaginary residue left by the fast convolution
# of real inputs; anything above this means a bookkeeping bug.
IMAG_RESIDUE_TOL = 1e-9


def _guard_dense(n, what):
    if n > DENSE_GUARD:
        raise ResourceLimitError(
            f"dense {what} of order {n} exceeds the guard limit {DENSE_GUARD}"
        )


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
    if direction == "forward":
        return np.fft.fft(arr, norm="ortho")
    return np.fft.ifft(arr, norm="ortho")


def _dense_dft(arr, direction):
    # Defining double sum, evaluated against an explicit n x n kernel.
    n = arr.size
    _guard_dense(n, "transform")
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
    _guard_dense(n, "circulant matrix")
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
        If the fast path leaves a non-negligible imaginary residue.
    """
    row = vector(row, "row")
    v = vector(v, "v")
    if row.size != v.size:
        raise ValueError(f"length mismatch: row has {row.size}, v has {v.size}")
    odd(row.size, "convolution length")
    return convolve_rows(convolution_operator(row, dense), v[None])[0]


def convolution_operator(row, dense=False):
    """What :func:`convolve_rows` multiplies by to convolve with ``row``: its
    FFT, or with ``dense`` its circulant matrix.  Computed once, it serves
    every block convolved with the same row."""
    return circulant_matrix(row) if dense else np.fft.fft(row)


def convolve_rows(operator, block):
    """Circular convolution of each row of a ``(rows, n)`` block with the row
    behind ``operator`` (see :func:`convolution_operator`).

    The FFT route transforms the block along ``axis=1`` and checks each
    row's imaginary residue; the first row that fails raises
    ``InternalConsistencyError``.  The dense route multiplies one row at a
    time, ``C @ v``, as the oracle always has.  Inputs are not validated.
    """
    if operator.ndim == 2:
        return np.array([operator @ v for v in block])
    w = np.fft.ifft(operator * np.fft.fft(block, axis=1), axis=1)
    scale = np.abs(w.real).max(axis=1)
    scale[scale == 0.0] = 1.0
    residue = np.abs(w.imag).max(axis=1)
    failed = np.flatnonzero(residue > IMAG_RESIDUE_TOL * scale)
    if failed.size:
        k = failed[0]
        raise InternalConsistencyError(
            f"fast convolution of real inputs left imaginary residue {residue[k]:.3e} "
            f"(relative to output scale {scale[k]:.3e})"
        )
    return w.real
