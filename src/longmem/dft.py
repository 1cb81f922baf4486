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

from .errors import InternalConsistencyError, ResourceLimitError, UnsupportedLengthError

# Largest order the dense O(n^2) routes will allocate.
DENSE_GUARD = 4096

# Relative ceiling for the imaginary residue left by the fast convolution
# of real inputs; anything above this means a bookkeeping bug.
IMAG_RESIDUE_TOL = 1e-9


def _as_vector(x, name, *, real=False):
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if real:
        if np.iscomplexobj(arr):
            raise ValueError(f"{name} must be real-valued")
        return arr.astype(float)
    return arr.astype(complex)


def _guard_dense(n, what):
    if n > DENSE_GUARD:
        raise ResourceLimitError(
            f"dense {what} of order {n} exceeds the guard limit {DENSE_GUARD}"
        )


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
    arr = _as_vector(x, "x")
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
    row = _as_vector(row, "row", real=True)
    n = row.size
    _guard_dense(n, "circulant matrix")
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return row[idx]


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
    row = _as_vector(row, "row", real=True)
    v = _as_vector(v, "v", real=True)
    if row.size != v.size:
        raise ValueError(f"length mismatch: row has {row.size}, v has {v.size}")
    if row.size % 2 == 0:
        raise UnsupportedLengthError(
            f"circular convolution operates on odd lengths only, got {row.size}"
        )
    if dense:
        return circulant_matrix(row) @ v
    w = np.fft.ifft(np.fft.fft(row) * np.fft.fft(v))
    scale = np.abs(w.real).max()
    if scale == 0.0:
        scale = 1.0
    residue = np.abs(w.imag).max()
    if residue > IMAG_RESIDUE_TOL * scale:
        raise InternalConsistencyError(
            f"fast convolution of real inputs left imaginary residue {residue:.3e} "
            f"(relative to output scale {scale:.3e})"
        )
    return w.real
