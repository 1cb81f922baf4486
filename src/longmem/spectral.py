"""Deterministic half of the model: frequency grid, power-law spectral
density, the circulant operator's defining row, and its analytic spectrum.

The operator is the symmetric circulant whose eigenvalues are the sampled
density ``|f|**(-beta/2)`` on a Nyquist-range grid that excludes zero, so
every quantity below is a closed-form function of ``beta`` and the grid.
Estimates derived from the spectrum (intrinsic dimension, shape parameter,
variance, condition number, spectral slope) live in :func:`eigen_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import real, whole
# DENSE_GUARD lives with the dense routes it guards; re-exported here.
from .dft import DENSE_GUARD, circulant_matrix, unitary_dft  # noqa: F401
from .errors import ModelConstructionError

BETA_MIN = 0.0
BETA_MAX = 10.0
N_MIN = 2

# Eigenvalues come out of a real-input transform; their imaginary parts are
# pure rounding noise and must stay below this fraction of the largest one.
EIGEN_IMAG_TOL = 1e-8


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FrequencyGrid:
    """Odd-length frequency vector covering [-1/2, 1/2] without zero.

    n : requested sample count (any integer >= 2)
    rn : realized odd length (n when n is odd, n + 1 when even)
    frequencies : cycles per sample; negative half, then 1/(2n), then the
        mirrored positive half
    """

    n: int
    rn: int
    frequencies: np.ndarray


@dataclass(frozen=True)
class SpectralModel:
    """Power-law model pinned to one (beta, grid) pair.

    density : ``|f|**(-beta/2)`` over the grid
    first_row : defining row of the circulant operator; elements after the
        first form an exact palindrome, so the operator is symmetric
    eigenvalues : operator spectrum, sorted descending, strictly positive
    dense : the route of the model's construction, :func:`eigen_report` and
        replicate convolutions: the O(n^2) oracles if true, else the FFT
    """

    beta: float
    grid: FrequencyGrid
    density: np.ndarray
    first_row: np.ndarray
    eigenvalues: np.ndarray
    dense: bool

    @property
    def rn(self) -> int:
        return self.grid.rn


@dataclass(frozen=True)
class EigenReport:
    """Diagnostics computed from the eigenvalue spectrum alone.

    d_raw : participation ratio sum(lam) / max(lam)
    E : rescaled participation ratio sum(lam) / (sqrt(2) max(lam)) + 1
    d_est : calibrated intrinsic dimension E - (E - 3) / 4.2
    alpha_est : shape parameter (d_est - 1) / 2
    var_est : spectral variance sum of squared non-leading eigenvalues
        over (rn - 1)
    kappa : condition number max(lam) / min(lam)
    slope_fit : least-squares slope of log(lam) against log(rank) over
        ranks 2..ceil(rn / 2); tracks -beta/2
    """

    d_raw: float
    E: float
    d_est: float
    alpha_est: float
    var_est: float
    kappa: float
    slope_fit: float


def build_grid(n):
    """Build the odd-length Nyquist-range frequency grid for ``n`` samples.

    The negative half runs from -1/2 up to -1/n in steps of 1/n; the
    positive half is its mirror image; 1/(2n) sits between them.  Zero is
    never on the grid, so negative density exponents stay finite.

    Parameters
    ----------
    n : int
        Requested sample count, at least 2.

    Returns
    -------
    FrequencyGrid
    """
    n = whole(n, "n", N_MIN)
    m = n // 2
    i = np.arange(m)
    negative = (2 * i - n) / (2 * n)
    frequencies = np.concatenate([negative, [1.0 / (2 * n)], -negative[::-1]])
    return FrequencyGrid(n=n, rn=2 * m + 1, frequencies=_frozen(frequencies))


def build_model(beta, n, dense=False):
    """Construct the spectral model for exponent ``beta`` on ``n`` samples.

    The density ``|f|**(-beta/2)`` is pulled back through the inverse
    unitary transform; the modulus of that pullback, scaled by
    ``1/sqrt(rn)``, is the operator's defining row.  Pushing the row
    forward recovers the eigenvalues, which for this density family equal
    the density values themselves up to reordering.

    ``beta = 0`` is handled in closed form: the density is identically one,
    the row is the exact unit impulse, and every eigenvalue is exactly 1.0,
    so the identity-operator contracts hold bit-exactly.

    Parameters
    ----------
    beta : float
        Spectral exponent in [0, 10].
    n : int
        Requested sample count, at least 2.
    dense : bool
        Route every transform on the model through the O(n^2) oracles.

    Returns
    -------
    SpectralModel

    Raises
    ------
    ModelConstructionError
        If the recovered spectrum has a material imaginary part or any
        non-positive eigenvalue.
    """
    beta = real(beta, "beta", BETA_MIN, BETA_MAX)
    grid = build_grid(n)
    rn = grid.rn
    density = np.abs(grid.frequencies) ** (-beta / 2.0)

    if beta == 0.0:
        first_row = np.zeros(rn)
        first_row[0] = 1.0
        eigenvalues = np.ones(rn)
    else:
        b = np.abs(unitary_dft(density, "inverse", dense=dense))
        # Conjugate symmetry makes elements 1..rn-1 a palindrome up to rounding;
        # enforce it exactly so the dense operator equals its transpose bit-for-bit.
        b[1:] = 0.5 * (b[1:] + b[1:][::-1])
        first_row = b / math.sqrt(rn)

        spectrum = math.sqrt(rn) * unitary_dft(first_row, "forward", dense=dense)
        lam = spectrum.real
        lam_max = lam.max()
        imag_max = np.abs(spectrum.imag).max()
        if imag_max > EIGEN_IMAG_TOL * lam_max:
            raise ModelConstructionError(
                f"spectrum of the symmetric row has imaginary residue {imag_max:.3e} "
                f"against leading eigenvalue {lam_max:.3e}"
            )
        if lam.min() <= 0.0:
            raise ModelConstructionError(
                f"operator is not positive definite: smallest eigenvalue {lam.min():.3e}"
            )
        eigenvalues = np.sort(lam)[::-1]
    return SpectralModel(
        beta=beta,
        grid=grid,
        density=_frozen(density),
        first_row=_frozen(first_row),
        eigenvalues=_frozen(eigenvalues),
        dense=bool(dense),
    )


def eigen_report(model):
    """Eigenvalue-derived estimates for a model.

    On a dense model the spectrum is recomputed from the explicit
    operator matrix with a general symmetric eigensolver (an O(rn^3)
    oracle that never touches the transform identity).

    The slope fit needs at least two interior ranks, i.e. ``rn >= 5``;
    below that ``slope_fit`` is NaN.

    Parameters
    ----------
    model : SpectralModel

    Returns
    -------
    EigenReport
    """
    if model.dense:
        lam = np.sort(np.linalg.eigvalsh(dense_operator(model)))[::-1]
    else:
        lam = model.eigenvalues
    rn = model.rn
    total = float(lam.sum())
    lam1 = float(lam[0])
    d_raw = total / lam1
    E = total / (math.sqrt(2.0) * lam1) + 1.0
    d_est = E - (E - 3.0) / 4.2
    alpha_est = (d_est - 1.0) / 2.0
    var_est = float(np.sum(lam[1:] ** 2)) / (rn - 1)
    kappa = lam1 / float(lam[-1])

    hi = (rn + 1) // 2  # ceil(rn / 2) for odd rn
    ranks = np.arange(2, hi + 1)
    if ranks.size >= 2:
        slope_fit = float(np.polyfit(np.log(ranks), np.log(lam[ranks - 1]), 1)[0])
    else:
        slope_fit = math.nan
    return EigenReport(
        d_raw=d_raw,
        E=E,
        d_est=d_est,
        alpha_est=alpha_est,
        var_est=var_est,
        kappa=kappa,
        slope_fit=slope_fit,
    )


def dense_operator(model):
    """Materialize the full rn x rn symmetric circulant operator.

    Debug/oracle path; circulant_matrix refuses orders above ``DENSE_GUARD``.
    """
    return circulant_matrix(model.first_row)


def transform_pair_holds(model, tol=1e-8):
    """Whether the forward transform of the scaled row reproduces the density.

    Construction takes a modulus, which in principle could fold signs and
    break the round trip; for this density family it does not, anywhere in
    the supported beta range.  The check compares sorted values so grid
    ordering plays no role.
    """
    recovered = np.abs(
        unitary_dft(model.first_row * math.sqrt(model.rn), "forward")
    )
    return bool(
        np.allclose(
            np.sort(recovered),
            np.sort(model.density),
            rtol=tol,
            atol=tol * float(model.density.max()),
        )
    )
