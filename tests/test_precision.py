"""Precision budget: the float columns of ``spectrum`` and ``generate``
against a reference built from the definitions in ``np.longdouble``.

The reference takes nothing from the library but the frequency grid and the
noise draw.  The density is ``|f|**(-beta/2)`` on ``build_grid(n)``'s
frequencies; the row is ``|ifft(density)|`` with its palindrome enforced;
the series is ``ifft(fft(row) * fft(eps)).real`` with ``eps`` drawn from
``RngStream(seed, 0).generator()``; cosvec is the series over
``||row|| ||eps||``, and standardized maps cosvec onto [0, 1].  numpy's FFT
runs in ``longdouble`` (it returns ``complex256`` on x86), so the reference
carries about 11 more bits than the float64 columns it checks.

Each column and route has one bound in units of ``np.finfo(float).eps``,
set at about 4x the worst case measured over the grid below (Intel Xeon,
Python 3.11, numpy 2.4.6).  How a column's error is measured:

- density: the largest elementwise relative error;
- first_row: the largest absolute error over max |row|;
- series: the normwise relative error ||s - ref|| / ||ref||;
- cosvec, standardized: the largest absolute error.

A float32 noise norm in ``sampler._series_block`` breaks the cosvec bound
on every route.
"""

import numpy as np
import pytest

from longmem.sampler import RngStream, generate
from longmem.spectral import build_grid, build_model

EPS = np.finfo(np.float64).eps
LD = np.longdouble

# (route, n, dense): rn = 201 = 3 x 67 takes the complex pair, rn = 1019
# (prime) the padded real pair, and n = 40 the O(n^2) oracles.
ROUTES = [("complex", 200, False), ("padded", 1018, False), ("dense", 40, True)]
BETAS = [0.001, 2.2, 6.0, 10.0]
SEEDS = [5, 2**64 - 1]

# BOUNDS[column][route]: the bound, in eps.  The comment gives the worst
# case measured over BETAS x SEEDS, with the beta it came from.
BOUNDS = {
    "density": {
        "complex": 2.2,       # 0.54 (beta 0.001)
        "padded": 2.2,        # 0.55 (beta 0.001)
        "dense": 2.1,         # 0.52 (beta 0.001)
    },
    "first_row": {
        "complex": 7.0,       # 1.77 (beta 6)
        "padded": 13.0,       # 3.35 (beta 6)
        "dense": 20.0,        # 5.13 (beta 2.2)
    },
    "series": {
        "complex": 20.0,      # 4.94 (beta 10)
        "padded": 28.0,       # 7.08 (beta 6)
        "dense": 54.0,        # 13.5 (beta 0.001)
    },
    "cosvec": {
        "complex": 2.2,       # 0.55 (beta 6)
        "padded": 0.85,       # 0.21 (beta 2.2)
        "dense": 21.0,        # 5.14 (beta 0.001)
    },
    # At beta = 10 the series' range is small, and dividing by it amplifies
    # cosvec's error.
    "standardized": {
        "complex": 450.0,     # 112 (beta 10)
        "padded": 630.0,      # 157 (beta 10)
        "dense": 780.0,       # 195 (beta 10)
    },
}

pytestmark = pytest.mark.skipif(
    np.finfo(LD).eps >= EPS, reason="longdouble is float64 here: no extended-precision reference"
)


def reference(beta, n, seed):
    """The five columns from their definitions, in longdouble."""
    frequencies = build_grid(n).frequencies.astype(LD)
    density = np.abs(frequencies) ** (-LD(beta) / 2)
    row = np.abs(np.fft.ifft(density))
    row[1:] = (row[1:] + row[1:][::-1]) / 2
    noise = RngStream(seed, 0).generator().standard_normal(frequencies.size).astype(LD)
    series = np.fft.ifft(np.fft.fft(row) * np.fft.fft(noise)).real
    cosvec = series / (np.sqrt(np.sum(row * row)) * np.sqrt(np.sum(noise * noise)))
    standardized = (cosvec - cosvec.min()) / (cosvec.max() - cosvec.min())
    return {"density": density, "first_row": row, "series": series,
            "cosvec": cosvec, "standardized": standardized}


def errors(beta, n, dense, seed):
    """Each column's error against the reference, in eps."""
    model = build_model(beta, n, dense=dense)
    sample = generate(model, RngStream(seed, 0))
    ref = reference(beta, n, seed)
    found = {
        "density": np.max(np.abs(model.density - ref["density"]) / ref["density"]),
        "first_row": np.max(np.abs(model.first_row - ref["first_row"]))
        / np.max(ref["first_row"]),
        "series": np.sqrt(np.sum((sample.series - ref["series"]) ** 2)
                          / np.sum(ref["series"] ** 2)),
        "cosvec": np.max(np.abs(sample.cosvec - ref["cosvec"])),
        "standardized": np.max(np.abs(sample.standardized - ref["standardized"])),
    }
    return {column: float(error / EPS) for column, error in found.items()}


def test_reference_transforms_carry_extended_precision():
    # The oracle is only worth its bounds if numpy's FFT really works in
    # longdouble: a round trip must come back well inside float64's eps.
    x = RngStream(1, 0).generator().standard_normal(1019).astype(LD)
    assert np.fft.fft(x).dtype == np.clongdouble
    assert np.max(np.abs(np.fft.ifft(np.fft.fft(x)).real - x)) < EPS / 16


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("route, n, dense", ROUTES, ids=[r[0] for r in ROUTES])
def test_columns_within_budget(route, n, dense, beta, seed):
    found = errors(beta, n, dense, seed)
    over = {column: round(error, 3) for column, error in found.items()
            if not error <= BOUNDS[column][route]}
    assert not over, f"{route} route, beta={beta}, seed={seed}: errors in eps {over}"
