"""Precision budget: the float columns of ``spectrum``, ``generate`` and
``eigen``, and ``study``'s measured means, against a reference built from
the definitions in ``np.longdouble``.

The reference takes nothing from the library but the frequency grid and the
noise draw.  The density is ``|f|**(-beta/2)`` on ``build_grid(n)``'s
frequencies; the row is ``|ifft(density)|`` with its palindrome enforced;
the series is ``ifft(fft(row) * fft(eps)).real`` with ``eps`` drawn from
``RngStream(seed, i).generator()``; cosvec is the series over
``||row|| ||eps||``, and standardized maps cosvec onto [0, 1].  The
eigenvalues are the density sorted in descending order, and ``eigen``'s
summary and ``study``'s means follow their definitions from them and from
the series.  numpy's FFT runs in ``longdouble`` (it returns ``complex256``
on x86), so the reference carries about 11 more bits than the float64
values it checks.

Each column and route has one bound in units of ``np.finfo(float).eps``,
set at about 4x the worst case measured over the grid below (Intel Xeon,
Python 3.11, numpy 2.4.6).  How a column's error is measured:

- density: the largest elementwise relative error;
- first_row, eigenvalues: the largest absolute error over the largest
  value;
- series: the normwise relative error ||s - ref|| / ||ref||;
- cosvec, standardized: the largest absolute error;
- d_raw, E, d_est, alpha_est, var_est and the study's means: the relative
  error;
- kappa and slope_fit: the relative (kappa) and absolute (slope_fit) error
  over kappa.  Both read the smallest eigenvalues, whose error is the
  round trip's, about eps times the largest eigenvalue, so kappa times
  their own size.

A float32 noise norm in ``sampler.generate`` breaks the cosvec bound on
every route.  Elementwise, the round trip loses the small eigenvalues:
:func:`test_eigenvalues_are_the_density` states the bound that exact
eigenvalues meet, and fails today.
"""

import numpy as np
import pytest

from longmem.montecarlo import run_study
from longmem.sampler import RngStream, generate
from longmem.spectral import build_grid, build_model, eigen_report

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
    # eigen: the dense model's eigenvalues come from the O(n^2) transforms,
    # and its summary from a symmetric eigensolver.
    "eigenvalues": {
        "complex": 16.0,      # 4.09 (beta 0.001)
        "padded": 24.0,       # 5.97 (beta 0.001)
        "dense": 115.0,       # 28.3 (beta 0.001)
    },
    "d_raw": {
        "complex": 8.0,       # 1.97 (beta 0.001)
        "padded": 8.0,        # 1.97 (beta 0.001)
        "dense": 39.0,        # 9.58 (beta 0.001)
    },
    "E": {
        "complex": 8.6,       # 2.13 (beta 0.001)
        "padded": 7.5,        # 1.86 (beta 0.001)
        "dense": 37.0,        # 9.16 (beta 0.001)
    },
    "d_est": {
        "complex": 9.2,       # 2.29 (beta 0.001)
        "padded": 6.5,        # 1.62 (beta 0.001)
        "dense": 35.0,        # 8.64 (beta 0.001)
    },
    "alpha_est": {
        "complex": 9.3,       # 2.31 (beta 0.001)
        "padded": 6.6,        # 1.63 (beta 0.001)
        "dense": 36.0,        # 9.02 (beta 0.001)
    },
    "var_est": {
        "complex": 54.0,      # 13.3 (beta 10)
        "padded": 13.0,       # 3.1 (beta 10)
        "dense": 55.0,        # 13.6 (beta 10)
    },
    "kappa": {
        "complex": 7.2,       # 1.8 (beta 0.001)
        "padded": 6.8,        # 1.7 (beta 0.001)
        "dense": 141.0,       # 35.2 (beta 0.001)
    },
    "slope_fit": {
        "complex": 0.47,      # 0.116 (beta 0.001)
        "padded": 0.078,      # 0.0193 (beta 0.001)
        "dense": 3.5,         # 0.874 (beta 0.001)
    },
    # study, STUDY_REPLICATES replicates; the worst seed of SEEDS.
    "mean_d": {
        "complex": 126.0,     # 31.5 (beta 10)
        "padded": 111.0,      # 27.6 (beta 10)
        "dense": 152.0,       # 37.8 (beta 10)
    },
    "mean_alpha": {
        "complex": 254.0,     # 63.5 (beta 10)
        "padded": 218.0,      # 54.4 (beta 10)
        "dense": 318.0,       # 79.3 (beta 10)
    },
    "mean_var": {
        "complex": 66.0,      # 16.5 (beta 10)
        "padded": 30.0,       # 7.44 (beta 10)
        "dense": 66.0,        # 16.5 (beta 10)
    },
}

STUDY_REPLICATES = 8

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


def over_budget(found, route):
    """The columns of ``found`` over their bound on ``route``, rounded."""
    return {column: round(error, 3) for column, error in found.items()
            if not error <= BOUNDS[column][route]}


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
    over = over_budget(errors(beta, n, dense, seed), route)
    assert not over, f"{route} route, beta={beta}, seed={seed}: errors in eps {over}"


def reference_eigen(beta, n):
    """The eigenvalues, descending, and ``eigen_report``'s fields, from their
    definitions in longdouble; ``slope_fit`` is the least-squares slope in
    closed form."""
    frequencies = build_grid(n).frequencies.astype(LD)
    lam = np.sort(np.abs(frequencies) ** (-LD(beta) / 2))[::-1]
    rn = lam.size
    total = lam.sum()
    E = total / (np.sqrt(LD(2)) * lam[0]) + 1
    d_est = E - (E - 3) / LD(4.2)
    ranks = np.arange(2, (rn + 1) // 2 + 1)
    x = np.log(ranks.astype(LD))
    y = np.log(lam[ranks - 1])
    x -= x.mean()
    return lam, {
        "d_raw": total / lam[0], "E": E, "d_est": d_est, "alpha_est": (d_est - 1) / 2,
        "var_est": np.sum(lam[1:] ** 2) / (rn - 1), "kappa": lam[0] / lam[-1],
        "slope_fit": np.sum(x * (y - y.mean())) / np.sum(x * x),
    }


def eigen_errors(beta, n, dense):
    """``eigen``'s eigenvalues' and summary's errors against the reference,
    in eps."""
    model = build_model(beta, n, dense=dense)
    report = eigen_report(model)
    lam, ref = reference_eigen(beta, n)
    kappa = ref["kappa"]
    found = {"eigenvalues": np.max(np.abs(model.eigenvalues - lam)) / lam[0]}
    for field in ("d_raw", "E", "d_est", "alpha_est", "var_est"):
        found[field] = abs(getattr(report, field) - ref[field]) / ref[field]
    found["kappa"] = abs(report.kappa - kappa) / kappa / kappa
    found["slope_fit"] = abs(report.slope_fit - ref["slope_fit"]) / kappa
    return {column: float(error / EPS) for column, error in found.items()}


def study_errors(beta, n, dense, seed):
    """``study``'s three measured means' relative errors against the
    reference's, in eps."""
    report = run_study(beta, n, STUDY_REPLICATES, seed, dense=dense)
    row = reference(beta, n, seed)["first_row"]
    spectrum = np.fft.fft(row)
    measured = []
    for i in range(STUDY_REPLICATES):
        noise = RngStream(seed, i).generator().standard_normal(row.size).astype(LD)
        series = np.fft.ifft(spectrum * np.fft.fft(noise)).real
        variance = np.var(series, ddof=1)
        alpha = (series.max() - series.min()) ** 2 / (8 * variance) - LD(0.5)
        measured.append((2 * alpha + 1, alpha, variance))
    ref = np.mean(measured, axis=0)
    return {field: float(abs(getattr(report, field) - value) / abs(value) / EPS)
            for field, value in zip(("mean_d", "mean_alpha", "mean_var"), ref)}


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("route, n, dense", ROUTES, ids=[r[0] for r in ROUTES])
def test_eigen_within_budget(route, n, dense, beta):
    over = over_budget(eigen_errors(beta, n, dense), route)
    assert not over, f"{route} route, beta={beta}: errors in eps {over}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("route, n, dense", ROUTES, ids=[r[0] for r in ROUTES])
def test_study_means_within_budget(route, n, dense, beta, seed):
    over = over_budget(study_errors(beta, n, dense, seed), route)
    assert not over, f"{route} route, beta={beta}, seed={seed}: errors in eps {over}"


@pytest.mark.xfail(strict=True, reason="the FFT round trip loses the small eigenvalues "
                                       "(0.21 relative at beta 10, n 2000)")
def test_eigenvalues_are_the_density():
    # The eigenvalues are the density's values, so exact ones meet the
    # density's bound elementwise.  rn = 2001 takes the complex route.
    lam, _ = reference_eigen(10.0, 2000)
    error = np.max(np.abs(build_model(10.0, 2000).eigenvalues - lam) / lam) / EPS
    assert error <= BOUNDS["density"]["complex"]
