"""Acceptance gate: every exit criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Stochastic criteria pin seed 5; every tolerance is stated next to its
check.  The beta-near-zero shape check (C9) encodes a fitted-alpha floor
the standardization pipeline cannot reach; it fails by design rather than
having its threshold weakened -- see the test for the analysis.
"""

import math
import time
from dataclasses import asdict

import numpy as np
import pytest
from conftest import split_small_runs

from longmem.dft import circulant_matrix, circular_convolve, unitary_dft
from longmem.estimators import accumulate_histogram, fit_alpha_from_histogram, sample_stats
from longmem.montecarlo import run_study
from longmem.sampler import RngStream, generate, standardize
from longmem.spectral import build_model, eigen_report

SEED = 5
BETA_GRID = [0.0, 0.5, 1.0, 2.2, 3.0, 7.0, 10.0]


def check(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{name}: {detail}"


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def test_c1_reference_rows_and_identity():
    model = build_model(7.0, 5)
    density_ref = np.array([11.31, 67.61, 3162.3, 67.61, 11.31])
    row_ref = np.array([664.0, 637.0, 612.0, 612.0, 637.0])
    ok = np.all(np.abs(model.density - density_ref) <= 5e-3 * density_ref)
    ok &= np.all(np.abs(model.first_row - row_ref) <= 5e-3 * row_ref)

    identity = build_model(0.0, 5)
    impulse = np.zeros(5)
    impulse[0] = 1.0
    ok &= bool(np.array_equal(identity.first_row, impulse))

    build_model(7.0, 5)  # warm caches before timing
    elapsed = min(
        _timed(lambda: build_model(7.0, 5)) for _ in range(10)
    )
    ok &= elapsed < 1e-3
    check(
        "C1 reference-rows-n5",
        bool(ok),
        f"density/first_row to 3 sig figs, identity at beta=0, build {elapsed*1e6:.0f} us",
    )


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_c2_reference_row_n7():
    row = build_model(3.0, 7).first_row
    ref = np.array([12.510, 8.253, 6.140, 5.543, 5.543, 6.140, 8.253])
    worst = float(np.max(np.abs(row - ref) / ref))
    check("C2 reference-row-n7", worst <= 5e-4, f"max rel dev {worst:.2e} <= 5e-4")


def test_c3_eigen_estimate_table():
    refs = {
        2.2: (4.17, 1.58, 1.72e3),
        3.0: (2.93, 0.97, 9.62e4),
        10.0: (2.05, 0.52, 1.03e21),
    }
    start = time.perf_counter()
    reports = {beta: eigen_report(build_model(beta, 200)) for beta in refs}
    elapsed = time.perf_counter() - start
    ok = True
    details = []
    for beta, (d_ref, a_ref, v_ref) in refs.items():
        rep = reports[beta]
        ok &= abs(rep.d_est - d_ref) <= 0.02
        ok &= abs(rep.alpha_est - a_ref) <= 0.02
        ok &= _rel(rep.var_est, v_ref) <= 0.02
        details.append(f"b={beta}: d={rep.d_est:.3f} a={rep.alpha_est:.3f} v={rep.var_est:.3e}")
    ok &= elapsed < 0.1
    check("C3 eigen-estimates", bool(ok), "; ".join(details) + f"; {elapsed*1e3:.1f} ms")


@pytest.fixture(scope="module")
def studies():
    start = time.perf_counter()
    result = {
        beta: run_study(beta, 200, replicates=500, seed=SEED)
        for beta in (2.2, 3.0, 10.0)
    }
    return result, time.perf_counter() - start


def test_c4_measured_table(studies):
    reports, elapsed = studies
    refs = {
        2.2: (4.22, 0.22, 1.61, 0.29, 1.67e3, 0.71),
        3.0: (3.21, 0.23, 1.10, 0.34, 8.80e4, 0.88),
        10.0: (2.00, 0.03, 0.50, 0.05, 1.03e21, 0.96),
    }
    ok = True
    details = []
    for beta, (d_ref, d_cv, a_ref, a_cv, v_ref, v_cv) in refs.items():
        rep = reports[beta]
        for value, ref, cv, label in (
            (rep.mean_d, d_ref, d_cv, "d"),
            (rep.mean_alpha, a_ref, a_cv, "a"),
            (rep.mean_var, v_ref, v_cv, "v"),
        ):
            band = 3.0 * cv * ref / math.sqrt(500)
            inside = abs(value - ref) <= band
            ok &= inside
            if label == "d":
                details.append(f"b={beta}: d={value:.3f} (ref {d_ref}+-{band:.3f})")
    ok &= elapsed < 30.0
    check("C4 measured-table", bool(ok), "; ".join(details) + f"; {elapsed:.1f} s")


def test_c5_condition_numbers():
    kappa0 = eigen_report(build_model(0.0, 200)).kappa
    kappa22 = eigen_report(build_model(2.2, 200)).kappa
    kappa10 = eigen_report(build_model(10.0, 200)).kappa
    ok = kappa0 == 1.0
    ok &= 3.4e2 / 1.5 <= kappa22 <= 3.4e2 * 1.5
    ok &= 3.2e11 / 1.5 <= kappa10 <= 3.2e11 * 1.5
    check(
        "C5 condition-numbers",
        bool(ok),
        f"kappa(0)={kappa0} exact, kappa(2.2)={kappa22:.4g}, kappa(10)={kappa10:.4g}",
    )


def test_c6_spectral_slope():
    worst = 0.0
    for beta in (1.0, 2.2, 3.0, 7.0, 10.0):
        slope = eigen_report(build_model(beta, 200)).slope_fit
        worst = max(worst, abs(slope + beta / 2) / (beta / 2))
    check("C6 spectral-slope", worst <= 0.05, f"max rel dev {worst:.4f} <= 0.05")


def test_c7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_conv = 0.0
    for _ in range(100):
        rn = int(rng.integers(1, 51)) * 2 + 1  # odd in 3..101
        row = rng.normal(size=rn)
        v = rng.normal(size=rn)
        fast = circular_convolve(row, v)
        dense = circular_convolve(row, v, dense=True)
        worst_conv = max(
            worst_conv, float(np.abs(fast - dense).max() / np.abs(dense).max())
        )
    worst_eig = 0.0
    for beta in BETA_GRID:
        for n in (51, 101):
            model = build_model(beta, n)
            solved = np.sort(np.linalg.eigvalsh(circulant_matrix(model.first_row)))[::-1]
            worst_eig = max(
                worst_eig,
                float(np.abs(model.eigenvalues - solved).max() / model.eigenvalues[0]),
            )
    ok = worst_conv <= 1e-9 and worst_eig <= 1e-8
    check(
        "C7 oracle-equivalence",
        ok,
        f"conv {worst_conv:.2e} <= 1e-9 over 100 cases; eigen {worst_eig:.2e} <= 1e-8",
    )


@pytest.mark.block_budget(100_000)
def test_c8_property_suite(monkeypatch):
    rng = np.random.default_rng(42)
    ok = True

    # Parseval isometry at 1e-10
    for _ in range(20):
        x = rng.normal(size=int(rng.integers(1, 200)))
        ok &= abs(np.sum(x**2) - np.sum(np.abs(unitary_dft(x)) ** 2)) <= 1e-10 * (
            1 + np.sum(x**2)
        )

    # Popoviciu bound on every generated series
    for beta in BETA_GRID:
        model = build_model(beta, 200)
        for i in range(5):
            sample = generate(model, RngStream(seed=SEED, stream_index=i))
            ok &= sample_stats(sample.series).ratio <= 0.25 + 1e-12

    # location-scale invariance of the ratio at 1e-10
    for _ in range(20):
        x = rng.normal(size=50)
        scale = float(rng.uniform(0.1, 10))
        shift = float(rng.uniform(-100, 100))
        ok &= (
            abs(sample_stats(scale * x + shift).ratio - sample_stats(x).ratio) <= 1e-10
        )

    # kappa / d_raw monotone in beta
    kappas, d_raws = [], []
    for beta in [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
        rep = eigen_report(build_model(beta, 200))
        kappas.append(rep.kappa)
        d_raws.append(rep.d_raw)
    ok &= all(a < b for a, b in zip(kappas, kappas[1:]))
    ok &= all(a > b for a, b in zip(d_raws, d_raws[1:]))

    # histogram mass = 1 at 1e-9
    model = build_model(2.2, 40)
    vectors = [
        generate(model, RngStream(seed=SEED, stream_index=i)).standardized
        for i in range(30)
    ]
    hist = accumulate_histogram(vectors, bin_count=37)
    ok &= abs(float(np.sum(hist.densities * np.diff(hist.edges))) - 1.0) <= 1e-9

    # full-run determinism under fixed seeds, including workers > 1: 200
    # replicates at rn = 201 are 7 blocks, split 3 + 3 + 1 over 3 children
    forks = split_small_runs(monkeypatch)
    a = run_study(2.2, 200, replicates=200, seed=SEED, workers=1)
    b = run_study(2.2, 200, replicates=200, seed=SEED, workers=3)
    c = run_study(2.2, 200, replicates=200, seed=SEED, workers=1)
    ok &= asdict(a) == asdict(b) == asdict(c) and len(forks) == 3

    check("C8 property-suite", bool(ok), "parseval/popoviciu/invariance/monotone/mass/determinism")


@pytest.fixture(scope="module")
def shape_fits():
    start = time.perf_counter()
    fits = {}
    for beta in (10.0, 0.001, 2.2):
        model = build_model(beta, 200)
        vectors = [
            generate(model, RngStream(seed=SEED, stream_index=i)).standardized
            for i in range(200)
        ]
        fits[beta] = fit_alpha_from_histogram(
            accumulate_histogram(vectors, bin_count=100)
        )
    return fits, time.perf_counter() - start


def test_c9_shape_beta10(shape_fits):
    fits, _ = shape_fits
    value = fits[10.0]
    check("C9 shape[beta=10]", 0.4 <= value <= 0.6, f"fit_alpha={value:.4f} in 0.5+-0.1")


def test_c9_shape_beta_near_zero(shape_fits):
    """Fails by design: the target is unreachable for this pipeline.

    Near beta = 0 each replicate is a roughly Gaussian sample of length
    201, and range-standardization maps its observed range (about 5.5
    sigma in expectation for 201 normals) onto [0, 1].  The pooled values
    then have standard deviation about 1/5.5 of the support, variance
    about 1/30, and the moment fit returns 30/8 - 1/2, i.e. about 3.2 --
    measured 3.22-3.24 across seeds 5..14 and beta in {0, 0.001, 0.1}.
    Reaching fit_alpha > 5 would need pooled variance below 1/44, i.e. a
    sample whose range exceeds 6.6 of its own standard deviations, which
    201 Gaussians essentially never produce.  The threshold is kept as
    stated rather than weakened; this check documents the gap.
    """
    fits, _ = shape_fits
    value = fits[0.001]
    check("C9 shape[beta~0]", value > 5.0, f"fit_alpha={value:.4f}, required > 5")


def test_c9_shape_beta22_and_runtime(shape_fits):
    fits, elapsed = shape_fits
    value = fits[2.2]
    ok = 1.3 <= value <= 1.9 and elapsed < 10.0
    check(
        "C9 shape[beta=2.2]",
        ok,
        f"fit_alpha={value:.4f} in [1.3, 1.9]; all three pipelines {elapsed:.1f} s",
    )
