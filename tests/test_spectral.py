"""Grid, model, and eigenvalue-report tests against closed-form oracles."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import cli, dft, spectral
from longmem.dft import DENSE_GUARD, circulant_matrix
from longmem.errors import ModelConstructionError, ResourceLimitError
from longmem.montecarlo import run_study
from longmem.spectral import build_grid, build_model, eigen_report

BETA_GRID = [0.0, 0.5, 1.0, 2.2, 3.0, 7.0, 10.0]


class TestBuildGrid:
    def test_n5_exact_values(self):
        grid = build_grid(5)
        assert grid.rn == 5
        np.testing.assert_array_equal(
            grid.frequencies, np.array([-0.5, -0.3, 0.1, 0.3, 0.5])
        )

    def test_n2_exact_values(self):
        grid = build_grid(2)
        assert grid.rn == 3
        np.testing.assert_array_equal(grid.frequencies, np.array([-0.5, 0.25, 0.5]))

    def test_n200_shape(self):
        grid = build_grid(200)
        assert grid.rn == 201
        assert grid.frequencies.shape == (201,)
        assert grid.frequencies[100] == 1.0 / 400.0
        assert grid.frequencies[0] == -0.5
        assert grid.frequencies[-1] == 0.5

    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=80)
    def test_structure(self, n):
        grid = build_grid(n)
        f = grid.frequencies
        assert grid.rn == (n if n % 2 == 1 else n + 1)
        assert grid.rn % 2 == 1
        assert f.shape == (grid.rn,)
        assert np.all(f != 0.0)
        assert np.all(np.abs(f) <= 0.5)
        assert np.abs(f).min() == 1.0 / (2 * n)
        assert np.all(np.diff(f) > 0)
        # mirrored halves around the 1/(2n) pivot
        m = n // 2
        np.testing.assert_array_equal(f[m + 1 :], -f[:m][::-1])

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=40)
    def test_negative_half_matches_stepping_oracle(self, n):
        # walk from -1/2 in steps of 1/n, stopping once past -1/n
        expected = []
        value = -0.5
        while value < -1.0 / n + 1e-12:
            expected.append(value)
            value += 1.0 / n
        f = build_grid(n).frequencies
        np.testing.assert_allclose(f[: len(expected)], expected, atol=1e-12)
        assert len(expected) == n // 2

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_grid(1)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            build_grid(5.5)

    def test_length_above_guard_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="grid length 1000000000001 exceeds"):
                build_grid(10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_length_guard_edge(self, monkeypatch):
        monkeypatch.setattr(dft, "LENGTH_GUARD", 21)
        assert build_grid(20).rn == build_grid(21).rn == 21
        for refused in (lambda: build_grid(22), lambda: build_model(2.2, 22),
                        lambda: run_study(2.2, 22, 2, 5)):
            with pytest.raises(ResourceLimitError, match="grid length 23 exceeds the guard limit 21"):
                refused()


class TestBuildModel:
    def test_reference_rows_beta7_n5(self):
        model = build_model(7.0, 5)
        np.testing.assert_allclose(
            model.density, [11.31, 67.62, 3162.28, 67.62, 11.31], rtol=5e-3
        )
        np.testing.assert_allclose(
            model.first_row, [664.0, 637.2, 612.0, 612.0, 637.2], rtol=5e-3
        )
        np.testing.assert_allclose(
            model.eigenvalues, [3162.28, 67.62, 67.62, 11.31, 11.31], rtol=5e-3
        )

    def test_reference_row_beta3_n7(self):
        model = build_model(3.0, 7)
        np.testing.assert_allclose(
            model.first_row,
            [12.510, 8.253, 6.140, 5.543, 5.543, 6.140, 8.253],
            rtol=5e-4,
        )

    def test_beta0_is_exact_identity(self):
        model = build_model(0.0, 200)
        impulse = np.zeros(201)
        impulse[0] = 1.0
        np.testing.assert_array_equal(model.first_row, impulse)
        np.testing.assert_array_equal(model.eigenvalues, np.ones(201))
        np.testing.assert_array_equal(model.density, np.ones(201))

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_eigenvalues_sorted_positive(self, beta):
        model = build_model(beta, 200)
        lam = model.eigenvalues
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) <= 0)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("n", [5, 40, 200])
    def test_transform_pair_round_trip(self, beta, n):
        # modulus in the construction loses nothing anywhere in beta range:
        # the row's forward transform, which build_model sorts into the
        # eigenvalues, gives back the density values
        model = build_model(beta, n)
        np.testing.assert_allclose(
            model.eigenvalues,
            np.sort(model.density)[::-1],
            rtol=1e-8,
            atol=1e-8 * float(model.density.max()),
        )

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_first_row_exact_palindrome(self, beta):
        row = build_model(beta, 200).first_row
        np.testing.assert_array_equal(row[1:], row[1:][::-1])

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_first_row_nonnegative_peaked_at_zero_lag(self, beta):
        row = build_model(beta, 200).first_row
        assert np.all(row >= 0)
        assert row.argmax() == 0

    def test_dense_transform_route_agrees(self):
        fast = build_model(2.2, 31)
        dense = build_model(2.2, 31, dense=True)
        np.testing.assert_allclose(dense.first_row, fast.first_row, rtol=1e-10)
        assert (
            np.abs(dense.eigenvalues - fast.eigenvalues).max()
            <= 1e-10 * fast.eigenvalues[0]
        )

    # The eigenvalues come from a forward transform of the row, whose
    # rounding swamps the smallest ones: these builds raise, with smallest
    # eigenvalues -2.467e3, -24.4 and -207.9.  Taking the eigenvalues from
    # the density instead would let them build and lift the marker.
    @pytest.mark.xfail(strict=True, raises=ModelConstructionError,
                       reason="the row's forward transform loses the small eigenvalues")
    @pytest.mark.parametrize("beta, n", [(10, 5000), (8, 20000), (6, 10**6)])
    def test_builds_where_the_round_trip_loses_positivity(self, beta, n):
        assert np.all(build_model(beta, n).eigenvalues > 0)

    def test_imaginary_residue_is_refused(self, monkeypatch, capsys):
        # The row is a real palindrome, so its forward spectrum is real to
        # rounding.  A transform that leaves an imaginary part of 1e-6 times
        # each real part, above EIGEN_IMAG_TOL = 1e-8 of the largest, is refused.
        lam = float(build_model(2.2, 20).eigenvalues[0])
        transform = spectral.unitary_dft

        def skewed(x, direction="forward", dense=False):
            out = transform(x, direction, dense=dense)
            return out.real * (1 + 1e-6j) if direction == "forward" else out

        monkeypatch.setattr(spectral, "unitary_dft", skewed)
        message = (f"spectrum of the symmetric row has imaginary residue {1e-6 * lam:.3e} "
                   f"against leading eigenvalue {lam:.3e}")
        assert 1e-6 > spectral.EIGEN_IMAG_TOL
        for dense in (False, True):
            with pytest.raises(ModelConstructionError) as raised:
                build_model(2.2, 20, dense=dense)
            assert str(raised.value) == message
        assert cli.main(["spectrum", "--beta", "2.2", "--n", "20"]) == 1
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == "" and len(lines) == 1
        assert json.loads(lines[0]) == {"error": {"type": "ModelConstructionError",
                                                  "message": message}}

    def test_beta_out_of_range_rejected(self):
        for bad in (-0.1, 10.5, math.nan):
            with pytest.raises(ValueError):
                build_model(bad, 10)

    def test_model_arrays_read_only(self):
        model = build_model(2.2, 10)
        for arr in (model.density, model.first_row, model.eigenvalues):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestDenseOperator:
    def test_symmetric_and_row_match(self):
        model = build_model(2.2, 11)
        C = circulant_matrix(model.first_row)
        np.testing.assert_array_equal(C, C.T)
        np.testing.assert_array_equal(C[0], model.first_row)
        np.testing.assert_array_equal(C[:, 0], model.first_row)

    def test_beta0_identity_matrix(self):
        C = circulant_matrix(build_model(0.0, 11).first_row)
        np.testing.assert_array_equal(C, np.eye(11))

    def test_guard_rejects_large_order(self):
        model = build_model(0.0, DENSE_GUARD + 1)
        with pytest.raises(ResourceLimitError):
            circulant_matrix(model.first_row)

    @pytest.mark.parametrize("beta", BETA_GRID)
    @pytest.mark.parametrize("n", [51, 101])
    def test_analytic_eigenvalues_match_dense_solver(self, beta, n):
        # normwise agreement: dense symmetric solvers are accurate to
        # eps * lambda_1 absolutely, so tiny eigenvalues carry no relative
        # guarantee of their own
        model = build_model(beta, n)
        solved = np.sort(np.linalg.eigvalsh(circulant_matrix(model.first_row)))[::-1]
        assert (
            np.abs(model.eigenvalues - solved).max() <= 1e-8 * model.eigenvalues[0]
        )


class TestEigenReport:
    def test_estimate_table_n200(self):
        refs = {
            2.2: (4.17, 1.58, 1.72e3),
            3.0: (2.93, 0.97, 9.62e4),
            10.0: (2.05, 0.52, 1.03e21),
        }
        for beta, (d_ref, a_ref, v_ref) in refs.items():
            report = eigen_report(build_model(beta, 200))
            assert report.d_est == pytest.approx(d_ref, abs=0.02)
            assert report.alpha_est == pytest.approx(a_ref, abs=0.02)
            assert report.var_est == pytest.approx(v_ref, rel=0.02)

    def test_beta0_degenerate_values(self):
        report = eigen_report(build_model(0.0, 200))
        assert report.d_raw == 201.0
        assert report.kappa == 1.0
        assert report.var_est == 1.0

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("beta", [0.5, 2.2, 7.0])
    def test_kappa_equals_power_law(self, beta, n):
        # extremes of the density sit at |f| = 1/(2n) and 1/2, so
        # kappa = n**(beta/2) in closed form
        model = build_model(beta, n)
        assert eigen_report(model).kappa == pytest.approx(n ** (beta / 2), rel=1e-8)

    def test_kappa_and_d_raw_monotone_in_beta(self):
        betas = [0.0, 1.0, 2.0, 2.2, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        kappas = []
        d_raws = []
        for beta in betas:
            report = eigen_report(build_model(beta, 200))
            kappas.append(report.kappa)
            d_raws.append(report.d_raw)
        assert all(a < b for a, b in zip(kappas, kappas[1:]))
        assert all(a > b for a, b in zip(d_raws, d_raws[1:]))

    @pytest.mark.parametrize("beta", [1.0, 2.2, 3.0, 7.0, 10.0])
    def test_slope_tracks_half_beta(self, beta):
        slope = eigen_report(build_model(beta, 200)).slope_fit
        assert abs(slope + beta / 2) <= 0.05 * (beta / 2)

    def test_slope_nan_when_too_short(self):
        # rn = 3 leaves a single fit rank
        assert math.isnan(eigen_report(build_model(2.0, 2)).slope_fit)

    def test_var_est_matches_density_oracle(self):
        # eigenvalues are the density values, so var_est must equal the
        # density moment computed without touching the transform
        model = build_model(2.2, 200)
        rho = np.sort(model.density)[::-1]
        expected = float(np.sum(rho[1:] ** 2)) / (model.rn - 1)
        assert eigen_report(model).var_est == pytest.approx(expected, rel=1e-10)

    def test_alpha_d_relation(self):
        report = eigen_report(build_model(3.0, 200))
        assert report.alpha_est == pytest.approx((report.d_est - 1) / 2, rel=1e-14)
        assert report.E == pytest.approx(report.d_raw / math.sqrt(2) + 1, rel=1e-14)

    def test_dense_solver_route_agrees(self):
        model = build_model(2.2, 31)
        fast = eigen_report(model)
        dense = eigen_report(replace(model, dense=True))
        assert dense.d_est == pytest.approx(fast.d_est, rel=1e-9)
        assert dense.var_est == pytest.approx(fast.var_est, rel=1e-9)
        assert dense.kappa == pytest.approx(fast.kappa, rel=1e-7)
        assert dense.slope_fit == pytest.approx(fast.slope_fit, rel=1e-7)

    def test_dense_model_reports_from_dense_solver(self):
        # Bit for bit: a dense model reports from its eigvalsh spectrum.
        model = build_model(2.2, 41, dense=True)
        solved = np.sort(np.linalg.eigvalsh(circulant_matrix(model.first_row)))[::-1]
        expected = eigen_report(replace(model, eigenvalues=solved, dense=False))
        assert eigen_report(model) == expected
