"""Replication-harness tests: determinism across worker counts and
agreement between measured and eigenvalue-predicted statistics."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from conftest import constant_rows

import longmem.sampler as sampler
from longmem.dft import PaddedSpectrum, circulant_matrix, convolution_operator
from longmem.errors import DegenerateSampleError
from longmem.estimators import sample_stats
from longmem.montecarlo import run_study
from longmem.sampler import RngStream, generate, replicate_blocks
from longmem.spectral import build_grid, build_model, eigen_report


def _report_floats(report):
    flat = asdict(report)
    eigen = flat.pop("eigen")
    flat.update({f"eigen_{k}": v for k, v in eigen.items()})
    return flat


class TestDeterminism:
    def test_repeat_runs_identical(self):
        a = run_study(2.2, 40, replicates=40, seed=5)
        b = run_study(2.2, 40, replicates=40, seed=5)
        assert _report_floats(a) == _report_floats(b)

    def test_worker_count_does_not_change_results(self):
        serial = run_study(2.2, 40, replicates=40, seed=5, workers=1)
        threaded = run_study(2.2, 40, replicates=40, seed=5, workers=4)
        assert _report_floats(serial) == _report_floats(threaded)

    def test_seeds_change_results(self):
        a = run_study(2.2, 40, replicates=40, seed=5)
        b = run_study(2.2, 40, replicates=40, seed=6)
        assert a.mean_var != b.mean_var


class TestReplicateSamples:
    """Row ``k`` of ``replicate_blocks`` is ``generate(model, RngStream(seed,
    k))``, on the model's route."""

    # Seed 7's ids are the bare replicate counts.
    @pytest.mark.parametrize("replicates, seed", [
        pytest.param(count, seed, id=str(count) if seed == 7 else f"{count}-seed{seed}")
        for seed in (7, 0, 2**64 - 1) for count in (1, 5)
    ])
    @pytest.mark.parametrize("dense", [False, True])
    def test_sample_i_is_stream_i(self, seed, replicates, dense, monkeypatch):
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 16 * 21 * 2)  # two rows per block
        model = build_model(2.2, 20, dense=dense)
        samples = [block.sample(k) for block in replicate_blocks(model, seed, replicates)
                   for k in range(len(block.epsilon))]
        assert len(samples) == replicates
        for i, sample in enumerate(samples):
            expected = generate(model, RngStream(seed=seed, stream_index=i))
            assert (sample.seed, sample.stream_index) == (seed, i)
            for field in ("epsilon", "series", "standardized"):
                assert np.array_equal(getattr(sample, field), getattr(expected, field))

    def test_padded_route_row_is_generate(self):
        # rn = 1019 is prime: the padded route, 6 rows per block at the
        # default budget, so 8 replicates span two blocks.
        model = build_model(2.2, 1018)
        assert isinstance(convolution_operator(model.first_row), PaddedSpectrum)
        blocks = list(replicate_blocks(model, 7, 8))
        assert [len(block.epsilon) for block in blocks] == [6, 2]
        for block in blocks:
            for k in range(len(block.epsilon)):
                expected = generate(model, RngStream(seed=7, stream_index=block.start + k))
                for field in ("epsilon", "series", "cosvec", "standardized"):
                    assert np.array_equal(getattr(block.sample(k), field),
                                          getattr(expected, field))


class TestCosineLaw:
    """Entry 0 of ``cosvec`` is the inner product of a unit vector with
    eps/||eps||, uniform on the sphere S^(rn-1), at every beta: so across
    independent replicates E t**2 = 1/rn and E t**4 = 3/(rn(rn+2)), and the
    exact variances of t**2 and t**4 follow from E t**8 = 105/(rn(rn+2)(rn+4)(rn+6)).
    Each check holds at |z| <= 4 over 4000 engine replicates of seed 5."""

    REPLICATES = 4000

    @pytest.mark.parametrize("beta, n", [
        (0.0, 5),    # z = -1.59 (t**2), -1.84 (t**4)
        (2.2, 5),    # z = -0.15, 0.07
        (10.0, 5),   # z = 0.43, 0.95
        (0.0, 20),   # z = -1.47, -1.70
        (2.2, 20),   # z = -0.09, 0.39
        (10.0, 20),  # z = 0.32, 0.36
    ])
    def test_entry0_moments(self, beta, n):
        model = build_model(beta, n)
        rn, count = model.rn, self.REPLICATES
        t = np.concatenate([block.cosvec[:, 0] for block in replicate_blocks(model, 5, count)])
        assert t.size == count
        m2, m4 = 1 / rn, 3 / (rn * (rn + 2))
        m8 = 105 / (rn * (rn + 2) * (rn + 4) * (rn + 6))
        z2 = ((t**2).mean() - m2) / math.sqrt((m4 - m2**2) / count)
        z4 = ((t**4).mean() - m4) / math.sqrt((m8 - m4**2) / count)
        assert abs(z2) <= 4 and abs(z4) <= 4, (z2, z4)


def law_eigenvalues(beta, n):
    """The operator's eigenvalues by the paper's transform pair: the density
    |f|**(-beta/2) on the grid, descending.  Built here from the grid alone,
    so a model that scales or reshapes its spectrum cannot agree with it."""
    return np.sort(np.abs(build_grid(n).frequencies) ** (-beta / 2.0))[::-1]


def bin_eigenvalues(model):
    """The density on the FFT bins by |f| rank, from the grid alone: bin 0
    takes the smallest |f|, and bins k and rn - k the k-th pair above it."""
    by_rank = model.density[np.argsort(np.abs(model.grid.frequencies), kind="stable")]
    pairs = by_rank[1::2]
    return np.concatenate([by_rank[:1], pairs, pairs[::-1]])


class TestVarianceLaw:
    """The row is positive, so its DC eigenvalue is the largest, lam_1.  A
    series C eps has sample variance (ddof 1) eps' C P C eps / (rn - 1), P
    the centering projection: a sum of independent chi-square(1) terms with
    weights w_k = lam_k**2 / (rn - 1), k >= 2.  Its cumulants are
    kappa_r = 2**(r-1) (r-1)! sum w_k**r, so the mean is var_est and the
    variance 2 sum lam_k**4 / (rn - 1)**2.  The checks hold at |z| <= 4 over
    500 replicates of seed 5 on the grid below; the CV's standard error is
    the delta method's, from the same cumulants."""

    REPLICATES = 500
    GRID = [
        # beta, n: z of the mean variance, z of the CV
        (0.0, 40),     # z = 1.30, -0.74
        (0.0, 200),    # z = -1.22, -0.16
        (2.2, 40),     # z = 1.23, -0.41
        (2.2, 200),    # z = -0.41, -0.58
        (3.0, 40),     # z = 1.21, -0.69
        (3.0, 200),    # z = -0.36, -0.78
        (10.0, 40),    # z = 1.16, -0.94
        (10.0, 200),   # z = -0.19, -1.12
        (2.2, 1018),   # z = -1.30, -0.22 (rn = 1019, the padded route)
        (10.0, 1018),  # z = -1.17, 0.19
    ]

    @staticmethod
    def cumulants(beta, n):
        lam = law_eigenvalues(beta, n)
        weights = lam[1:] ** 2 / (lam.size - 1)
        return [2 ** (r - 1) * math.factorial(r - 1) * float(np.sum(weights**r))
                for r in (1, 2, 3, 4)]

    @pytest.mark.parametrize("beta, n", GRID)
    def test_var_est_is_the_law_mean(self, beta, n):
        mean = self.cumulants(beta, n)[0]
        assert eigen_report(build_model(beta, n)).var_est == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("beta, n", GRID)
    def test_mean_sample_variance(self, beta, n):
        k1, k2, _, _ = self.cumulants(beta, n)
        report = run_study(beta, n, self.REPLICATES, seed=5)
        z = (report.mean_var - k1) / math.sqrt(k2 / self.REPLICATES)
        assert abs(z) <= 4, z

    @pytest.mark.parametrize("beta, n", GRID)
    def test_predicted_cv_matches_study(self, beta, n):
        k1, k2, k3, k4 = self.cumulants(beta, n)
        cv = math.sqrt(k2) / k1
        # Delta method for sd / mean: moments mu3 = k3, mu4 = k4 + 3 k2**2.
        se = math.sqrt((k2**2 / k1**4 + (k4 + 2 * k2**2) / (4 * k2 * k1**2) - k3 / k1**3)
                       / self.REPLICATES)
        report = run_study(beta, n, self.REPLICATES, seed=5)
        z = (report.cv_var - cv) / se
        assert abs(z) <= 4, (z, report.cv_var, cv)


class TestParseval:
    """Per replicate, ||C eps||**2 = (1/rn) sum_k lam_k**2 |fft(eps)_k|**2, with
    eps drawn afresh from stream (seed, i) and lam_k the law's eigenvalue of
    FFT bin k (placed on the bins by the rank of the model's own spectrum).
    It holds to rounding: the worst relative gap over 40 replicates of seed 11
    is 2.9e-15 on the complex route (n <= 200) and 1.0e-14 on the padded
    route (n = 1018, rn = 1019 prime; at beta = 10)."""

    @pytest.mark.parametrize("beta", [0.0, 0.001, 2.2, 10.0])
    @pytest.mark.parametrize("n", [5, 40, 200, 1018])
    def test_each_replicate(self, beta, n):
        model = build_model(beta, n)
        rn = model.rn
        lam = np.empty(rn)
        lam[np.argsort(np.fft.fft(model.first_row).real)] = law_eigenvalues(beta, n)[::-1]
        for block in replicate_blocks(model, 11, 40):
            for k, series in enumerate(block.series):
                eps = RngStream(seed=11, stream_index=block.start + k).generator().standard_normal(rn)
                energy = float(np.sum(lam**2 * np.abs(np.fft.fft(eps)) ** 2)) / rn
                assert float(series @ series) == pytest.approx(energy, rel=1e-11)


class TestSpectralTrend:
    """The operator's eigenvectors are the Fourier modes, so per FFT bin k,
    fft(C eps)_k = lam_k fft(eps)_k and |fft(C eps)_k|**2 / (rn lam_k**2) is a
    chi-square(1) at k = 0 and a chi-square(2)/2 elsewhere: mean 1, standard
    deviation sqrt(2) at k = 0 and 1 elsewhere.  lam_k is the density at
    |f| rank: bin 0 takes the smallest |f|, and bins k and rn - k the k-th
    pair above it, so a model that puts its spectrum on the wrong bins
    fails here even when its eigenvalues, sorted, are right.

    Each bin's mean over 4000 replicates of seed 5 holds at |z| <= 4.
    Bonferroni split: bins k and rn - k of a real series are conjugate, so
    the three cases test 11 + 21 + 101 = 133 distinct bins; at a two-sided
    normal level of 6.3e-5 per bin the family-wise level is 0.84%."""

    REPLICATES = 4000

    @pytest.mark.parametrize("beta, n", [
        (2.2, 20),  # max |z| = 1.25
        (10, 40),   # max |z| = 1.44
        (3, 200),   # max |z| = 2.64
    ])
    def test_mean_power_per_bin(self, beta, n):
        model = build_model(beta, n)
        rn, count = model.rn, self.REPLICATES
        power = np.zeros(rn)
        for block in replicate_blocks(model, 5, count):
            power += (np.abs(np.fft.fft(block.series, axis=1)) ** 2).sum(axis=0)
        ratio = power / count / (rn * bin_eigenvalues(model) ** 2)
        sd = np.full(rn, math.sqrt(1 / count))
        sd[0] = math.sqrt(2 / count)
        z = (ratio - 1) / sd
        assert np.abs(z).max() <= 4, (int(np.abs(z).argmax()), float(np.abs(z).max()))


class TestCovarianceLaw:
    """Principal component analysis of the replicates: a series C eps has
    covariance C**2, the circulant whose first row is ifft(lam**2), lam_k the
    density on FFT bin k by |f| rank as in TestSpectralTrend.  So the Fourier
    modes are the principal axes and lam_k**2 their variances.  Over R rows
    W, the known-zero-mean sample covariance S = W'W / R has entries of mean
    Sigma_ij and variance (Sigma_ii Sigma_jj + Sigma_ij**2) / R.

    Each entry of the upper triangle over 4000 replicates of seed 5 holds at
    |z| <= 4.  Bonferroni split: the four cases test 2 * 15 + 2 * 231 = 492
    entries; at a two-sided normal level of 6.3e-5 per entry the family-wise
    level is 3.1%.  The cases stay at beta <= 2.2: higher up, the variance of
    the DC mode sets every entry's standard error, and a spectrum on the
    wrong bins hides below it."""

    REPLICATES = 4000

    @pytest.mark.parametrize("beta, n", [
        (1.0, 5),   # max |z| = 1.57
        (2.2, 5),   # max |z| = 0.96
        (1.0, 21),  # max |z| = 2.58
        (2.2, 21),  # max |z| = 1.50
    ])
    def test_sample_covariance_entries(self, beta, n):
        model = build_model(beta, n)
        rn, count = model.rn, self.REPLICATES
        sigma = circulant_matrix(np.fft.ifft(bin_eigenvalues(model) ** 2).real)
        s = sum(block.series.T @ block.series for block in replicate_blocks(model, 5, count)) / count
        var = np.diag(sigma)
        z = np.abs(s - sigma) / np.sqrt((np.outer(var, var) + sigma**2) / count)
        z = z[np.triu_indices(rn)]
        assert z.max() <= 4, (int(z.argmax()), float(z.max()))


class TestAggregation:
    def test_means_and_cvs_match_direct_replication(self):
        report = run_study(3.0, 40, replicates=30, seed=9)
        model = build_model(3.0, 40)
        variances = []
        for i in range(30):
            sample = generate(model, RngStream(seed=9, stream_index=i))
            variances.append(sample_stats(sample.series).variance)
        variances = np.array(variances)
        assert report.mean_var == pytest.approx(variances.mean(), rel=1e-12)
        expected_cv = variances.std(ddof=1) / variances.mean()
        assert report.cv_var == pytest.approx(expected_cv, rel=1e-12)

    def test_mean_d_alpha_relation(self):
        report = run_study(2.2, 40, replicates=30, seed=5)
        assert report.mean_d == pytest.approx(2 * report.mean_alpha + 1, rel=1e-12)

    def test_beta0_variance_near_unity(self):
        # identity operator: series is standard normal, spectral variance
        # estimate is exactly 1
        report = run_study(0.0, 200, replicates=100, seed=5)
        assert report.eigen.var_est == 1.0
        assert report.mean_var == pytest.approx(1.0, abs=0.05)

    def test_measured_variance_tracks_spectral_estimate(self):
        report = run_study(2.2, 200, replicates=200, seed=5)
        se = report.cv_var * report.mean_var / math.sqrt(report.replicates)
        assert abs(report.mean_var - report.eigen.var_est) <= 4 * se

    def test_report_echoes_inputs(self):
        report = run_study(2.2, 40, replicates=12, seed=17, workers=2)
        assert (report.beta, report.n, report.replicates, report.seed) == (
            2.2,
            40,
            12,
            17,
        )


class TestValidation:
    def test_replicates_minimum(self):
        with pytest.raises(ValueError):
            run_study(2.2, 40, replicates=1, seed=5)

    def test_workers_minimum(self):
        with pytest.raises(ValueError):
            run_study(2.2, 40, replicates=5, seed=5, workers=0)

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            run_study(2.2, 40, replicates=5, seed=-1)

    # beta, n, dense: the complex route (rn = 5), the padded route (rn = 1019
    # is prime) and the dense route (rn = 41).  The last two convolve a
    # constant into a series with a rounding-sized range.
    ROUTES = [(0.0, 5, False), (0.0, 1018, False), (2.2, 40, True)]

    def test_constant_noise_names_its_stream(self, monkeypatch):
        # Constant noise gives a constant series, which cannot be standardized.
        monkeypatch.setattr(sampler, "_draw_noise",
                            lambda keyer, start, stop, rn: np.ones((stop - start, rn)))
        for beta, n, dense in self.ROUTES:
            with pytest.raises(DegenerateSampleError, match="stream_index=0: constant"):
                run_study(beta, n, replicates=5, seed=5, dense=dense)

    @pytest.mark.parametrize("failing", [{5}, {5, 7}])
    def test_first_constant_stream_in_a_block_is_named(self, failing, monkeypatch):
        # All 9 replicates in one block: the first constant row in stream
        # order is reported, whichever rows after it also fail.
        monkeypatch.setattr(sampler, "_draw_noise", constant_rows(sampler._draw_noise, failing))
        for beta, n, dense in self.ROUTES:
            monkeypatch.setattr(sampler, "CHUNK_BYTES", 9 * 16 * build_grid(n).rn)
            with pytest.raises(DegenerateSampleError, match="^replicate stream_index=5: constant"):
                run_study(beta, n, replicates=9, seed=5, dense=dense)

