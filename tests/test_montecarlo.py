"""Replication-harness tests: determinism across worker counts and
agreement between measured and eigenvalue-predicted statistics."""

import contextlib
import math
import os
import signal
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from conftest import constant_rows, counted_builds, split_small_runs

import longmem.montecarlo as montecarlo
import longmem.sampler as sampler
from longmem.dft import circulant_matrix, convolution_operator, transform_length
from longmem.errors import DegenerateSampleError
from longmem.estimators import sample_stats
from longmem.montecarlo import run_study, standardized_blocks
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

    @pytest.mark.block_budget(100_000)
    def test_worker_count_does_not_change_results(self, monkeypatch):
        # 200 replicates at rn = 201 are 7 blocks of up to 31 rows: 2, 3 and
        # 4 workers split them into shards of 4 + 3, 3 + 3 + 1 and
        # 2 + 2 + 2 + 1 blocks, one child each.  One build of the model
        # shows that every child delivered its shard.
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=1))
        assert forks == []
        for workers in (2, 3, 4):
            del forks[:], builds[:]
            split = run_study(2.2, 200, replicates=200, seed=5, workers=workers)
            assert _report_floats(split) == serial
            assert len(forks) == workers and len(builds) == 1

    # 500 replicates at rn = 41 on the dense route are 4 blocks of up to 152
    # rows; 40 at rn = 1019 on the padded route are 7 blocks of up to 6.
    @pytest.mark.block_budget(100_000)
    @pytest.mark.parametrize("n, replicates, dense, forks_by_workers", [
        (40, 500, True, {2: 2, 3: 2, 4: 4}),
        (1018, 40, False, {2: 2, 3: 3, 4: 4}),
    ], ids=["dense", "padded"])
    def test_split_routes_match_one_process(self, n, replicates, dense, forks_by_workers,
                                            monkeypatch):
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        serial = _report_floats(run_study(2.2, n, replicates, seed=5, dense=dense))
        for workers, count in forks_by_workers.items():
            del forks[:], builds[:]
            split = run_study(2.2, n, replicates, seed=5, workers=workers, dense=dense)
            assert _report_floats(split) == serial
            assert len(forks) == count and len(builds) == 1

    def test_shards_repay_their_fork(self):
        # A shard holds MIN_SHARD_VALUES = 400,000 series values or more.  At
        # rn = 201 (blocks of 248 at the default budget): 500 and 2000
        # replicates (100,500 and 402,000 values) stay in one process, 4000
        # (804,000, 17 blocks) split in two.
        assert montecarlo.MIN_SHARD_VALUES == 400_000
        assert montecarlo._shards(500, 201, 2) == [(0, 500)]
        assert montecarlo._shards(2000, 201, 2) == [(0, 2000)]
        assert montecarlo._shards(4000, 201, 4) == [(0, 9 * 248), (9 * 248, 4000)]
        # study-many's 81 blocks split 41 + 40.
        assert montecarlo._shards(20000, 201, 2) == [(0, 41 * 248), (41 * 248, 20000)]
        # Blocks of one replicate follow the same rule: at rn = 200001, 40
        # replicates (hist-wide) and 4 split in two, 3 stay whole.  At
        # rn = 5001 (blocks of 9), 159 stay whole and 160 split.
        assert montecarlo._shards(40, 200_001, 2) == [(0, 20), (20, 40)]
        assert montecarlo._shards(4, 200_001, 2) == [(0, 2), (2, 4)]
        assert montecarlo._shards(3, 200_001, 2) == [(0, 3)]
        assert montecarlo._shards(159, 5001, 2) == [(0, 159)]
        assert montecarlo._shards(160, 5001, 2) == [(0, 9 * 9), (9 * 9, 160)]

    @pytest.mark.block_budget(100_000)
    def test_shards_are_whole_blocks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MIN_SHARD_VALUES", 1)
        # 200 replicates in blocks of 31: 7 blocks, the last of 14.
        assert montecarlo._shards(200, 201, 1) == [(0, 200)]
        assert montecarlo._shards(200, 201, 3) == [(0, 93), (93, 186), (186, 200)]
        assert montecarlo._shards(200, 201, 4) == [(0, 62), (62, 124), (124, 186), (186, 200)]
        # 4 blocks on 3 workers: shards of 2 blocks, so only two of them.
        assert montecarlo._shards(100, 201, 3) == [(0, 62), (62, 100)]
        assert montecarlo._shards(30, 201, 4) == [(0, 30)]
        # Blocks of one replicate: never more shards than replicates.
        assert montecarlo._shards(3, 200_001, 4) == [(0, 1), (1, 2), (2, 3)]

    def test_one_replicate_blocks_split(self, monkeypatch):
        # 20 replicates at rn = 201 in blocks of one: shards of 10 each.
        serial = _report_floats(run_study(2.2, 200, replicates=20, seed=5))
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 2 * 16 * 201 - 1)
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=20, seed=5, workers=2)) == serial
        assert len(forks) == 2 and len(builds) == 1

    def test_default_threshold_splits_only_large_studies(self, monkeypatch):
        # At n = 200, 2000 replicates stay in this process and 4000 split in two.
        threshold = montecarlo.MIN_SHARD_VALUES
        forks = split_small_runs(monkeypatch)
        monkeypatch.setattr(montecarlo, "MIN_SHARD_VALUES", threshold)
        run_study(2.2, 200, replicates=2000, seed=5, workers=4)
        assert forks == []
        serial = _report_floats(run_study(2.2, 200, replicates=4000, seed=5))
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=4000, seed=5, workers=4)) == serial
        assert len(forks) == 2 and len(builds) == 1

    def test_seeds_change_results(self):
        a = run_study(2.2, 40, replicates=40, seed=5)
        b = run_study(2.2, 40, replicates=40, seed=6)
        assert a.mean_var != b.mean_var


class TestReplicateSamples:
    """Row ``k`` of ``replicate_blocks`` is ``generate(model, RngStream(seed,
    k))``, on the model's route, up to ``sampler.BLAS_DOT_MAX`` points a
    row."""

    # Seed 7's ids are the bare replicate counts.
    @pytest.mark.parametrize("replicates, seed", [
        pytest.param(count, seed, id=str(count) if seed == 7 else f"{count}-seed{seed}")
        for seed in (7, 0, 2**64 - 1) for count in (1, 5)
    ])
    @pytest.mark.parametrize("dense", [False, True])
    def test_sample_i_is_stream_i(self, seed, replicates, dense, monkeypatch):
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 16 * 21 * 2)  # two rows per block
        model = build_model(2.2, 20, dense=dense)
        blocks = list(replicate_blocks(model, seed, replicates))
        sizes = [len(block.series) for block in blocks]
        assert sum(sizes) == replicates
        assert [block.start for block in blocks] == [sum(sizes[:j]) for j in range(len(sizes))]
        for block in blocks:
            assert_rows_are_generate(model, seed, block)

    def test_first_replicate_skips_the_earlier_streams(self, monkeypatch):
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 16 * 21 * 2)  # two rows per block
        model = build_model(2.2, 20)
        everything = np.vstack([block.series for block in replicate_blocks(model, 7, 9)])
        draw, drawn = sampler._draw_noise, []

        def recorded(keyer, start, stop, rn):
            drawn.append((start, stop))
            return draw(keyer, start, stop, rn)

        monkeypatch.setattr(sampler, "_draw_noise", recorded)
        blocks = list(replicate_blocks(model, 7, 9, first=4))
        assert drawn == [(4, 6), (6, 8), (8, 9)]
        assert [block.start for block in blocks] == [4, 6, 8]
        assert np.array_equal(np.vstack([block.series for block in blocks]), everything[4:])

    @pytest.mark.block_budget(100_000)
    def test_padded_route_row_is_generate(self):
        # rn = 1019 is prime: the padded route, 6 rows per block at this
        # budget, so 8 replicates span two blocks.
        model = build_model(2.2, 1018)
        assert convolution_operator(model.first_row).length == transform_length(model.rn) > model.rn
        blocks = list(replicate_blocks(model, 7, 8))
        assert [len(block.series) for block in blocks] == [6, 2]
        for block in blocks:
            assert_rows_are_generate(model, 7, block)


def assert_rows_are_generate(model, seed, block):
    """Row ``k`` of the block's series, cosine and standardized arrays, and
    of the engine's noise for its streams, equals ``generate``'s field for
    stream ``(seed, block.start + k)`` bit for bit."""
    stop = block.start + len(block.series)
    rows = {"epsilon": sampler._draw_noise(sampler._StreamKeyer(seed), block.start, stop, model.rn),
            "series": block.series, "cosvec": block.cosvec, "standardized": block.standardized}
    for k in range(len(block.series)):
        expected = generate(model, RngStream(seed=seed, stream_index=block.start + k))
        for field, values in rows.items():
            assert np.array_equal(values[k], getattr(expected, field)), (field, k)


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

    def test_bad_seed_rejected(self, monkeypatch):
        # Both engines check the seed before they build the model.
        builds = counted_builds(monkeypatch)
        for engine in (run_study, standardized_blocks):
            with pytest.raises(ValueError, match="^seed must be"):
                engine(2.2, 40, 5, seed=-1)
        assert builds == []

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


def childless():
    """True when this process has no child, running or a zombie."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _track_models(monkeypatch):
    """Return the list that gets weak references to the arrays of each model
    ``montecarlo`` builds in this process, and make every draw assert that
    all of them are dead."""
    build, draw, refs = montecarlo.build_model, sampler._draw_noise, []

    def tracked(*args, **kwargs):
        model = build(*args, **kwargs)
        refs.extend(weakref.ref(a) for a in (model.density, model.first_row,
                                             model.eigenvalues, model.grid.frequencies))
        return model

    def checked(keyer, start, stop, rn):
        assert all(ref() is None for ref in refs), f"model alive at replicate {start}"
        return draw(keyer, start, stop, rn)

    monkeypatch.setattr(montecarlo, "build_model", tracked)
    monkeypatch.setattr(sampler, "_draw_noise", checked)
    return refs


def _stopping(monkeypatch, signum, after):
    """Make a child stop at its first block that starts after replicate
    ``after``: by the signal ``signum`` sent to itself (SIGINT to it alone
    raises KeyboardInterrupt there), or by a ``MemoryError`` if it is None.
    Return the list of the first replicates of the blocks this process
    draws."""
    parent, draw, drawn = os.getpid(), sampler._draw_noise, []

    def stopping(keyer, start, stop, rn):
        if os.getpid() != parent:
            if start > after:
                if signum is None:
                    raise MemoryError
                os.kill(os.getpid(), signum)
        else:
            drawn.append(start)
        return draw(keyer, start, stop, rn)

    monkeypatch.setattr(sampler, "_draw_noise", stopping)
    return drawn


# Blocks of shard 1 that this process draws when its child stops at 155.
# An exception still flushes the child's buffered block 124 .. 154 into the
# pipe; SIGKILL loses it with the rest.
REDRAWN = {signal.SIGKILL: [124, 155, 186], signal.SIGINT: [155, 186], None: [155, 186]}


def _failing_fork(monkeypatch, fails_at):
    """Make call ``fails_at`` of ``os.fork`` fail as a process limit does;
    return the list of calls."""
    fork, calls = os.fork, []

    def limited():
        calls.append(None)
        if len(calls) == fails_at:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited)
    return calls


STOPS = pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGINT, None],
                                ids=["kill", "int", "memory"])


@pytest.mark.block_budget(100_000)
class TestSplitStudy:
    """A study split over processes fails as one process does, naming the
    first failing replicate in stream order; it measures here each block
    that no child delivered; and no child outlives the call.
    200 replicates at rn = 201 are the shards 0 .. 123 and 124 .. 199 on 2
    workers, and 0 .. 92, 93 .. 185 and 186 .. 199 on 3, one child each."""

    @pytest.mark.parametrize("failing, workers, named", [
        ({150}, 2, 150),       # in shard 1 only
        ({30, 150}, 2, 30),    # in shards 0 and 1: shard 0's
        ({100, 190}, 3, 100),  # in shards 1 and 2: shard 1's
    ])
    def test_first_failing_replicate_is_named(self, failing, workers, named, monkeypatch):
        monkeypatch.setattr(sampler, "_draw_noise", constant_rows(sampler._draw_noise, failing))
        with pytest.raises(DegenerateSampleError) as serial:
            run_study(2.2, 200, replicates=200, seed=5, workers=1)
        assert str(serial.value).startswith(f"replicate stream_index={named}: constant")
        forks = split_small_runs(monkeypatch)
        with pytest.raises(DegenerateSampleError) as split:
            run_study(2.2, 200, replicates=200, seed=5, workers=workers)
        assert str(split.value) == str(serial.value)
        assert len(forks) == workers
        assert childless()

    # The child of shard 1 draws its block 124 .. 154 and stops at 155;
    # this process builds the model again and measures the blocks that the
    # child did not deliver.
    @STOPS
    def test_stopped_child_is_measured_here(self, signum, monkeypatch):
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        drawn = _stopping(monkeypatch, signum, after=124)
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=2)) == serial
        assert len(forks) == 2 and len(builds) == 2 and drawn == REDRAWN[signum]
        assert childless()

    def test_interrupt_kills_the_children(self, monkeypatch):
        # The children would sleep for a minute; the first interrupts this
        # process while it waits, which kills them instead of waiting.
        parent, draw = os.getpid(), sampler._draw_noise

        def drawn(keyer, start, stop, rn):
            if os.getpid() != parent:
                if start == 0:
                    os.kill(parent, signal.SIGINT)
                time.sleep(60)
            return draw(keyer, start, stop, rn)

        monkeypatch.setattr(sampler, "_draw_noise", drawn)
        forks = split_small_runs(monkeypatch)
        began = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_study(2.2, 200, replicates=200, seed=5, workers=3)
        assert time.monotonic() - began < 30
        assert len(forks) == 3
        assert childless()

    def test_children_run_nothing_of_the_caller(self, tmp_path, monkeypatch):
        # A child that returned into the caller's frames would run this
        # finally block and flush a second copy of the buffered line.
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        log = tmp_path / "log"
        with open(log, "w", encoding="utf-8") as out:
            out.write("buffered before the study\n")
            try:
                run_study(2.2, 200, replicates=200, seed=5, workers=4)
            finally:
                out.write("finally\n")
        assert log.read_text(encoding="utf-8") == "buffered before the study\nfinally\n"
        assert len(forks) == 4 and len(builds) == 1

    def test_model_freed_before_each_process_draws(self, monkeypatch):
        # A child that draws with the model alive fails the assertion and
        # exits 1 before it delivers a block, and this process builds the
        # model again to measure its shard: four more references for each
        # such child than one build's four.
        refs = _track_models(monkeypatch)
        forks = split_small_runs(monkeypatch)
        run_study(2.2, 200, replicates=200, seed=5, workers=3)
        assert len(refs) == 4 and len(forks) == 3

    def test_rebuilt_model_freed_before_its_shard_draws(self, monkeypatch):
        # The fork for shard 1 fails: this process builds the model again
        # for it and drops the model before the shard's first draw.
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        forks = split_small_runs(monkeypatch)
        _failing_fork(monkeypatch, fails_at=2)
        refs = _track_models(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=2)) == serial
        assert len(refs) == 8 and len(forks) == 1
        assert childless()

    def test_no_fork_runs_in_this_process(self, monkeypatch):
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        monkeypatch.setattr(montecarlo, "MIN_SHARD_VALUES", 1)
        monkeypatch.delattr(os, "fork")
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=3)) == serial
        assert len(builds) == 1

    @pytest.mark.parametrize("fails_at, forked", [(1, 1), (2, 1)])
    def test_failed_fork_measures_the_rest_here(self, fails_at, forked, monkeypatch):
        # On 2 workers, the fork for shard 0 or for shard 1 fails: this
        # process builds the model again and measures that shard, and the
        # other shard still forks.
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        calls = _failing_fork(monkeypatch, fails_at)
        assert _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=2)) == serial
        assert len(calls) == 2 and len(forks) == forked and len(builds) == 2
        assert childless()

    def test_fork_warning_is_not_an_error(self, monkeypatch):
        # Python 3.12 warns in the parent, after the child exists, of a fork
        # with other threads; pytest makes DeprecationWarning an error here.
        def warn():
            warnings.warn("This process is multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning, stacklevel=2)

        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        forks = split_small_runs(monkeypatch, after_fork=warn)
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, replicates=200, seed=5, workers=3)) == serial
        assert len(forks) == 3 and len(builds) == 1

    def test_interrupt_at_the_fork_reaps_the_child(self, monkeypatch):
        # SIGINT lands as a fork returns, before its pid is stored; it is
        # raised once the children are in hand, which are then killed.
        interrupted = []

        def interrupt():
            if not interrupted:
                interrupted.append(None)
                os.kill(os.getpid(), signal.SIGINT)

        forks = split_small_runs(monkeypatch, after_fork=interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_study(2.2, 200, replicates=200, seed=5, workers=3)
        assert len(forks) == 3
        assert childless()

    def test_splits_off_the_main_thread(self, monkeypatch):
        serial = _report_floats(run_study(2.2, 200, replicates=200, seed=5))
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        with ThreadPoolExecutor(1) as pool:
            split = pool.submit(run_study, 2.2, 200, replicates=200, seed=5, workers=3).result()
        assert _report_floats(split) == serial
        assert len(forks) == 3 and len(builds) == 1


def _values(workers, replicates=200):
    """Every standardized value of ``replicates`` replicates at rn = 201 on
    ``workers`` processes, sorted, and the number of blocks they came in."""
    blocks = standardized_blocks(2.2, 200, replicates, seed=5, workers=workers)
    with contextlib.closing(blocks):
        arrays = list(blocks)
    return np.sort(np.concatenate(arrays)), len(arrays)


@pytest.mark.block_budget(100_000)
class TestSplitHist:
    """``standardized_blocks`` split over processes yields every value of
    one process once, block by block, bins nothing in a child, fails as one
    process does, and leaves no child behind.  Its shards are the study's:
    0 .. 123 and 124 .. 199 on 2 workers, and 0 .. 92, 93 .. 185 and
    186 .. 199 on 3."""

    def test_worker_count_does_not_change_values(self, monkeypatch):
        serial, count = _values(1)
        assert serial.size == 200 * 201 and count == 7
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        for workers in (2, 3):
            del forks[:], builds[:]
            values, blocks = _values(workers)
            assert np.array_equal(values, serial) and blocks == count
            assert len(forks) == workers and len(builds) == 1

    @STOPS
    def test_stopped_child_is_measured_here(self, signum, monkeypatch):
        serial, _ = _values(1)
        drawn = _stopping(monkeypatch, signum, after=124)
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        values, count = _values(2)
        assert np.array_equal(values, serial) and count == 7
        assert len(forks) == 2 and len(builds) == 2 and drawn == REDRAWN[signum]
        assert childless()

    @pytest.mark.parametrize("fails_at", [1, 2])
    def test_failed_fork_is_measured_here(self, fails_at, monkeypatch):
        serial, _ = _values(1)
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        calls = _failing_fork(monkeypatch, fails_at)
        assert np.array_equal(_values(2)[0], serial)
        assert len(calls) == 2 and len(forks) == 1 and len(builds) == 2
        assert childless()

    @pytest.mark.parametrize("failing, workers, named", [
        ({30, 150}, 2, 30),    # in shards 0 and 1: shard 0's
        ({100, 190}, 3, 100),  # in shards 1 and 2: shard 1's
    ])
    def test_first_failing_replicate_is_named(self, failing, workers, named, monkeypatch):
        monkeypatch.setattr(sampler, "_draw_noise", constant_rows(sampler._draw_noise, failing))
        forks = split_small_runs(monkeypatch)
        with pytest.raises(DegenerateSampleError,
                           match=f"^replicate stream_index={named}: constant"):
            _values(workers)
        assert len(forks) == workers
        assert childless()

    def test_model_freed_before_each_process_draws(self, monkeypatch):
        # As for the study: a child drawing with the model alive would show
        # as four more references.
        refs = _track_models(monkeypatch)
        forks = split_small_runs(monkeypatch)
        _values(3)
        assert len(refs) == 4 and len(forks) == 3

    def test_closing_early_kills_the_children(self, monkeypatch):
        # The child of shard 0 delivers its blocks, and that of shard 1 would
        # sleep for a minute; closing the iterator after one block kills it.
        parent, draw = os.getpid(), sampler._draw_noise

        def drawn(keyer, start, stop, rn):
            if os.getpid() != parent and start >= 124:
                time.sleep(60)
            return draw(keyer, start, stop, rn)

        monkeypatch.setattr(sampler, "_draw_noise", drawn)
        forks = split_small_runs(monkeypatch)
        began = time.monotonic()
        blocks = standardized_blocks(2.2, 200, 200, seed=5, workers=2)
        assert next(blocks).size == 31 * 201
        blocks.close()
        assert time.monotonic() - began < 30
        assert len(forks) == 2
        assert childless()


class TestComputesOnlyWhatItReads:
    """The study reads each block's series alone, so it standardizes
    nothing, in this process or in a child; ``hist`` standardizes."""

    @pytest.mark.block_budget(100_000)
    def test_study_never_standardizes(self, monkeypatch):
        serial = _report_floats(run_study(2.2, 200, 64, 5))

        def refused(block):
            raise AssertionError("a block was standardized")

        monkeypatch.setattr(sampler, "_standardize_rows", refused)
        assert _report_floats(run_study(2.2, 200, 64, 5, workers=1)) == serial
        # 64 replicates in blocks of 31 split into shards of 62 and 2; a
        # child that standardized would fail, and its shard be built again here.
        forks = split_small_runs(monkeypatch)
        builds = counted_builds(monkeypatch)
        assert _report_floats(run_study(2.2, 200, 64, 5, workers=2)) == serial
        assert len(forks) == 2 and len(builds) == 1
        with pytest.raises(AssertionError, match="standardized"):
            _values(1, replicates=64)
