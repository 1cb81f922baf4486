"""Replication-harness tests: determinism across worker counts and
agreement between measured and eigenvalue-predicted statistics."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import longmem.sampler as sampler
from longmem.errors import DegenerateSampleError
from longmem.estimators import sample_stats
from longmem.montecarlo import replicate_samples, run_study
from longmem.sampler import RngStream, generate
from longmem.spectral import build_model


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
    @pytest.mark.parametrize("replicates", [1, 5])
    @pytest.mark.parametrize("dense", [False, True])
    def test_sample_i_is_stream_i(self, replicates, dense):
        model = build_model(2.2, 20, dense=dense)
        samples = list(replicate_samples(model, 7, replicates, dense=dense))
        assert len(samples) == replicates
        for i, sample in enumerate(samples):
            expected = generate(model, RngStream(seed=7, stream_index=i), dense=dense)
            assert (sample.seed, sample.stream_index) == (7, i)
            for field in ("epsilon", "series", "standardized"):
                assert np.array_equal(getattr(sample, field), getattr(expected, field))


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

    def test_constant_noise_names_its_stream(self, monkeypatch):
        # At beta = 0 the operator is the identity, so constant noise gives
        # a constant series, which generate cannot standardize.
        monkeypatch.setattr(sampler, "draw_epsilon", lambda stream, rn: np.ones(rn))
        with pytest.raises(DegenerateSampleError, match="stream_index=0: constant"):
            run_study(0.0, 5, replicates=5, seed=5)
