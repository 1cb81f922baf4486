"""Estimator tests: named-law oracles for the variance/range^2 ratio and
histogram accumulation and the moment fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import dft
from longmem.errors import DegenerateSampleError, InsufficientDataError, ResourceLimitError
from longmem.estimators import (
    POPOVICIU_LIMIT,
    Histogram,
    accumulate_histogram,
    fit_alpha_from_histogram,
    row_stats,
    sample_stats,
)
from longmem.sampler import RngStream, generate
from longmem.spectral import build_model


class TestSampleStatsNamedLaws:
    """Ratio and alpha limits for known distributions."""

    def test_uniform(self):
        x = np.random.default_rng(1).uniform(size=1_000_000)
        stats = sample_stats(x)
        assert stats.ratio == pytest.approx(1 / 12, rel=0.01)
        assert stats.alpha_meas == pytest.approx(1.0, abs=0.02)
        assert stats.d_meas == pytest.approx(3.0, abs=0.04)

    def test_semicircle(self):
        # Beta(3/2, 3/2) is the semicircle shape on [0, 1]
        x = np.random.default_rng(2).beta(1.5, 1.5, size=1_000_000)
        stats = sample_stats(x)
        assert stats.ratio == pytest.approx(1 / 16, rel=0.01)
        assert stats.alpha_meas == pytest.approx(1.5, abs=0.03)

    def test_arcsine(self):
        x = np.random.default_rng(3).beta(0.5, 0.5, size=1_000_000)
        stats = sample_stats(x)
        assert stats.ratio == pytest.approx(1 / 8, rel=0.01)
        assert stats.alpha_meas == pytest.approx(0.5, abs=0.02)

    def test_sine_wave_is_arcsine(self):
        t = np.arange(1_000_000)
        x = np.sin(2 * np.pi * 997 * t / 1_000_000)
        stats = sample_stats(x)
        assert stats.ratio == pytest.approx(1 / 8, rel=0.01)
        assert stats.alpha_meas == pytest.approx(0.5, abs=0.02)

    def test_bernoulli_exact_small_sample_excess(self):
        # alternating 0/1 of length L: variance L / (4 (L-1)), so the ratio
        # exceeds the population bound 1/4 by exactly L / (L - 1)
        for L in (2, 4, 10, 100):
            x = np.tile([0.0, 1.0], L // 2)
            stats = sample_stats(x)
            assert stats.ratio == pytest.approx(L / (4 * (L - 1)), rel=1e-12)
            assert stats.alpha_meas == pytest.approx(-1 / (2 * L), abs=1e-12)
        # limit: ratio -> 1/4, alpha -> 0 from below
        big = sample_stats(np.tile([0.0, 1.0], 50_000))
        assert big.ratio == pytest.approx(0.25, rel=1e-4)
        assert abs(big.alpha_meas) < 1e-4

    def test_normal_ratio_shrinks_alpha_grows(self):
        rng = np.random.default_rng(4)
        small = sample_stats(rng.normal(size=10_000))
        large = sample_stats(rng.normal(size=1_000_000))
        assert large.ratio < small.ratio < 1 / 12
        assert large.alpha_meas > 5.0

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.2, 3.0, 7.0, 10.0])
    def test_popoviciu_bound_on_generated_series(self, beta):
        model = build_model(beta, 200)
        for i in range(10):
            sample = generate(model, RngStream(seed=5, stream_index=i))
            assert sample_stats(sample.series).ratio <= POPOVICIU_LIMIT + 1e-12


class TestSampleStatsContract:
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=3,
            max_size=60,
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=80)
    def test_ratio_location_scale_invariant(self, xs, scale, shift):
        x = np.array(xs)
        if x.max() - x.min() < 1.0:
            return
        base = sample_stats(x)
        moved = sample_stats(scale * x + shift)
        assert abs(moved.ratio - base.ratio) <= 1e-10
        assert abs(moved.alpha_meas - base.alpha_meas) <= 1e-8
        assert moved.range == pytest.approx(scale * base.range, rel=1e-12)
        assert moved.variance == pytest.approx(scale**2 * base.variance, rel=1e-10)

    def test_d_alpha_relation(self):
        stats = sample_stats(np.array([0.3, 0.9, 0.1, 0.5]))
        assert stats.d_meas == pytest.approx(2 * stats.alpha_meas + 1, rel=1e-14)
        assert stats.alpha_meas == pytest.approx(1 / (8 * stats.ratio) - 0.5, rel=1e-14)

    def test_variance_uses_length_minus_one(self):
        x = np.array([0.0, 1.0])
        assert sample_stats(x).variance == 0.5

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSampleError):
            sample_stats(np.full(9, 2.0))

    @pytest.mark.parametrize("length", [3, 201, 20001])
    def test_row_stats_match_scalar_reference(self, length):
        # The one-series arithmetic in Python floats is the reference; the
        # squared range is where numpy's square and Python's power differ.
        rng = np.random.default_rng(length)
        block = rng.normal(size=(max(2, 60000 // length), length)) * rng.uniform(0.1, 50.0, (1, 1))
        stats = row_stats(block)
        for k, row in enumerate(block):
            spread = float(row.max()) - float(row.min())
            variance = float(np.var(row, ddof=1))
            alpha = spread**2 / (8.0 * variance) - 0.5
            expected = (variance, spread, variance / spread**2, alpha, 2.0 * alpha + 1.0)
            got = (stats.variance[k], stats.range[k], stats.ratio[k],
                   stats.alpha_meas[k], stats.d_meas[k])
            assert got == expected, k

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            sample_stats(np.array([1.0]))
        with pytest.raises(ValueError):
            sample_stats(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sample_stats(np.array([1.0, np.nan, 2.0]))


class TestHistogram:
    def test_exact_endpoints_dropped(self):
        hist = accumulate_histogram([np.array([0.0, 0.25, 0.5, 1.0])], bin_count=2)
        np.testing.assert_array_equal(hist.counts, [1, 1])
        assert hist.sample_count == 2
        np.testing.assert_allclose(hist.densities, [1.0, 1.0])

    def test_near_edge_values_kept(self):
        hist = accumulate_histogram([np.array([1e-9, 1.0 - 1e-9])], bin_count=4)
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1

    def test_mass_is_one(self):
        model = build_model(2.2, 40)
        vectors = [
            generate(model, RngStream(seed=5, stream_index=i)).standardized
            for i in range(30)
        ]
        hist = accumulate_histogram(vectors, bin_count=17)
        assert np.sum(hist.densities * np.diff(hist.edges)) == pytest.approx(
            1.0, abs=1e-9
        )

    @given(
        st.lists(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=60)
    def test_counts_equal_one_pooled_histogram(self, vector_lists, bins):
        # Reference: pool every vector, drop the exact endpoints, bin once.
        pooled = np.concatenate([np.array(v) for v in vector_lists])
        pooled = pooled[(pooled != 0.0) & (pooled != 1.0)]
        edges = np.linspace(0.0, 1.0, bins + 1)
        expected, _ = np.histogram(pooled, bins=edges)
        hist = accumulate_histogram((np.array(v) for v in vector_lists), bin_count=bins)
        np.testing.assert_array_equal(hist.counts, expected)
        assert hist.sample_count == pooled.size

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                min_size=3,
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=60)
    def test_mass_is_one_random_vectors(self, vector_lists, bins):
        vectors = [np.array(v) for v in vector_lists]
        hist = accumulate_histogram(vectors, bin_count=bins)
        if hist.sample_count == 0:
            return
        assert np.sum(hist.densities * np.diff(hist.edges)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_uniform_edges(self):
        hist = accumulate_histogram([np.array([0.5, 0.6])], bin_count=10)
        np.testing.assert_allclose(hist.edges, np.linspace(0.0, 1.0, 11), atol=1e-15)
        assert hist.bin_count == 10

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            accumulate_histogram([np.array([0.5])], bin_count=1)
        with pytest.raises(ValueError):
            accumulate_histogram([], bin_count=10)

    def test_bin_count_guard_edge(self, monkeypatch):
        monkeypatch.setattr(dft, "LENGTH_GUARD", 16)
        assert accumulate_histogram([np.array([0.5])], bin_count=16).bin_count == 16
        with pytest.raises(ResourceLimitError, match="bin_count 17 exceeds the guard limit 16"):
            accumulate_histogram([np.array([0.5])], bin_count=17)

    def test_u_shape_at_beta10(self):
        # frozen after measuring across 10 seeded runs: edge bins run
        # about nine times the center density, comfortably above 3
        model = build_model(10.0, 200)
        for seed in range(5, 15):
            vectors = [
                generate(model, RngStream(seed=seed, stream_index=i)).standardized
                for i in range(200)
            ]
            hist = accumulate_histogram(vectors, bin_count=100)
            edge = min(hist.densities[0], hist.densities[-1])
            center = max(hist.densities[49], hist.densities[50])
            assert edge / center > 3.0

    def test_bell_shape_near_beta0(self):
        model = build_model(0.001, 200)
        vectors = [
            generate(model, RngStream(seed=5, stream_index=i)).standardized
            for i in range(200)
        ]
        hist = accumulate_histogram(vectors, bin_count=100)
        edge = max(hist.densities[0], hist.densities[-1])
        center = min(hist.densities[49], hist.densities[50])
        assert center > 3.0 * edge


class TestFitAlpha:
    def _synthetic(self, counts):
        counts = np.asarray(counts, dtype=np.int64)
        edges = np.linspace(0.0, 1.0, counts.size + 1)
        total = int(counts.sum())
        densities = counts / (total * np.diff(edges))
        return Histogram(
            bin_count=counts.size,
            edges=edges,
            counts=counts,
            densities=densities,
            sample_count=total,
        )

    def test_uniform_histogram_gives_alpha_one(self):
        hist = self._synthetic(np.full(100, 1_000))
        assert fit_alpha_from_histogram(hist) == pytest.approx(1.0, abs=1e-3)

    def test_endpoint_mass_gives_alpha_zero(self):
        counts = np.zeros(100, dtype=np.int64)
        counts[0] = counts[-1] = 10_000
        hist = self._synthetic(counts)
        assert abs(fit_alpha_from_histogram(hist)) < 0.02

    def test_center_spike_gives_infinity(self):
        counts = np.zeros(5, dtype=np.int64)
        counts[2] = 20_000
        assert fit_alpha_from_histogram(self._synthetic(counts)) == math.inf

    def test_variance_clamped_to_popoviciu(self):
        # bin centers on [0, 1] keep the raw moment under 1/4, so the clamp
        # is defensive; a hand-built histogram straying outside [0, 1]
        # exercises it and maps to alpha = 0, never a negative shape
        hist = Histogram(
            bin_count=3,
            edges=np.array([-1.0, 0.0, 1.0, 2.0]),
            counts=np.array([10_000, 0, 10_000]),
            densities=np.array([0.5, 0.0, 0.5]),
            sample_count=20_000,
        )
        assert fit_alpha_from_histogram(hist) == 0.0

    def test_insufficient_data_rejected(self):
        hist = self._synthetic(np.full(10, 100))
        with pytest.raises(InsufficientDataError):
            fit_alpha_from_histogram(hist)

    def test_pipeline_beta22(self):
        model = build_model(2.2, 200)
        vectors = [
            generate(model, RngStream(seed=5, stream_index=i)).standardized
            for i in range(200)
        ]
        hist = accumulate_histogram(vectors, bin_count=100)
        assert hist.sample_count == 200 * 199
        assert 1.3 <= fit_alpha_from_histogram(hist) <= 1.9
