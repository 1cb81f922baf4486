"""Sampling tests: stream reproducibility, convolution routing, and the
cosine / standardized transforms."""

import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from conftest import child_env
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem import dft, sampler
from longmem.dft import circulant_matrix, circular_convolve, convolution_operator, transform_length
from longmem.errors import DegenerateSampleError, InternalConsistencyError, UnsupportedLengthError
from longmem.sampler import RngStream, draw_epsilon, generate, replicate_blocks, standardize
from longmem.spectral import build_model

BETA_GRID = [0.0, 0.5, 1.0, 2.2, 3.0, 7.0, 10.0]


class TestRngStream:
    def test_same_address_same_draws(self):
        a = draw_epsilon(RngStream(seed=5, stream_index=0), 201)
        b = draw_epsilon(RngStream(seed=5, stream_index=0), 201)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = draw_epsilon(RngStream(seed=5, stream_index=0), 201)
        b = draw_epsilon(RngStream(seed=5, stream_index=1), 201)
        assert np.abs(a - b).max() > 0.1

    def test_seeds_are_distinct(self):
        a = draw_epsilon(RngStream(seed=5), 201)
        b = draw_epsilon(RngStream(seed=6), 201)
        assert np.abs(a - b).max() > 0.1

    def test_stateless_across_call_order(self):
        stream = RngStream(seed=11, stream_index=3)
        first = draw_epsilon(stream, 41)
        draw_epsilon(RngStream(seed=11, stream_index=4), 41)
        np.testing.assert_array_equal(draw_epsilon(stream, 41), first)

    def test_standard_normal_moments(self):
        pooled = np.concatenate(
            [draw_epsilon(RngStream(seed=5, stream_index=i), 200_001) for i in range(5)]
        )
        assert pooled.size > 1_000_000
        assert abs(pooled.mean()) < 0.005
        assert 0.99 < pooled.var() < 1.01

    def test_address_validation(self):
        with pytest.raises(ValueError):
            RngStream(seed=-1)
        with pytest.raises(ValueError):
            RngStream(seed=2**64)
        with pytest.raises(ValueError):
            RngStream(seed=5, stream_index=-1)

    @pytest.mark.parametrize("rn", [4, 2, 1, 0, -3])
    def test_rn_validation(self, rn):
        with pytest.raises(ValueError):
            draw_epsilon(RngStream(seed=5), rn)

    def test_even_rn_is_unsupported_length(self):
        with pytest.raises(UnsupportedLengthError, match="^rn must be odd"):
            draw_epsilon(RngStream(seed=5), 4)


class TestStreamKeyer:
    """The engine keys a block of streams at once; each must be the stream
    :meth:`RngStream.generator` builds alone."""

    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.one_of(st.integers(0, 2**40), st.integers(2**32 - 6, 2**32)),
        rows=st.integers(1, 6),
    )
    @example(seed=0, start=0, rows=1)
    @example(seed=2**64 - 1, start=2**32 - 3, rows=6)  # straddles 2**32
    @example(seed=2**32, start=2**40, rows=2)
    @settings(max_examples=60, deadline=None)
    def test_block_states_and_draws_are_numpys(self, seed, start, rows):
        keyer = sampler._StreamKeyer(seed)
        states = list(keyer.states(start, start + rows))
        noise = sampler._draw_noise(keyer, start, start + rows, 7)
        assert len(states) == rows
        for k, (state, inc) in enumerate(states):
            key = np.random.SeedSequence(seed, spawn_key=(start + k,))
            expected = np.random.PCG64(key).state["state"]
            assert (state, inc) == (expected["state"], expected["inc"])
            stream = RngStream(seed=seed, stream_index=start + k)
            np.testing.assert_array_equal(noise[k], stream.generator().standard_normal(7))


class TestRowNorms:
    # A subprocess per OpenBLAS thread count: the count is read at load time.
    SCRIPT = textwrap.dedent("""
        import numpy as np
        from longmem.sampler import _row_norms
        rng = np.random.default_rng(3)
        for rn in (3, 201, 200_001, 999_999):
            block = rng.standard_normal((3, rn)) * np.array([[1e-3], [1.0], [1e3]])
            expected = np.array([np.linalg.norm(row) for row in block])
            assert np.array_equal(_row_norms(block), expected), rn
        print("equal")
    """)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_batched_norm_is_the_per_row_norm(self, threads):
        result = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                                text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "equal\n"


class TestGenerate:
    def test_deterministic(self):
        model = build_model(2.2, 40)
        a = generate(model, RngStream(seed=5, stream_index=2))
        b = generate(model, RngStream(seed=5, stream_index=2))
        np.testing.assert_array_equal(a.epsilon, b.epsilon)
        np.testing.assert_array_equal(a.series, b.series)
        np.testing.assert_array_equal(a.standardized, b.standardized)

    def test_epsilon_matches_direct_draw(self):
        model = build_model(2.2, 40)
        sample = generate(model, RngStream(seed=7, stream_index=9))
        np.testing.assert_array_equal(
            sample.epsilon, draw_epsilon(RngStream(seed=7, stream_index=9), model.rn)
        )
        assert sample.seed == 7
        assert sample.stream_index == 9

    def test_beta0_series_is_the_noise(self):
        # identity operator: convolution returns epsilon up to rounding
        model = build_model(0.0, 200)
        sample = generate(model, RngStream(seed=5))
        assert np.abs(sample.series - sample.epsilon).max() <= 1e-12 * np.abs(
            sample.epsilon
        ).max()

    def test_dense_route_matches_fast(self):
        model = build_model(2.2, 51)
        fast = generate(model, RngStream(seed=5))
        dense = generate(replace(model, dense=True), RngStream(seed=5))
        np.testing.assert_array_equal(fast.epsilon, dense.epsilon)
        assert np.abs(fast.series - dense.series).max() <= 1e-9 * np.abs(
            dense.series
        ).max()

    @pytest.mark.parametrize("dense", [False, True], ids=["fft", "dense"])
    def test_series_follows_the_model_route(self, dense):
        # Bit for bit: the series is convolved on the route the model carries.
        model = build_model(2.2, 41, dense=dense)
        sample = generate(model, RngStream(seed=5))
        if dense:
            expected = circulant_matrix(model.first_row) @ sample.epsilon
        else:
            expected = circular_convolve(model.first_row, sample.epsilon)
        np.testing.assert_array_equal(sample.series, expected)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_cosine_bounded(self, beta):
        model = build_model(beta, 200)
        for i in range(5):
            sample = generate(model, RngStream(seed=5, stream_index=i))
            assert np.abs(sample.cosvec).max() <= 1.0 + 1e-12

    def test_cosine_is_normalized_series(self):
        model = build_model(3.0, 40)
        sample = generate(model, RngStream(seed=5))
        norms = np.linalg.norm(model.first_row) * np.linalg.norm(sample.epsilon)
        np.testing.assert_allclose(sample.cosvec * norms, sample.series, rtol=1e-12)

    def test_standardized_endpoints_exact(self):
        model = build_model(2.2, 200)
        for i in range(5):
            sample = generate(model, RngStream(seed=5, stream_index=i))
            assert sample.standardized.min() == 0.0
            assert sample.standardized.max() == 1.0
            assert np.count_nonzero(sample.standardized == 0.0) >= 1
            assert np.count_nonzero(sample.standardized == 1.0) >= 1

    def test_beta10_single_frequency_dominates(self):
        # near-sinusoidal regime: the leading conjugate pair of spectral
        # bins carries most of the non-constant power
        model = build_model(10.0, 200)
        for i in range(50):
            sample = generate(model, RngStream(seed=5, stream_index=i))
            spectrum = np.fft.rfft(sample.series)
            power = np.abs(spectrum[1:]) ** 2
            assert power.max() / power.sum() > 0.5


    def test_cosine_check_is_per_row(self, monkeypatch):
        # Rows 3 and 6 of one block leave [-1, 1]; the message gives row 3's
        # magnitude (at most 1e3), not row 6's (above 1e3).
        convolve = sampler.convolve_rows

        def inflated(operator, block):
            series = convolve(operator, block).copy()
            series[3] *= 1e3
            series[6] *= 1e9
            return series

        monkeypatch.setattr(sampler, "convolve_rows", inflated)
        blocks = sampler.replicate_blocks(build_model(2.2, 20), 5, 9)
        with pytest.raises(InternalConsistencyError, match="cosine vector left") as caught:
            next(blocks)
        assert 1.0 < float(str(caught.value).rsplit(" ", 1)[1]) <= 1e3


class TestCrossRoute:
    """The route rn takes (complex when rn is 67-smooth), the padded route and
    the dense route convolve the same row, so they agree normwise, for
    ``generate`` and for the engine's rows across blocks:
    ||w_route - w_dense|| <= 1e-13 ||C|| ||eps||, with ||C|| the largest
    eigenvalue.  That is the FFT's backward-error scale; the worst gap over
    400 random (beta, n, seed) was 4.6e-16 of it (2.7e-14 of ||w_dense||)."""

    TOL = 1e-13

    @staticmethod
    def series_rows(model, seed):
        """``generate``'s series at stream 0, then the engine's 3 replicates
        in blocks of 2 rows."""
        blocks = list(replicate_blocks(model, seed, 3))
        assert [len(block.series) for block in blocks] == [2, 1]
        rows = [generate(model, RngStream(seed=seed)).series[None]]
        return np.vstack(rows + [block.series for block in blocks])

    @given(st.floats(0.0, 10.0), st.integers(2, 400), st.integers(0, 2**64 - 1))
    @settings(max_examples=30, deadline=None)
    def test_routes_agree(self, beta, n, seed):
        model = build_model(beta, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampler, "CHUNK_BYTES", 2 * 16 * model.rn)
            fast = self.series_rows(model, seed)
            dense = self.series_rows(replace(model, dense=True), seed)
            patch.setattr(dft, "COMPLEX_MAX_PRIME", 1)
            assert convolution_operator(model.first_row).length == transform_length(model.rn) > model.rn
            padded = self.series_rows(model, seed)
        eps = np.vstack([draw_epsilon(RngStream(seed=seed, stream_index=i), model.rn)
                         for i in (0, 0, 1, 2)])
        scale = self.TOL * model.eigenvalues[0] * np.linalg.norm(eps, axis=1)
        for route in (fast, padded):
            assert np.all(np.linalg.norm(route - dense, axis=1) <= scale)


class TestStandardize:
    def test_affine_map_endpoints(self):
        out = standardize(np.array([2.0, 4.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.5])

    def test_accepts_sample(self):
        model = build_model(2.2, 40)
        sample = generate(model, RngStream(seed=5))
        np.testing.assert_array_equal(standardize(sample.cosvec), sample.standardized)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=80)
    def test_location_scale_invariant(self, xs, scale, shift):
        x = np.array(xs)
        if x.max() - x.min() < 1.0:
            return
        base = standardize(x)
        moved = standardize(scale * x + shift)
        assert np.abs(moved - base).max() <= 1e-12

    def test_constant_rejected(self):
        with pytest.raises(DegenerateSampleError):
            standardize(np.full(10, 3.3))

    def test_shape_and_finiteness_validated(self):
        with pytest.raises(ValueError):
            standardize(np.ones((3, 3)))
        with pytest.raises(ValueError):
            standardize(np.array([]))
        with pytest.raises(ValueError):
            standardize(np.array([1.0, np.nan]))
