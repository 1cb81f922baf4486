"""Transform and convolution tests: fast paths against dense oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem import dft
from longmem.dft import (
    COMPLEX_MAX_PRIME,
    Spectrum,
    circulant_matrix,
    circular_convolve,
    convolution_operator,
    convolve_rows,
    transform_length,
    unitary_dft,
)
from longmem.errors import InternalConsistencyError, UnsupportedLengthError

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vectors(min_size=1, max_size=64):
    return st.lists(finite, min_size=min_size, max_size=max_size)


def odd_vectors(max_half=25):
    return st.integers(min_value=1, max_value=max_half).flatmap(
        lambda m: st.lists(finite, min_size=2 * m + 1, max_size=2 * m + 1)
    )


class TestUnitaryDft:
    def test_impulse_transforms_flat(self):
        x = np.zeros(8)
        x[0] = 1.0
        np.testing.assert_allclose(unitary_dft(x), np.full(8, 8**-0.5), atol=1e-15)

    def test_ones_transform_to_scaled_impulse(self):
        X = unitary_dft(np.ones(8))
        assert X[0] == pytest.approx(8**0.5, rel=1e-14)
        np.testing.assert_allclose(X[1:], 0.0, atol=1e-14)

    def test_length_one_is_identity(self):
        np.testing.assert_array_equal(unitary_dft([5.0]), [5.0 + 0j])

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("n", [2, 5, 16, 21])
    def test_fast_matches_dense_sum(self, direction, n):
        rng = np.random.default_rng(1234 + n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fast = unitary_dft(x, direction)
        dense = unitary_dft(x, direction, dense=True)
        assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()

    @given(vectors())
    @settings(max_examples=60)
    def test_roundtrip_recovers_input(self, xs):
        x = np.array(xs)
        back = unitary_dft(unitary_dft(x, "forward"), "inverse")
        scale = 1.0 + np.abs(x).max()
        assert np.abs(back - x).max() <= 1e-10 * scale

    @given(vectors())
    @settings(max_examples=60)
    def test_parseval_isometry(self, xs):
        x = np.array(xs)
        power_in = np.sum(np.abs(x) ** 2)
        power_out = np.sum(np.abs(unitary_dft(x)) ** 2)
        assert abs(power_in - power_out) <= 1e-10 * (1.0 + power_in)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("kind", ["complex", "real", "list"])
    def test_input_left_unchanged(self, kind, direction):
        # The fast transform runs in place, on a copy of the caller's array.
        rng = np.random.default_rng(7)
        x = {"complex": rng.normal(size=21) + 1j * rng.normal(size=21),
             "real": rng.normal(size=21), "list": rng.normal(size=21).tolist()}[kind]
        before = np.array(x, copy=True)
        result = unitary_dft(x, direction)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(result, x)
        np.testing.assert_array_equal(result, unitary_dft(before.copy(), direction))

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            unitary_dft([1.0, 2.0], direction="backward")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            unitary_dft([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            unitary_dft([1.0, np.nan])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            unitary_dft(np.ones((2, 2)))


class TestCirculantMatrix:
    def test_first_column_is_row(self):
        row = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        C = circulant_matrix(row)
        np.testing.assert_array_equal(C[:, 0], row)

    def test_defining_index_formula(self):
        row = np.array([10.0, 20.0, 30.0])
        C = circulant_matrix(row)
        for i in range(3):
            for j in range(3):
                assert C[i, j] == row[(i - j) % 3]

    def test_palindromic_row_gives_symmetric_matrix(self):
        row = np.array([7.0, 3.0, 2.0, 2.0, 3.0])
        C = circulant_matrix(row)
        np.testing.assert_array_equal(C, C.T)
        np.testing.assert_array_equal(C[0], row)

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            circulant_matrix(np.array([1.0 + 1j, 0, 0]))


class TestCircularConvolve:
    def test_identity_row(self):
        v = np.array([3.0, -1.0, 4.0, 1.0, -5.0])
        e0 = np.zeros(5)
        e0[0] = 1.0
        np.testing.assert_allclose(circular_convolve(e0, v), v, atol=1e-12)

    def test_shift_example(self):
        # convolving (0, 1, 0) with (a, b, c) rotates to (c, a, b)
        out = circular_convolve([0.0, 1.0, 0.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [3.0, 1.0, 2.0], atol=1e-12)

    # 71, 101, 213 = 3 x 71 and 1019 take the padded route.
    @pytest.mark.parametrize("n", [3, 15, 51, 71, 101, 213, 1019])
    def test_fast_matches_dense_multiply(self, n):
        rng = np.random.default_rng(99 + n)
        row = rng.normal(size=n)
        v = rng.normal(size=n)
        fast = circular_convolve(row, v)
        dense = circular_convolve(row, v, dense=True)
        assert np.abs(fast - dense).max() <= 1e-9 * np.abs(dense).max()

    def test_matches_unitary_transform_composition(self):
        # w = sqrt(n) * inverse(forward(row) * forward(v)) in the unitary
        # convention; pins the normalization bookkeeping of the fast path
        rng = np.random.default_rng(7)
        row = rng.normal(size=21)
        v = rng.normal(size=21)
        composed = np.sqrt(21) * unitary_dft(
            unitary_dft(row) * unitary_dft(v), "inverse"
        )
        fast = circular_convolve(row, v)
        assert np.abs(fast - composed.real).max() <= 1e-10 * np.abs(fast).max()
        assert np.abs(composed.imag).max() <= 1e-10 * np.abs(fast).max()

    @given(odd_vectors(max_half=12), st.data())
    @settings(max_examples=40)
    def test_linearity(self, row_list, data):
        n = len(row_list)
        row = np.array(row_list)
        v1 = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        v2 = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
        combined = circular_convolve(row, 2.0 * v1 - 3.0 * v2)
        split = 2.0 * circular_convolve(row, v1) - 3.0 * circular_convolve(row, v2)
        scale = 1.0 + np.abs(split).max()
        assert np.abs(combined - split).max() <= 1e-8 * scale

    def test_even_length_rejected(self):
        with pytest.raises(UnsupportedLengthError):
            circular_convolve([1.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])

    def test_even_length_error_is_value_error(self):
        assert issubclass(UnsupportedLengthError, ValueError)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            circular_convolve([1.0, 0.0, 0.0], [1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            circular_convolve([1.0, np.inf, 0.0], [1.0, 2.0, 3.0])

    def test_output_is_real_float(self):
        out = circular_convolve([1.0, 2.0, 3.0], [0.5, 0.5, 0.5])
        assert out.dtype == np.float64


def largest_prime_factor(n):
    factor, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            n, factor = n // p, p
        p += 1
    return max(factor, n)


class TestRoute:
    # Lengths whose output bytes are pinned: the goldens and the digest grid
    # (3, 5, 21, 41, 201) and the benchmark digests (201, 999999).
    @pytest.mark.parametrize("rn", [3, 5, 21, 41, 201, 999999])
    def test_pinned_lengths_take_the_complex_route(self, rn):
        assert transform_length(rn) == rn
        assert convolution_operator(np.ones(rn)).length == rn

    @pytest.mark.parametrize("rn, length", [(200001, 405000), (1000001, 2025000)])
    def test_large_prime_factors_take_the_padded_route(self, rn, length):
        assert transform_length(rn) == length
        operator = convolution_operator(np.ones(rn))
        assert isinstance(operator, Spectrum)
        assert (operator.length, operator.values.size) == (length, length // 2 + 1)

    def test_route_reads_the_bound_at_call_time(self, monkeypatch):
        # 201 = 3 x 67: with the bound at 1 no length is smooth enough, so
        # 201 pads to 405 = 3**4 x 5, the next 5-smooth length >= 401.
        monkeypatch.setattr(dft, "COMPLEX_MAX_PRIME", 1)
        assert transform_length(201) == 405

    def test_padded_length_is_the_next_5_smooth(self):
        for rn in range(3, 4001, 2):
            if largest_prime_factor(rn) <= COMPLEX_MAX_PRIME:
                assert transform_length(rn) == rn
            else:
                length = next(m for m in itertools.count(2 * rn - 1)
                              if largest_prime_factor(m) <= 5)
                assert transform_length(rn) == length, rn


class TestSumIdentityCheck:
    """Both fast routes check each row's sum identity; these faults break it
    in rows 2 and 3 of a block whose row 0 is 1e6 times larger.  63 = 3**2 x 7
    takes the complex route, at L = rn, and the prime 71 the padded one."""

    # Each fault, with the length whose route it breaks.
    FAULTS = {"dropped fold": 71, "doubled 1/L scale": 71, "doubled 1/rn scale": 63}

    def block(self, rn):
        rng = np.random.default_rng(4)
        row = rng.normal(size=rn)
        block = rng.normal(size=(4, rn))
        block[0] *= 1e6
        return row, block

    def test_clean_rows_equal_single_row_convolutions(self):
        for rn, length in [(63, 63), (71, 144)]:
            row, block = self.block(rn)
            operator = convolution_operator(row)
            assert operator.length == length
            clean = convolve_rows(operator, block)
            for k in range(len(block)):
                np.testing.assert_array_equal(clean[k], circular_convolve(row, block[k]))

    @pytest.mark.parametrize("fault", FAULTS)
    def test_fault_names_first_failing_row(self, fault, monkeypatch):
        rn = self.FAULTS[fault]
        row, block = self.block(rn)
        operator = convolution_operator(row)
        inverse = "ifft" if operator.length == rn else "irfft"
        transform = getattr(np.fft, inverse)

        def faulty(spectrum, *args, **kwargs):
            out = transform(spectrum, *args, **kwargs)
            if fault == "dropped fold":
                out[2:, rn:] = 0.0
            else:
                out[2:] /= out.shape[1]
            return out

        monkeypatch.setattr(np.fft, inverse, faulty)
        with pytest.raises(InternalConsistencyError, match="sum identity in row 2:"):
            convolve_rows(operator, block)

    def test_complex_input_names_first_failing_row(self):
        row, block = self.block(63)
        block = block.astype(complex)
        block[2] += 1e-6j * np.random.default_rng(3).normal(size=63)
        with pytest.raises(InternalConsistencyError, match="sum identity in row 2:"):
            convolve_rows(convolution_operator(row), block)
