"""Input boundary: every public integer parameter takes exactly the values
``operator.index`` accepts within its range, the command line's flag
types accept exactly what the library accepts, and every array entry point
takes exactly the one-dimensional finite vectors the array rule allows."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem._checks import vector
from longmem.cli import build_parser
from longmem.dft import circulant_matrix, circular_convolve, unitary_dft
from longmem.errors import LongmemError
from longmem.estimators import accumulate_histogram, sample_stats
from longmem.montecarlo import run_study
from longmem.sampler import SEED_LIMIT, RngStream, draw_epsilon, replicate_blocks, standardize
from longmem.spectral import BETA_MAX, BETA_MIN, build_grid, build_model

MODEL = build_model(2.2, 5)

# name, call taking the value, out-of-range values, an accepted numpy value;
# a parameter checked at a second entry point is a pytest.param naming both.
INTEGER_PARAMETERS = [
    ("n", build_grid, [1, 0, -5], np.int64(5)),
    ("seed", lambda v: RngStream(seed=v), [-1, SEED_LIMIT], np.uint64(SEED_LIMIT - 1)),
    ("stream_index", lambda v: RngStream(seed=5, stream_index=v), [-1], np.int64(7)),
    ("rn", lambda v: draw_epsilon(RngStream(seed=5), v), [1, -3], np.int64(5)),
    ("replicates", lambda v: run_study(2.2, 5, v, 5), [1, 0, -1], np.int64(3)),
    ("workers", lambda v: run_study(2.2, 5, 2, 5, workers=v), [0, -1], np.int64(2)),
    (
        "bin_count",
        lambda v: accumulate_histogram([np.array([0.5])], bin_count=v),
        [1, 0],
        np.int64(5),
    ),
    # The replicate engine checks its arguments when called, not when iterated.
    pytest.param("seed", lambda v: replicate_blocks(MODEL, v, 2), [-1, SEED_LIMIT],
                 np.uint64(SEED_LIMIT - 1), id="replicate_blocks.seed"),
    pytest.param("replicates", lambda v: replicate_blocks(MODEL, 5, v), [-1], np.int64(2),
                 id="replicate_blocks.replicates"),
]


@pytest.mark.parametrize(
    "name, call, out_of_range, accepted",
    INTEGER_PARAMETERS,
    ids=[getattr(p, "id", None) or p[0] for p in INTEGER_PARAMETERS],
)
def test_integer_parameter_boundary(name, call, out_of_range, accepted):
    for bad in (5.7, "5", 5.0, None):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            call(bad)
    for bad in out_of_range:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(bad)
    call(accepted)


def test_stream_address_stored_as_python_ints():
    stream = RngStream(seed=np.uint64(SEED_LIMIT - 1), stream_index=np.int64(3))
    assert type(stream.seed) is int and stream.seed == SEED_LIMIT - 1
    assert type(stream.stream_index) is int and stream.stream_index == 3
    np.testing.assert_array_equal(
        draw_epsilon(stream, 11),
        draw_epsilon(RngStream(seed=SEED_LIMIT - 1, stream_index=3), 11),
    )


def _cli_accepts(flag, value):
    argv = ["generate", "--beta", "2.2", "--n", "5", f"--{flag}={value}"]
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            return False
    return True


def _library_accepts(call, value):
    try:
        call(value)
    except (TypeError, ValueError):
        return False
    return True


# Values on and next to each bound, plus the non-finite floats.
_NON_FINITE = [math.nan, math.inf, -math.inf]


@given(st.one_of(
    st.integers(min_value=-(2**65), max_value=2**65),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-1, 0, 1, SEED_LIMIT - 1, SEED_LIMIT, 0.0, 5.0, *_NON_FINITE]),
))
@settings(max_examples=150)
def test_seed_flag_matches_library(value):
    assert _cli_accepts("seed", value) == _library_accepts(lambda v: RngStream(seed=v), value)


@given(st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(max_value=1e3),
    st.sampled_from([-1, 0, 1, 2, 3, 2.0, 3.0, *_NON_FINITE]),
))
@settings(max_examples=150)
def test_n_flag_matches_library(value):
    assert _cli_accepts("n", value) == _library_accepts(build_grid, value)


@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1.0, max_value=11.0),
    st.integers(min_value=-20, max_value=20),
    st.sampled_from([
        BETA_MIN, BETA_MAX, -0.0, -5e-324,
        math.nextafter(BETA_MIN, -1.0), math.nextafter(BETA_MAX, math.inf),
        math.nextafter(BETA_MAX, 0.0), *_NON_FINITE,
    ]),
))
@settings(max_examples=150)
def test_beta_flag_matches_library(value):
    assert _cli_accepts("beta", value) == _library_accepts(lambda v: build_model(v, 3), value)


# name, call taking one vector, parameter named in rejections, shortest
# accepted length, whether complex input is accepted
ARRAY_ENTRY_POINTS = [
    ("unitary_dft", unitary_dft, "x", 1, True),
    ("circulant_matrix", circulant_matrix, "row", 1, False),
    ("circular_convolve", lambda x: circular_convolve(x, x), "row", 1, False),
    ("standardize", standardize, "values", 1, False),
    ("sample_stats", sample_stats, "series", 2, False),
    ("accumulate_histogram", lambda x: accumulate_histogram([x]), "samples", 1, False),
]


def _rejects(call, value, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} "):
            call(value)


@pytest.mark.parametrize(
    "call, name, shortest, takes_complex",
    [p[1:] for p in ARRAY_ENTRY_POINTS],
    ids=[p[0] for p in ARRAY_ENTRY_POINTS],
)
def test_array_entry_point_boundary(call, name, shortest, takes_complex):
    for bad in ([0.25, math.nan, 0.75], [0.25, math.inf, 0.75], [-math.inf, 0.25, 0.75]):
        _rejects(call, np.array(bad), name)
    _rejects(call, np.full((3, 3), 0.5), name)
    _rejects(call, np.array(0.5), name)
    _rejects(call, np.array([]), name)
    _rejects(call, np.full(shortest - 1, 0.5), name)
    # text is not parsed as numbers, whatever container it comes in
    _rejects(call, np.array(["0.25", "0.5", "0.75"]), name)
    _rejects(call, np.array([b"0.25", b"0.5", b"0.75"]), name)
    _rejects(call, np.array([0.25, "0.5", 0.75], dtype=object), name)
    _rejects(call, ["0.25", "0.5", "0.75"], name)
    complex_input = np.array([0.25 + 0.5j, 0.5, 0.75])
    if takes_complex:
        call(complex_input)
    else:
        _rejects(call, complex_input, name)
    call(np.array([0.25, 0.5, 0.75]))
    call([0.25, 0.5, 0.75])


def test_histogram_values_just_outside_unit_interval_rejected():
    below, above = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)
    for bad in ([below, 0.5], [0.5, above], [0.5, 2.0, -1.0, 0.25]):
        _rejects(lambda x: accumulate_histogram([np.array([0.5]), x]), np.array(bad), "samples")
    hist = accumulate_histogram([np.array([0.0, 0.5, 1.0]), np.array([0.25])], bin_count=4)
    assert hist.sample_count == 2


def test_vector_copies_only_to_change_dtype():
    real = np.linspace(0.0, 1.0, 5)
    assert vector(real, "v") is real
    spectrum = real.astype(complex)
    assert vector(spectrum, "v", complex_ok=True) is spectrum
    widened = vector(np.arange(5), "v")
    assert widened.dtype == np.float64
    np.testing.assert_array_equal(widened, np.arange(5.0))
    assert vector(real, "v", complex_ok=True).dtype == np.complex128


_FINITE_VECTORS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=9)


@pytest.mark.parametrize(
    "call", [p[1] for p in ARRAY_ENTRY_POINTS], ids=[p[0] for p in ARRAY_ENTRY_POINTS]
)
@given(values=_FINITE_VECTORS)
@example(values=[1e308, -1e308, 0.0])
@example(values=[1e308, 1e308, 1e308])
@example(values=[5e-324, 0.0, 1e-310])
@settings(max_examples=120)
def test_array_entry_point_accepts_or_raises_value_error(call, values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(np.array(values, dtype=float))
        except (ValueError, LongmemError):
            pass
