"""Input boundary: every public integer parameter takes exactly the values
``operator.index`` accepts within its range, and the command line's flag
types accept exactly what the library accepts."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.cli import build_parser
from longmem.estimators import accumulate_histogram
from longmem.montecarlo import run_study
from longmem.sampler import SEED_LIMIT, RngStream, draw_epsilon
from longmem.spectral import BETA_MAX, BETA_MIN, build_grid, build_model

# name, call taking the value, out-of-range values, an accepted numpy value
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
]


@pytest.mark.parametrize(
    "name, call, out_of_range, accepted",
    INTEGER_PARAMETERS,
    ids=[p[0] for p in INTEGER_PARAMETERS],
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
