"""Exactness of the numpy CSV cell renderer (``longmem._csv``): every cell
of the three kinds it takes must be the text Python's ``%`` gives it,
``"%.17g"`` for floats, ``"%d"`` for non-negative integers and ``"%s"`` for
ASCII text without NUL, joined by ``,`` into rows."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from longmem import _csv, cli

CELL_FMT = {"i": "%d", "u": "%d", "f": "%.17g"}
python_cells = _csv._python_cells


def reference_rows(columns):
    """The per-row ``%`` template the renderer replaces."""
    cells = [np.asarray(c).tolist() for c in columns]
    row = ",".join(CELL_FMT.get(np.asarray(c).dtype.kind, "%s") for c in columns) + "\n"
    return "".join(row % values for values in zip(*cells))


def float_cells(values):
    values = np.asarray(values, dtype=np.float64)
    return _csv.rows_text([values]).split("\n")[:-1]


def assert_floats_exact(values):
    values = np.asarray(values, dtype=np.float64)
    expected = ["%.17g" % v for v in values.tolist()]
    assert float_cells(values) == expected


def powers_and_neighbours():
    powers = np.array([10.0**k for k in range(-323, 309)])
    below, above = np.nextafter(powers, 0), np.nextafter(powers, np.inf)
    return np.concatenate([powers, below, above, -powers, -below, -above])


def exponent_of(value):
    """X = floor(log10 |value|), exactly, for a nonzero finite double."""
    return int(f"{value:e}".split("e")[1])


def is_exact_tie(value):
    """Whether ``value``'s 17-digit rounding is an exact tie."""
    return value != 0 and (Fraction(value) * Fraction(10) ** (16 - exponent_of(value))
                           ).denominator == 2


def window_cells(k, offsets):
    """For each c in ``offsets``, a double x with X = 16 - k whose scaled
    value t = x * 10**k has the fraction 1/2 + c / 2**42 exactly: x = M /
    2**(42+k) with M < 2**53 and M * 5**k = 2**41 + c modulo 2**42.  Such M
    spans every residue for t in [3e16, 1e17) only while 19 <= k <= 24."""
    cells = []
    for c in offsets:
        residue = (2**41 + c) * pow(5, -k, 2**42) % 2**42
        # The first such M with t above 3 * 10**16.
        least = 3 * 10**16 * 2**42 // 5**k
        m = least + (residue - least) % 2**42
        assert m < 2**53
        cells.append(m / 2 ** (42 + k))
    return cells


# Each side of %g's switch between exponent and fixed notation, X = -5 / -4
# and X = 16 / 17 (the tests add every neighbour and both signs).
LAYOUT_BOUNDARIES = [
    1e-5, 1.2345678901234567e-5, 9.9999999999999991e-05, 1e-4, 1.2345678901234567e-4,
    9999999999999998.0, 1e16, 12345678901234568.0, 99999999999999984.0, 1e17,
    123456789012345680.0,
]

SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            np.nan, np.inf, -np.inf, 0.5, 1.5, 2.5, 100.0, 0.1, 1 / 3]


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    @example([0x7FF8000000000001, 0xFFF0000000000000, 1, 0x000FFFFFFFFFFFFF, 1 << 63])
    def test_any_bit_pattern(self, bits):
        # NaN payloads, infinities, subnormals and both zeros included.
        assert_floats_exact(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_specials(self):
        assert_floats_exact(SPECIALS)

    def test_every_power_of_ten_and_its_neighbours(self):
        assert_floats_exact(powers_and_neighbours())

    def test_no_power_of_ten_carries(self):
        # A carry, D = 10**17, needs |x| within 5e-18 (relative) below 10**k
        # with X estimated as k - 1; only the double nearest 10**k can be that
        # close.  Where it is, log10 must give k, so that t lands below 10**16
        # and the cell goes to Python; and log10 must never fall below the
        # true X, which would put t at 10**17 or above.  numpy's log10 takes
        # other code paths at other array lengths and positions.
        ks = np.arange(-323, 309)
        nearest = np.array([float("1e%d" % k) for k in ks])
        values = np.concatenate([nearest, np.nextafter(nearest, np.inf)])
        true_x = np.array([k - (Fraction(v) < Fraction(10) ** k)
                           for k, v in zip(np.tile(ks, 2).tolist(), values.tolist())])
        band = np.array([0 < 1 - Fraction(v) / Fraction(10) ** k < Fraction(5, 10**18)
                         for k, v in zip(ks.tolist(), nearest.tolist())])
        assert band.sum() == 14
        for pad in range(9):
            padded = np.concatenate([np.ones(pad), values])
            estimate = np.floor(np.log10(padded))[pad:]
            assert np.all(estimate >= true_x)
            assert np.all(estimate[:len(ks)][band] == ks[band])
            assert_floats_exact(padded)
        for k, v in zip(ks[band], nearest[band]):
            assert np.floor(np.log10(np.array([v]))) == k
            assert_floats_exact([-v])

    def test_layout_boundaries(self):
        values = np.array(LAYOUT_BOUNDARIES)
        assert_floats_exact(np.concatenate([values, -values, np.nextafter(values, 0),
                                            np.nextafter(values, np.inf)]))

    def test_exact_ties_round_half_even(self):
        # m / 2**(k+1) with m odd and k = 16 - X has 18 significant digits,
        # the last a 5: its 17-digit rounding is an exact tie, which %.17g
        # breaks to even.
        ties = []
        for exponent in range(6):
            scale = 2 ** (17 - exponent)
            first = 10**exponent * scale + 1
            ties += [m / scale for m in range(first, first + 200, 2)]
        assert all(map(is_exact_tie, ties))
        values = np.array(ties)
        assert_floats_exact(np.concatenate([values, -values]))
        # One ulp below or above, a cell is no tie and rounds down or up.
        near = np.concatenate([np.nextafter(values, 0), np.nextafter(values, np.inf)])
        assert_floats_exact(np.concatenate([near, -near]))

    @pytest.mark.parametrize("k", [19, 21, 24])
    def test_cells_either_side_of_the_tie_window(self, monkeypatch, k):
        # Fractions within 3 / 2**42 of one half, not ties, lie inside the
        # 2**-40 window and go to Python; from 8 / 2**42 on, numpy rounds them.
        inside, outside = window_cells(k, [-3, -1, 1, 3]), window_cells(k, [-8, 8, -2**30, 2**30])
        assert not any(map(is_exact_tie, inside + outside))
        assert {exponent_of(v) for v in inside + outside} == {16 - k}
        formatted = []
        monkeypatch.setattr(_csv, "_python_cells",
                            lambda v: formatted.extend(v.tolist()) or python_cells(v))
        values = np.array(inside + outside)
        assert_floats_exact(np.concatenate([values, -values]))
        assert sorted(formatted) == sorted(inside + [-v for v in inside])

    def test_random_scales(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(20000) * 10.0 ** rng.integers(-30, 30, 20000)
        assert_floats_exact(values)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
    def test_other_float_widths_print_as_python_floats(self, dtype):
        values = np.array([1 / 3, -2.5e-7, 6.25e3, 0.0, -1e-5], dtype=dtype)
        assert _csv.rows_text([values]) == reference_rows([values])

    def test_window_of_one_half_sends_every_cell_to_python(self, monkeypatch):
        # frac(r) - 1/2 lies in [-1/2, 1/2), so a window of 1/2 covers every
        # fraction: the Python path alone must give the same bytes.
        values = np.concatenate([powers_and_neighbours(), LAYOUT_BOUNDARIES, SPECIALS,
                                 np.random.default_rng(4).standard_normal(5000)])
        fast = _csv.rows_text([values, values[::-1]])
        monkeypatch.setattr(_csv, "TIE_WINDOW", 0.5)
        formatted = []
        monkeypatch.setattr(_csv, "_python_cells",
                            lambda v: formatted.extend(v.tolist()) or python_cells(v))
        assert _csv.rows_text([values, values[::-1]]) == fast
        assert len(formatted) == 2 * values.size


class TestIntegerCells:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=60))
    @example([2**63 - 1, 0, 9, 10, 9999, 10000, 99999999, 100000000])
    def test_int64(self, values):
        values = np.array(values, dtype=np.int64)
        assert _csv.rows_text([values]).split("\n")[:-1] == ["%d" % v for v in values.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    @example([0, 2**64 - 1, 10**19, 10**19 - 1])
    # One 5-group column with every run of leading zeros, 0 to 19 long.
    @example([0, 2**64 - 1] + [v for k in range(1, 20) for v in (10**k - 1, 10**k)])
    def test_uint64(self, values):
        values = np.array(values, dtype=np.uint64)
        assert _csv.rows_text([values]).split("\n")[:-1] == ["%d" % v for v in values.tolist()]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint32])
    def test_narrow_integers(self, dtype):
        info = np.iinfo(dtype)
        values = np.array([info.max, 0, 1, info.max // 3], dtype=dtype)
        assert _csv.rows_text([values]) == reference_rows([values])


class TestRows:
    # A text slot is the longest label plus at least one byte, rounded up to
    # a whole word, so labels of 7 and 15 characters fill theirs.
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**63 - 1),
                              st.text(st.characters(min_codepoint=1, max_codepoint=127),
                                      max_size=17),
                              st.booleans()),
                    min_size=1, max_size=30))
    @example([(0, 0, "seven77", False), (1, 1, "", True)])
    @example([(0, 0, "fifteen15151515", True)])
    def test_mixed_columns_match_the_row_template(self, rows):
        bits, ints, texts, flags = zip(*rows)
        columns = [np.array(bits, dtype=np.uint64).view(np.float64), np.array(ints),
                   np.array(texts, dtype=object), np.array(flags)]
        assert _csv.rows_text(columns) == reference_rows(columns)

    def test_csv_chunks_matches_the_row_template(self, monkeypatch):
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 3)
        columns = {"i": np.arange(10), "x": np.linspace(-1e-5, 1e17, 10), "s": list("abcdefghij")}
        chunks = list(cli.csv_chunks(columns))
        assert chunks[0] == "i,x,s\n"
        assert len(chunks) == 1 + 4
        assert "".join(chunks[1:]) == reference_rows(list(columns.values()))

    # generate's four float columns at rn = 20001 span two chunks, so the
    # render threads run; beta = 10 builds only at the smaller n.
    @pytest.mark.parametrize("beta, n", [(0.001, 20000), (2.2, 20000), (6, 20000), (10, 2000)])
    def test_few_generate_cells_reach_python(self, monkeypatch, capsys, beta, n):
        # Zeros and exact ties go to Python by design: standardized holds a
        # 0 in every run, and beta = 6 has 30 series values with binary
        # fractions that tie.  Any other cell reaches Python only inside the
        # 2**-40 window, about 2**-39 of cells (none measured here); more than
        # 0.01% means a class of cells has moved onto the slow path.
        formatted = []
        monkeypatch.setattr(_csv, "_python_cells",
                            lambda v: formatted.extend(v.tolist()) or python_cells(v))
        assert cli.main(["generate", "--beta", str(beta), "--n", str(n)]) == 0
        others = [v for v in formatted if not is_exact_tie(v) and v != 0]
        assert len(others) <= 0.0001 * 4 * (n + 1)


class TestPowerTable:
    def test_every_entry_is_the_nearest_hi_and_lo(self):
        # The table spans the k = 16 - X of every |x| the fast path takes, with
        # one to spare should log10 round _SMALLEST down, and neither factor's
        # split overflows there.
        tab = _csv._tables()
        ks = range(-_csv._POW_OFFSET, _csv._POW_TOP + 1)
        assert tab.hi.size == tab.lo.size == len(ks)
        low, high = np.floor(np.log10([_csv._SMALLEST, _csv._LARGEST])).astype(int)
        assert ks[0] <= 16 - high and 16 - (low - 1) <= ks[-1]
        assert np.isfinite(np.array([_csv._LARGEST, tab.hi.max()]) * _csv._SPLIT).all()
        for k, hi, lo in zip(ks, tab.hi.tolist(), tab.lo.tolist()):
            exact = Fraction(10) ** k
            # hi is the double nearest 10**k, lo the double nearest the rest.
            for value, target in [(hi, exact), (lo, exact - Fraction(hi))]:
                error = abs(Fraction(value) - target)
                for limit in (-np.inf, np.inf):
                    assert error <= abs(Fraction(np.nextafter(value, limit)) - target), k
            assert abs(exact - Fraction(hi) - Fraction(lo)) <= exact / 2**106, k
