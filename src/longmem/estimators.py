"""Sample-side estimators: the variance / squared-range ratio family and
histogram accumulation over standardized replicates.

The bridge between samples and shape is the symmetric-beta moment relation
``variance = 1 / (8 alpha + 4)`` for a law on [0, 1]; inverting it at a
measured variance gives the shape estimate, and ``d = 2 alpha + 1`` maps
shape to intrinsic dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import whole
from .errors import DegenerateSampleError, InsufficientDataError

# No law on a bounded interval has variance above range^2 / 4.
POPOVICIU_LIMIT = 0.25

DEFAULT_BIN_COUNT = 100
MIN_BIN_COUNT = 2

# Histogram moment fits below this pooled count are noise.
MIN_FIT_SAMPLES = 10_000


@dataclass(frozen=True)
class SampleStats:
    """Spread statistics of one series.

    variance : sample variance with the (length - 1) denominator
    range : max - min
    ratio : variance / range**2; at most 1/4 in the population limit
    alpha_meas : range**2 / (8 variance) - 1/2
    d_meas : 2 alpha_meas + 1
    """

    variance: float
    range: float
    ratio: float
    alpha_meas: float
    d_meas: float


@dataclass(frozen=True)
class Histogram:
    """Area-normalized histogram on uniform [0, 1] edges.

    counts are raw; densities integrate to 1 whenever any count is
    nonzero; sample_count is the number of binned observations.
    """

    bin_count: int
    edges: np.ndarray
    counts: np.ndarray
    densities: np.ndarray
    sample_count: int


def sample_stats(series):
    """Spread statistics of a series.

    The variance uses the (length - 1) denominator, so on tiny samples the
    ratio may exceed the population bound 1/4 by the factor
    ``length / (length - 1)``; a two-point sample attains exactly that.

    Parameters
    ----------
    series : array_like
        Real vector with at least 2 entries and nonzero spread.

    Returns
    -------
    SampleStats
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("series must be a one-dimensional vector with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        raise DegenerateSampleError("constant series has no spread to measure")
    variance = float(np.var(arr, ddof=1))
    spread = hi - lo
    ratio = variance / spread**2
    alpha_meas = spread**2 / (8.0 * variance) - 0.5
    return SampleStats(
        variance=variance,
        range=spread,
        ratio=ratio,
        alpha_meas=alpha_meas,
        d_meas=2.0 * alpha_meas + 1.0,
    )


def _from_counts(edges, counts):
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    widths = np.diff(edges)
    if total > 0:
        densities = counts / (total * widths)
    else:
        densities = np.zeros_like(widths)
    return Histogram(
        bin_count=int(counts.size),
        edges=np.asarray(edges, dtype=float),
        counts=counts,
        densities=densities,
        sample_count=total,
    )


def accumulate_histogram(samples, bin_count=DEFAULT_BIN_COUNT):
    """Pool standardized vectors into one histogram on [0, 1].

    Values exactly equal to 0.0 or 1.0 are dropped before binning: the
    standardization pins one of each per replicate by construction, and
    they would otherwise put spurious mass at the support endpoints.
    Near-edge values are kept.

    Parameters
    ----------
    samples : iterable of array_like
        One standardized vector per replicate; at least one.
    bin_count : int
        Number of uniform bins, at least 2.

    Returns
    -------
    Histogram
    """
    bin_count = whole(bin_count, "bin_count", MIN_BIN_COUNT)
    vectors = [np.asarray(s, dtype=float) for s in samples]
    if not vectors:
        raise ValueError("at least one standardized vector is required")
    pooled = np.concatenate(vectors)
    pooled = pooled[(pooled != 0.0) & (pooled != 1.0)]
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    counts, _ = np.histogram(pooled, bins=edges)
    return _from_counts(edges, counts)


def merge_histograms(first, second):
    """Merge two histograms with identical edges by adding counts.

    Associative and order-independent, so sharded accumulation commutes
    with a single pass over all replicates.
    """
    if first.bin_count != second.bin_count or not np.array_equal(
        first.edges, second.edges
    ):
        raise ValueError("histograms have different binning and cannot be merged")
    return _from_counts(first.edges, first.counts + second.counts)


def fit_alpha_from_histogram(histogram):
    """Shape parameter from a histogram by the moment relation.

    The variance about 1/2 is computed from bin centers, clamped to the
    (0, 1/4] range attainable on [0, 1] support, and inverted through
    ``variance = 1 / (8 alpha + 4)``.  A zero-variance histogram maps to
    infinity.

    Raises
    ------
    InsufficientDataError
        If fewer than ``MIN_FIT_SAMPLES`` observations were binned.
    """
    if histogram.sample_count < MIN_FIT_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_FIT_SAMPLES} binned observations, "
            f"have {histogram.sample_count}"
        )
    centers = 0.5 * (histogram.edges[:-1] + histogram.edges[1:])
    widths = np.diff(histogram.edges)
    v = float(np.sum(histogram.densities * widths * (centers - 0.5) ** 2))
    v = min(v, POPOVICIU_LIMIT)
    if v <= 0.0:
        return math.inf
    return 1.0 / (8.0 * v) - 0.5
