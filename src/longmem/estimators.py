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

from ._checks import representable, vector, whole
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


@representable
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
    arr = vector(series, "series", 2)
    stats = row_stats(arr[None])
    return SampleStats(**{name: float(values[0]) for name, values in vars(stats).items()})


def row_stats(block):
    """:func:`sample_stats` of each row of a ``(rows, length)`` block, as a
    :class:`SampleStats` of arrays with one entry per row.  Inputs are not
    validated; the first constant row raises ``DegenerateSampleError``."""
    lo = block.min(axis=1)
    hi = block.max(axis=1)
    if (hi == lo).any():
        raise DegenerateSampleError("constant series has no spread to measure")
    variance = np.var(block, axis=1, ddof=1)
    spread = hi - lo
    # Python's float power, as one series at a time has always squared the
    # range; numpy's square differs from it in the last bit on some inputs.
    squared = np.array([s**2 for s in spread.tolist()])
    ratio = variance / squared
    alpha_meas = squared / (8.0 * variance) - 0.5
    return SampleStats(
        variance=variance,
        range=spread,
        ratio=ratio,
        alpha_meas=alpha_meas,
        d_meas=2.0 * alpha_meas + 1.0,
    )


def accumulate_histogram(samples, bin_count=DEFAULT_BIN_COUNT):
    """Pool standardized values into one histogram on [0, 1], binning one
    item at a time so only one item is held; ``hist`` makes each item a
    whole engine block, raveled.

    Values exactly equal to 0.0 or 1.0 are dropped before binning: the
    standardization pins one of each per replicate by construction, and
    they would otherwise put spurious mass at the support endpoints.
    Near-edge values are kept.

    Parameters
    ----------
    samples : iterable of array_like
        One-dimensional items of standardized values, every entry in
        [0, 1]; at least one.  Any other value raises ValueError.
    bin_count : int
        Number of uniform bins, at least 2.

    Returns
    -------
    Histogram
    """
    bin_count = whole(bin_count, "bin_count", MIN_BIN_COUNT)
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    counts = None
    for sample in samples:
        values = vector(sample, "samples", bounds=(0.0, 1.0))
        binned, _ = np.histogram(values[(values != 0.0) & (values != 1.0)], bins=edges)
        counts = binned if counts is None else counts + binned
        # Dropped here, so each item is freed before the next is drawn.
        del sample, values
    if counts is None:
        raise ValueError("at least one standardized vector is required")
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    widths = np.diff(edges)
    densities = counts / (total * widths) if total > 0 else np.zeros_like(widths)
    return Histogram(
        bin_count=bin_count,
        edges=edges,
        counts=counts,
        densities=densities,
        sample_count=total,
    )


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
