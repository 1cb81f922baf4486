"""Stochastic half of the model: seeded Gaussian noise, the convolved
series, and its cosine / standardized descendants.

Reproducibility contract: a replicate is addressed by ``(seed,
stream_index)``; the same address always yields the same draws, on any
platform and regardless of how many other replicates ran before it.

Replicates are drawn here, in :func:`replicate_blocks`: consecutive streams
in ``(rows, rn)`` blocks sized by ``CHUNK_BYTES``.  :func:`generate` draws
one replicate and runs the same row-wise stages on one row.  Both follow
the route the model carries, ``model.dense``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import odd, representable, vector, whole
from .dft import circular_convolve, convolution_operator, convolve_rows
from .errors import DegenerateSampleError, InternalConsistencyError

# Stream construction recorded in output metadata: PCG64 keyed by
# (entropy=seed, spawn_key=(stream_index,)), normals via the ziggurat method.
GENERATOR = "pcg64-ziggurat"

# |cosine| may exceed 1 only by accumulated rounding.
COSINE_TOL = 1e-12

SEED_LIMIT = 2**64

# Bytes of one block's complex128 (rows, rn) transform: a block holds as many
# replicates as fit, and at least one (so one at rn = 200001).
CHUNK_BYTES = 100_000


@dataclass(frozen=True)
class RngStream:
    """One reproducible replicate stream.

    seed : unsigned 64-bit study seed
    stream_index : replicate number within the study
    Both are stored as Python ints; a non-integral value raises TypeError.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", whole(self.seed, "seed", limit=SEED_LIMIT))
        object.__setattr__(self, "stream_index", whole(self.stream_index, "stream_index"))

    def generator(self):
        """Fresh generator for this address; identical addresses give
        identical draw sequences."""
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(key))


@dataclass(frozen=True)
class SeriesSample:
    """One realization of the model.

    epsilon : the standard normal draw
    series : circular convolution of the operator row with epsilon
    cosvec : series rescaled to cosine-of-angle form, inside [-1, 1]
    standardized : affine image of cosvec with min 0 and max 1 exactly
    """

    epsilon: np.ndarray
    series: np.ndarray
    cosvec: np.ndarray
    standardized: np.ndarray
    seed: int
    stream_index: int


def draw_epsilon(stream, rn):
    """Draw ``rn`` independent standard normals from a stream.

    Stateless: calling twice with the same stream returns the same vector.

    Parameters
    ----------
    stream : RngStream
    rn : int
        Odd length, at least 3.
    """
    rn = odd(whole(rn, "rn", 3), "rn")
    return stream.generator().standard_normal(rn)


def generate(model, stream):
    """Generate one realization of the model from one stream.

    The raw series is the circular convolution of the operator row with
    the noise; dividing by the product of 2-norms turns each entry into
    the cosine of the angle between a row of the operator and the noise
    vector, and range-standardizing that maps it onto [0, 1].  A dense
    model convolves via the O(rn^2) oracle.

    Parameters
    ----------
    model : SpectralModel
    stream : RngStream

    Returns
    -------
    SeriesSample

    Raises
    ------
    DegenerateSampleError
        If the series is constant; the message names the stream index.
    """
    epsilon = draw_epsilon(stream, model.rn)
    series = circular_convolve(model.first_row, epsilon, dense=model.dense)
    block = _series_block(epsilon[None], series[None], np.linalg.norm(model.first_row),
                          stream.seed, stream.stream_index)
    return block.sample(0)


@dataclass(frozen=True)
class SeriesBlock:
    """Replicates ``start .. start + rows - 1`` of one seed: row ``k`` of each
    array is the matching :class:`SeriesSample` field of stream
    ``(seed, start + k)``."""

    epsilon: np.ndarray
    series: np.ndarray
    cosvec: np.ndarray
    standardized: np.ndarray
    seed: int
    start: int

    def sample(self, k):
        """Row ``k`` as a :class:`SeriesSample` of views into this block."""
        return SeriesSample(
            epsilon=self.epsilon[k],
            series=self.series[k],
            cosvec=self.cosvec[k],
            standardized=self.standardized[k],
            seed=self.seed,
            stream_index=self.start + k,
        )


def replicate_blocks(model, seed, replicates):
    """Iterate over replicates ``0 .. replicates - 1`` of ``seed`` in consecutive
    blocks (:class:`SeriesBlock`) of ``max(1, CHUNK_BYTES // (16 * rn))``
    rows, the last one possibly shorter; replicate ``i`` equals
    ``generate(model, RngStream(seed, i))`` bit for bit.

    The operator row's FFT (or, on a dense model, its circulant matrix) and
    its norm are computed once per call, after ``seed`` and ``replicates``
    are checked.  A block holds no reference to the one before, so once its
    consumer drops it only one block is alive.

    Raises
    ------
    DegenerateSampleError
        At the first constant replicate in stream order, naming its stream
        index.
    """
    seed = whole(seed, "seed", limit=SEED_LIMIT)
    replicates = whole(replicates, "replicates")
    rn = model.rn
    operator = convolution_operator(model.first_row, model.dense)
    row_norm = np.linalg.norm(model.first_row)
    rows = max(1, CHUNK_BYTES // (16 * rn))
    return (_draw_block(operator, row_norm, rn, seed, start, min(start + rows, replicates))
            for start in range(0, replicates, rows))


def _draw_block(operator, row_norm, rn, seed, start, stop):
    """Replicates ``start .. stop - 1``, built outside the generator so that
    no local there keeps the previous block alive while this one is drawn."""
    epsilon = np.empty((stop - start, rn))
    for k in range(stop - start):
        epsilon[k] = draw_epsilon(RngStream(seed=seed, stream_index=start + k), rn)
    return _series_block(epsilon, convolve_rows(operator, epsilon), row_norm, seed, start)


@representable
def _series_block(epsilon, series, row_norm, seed, start):
    """The block of replicates ``start ..`` from their noise and series: each
    row divided by its product of 2-norms, checked to lie in [-1, 1], and
    standardized."""
    # One BLAS norm per noise row, as one replicate at a time has always taken it.
    norms = row_norm * np.array([np.linalg.norm(e) for e in epsilon])
    cosvec = series / norms[:, None]
    worst = np.abs(cosvec).max(axis=1)
    failed = np.flatnonzero(worst > 1.0 + COSINE_TOL)
    if failed.size:
        raise InternalConsistencyError(
            f"cosine vector left [-1, 1]: max magnitude {float(worst[failed[0]])!r}"
        )
    return SeriesBlock(
        epsilon=epsilon,
        series=series,
        cosvec=cosvec,
        standardized=_standardize_rows(cosvec, start),
        seed=seed,
        start=start,
    )


@representable
def standardize(values):
    """Map a vector affinely onto [0, 1] with exact endpoint values.

    The minimum maps to exactly 0.0 and the maximum to exactly 1.0;
    invariant under location-scale changes of the input.

    Raises
    ------
    DegenerateSampleError
        If the vector is constant.
    """
    return _standardize_rows(vector(values, "values")[None])[0]


def _standardize_rows(block, start=None):
    """:func:`standardize` of each row of a 2-D block.  The first constant row
    raises ``DegenerateSampleError``, naming stream ``start + row`` when
    ``start`` is given."""
    lo = block.min(axis=1, keepdims=True)
    hi = block.max(axis=1, keepdims=True)
    constant = np.flatnonzero(hi == lo)
    if constant.size:
        where = "" if start is None else f"replicate stream_index={start + constant[0]}: "
        raise DegenerateSampleError(f"{where}constant vector has no range to standardize")
    return (block - lo) / (hi - lo)
