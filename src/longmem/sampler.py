"""Stochastic half of the model: seeded Gaussian noise, the convolved
series, and its cosine / standardized descendants.

Reproducibility contract: a replicate is addressed by ``(seed,
stream_index)``; the same address always yields the same draws, on any
platform and regardless of how many other replicates ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import odd, representable, vector, whole
from .dft import circular_convolve
from .errors import DegenerateSampleError, InternalConsistencyError

# Stream construction recorded in output metadata: PCG64 keyed by
# (entropy=seed, spawn_key=(stream_index,)), normals via the ziggurat method.
GENERATOR = "pcg64-ziggurat"

# |cosine| may exceed 1 only by accumulated rounding.
COSINE_TOL = 1e-12

SEED_LIMIT = 2**64


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


def generate(model, stream, dense=False):
    """Generate one realization of the model from one stream.

    The raw series is the circular convolution of the operator row with
    the noise; dividing by the product of 2-norms turns each entry into
    the cosine of the angle between a row of the operator and the noise
    vector, and range-standardizing that maps it onto [0, 1].

    Parameters
    ----------
    model : SpectralModel
    stream : RngStream
    dense : bool
        Convolve via the dense O(rn^2) oracle.

    Returns
    -------
    SeriesSample

    Raises
    ------
    DegenerateSampleError
        If the series is constant; the message names the stream index.
    """
    epsilon = draw_epsilon(stream, model.rn)
    series = circular_convolve(model.first_row, epsilon, dense=dense)
    norms = float(np.linalg.norm(model.first_row) * np.linalg.norm(epsilon))
    cosvec = series / norms
    worst = float(np.abs(cosvec).max())
    if worst > 1.0 + COSINE_TOL:
        raise InternalConsistencyError(
            f"cosine vector left [-1, 1]: max magnitude {worst!r}"
        )
    try:
        standardized = standardize(cosvec)
    except DegenerateSampleError as exc:
        raise DegenerateSampleError(f"replicate stream_index={stream.stream_index}: {exc}") from exc
    return SeriesSample(
        epsilon=epsilon,
        series=series,
        cosvec=cosvec,
        standardized=standardized,
        seed=stream.seed,
        stream_index=stream.stream_index,
    )


@representable
def standardize(values):
    """Map a vector affinely onto [0, 1] with exact endpoint values.

    Accepts a plain vector or a :class:`SeriesSample` (its cosine vector
    is standardized).  The minimum maps to exactly 0.0 and the maximum to
    exactly 1.0; invariant under location-scale changes of the input.

    Raises
    ------
    DegenerateSampleError
        If the vector is constant.
    """
    if isinstance(values, SeriesSample):
        values = values.cosvec
    arr = vector(values, "values")
    lo = arr.min()
    hi = arr.max()
    if hi == lo:
        raise DegenerateSampleError("constant vector has no range to standardize")
    return (arr - lo) / (hi - lo)
