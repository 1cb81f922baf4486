"""Stochastic half of the model: seeded Gaussian noise, the convolved
series, and its cosine / standardized descendants.

Reproducibility contract: a replicate is addressed by ``(seed,
stream_index)``; the same address always yields the same draws, on any
platform and regardless of how many other replicates ran before it.

Replicates are drawn here, in :func:`replicate_blocks`: consecutive streams
in ``(rows, rn)`` blocks sized by ``CHUNK_BYTES``.  :func:`generate` draws
one replicate and runs the same row-wise stages on one row.  Both follow
the route the model carries, ``model.dense``.

A stream is ``PCG64(SeedSequence(entropy=seed, spawn_key=(stream_index,)))``
(NumPy NEP 19), which :meth:`RngStream.generator` builds one at a time.
The engine keys a block of streams at once instead (:class:`_StreamKeyer`):
the seed's part of the SeedSequence hash is computed once per call, each
index's spawn words are hashed in numpy uint32 arithmetic, and PCG64's
seeding step (O'Neill 2014) runs on Python ints.  Each row's state is then
set on one reused generator, so the draws equal the one-at-a-time
streams' bit for bit.
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

# Longest row whose norm is a BLAS dot.  OpenBLAS computes a dot of up to
# 10000 points on the calling thread.  It splits a longer one over its
# threads: the bits then follow the thread count, and a second CPU spins for
# about 50 ms after each call.
BLAS_DOT_MAX = 10_000

# Bytes of one block's complex128 (rows, rn) array, the complex route's
# transform: a block holds as many replicates as fit, and at least one.  Each
# block pays a fixed cost in numpy calls, and holds about 2.1 budgets of
# temporaries for study, 2.6 for hist.  run_study(2.2, 200, 20000, 5,
# workers=1) in-process, median of 9 alternating rounds on a 2-core Xeon:
# 0.429 s at 0.1 MB, 0.379 at 0.2, 0.347 at 0.4, 0.314 at 0.8, 0.319 at 1.6,
# 0.316 at 3.2 and 0.330 at 6.4.  0.8 MB, the smallest budget on that
# plateau, is 248 replicates at rn = 201; below 16 * 200001 bytes, it draws
# hist-wide's rows one a block.
CHUNK_BYTES = 800_000

# SeedSequence's hash constants (numpy.random.bit_generator) and PCG64's
# 128-bit LCG multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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
        If the noise is constant; the message names the stream index.
    """
    first_row, dense = model.first_row, model.dense
    # The rest of the model is freed here if the caller holds no reference.
    del model
    epsilon = draw_epsilon(stream, first_row.size)
    series = circular_convolve(first_row, epsilon, dense=dense)
    # numpy's BLAS norms at any length, which bench/workloads.py recomputes
    # to check the cosine column bit for bit.
    norms = np.linalg.norm(first_row) * np.linalg.norm(epsilon)[None]
    block = _series_block(epsilon[None], series[None], norms, stream.seed, stream.stream_index)
    return block.sample(0)


@dataclass(frozen=True)
class SeriesBlock:
    """Replicates ``start .. start + rows - 1`` of one seed: row ``k`` of each
    array is the matching :class:`SeriesSample` field of stream
    ``(seed, start + k)``.

    A block keeps what was drawn and computed: the noise, the series and
    ``norms``, each row's product of 2-norms.  Its cosine and standardized
    rows are derived from them on each read, so a consumer that reads only
    the series computes neither."""

    epsilon: np.ndarray
    series: np.ndarray
    norms: np.ndarray
    seed: int
    start: int

    @property
    def cosvec(self):
        """Each row of the series over its product of 2-norms, inside [-1, 1]."""
        return self.series / self.norms[:, None]

    @property
    def standardized(self):
        """Each row of :attr:`cosvec` mapped affinely onto [0, 1]."""
        return _standardize_rows(self.cosvec)

    def sample(self, k):
        """Row ``k`` as a :class:`SeriesSample` of views into this block's
        arrays and its derived ones, the cosine derived once."""
        cosvec = self.cosvec
        return SeriesSample(
            epsilon=self.epsilon[k],
            series=self.series[k],
            cosvec=cosvec[k],
            standardized=_standardize_rows(cosvec)[k],
            seed=self.seed,
            stream_index=self.start + k,
        )


def block_rows(rn):
    """Replicates in one block of :func:`replicate_blocks` at length ``rn``:
    as many ``16 * rn``-byte rows as fit in ``CHUNK_BYTES``, and at least one."""
    return max(1, CHUNK_BYTES // (16 * rn))


def replicate_blocks(model, seed, replicates, first=0):
    """Iterate over replicates ``first .. replicates - 1`` of ``seed`` in
    consecutive blocks (:class:`SeriesBlock`) of ``block_rows(rn)`` rows, the
    last one possibly shorter; replicate ``i`` equals ``generate(model,
    RngStream(seed, i))`` bit for bit up to ``BLAS_DOT_MAX`` points a row
    (longer rows' cosine and standardized values may differ from
    ``generate``'s in the last bits, see :func:`_row_norms`), and no stream
    before ``first`` is drawn.

    The convolution operator (:func:`~longmem.dft.convolution_operator`,
    which fixes the route) and the row's norm are computed once per call,
    after ``seed``, ``replicates`` and ``first`` are checked.  Each block is
    checked (:func:`_series_block`) and holds its noise, series and norms;
    its cosine and standardized rows are computed only by a consumer that
    reads them.  A block holds no reference to the one before, so once its
    consumer drops it only one block is alive.

    Raises
    ------
    DegenerateSampleError
        At the first replicate in stream order whose noise is constant,
        naming its stream index.
    """
    seed = whole(seed, "seed", limit=SEED_LIMIT)
    replicates = whole(replicates, "replicates")
    first = whole(first, "first")
    rn = model.rn
    operator = convolution_operator(model.first_row, model.dense)
    row_norm = _row_norms(model.first_row[None])[0]
    keyer = _StreamKeyer(seed)
    rows = block_rows(rn)
    return (_draw_block(operator, row_norm, keyer, rn, start, min(start + rows, replicates))
            for start in range(first, replicates, rows))


def _draw_block(operator, row_norm, keyer, rn, start, stop):
    """Replicates ``start .. stop - 1``, built outside the generator so that
    no local there keeps the previous block alive while this one is drawn."""
    epsilon = _draw_noise(keyer, start, stop, rn)
    return _series_block(epsilon, convolve_rows(operator, epsilon), row_norm * _row_norms(epsilon),
                         keyer.seed, start)


def _draw_noise(keyer, start, stop, rn):
    """The ``(stop - start, rn)`` noise of replicates ``start .. stop - 1``:
    row ``k`` is ``draw_epsilon(RngStream(keyer.seed, start + k), rn)`` bit
    for bit.  The engine's one source of noise."""
    epsilon = np.empty((stop - start, rn))
    generator = keyer.generator
    bit_generator = generator.bit_generator
    for row, (state, inc) in zip(epsilon, keyer.states(start, stop)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    return epsilon


class _StreamKeyer:
    """PCG64 states of the streams ``(seed, i)`` of one checked seed, keyed a
    block of indices at a time, and the one generator they are drawn on.

    ``SeedSequence(entropy=seed, spawn_key=(i,))`` pads the seed's uint32
    words to its 4-word pool and mixes them, then hashes the spawn words of
    ``i`` (one below 2**32, two from there) into the pool, then runs
    ``generate_state(4, uint64)``.  The first step depends on the seed alone
    and is done here once; the hash constant it leaves does not depend on
    the data at all.
    """

    def __init__(self, seed):
        self.seed = seed
        # Unpadded, SeedSequence(seed) hashes zeros for the missing words,
        # so its pool is the padded pool a spawn key is mixed into.
        self.pool = np.random.SeedSequence(seed).pool
        # The running hash constant after the pool's 4 + 12 hashes, for the
        # 4 hashes of each spawn word; and generate_state's, for its 8 words.
        spawn = _hash_constants(_INIT_A, _MULT_A, 16, 8)
        self.spawn_xor, self.spawn_mul = spawn[:-1].reshape(2, 4), spawn[1:].reshape(2, 4)
        state = _hash_constants(_INIT_B, _MULT_B, 0, 8)
        self.state_xor, self.state_mul = state[:-1], state[1:]
        self.generator = np.random.Generator(np.random.PCG64(0))

    def states(self, start, stop):
        """``(state, inc)`` as Python ints, in index order, of
        ``PCG64(SeedSequence(entropy=seed, spawn_key=(i,)))`` for ``i`` in
        ``start .. stop - 1``."""
        index = np.arange(start, stop, dtype=np.uint64)
        pool = self.pool
        for j, word in enumerate((index & _MASK32, index >> 32)):
            word = word.astype(np.uint32)[:, None]
            mixed = _fold(_MIX_MULT_L * pool
                          - _MIX_MULT_R * _fold((word ^ self.spawn_xor[j]) * self.spawn_mul[j]))
            # Only an index from 2**32 up has a second spawn word.
            pool = mixed if j == 0 else np.where((index > _MASK32)[:, None], mixed, pool)
        words = _fold((pool[:, [0, 1, 2, 3, 0, 1, 2, 3]] ^ self.state_xor) * self.state_mul)
        # generate_state pairs the words little-endian into four uint64s:
        # PCG64's initstate and initseq, high half first.
        pairs = np.ascontiguousarray(words, "<u4").view("<u8").tolist()
        for state_hi, state_lo, seq_hi, seq_lo in pairs:
            # pcg64_set_seed: inc = 2 initseq + 1; one step from state 0
            # gives inc; add initstate; one more step.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            yield (((state_hi << 64 | state_lo) + inc) * _PCG64_MULT + inc) & _MASK128, inc


def _hash_constants(init, mult, first, count):
    """Values ``first .. first + count`` of SeedSequence's running hash
    constant ``init * mult**k mod 2**32``, as uint32."""
    return np.array([init * pow(mult, k, 2**32) & _MASK32
                     for k in range(first, first + count + 1)], dtype=np.uint32)


def _fold(words):
    """``words ^ (words >> 16)``, the last step of each SeedSequence hash and mix."""
    return words ^ (words >> 16)


@representable
def _series_block(epsilon, series, norms, seed, start):
    """The block of replicates ``start ..`` from their noise, series and
    product of 2-norms (``norms``, one a row), once each row's cosine
    vector, the series over its norms, is checked to lie in [-1, 1].  No
    derived array is built here: the block derives them when they are read.

    The first row whose noise is constant raises ``DegenerateSampleError``,
    naming its stream.  The operator is a positive-definite circulant with
    the ones vector as an eigenvector, so the series is constant exactly
    when the noise is.  The noise is tested because the test is exact on
    every route: the padded and dense routes leave a convolved constant a
    rounding-sized range.
    """
    constant = np.flatnonzero(epsilon.min(axis=1) == epsilon.max(axis=1))
    if constant.size:
        raise DegenerateSampleError(
            f"replicate stream_index={start + constant[0]}: constant noise gives a constant "
            "series, which has no range to standardize"
        )
    # Correctly rounded division by a positive norm is monotone, so this is
    # the largest |cosine| of each row bit for bit.
    worst = np.abs(series).max(axis=1) / norms
    failed = np.flatnonzero(worst > 1.0 + COSINE_TOL)
    if failed.size:
        raise InternalConsistencyError(
            f"cosine vector left [-1, 1]: max magnitude {float(worst[failed[0]])!r}"
        )
    return SeriesBlock(epsilon=epsilon, series=series, norms=norms, seed=seed, start=start)


def _row_norms(block):
    """The 2-norm of each row of a 2-D block, the row's alone whatever the
    block around it.  Up to ``BLAS_DOT_MAX`` points a row it is bit for bit
    ``np.linalg.norm`` of the row: a stacked vector @ vector is the same one
    BLAS dot of the row with itself, which OpenBLAS runs on this thread.  A
    longer row's squares are summed by numpy's pairwise sum, in an order
    fixed by the row's length, so that its norm does not depend on the
    OpenBLAS thread count and leaves no BLAS thread spinning."""
    if block.shape[1] <= BLAS_DOT_MAX:
        return np.sqrt((block[:, None, :] @ block[:, :, None])[:, 0, 0])
    return np.sqrt(np.sum(block * block, axis=1))


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


def _standardize_rows(block):
    """:func:`standardize` of each row of a 2-D block; a constant row raises
    ``DegenerateSampleError``."""
    lo = block.min(axis=1, keepdims=True)
    hi = block.max(axis=1, keepdims=True)
    if np.any(hi == lo):
        raise DegenerateSampleError("constant vector has no range to standardize")
    shifted = block - lo
    shifted /= hi - lo
    return shifted
