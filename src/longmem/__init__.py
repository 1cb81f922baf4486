"""Long-memory time series from a circulant convolution operator.

A power-law spectral density ``|f|**(-beta/2)`` on a zero-free frequency
grid defines a symmetric circulant operator; convolving its row with
Gaussian noise yields series whose standardized values sweep the
symmetric beta family of shapes as ``beta`` runs over [0, 10].  The
operator's eigenvalues predict the intrinsic dimension, shape parameter,
variance, and condition number that the samples then realize.
"""

from .dft import circulant_matrix, circular_convolve, unitary_dft
from .errors import (
    DegenerateSampleError,
    InsufficientDataError,
    InternalConsistencyError,
    LongmemError,
    ModelConstructionError,
    ResourceLimitError,
    UnsupportedLengthError,
)
from .estimators import (
    Histogram,
    SampleStats,
    accumulate_histogram,
    fit_alpha_from_histogram,
    sample_stats,
)
from .montecarlo import MonteCarloReport, run_study
from .sampler import GENERATOR, RngStream, SeriesSample, draw_epsilon, generate, standardize
from .spectral import (
    EigenReport,
    FrequencyGrid,
    SpectralModel,
    build_grid,
    build_model,
    dense_operator,
    eigen_report,
    transform_pair_holds,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateSampleError",
    "EigenReport",
    "FrequencyGrid",
    "GENERATOR",
    "Histogram",
    "InsufficientDataError",
    "InternalConsistencyError",
    "LongmemError",
    "ModelConstructionError",
    "MonteCarloReport",
    "ResourceLimitError",
    "RngStream",
    "SampleStats",
    "SeriesSample",
    "SpectralModel",
    "UnsupportedLengthError",
    "accumulate_histogram",
    "build_grid",
    "build_model",
    "circulant_matrix",
    "circular_convolve",
    "dense_operator",
    "draw_epsilon",
    "eigen_report",
    "fit_alpha_from_histogram",
    "generate",
    "run_study",
    "sample_stats",
    "standardize",
    "transform_pair_holds",
    "unitary_dft",
    "__version__",
]
