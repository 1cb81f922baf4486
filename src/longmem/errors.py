"""Exception types shared across the package.

Invalid arguments raise plain ``ValueError``; everything domain-specific
derives from ``LongmemError`` so callers can catch the package in one clause.
"""


class LongmemError(Exception):
    """Base class for errors raised by this package."""


class UnsupportedLengthError(ValueError, LongmemError):
    """Operator-path input has an even length; the convolution operator is odd-length only."""


class ModelConstructionError(LongmemError):
    """Spectral model failed validation (complex or non-positive eigenvalues)."""


class InternalConsistencyError(LongmemError):
    """A numerical self-check failed; indicates a bug, not bad input."""


class DegenerateSampleError(LongmemError):
    """A sample was constant where spread is required."""


class InsufficientDataError(LongmemError):
    """Too few observations for the requested estimate."""


class ResourceLimitError(LongmemError):
    """Refusing an allocation above a guard limit: a dense order or a grid length."""
