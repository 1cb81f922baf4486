"""Checks on values entering the package.  Each public bound is enforced
by one library call through these helpers, and the command line's flag
types apply the same helpers with the same constants."""

import functools
import operator

import numpy as np

from .errors import UnsupportedLengthError


def whole(value, name, minimum=0, limit=None):
    """``value`` as a Python int in ``[minimum, limit)``: TypeError naming
    ``name`` if it is not integral (``5.7``, ``'5'``), ValueError if it is
    out of range."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum or (limit is not None and value >= limit):
        bound = f"at least {minimum}" if limit is None else f"in [{minimum}, {limit})"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value


def real(value, name, low, high):
    """``value`` as a float in ``[low, high]``, else ValueError; NaN and the
    infinities fall outside every finite range."""
    value = float(value)
    if not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    return value


def odd(value, name):
    """``value`` if it is odd, else UnsupportedLengthError (a ValueError)."""
    if value % 2 == 0:
        raise UnsupportedLengthError(f"{name} must be odd, got {value}")
    return value


def vector(value, name, minimum=1, bounds=None, complex_ok=False):
    """``value`` as a 1-D finite float64 array (complex128 if ``complex_ok``)
    of at least ``minimum`` entries, inside the closed interval ``bounds`` if
    given, else ValueError; copied only when its dtype has to change.  Text
    and object arrays are rejected, not parsed."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biufc":
        raise ValueError(f"{name} must be numeric, got dtype {arr.dtype}")
    if arr.ndim != 1 or arr.size < minimum:
        raise ValueError(
            f"{name} must be 1-D with at least {minimum} entries, got shape {arr.shape}"
        )
    if np.iscomplexobj(arr) and not complex_ok:
        raise ValueError(f"{name} must be real-valued")
    arr = np.asarray(arr, dtype=complex if complex_ok else float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if bounds and not bounds[0] <= arr.min() <= arr.max() <= bounds[1]:
        raise ValueError(
            f"{name} must lie in {list(bounds)}, got values from {arr.min()} to {arr.max()}"
        )
    return arr


def representable(fn):
    """Wrap ``fn`` so float64 overflow or an invalid operation on its input
    raises ValueError instead of warning and returning inf or NaN."""
    raising = np.errstate(over="raise", invalid="raise")(fn)

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return raising(*args, **kwargs)
        except ArithmeticError as exc:
            raise ValueError(f"{fn.__name__}: input out of float64 range ({exc})") from exc

    return checked
