"""Checks on values entering the package.  Each public bound is enforced
by one library call through these helpers, and the command line's flag
types apply the same helpers with the same constants."""

import operator


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
