"""glibc's malloc, reached through ``ctypes``: the command line's heap
setting, and the trim a split run makes before it forks.  Each call
silently does nothing where the C library lacks its symbol."""

import ctypes


def _function(name, restype, *argtypes):
    """The C library's function ``name``, typed, or None if it has none."""
    try:
        function = getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


def keep_freed_blocks():
    """Have malloc serve blocks under 4 MiB from its heap and keep up to
    32 MiB of it mapped once freed, for the life of the process, so each
    replicate block reuses the previous block's transform buffers (3.2 MB at
    hist's rn = 200001) instead of page-faulting fresh ones.  Larger blocks
    are still mapped and returned one by one: kept at 8 MiB, the 8 MB rows
    of n = 999998 raised hist's peak there by 7%.  Threads share that one
    heap: with an arena each, the two CSV render threads raised the peak of
    ``generate --n 200000`` from 62 to 80 MB."""
    mallopt = _function("mallopt", ctypes.c_int, ctypes.c_int, ctypes.c_int)
    if mallopt is not None:
        mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD, <malloc.h>
        mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD
        mallopt(-8, 1)  # M_ARENA_MAX


def trim():
    """Return the heap's free pages to the system, ``malloc_trim(0)``: what
    :func:`keep_freed_blocks` keeps mapped, which a forked child would
    otherwise inherit."""
    malloc_trim = _function("malloc_trim", ctypes.c_int, ctypes.c_size_t)
    if malloc_trim is not None:
        malloc_trim(0)
