"""Replication harness: measured spread statistics over many seeded
replicates, reported next to the eigenvalue predictions.

Replicates are drawn in one place, :func:`longmem.sampler.replicate_blocks`:
replicate ``i`` comes from stream ``(seed, i)``, in replicate order, a block
of consecutive replicates at a time, on the model's route.  ``run_study``
reduces each block straight to its statistics; ``hist`` and the shape
gallery bin each block's standardized rows in one pass and add the counts
block by block.  So a report or a histogram is a pure function of
``(beta, n, replicates, seed)``.

``run_study(..., workers=k)`` may split the replicates into up to ``k``
contiguous shards of whole blocks, one per process, where each shard is
large enough to repay its fork.  The first shard runs in the calling
process and each other in an ``os.fork`` child, which shares the built
model copy-on-write and writes its ``(rows, 3)`` measurements into an
array in anonymous shared memory, reporting only its exit status.  Since
replicate ``i`` depends on ``(seed, i)`` alone, the caller measures again
any shard that no child delivered.  The report is the one a single
process computes, bit for bit, at any worker count.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import whole
# generate and sample_stats, the one-replicate forms of the engine's stages,
# stay importable here: bench/tracer.py wraps them by name.
from .estimators import row_stats, sample_stats  # noqa: F401
from .sampler import block_rows, generate, replicate_blocks  # noqa: F401
from .spectral import EigenReport, build_model, eigen_report

MIN_REPLICATES = 2
MIN_WORKERS = 1

# Engine blocks a process must measure to repay its fork.  The fork, the
# copy-on-write faults in both processes and the caller's slower exit cost
# the command line about 20 ms; at n = 200 a study split in two lost at
# 1000 replicates (33 blocks, wall 1.095 of one process) and gained from
# 2000 (65 blocks, 0.945) on a 2-core Xeon.
MIN_SHARD_BLOCKS = 32


@dataclass(frozen=True)
class MonteCarloReport:
    """Study outcome: eigenvalue estimates next to measured means and CVs.

    mean_* are replicate means of d_meas, alpha_meas, and the series
    variance; cv_* are the matching coefficients of variation (sample
    standard deviation over mean).
    """

    beta: float
    n: int
    replicates: int
    seed: int
    eigen: EigenReport
    mean_d: float
    mean_alpha: float
    mean_var: float
    cv_d: float
    cv_alpha: float
    cv_var: float


def run_study(beta, n, replicates, seed, workers=1, dense=False):
    """Run a replicated study of the model at one (beta, n).

    Parameters
    ----------
    beta, n : model parameters
    replicates : int
        Number of replicates, at least 2.
    seed : int
        Study seed; replicate ``i`` uses stream ``(seed, i)``.
    workers : int
        Processes to measure the replicates on, at least 1; the caller
        caps it at the CPUs it may use.  The replicates split into up to
        ``workers`` contiguous shards of whole engine blocks, each of at
        least ``MIN_SHARD_BLOCKS`` blocks; the first runs in this process
        and each other in an ``os.fork`` child.  This process measures
        every shard itself where ``os`` has no ``fork``, and each shard
        whose fork fails with ``OSError`` (a process limit, say) or whose
        child does not exit 0 (a signal or an exception stopped it).  The
        report does not depend on ``workers``.  A caller whose own threads
        may hold locks across the fork should pass 1.
    dense : bool
        Build the model on the dense route, which its transforms, convolutions
        and ``eigen`` summary follow; ``eigen`` is the ``eigen`` command's
        report on both routes.

    Returns
    -------
    MonteCarloReport

    Raises
    ------
    DegenerateSampleError
        If any replicate's noise is constant; the message names the
        offending stream index and the study aborts.  With several failing
        replicates, the first in stream order is named, on any worker count.
    """
    import mmap  # only here, as signal is: only a study needs it

    replicates = whole(replicates, "replicates", MIN_REPLICATES)
    workers = whole(workers, "workers", MIN_WORKERS)

    model = build_model(beta, n, dense=dense)
    eigen = eigen_report(model)
    shards = _shards(replicates, block_rows(model.rn), workers if hasattr(os, "fork") else 1)
    # A replicate reads only what the engine holds, the operator and the
    # row's norm.  Each process builds its own engine and then drops the
    # model, which a forked child takes out of its own copy of this list.
    # This process's engine comes first, so the children inherit the
    # engine's first-use imports instead of each paying them again.
    held = [model]
    del model
    blocks = replicate_blocks(held[0], seed, shards[0][1])

    # Every process writes its rows in place, at their replicates.
    measured = np.frombuffer(mmap.mmap(-1, replicates * 24)).reshape(replicates, 3)
    children = []
    try:
        _fork_children(children, held, seed, shards[1:], measured)
        held.pop()
        _measure(blocks, measured)
        del blocks
        # In stream order, so that the first failing replicate is named.
        for child in children:
            if not child.delivered():
                _measure(replicate_blocks(build_model(beta, n, dense=dense), seed,
                                          child.stop, child.start), measured)
    finally:
        for child in children:
            child.kill()

    means = measured.mean(axis=0)
    sds = measured.std(axis=0, ddof=1)
    cvs = sds / means
    return MonteCarloReport(
        beta=float(beta),
        n=int(n),
        replicates=replicates,
        seed=int(seed),
        eigen=eigen,
        mean_d=float(means[0]),
        mean_alpha=float(means[1]),
        mean_var=float(means[2]),
        cv_d=float(cvs[0]),
        cv_alpha=float(cvs[1]),
        cv_var=float(cvs[2]),
    )


def _shards(replicates, rows, workers):
    """``(start, stop)`` of the contiguous shards of whole ``rows``-replicate
    blocks that ``replicates`` split into on up to ``workers`` processes:
    as many as hold ``MIN_SHARD_BLOCKS`` blocks each.  Each has
    ``ceil(blocks / count)`` blocks but the last, which may be shorter."""
    blocks = -(-replicates // rows)
    count = max(1, min(workers, blocks // MIN_SHARD_BLOCKS))
    size = -(-blocks // count) * rows
    return [(start, min(start + size, replicates)) for start in range(0, replicates, size)]


def _measure(blocks, measured):
    """Write the ``(d_meas, alpha_meas, variance)`` rows of the engine's
    ``blocks`` into ``measured`` at their replicates, each block dropped
    before the next is drawn."""
    for block in blocks:
        stats = row_stats(block.series)
        measured[block.start:block.start + len(block.series)] = np.column_stack(
            (stats.d_meas, stats.alpha_meas, stats.variance)
        )
        del block


def _fork_children(children, held, seed, shards, measured):
    """Fork a :class:`_Child` for each of ``shards`` in turn, writing into
    ``measured``, and append it to ``children``.

    SIGINT's handler is held back meanwhile and the signal delivered again
    on return, so that no KeyboardInterrupt lands between a fork and the
    append of its child, which would leave that child unreaped.  Only the
    main thread runs signal handlers, so on any other there is none to
    hold, nor is there one that was set outside Python."""
    if not shards:
        return
    import signal  # only here: the import costs every command ~1 ms

    caught = []
    handler = signal.getsignal(signal.SIGINT)
    try:
        if handler is not None:
            signal.signal(signal.SIGINT, lambda *_: caught.append(True))
    except ValueError:  # not the main thread
        handler = None
    try:
        for start, stop in shards:
            children.append(_Child(held, seed, start, stop, measured, handler))
    finally:
        if handler is not None:
            signal.signal(signal.SIGINT, handler)
            if caught:
                signal.raise_signal(signal.SIGINT)


class _Child:
    """A forked process that writes the rows of replicates ``start .. stop -
    1`` into ``measured`` and exits 0, or exits 1 if anything stops it;
    ``pid`` is ``None`` if the fork failed with ``OSError``.  ``sigint`` is
    the SIGINT handler the child restores, if the caller holds it back
    while forking.

    The child never returns into its caller's frames: it ends with
    ``os._exit``, so no ``finally`` block, ``atexit`` hook, open file or
    stdio buffer of the parent runs or flushes in it.  The parent reaps it
    once, in :meth:`delivered` or :meth:`kill`."""

    def __init__(self, held, seed, start, stop, measured, sigint):
        import signal

        self.start, self.stop = start, stop
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of a fork in a process with other
                # threads.  Ours are OpenBLAS's, whose atfork handler stops
                # them before the fork, and the child runs only this thread.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError:  # the caller measures the shard
            self.pid = None
            return
        if self.pid == 0:
            code = 1
            try:
                if sigint is not None:
                    signal.signal(signal.SIGINT, sigint)
                _measure(replicate_blocks(held.pop(), seed, stop, start), measured)
                code = 0
            finally:
                os._exit(code)

    def delivered(self):
        """Reap the child and tell whether it wrote its rows, that is
        exited 0; ``False`` for a failed fork."""
        return self.pid is not None and self._reap() == 0

    def kill(self):
        """Kill and reap the child unless it has been reaped already."""
        if self.pid:
            import signal  # only here: the import costs every command ~1 ms

            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        """Wait for the child and return its wait status, 0 for exit 0."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status
