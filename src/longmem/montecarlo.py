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
model copy-on-write and sends back through a pipe only its ``(rows, 3)``
measurements, or the exception that stopped it.  The report is the one a
single process computes, bit for bit, at any worker count.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import whole
from .errors import InternalConsistencyError
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
        and each other in an ``os.fork`` child.  Where ``os`` has no
        ``fork``, or a fork fails with ``OSError`` (a process limit, say),
        this process measures those shards itself.  The report does not
        depend on ``workers``.  A caller whose own threads may hold locks
        across the fork should pass 1.
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
    InternalConsistencyError
        If a child process ends without sending its measurements; the
        message names its replicates.
    """
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
    stop = shards[0][1]
    blocks = replicate_blocks(held[0], seed, stop)

    measured = np.empty((replicates, 3))
    children = []
    try:
        rest = _fork_children(children, held, seed, shards[1:])
        if rest is None:
            held.pop()
        _measure(blocks, 0, measured[:stop])
        del blocks
        for child in children:
            child.receive(measured[child.start:child.stop])
        if rest is not None:
            _measure(replicate_blocks(held.pop(), seed, replicates, rest), rest, measured[rest:])
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


def _measure(blocks, start, out):
    """Fill ``out`` with the ``(d_meas, alpha_meas, variance)`` rows of the
    replicates from ``start`` on, from their engine blocks, each dropped
    before the next is drawn."""
    for block in blocks:
        stats = row_stats(block.series)
        first = block.start - start
        out[first:first + len(block.series)] = np.column_stack(
            (stats.d_meas, stats.alpha_meas, stats.variance)
        )
        del block


def _fork_children(children, held, seed, shards):
    """Fork a :class:`_Child` for each of ``shards`` in turn, appending it to
    ``children``, and return ``None``, or the start of the first shard whose
    pipe or fork failed with ``OSError``: from there on this process
    measures the replicates itself.

    SIGINT's handler is held back meanwhile and the signal delivered again
    on return, so that no KeyboardInterrupt lands between a fork and the
    append of its child, which would leave that child unreaped.  Only the
    main thread runs signal handlers, so on any other there is none to
    hold, nor is there one that was set outside Python."""
    if not shards:
        return None
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
            try:
                children.append(_Child(held, seed, start, stop, handler))
            except OSError:
                return start
        return None
    finally:
        if handler is not None:
            signal.signal(signal.SIGINT, handler)
            if caught:
                signal.raise_signal(signal.SIGINT)


class _Child:
    """A forked process that measures replicates ``start .. stop - 1`` and
    writes to a pipe ``b"m"`` and their float64 rows, or ``b"e"`` and the
    exception that stopped it, pickled.  ``sigint`` is the SIGINT handler
    the child restores, if the caller holds it back while forking.

    The child never returns into its caller's frames: it ends with
    ``os._exit``, so no ``finally`` block, ``atexit`` hook, open file or
    stdio buffer of the parent runs or flushes in it.  The parent reaps it
    once, in :meth:`receive` or :meth:`kill`."""

    def __init__(self, held, seed, start, stop, sigint):
        import signal

        self.start, self.stop = start, stop
        read_fd, write_fd = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of a fork in a process with other
                # threads.  Ours are OpenBLAS's, whose atfork handler stops
                # them before the fork, and the child runs only this thread.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            code = 1
            try:
                # The caller's SIGINT handler, held back during the fork;
                # and a child holding the read end open would block forever
                # on a full pipe that its parent no longer reads.
                if sigint is not None:
                    signal.signal(signal.SIGINT, sigint)
                os.close(read_fd)
                measured = np.empty((stop - start, 3))
                try:
                    _measure(replicate_blocks(held.pop(), seed, stop, start), start, measured)
                    sent = (b"m", measured)
                except Exception as exc:  # raised again by the parent
                    sent = (b"e", pickle.dumps(exc))
                with open(write_fd, "wb") as pipe:
                    pipe.writelines(sent)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def receive(self, out):
        """Read the child's measurements into ``out`` and reap it.  Its
        exception is raised here, and a child that ended without sending
        raises ``InternalConsistencyError`` naming its replicates."""
        with self.pipe:
            kind = self.pipe.read(1)
            if kind == b"m":
                self.pipe.readinto(out)
            else:
                error = self.pipe.read()
        code = self._reap()
        if code != 0:
            ended = f"by signal {-code}" if code < 0 else f"with exit status {code}"
            raise InternalConsistencyError(
                f"the process measuring replicates {self.start} .. {self.stop - 1} "
                f"ended {ended} without sending them"
            )
        if kind != b"m":
            raise pickle.loads(error)

    def kill(self):
        """Kill and reap the child unless it has been reaped already."""
        self.pipe.close()
        if self.pid:
            import signal  # only here: the import costs every command ~1 ms

            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self):
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)
