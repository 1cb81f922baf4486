"""Replication harness: measured spread statistics over many seeded
replicates, reported next to the eigenvalue predictions, and the pooled
standardized values that ``hist`` bins.

Replicates are drawn in one place, :func:`longmem.sampler.replicate_blocks`:
replicate ``i`` comes from stream ``(seed, i)``, a block of consecutive
replicates at a time, on the model's route.  ``run_study`` reduces each
block straight to its statistics; :func:`standardized_blocks` yields each
block's standardized rows, raveled, which ``hist`` bins and adds block by
block.  So a report or a histogram is a pure function of ``(beta, n,
replicates, seed)``.

Both run on one split engine.  With ``workers=k`` it may split the
replicates into up to ``k`` contiguous shards of whole blocks, each large
enough in series values (``replicates * rn``) to repay its fork, and run
each shard in an ``os.fork`` child.  A child shares the built model
copy-on-write and writes each block's payload, its ``(rows, 3)``
measurements or its standardized rows, raw into its own pipe; it reports
failure only by its exit status.  The calling process draws nothing while
children run: it takes each whole payload from whichever pipe is ready, and
then, since replicate ``i`` depends on ``(seed, i)`` alone, measures itself,
in stream order, every block that no child delivered (all of them when it
forks none).  The report, and the histogram's counts, are the ones a single
process computes, bit for bit, at any worker count.  The price is memory:
every process holds its own block, so a split run's processes together
hold about twice what one process does.
"""

from __future__ import annotations

import operator
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import _malloc
from ._checks import whole
# generate and sample_stats, the one-replicate forms of the engine's stages,
# stay importable here: bench/tracer.py wraps them by name.
from .estimators import row_stats, sample_stats  # noqa: F401
from .sampler import SEED_LIMIT, block_rows, generate, replicate_blocks  # noqa: F401
from .spectral import EigenReport, build_model, eigen_report

MIN_REPLICATES = 2
MIN_WORKERS = 1

# Series values (replicates * rn) a process must draw to repay its fork.
# A split in two forks twice, and the caller reads every payload; launcher
# pairs on a 2-core Xeon, split in two against one process, median wall
# ratios over 16 pairs at CHUNK_BYTES = 800_000: study at n = 200 lost at
# 1000 replicates (201,000 values, 1.03), broke even at 2000 (1.01) and
# gained at 4000 (0.89); hist at n = 200000 lost at 2 replicates (400,002
# values, 1.02), broke even at 4 (0.99) and gained at 8 (0.95).
MIN_SHARD_VALUES = 400_000

# A pipe's capacity on Linux: a child writes its small payloads this many
# bytes at a time.
PIPE_BYTES = 2 ** 16


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
        ``workers`` contiguous shards of whole engine blocks, each of
        about ``MIN_SHARD_VALUES`` series values or more, and each shard
        runs in an ``os.fork`` child when there are two or more.  This
        process measures every replicate itself where ``os`` has no
        ``fork``, and each block that no child delivered: its pipe or fork
        failed with ``OSError`` (a process limit, say), or a signal or an
        exception stopped it first.  The report does not depend on
        ``workers``.  A caller whose own threads may hold locks across the
        fork should pass 1.
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
    replicates = whole(replicates, "replicates", MIN_REPLICATES)
    seed = whole(seed, "seed", limit=SEED_LIMIT)
    workers = whole(workers, "workers", MIN_WORKERS)

    model = build_model(beta, n, dense=dense)
    eigen = eigen_report(model)
    # The engine takes the model out of this list, so that no process draws
    # with it alive.
    held = [model]
    del model
    measured = np.empty((replicates, 3))
    for start, rows in _payloads(held, seed, replicates, workers, _measurements, 3):
        measured[start:start + len(rows)] = rows

    means = measured.mean(axis=0)
    sds = measured.std(axis=0, ddof=1)
    cvs = sds / means
    return MonteCarloReport(
        beta=float(beta),
        n=int(n),
        replicates=replicates,
        seed=seed,
        eigen=eigen,
        mean_d=float(means[0]),
        mean_alpha=float(means[1]),
        mean_var=float(means[2]),
        cv_d=float(cvs[0]),
        cv_alpha=float(cvs[1]),
        cv_var=float(cvs[2]),
    )


def standardized_blocks(beta, n, replicates, seed, workers=1, dense=False):
    """The standardized rows of replicates ``0 .. replicates - 1`` of the
    model at ``(beta, n)``: an iterator over the engine's blocks, each
    block's rows raveled into one array, every block once.

    The model is built here; the blocks are drawn as the iterator is
    consumed, split over up to ``workers`` processes as :func:`run_study`
    splits its replicates.  Blocks that children deliver come in the order
    they arrive, the rest in stream order after them, so the order of the
    values, unlike their multiset, depends on ``workers``.  ``replicates``
    is at least 1; it, ``seed`` and ``workers`` are checked when called,
    before the model is built.

    Raises
    ------
    DegenerateSampleError
        While iterating, at the first replicate in stream order whose noise
        is constant, on any worker count.
    """
    replicates = whole(replicates, "replicates", 1)
    seed = whole(seed, "seed", limit=SEED_LIMIT)
    workers = whole(workers, "workers", MIN_WORKERS)
    held = [build_model(beta, n, dense=dense)]
    return _raveled(_payloads(held, seed, replicates, workers,
                              operator.attrgetter("standardized"), held[0].rn))


def _raveled(payloads):
    """Each payload's rows raveled, the previous block dropped before the
    next is drawn or read."""
    for _, rows in payloads:
        yield rows.ravel()
        del rows


def _measurements(block):
    """The ``(rows, 3)`` ``(d_meas, alpha_meas, variance)`` of a block's
    replicates."""
    stats = row_stats(block.series)
    return np.column_stack((stats.d_meas, stats.alpha_meas, stats.variance))


def _payloads(held, seed, replicates, workers, payload, width):
    """Yield ``(start, payload(block))`` for each engine block of replicates
    ``0 .. replicates - 1``, where ``payload`` maps a block of ``rows``
    replicates to a C-contiguous ``(rows, width)`` float64 array.

    ``held`` is a one-element list holding the model, which is taken out of
    it: in this process once its children are forked or when it measures
    alone, and in each child before the child's first draw.  With two or
    more shards (:func:`_shards`), each runs in a :class:`_Child`, and the
    blocks the children deliver are yielded as they arrive; then the blocks
    no child delivered are measured here and yielded in stream order, each
    shard's from a model built again.  Before a split forks, this process
    returns its heap's free pages to the system.  Every child is killed and
    reaped when this generator ends or is closed.
    """
    model = held[0]
    beta, n, dense, rn = model.beta, model.grid.n, model.dense, model.rn
    del model
    shards = _shards(replicates, rn, workers if hasattr(os, "fork") else 1)
    rest = [(0, replicates)]
    children = []
    try:
        if len(shards) > 1:
            import select  # only here, as signal is

            # The model's freed transform buffers are still mapped: returned
            # here, no child inherits them.
            _malloc.trim()
            # numpy imports numpy.random on first use, the keying's: here,
            # before the fork, so that the children share it instead of each
            # paying ~15 ms of CPU and ~1700 page faults to import it.
            import numpy.random  # noqa: F401

            _fork_children(children, held, seed, shards, payload, width)
            held.pop()
            # poll, unlike select, takes file descriptors past 1023.
            poller, waiting = select.poll(), {}
            for child in children:
                if child.pipe is not None:
                    poller.register(child.pipe, select.POLLIN)
                    waiting[child.pipe.fileno()] = child
            while waiting:
                for fd, _ in poller.poll():
                    child = waiting[fd]
                    for block in child.receive():
                        yield block
                        del block
                    if child.pipe is None:
                        poller.unregister(fd)
                        del waiting[fd]
            rest = [(child.next, child.stop) for child in children]
        for first, stop in rest:
            if first == stop:
                continue
            for block in replicate_blocks(held.pop() if held else build_model(beta, n, dense=dense),
                                          seed, stop, first):
                start, rows = block.start, payload(block)
                del block
                yield start, rows
                del rows
    finally:
        for child in children:
            child.close()


def _shards(replicates, rn, workers):
    """``(start, stop)`` of the contiguous shards of whole engine blocks
    (``block_rows(rn)`` replicates each) that ``replicates`` at length
    ``rn`` split into on up to ``workers`` processes: as many as hold
    ``MIN_SHARD_VALUES`` series values each.  Each has ``ceil(blocks /
    count)`` blocks but the last, which may be shorter."""
    rows = block_rows(rn)
    blocks = -(-replicates // rows)
    count = max(1, min(workers, blocks, replicates * rn // MIN_SHARD_VALUES))
    size = -(-blocks // count) * rows
    return [(start, min(start + size, replicates)) for start in range(0, replicates, size)]


def _fork_children(children, held, seed, shards, payload, width):
    """Fork a :class:`_Child` for each of ``shards`` in turn and append it to
    ``children``.

    SIGINT's handler is held back meanwhile and the signal delivered again
    on return, so that no KeyboardInterrupt lands between a fork and the
    append of its child, which would leave that child unreaped.  Only the
    main thread runs signal handlers, so on any other there is none to
    hold, nor is there one that was set outside Python."""
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
            children.append(_Child(held, seed, start, stop, payload, width, handler))
    finally:
        if handler is not None:
            signal.signal(signal.SIGINT, handler)
            if caught:
                signal.raise_signal(signal.SIGINT)


class _Child:
    """A forked process that writes ``payload(block)`` of each block of
    replicates ``start .. stop - 1``, in stream order, raw into its pipe and
    exits 0, or exits 1 if anything stops it; ``pid`` and ``pipe`` are
    ``None`` if the pipe or the fork failed with ``OSError``.  ``sigint`` is
    the SIGINT handler the child restores, if the caller holds it back while
    forking.

    The child never returns into its caller's frames: it ends with
    ``os._exit``, so no ``finally`` block, ``atexit`` hook, open file or
    stdio buffer of the parent runs or flushes in it.  In the parent,
    ``next`` is the first replicate not yet delivered; :meth:`receive` reads
    the pipe, and :meth:`close` ends the child."""

    def __init__(self, held, seed, start, stop, payload, width, sigint):
        import signal

        self.next, self.stop, self.width = start, stop, width
        self.rows = block_rows(held[0].rn)
        self.pid = self.pipe = None
        read = write = None
        try:
            read, write = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns of a fork in a process with other
                # threads.  Ours are OpenBLAS's, whose atfork handler stops
                # them before the fork, and the child runs only this thread.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError:  # the caller measures the shard
            for fd in (read, write):
                if fd is not None:
                    os.close(fd)
            return
        if self.pid == 0:
            code = 1
            try:
                # With its read end closed here, a child writes into a pipe
                # that only the parent reads, and fails if the parent dies.
                os.close(read)
                if sigint is not None:
                    signal.signal(signal.SIGINT, sigint)
                # Small payloads go out a pipe's worth at a time, so that
                # the parent wakes once for many.
                with open(write, "wb", buffering=PIPE_BYTES) as out:
                    for rows in map(payload, replicate_blocks(held.pop(), seed, stop, start)):
                        out.write(memoryview(rows).cast("B"))
                        del rows
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        os.set_blocking(read, False)
        self.pipe = open(read, "rb", buffering=0)
        self._expect()

    def _expect(self):
        """Make the array that the next block's payload is read into."""
        self.buffer = np.empty((min(self.rows, self.stop - self.next), self.width))
        self.view, self.filled = memoryview(self.buffer).cast("B"), 0

    def receive(self):
        """Yield ``(start, rows)`` of each block whose payload the pipe now
        holds whole, reading until it holds no more.  After the last block, or
        at the pipe's end, close: the blocks not delivered by then are the
        caller's to measure, whatever the child's exit status."""
        while self.pipe is not None:
            got = self.pipe.readinto(self.view[self.filled:])
            if got is None:  # nothing more for now
                return
            if not got:
                self.close()
                return
            self.filled += got
            if self.filled == len(self.view):
                block = self.next, self.buffer
                self.next += len(self.buffer)
                if self.next < self.stop:
                    self._expect()
                else:
                    self.close()
                yield block
                del block

    def close(self):
        """Close the pipe, and kill and reap the child, unless done already."""
        if self.pipe is not None:
            self.pipe.close()
            self.pipe = None
        if self.pid:
            import signal  # only here: the import costs every command ~1 ms

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
