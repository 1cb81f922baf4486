"""Command line surface.

Every artifact the model family produces is printable as plot-ready CSV
(default) or JSON.  CSV begins with a ``#``-commented metadata line whose
payload is the full parameter set as JSON.  CSV cells write floats with 17
significant digits, and JSON (the metadata line included) with Python's
shortest round-trip repr; either way parsing them back reproduces the
in-memory values bit-for-bit, and a fixed seed makes reruns byte-identical.
CSV chunks render on up to two threads and are written in row order, and
``study`` and ``hist`` draw their replicates on up to two forked processes,
which stream each block to this one, so the bytes depend on neither count;
JSON renders on the main thread.

Exit codes: 0 success, 2 malformed flags (argparse), 1 runtime error, 130
interrupted (SIGINT).  Runtime errors, allocation failures included, and
interrupts print one machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import itertools
import json
import math
import os
import stat
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, _malloc
from ._checks import real, whole
from ._csv import rows_text
from .errors import InsufficientDataError, LongmemError
from .estimators import DEFAULT_BIN_COUNT, MIN_BIN_COUNT, accumulate_histogram, fit_alpha_from_histogram
from .montecarlo import MIN_REPLICATES, run_study, standardized_blocks
from .sampler import GENERATOR, SEED_LIMIT, RngStream, generate
from .spectral import BETA_MAX, BETA_MIN, N_MIN, build_model, eigen_report, realized_length

PROG = "longmem"

DEFAULT_SEED = 5
DEFAULT_REPLICATES = 500

# Rows formatted and written per write, in CSV and JSON.  A chunk's
# temporaries take about 390 bytes per row of `generate`'s five columns as
# CSV and 810 as JSON, 6 and 13 MB at 2**14 rows.  CSV keeps up to
# threads + 1 = 3 chunks in flight, so at most about 19 MB; JSON one.
CSV_CHUNK_ROWS = 2 ** 14


@dataclass
class RunConfig:
    """Resolved invocation: one command plus every knob it can see."""

    command: str
    beta: float
    n: int
    seed: int = DEFAULT_SEED
    replicates: int = DEFAULT_REPLICATES
    bins: int = DEFAULT_BIN_COUNT
    format: str = "csv"
    output: str = "-"
    dense_oracle: bool = False


def flag_type(parse, check, name, **bounds):
    """Argparse type applying the library's check and bounds to the parsed
    flag text; a rejected value is a usage error (exit 2)."""

    def convert(text):
        try:
            return check(parse(text), name, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


beta_flag = flag_type(float, real, "beta", low=BETA_MIN, high=BETA_MAX)
n_flag = flag_type(int, whole, "n", minimum=N_MIN)
seed_flag = flag_type(int, whole, "seed", limit=SEED_LIMIT)
study_replicates_flag = flag_type(int, whole, "replicates", minimum=MIN_REPLICATES)
# accumulate_histogram pools at least one replicate.
hist_replicates_flag = flag_type(int, whole, "replicates", minimum=1)
bins_flag = flag_type(int, whole, "bins", minimum=MIN_BIN_COUNT)


def build_parser():
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Long-memory series from a circulant convolution operator.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--beta", type=beta_flag, required=True,
                        help=f"spectral exponent in [{BETA_MIN:g}, {BETA_MAX:g}]")
    common.add_argument("--n", type=n_flag, required=True,
                        help=f"requested sample count (>= {N_MIN})")
    common.add_argument("--seed", type=seed_flag, default=DEFAULT_SEED,
                        help="study seed (default %(default)s)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default %(default)s)")
    common.add_argument("--output", default="-", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    common.add_argument("--dense-oracle", action="store_true",
                        help="route transforms and convolutions through the dense O(n^2) oracle paths")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    sub.add_parser("generate", parents=[common],
                   help="one realization: noise, series, cosine, standardized")
    sub.add_parser("spectrum", parents=[common],
                   help="frequency grid, density, operator row")
    sub.add_parser("eigen", parents=[common],
                   help="eigenvalues by rank with summary estimates")
    hist = sub.add_parser("hist", parents=[common],
                          help="pooled histogram of standardized replicates")
    hist.add_argument("--replicates", type=hist_replicates_flag, default=DEFAULT_REPLICATES,
                      help="replicate count (default %(default)s)")
    hist.add_argument("--bins", type=bins_flag, default=DEFAULT_BIN_COUNT,
                      help="histogram bin count (default %(default)s)")
    study = sub.add_parser("study", parents=[common],
                           help="replicated study: eigenvalue estimates vs measured statistics")
    study.add_argument("--replicates", type=study_replicates_flag, default=DEFAULT_REPLICATES,
                       help="replicate count (default %(default)s)")
    return parser


def config_from_args(args):
    return RunConfig(**vars(args))


def _metadata(cfg):
    return {
        "tool": PROG,
        "version": __version__,
        "command": cfg.command,
        "beta": cfg.beta,
        "n": cfg.n,
        "rn": realized_length(cfg.n),
        "seed": cfg.seed,
        "replicates": cfg.replicates,
        "bins": cfg.bins,
        # A placeholder that bench/golden.json pins: the worker count of study
        # and hist (_workers()) depends on the host, and the bytes do not.
        "workers": 1,
        "dense_oracle": cfg.dense_oracle,
        "generator": GENERATOR,
        "format": cfg.format,
    }


def _cmd_generate(cfg):
    # The model goes in inline: generate lets go of it once it holds the row.
    sample = generate(build_model(cfg.beta, cfg.n, dense=cfg.dense_oracle),
                      RngStream(seed=cfg.seed, stream_index=0))
    columns = {
        "index": np.arange(len(sample.epsilon)),
        "epsilon": sample.epsilon,
        "series": sample.series,
        "cosvec": sample.cosvec,
        "standardized": sample.standardized,
    }
    return columns, None


def _cmd_spectrum(cfg):
    model = build_model(cfg.beta, cfg.n, dense=cfg.dense_oracle)
    columns = {
        "frequency": model.grid.frequencies,
        "density": model.density,
        "first_row": model.first_row,
    }
    return columns, None


def _cmd_eigen(cfg):
    model = build_model(cfg.beta, cfg.n, dense=cfg.dense_oracle)
    report = eigen_report(model)
    rn = model.rn
    ranks = range(1, rn + 1)
    # math.log10, not np.log10: the two differ in the last bit on some inputs.
    # Each into a float64 array, 8 bytes a value against a list's 32.
    columns = {
        "rank": np.array(ranks),
        "eigenvalue": model.eigenvalues,
        "log10_rank": np.fromiter(map(math.log10, ranks), float, rn),
        "log10_eigenvalue": np.fromiter(map(math.log10, model.eigenvalues.flat), float, rn),
    }
    return columns, asdict(report)


def _cmd_hist(cfg):
    # Each block's rows, raveled into one array, are binned together, here,
    # whichever process drew them.
    blocks = standardized_blocks(cfg.beta, cfg.n, cfg.replicates, cfg.seed, workers=_workers(),
                                 dense=cfg.dense_oracle)
    with contextlib.closing(blocks):
        hist = accumulate_histogram(blocks, bin_count=cfg.bins)
    try:
        fitted = fit_alpha_from_histogram(hist)
    except InsufficientDataError:
        fitted = None
    columns = {
        "bin_left": hist.edges[:-1],
        "bin_right": hist.edges[1:],
        "count": hist.counts,
        "density": hist.densities,
    }
    return columns, {"sample_count": hist.sample_count, "fit_alpha": fitted}


def _cmd_study(cfg):
    report = run_study(cfg.beta, cfg.n, cfg.replicates, cfg.seed, workers=_workers(),
                       dense=cfg.dense_oracle)
    eigen = report.eigen
    columns = {
        "beta": [report.beta] * 3,
        "statistic": ["d", "alpha", "variance"],
        "eigen_estimate": [eigen.d_est, eigen.alpha_est, eigen.var_est],
        "measured_mean": [report.mean_d, report.mean_alpha, report.mean_var],
        "measured_cv": [report.cv_d, report.cv_alpha, report.cv_var],
    }
    return columns, asdict(eigen)


_HANDLERS = {
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "eigen": _cmd_eigen,
    "hist": _cmd_hist,
    "study": _cmd_study,
}


def _row_chunks(columns):
    """The columns of a ``{name: array or list}`` dict as arrays, sliced
    into at most ``CSV_CHUNK_ROWS`` rows at a time."""
    arrays = [np.asarray(values) for values in columns.values()]
    for start in range(0, len(arrays[0]), CSV_CHUNK_ROWS):
        yield [a[start:start + CSV_CHUNK_ROWS] for a in arrays]


def _workers():
    """Threads that render CSV chunks, and processes that draw the
    replicates of ``study`` and ``hist``: two where this process may run on
    at least two CPUs (its affinity mask, else ``os.cpu_count()``), else
    one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def csv_chunks(columns):
    """Yield the CSV header line, then the rows of ``columns`` (a
    ``{name: array or list}`` dict of equal-length columns) as text, at most
    ``CSV_CHUNK_ROWS`` rows per chunk, in row order.

    Chunks render on ``_workers()`` threads, numpy's loops releasing
    the GIL, with at most ``threads + 1`` submitted ahead of the consumer;
    one thread, or one chunk, renders inline.  Closing the generator cancels
    the chunks not started and waits for the rest, and a chunk's exception
    is raised here unchanged."""
    yield ",".join(columns) + "\n"
    rows = len(next(iter(columns.values())))
    threads = min(_workers(), -(-rows // CSV_CHUNK_ROWS))
    if threads < 2:
        yield from map(rows_text, _row_chunks(columns))
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(threads)
    window = collections.deque()
    try:
        for chunk in _row_chunks(columns):
            window.append(pool.submit(rows_text, chunk))
            if len(window) > threads:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _json_rows(columns):
    """Yield the rows of ``columns`` as the JSON array ``json.dumps(...,
    indent=2)`` writes one level deep, at most ``CSV_CHUNK_ROWS`` rows per
    chunk."""
    yield "["
    for i, chunk in enumerate(_row_chunks(columns)):
        rows = json.dumps(list(zip(*(a.tolist() for a in chunk))), indent=2, allow_nan=False)
        # Without its brackets, indented one level deeper.
        yield ("," if i else "") + rows[1:-2].replace("\n", "\n  ")
    yield "\n  ]"


@contextlib.contextmanager
def _open_output(output):
    """The text stream to write ``output`` through.  A regular file (or a
    path not there yet) is written to a new file beside it, which replaces
    it once complete and closed and is removed if anything fails first;
    ``-`` and any other existing target are written directly."""
    if output == "-":
        yield sys.stdout
        return
    try:
        regular = stat.S_ISREG(os.stat(output).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(output, "w", encoding="utf-8", newline="") as out:
            yield out
        return
    head, tail = os.path.split(output)
    temporary = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        # 0o666 less the umask, the mode open(output, "w") gives a new file.
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, output) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            yield out
        os.replace(temporary, output)
    except BaseException:
        os.unlink(temporary)
        raise


def render(cfg):
    """Run one configured command and write its output to ``cfg.output``.

    The command runs before the destination is opened, and a regular output
    file is replaced only once completely written, so a command or a write
    that fails, or an interrupt, leaves an existing output file untouched.
    The new file takes the mode ``open(path, "w")`` gives a new file, and a
    symlink at the path is replaced, not followed.  Rows are formatted and
    written ``CSV_CHUNK_ROWS`` at a time, in row order: CSV chunks on
    ``_workers()`` threads, at most ``threads + 1`` of them ahead of
    the write, and JSON on this thread.  Every write goes through ``_emit``
    on this thread, and no render thread outlives the call, whether it
    returns or raises.  An undefined (non-finite) summary value is written
    as ``null``; any other non-finite value is an error rather than invalid
    JSON, raised before anything is written."""
    columns, summary = _HANDLERS[cfg.command](cfg)
    meta = _metadata(cfg)
    if summary is not None:
        summary = {k: None if isinstance(v, float) and not math.isfinite(v) else v
                   for k, v in summary.items()}
    if cfg.format == "json":
        columns = {name: np.asarray(values) for name, values in columns.items()}
        for name, values in columns.items():
            if values.dtype.kind == "f" and not np.isfinite(values).all():
                raise ValueError(f"column {name!r} holds a non-finite value, "
                                 "which JSON cannot represent")
        payload = {"meta": meta, "columns": list(columns), "rows": []}
        if summary is not None:
            payload["summary"] = summary
        head, tail = json.dumps(payload, indent=2, allow_nan=False).split('"rows": []')
        body = _json_rows(columns)
        chunks = itertools.chain([head + '"rows": '], body, [tail + "\n"])
    else:
        head = "# " + json.dumps(meta, allow_nan=False) + "\n"
        if summary is not None:
            head += "# summary " + json.dumps(summary, allow_nan=False) + "\n"
        body = csv_chunks(columns)
        chunks = itertools.chain([head], body)
    # Closing the body stops its render threads before a failed output is
    # removed and the error reaches main.
    with _open_output(cfg.output) as out, contextlib.closing(body):
        for text in chunks:
            _emit(text, out)


def _emit(text, out):
    """Write one piece of output text; every write goes through here."""
    out.write(text)


def main(argv=None):
    _malloc.keep_freed_blocks()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        render(config_from_args(args))
    except (LongmemError, ValueError, OSError, MemoryError, KeyboardInterrupt) as exc:
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n"
        )
        return 130 if isinstance(exc, KeyboardInterrupt) else 1
    return 0


def entry():
    """The exit status of :func:`main` on ``sys.argv``, run as a program
    (``python -m longmem`` and the ``longmem`` script).  The heap is frozen
    once main is done, argparse's SystemExit included, so that the
    interpreter's teardown does not scan the ~22k objects that numpy and the
    run left tracked (12 ms of ``eigen --n 200`` on a 2-core Xeon).  Every
    output is written and closed by then, and teardown still flushes
    stdout."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())
