"""Memory: the CLI's allocator setting, the trim a split run makes before
it forks, and the peaks the model's transforms and a CSV chunk take.

``cli.main`` has glibc's malloc keep freed blocks under 4 MiB mapped, so a
replicate block reuses the previous block's transform buffers instead of
page-faulting them in again; a split run returns that free heap before it
forks, so its children do not inherit it."""

import operator
import platform
import subprocess
import sys
import tracemalloc
import types

import pytest
from conftest import child_env, split_small_runs

from longmem import RngStream, _csv, _malloc, build_model, cli, generate, montecarlo, sampler

GLIBC = platform.libc_ver()[0] == "glibc"

# One padded real transform pair at hist's rn = 200001 (L = 405000), once to
# warm up and five more counted; prints the minor faults of the five.
PAIRS = """
import resource
import numpy as np
from longmem import _malloc
_malloc.keep_freed_blocks()
x = np.ones((1, 200001))
def pair():
    np.fft.irfft(np.fft.rfft(x, 405000, axis=1), 405000, axis=1)
pair()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    pair()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not GLIBC, reason="the setting is glibc's mallopt")
def test_transform_buffers_are_not_faulted_in_again():
    # A child process, since the setting holds for the life of the process;
    # without it the five pairs fault about 22,600 pages in again.
    result = subprocess.run([sys.executable, "-c", PAIRS], capture_output=True, text=True,
                            env=child_env())
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 500


@pytest.mark.block_budget(100_000)
def test_missing_mallopt_changes_nothing(monkeypatch, capsys):
    # hist on one process, then split over two children after the trim.
    runs = [["hist", "--beta", "2.2", "--n", "21", "--replicates", "3"],
            ["hist", "--beta", "2.2", "--n", "200", "--replicates", "100"]]
    forks = split_small_runs(monkeypatch)
    monkeypatch.setattr(cli, "_workers", lambda: 2)
    expected = []
    for argv in runs:
        assert cli.main(argv) == 0
        expected.append(capsys.readouterr().out)
    looked_up = []

    def no_symbols(name):
        looked_up.append(name)
        return types.SimpleNamespace()

    monkeypatch.setattr(_malloc.ctypes, "CDLL", no_symbols)
    for argv, out in zip(runs, expected):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (out, "")
    # mallopt in each run, malloc_trim in the split one.
    assert looked_up == [None] * 3
    assert len(forks) == 4


# A hist run in a fresh interpreter that prints, in order, each model build,
# trim and fork of this process; a trim also prints whether numpy.random is
# imported yet.  The arguments are the shard size in series values and the
# block budget.
TRIM_ORDER = """
import os, sys
from longmem import _malloc, cli, montecarlo, sampler
montecarlo.MIN_SHARD_VALUES, sampler.CHUNK_BYTES = map(int, sys.argv[1:])
cli._workers = lambda: 2
events, build, fork = [], montecarlo.build_model, os.fork

def built(*args, **kwargs):
    events.append("build")
    return build(*args, **kwargs)

def forked():
    pid = fork()
    if pid:
        events.append("fork")
    return pid

montecarlo.build_model, os.fork = built, forked
_malloc.trim = lambda: events.append(f"trim {'numpy.random' in sys.modules}")
code = cli.main(["hist", "--beta", "2.2", "--n", "200", "--replicates", "100",
                 "--output", os.devnull])
print(code, *events)
"""


@pytest.mark.block_budget(100_000)
@pytest.mark.parametrize("shard, events", [
    (1, "0 build trim False fork fork"),
    (montecarlo.MIN_SHARD_VALUES, "0 build"),
])
def test_split_run_trims_once_before_it_forks(shard, events, block_budget):
    result = subprocess.run([sys.executable, "-c", TRIM_ORDER, str(shard), str(block_budget)],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == events.split()


# tracemalloc's peak, in bytes a point, of each call at rn = 21021 = 3 x 7**2
# x 11 x 13, a complex-route length: about 48 while each transform holds one
# complex array, 64 with two or three.
@pytest.mark.parametrize("call", [
    lambda: build_model(2.2, 21020),
    lambda: generate(build_model(2.2, 21020), RngStream(5, 0)),
], ids=["build_model", "generate"])
def test_transform_peak_per_point(call):
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 21021 < 52


# tracemalloc's peak, over the budget, of one full engine block at rn = 201
# reduced to study's or hist's payload: about 2.0 and 2.1 budgets.  The
# block's complex transform takes one budget and its noise half a budget.
# The noise is freed once the block is checked, so hist's cosine and
# standardized rows, half a budget each, take its place; a block that kept
# its noise measured 2.6 budgets in hist.
@pytest.mark.parametrize("payload, bound", [
    (montecarlo._measurements, 2.25),
    (operator.attrgetter("standardized"), 2.25),
], ids=["study", "hist"])
def test_block_peak_per_budget(payload, bound):
    model = build_model(2.2, 200)
    rows = sampler.block_rows(model.rn)

    def call():
        payload(next(sampler.replicate_blocks(model, 5, rows)))

    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / sampler.CHUNK_BYTES < bound


def test_csv_chunk_peak_per_row():
    # tracemalloc's peak, in bytes a row, of rendering one full CSV chunk of
    # generate's five columns: the bound cli.CSV_CHUNK_ROWS's comment gives.
    # The float stage's temporaries are freed or reused as it goes.
    config = types.SimpleNamespace(beta=2.2, n=cli.CSV_CHUNK_ROWS, seed=5, dense_oracle=False)
    columns, _ = cli._cmd_generate(config)
    chunk = next(cli._row_chunks(columns))
    assert len(chunk[0]) == cli.CSV_CHUNK_ROWS
    _csv.rows_text(chunk)
    tracemalloc.start()
    try:
        _csv.rows_text(chunk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / cli.CSV_CHUNK_ROWS < 390
