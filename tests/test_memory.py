"""Memory: the CLI's allocator setting, the trim a split run makes before
it forks, and the peak the model's transforms take.

``cli.main`` has glibc's malloc keep freed blocks under 4 MiB mapped, so a
replicate block reuses the previous block's transform buffers instead of
page-faulting them in again; a split run returns that free heap before it
forks, so its children do not inherit it."""

import platform
import subprocess
import sys
import tracemalloc
import types

import pytest
from conftest import child_env, split_small_runs

from longmem import RngStream, _malloc, build_model, cli, generate, montecarlo

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
# imported yet.  The first argument is the shard size in series values.
TRIM_ORDER = """
import os, sys
from longmem import _malloc, cli, montecarlo
montecarlo.MIN_SHARD_VALUES = int(sys.argv[1])
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


@pytest.mark.parametrize("shard, events", [
    (1, "0 build trim False fork fork"),
    (montecarlo.MIN_SHARD_VALUES, "0 build"),
])
def test_split_run_trims_once_before_it_forks(shard, events):
    result = subprocess.run([sys.executable, "-c", TRIM_ORDER, str(shard)],
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
