"""Byte grid of the command line: a fixed grid of in-process ``cli.main``
invocations must reproduce the exit code, the SHA-256 of stdout and the
stderr text recorded in ``golden/cli_digests.json``.

The grid crosses every command with betas at both ends of the range and
near zero, lengths from the smallest to the reference size, both output
formats, both routes and both ends of the seed range, so a change that
should leave the output alone can show it does.  Three more entries pin the
padded real-FFT convolution route at n = 1018 (rn = 1019 is prime).  Three
more invocations, the benchmark's 20000-replicate ``study-many``, its
40-replicate ``hist-wide`` at rn = 200001 and its million-row
``generate-1m`` CSV, are checked against the digests ``bench/golden.json``
records for them (read only, never written).

The digests hold for the OpenBLAS thread count they were recorded with,
2: the dense route's eigenvalues at n = 200 and ``generate``'s noise norm
(a BLAS dot whose summation split follows the count) change at one
thread.  The count is read when numpy loads, so every invocation runs in
one child process started with ``OPENBLAS_NUM_THREADS=2``, and the test
means the same on hosts with any number of cores.

Run as a script to re-record the golden file from the code on the path:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

from longmem import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
# The benchmark's recorded default-seed digests, read only.
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"
STUDY_MANY = "study --beta 2.2 --n 200 --replicates 20000 --format json --seed 5"
HIST_WIDE = "hist --beta 2.2 --n 200000 --replicates 40 --format csv --seed 5"
GENERATE_1M = "generate --beta 2.2 --n 999998 --format csv --seed 5"
BENCH_KEYS = {"study-many": STUDY_MANY, "hist-wide": HIST_WIDE, "generate-1m": GENERATE_1M}
# The OpenBLAS thread count the digests were recorded with.
THREADS = "2"

COMMANDS = ("generate", "spectrum", "eigen", "hist", "study")
BETAS = ("0", "0.001", "2.2", "10")
NS = ("2", "5", "40", "200")
FORMATS = ("csv", "json")
ROUTES = ((), ("--dense-oracle",))
SEEDS = ("5", "18446744073709551615")
REPLICATES = ("--replicates", "33")
# rn = 1019 takes the padded real-FFT route.
PADDED = (
    "generate --beta 2.2 --n 1018 --format csv --seed 5",
    "hist --beta 2.2 --n 1018 --format csv --seed 5 --replicates 33",
    "study --beta 2.2 --n 1018 --format json --seed 5 --replicates 33",
)


def grid():
    """Every invocation of the grid, as an argv list."""
    for command, beta, n, fmt, route, seed in itertools.product(
        COMMANDS, BETAS, NS, FORMATS, ROUTES, SEEDS
    ):
        argv = [command, "--beta", beta, "--n", n, "--format", fmt, "--seed", seed, *route]
        if command in ("hist", "study"):
            argv += REPLICATES
        yield argv
    for line in PADDED:
        yield line.split()


def invoke(argv):
    """Exit code, stdout digest and stderr of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
    }


def invoke_pinned(keys):
    """:func:`invoke` of each key (an argv joined by spaces), by key, all in
    one child process at ``THREADS`` OpenBLAS threads, importing ``longmem``
    from the checkout's ``src``."""
    result = subprocess.run([sys.executable, __file__, "--invoke"], input=json.dumps(keys),
                            capture_output=True, text=True,
                            env=child_env(OPENBLAS_NUM_THREADS=THREADS))
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def grid_keys():
    return [" ".join(argv) for argv in grid()]


@pytest.fixture(scope="module")
def observed():
    """Every invocation this module checks, run once: the grid, and the
    benchmark commands when ``bench/golden.json`` was recorded with this
    numpy."""
    keys = grid_keys()
    if json.loads(BENCH_GOLDEN.read_text())["numpy"] == np.__version__:
        keys += BENCH_KEYS.values()
    return invoke_pinned(keys)


def test_cli_bytes_match_golden(observed):
    golden = json.loads(GOLDEN.read_text())
    assert grid_keys() == list(golden)
    changed = [key for key in golden if observed[key] != golden[key]]
    assert not changed, f"{len(changed)} of {len(golden)} invocations changed, first: {changed[:3]}"


@pytest.mark.parametrize("key", BENCH_KEYS.values(), ids=BENCH_KEYS.keys())
def test_matches_bench_golden(key, observed):
    # study-many: 20000 replicates at n = 200 run 646 engine blocks; the grid
    # above reaches two.  hist-wide: 40 one-replicate blocks pooled at
    # rn = 200001, which takes the padded real-FFT route; its counts are the
    # complex route's, bin for bin.  generate-1m: a million CSV rows, 62
    # chunks of cells from the numpy renderer.
    bench = json.loads(BENCH_GOLDEN.read_text())
    if bench["numpy"] != np.__version__:
        pytest.skip(f"digest recorded with numpy {bench['numpy']}, running {np.__version__}")
    assert observed[key]["exit"] == 0, observed[key]["stderr"]
    assert observed[key]["stdout_sha256"] == bench["digests"][key]


if __name__ == "__main__":
    if sys.argv[1:] == ["--invoke"]:
        print(json.dumps({key: invoke(key.split()) for key in json.load(sys.stdin)}))
    else:
        GOLDEN.write_text(json.dumps(invoke_pinned(grid_keys()), indent=1) + "\n")
