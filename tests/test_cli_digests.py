"""Byte grid of the command line: a fixed grid of in-process ``cli.main``
invocations must reproduce the exit code, the SHA-256 of stdout and the
stderr text recorded in ``golden/cli_digests.json``.

The grid crosses every command with betas at both ends of the range and
near zero, lengths from the smallest to the reference size, both output
formats, both routes and both ends of the seed range, so a change that
should leave the output alone can show it does.  The digests hold for the
OpenBLAS thread count they were recorded with (2): the dense route's
eigenvalues at n = 200 follow that count.  Two more invocations, the
benchmark's 20000-replicate ``study-many`` and its million-row
``generate-1m`` CSV, are checked against the digests ``bench/golden.json``
records for them (read only, never written), with the same 2-thread
caveat: ``generate``'s noise norm is a BLAS dot whose summation split
follows the OpenBLAS thread count, so at one thread the generate-1m bytes
differ.

Run as a script to re-record the golden file from the code on the path:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from longmem import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"
# The benchmark's recorded default-seed digests, read only.
BENCH_GOLDEN = Path(__file__).parents[1] / "bench" / "golden.json"
STUDY_MANY = "study --beta 2.2 --n 200 --replicates 20000 --format json --seed 5"
GENERATE_1M = "generate --beta 2.2 --n 999998 --format csv --seed 5"

COMMANDS = ("generate", "spectrum", "eigen", "hist", "study")
BETAS = ("0", "0.001", "2.2", "10")
NS = ("2", "5", "40", "200")
FORMATS = ("csv", "json")
ROUTES = ((), ("--dense-oracle",))
SEEDS = ("5", "18446744073709551615")
REPLICATES = ("--replicates", "33")


def grid():
    """Every invocation of the grid, as an argv list."""
    for command, beta, n, fmt, route, seed in itertools.product(
        COMMANDS, BETAS, NS, FORMATS, ROUTES, SEEDS
    ):
        argv = [command, "--beta", beta, "--n", n, "--format", fmt, "--seed", seed, *route]
        if command in ("hist", "study"):
            argv += REPLICATES
        yield argv


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


def record():
    return {" ".join(argv): invoke(argv) for argv in grid()}


def test_cli_bytes_match_golden():
    golden = json.loads(GOLDEN.read_text())
    observed = record()
    assert list(observed) == list(golden)
    changed = [key for key in golden if observed[key] != golden[key]]
    assert not changed, f"{len(changed)} of {len(golden)} invocations changed, first: {changed[:3]}"


@pytest.mark.parametrize("key", [STUDY_MANY, GENERATE_1M], ids=["study-many", "generate-1m"])
def test_study_many_matches_bench_golden(key):
    # study-many: 20000 replicates at n = 200 run 646 engine blocks; the grid
    # above reaches two.  generate-1m: a million CSV rows, 62 chunks of cells
    # from the numpy renderer.
    bench = json.loads(BENCH_GOLDEN.read_text())
    if bench["numpy"] != np.__version__:
        pytest.skip(f"digest recorded with numpy {bench['numpy']}, running {np.__version__}")
    observed = invoke(key.split())
    assert observed["exit"] == 0, observed["stderr"]
    assert observed["stdout_sha256"] == bench["digests"][key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
