"""Byte grid of the command line: a fixed grid of in-process ``cli.main``
invocations must reproduce the exit code, the SHA-256 of stdout and the
stderr text recorded in ``golden/cli_digests.json``.

The grid crosses every command with betas at both ends of the range and
near zero, lengths from the smallest to the reference size, both output
formats, both routes and both ends of the seed range, so a change that
should leave the output alone can show it does.  The digests hold for the
OpenBLAS thread count they were recorded with (2): the dense route's
eigenvalues at n = 200 follow that count.

Run as a script to re-record the golden file from the code on the path:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from longmem import cli

GOLDEN = Path(__file__).parent / "golden" / "cli_digests.json"

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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n")
