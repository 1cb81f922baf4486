"""The CLI's allocator setting: ``cli.main`` has glibc's malloc keep freed
blocks under 4 MiB mapped, so a replicate block reuses the previous block's
transform buffers instead of page-faulting them in again."""

import platform
import subprocess
import sys
import types

import pytest
from conftest import child_env

from longmem import cli

GLIBC = platform.libc_ver()[0] == "glibc"

# One padded real transform pair at hist's rn = 200001 (L = 405000), once to
# warm up and five more counted; prints the minor faults of the five.
PAIRS = """
import resource
import numpy as np
from longmem import cli
cli._keep_freed_blocks()
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
    argv = ["hist", "--beta", "2.2", "--n", "21", "--replicates", "3"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    looked_up = []

    def no_mallopt(name):
        looked_up.append(name)
        return types.SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", no_mallopt)
    assert cli.main(argv) == 0
    assert looked_up == [None]
    assert capsys.readouterr() == (expected, "")
