"""The benchmark's tracer (``bench/tracer.py``) wraps longmem's functions by
patching about twenty module attributes by name.  Installing it must find
every one of them, or the traced benchmark run fails before it starts."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_finds_every_name_it_patches():
    # A child process, since installing patches longmem's modules for good;
    # -B keeps it from writing bytecode into bench/
    result = subprocess.run(
        [sys.executable, "-B", "-c", "from tracer import Tracer; Tracer().install()"],
        capture_output=True, text=True, cwd=BENCH, env=child_env(),
    )
    assert result.returncode == 0, result.stderr
