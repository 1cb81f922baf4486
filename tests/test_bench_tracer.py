"""The benchmark's tracer (``bench/tracer.py``) wraps longmem's functions by
patching about twenty module attributes by name.  Installing it must find
every one of them, or the traced benchmark run fails before it starts; and
what it counts in this process must still see every value a split run
pools."""

import json
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


def test_traced_split_hist_pools_every_value(tmp_path):
    # 4000 replicates at rn = 201 are 804,000 values, two shards' worth: on
    # two CPUs the children draw them, and this process must still bin them
    # through cli.accumulate_histogram, where the tracer counts the two
    # endpoints each replicate drops.
    replicates = 4000
    args = ["hist", "--beta", "2.2", "--n", "200", "--replicates", str(replicates), "--seed", "5"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, "-B", str(BENCH / "tracer.py"), str(spans), *args],
                            capture_output=True, text=True, env=child_env())
    assert traced.returncode == 0, traced.stderr
    plain = subprocess.run([sys.executable, "-m", "longmem", *args],
                           capture_output=True, text=True, env=child_env())
    assert traced.stdout == plain.stdout
    summary = subprocess.run(
        [sys.executable, "-B", "-c", "import json, sys; from tracer import summarize; "
         "print(json.dumps(summarize(json.load(open(sys.argv[1])))))", str(spans)],
        capture_output=True, text=True, cwd=BENCH, env=child_env(),
    )
    assert summary.returncode == 0, summary.stderr
    assert json.loads(summary.stdout)["estimators.dropped_endpoints"] == 2 * replicates
