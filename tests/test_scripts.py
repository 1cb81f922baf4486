"""Experiment scripts share the command line's flag types: a value the
library would reject is a usage error (exit 2), not a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("shape_gallery.py", ["--bins", "1"]),
        ("shape_gallery.py", ["--seed", "-1"]),
        ("shape_gallery.py", ["--n", "1"]),
        ("reproduce_tables.py", ["--replicates", "1"]),
        ("reproduce_tables.py", ["--seed", "-1"]),
        ("reproduce_tables.py", ["--n", "1"]),
    ],
)
def test_rejected_values_are_usage_errors(script, args, tmp_path):
    # run outside the checkout, so a script that wrongly starts writes nothing here
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_gallery_csv_matches_hist_command(tmp_path):
    # the gallery's beta = 10 CSV is the body of `hist` at the same settings
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "shape_gallery.py"), "--outdir", str(tmp_path),
         "--replicates", "30", "--n", "40", "--bins", "10"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    golden = ROOT / "tests" / "golden" / "hist_beta10_n40_r30.csv"
    body = golden.read_text().split("\n", 2)[2]
    assert (tmp_path / "hist_beta10.csv").read_text() == body
