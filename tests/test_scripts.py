"""Experiment scripts share the command line's flag types: a value the
library would reject is a usage error (exit 2), not a traceback.  On valid
flags they run to completion: the shape gallery writes and prints what
``longmem hist`` reports, and the reference tables print what ``longmem
spectrum`` and ``longmem study`` report."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load_script(name):
    """Import a script as a module, without running its ``main``."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(*argv, cwd=None):
    """Run ``python ARGV...`` with the checkout's ``src`` first on PYTHONPATH."""
    return subprocess.run(
        [sys.executable, *map(str, argv)], capture_output=True, text=True, cwd=cwd, env=child_env()
    )


@pytest.mark.parametrize(
    "script, args",
    [
        ("shape_gallery.py", ["--bins", "1"]),
        ("shape_gallery.py", ["--seed", "-1"]),
        ("shape_gallery.py", ["--n", "1"]),
        ("reproduce_tables.py", ["--replicates", "1"]),
        ("reproduce_tables.py", ["--seed", "-1"]),
        ("reproduce_tables.py", ["--n", "1"]),
        ("shape_gallery.py", ["--replicates", "0"]),
    ],
)
def test_rejected_values_are_usage_errors(script, args, tmp_path):
    # run outside the checkout, so a script that wrongly starts writes nothing here
    result = _run(SCRIPTS / script, *args, cwd=tmp_path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_gallery_csv_matches_hist_command(tmp_path):
    # the gallery's beta = 10 CSV is the body of `hist` at the same settings
    result = _run(SCRIPTS / "shape_gallery.py", "--outdir", tmp_path,
                  "--replicates", "30", "--n", "40", "--bins", "10")
    assert result.returncode == 0
    golden = ROOT / "tests" / "golden" / "hist_beta10_n40_r30.csv"
    body = golden.read_text().split("\n", 2)[2]
    assert (tmp_path / "hist_beta10.csv").read_text() == body


def test_gallery_fitted_alpha_matches_hist_summary(tmp_path):
    # 60 replicates at n = 200 pool 11940 samples, enough for a fit
    settings = ["--replicates", "60", "--n", "200", "--bins", "10"]
    gallery = _run(SCRIPTS / "shape_gallery.py", "--outdir", tmp_path, *settings)
    hist = _run("-m", "longmem", "hist", "--beta", "10", *settings)
    assert gallery.returncode == 0 and hist.returncode == 0
    summary = json.loads(hist.stdout.splitlines()[1].removeprefix("# summary "))
    assert summary["fit_alpha"] is not None
    assert f"beta 10: fitted alpha {summary['fit_alpha']:.3f}  " in gallery.stdout


def test_reproduce_tables_prints_three_tables(tmp_path):
    result = _run(SCRIPTS / "reproduce_tables.py", "--n", "20", "--replicates", "4", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for heading in (
        "Operator first rows at n = 5",
        "Eigenvalue estimates at n = 20",
        "Measured statistics: n = 20, 4 replicates, seed 5",
    ):
        assert heading in result.stdout
    # the tables are the command line's numbers, in the script's own format
    lines = result.stdout.splitlines()
    tables = _load_script("reproduce_tables.py")
    study = json.loads(_run("-m", "longmem", "study", "--beta", "2.2", "--n", "20",
                            "--replicates", "4", "--format", "json").stdout)
    columns = dict(zip(study["columns"], zip(*study["rows"])))
    assert tables.estimate_line(2.2, study["summary"]) in lines
    for line in tables.measured_lines(2.2, columns):
        assert line in lines
    spectrum = json.loads(_run("-m", "longmem", "spectrum", "--beta", "2.2", "--n", "5",
                               "--format", "json").stdout)
    first_row = [row[spectrum["columns"].index("first_row")] for row in spectrum["rows"]]
    assert "  beta  2.2: " + " ".join(f"{v:10.3f}" for v in first_row) in lines
