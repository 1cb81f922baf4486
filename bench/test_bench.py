"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Every workload shape must pass its checks on real CLI output for any
seed, and a corrupted output must fail a check and be counted as a failed
attempt, never pass silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
from workloads import DEFAULT_SEED, WORKLOADS, Checker, CheckFailed, Workload, golden_key

TINY = {
    "study": Workload("tiny-study", "study", 2.2, 200, 30, "json"),
    "hist": Workload("tiny-hist", "hist", 2.2, 200, 60, "csv"),
    "hist-unfit": Workload("tiny-hist-unfit", "hist", 10.0, 41, 3, "csv"),
    "generate": Workload("tiny-generate", "generate", 2.2, 1000, 1, "csv"),
}
SEEDS = [DEFAULT_SEED, 7, 2**32 - 1]


def cli_output(workload, seed):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    env.pop("LONGMEM_WORKERS", None)
    return subprocess.run([sys.executable, "-m", "longmem", *workload.cli_args(seed)],
                          env=env, capture_output=True, check=True).stdout


@pytest.fixture(scope="module")
def outputs():
    return {(key, seed): cli_output(w, seed) for key, w in TINY.items() for seed in SEEDS}


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def failing(checker, data, seed):
    """True when the check rejects ``data``, by CheckFailed or a parse error."""
    try:
        checker.check(data, seed)
    except Exception:
        return True
    return False


@pytest.mark.parametrize("key", sorted(TINY))
@pytest.mark.parametrize("seed", SEEDS)
def test_tiny_workloads_pass_their_checks(outputs, key, seed):
    Checker(TINY[key], {}).check(outputs[key, seed], seed)


@pytest.mark.parametrize("key", sorted(TINY))
def test_flipped_byte_in_default_seed_output_fails(outputs, key):
    data = outputs[key, DEFAULT_SEED]
    digest = hashlib.sha256(data).hexdigest()
    checker = Checker(TINY[key], {golden_key(TINY[key]): digest})
    checker.check(data, DEFAULT_SEED)
    positions = np.random.default_rng(0).choice(len(data), size=min(len(data), 300), replace=False)
    for position in positions:
        corrupted = bytearray(data)
        corrupted[position] ^= 0x01
        assert failing(checker, bytes(corrupted), DEFAULT_SEED), f"byte {position} flip passed"


def replace_once(data, old, new):
    assert data.count(old) >= 1
    return data.replace(old, new, 1)


def test_wrong_sample_count_fails(outputs):
    data = outputs["hist", 7]
    count = 60 * 199
    corrupted = replace_once(data, b'"sample_count": %d' % count, b'"sample_count": %d' % (count - 1))
    with pytest.raises(CheckFailed, match="sample_count"):
        Checker(TINY["hist"], {}).check(corrupted, 7)


def test_moved_histogram_count_fails(outputs):
    lines = outputs["hist", 7].split(b"\n")
    first, second = lines[3].split(b","), lines[4].split(b",")
    first[2] = b"%d" % (int(first[2]) + 1)
    second[2] = b"%d" % (int(second[2]) - 1)
    lines[3], lines[4] = b",".join(first), b",".join(second)
    with pytest.raises(CheckFailed, match="densities"):
        Checker(TINY["hist"], {}).check(b"\n".join(lines), 7)


def test_perturbed_study_estimate_fails(outputs):
    doc = json.loads(outputs["study", 7])
    doc["rows"][1][2] = float(np.nextafter(doc["rows"][1][2], 0.0))
    with pytest.raises(CheckFailed, match="alpha eigen_estimate"):
        Checker(TINY["study"], {}).check(json.dumps(doc, indent=2).encode() + b"\n", 7)


def test_nonfinite_study_cv_fails(outputs):
    doc = json.loads(outputs["study", 7])
    doc["rows"][2][4] = float("nan")
    with pytest.raises(CheckFailed, match="measured_cv"):
        Checker(TINY["study"], {}).check(json.dumps(doc, indent=2).encode() + b"\n", 7)


def generate_rows(data):
    lines = data.split(b"\n")
    return lines[:2], [line.split(b",") for line in lines[2:-1]]


def join_rows(header, rows):
    return b"\n".join(header + [b",".join(r) for r in rows]) + b"\n"


def test_generate_wrong_noise_fails(outputs):
    header, rows = generate_rows(outputs["generate", 7])
    for r in rows:
        r[1] = r[1][1:] if r[1].startswith(b"-") else b"-" + r[1]
    with pytest.raises(CheckFailed, match="epsilon"):
        Checker(TINY["generate"], {}).check(join_rows(header, rows), 7)


def test_generate_standardized_off_range_fails(outputs):
    header, rows = generate_rows(outputs["generate", 7])
    top = next(r for r in rows if r[4] == b"1")
    top[4] = b"0.99999999999999989"
    with pytest.raises(CheckFailed, match="span exactly"):
        Checker(TINY["generate"], {}).check(join_rows(header, rows), 7)


def test_generate_inconsistent_cosine_fails(outputs):
    header, rows = generate_rows(outputs["generate", 7])
    top = next(r for r in rows if r[4] == b"1")
    top[3] = repr(float(top[3]) * (1 + 1e-9)).encode()
    with pytest.raises(CheckFailed):
        Checker(TINY["generate"], {}).check(join_rows(header, rows), 7)


def test_truncated_generate_fails(outputs):
    data = outputs["generate", 7]
    assert failing(Checker(TINY["generate"], {}), data[: data.rindex(b"\n", 0, -1) + 1], 7)


def test_corrupted_output_counts_as_failed_attempt(work):
    # A wrong recorded digest makes the default-seed invocation fail its check.
    workload = TINY["hist"]
    checker = Checker(workload, {golden_key(workload): "0" * 64})
    runner = run.Runner(time.monotonic() + 120)
    metrics, _, samples = run.run_untraced(runner, checker, seed=3, seconds=0)
    invocations = samples["invocations"]
    assert len(invocations) == run.MIN_INVOCATIONS
    assert [s["ok"] for s in invocations] == [False] + [True] * (len(invocations) - 1)
    assert runner.attempted == run.SETUP_REPEATS + 1 + len(invocations)
    verdict = run.result(runner, metrics)
    assert verdict["correct"] is False and verdict["failed"] == 1
    assert set(verdict["metrics"]) == {m["name"] for m in run.SPEC["end_to_end"]}


@pytest.mark.parametrize("key", ["study", "hist", "generate"])
def test_traced_run_reports_every_layer(work, key):
    workload = TINY[key]
    runner = run.Runner(time.monotonic() + 120)
    metrics, _, _ = run.run_traced(runner, Checker(workload, {}), seed=3, seconds=0,
                                   study=TINY["study"])
    assert runner.failures == []
    assert set(metrics) == {m["name"] for m in run.SPEC["per_layer"]}
    expected_dropped = 2 * workload.replicates if key == "hist" else 0
    assert metrics["estimators.dropped_endpoints"] == expected_dropped
    assert metrics["dft.fft_len"] == workload.rn
    assert metrics["dft.convolve_calls"] == workload.replicates
    assert metrics["sampler.keying_calls"] == workload.replicates
    assert metrics["montecarlo.workers_speedup"] > 0


def test_declared_workloads_exist():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)


def test_tail_percentile_needs_ten_runs_beyond():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(11)) == (0.0, 0)
    assert run.tail_percentile(range(21)) == (50.0, 10)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hist-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
