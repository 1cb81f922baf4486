"""Benchmark of the longmem command line, run as users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout: the program under test is ``src/longmem``,
started as ``python -m longmem`` in a fresh process per invocation.  The
load is a closed loop with one client: the next invocation starts only
after the previous one has exited and its output has been checked, so at
most one CLI process (single-threaded at the default ``--workers 1``) runs
at a time.

Invocations go on until ``S`` seconds have passed, at least three of
them.  The first uses the CLI's default seed 5 and its output is compared
with a recorded SHA-256; the others use CLI seeds drawn from ``--seed``.
Every output is checked (see workloads.py); an invocation fails if it
exits non-zero or its output fails a check.

``--trace 0`` prints the end-to-end metrics: median wall time of one
invocation from process start to exit, series values produced per second,
median peak RSS of the invocation's process, and set-up time (median of
fresh interpreters that import the CLI and build the model and its eigen
report).  ``--trace 1`` alternates untraced invocations with traced ones
(bench/tracer.py) on the same CLI seeds, and prints the per-layer metrics
of the traced ones, the tracing overhead and the worker-scaling probe.

The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
every sample and the machine description is written to
``.bench_work/record-*.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(SRC))

from tracer import median_summary, summarize  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    WORKLOADS,
    Checker,
    largest_prime_factor,
    load_golden,
)

SETUP_REPEATS = 5
MIN_INVOCATIONS = 3
MIN_TRACED_PAIRS = 2
# Every run must exit within 180 s; children still running at this point
# are killed and counted as failed.
RUN_DEADLINE_S = 165.0
# Highest percentile of wall time reported must have this many runs beyond it.
TAIL_RUNS = 10

NOISE_NOTE = (
    "Timings are noisy: the machine is shared, and the benchmark cannot pin "
    "CPUs, isolate cores or drop the page cache."
)

# Metric names and units are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass(frozen=True)
class Invocation:
    """One finished child process."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


class Runner:
    """Starts child processes one at a time and accounts for them."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "LONGMEM_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failures = []

    def spawn(self, args, stdout_path):
        """Run ``python args...`` to completion; stdout goes to a file."""
        err_path = WORK / "stderr.txt"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return Invocation(wall_s, usage.ru_maxrss / 1024.0, proc.returncode,
                          err_path.read_text(errors="replace").strip())

    def record(self, label, problem):
        """Count one attempt; ``problem`` is None when it succeeded."""
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def time_left(self):
        return self.deadline - time.monotonic()


def cli_seeds(seed):
    """Default seed first, then seeds drawn from the workload seed."""
    yield DEFAULT_SEED
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**32)


def invoke(runner, checker, cli_seed, trace_path=None):
    """One CLI invocation and its checks; returns (Invocation, output, problem)."""
    args = checker.workload.cli_args(cli_seed)
    if trace_path is None:
        args = ["-m", "longmem", *args]
    else:
        args = [str(BENCH / "tracer.py"), str(trace_path), *args]
    out_path = WORK / "output.bin"
    inv = runner.spawn(args, out_path)
    data = out_path.read_bytes()
    out_path.unlink()
    if inv.returncode != 0:
        return inv, data, f"exit {inv.returncode}: {inv.stderr[-300:]}"
    try:
        checker.check(data, cli_seed)
    except Exception as exc:  # any parse error of a corrupted output is a failed check
        return inv, data, f"{type(exc).__name__}: {exc}"
    return inv, data, None


def measure_setup(runner, workload, repeats):
    """Fresh interpreters paying the set-up cost, after one untimed warm-up
    that fills the page cache: their wall times and their stage times."""
    walls, stages = [], []
    out_path = WORK / "probe.out"
    for i in range(repeats + 1):
        inv = runner.spawn([str(BENCH / "probe.py"), "setup", repr(workload.beta), str(workload.n)],
                           out_path)
        ok = inv.returncode == 0
        runner.record(f"setup probe {i}", None if ok else inv.stderr[-300:])
        if i and ok:
            walls.append(inv.wall_s)
            stages.append(json.loads(out_path.read_text()))
    return walls, stages


def tail_percentile(values):
    """Highest percentile with at least TAIL_RUNS values beyond it, or None."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_RUNS
    if k < 0:
        return None
    return 100.0 * k / (len(ordered) - 1), ordered[k]


def cycles(runner, seconds, minimum):
    """Count loop cycles until the next one would end after ``seconds``, or
    too close to the run deadline; at least ``minimum`` when time allows."""
    start = time.perf_counter()
    count, last = 0, 0.0
    while count == 0 or (runner.time_left() >= 2 * last and (
            count < minimum or time.perf_counter() - start + last <= seconds)):
        cycle_start = time.perf_counter()
        yield count
        count += 1
        last = time.perf_counter() - cycle_start


def run_untraced(runner, checker, seed, seconds):
    w = checker.workload
    setup, _ = measure_setup(runner, w, SETUP_REPEATS)
    samples = []
    for _, cli_seed in zip(cycles(runner, seconds, MIN_INVOCATIONS), cli_seeds(seed)):
        inv, _, problem = invoke(runner, checker, cli_seed)
        runner.record(f"seed {cli_seed}", problem)
        samples.append({"cli_seed": cli_seed, "wall_s": inv.wall_s,
                        "peak_rss_mb": inv.peak_rss_mb, "ok": problem is None})
    walls = [s["wall_s"] for s in samples]
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "samples_per_s": w.series_values / wall_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setup),
    }
    tail = tail_percentile(walls)
    fail_rate = len(runner.failures) / runner.attempted
    lines = [
        f"wall_s        {wall_s:.4f} s median of {len(walls)} invocations; "
        + (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
           f"no percentile has {TAIL_RUNS} runs beyond it at {len(walls)} runs"),
        f"samples_per_s {metrics['samples_per_s']:.1f} 1/s "
        f"({w.replicates} replicates x rn {w.rn} / wall_s)",
        f"peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB median over invocations",
        f"setup_s       {metrics['setup_s']:.4f} s median of {len(setup)} fresh interpreters",
        f"fail_rate     {fail_rate:.4f} ({len(runner.failures)} failed / {runner.attempted} attempted)",
    ]
    return metrics, lines, {"invocations": samples, "setup_s": setup}


def run_traced(runner, checker, seed, seconds, study=WORKLOADS["study-many"]):
    """Traced run; the worker-scaling probe runs ``study``'s problem."""
    w = checker.workload
    nproc = os.cpu_count() or 1
    _, setup_stages = measure_setup(runner, w, SETUP_REPEATS)
    probe = runner.spawn([str(BENCH / "probe.py"), "workers", repr(study.beta), str(study.n),
                          str(study.replicates), str(seed), str(nproc)], WORK / "probe.out")
    probe_ok = probe.returncode == 0
    runner.record("workers probe", None if probe_ok else probe.stderr[-300:])
    workers = json.loads((WORK / "probe.out").read_text()) if probe_ok else None

    pairs = []
    trace_path = WORK / "spans.json"
    for _, cli_seed in zip(cycles(runner, seconds, MIN_TRACED_PAIRS), cli_seeds(seed)):
        plain, plain_out, problem = invoke(runner, checker, cli_seed)
        runner.record(f"seed {cli_seed}", problem)
        traced, traced_out, problem = invoke(runner, checker, cli_seed, trace_path)
        summary = None
        if problem is None and traced_out != plain_out:
            problem = "traced output differs from untraced output"
        if problem is None:
            summary = summarize(json.loads(trace_path.read_text()))
            dropped = summary["estimators.dropped_endpoints"]
            expected = 2 * w.replicates if w.command == "hist" else 0
            if dropped != expected:
                problem = f"dropped {dropped} histogram endpoints, expected {expected}"
        runner.record(f"traced seed {cli_seed}", problem)
        pairs.append({"cli_seed": cli_seed, "untraced_wall_s": plain.wall_s,
                      "traced_wall_s": traced.wall_s, "layers": summary})
    summaries = [p["layers"] for p in pairs if p["layers"] is not None]
    metrics = median_summary(summaries) if summaries else {}
    if setup_stages:
        metrics.update(median_summary(setup_stages))
    if workers is not None:
        metrics["montecarlo.workers_1_s"] = workers["workers_1_s"]
        metrics["montecarlo.workers_nproc_s"] = workers["workers_nproc_s"]
        metrics["montecarlo.workers_speedup"] = workers["workers_1_s"] / workers["workers_nproc_s"]
    metrics["trace.overhead_s"] = (statistics.median(p["traced_wall_s"] for p in pairs)
                                   - statistics.median(p["untraced_wall_s"] for p in pairs))
    lines = [f"{name:36s} {value:.6g} {UNITS[name]}" for name, value in metrics.items()]
    if workers is not None:
        lines.append(
            f"workers_speedup base: run_study({study.beta}, {study.n}, {study.replicates}) "
            f"{workers['workers_1_s']:.4f} s at workers=1 / {workers['workers_nproc_s']:.4f} s "
            f"at workers={nproc}")
    return metrics, lines, {"pairs": pairs, "workers_probe": workers, "setup_stages": setup_stages}


def git_sha():
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "longmem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    return {"cpu_model": cpu, "caches": caches, "nproc": os.cpu_count()}


def run_record(args, checker):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **machine(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "default_seed_digest": checker.digest,
        "fft_lengths": {w.name: {"rn": w.rn, "largest_prime_factor": largest_prime_factor(w.rn)}
                        for w in WORKLOADS.values()},
        "note": NOISE_NOTE,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "longmem" / "cli.py").is_file():
        sys.stderr.write(f"no longmem sources under {SRC}; run from a source checkout\n")
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, load_golden())
    runner = Runner(deadline)
    record = run_record(args, checker)
    print(f"{workload.name}: python -m longmem {' '.join(workload.cli_args('SEED'))} "
          f"(closed loop, 1 client, trace={args.trace})")
    print(f"machine: {record['cpu_model']}, nproc {record['nproc']}, "
          f"python {record['python']}, numpy {record['numpy']}, "
          f"rn {workload.rn} (largest prime factor {largest_prime_factor(workload.rn)})")
    print(NOISE_NOTE)
    if checker.digest is None:
        print("default-seed digest: none recorded for this numpy, byte identity unchecked")
    run = run_traced if args.trace else run_untraced
    metrics, lines, samples = run(runner, checker, args.seed, args.seconds)
    for line in lines:
        print(line)
    for failure in runner.failures:
        print("FAILED " + failure)
    record.update(samples, failures=runner.failures, metrics=metrics)
    record_path = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))
    print(f"run record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result(runner, metrics)))
    return 0


def result(runner, metrics):
    """The benchmark's verdict: every attempt and every metric with its unit."""
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
