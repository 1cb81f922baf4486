"""Child processes of the benchmark that are not CLI invocations.

``python bench/probe.py setup BETA N``
    What every run pays before its first replicate: import the CLI, build
    the model and its eigen report.  The parent times the whole process;
    the probe prints the time of each stage as JSON.

``python bench/probe.py workers BETA N REPLICATES SEED WORKERS``
    Times ``run_study`` at ``workers=1`` and at ``workers=WORKERS`` and
    prints both as JSON.  Exits 1 if the two reports differ in any field,
    since results must not depend on the worker count.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import fields


def setup(beta, n):
    start = time.perf_counter()
    import longmem.cli  # noqa: F401  (the import is part of the cost)
    from longmem.spectral import build_model, eigen_report

    imported = time.perf_counter()
    model = build_model(float(beta), int(n))
    built = time.perf_counter()
    eigen_report(model)
    done = time.perf_counter()
    print(json.dumps({"cli.import_s": imported - start, "spectral.build_model_s": built - imported,
                      "spectral.eigen_report_s": done - built}))
    return 0


def workers(beta, n, replicates, seed, count):
    from longmem.montecarlo import run_study

    beta, n, replicates, seed, count = float(beta), int(n), int(replicates), int(seed), int(count)
    run_study(beta, n, 2, seed)  # warm-up: first-call costs stay out of both timings
    start = time.perf_counter()
    single = run_study(beta, n, replicates, seed, workers=1)
    single_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_study(beta, n, replicates, seed, workers=count)
    pooled_s = time.perf_counter() - start
    differ = [f.name for f in fields(single) if getattr(single, f.name) != getattr(pooled, f.name)]
    if differ:
        sys.stderr.write(f"workers=1 and workers={count} reports differ in {differ}\n")
        return 1
    print(json.dumps({"workers_1_s": single_s, "workers_nproc_s": pooled_s}))
    return 0


if __name__ == "__main__":
    command, *args = sys.argv[1:]
    sys.exit({"setup": setup, "workers": workers}[command](*args))
