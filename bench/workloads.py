"""Benchmark workloads and the checks every output must pass.

A workload is one ``python -m longmem`` command line at fixed (beta, n) and
replicate count; only the CLI seed varies between invocations.  Each output
is checked with properties that hold for any seed, and the output for the
CLI's default seed is also compared with a recorded SHA-256, which pins
the byte-identity contract (reruns, worker count, future rewrites of the
replicate engine and output layer must not change a single byte).

The checks use the library only for the operator itself (``build_model``)
and its analytic eigen report; the noise draw, the convolution at spot
rows, the cosine rescaling, the standardization and the histogram
normalization are recomputed here from their definitions.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Seed the CLI uses when --seed is not given; its outputs are pinned by digest.
DEFAULT_SEED = 5
GENERATOR = "pcg64-ziggurat"

# Rows of a `generate` output recomputed from definitions, besides the rows
# holding the minimum and maximum.
SPOT_ROWS = 16
# |cosvec| may exceed 1 only by rounding (the library's own tolerance).
COSINE_TOL = 1e-12
# FFT convolution against the defining sum, relative to the Cauchy-Schwarz
# bound ||row|| * ||epsilon|| on any entry of the series.
SERIES_TOL = 1e-10
DENSITY_TOL = 1e-9

HIST_BINS = 100
# The histogram's alpha fit reports null below this many pooled values.
MIN_FIT_SAMPLES = 10_000
GENERATE_COLUMNS = ["index", "epsilon", "series", "cosvec", "standardized"]
HIST_COLUMNS = ["bin_left", "bin_right", "count", "density"]
STUDY_COLUMNS = ["beta", "statistic", "eigen_estimate", "measured_mean", "measured_cv"]
STUDY_STATISTICS = [("d", "d_est"), ("alpha", "alpha_est"), ("variance", "var_est")]


class CheckFailed(Exception):
    """An output broke one of the properties it must have."""


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    """One CLI command line; ``replicates`` is 1 for ``generate``."""

    name: str
    command: str
    beta: float
    n: int
    replicates: int
    fmt: str

    def cli_args(self, seed):
        args = [self.command, "--beta", repr(self.beta), "--n", str(self.n)]
        if self.command != "generate":
            args += ["--replicates", str(self.replicates)]
        return args + ["--format", self.fmt, "--seed", str(seed)]

    @property
    def rn(self):
        # The frequency grid has odd length: n when n is odd, n + 1 otherwise.
        return self.n | 1

    @property
    def series_values(self):
        """Series values one invocation produces: replicates x rn."""
        return self.replicates * self.rn


# Why each workload was chosen is in BENCHMARK.json and NOTES.md.  n is
# fixed per workload because the FFT length is the property under test;
# beta is 2.2 because build_model fails at large n for high beta.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("study-many", "study", 2.2, 200, 20000, "json"),
        Workload("hist-wide", "hist", 2.2, 200000, 40, "csv"),
        Workload("generate-1m", "generate", 2.2, 999998, 1, "csv"),
    )
}


def largest_prime_factor(value):
    value = int(value)
    factor, largest = 2, 1
    while factor * factor <= value:
        while value % factor == 0:
            largest, value = factor, value // factor
        factor += 1
    return value if value > 1 else largest


def draw_epsilon(seed, rn):
    """The documented noise contract: PCG64 keyed by (seed, stream 0),
    ziggurat normals."""
    key = np.random.SeedSequence(entropy=int(seed), spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(key)).standard_normal(rn)


def load_golden():
    """Recorded digests of default-seed outputs, or {} for another numpy."""
    table = json.loads(GOLDEN_PATH.read_text())
    if table["numpy"] != np.__version__:
        return {}
    return table["digests"]


def golden_key(workload):
    return " ".join(workload.cli_args(DEFAULT_SEED))


class Checker:
    """Checks outputs of one workload against reference data built once.

    ``digests`` maps ``golden_key`` strings to SHA-256 hex digests; an
    output for the default seed whose key has a digest must match it.
    """

    def __init__(self, workload, digests):
        from longmem import __version__, build_model, eigen_report

        self.workload = workload
        self.version = __version__
        self.model = build_model(workload.beta, workload.n)
        self.report = eigen_report(self.model)
        self.digest = digests.get(golden_key(workload))
        _expect(self.model.rn == workload.rn, "model length differs from the workload's rn")
        self._row_norm = float(np.linalg.norm(self.model.first_row))

    def check(self, data, seed):
        """Raise CheckFailed (or a parse error) if ``data`` is not a correct
        output of this workload at CLI seed ``seed``."""
        if seed == DEFAULT_SEED and self.digest is not None:
            _expect(
                hashlib.sha256(data).hexdigest() == self.digest,
                "default-seed output differs from its recorded SHA-256",
            )
        _expect(data.endswith(b"\n"), "output does not end with a newline")
        getattr(self, "_check_" + self.workload.command)(data, seed)

    def _check_meta(self, meta, seed):
        w = self.workload
        expected = {
            "tool": "longmem", "version": self.version, "command": w.command,
            "beta": w.beta, "n": w.n, "rn": w.rn, "seed": seed,
            "dense_oracle": False, "generator": GENERATOR, "format": w.fmt,
        }
        if w.command != "generate":
            expected["replicates"] = w.replicates
        if w.command == "hist":
            expected["bins"] = HIST_BINS
        for key, value in expected.items():
            _expect(meta.get(key) == value, f"meta {key}={meta.get(key)!r}, expected {value!r}")

    def _check_study(self, data, seed):
        doc = json.loads(data)
        self._check_meta(doc["meta"], seed)
        _expect(doc["columns"] == STUDY_COLUMNS, f"columns {doc['columns']}")
        _expect(doc["summary"] == asdict(self.report), "summary differs from eigen_report")
        rows = doc["rows"]
        _expect(len(rows) == len(STUDY_STATISTICS), f"{len(rows)} rows")
        for row, (statistic, field) in zip(rows, STUDY_STATISTICS):
            beta, name, estimate, mean, cv = row
            _expect(beta == self.workload.beta and name == statistic, f"row {row}")
            _expect(estimate == getattr(self.report, field), f"{statistic} eigen_estimate {estimate!r}")
            _expect(math.isfinite(mean) and mean > 0, f"{statistic} measured_mean {mean!r}")
            _expect(math.isfinite(cv) and cv > 0, f"{statistic} measured_cv {cv!r}")

    def _check_hist(self, data, seed):
        w = self.workload
        lines = data.split(b"\n")[:-1]
        _expect(lines[0].startswith(b"# ") and lines[1].startswith(b"# summary "), "header")
        self._check_meta(json.loads(lines[0][2:]), seed)
        summary = json.loads(lines[1][len(b"# summary "):])
        _expect(lines[2].decode() == ",".join(HIST_COLUMNS), "columns")
        rows = [line.split(b",") for line in lines[3:]]
        _expect(len(rows) == HIST_BINS and all(len(r) == 4 for r in rows), "table shape")
        left = np.array([float(r[0]) for r in rows])
        right = np.array([float(r[1]) for r in rows])
        counts = np.array([int(r[2]) for r in rows])
        density = np.array([float(r[3]) for r in rows])
        edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
        _expect(np.array_equal(left, edges[:-1]) and np.array_equal(right, edges[1:]), "edges")
        # Standardization pins exactly one 0.0 and one 1.0 per replicate,
        # and the histogram drops both.
        expected_count = w.replicates * (w.rn - 2)
        _expect(summary["sample_count"] == expected_count,
                f"sample_count {summary['sample_count']}, expected {expected_count}")
        _expect(np.all(counts >= 0) and int(counts.sum()) == expected_count, "counts total")
        widths = right - left
        _expect(np.allclose(density, counts / (expected_count * widths), rtol=DENSITY_TOL, atol=0),
                "densities are not counts / (total * width)")
        _expect(abs(float(np.sum(density * widths)) - 1.0) <= DENSITY_TOL, "densities do not integrate to 1")
        centers = 0.5 * (left + right)
        variance = min(float(np.sum(density * widths * (centers - 0.5) ** 2)), 0.25)
        fit = summary["fit_alpha"]
        if expected_count < MIN_FIT_SAMPLES:
            _expect(fit is None, f"fit_alpha {fit!r} from too few samples")
        else:
            _expect(isinstance(fit, float)
                    and math.isclose(fit, 1.0 / (8.0 * variance) - 0.5, rel_tol=DENSITY_TOL),
                    f"fit_alpha {fit!r}")

    def _check_generate(self, data, seed):
        rn = self.workload.rn
        lines = data.split(b"\n")[:-1]
        _expect(lines[0].startswith(b"# "), "header")
        self._check_meta(json.loads(lines[0][2:]), seed)
        _expect(lines[1].decode() == ",".join(GENERATE_COLUMNS), "columns")
        rows = lines[2:]
        _expect(len(rows) == rn, f"{len(rows)} rows, expected {rn}")
        standardized = np.array([row.rpartition(b",")[2] for row in rows], dtype=float)
        _expect(standardized.min() == 0.0 and standardized.max() == 1.0,
                "standardized does not span exactly [0, 1]")
        lo_row, hi_row = int(standardized.argmin()), int(standardized.argmax())
        spots = np.random.default_rng(seed).choice(rn, size=min(SPOT_ROWS, rn), replace=False)
        cells = {}
        for i in sorted({lo_row, hi_row, *spots.tolist()}):
            fields = rows[i].split(b",")
            _expect(len(fields) == 5 and int(fields[0]) == i, f"row {i} index")
            cells[i] = [float(x) for x in fields[1:]]
        epsilon = draw_epsilon(seed, rn)
        norms = self._row_norm * float(np.linalg.norm(epsilon))
        row = self.model.first_row
        lo, hi = cells[lo_row][2], cells[hi_row][2]
        offsets = np.arange(rn)
        for i, (eps_i, series_i, cos_i, std_i) in cells.items():
            _expect(eps_i == epsilon[i], f"row {i} epsilon differs from stream (seed, 0)")
            direct = float(row[(i - offsets) % rn] @ epsilon)
            _expect(abs(series_i - direct) <= SERIES_TOL * norms,
                    f"row {i} series {series_i!r} vs circular sum {direct!r}")
            _expect(cos_i == series_i / norms, f"row {i} cosvec is not series / norms")
            _expect(abs(cos_i) <= 1.0 + COSINE_TOL, f"row {i} |cosvec| > 1")
            _expect(std_i == (cos_i - lo) / (hi - lo), f"row {i} standardized")
            _expect(standardized[i] == std_i, f"row {i} standardized column")
