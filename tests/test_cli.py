"""End-to-end command line tests via subprocess."""

import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env, constant_rows, strict_json

import longmem
from longmem import cli, dft, sampler
from longmem.sampler import GENERATOR
from longmem.spectral import build_model, eigen_report

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "longmem", *args],
        capture_output=True,
        text=True,
        env=child_env(**(env_extra or {})),
    )


def parse_csv(text):
    """Split CSV output into (metadata dict, summary dict or None, columns,
    rows of floats-or-strings)."""
    lines = text.splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    summary = None
    body = lines[1:]
    if body[0].startswith("# summary "):
        summary = json.loads(body[0][len("# summary "):])
        body = body[1:]
    columns = body[0].split(",")
    rows = []
    for line in body[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return meta, summary, columns, rows


def main_stdout(capsys, *args):
    """Run the CLI in-process; return its stdout after a zero exit."""
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


def column(rows, columns, name):
    k = columns.index(name)
    return np.array([row[k] for row in rows])


class TestMetadataAndFormats:
    def test_metadata_first_line(self):
        result = run_cli("spectrum", "--beta", "2.2", "--n", "7")
        assert result.returncode == 0
        meta, _, _, _ = parse_csv(result.stdout)
        assert meta["tool"] == "longmem"
        assert meta["command"] == "spectrum"
        assert meta["beta"] == 2.2
        assert meta["n"] == 7
        assert meta["rn"] == 7
        assert meta["seed"] == 5
        assert meta["replicates"] == 500
        assert meta["bins"] == 100
        assert meta["workers"] == 1
        assert meta["dense_oracle"] is False
        assert meta["generator"] == GENERATOR
        assert "version" in meta

    @pytest.mark.filterwarnings(r"ignore:Support for `\[tool.setuptools\]` in `pyproject.toml`")
    def test_package_version_is_the_module_version(self):
        pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
        config = pyprojecttoml.read_configuration(Path(__file__).parent.parent / "pyproject.toml")
        assert config["project"]["version"] == longmem.__version__

    def test_json_format_round_trips_csv_values(self):
        args = ("study", "--beta", "2.2", "--n", "20", "--replicates", "10")
        csv_out = run_cli(*args)
        json_out = run_cli(*args, "--format", "json")
        assert csv_out.returncode == 0 and json_out.returncode == 0
        _, _, columns, rows = parse_csv(csv_out.stdout)
        payload = json.loads(json_out.stdout)
        assert payload["columns"] == columns
        assert payload["meta"]["format"] == "json"
        for csv_row, json_row in zip(rows, payload["rows"]):
            for a, b in zip(csv_row, json_row):
                assert a == b
        assert "kappa" in payload["summary"]

    def test_output_file_matches_stdout(self, tmp_path):
        target = tmp_path / "out.csv"
        to_stdout = run_cli("spectrum", "--beta", "3", "--n", "9")
        to_file = run_cli(
            "spectrum", "--beta", "3", "--n", "9", "--output", str(target)
        )
        assert to_file.returncode == 0
        assert to_file.stdout == ""
        assert target.read_text() == to_stdout.stdout

    def test_reruns_byte_identical(self):
        args = ("study", "--beta", "2.2", "--n", "20", "--replicates", "10")
        assert run_cli(*args).stdout == run_cli(*args).stdout
        args = ("generate", "--beta", "7", "--n", "15")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("generate", "--beta", "2.2"),
            ("generate", "--beta", "notanumber", "--n", "5"),
            ("generate", "--beta", "11", "--n", "5"),
            ("generate", "--beta", "2.2", "--n", "1"),
            ("generate", "--beta", "2.2", "--n", "5", "--seed", "-1"),
            # study takes no --workers, whatever its value
            ("study", "--beta", "2.2", "--n", "5", "--workers", "1"),
            # each command's least replicate count: study 2, hist 1
            ("study", "--beta", "2.2", "--n", "5", "--replicates", "0"),
            ("study", "--beta", "2.2", "--n", "5", "--replicates", "1"),
            ("hist", "--beta", "2.2", "--n", "5", "--replicates", "0"),
            ("nonsense", "--beta", "2.2", "--n", "5"),
            (),
        ],
    )
    def test_usage_errors_exit_2(self, args):
        result = run_cli(*args)
        assert result.returncode == 2
        assert result.stderr
        assert result.stdout == ""

    def test_runtime_error_exit_1_machine_readable(self):
        result = run_cli("spectrum", "--beta", "2.2", "--n", "5000", "--dense-oracle")
        assert result.returncode == 1
        error = json.loads(result.stderr)["error"]
        assert error["type"] == "ResourceLimitError"
        assert "5001" in error["message"]

    def test_degenerate_hist_replicate_names_its_stream(self, monkeypatch, capsys):
        monkeypatch.setattr(sampler, "_draw_noise",
                            lambda keyer, start, stop, rn: np.ones((stop - start, rn)))
        code = cli.main(["hist", "--beta", "0", "--n", "5", "--replicates", "2"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DegenerateSampleError"
        assert "stream_index=0" in error["message"]

    @pytest.mark.parametrize("failing", [{5}, {5, 7}])
    def test_degenerate_hist_names_first_failing_stream(self, failing, monkeypatch, capsys):
        # All 9 replicates in one block: the block reports its first constant row.
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 9 * 16 * 5)
        monkeypatch.setattr(sampler, "_draw_noise", constant_rows(sampler._draw_noise, failing))
        code = cli.main(["hist", "--beta", "0", "--n", "5", "--replicates", "9"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DegenerateSampleError"
        assert error["message"].startswith("replicate stream_index=5: constant")

    def test_empty_replicates_hist_errors(self):
        result = run_cli("hist", "--beta", "2.2", "--n", "10", "--replicates", "0")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            "error: argument --replicates: replicates must be at least 1, got 0\n")

    def test_unwritable_output_exit_1_names_path(self):
        result = run_cli(
            "spectrum", "--beta", "2.2", "--n", "5",
            "--output", "/nonexistent-dir/x.csv",
        )
        assert result.returncode == 1
        error = json.loads(result.stderr)["error"]
        assert "/nonexistent-dir/x.csv" in error["message"]


class TestGenerate:
    def test_columns_and_row_count(self):
        result = run_cli("generate", "--beta", "2.2", "--n", "20")
        meta, _, columns, rows = parse_csv(result.stdout)
        assert columns == ["index", "epsilon", "series", "cosvec", "standardized"]
        assert len(rows) == meta["rn"] == 21
        std = column(rows, columns, "standardized")
        assert std.min() == 0.0
        assert std.max() == 1.0

    def test_beta0_series_equals_noise(self):
        result = run_cli("generate", "--beta", "0", "--n", "50")
        _, _, columns, rows = parse_csv(result.stdout)
        eps = column(rows, columns, "epsilon")
        series = column(rows, columns, "series")
        assert np.abs(series - eps).max() <= 1e-12 * np.abs(eps).max()

    def test_dense_oracle_route_agrees(self):
        fast = run_cli("generate", "--beta", "2.2", "--n", "21")
        dense = run_cli("generate", "--beta", "2.2", "--n", "21", "--dense-oracle")
        assert dense.returncode == 0
        _, _, columns, fast_rows = parse_csv(fast.stdout)
        _, _, _, dense_rows = parse_csv(dense.stdout)
        fast_series = column(fast_rows, columns, "series")
        dense_series = column(dense_rows, columns, "series")
        assert np.abs(fast_series - dense_series).max() <= 1e-9 * np.abs(
            dense_series
        ).max()

    def test_golden_small_run(self):
        result = run_cli("generate", "--beta", "2.2", "--n", "21")
        assert result.stdout == (GOLDEN / "generate_beta2.2_n21.csv").read_text()


class TestSpectrum:
    def test_matches_library_bit_exact(self):
        result = run_cli("spectrum", "--beta", "2.2", "--n", "7")
        _, _, columns, rows = parse_csv(result.stdout)
        model = build_model(2.2, 7)
        np.testing.assert_array_equal(
            column(rows, columns, "frequency"), model.grid.frequencies
        )
        np.testing.assert_array_equal(
            column(rows, columns, "density"), model.density
        )
        np.testing.assert_array_equal(
            column(rows, columns, "first_row"), model.first_row
        )

    def test_golden_reference_table(self):
        result = run_cli("spectrum", "--beta", "7", "--n", "5")
        assert result.stdout == (GOLDEN / "spectrum_beta7_n5.csv").read_text()


class TestEigen:
    def test_rows_and_summary(self):
        result = run_cli("eigen", "--beta", "10", "--n", "200")
        _, summary, columns, rows = parse_csv(result.stdout)
        assert columns == ["rank", "eigenvalue", "log10_rank", "log10_eigenvalue"]
        lam = column(rows, columns, "eigenvalue")
        assert len(lam) == 201
        assert np.all(np.diff(lam) <= 0)
        assert summary["kappa"] == pytest.approx(lam[0] / lam[-1], rel=1e-12)
        # condition number order of magnitude at beta = 10
        assert 3.2e11 / 1.5 <= summary["kappa"] <= 3.2e11 * 1.5
        # two leading eigenvalues dominate the trace
        assert (lam[0] + lam[1]) / lam.sum() > 0.96
        logs = column(rows, columns, "log10_eigenvalue")
        np.testing.assert_allclose(10**logs, lam, rtol=1e-10)

    def test_near_flat_spectrum_beta_near0(self):
        result = run_cli("eigen", "--beta", "0.001", "--n", "200")
        _, summary, columns, rows = parse_csv(result.stdout)
        lam = column(rows, columns, "eigenvalue")
        assert lam[0] / lam[-1] < 1.01
        assert summary["d_raw"] > 199.0

    def test_dense_oracle_route_agrees(self):
        fast = run_cli("eigen", "--beta", "2.2", "--n", "31")
        dense = run_cli("eigen", "--beta", "2.2", "--n", "31", "--dense-oracle")
        assert dense.returncode == 0
        _, fast_summary, columns, fast_rows = parse_csv(fast.stdout)
        _, dense_summary, _, dense_rows = parse_csv(dense.stdout)
        assert dense_summary["d_est"] == pytest.approx(fast_summary["d_est"], abs=1e-8)
        fast_lam = column(fast_rows, columns, "eigenvalue")
        dense_lam = column(dense_rows, columns, "eigenvalue")
        assert np.abs(fast_lam - dense_lam).max() <= 1e-8 * fast_lam[0]

    def test_golden_json(self):
        result = run_cli("eigen", "--beta", "10", "--n", "40", "--format", "json")
        assert result.stdout == (GOLDEN / "eigen_beta10_n40.json").read_text()


class TestHist:
    def test_counts_mass_and_fit(self):
        result = run_cli(
            "hist", "--beta", "10", "--n", "200", "--replicates", "200",
            "--bins", "100",
        )
        meta, summary, columns, rows = parse_csv(result.stdout)
        assert columns == ["bin_left", "bin_right", "count", "density"]
        assert len(rows) == 100
        counts = column(rows, columns, "count")
        dens = column(rows, columns, "density")
        widths = column(rows, columns, "bin_right") - column(rows, columns, "bin_left")
        assert counts.sum() == summary["sample_count"] == 200 * 199
        assert np.sum(dens * widths) == pytest.approx(1.0, abs=1e-9)
        assert 0.4 <= summary["fit_alpha"] <= 0.6
        edge = min(dens[0], dens[-1])
        center = max(dens[49], dens[50])
        assert edge / center > 3.0

    def test_small_run_reports_null_fit(self):
        result = run_cli(
            "hist", "--beta", "10", "--n", "40", "--replicates", "30",
            "--bins", "10",
        )
        _, summary, _, _ = parse_csv(result.stdout)
        assert summary["fit_alpha"] is None
        assert summary["sample_count"] == 30 * 39

    def test_golden_small_run(self):
        result = run_cli(
            "hist", "--beta", "10", "--n", "40", "--replicates", "30",
            "--bins", "10",
        )
        assert result.stdout == (GOLDEN / "hist_beta10_n40_r30.csv").read_text()

    def test_each_replicate_freed_before_the_next_is_drawn(self, monkeypatch):
        # Peak memory holds one block of replicates, not two: at hist-wide's
        # size (rn = 200001) a block is one replicate of about 8 MB.
        monkeypatch.setattr(sampler, "CHUNK_BYTES", 1)  # one replicate per block
        engine, draw = cli.replicate_blocks, sampler._draw_noise
        arrays, drawn = [], []

        def tracked_blocks(*args, **kwargs):
            for block in engine(*args, **kwargs):
                arrays.extend(weakref.ref(a) for a in (
                    block.epsilon, block.series, block.cosvec, block.standardized))
                yield block
                del block

        def tracked_draw(keyer, start, stop, rn):
            assert all(ref() is None for ref in arrays)
            drawn.append((start, stop))
            return draw(keyer, start, stop, rn)

        monkeypatch.setattr(cli, "replicate_blocks", tracked_blocks)
        monkeypatch.setattr(sampler, "_draw_noise", tracked_draw)
        argv = ["hist", "--beta", "2.2", "--n", "20", "--replicates", "4", "--output", os.devnull]
        assert cli.main(argv) == 0
        assert len(arrays) == 4 * 4
        assert drawn == [(0, 1), (1, 2), (2, 3), (3, 4)]  # the hook fired once per block

    def test_pools_one_block_per_item(self, monkeypatch):
        # rn = 201 gives blocks of 100_000 // (16 * 201) = 31 replicates.
        accumulate, shapes, pooled = cli.accumulate_histogram, [], []

        def recording(samples, **kwargs):
            def recorded():
                for item in samples:
                    shapes.append(np.shape(item))
                    yield item
            pooled.append(accumulate(recorded(), **kwargs))
            return pooled[-1]

        monkeypatch.setattr(cli, "accumulate_histogram", recording)
        argv = ["hist", "--beta", "2.2", "--n", "200", "--replicates", "100", "--output", os.devnull]
        assert cli.main(argv) == 0
        assert shapes == [(31 * 201,)] * 3 + [(7 * 201,)]
        blocks = sampler.replicate_blocks(build_model(2.2, 200), cli.DEFAULT_SEED, 100)
        rows = np.vstack([block.standardized for block in blocks])
        values = rows[(rows != 0.0) & (rows != 1.0)]
        counts, _ = np.histogram(values, bins=np.linspace(0.0, 1.0, cli.DEFAULT_BIN_COUNT + 1))
        np.testing.assert_array_equal(pooled[0].counts, counts)
        assert pooled[0].sample_count == 100 * 199  # two endpoints dropped per replicate


class TestStudy:
    def test_rows_mirror_report(self):
        result = run_cli("study", "--beta", "3", "--n", "200", "--replicates", "20")
        _, summary, columns, rows = parse_csv(result.stdout)
        assert columns == [
            "beta", "statistic", "eigen_estimate", "measured_mean", "measured_cv",
        ]
        stats = [row[columns.index("statistic")] for row in rows]
        assert stats == ["d", "alpha", "variance"]
        report = eigen_report(build_model(3.0, 200))
        estimates = column(rows, columns, "eigen_estimate")
        assert estimates[0] == report.d_est
        assert estimates[1] == report.alpha_est
        assert estimates[2] == report.var_est
        means = column(rows, columns, "measured_mean")
        assert means[0] == pytest.approx(2 * means[1] + 1, rel=1e-12)
        assert summary["kappa"] == pytest.approx(report.kappa, rel=1e-12)

    @pytest.mark.parametrize("dense", [False, True], ids=["fft", "dense"])
    @pytest.mark.parametrize("beta, n", [("2.2", "31"), ("10", "40")])
    def test_summary_is_the_eigen_summary(self, beta, n, dense, capsys):
        oracle = ["--dense-oracle"] if dense else []
        eigen = main_stdout(capsys, "eigen", "--beta", beta, "--n", n, *oracle)
        study = main_stdout(capsys, "study", "--beta", beta, "--n", n,
                            "--replicates", "3", *oracle)
        assert study.splitlines()[1].startswith("# summary ")
        assert study.splitlines()[1] == eigen.splitlines()[1]
        _, summary, columns, rows = parse_csv(study)
        estimates = column(rows, columns, "eigen_estimate").tolist()
        assert estimates == [summary["d_est"], summary["alpha_est"], summary["var_est"]]

    def test_golden_json(self):
        result = run_cli(
            "study", "--beta", "2.2", "--n", "20", "--replicates", "10",
            "--format", "json",
        )
        assert result.stdout == (GOLDEN / "study_beta2.2_n20_r10.json").read_text()


    @pytest.mark.parametrize("args", [
        ("eigen", "--beta", "2", "--n", "5"),
        ("spectrum", "--beta", "2", "--n", "5"),
        ("generate", "--beta", "2", "--n", "5"),
        ("hist", "--beta", "2", "--n", "5", "--replicates", "3"),
        ("study", "--beta", "2", "--n", "5", "--replicates", "3"),
    ], ids=lambda args: args[0])
    def test_workers_env_is_ignored(self, args):
        """The command line is the whole configuration: ``LONGMEM_WORKERS``,
        once read by ``study``, changes no invocation, whatever its value."""
        plain = run_cli(*args)
        assert plain.returncode == 0
        for workers in ("0", "3", "abc"):
            result = run_cli(*args, env_extra={"LONGMEM_WORKERS": workers})
            assert (result.returncode, result.stdout, result.stderr) == (
                plain.returncode, plain.stdout, plain.stderr)


class TestStrictJson:
    """Every JSON the CLI writes is RFC 8259 JSON: an undefined summary value
    is null, and any other non-finite value is an error."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("command", ["eigen", "study"])
    def test_undefined_slope_is_null(self, command, n, capsys):
        args = [command, "--beta", "2.2", "--n", str(n)]
        if command == "study":
            args += ["--replicates", "3"]
        lines = main_stdout(capsys, *args).splitlines()
        strict_json(lines[0][len("# "):])
        from_csv = strict_json(lines[1][len("# summary "):])
        from_json = strict_json(main_stdout(capsys, *args, "--format", "json"))["summary"]
        assert from_csv == from_json
        if n <= 3:  # rn = 3 leaves one interior rank, too few for a slope
            assert from_json["slope_fit"] is None
        else:
            assert math.isfinite(from_json["slope_fit"])

    def test_non_finite_row_value_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setitem(cli._HANDLERS, "spectrum",
                            lambda cfg: ({"value": np.array([math.nan])}, None))
        argv = ["spectrum", "--beta", "2.2", "--n", "5", "--format", "json"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestResourceErrors:
    def _single_json_error(self, result):
        assert result.returncode == 1
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_dense_oracle_above_guard_refused(self):
        # order 5001 > DENSE_GUARD: refused before the O(n^2) kernel is built
        result = run_cli("generate", "--beta", "2.2", "--n", "5000", "--dense-oracle")
        assert self._single_json_error(result)["type"] == "ResourceLimitError"

    def test_grid_above_length_guard_refused(self):
        # rn = 10**12 + 1 > LENGTH_GUARD: refused before the grid is built
        result = run_cli("generate", "--beta", "2.2", "--n", "1000000000000")
        assert self._single_json_error(result)["type"] == "ResourceLimitError"

    def test_bins_above_length_guard_refused_before_allocating(self, capsys):
        # 4194305 = LENGTH_GUARD + 1 bins: refused before the edges are built
        argv = ["hist", "--beta", "2.2", "--n", "5", "--replicates", "1", "--bins", "4194305"]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "ResourceLimitError"
        assert "bin_count 4194305" in error["message"]
        assert peak < 2**20

    def test_allocation_failure_follows_error_contract(self, monkeypatch, capsys):
        # With the length guard lifted, the grid alone needs exabytes, so
        # allocation fails without touching memory.
        monkeypatch.setattr(dft, "LENGTH_GUARD", 10**19)
        code = cli.main(["spectrum", "--beta", "2.2", "--n", "1000000000000000000"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "MemoryError"


class TestStreamedOutput:
    """CSV and JSON rows are written in chunks of ``cli.CSV_CHUNK_ROWS`` rows;
    the chunking must not show in the bytes, and only a command that
    succeeded writes."""

    @pytest.mark.parametrize(
        "args",
        [
            ("generate", "--beta", "2.2", "--n", "20"),
            ("generate", "--beta", "2.2", "--n", "22"),
            ("spectrum", "--beta", "2.2", "--n", "30"),
            # integer counts
            ("hist", "--beta", "3", "--n", "200", "--replicates", "20"),
            # exponent-notation cells and integer ranks
            ("eigen", "--beta", "10", "--n", "200"),
            # a text column
            ("study", "--beta", "2.2", "--n", "200", "--format", "csv", "--replicates", "5"),
            ("generate", "--beta", "2.2", "--n", "22", "--format", "json"),
            ("eigen", "--beta", "10", "--n", "200", "--format", "json"),
            ("study", "--beta", "2.2", "--n", "200", "--format", "json", "--replicates", "5"),
        ],
    )
    def test_chunk_size_does_not_change_bytes(self, args, tmp_path, monkeypatch):
        written = set()
        for chunk_rows in (1, 7, 10**6):
            monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
            target = tmp_path / f"chunk{chunk_rows}.csv"
            assert cli.main([*args, "--output", str(target)]) == 0
            written.add(target.read_bytes())
        assert written == {run_cli(*args).stdout.encode()}

    def test_json_peak_memory_per_point(self, tmp_path, monkeypatch):
        # Only one chunk of rows is held as Python objects at a time.
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 1024)
        target = tmp_path / "generate.json"
        argv = ["generate", "--beta", "2.2", "--format", "json", "--output", str(target)]
        assert cli.main([*argv, "--n", "200"]) == 0  # first-use imports and tables
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--n", "20000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(json.loads(target.read_text())["rows"]) == 20001
        assert peak / 20001 < 300

    def test_failed_command_leaves_output_untouched(self, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"earlier output\n")
        result = run_cli(
            "spectrum", "--beta", "2.2", "--n", "5000", "--dense-oracle",
            "--output", str(target),
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "ResourceLimitError"
        assert target.read_bytes() == b"earlier output\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_follows_error_contract(self):
        result = run_cli(
            "generate", "--beta", "2.2", "--n", "200000", "--output", "/dev/full"
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "OSError"

    def test_closed_pipe_follows_error_contract(self):
        # As in `longmem generate ... | head -c 100`.
        with subprocess.Popen(
            [sys.executable, "-m", "longmem", "generate", "--beta", "2.2", "--n", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as child:
            assert len(child.stdout.read(100)) == 100
            child.stdout.close()
            lines = child.stderr.read().decode().splitlines()
        assert child.returncode == 1
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "BrokenPipeError"

    def test_write_past_file_size_limit_leaves_output_untouched(self, tmp_path):
        resource = pytest.importorskip("resource")
        target = tmp_path / "kept.csv"
        target.write_bytes(b"earlier output\n")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (10**6, 10**6))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        result = subprocess.run(
            [sys.executable, "-m", "longmem", "generate", "--beta", "2.2", "--n", "200000",
             "--output", str(target)],
            capture_output=True, text=True, env=child_env(), preexec_fn=limit_file_size,
        )
        assert result.returncode == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "OSError"
        assert target.read_bytes() == b"earlier output\n"
        assert os.listdir(tmp_path) == ["kept.csv"]

    def test_interrupt_leaves_output_untouched(self, tmp_path):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"earlier output\n")
        with subprocess.Popen(
            [sys.executable, "-m", "longmem", "generate", "--beta", "2.2", "--n", "200000",
             "--output", str(target)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as child:
            # Interrupt once the new file beside the target holds the first chunk.
            while not any(path != target and path.stat().st_size for path in tmp_path.iterdir()):
                assert child.poll() is None
                time.sleep(0.001)
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=60)
        assert child.returncode == 130
        lines = err.decode().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["type"] == "KeyboardInterrupt"
        assert target.read_bytes() == b"earlier output\n"
        assert os.listdir(tmp_path) == ["kept.csv"]


class TestCellKinds:
    """Every column a command returns is one of the three cell kinds
    ``longmem._csv`` renders: float64, non-negative integers, or ASCII text
    without NUL.  A column of any other kind fails here rather than printing
    wrong bytes."""

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n", [2, 40])
    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_columns_are_renderable(self, command, n, dense):
        cfg = cli.RunConfig(command=command, beta=2.2, n=n, replicates=3, bins=10,
                            dense_oracle=dense)
        columns, _ = cli._HANDLERS[command](cfg)
        for name, values in columns.items():
            values = np.asarray(values)
            if values.dtype.kind in "iu":
                assert values.min() >= 0, name
            elif values.dtype.kind == "U":
                text = "".join(values.tolist())
                assert text.isascii() and "\0" not in text, name
            else:
                assert values.dtype == np.float64, name


class TestChunkedReplicates:
    """Replicates are drawn in blocks sized by ``sampler.CHUNK_BYTES``: at the
    default budget and at blocks of 1 row, 7 rows and all rows, the bytes
    are the goldens'."""

    GOLDEN_RUNS = [
        (("study", "--beta", "2.2", "--n", "200", "--replicates", "1000", "--format", "json"),
         "study_beta2.2_n200_r1000.json", 201),
        (("hist", "--beta", "3", "--n", "200", "--replicates", "1000"),
         "hist_beta3_n200_r1000.csv", 201),
        (("study", "--beta", "2.2", "--n", "40", "--replicates", "50", "--dense-oracle"),
         "study_beta2.2_n40_r50_dense.csv", 41),
    ]

    @pytest.mark.parametrize("args, golden, rn", GOLDEN_RUNS, ids=["study", "hist", "dense"])
    def test_block_size_does_not_change_bytes(self, args, golden, rn, tmp_path, monkeypatch):
        # The goldens were recorded one replicate at a time, before blocks.
        written = set()
        for budget in (sampler.CHUNK_BYTES, 16 * rn, 7 * 16 * rn, 10**6 * 16 * rn):
            monkeypatch.setattr(sampler, "CHUNK_BYTES", budget)
            target = tmp_path / f"budget{budget}.out"
            assert cli.main([*args, "--output", str(target)]) == 0
            written.add(target.read_bytes())
        assert written == {(GOLDEN / golden).read_bytes()}

    @pytest.mark.parametrize("beta", [2.2, 3.0])
    def test_goldens_span_blocks_at_the_default_budget(self, beta):
        # The 1000-replicate goldens cross at least two block boundaries and
        # end in a partial block.
        sizes = [len(block.epsilon)
                 for block in sampler.replicate_blocks(build_model(beta, 200), 5, 1000)]
        assert sum(sizes) == 1000
        assert len(sizes) >= 3 and sizes[-1] < sizes[0]


class TestConsoleEntry:
    def test_module_main_and_package_main_agree(self):
        direct = subprocess.run(
            [sys.executable, "-m", "longmem.cli", "spectrum", "--beta", "1", "--n", "5"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        package = run_cli("spectrum", "--beta", "1", "--n", "5")
        assert direct.returncode == package.returncode == 0
        assert direct.stdout == package.stdout
