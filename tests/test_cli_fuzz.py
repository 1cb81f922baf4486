"""Command line fuzz: argv drawn from a grammar of every command, both
formats and valid, boundary and malformed values of each flag (n <= 200,
replicates <= 40), run in-process.  Whatever the argv, the CLI keeps its
contract:

- the exit code is 0, 1 or 2;
- exit 1 writes exactly one JSON line to stderr, an ``error`` object with
  ``type`` and ``message``;
- exit 0 output parses strictly: JSON without NaN or Infinity tokens, or
  CSV whose ``#`` lines carry such JSON and whose rows all have the
  header's width, every float cell reading back to itself under ``%.17g``;
- nothing escapes as an exception (a traceback on the console).
"""

import contextlib
import io

from conftest import strict_json
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from longmem import cli

COMMANDS = ("generate", "spectrum", "eigen", "hist", "study")


def values(valid, boundary, malformed):
    """Mostly valid values, then boundary ones, then malformed ones."""
    return st.integers(0, 9).flatmap(
        lambda pick: st.sampled_from(valid if pick < 6 else boundary if pick < 9 else malformed))


# Each flag's values: valid, boundary, malformed (text argparse must refuse
# and values the library must refuse).
FLAGS = {
    "--beta": values(["2.2", "3", "0.5"], ["0", "10", "0.001", "1e-300", "9.999999999999998"],
                     ["-0.1", "10.000001", "nan", "inf", "-inf", "abc", "", "1e400", "2,2"]),
    "--n": values(["7", "40", "200"], ["2", "3", "4"], ["1", "0", "-5", "2.5", "x", "", "1e2"]),
    "--seed": values(["5", "0", "12345"], ["18446744073709551615"],
                     ["18446744073709551616", "-1", "5.0", "s"]),
    "--format": values(["csv", "json"], ["csv", "json"], ["xml", "CSV", ""]),
    "--replicates": values(["2", "20", "40"], ["0", "1"], ["-1", "2.0", "many"]),
    "--bins": values(["10", "100"], ["2"], ["1", "0", "-3", "ten"]),
    "--workers": values(["1", "2"], ["1"], ["0", "-2", "1.5"]),
    # No file is written: stdout, or a directory that does not exist.
    "--output": values(["-"], ["/nonexistent-longmem-dir/out.csv"], ["/nonexistent-longmem-dir/"]),
}
# --workers stays in FLAGS, drawn as a flag no command takes.
OWN_FLAGS = {"hist": ("--replicates", "--bins"), "study": ("--replicates",)}
COMMON = ("--seed", "--format", "--output")


@st.composite
def argv(draw):
    command = draw(st.sampled_from(COMMANDS * 4 + ("", "gen")))
    # --beta and --n are required; the others optional, and now and then a
    # flag the command does not take.
    names = [name for name in ("--beta", "--n") if draw(st.integers(0, 19)) > 0]
    names += [name for name in COMMON + OWN_FLAGS.get(command, ()) if draw(st.booleans())]
    if draw(st.integers(0, 9)) == 0:
        names.append(draw(st.sampled_from(sorted(FLAGS))))
    names = draw(st.permutations(names))
    args = [command] if command else []
    for name in names:
        args += [name, draw(FLAGS[name])]
    if draw(st.integers(0, 3)) == 0:
        args.append("--dense-oracle")
    return args


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_csv(text):
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    assert comments and lines[:len(comments)] == comments
    for line in comments:
        payload = line[2:]
        strict_json(payload[len("summary "):] if payload.startswith("summary ") else payload)
    header, *rows = lines[len(comments):]
    width = len(header.split(","))
    for row in rows:
        cells = row.split(",")
        assert len(cells) == width, row
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue  # a text cell
            assert "%.17g" % value == cell, (cell, row)


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv())
def test_cli_keeps_its_contract(args):
    code, out, err = invoke(args)
    event(f"exit {code}")
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        assert len(lines) == 1, err
        error = strict_json(lines[0])["error"]
        assert isinstance(error["type"], str) and isinstance(error["message"], str)
        assert out == ""
    elif code == 0:
        assert err == ""
        if out.startswith("{"):
            strict_json(out)
        else:
            check_csv(out)
