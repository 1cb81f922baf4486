"""The suite's own fixtures: a leaked child fails the test that leaked it,
and no test after it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env, children

TESTS = Path(__file__).resolve().parent

# The first test forks a child that would sleep for a minute and leaves it;
# the second leaks nothing.  The child's pid goes to the file named by
# LEAKED_PID.
LEAKING = """
import os, time

def test_leaks_a_child():
    pid = os.fork()
    if pid == 0:
        time.sleep(60)
        os._exit(0)
    with open(os.environ["LEAKED_PID"], "w") as out:
        out.write(str(pid))

def test_after_the_leak():
    pass
"""


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.skipif(children() is None, reason="needs /proc/self/task/*/children")
def test_leaked_child_is_killed_and_fails_one_test(tmp_path):
    (tmp_path / "test_leak.py").write_text(LEAKING)
    pid_file = tmp_path / "pid"
    # conftest, loaded as a plugin, brings its autouse fixtures.
    env = child_env(LEAKED_PID=str(pid_file))
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS), env["PYTHONPATH"]])
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "--rootdir", str(tmp_path), str(tmp_path / "test_leak.py")],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    summary = result.stdout.strip().splitlines()[-1]
    assert result.returncode == 1, result.stdout
    assert "2 passed, 1 error" in summary, result.stdout
    assert "ERROR at teardown of test_leaks_a_child" in result.stdout
    # Reaped by the fixture: an orphan would still be asleep, re-parented.
    assert not alive(int(pid_file.read_text()))
