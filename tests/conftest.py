"""Helpers shared by the test modules."""

import json
import os
import signal
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """This environment with the checkout's ``src`` first on PYTHONPATH, plus
    the ``extra`` variables: the environment of a child Python process that
    must import the ``longmem`` under test."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "block_budget(bytes): run the test at sampler.CHUNK_BYTES = bytes")


@pytest.fixture(autouse=True)
def block_budget(request, monkeypatch):
    """The engine's block budget, ``sampler.CHUNK_BYTES``, that a test marked
    ``@pytest.mark.block_budget(bytes)`` states: set to ``bytes`` for the
    test and returned, for the test to pass on to any Python process it
    starts.  An unmarked test runs at the default budget and gets None.

    A test that counts forks, shards or blocks states the budget that its
    counts follow; at 100_000 bytes a block holds 31 replicates at
    rn = 201."""
    marker = request.node.get_closest_marker("block_budget")
    if marker is None:
        return None
    from longmem import sampler

    budget, = marker.args
    monkeypatch.setattr(sampler, "CHUNK_BYTES", budget)
    return budget


def children():
    """Pids of this process's children, running or zombies, from
    ``/proc/self/task/*/children`` (one such file per thread); None where
    the kernel provides no such file."""
    files = list(Path("/proc/self/task").glob("*/children"))
    if not files:
        return None
    pids = set()
    for path in files:
        try:
            pids.update(map(int, path.read_text().split()))
        except FileNotFoundError:  # a thread that has exited since
            continue
    return sorted(pids)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one unreaped, running
    or a zombie, after killing and reaping every child, so that one leak
    fails one test and not every test after it.  Where the kernel does not
    list a process's children, the child is left as it is."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = children() or []
    for child in left:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid}; "
                f"killed and reaped {left})")


def split_small_runs(monkeypatch, after_fork=None):
    """Give a process a shard of one series value or more, so that
    ``run_study`` and ``standardized_blocks`` split small runs into a shard
    of whole blocks per worker, and return the list that each ``os.fork`` in
    this process appends its child's pid to.  ``after_fork``, if given, runs
    in the parent after each fork, before the pid is returned."""
    from longmem import montecarlo

    monkeypatch.setattr(montecarlo, "MIN_SHARD_VALUES", 1)
    fork, pids = os.fork, []

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
            if after_fork:
                after_fork()
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def counted_builds(monkeypatch):
    """Return the list that each ``build_model`` call of ``run_study`` or
    ``standardized_blocks`` in this process appends to.  A run builds its
    model once, and once more for each shard with blocks that it measures
    because no child delivered them; so a split run whose children always
    failed would show here, not in its output."""
    from longmem import montecarlo

    build, calls = montecarlo.build_model, []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "build_model", counted)
    return calls


def constant_rows(draw, failing):
    """``draw`` (``sampler._draw_noise``) with the rows of the streams in
    ``failing`` made constant."""
    def drawn(keyer, start, stop, rn):
        epsilon = draw(keyer, start, stop, rn)
        epsilon[[i - start for i in sorted(failing) if start <= i < stop]] = 1.0
        return epsilon
    return drawn


def strict_json(text):
    """``json.loads`` that rejects the non-standard NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")

    return json.loads(text, parse_constant=reject)
