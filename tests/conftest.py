"""Helpers shared by the test modules."""

import json
import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """This environment with the checkout's ``src`` first on PYTHONPATH, plus
    the ``extra`` variables: the environment of a child Python process that
    must import the ``longmem`` under test."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process of this one unreaped, running
    or a zombie."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (waitpid gave pid {pid})")


def counted_forks(monkeypatch, after_fork=None):
    """Give a process a shard of one block or more, so that ``run_study``
    splits small studies, and return the list that each ``os.fork`` in this
    process appends its child's pid to.  ``after_fork``, if given, runs in
    the parent after each fork, before the pid is returned."""
    from longmem import montecarlo

    monkeypatch.setattr(montecarlo, "MIN_SHARD_BLOCKS", 1)
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
