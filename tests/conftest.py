"""Helpers shared by the test modules."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """This environment with the checkout's ``src`` first on PYTHONPATH, plus
    the ``extra`` variables: the environment of a child Python process that
    must import the ``longmem`` under test."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)
