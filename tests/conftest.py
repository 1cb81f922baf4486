"""Helpers shared by the test modules."""

import json
import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra):
    """This environment with the checkout's ``src`` first on PYTHONPATH, plus
    the ``extra`` variables: the environment of a child Python process that
    must import the ``longmem`` under test."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), **extra)


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
