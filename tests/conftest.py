"""Lets the tests that launch ``python -m nrquad`` find the package in ``src/``, and shares their fixtures.

The ``pythonpath`` setting in ``pyproject.toml`` puts ``src/`` on the test
process's path only, so it is added to ``PYTHONPATH`` for child processes.
"""

import os
from pathlib import Path

import pytest

from support import count_scalar_calls

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def calls(monkeypatch):
    """Scalar evaluator calls, and in a second item the evaluators built, from the test's start on."""
    return count_scalar_calls(monkeypatch)
