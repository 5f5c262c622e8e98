"""Lets the tests that launch ``python -m nrquad`` find the package in ``src/``.

The ``pythonpath`` setting in ``pyproject.toml`` puts ``src/`` on the test
process's path only, so it is added to ``PYTHONPATH`` for child processes.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
