"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrquad

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(nrquad.__file__).resolve().parent.parent)


def test_all_four_demos_are_found():
    assert [demo.name[:3] for demo in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
