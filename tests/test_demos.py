"""Every demo script runs to completion and prints its pinned output.

Each demo's stdout is compared byte for byte with ``tests/golden/demo_NN.txt``,
NN being the two digits its file name starts with.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nrquad

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SRC = str(Path(nrquad.__file__).resolve().parent.parent)


def test_all_four_demos_are_found():
    assert [demo.name[:3] for demo in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_0(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN_DIR / f"demo_{demo.name[:2]}.txt").read_bytes()
