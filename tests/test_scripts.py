"""The example scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import emsched

REPO = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = Path(emsched.__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/day_demo.py", "--horizon", "48"],
        ["scripts/delay_sweep.py", "--reps", "1"],
        # every replication of the first point aborts: printed as all-skipped
        ["scripts/delay_sweep.py", "--reps", "1", "--max-delay", "36"],
    ],
)
def test_script_exits_zero(argv):
    # the scripts import the same emsched the tests do
    path = os.pathsep.join(p for p in (str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
