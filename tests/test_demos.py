"""Smoke test: demos 02 and 03 (on the harness stepper) and 04 (on the
factored channel) run as scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamtrack

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(beamtrack.__file__).resolve().parents[1])
# the first line of each demo's result table
TABLES = {
    "02_attitude_fusion.py": "      pipeline  rmse [deg]  max [deg]  <=0.5 deg",
    "03_dynamic_isolation.py": "isolation + servo: max pointing error",
    "04_array_and_spectrum.py": "matched weights at the true arrival restore nrsp",
}


@pytest.mark.parametrize("script", sorted(TABLES))
def test_demo_runs(tmp_path, script):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)], cwd=tmp_path, capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert any(ln.startswith(TABLES[script]) for ln in done.stdout.splitlines()), done.stdout
