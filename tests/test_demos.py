"""Smoke test: demos 01 (the stabilization solve), 02 and 03 (on the
closed loop's blocks), 04 (on the factored channel) and 06 (the whole loop,
writing its trace into the working directory) run as scripts.  Demo 05
is left out: it takes seconds, and the acceptance fixtures run its
optimizers."""

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
    "01_pointing_geometry.py": "Gimbal commands that keep the beam on target",
    "02_attitude_fusion.py": "      pipeline  rmse [deg]  max [deg]  <=0.5 deg",
    "03_dynamic_isolation.py": "isolation + servo: max pointing error",
    "04_array_and_spectrum.py": "matched weights at the true arrival restore nrsp",
    "06_full_scenario.py": "attitude error:  max",
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
    if script == "06_full_scenario.py":
        assert (tmp_path / "trace.csv").is_file() and (tmp_path / "trace.json").is_file()
