"""The names of beamtrack that the benchmark in ``perfbench/`` looks up.

The tracer wraps the oracle methods it lists by name and the sweep
workloads record trials through ``experiments.METHOD_RUNNERS``, so a
rename or deletion there breaks the benchmark at set-up; these tests
make that set-up, without the timed rounds.
"""

from pathlib import Path

import pytest

import beamtrack
import beamtrack.cli  # noqa: F401  (the tracer wraps the CLI layer too)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    return tracing, workloads


def test_tracer_installs_and_uninstalls(perfbench):
    tracing, _ = perfbench
    tracer = tracing.Tracer(beamtrack)
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_every_workload_prepares(perfbench, tmp_path):
    _, workloads = perfbench
    for workload in workloads.WORKLOADS.values():
        wl = workload()
        wl.prepare(beamtrack, tmp_path, 0)
        wl.close()
