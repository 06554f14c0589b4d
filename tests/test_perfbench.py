"""The benchmark in ``perfbench/`` against this tree, without its timed rounds.

The tracer wraps the oracle methods it lists by name and the sweep
workloads record trials through ``experiments.METHOD_RUNNERS``, so a
rename or deletion there breaks the benchmark at set-up.  Each workload
also runs its warm-up round through its output checks, so a change that
the benchmark would count as incorrect output fails here first.
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
    # and runs its warm-up round through its checks
    _, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        wl = workload()
        wl.prepare(beamtrack, tmp_path, 0)
        try:
            for inp in wl.warmup_round():
                assert wl.check(inp, wl.run(inp)) == [], name
        finally:
            wl.close()
