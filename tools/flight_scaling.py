"""Time and memory of ``beamtrack simulate`` as the flight gets longer.

    python3 tools/flight_scaling.py [--durations 60,600,1800]

Runs ``beamtrack simulate`` on the reference scenario (the built-in
defaults) with each ``[run] duration``, in seconds, each run in a child
process of its own, and prints per flight: the ticks, the child's wall
time from spawn to exit, the time per tick, and the child's own peak RSS
(``ru_maxrss`` of ``os.wait4``).  Each flight runs ``REPEAT`` times,
and the tool keeps the least wall time and the largest peak RSS.  The
wall time includes the start-up (interpreter, imports, config load, the
trace files' heads), so the tool first runs a flight of one tick and
takes the time per tick of a flight as its wall time beyond that run's,
over its ticks beyond the one.  A flight whose trace is held in memory
shows a peak RSS that grows with the duration; a streamed one stays flat.

It imports ``beamtrack`` from the ``src/`` next to it and writes the
traces into a temporary directory.  The default flights take about 45 s
on a 2-vCPU x86-64 machine.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# the reference scenario's [sensors] sample_period, s
SAMPLE_PERIOD = 0.01
# runs per flight: the least wall time and the largest peak RSS are kept
REPEAT = 3


def run_flight(workdir: Path, duration: float) -> tuple[int, float, float]:
    """One ``simulate`` child of ``duration`` seconds of flight: its ticks,
    its wall time in seconds and its peak RSS in MB."""
    config = workdir / f"flight_{duration:g}.ini"
    config.write_text(f"[run]\nduration = {duration!r}\n")
    command = [sys.executable, "-m", "beamtrack.cli", "simulate", "--config", str(config),
               "--out", str(workdir / "out")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    out = child.stdout.read().decode()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.close()
    if child.returncode:
        sys.exit(f"flight_scaling: simulate of {duration:g} s exited {child.returncode}")
    ticks = int(out.split("ticks = ", 1)[1].split(",", 1)[0])
    return ticks, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KB on Linux


def best_of(workdir: Path, duration: float) -> tuple[int, float, float]:
    """``run_flight`` ``REPEAT`` times: the ticks, the least wall time and
    the largest peak RSS."""
    runs = [run_flight(workdir, duration) for _ in range(REPEAT)]
    return runs[0][0], min(run[1] for run in runs), max(run[2] for run in runs)


def durations(text: str) -> list[float]:
    values = [float(v) for v in text.split(",")]
    if not all(v >= SAMPLE_PERIOD for v in values):
        raise argparse.ArgumentTypeError(f"{text!r}: each duration must be >= {SAMPLE_PERIOD}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--durations", type=durations, default=[60.0, 600.0, 1800.0],
                        help="comma-separated flight durations, s (default 60,600,1800)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        _, base_wall, base_rss = best_of(workdir, SAMPLE_PERIOD)
        print(f"start-up (one tick): wall {base_wall:.3f} s, peak RSS {base_rss:.1f} MB")
        print(f"{'duration_s':>10} {'ticks':>8} {'wall_s':>8} {'us_per_tick':>12} {'peak_rss_mb':>12}")
        for duration in args.durations:
            ticks, wall, rss = best_of(workdir, duration)
            per_tick = (wall - base_wall) / (ticks - 1) * 1e6 if ticks > 1 else float("nan")
            print(f"{duration:10g} {ticks:8d} {wall:8.3f} {per_tick:12.2f} {rss:12.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
