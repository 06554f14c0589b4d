"""Time per tick of the closed loop's two recursions, replayed.

    python3 tools/stage_times.py

Runs ``harness.blocks`` over one run of each of two configs, perfbench's
16x8 ``closed_loop_fleet`` config and its 128x64 ``simulate_ref`` config
(both 1000 ticks of the reference flight), and records the inputs of the
fusion and servo recursions of every block: the filter and gimbal
states the block starts from, its gyro rates, its measurement
quaternions and its stabilization commands.  It then replays
``fusion.fuse`` and ``mechanical.servo`` on those inputs, the whole run
at a time, ``REPEAT`` times, and prints the least time of each in us per
tick.  The recursions walk the ticks one at a time, and fusion never
reads the gimbal, so a replay times each alone, with no other stage of
the loop.  It checks that each replay gives the run's own states.

It imports ``beamtrack`` from the ``src/`` next to it and the configs
from ``perfbench/workloads.py``, and takes about 1 s on a 2-vCPU x86-64
machine.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from beamtrack import fusion, harness, mechanical  # noqa: E402
from beamtrack.config import load_scenario_text  # noqa: E402
import workloads  # noqa: E402

CONFIGS = {
    "16x8 closed_loop_fleet": workloads.ClosedLoopFleet.config_text,
    "128x64 simulate_ref": workloads.SimulateRef.config_text,
}
# replays per recursion: the least time is kept
REPEAT = 5


def recorded(cfg) -> list[tuple]:
    """Per block after the start: the filter and gimbal states before it,
    and the block with its columns."""
    loop = harness.blocks(
        cfg, mechanical.pointing_euler(cfg.geo), harness.streams(cfg.run.seed)[0], cfg.ticks
    )
    prev, runs = next(loop), []
    for block in loop:
        runs.append((prev.filter_state[-1], prev.gimbal[-1], block))
        prev = block
    return runs


def least_us_per_tick(replay, runs, ticks: int) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        for run in runs:
            replay(*run)
        best = min(best, time.perf_counter() - start)
    return best / ticks * 1e6


def main() -> int:
    for label, text in CONFIGS.items():
        cfg = load_scenario_text(text)
        t_s = cfg.sensors.sample_period
        runs = recorded(cfg)
        ticks = sum(len(block.t) for _, _, block in runs)

        def fuse(state, _, block):
            return fusion.fuse(state, block.omega_m, block.z, t_s)

        def servo(_, gimbal, block):
            return mechanical.servo(gimbal, block.command, block.omega_m, cfg.servo, t_s)

        for replay, column in ((fuse, "filter_state"), (servo, "gimbal")):
            if any(replay(*run) != getattr(run[2], column) for run in runs):
                sys.exit(f"stage_times: a replay of {column} differs from the run's")
        print(
            f"{label}: {ticks} ticks in {len(runs)} block(s); "
            f"fusion.fuse {least_us_per_tick(fuse, runs, ticks):.2f} us/tick, "
            f"mechanical.servo {least_us_per_tick(servo, runs, ticks):.2f} us/tick"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
