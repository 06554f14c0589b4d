"""Time per tick of the closed loop, and its garbage collections.

    python3 tools/stage_times.py

Runs ``harness.blocks`` over one run of each of two configs, perfbench's
16x8 ``closed_loop_fleet`` config and its 128x64 ``simulate_ref`` config
(both 1000 ticks of the reference flight), and records the inputs of the
fusion and servo recursions of every block: the filter state and gimbal
angles the block starts from, its gyro rates, its measurement
quaternions and its stabilization commands.  It then replays
``fusion.fuse`` and ``mechanical.servo`` on those inputs, the whole run
at a time, ``REPEAT`` times, and prints the least time of each in us per
tick.  The recursions walk the ticks one at a time, and fusion never
reads the gimbal, so a replay times each alone, with no other stage of
the loop.  It checks that each replay gives the run's own columns.

Per config it also prints the least time per tick of the whole
``harness.blocks`` stream over ``REPEAT`` runs (every stage of the loop,
no trace), and the gen 0/1/2 garbage collections per
``harness.run_simulation`` run (the unit of ``closed_loop_fleet``), the
mean of the ``gc.get_stats()`` deltas over ``RUNS`` runs of seeds 0 up.

It imports ``beamtrack`` from the ``src/`` next to it and the configs
from ``perfbench/workloads.py``, and takes about 3 s on a 2-vCPU x86-64
machine.
"""

from __future__ import annotations

import gc
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
# timed repeats of each replay and of the blocks stream: the least time is kept
REPEAT = 20
# run_simulation runs whose garbage collections are averaged
RUNS = 20


def loop(cfg):
    """The ``harness.blocks`` stream of one run of ``cfg``."""
    euler = mechanical.pointing_euler(cfg.geo)
    return harness.blocks(cfg, euler, harness.streams(cfg.run.seed)[0], cfg.ticks)


def recorded(cfg) -> list[tuple]:
    """Per block after the start: the filter state and gimbal angles before
    it, and the block with its columns."""
    blocks, cov = loop(cfg), cfg.fusion
    prev, runs = next(blocks), []
    for block in blocks:
        state = fusion.FilterState(
            prev.q[-1], prev.kappa[-1], cov.process_noise, cov.measurement_noise
        )
        runs.append((state, prev.gimbal[-1], block))
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


def collections_per_run(cfg) -> list[float]:
    """Gen 0/1/2 garbage collections per ``run_simulation`` run, the mean
    over ``RUNS`` runs of seeds 0 up."""
    before = [gen["collections"] for gen in gc.get_stats()]
    for seed in range(RUNS):
        cfg.run.seed = seed
        harness.run_simulation(cfg)
    after = [gen["collections"] for gen in gc.get_stats()]
    return [(b - a) / RUNS for a, b in zip(before, after)]


def main() -> int:
    for label, text in CONFIGS.items():
        cfg = load_scenario_text(text)
        t_s = cfg.sensors.sample_period
        runs = recorded(cfg)
        ticks = sum(len(block.t) for _, _, block in runs)

        def fuse(state, _, block):
            return fusion.fuse(state, block.omega_m, block.z, t_s)

        def servo(_, angles, block):
            return mechanical.servo(angles, block.command, block.omega_m, cfg.servo, t_s)

        def stream():
            for _ in loop(cfg):
                pass

        for replay, *columns in ((fuse, "q", "kappa"), (servo, "gimbal", "rate_clamped")):
            if any(replay(*run) != tuple(getattr(run[2], c) for c in columns) for run in runs):
                sys.exit(f"stage_times: a replay of {'/'.join(columns)} differs from the run's")
        blocks_us = least_us_per_tick(stream, [()], ticks)
        gen0, gen1, gen2 = collections_per_run(cfg)
        print(
            f"{label}: {ticks} ticks in {len(runs)} block(s); "
            f"fusion.fuse {least_us_per_tick(fuse, runs, ticks):.2f} us/tick, "
            f"mechanical.servo {least_us_per_tick(servo, runs, ticks):.2f} us/tick, "
            f"harness.blocks {blocks_us:.2f} us/tick; "
            f"gc per run_simulation gen0/1/2 {gen0:.2f} / {gen1:.2f} / {gen2:.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
