"""Alternating perfbench pairs of two checkouts, and whether a gain holds.

    python3 tools/bench_pairs.py PARENT_TREE CHANGED_TREE --workload sweep_assp --pairs 10

Pair i runs ``perfbench/run.py --workload W --seed i --trace 0`` once in
each tree, for the ``run_seconds`` of that tree's ``BENCHMARK.json``, the
parent first on odd pairs and the change first on even ones, so a drift
of the machine's speed falls on both sides alike.  Each tree runs its own
``perfbench/`` on its own ``src/``.

It prints each pair's end-to-end metrics (parent / change), then per
metric each side's median and quartiles (``statistics.quantiles``, n=4)
and the median's change against the metric's bound in the parent's
``BENCHMARK.json``, flagging ``REGRESSION`` where the change's median is
worse than the parent's by more than that bound.  For ``units_per_s``,
the metric a gain is claimed on, it counts the pairs the change wins and
checks the gain rule: the change is better on at least nine pairs in
ten, and its median is better than the parent's by more than the
parent's quartile spread.

Exit status: 0 when the gain rule holds, 1 when a run exits nonzero (it
names the side, the pair and the exit code, and the tool stops there), is
not ``correct``, has a failed unit, or a metric regresses beyond its
bound, and 3 when neither: no regression, and no gain (2 is argparse's
usage error).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


CLAIMED = "units_per_s"


def run_once(side: str, tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in ``tree``: its last line of output.  A
    run that exits nonzero ends the tool with exit status 1."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        stdout=subprocess.PIPE, cwd=tree,
    )
    if done.returncode:
        sys.exit(f"bench_pairs: the {side} run of pair {seed} ({workload}) "
                 f"exited {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(side, getattr(args, side), args.workload, i))
        cells = "  ".join(
            f"{name} {runs['parent'][-1]['metrics'][name]['value']:.6g}"
            f"/{runs['change'][-1]['metrics'][name]['value']:.6g}"
            for name in metrics
        )
        print(f"pair {i} ({order[0]} first): {cells}", flush=True)

    sound = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    print(f"every run correct with 0 failed: {sound}")
    regressed = []
    for name, m in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(values["parent"]), quartiles(values["change"])
        change = (cmed - pmed) / pmed if pmed else math.inf
        regresses = (-change if m["better"] == "higher" else change) > m["bound"]
        if regresses:
            regressed.append(name)
        print(f"{name}: parent median {pmed:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g}), "
              f"change median {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g}), "
              f"{change:+.1%} ({m['better']} is better, bound {m['bound']:.0%})"
              + ("  REGRESSION" if regresses else ""))
    print(f"metrics worse than the parent beyond their bound: {', '.join(regressed) or 'none'}")

    sign = 1.0 if metrics[CLAIMED]["better"] == "higher" else -1.0
    parent = [r["metrics"][CLAIMED]["value"] for r in runs["parent"]]
    change = [r["metrics"][CLAIMED]["value"] for r in runs["change"]]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    gap = sign * (statistics.median(change) - pmed)
    holds = wins >= math.ceil(0.9 * args.pairs) and gap > pq3 - pq1
    print(f"{CLAIMED}: the change wins {wins}/{args.pairs}; median gap {gap:+.6g} "
          f"against the parent's quartile spread {pq3 - pq1:.6g}; gain rule holds: {holds}")
    if not sound or regressed:
        return 1
    return 0 if holds else 3


if __name__ == "__main__":
    sys.exit(main())
