"""Digests of the program's deterministic output, for comparing two trees.

Runs ``beamtrack simulate`` on seven fixed configs (A-G) and prints, for
each, the sha256 of ``trace.csv``, of ``trace.json`` and of the printed
summary.  Then runs 156 ``experiments.run_trial`` calls (3 methods x 20/10
dB x default/acceptance parameters, seeds 0-9 at 16x8 and 0-2 at 128x64)
and prints one sha256 over the reprs of their results, then one over 60
trials on a two-ray link (``SignalModel(nlos_gain=0.3)``: 16x8, 3
methods x 20/10 dB, seeds 0-9, default parameters).  The next line is one
sha256 over the reprs of ``electrical.fit_doa`` at 128x64 and 5x3 on
phases from a fixed generator: noise-like phases (at 128x64 every FFT
column can hold the peak), phases in {0, pi} (whose peak magnitude can
occur twice) and matched weights at three arrivals.  The next line is one
over 26 sequential trials at 60 and 200 dB (16x8 seeds 0-9 with default
parameters, 128x64 seeds 0-2 with acceptance parameters), where the
walk's speculative block decisions are most often wrong and redone.
The next is the sha256 of the table that ``beamtrack sweep --values 20,10
--seeds 5`` prints for a 16x8 two-ray link (``[signal] nlos_gain = 0.3``).
The next is one sha256 over ``trace.csv``, ``trace.json`` and the summary
of ``beamtrack simulate`` on a 16x8 config of 2537 ticks, not a multiple of
the 1024 ticks that the loop runs per block, whose accelerometer noise
saturates |f_x| > g on some ticks.  The last is the same sha256 for a
16x8 config of 3073 ticks with electrical epochs on tick 1024 (the last
tick of the first block) and tick 2049 (the first tick of the third).

A change that is meant to move no bit prints the same lines before and
after.  Run it from the root of each tree:

    python3 tools/trace_digests.py > before.txt        # on the old tree
    python3 tools/trace_digests.py --expect before.txt  # on the new tree

With ``--expect FILE`` it compares its lines with a saved run: it exits 1
and prints the lines that differ (``-`` saved, ``+`` this run) on standard
error, or exits 0 when every line matches.

It imports ``beamtrack`` from the ``src/`` next to it, writes its traces
into a temporary directory, and takes about 10 s on a 2-vCPU x86-64
machine.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from beamtrack.channel import ArrayGeometry, SignalModel, matched_weights  # noqa: E402
from beamtrack.cli import cli_main  # noqa: E402
from beamtrack.electrical import AsspParams, fit_doa  # noqa: E402
from beamtrack.experiments import run_trial  # noqa: E402

EPOCHS = "[electrical]\nfirst_epoch = 2\nepoch_period = 5\n"
# each config's scenario text (its [run] section holds duration and seed)
CONFIGS = {
    "A": "[array]\nrows = 16\ncols = 8\n[run]\nduration = 60\nseed = 7\n",
    "B": "[run]\nduration = 15\nseed = 1\n",
    "C": "[run]\nduration = 30\nseed = 3\n",
    # the config of acceptance criterion 10
    "D": "[array]\nrows = 16\ncols = 8\n[run]\nduration = 3\nseed = 11\n"
         "[electrical]\nfirst_epoch = 1.5\nmax_iters = 20\n",
    "E": "[array]\nrows = 32\ncols = 16\n[signal]\nnlos_gain = 0.3\n"
         + EPOCHS + "method = sequential\n[run]\nduration = 20\nseed = 5\n",
    "F": "[array]\nrows = 16\ncols = 8\n[signal]\nnlos_gain = 0.2\n"
         + EPOCHS + "method = spsa\n[run]\nduration = 20\nseed = 2\n",
    "G": "[run]\nduration = 60\nseed = 1\n",
}

# the link of the sweep table's line
SWEEP_CONFIG = "[array]\nrows = 16\ncols = 8\n[signal]\nnlos_gain = 0.3\n"

# the configs of the last two lines: 2537 ticks with a saturating
# accelerometer, and 3073 ticks with epochs at both edges of a block
SATURATING_CONFIG = (
    "[array]\nrows = 16\ncols = 8\n[profile]\npitch = 40 @ 0.05, 20 @ 0.31 @ -23\n"
    "[sensors]\naccel_white_sigma = 6\n[run]\nduration = 25.37\nseed = 9\n"
)
BLOCK_EDGE_CONFIG = (
    "[array]\nrows = 16\ncols = 8\n[electrical]\nfirst_epoch = 10.24\nepoch_period = 10.25\n"
    "[run]\nduration = 30.73\nseed = 4\n"
)

METHODS = ("assp", "spsa", "sequential")
SNRS_DB = (20.0, 10.0)
# the parameters of the acceptance experiments: a fixed 100-iteration
# budget, no stall stop, 4 sequential sweeps
PARAMS = {
    "default": AsspParams(),
    "acceptance": AsspParams(max_iters=100, stop_window=10**9, seq_max_sweeps=4),
}
# (rows, cols, seeds) of the trial arrays
ARRAYS = ((16, 8, 10), (128, 64, 3))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulate(work: Path, name: str, text: str) -> tuple[bytes, bytes, bytes]:
    """``trace.csv``, ``trace.json`` and the printed summary of ``beamtrack
    simulate`` on the scenario ``text``, run in the current directory ``work``."""
    cfg = work / f"{name}.ini"
    cfg.write_text(text)
    summary = io.StringIO()
    # a relative --out keeps the summary's "trace written to" line the
    # same in every checkout
    with contextlib.redirect_stdout(summary):
        code = cli_main(["simulate", "--config", cfg.name, "--out", name])
    if code != 0:
        sys.exit(f"trace_digests: simulate exited {code} on config {name}")
    out = work / name
    csv, json = ((out / f"trace.{kind}").read_bytes() for kind in ("csv", "json"))
    return csv, json, summary.getvalue().encode()


def simulate_digests(work: Path):
    for name, text in CONFIGS.items():
        csv, json, summary = simulate(work, name, text)
        yield f"{name} trace.csv   {sha256(csv)}"
        yield f"{name} trace.json  {sha256(json)}"
        yield f"{name} summary     {sha256(summary)}"


def simulate_digest(work: Path, label: str, name: str, text: str) -> str:
    """One sha256 over the three outputs of ``simulate`` (``name`` is in the summary)."""
    return f"{label} simulate  {sha256(b''.join(simulate(work, name, text)))}"


def sweep_digest() -> str:
    table = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(table):
        cfg = Path(tmp) / "sweep.ini"
        cfg.write_text(SWEEP_CONFIG)
        code = cli_main(["sweep", "--config", str(cfg), "--values", "20,10", "--seeds", "5"])
    if code != 0:
        sys.exit(f"trace_digests: sweep exited {code}")
    return f"sweep table  {sha256(table.getvalue().encode())}"


def trial_digest() -> str:
    reprs = [
        repr(run_trial(method, ArrayGeometry(rows, cols), snr, seed, params))
        for rows, cols, seeds in ARRAYS
        for params in PARAMS.values()
        for method in METHODS
        for snr in SNRS_DB
        for seed in range(seeds)
    ]
    return f"run_trial x{len(reprs)}  {sha256(chr(10).join(reprs).encode())}"


def two_ray_trial_digest() -> str:
    link = SignalModel(nlos_gain=0.3)
    reprs = [
        repr(run_trial(method, ArrayGeometry(16, 8), snr, seed, PARAMS["default"], signal=link))
        for method in METHODS
        for snr in SNRS_DB
        for seed in range(10)
    ]
    return f"run_trial nlos x{len(reprs)}  {sha256(chr(10).join(reprs).encode())}"


def high_snr_sequential_digest() -> str:
    reprs = [
        repr(run_trial("sequential", ArrayGeometry(rows, cols), snr, seed, PARAMS[params]))
        for rows, cols, seeds, params in ((16, 8, 10, "default"), (128, 64, 3, "acceptance"))
        for snr in (60.0, 200.0)
        for seed in range(seeds)
    ]
    return f"run_trial sequential 60/200 dB x{len(reprs)}  {sha256(chr(10).join(reprs).encode())}"


def fit_digest() -> str:
    rng = np.random.default_rng(20)
    reprs = []
    for geom in (ArrayGeometry(128, 64), ArrayGeometry(5, 3)):
        phase_sets = [rng.normal(0.0, 3.0, geom.size) for _ in range(3)]
        phase_sets += [np.pi * rng.integers(0, 2, geom.size) for _ in range(3)]
        phase_sets += [
            matched_weights(geom, az, el)
            for az, el in zip(rng.uniform(0.0, 0.1, 3), rng.uniform(-np.pi, np.pi, 3))
        ]
        reprs += [repr(fit_doa(phases, geom)) for phases in phase_sets]
    return f"fit_doa x{len(reprs)}  {sha256(chr(10).join(reprs).encode())}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--expect", metavar="FILE", type=Path,
        help="a saved run of this script: exit 1 and print the lines that differ",
    )
    args = parser.parse_args(argv)
    expected = None
    if args.expect:
        # read first, so that a missing file fails before the 10 s of runs
        try:
            expected = args.expect.read_text().splitlines()
        except OSError as exc:
            parser.error(f"--expect: {exc}")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        previous = os.getcwd()
        os.chdir(work)
        try:
            for line in simulate_digests(work):
                print(line, flush=True)
                lines.append(line)
            for digest in (trial_digest, two_ray_trial_digest, fit_digest,
                           high_snr_sequential_digest, sweep_digest,
                           lambda: simulate_digest(work, "saturating", "S", SATURATING_CONFIG),
                           lambda: simulate_digest(work, "block-edge", "T", BLOCK_EDGE_CONFIG)):
                lines.append(digest())
                print(lines[-1], flush=True)
        finally:
            os.chdir(previous)
    if expected is None:
        return 0
    diff = list(difflib.unified_diff(expected, lines, str(args.expect), "this run", lineterm="", n=0))
    if diff:
        print("\n".join(diff), file=sys.stderr)
        return 1
    print(f"trace_digests: all {len(lines)} lines match {args.expect}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
