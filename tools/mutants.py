"""The mutant gate: deliberate faults that the test suite must catch.

Each mutant is one edit of one source file, (file, old text, new text),
whose old text occurs exactly once in that file.  For each mutant the tool
copies the tree (without ``.git`` and caches) into a temporary directory,
applies the edit there, runs the Tier-1 suite in that copy, and prints how
many tests fail that pass on the unmutated tree.  A mutant is killed when
that number is above zero.  The unmutated copy runs first, for the tests
that fail without any edit (the acceptance criteria the README lists).

It takes no options, runs one suite at a time, and exits 1 if any mutant
survives, or if an old text is missing or not unique:

    python3 tools/mutants.py

Each suite takes 40-60 s on a 2-vCPU x86-64 machine, so the whole gate
takes 7-12 minutes.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

# (name, file, old text, new text)
MUTANTS = [
    ("swapped probe noises", "src/beamtrack/electrical.py",
     "n_plus, n_minus = oracle.noise_terms(2)", "n_minus, n_plus = oracle.noise_terms(2)"),
    ("flipped sign in the signed rotation", "src/beamtrack/electrical.py",
     "p = np.exp(-1j * (offset[:1] * signs[:1]))", "p = np.exp(1j * (offset[:1] * signs[:1]))"),
    ("skipped last phase step", "src/beamtrack/electrical.py",
     "        phases += step\n",
     "        if k + 1 < params.max_iters:\n            phases += step\n"),
    ("hemisphere sign dropped", "src/beamtrack/fusion.py",
     "        if d < 0.0:\n            z0, z1, z2, z3 = -z0, -z1, -z2, -z3\n", ""),
    ("norm taken of the prior", "src/beamtrack/fusion.py",
     "v = np.array((q0, q1, q2, q3))", "v = np.array((p0, p1, p2, p3))"),
    ("polarization clamp flag not set", "src/beamtrack/mechanical.py",
     "rate_pol, clamped = copysign(limit, rate_pol), True",
     "rate_pol = copysign(limit, rate_pol)"),
    ("azimuth stop skipped", "src/beamtrack/mechanical.py",
     "az = min(stop, max(-stop, wrap(az + rate_az * t_s)))", "az = wrap(az + rate_az * t_s)"),
    ("accelerometer and GPS draws swapped", "src/beamtrack/sensors.py",
     # the GPS draw taken before the accelerometer's three
     "    f += noise.accel_white_sigma", "    draws[:, -4:] = np.roll(draws[:, -4:], -1, axis=1)\n"
     "    f += noise.accel_white_sigma"),
    ("block edge off by one", "src/beamtrack/harness.py",
     "min(first + _SENSE_CHUNK, steps + 1)", "min(first + _SENSE_CHUNK + 1, steps + 1)"),
    ("epoch row reading the new weights", "src/beamtrack/harness.py",
     "                base = records[-1]\n",
     "                records[-1] = records[-1]._replace(nrsp=cfg.signal.channel(\n"
     "                    cfg.array, [block.arrival[epoch]]).nrsp(wbar)[0])\n"
     "                base = records[-1]\n"),
    ("summary nrsp of the first row", "src/beamtrack/cli.py",
     "self.final_nrsp = records[-1].nrsp", "self.final_nrsp = records[0].nrsp"),
    ("summary without the pitch error", "src/beamtrack/cli.py",
     "abs(r.pitch_err_deg), ", ""),
]

# a short-summary line: FAILED or ERROR, the test id, then " - " and the message
_FAILED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", re.MULTILINE)


def failing_tests(tree: Path) -> set[str]:
    """The ids of the tests that fail or error in ``tree``."""
    env = {**os.environ, "PYTHONPATH": "src"}
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    return set(_FAILED.findall(out.stdout))


def copy_tree(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    return tree


def main() -> int:
    for _, file, old, _ in MUTANTS:  # every edit applies before any suite runs
        count = (ROOT / file).read_text().count(old)
        if count != 1:
            print(f"{file}: the old text occurs {count} times, not once:\n{old}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        baseline = failing_tests(copy_tree(Path(tmp)))
    print(f"unmutated: {len(baseline)} failing tests", flush=True)
    survivors = 0
    for name, file, old, new in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            (tree / file).write_text((tree / file).read_text().replace(old, new))
            failed = failing_tests(tree)
        caught = len(failed - baseline)
        survivors += caught == 0
        print(f"{name}: {caught} failing tests{'' if caught else '  SURVIVED'}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
