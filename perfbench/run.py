"""Benchmark of beamtrack: end-to-end rates untraced, per-layer times traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_ref --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one run each
    python3 perfbench/run.py --steadiness 10 --sets 2  # spread of repeated runs

One run imports beamtrack from ``src/`` of the checkout, times one warm-up
round, then times whole rounds of the workload's unit until ``--seconds``
have passed, checking every unit's output.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
BARE_REF_S = 0.07
MAX_ERRORS_SHOWN = 5


def import_beamtrack():
    """Import the program from this checkout's source tree, nowhere else."""
    if not (SRC / "beamtrack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no beamtrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import beamtrack
    import beamtrack.cli  # the package does not import its CLI module

    if Path(beamtrack.__file__).resolve().parent != (SRC / "beamtrack").resolve():
        sys.exit(f"perfbench: imported beamtrack from {beamtrack.__file__}, not {SRC}")
    return beamtrack


# ------------------------------------------------------------ measuring


# The machine's speed switches between a fast and a slow state every few
# seconds (see README, "Noise").  Each unit's wall time is divided by the
# mean time of a fixed numpy kernel run just before and just after it, so
# a unit timed in the slow state is not counted as slower code.  Rates are
# reported at the reference kernel time CAL_REF_S.
CAL_X = np.linspace(0.0, 1.0, 8192)
CAL_REF_S = 0.005


def calibration_kernel() -> float:
    """Wall time of 20 complex exponentials and inner products of 8192
    elements, the vector work of one beam-weight evaluation."""
    start = time.perf_counter()
    acc = 0j
    for i in range(20):
        w = np.exp(1j * (CAL_X + i))
        acc += np.vdot(w, w)
    return time.perf_counter() - start


def unit_time(samples: list[float]) -> float:
    """The per-run statistic: the median of the calibrated unit times."""
    return statistics.median(samples)


class Tally:
    def __init__(self):
        self.samples: list[float] = []  # calibrated time per work item, good units
        self.attempted = 0
        self.failed = 0
        self.work = 0
        self.errors: list[str] = []
        self.last_kernel = calibration_kernel()

    def absorb(self, other: "Tally") -> None:
        """Add another tally's unit counts and failures (not its timings)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def run_unit(wl, inp, tally: Tally) -> None:
    """Time one unit between two calibration kernels, then check its output."""
    start = time.perf_counter()
    try:
        out = wl.run(inp)
        errors = None
    except Exception as exc:  # a crashing unit is a failed unit
        errors = [f"{type(exc).__name__}: {exc}"]
    taken = time.perf_counter() - start
    kernel = calibration_kernel()
    calibrated = taken / (0.5 * (tally.last_kernel + kernel)) * CAL_REF_S
    tally.last_kernel = kernel
    if errors is None:
        try:
            errors = wl.check(inp, out)
        except Exception as exc:
            errors = [f"check raised {type(exc).__name__}: {exc}"]
    tally.attempted += 1
    if errors:
        tally.failed += 1
        tally.errors += [f"{wl.name} {inp}: {e}" for e in errors][:MAX_ERRORS_SHOWN]
        return
    work = wl.work(inp)
    tally.work += work
    tally.samples.append(calibrated / work)


def run_rounds(wl, seconds: float) -> Tally:
    """Whole rounds until ``seconds`` have passed; at least one round."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while True:
        for inp in wl.next_round():
            run_unit(wl, inp, tally)
        if time.perf_counter() >= deadline:
            return tally


def time_to_ready(command: list[str]) -> float:
    """Wall time from spawning ``command`` until it prints its first line."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as child:
        ready = child.stdout.readline()
        taken = time.perf_counter() - start
        child.stdout.read()
        code = child.wait()
    if ready.strip() != b"ready" or code != 0:
        sys.exit(f"perfbench: {' '.join(command)} failed (exit {code})")
    return taken


def measure_setup(name: str) -> float:
    """Set-up time of fresh processes, from spawn through imports and the
    workload's loading up to where the first unit would start.

    Each probe is divided by the mean of a bare interpreter start just
    before and just after it, which cancels the machine's speed state, and
    the median ratio is reported at the reference start time BARE_REF_S.
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name]
    bare = [sys.executable, "-c", "print('ready')"]
    ratios = []
    before = time_to_ready(bare)
    for _ in range(SETUP_REPEATS):
        taken = time_to_ready(probe)
        after = time_to_ready(bare)
        ratios.append(taken / (0.5 * (before + after)))
        before = after
    return statistics.median(ratios) * BARE_REF_S


def setup_probe(name: str) -> None:
    bt = import_beamtrack()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[name]()
        wl.prepare(bt, Path(tmp), 0)
        print("ready", flush=True)
        wl.close()


# ------------------------------------------------------------ per-layer metrics


# The workload each per-layer metric is read on: where its layer's work is
# largest, and where the end-to-end metric it should move is measured.
KINEMATICS, REFERENCE, ASSP, SEQUENTIAL = (
    "closed_loop_fleet", "simulate_ref", "sweep_assp", "sweep_sequential")
HOME = {
    "sensors.self_us_per_tick": KINEMATICS,
    "fusion.self_us_per_tick": KINEMATICS,
    "mechanical.self_us_per_tick": KINEMATICS,
    "mechanical.stabilization_calls_per_tick": KINEMATICS,
    "frames.self_us_per_tick": KINEMATICS,
    "frames.calls_per_tick": KINEMATICS,
    "channel.self_us_per_tick": REFERENCE,
    "channel.us_per_query": ASSP,
    "channel.ns_per_pair_query": SEQUENTIAL,
    "channel.array_evals_per_iter": ASSP,
    "electrical.self_us_per_iter": ASSP,
    "electrical.diagnostic_share": ASSP,
    "electrical.fit_doa_ms": ASSP,
    "electrical.ms_per_epoch": REFERENCE,
    "electrical.iters_per_epoch": REFERENCE,
    "experiments.self_ms_per_trial": ASSP,
    "harness.self_us_per_tick": KINEMATICS,
    "harness.export_ms": REFERENCE,
    "harness.trace_bytes": REFERENCE,
    "config.load_ms": REFERENCE,
    "cli.self_ms_per_run": REFERENCE,
}


def layer_metrics(sp: tracing.Spans, ticks: int, trace_bytes: int) -> dict:
    def per(total, base):
        return float(total) / base if base else 0.0

    def count(*names):
        return int(sp.mask(*names).sum())

    def inclusive_ns(*names):
        return float(sp.duration[sp.mask(*names)].sum())

    def self_ns(layer, *excluded):
        m = sp.layer_mask(layer)
        if excluded:
            m &= ~sp.mask(*excluded)
        return float(sp.self_ns[m].sum())

    runner = sp.mask(
        "electrical.run_assp", "electrical.run_isotropic_spsa",
        "electrical.run_sequential_perturbation",
    )
    in_runner = sp.under(runner)
    # one noiseless diagnostic per optimizer iteration (ASSP/SPSA) or sweep
    diagnostic = sp.mask("channel.PowerOracle.true_nrsp")
    iterations = int((diagnostic & in_runner).sum())
    evals = sp.mask("channel.weights_from_phases") & in_runner
    diagnostic_evals = evals & sp.under(diagnostic)
    epochs = runner & ~in_runner & sp.under(sp.mask("harness.run_simulation"))
    in_epoch = sp.under(epochs)
    config = sp.layer_mask("config")
    config_loads = config & ~sp.under(config)
    n_epochs = int(epochs.sum())
    runs = count("harness.run_simulation")
    us, ms = 1e3, 1e6
    return {
        "sensors.self_us_per_tick": per(self_ns("sensors") / us, ticks),
        "fusion.self_us_per_tick": per(self_ns("fusion") / us, ticks),
        "mechanical.self_us_per_tick": per(self_ns("mechanical") / us, ticks),
        "mechanical.stabilization_calls_per_tick": per(count("mechanical.stabilization_command"), ticks),
        "frames.self_us_per_tick": per(self_ns("frames") / us, ticks),
        "frames.calls_per_tick": per(int(sp.layer_mask("frames").sum()), ticks),
        "channel.self_us_per_tick": per(self_ns("channel") / us, ticks),
        "channel.us_per_query": per(inclusive_ns("channel.PowerOracle.__call__") / us,
                                    count("channel.PowerOracle.__call__")),
        "channel.ns_per_pair_query": per(inclusive_ns("channel.PowerOracle.sample_pair"),
                                         count("channel.PowerOracle.sample_pair")),
        "channel.array_evals_per_iter": per(int(evals.sum()), iterations),
        "electrical.self_us_per_iter": per(self_ns("electrical", "electrical.fit_doa") / us, iterations),
        "electrical.diagnostic_share": per(int(diagnostic_evals.sum()), int(evals.sum())),
        "electrical.fit_doa_ms": per(inclusive_ns("electrical.fit_doa") / ms, count("electrical.fit_doa")),
        "electrical.ms_per_epoch": per(float(sp.duration[epochs].sum()) / ms, n_epochs),
        "electrical.iters_per_epoch": per(int((diagnostic & in_epoch).sum()), n_epochs),
        "experiments.self_ms_per_trial": per(self_ns("experiments") / ms, count("experiments.run_trial")),
        "harness.self_us_per_tick": per(
            self_ns("harness", "harness.export_csv", "harness.export_json") / us, ticks),
        "harness.export_ms": per(inclusive_ns("harness.export_csv", "harness.export_json") / ms, runs),
        "harness.trace_bytes": float(trace_bytes),
        "config.load_ms": per(float(sp.duration[config_loads].sum()) / ms, int(config_loads.sum())),
        "cli.self_ms_per_run": per(self_ns("cli") / ms, count("cli.cli_main")),
    }


# ------------------------------------------------------------ one run


def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def warmed_up(bt, name: str, workdir: Path, seed: int, counts: Tally):
    """A prepared workload after its untimed warm-up round."""
    wl = workloads.WORKLOADS[name]()
    workdir.mkdir(exist_ok=True)
    wl.prepare(bt, workdir, seed)
    warm = Tally()
    for inp in wl.warmup_round():
        run_unit(wl, inp, warm)
    counts.absorb(warm)
    return wl


def traced_rounds(bt, wl, seconds: float) -> tuple[Tally, tracing.Spans]:
    """The workload's loading and whole rounds for ``seconds``, traced."""
    tracer = tracing.Tracer(bt)
    tracer.install()
    try:
        wl.load()
        tally = run_rounds(wl, seconds)
    finally:
        tracer.uninstall()
    return tally, tracer.spans()


def untraced_metrics(wl, seconds: float, counts: Tally) -> dict:
    tally = run_rounds(wl, seconds)
    counts.absorb(tally)
    return {
        "units_per_s": 1.0 / unit_time(tally.samples) if tally.samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(bt, wl, seconds: float, tmp: Path, seed: int, counts: Tally) -> dict:
    """Per-layer metrics, each from the spans of its home workload: this
    workload's traced half run, or one traced round of another workload."""
    plain = run_rounds(wl, seconds / 2)
    counts.absorb(plain)
    tally, spans = traced_rounds(bt, wl, seconds / 2)
    counts.absorb(tally)
    overhead = (
        unit_time(tally.samples) / unit_time(plain.samples)
        if tally.samples and plain.samples else 0.0
    )
    traced = {wl.name: (wl, tally, spans)}
    for home in sorted(set(HOME.values()) - {wl.name}):
        other = warmed_up(bt, home, tmp / home, seed, counts)
        try:
            t, sp = traced_rounds(bt, other, 0.0)
        finally:
            other.close()
        counts.absorb(t)
        traced[home] = (other, t, sp)
    metrics = {}
    for home, (w, t, sp) in traced.items():
        span_file = OUT / f"spans-{home}.tsv"
        sp.write(span_file)
        print(f"{len(sp.name)} spans of {home} written to {span_file.relative_to(ROOT)}")
        ticks = t.work if w.work_unit == "tick" else 0
        found = layer_metrics(sp, ticks, getattr(w, "trace_bytes", 0))
        metrics.update({k: v for k, v in found.items() if HOME[k] == home})
    metrics["tracing.overhead_ratio"] = overhead
    return metrics


def single_run(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_benchmark_spec()
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    bt = import_beamtrack()
    setup_s = None if trace else measure_setup(name)
    OUT.mkdir(parents=True, exist_ok=True)
    counts = Tally()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = warmed_up(bt, name, Path(tmp) / name, seed, counts)
        try:
            if trace:
                metrics = traced_metrics(bt, wl, seconds, Path(tmp), seed, counts)
            else:
                metrics = untraced_metrics(wl, seconds, counts)
                metrics["setup_s"] = setup_s
        finally:
            wl.close()
    print(f"workload {name}: seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{counts.attempted} units attempted, {counts.failed} failed")
    for e in counts.errors[:MAX_ERRORS_SHOWN]:
        print(f"  FAILED {e}")
    for k in units:
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    print(json.dumps({
        "correct": not counts.errors,
        "attempted": counts.attempted,
        "failed": counts.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


# ------------------------------------------------------------ repeated runs


def child_run(name: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def steadiness(names: list[str], runs: int, sets: int, seconds: float) -> int:
    """``runs`` untraced runs per workload per set, each with another seed;
    prints each end-to-end metric's median and quartiles per set, the
    quartile spread as a share of the median against the metric's bound,
    and how far each set's median lies from the first set's."""
    spec = load_benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in names:
        medians: dict[str, float] = {}
        for s in range(sets):
            results = [child_run(name, 1 + s * runs + i, seconds) for i in range(runs)]
            failed = [r["failed"] / r["attempted"] for r in results]
            print(f"{name} set {s + 1}: {runs} runs, failed share {sorted(set(failed))}, "
                  f"correct {all(r['correct'] for r in results)}")
            for metric, bound in bounds.items():
                values = [r["metrics"][metric]["value"] for r in results]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                drift = (med - medians.setdefault(metric, med)) / medians[metric]
                flag = "" if spread <= bound or metric == "setup_s" else "  SPREAD ABOVE BOUND"
                if abs(drift) > bound:
                    flag += "  MEDIAN MOVED BEYOND BOUND"
                ok &= not flag
                print(f"  {metric:>12}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f} (bound {bound})  vs set 1 {drift:+.3f}{flag}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of " + ", ".join(workloads.WORKLOADS)
                        + ", or all (each workload once, untraced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run N untraced runs per workload and report their spread")
    parser.add_argument("--sets", type=int, default=1, help="sets of --steadiness runs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    seconds = args.seconds if args.seconds is not None else load_benchmark_spec()["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        return steadiness(names, args.steadiness, args.sets, seconds)
    if args.workload != "all":
        return single_run(args.workload, args.seed, seconds, bool(args.trace))
    summary = {}
    for name in names:
        result = child_run(name, args.seed, seconds)
        summary[name] = result
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
