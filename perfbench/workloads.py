"""The benchmark's workloads: set-up, the timed unit, and output checks.

A workload turns the benchmark seed into a stream of rounds; a round is a
fixed list of units, and a run always attempts whole rounds.  ``run`` is
the only timed call.  ``check`` compares the unit's output with the
computations in ``reference`` or with properties the method must have,
and returns the failures it found (an empty list for a good unit).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# A closed-loop unit runs one electrical epoch period of the reference
# scenario: ticks every 10 ms, the first epoch at 5 s, and the run ends
# before the second at 15 s.
CLOSED_LOOP_DURATION_S = 10.0
SAMPLE_PERIOD_S = 0.01
FIRST_EPOCH_S, EPOCH_PERIOD_S = 5.0, 10.0
TICKS = int(round(CLOSED_LOOP_DURATION_S / SAMPLE_PERIOD_S))
EPOCHS = 1
FUSED_BAND_DEG, FUSED_SHARE = 0.5, 0.95
POINTING_BAND_DEG, POINTING_SHARE = 0.5, 0.90

# The acceptance-gate parameter set on the reference array: fixed work per
# trial, because the stall stop is off.
ROWS, COLS, SPACING = 128, 64, 0.5
MAX_ITERS, SEQ_MAX_SWEEPS = 100, 4
SWEEP_PARAMS_TEXT = (
    f"[array]\nrows = {ROWS}\ncols = {COLS}\nspacing_over_wavelength = {SPACING!r}\n"
    f"[electrical]\nmax_iters = {MAX_ITERS}\nstop_window = 1000000000\n"
    f"seq_max_sweeps = {SEQ_MAX_SWEEPS}\n"
)
OFFSET_DEG = 0.3
SNRS_DB = (20.0, 10.0)
EXACT_TOL = 1e-12


class Workload:
    name = ""
    work_unit = ""  # what one unit of work is: "tick" or "trial"
    config_text = ""

    def prepare(self, bt, workdir: Path, seed: int) -> None:
        """Imports are done; load the scenario or parameters for the units."""
        self.bt = bt
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def load(self):
        """The workload's scenario or parameter loading."""
        return self.bt.config.load_scenario_text(self.config_text)

    def new_seed(self) -> int:
        return int(self.rng.integers(1, 2**31 - 1))

    def warmup_round(self) -> list:
        return self.next_round()

    def next_round(self) -> list:
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def work(self, inp) -> int:
        return 1

    def close(self) -> None:
        pass


# ------------------------------------------------------------ closed loop


def closed_loop_text(rows: int | None = None, cols: int | None = None) -> str:
    text = ref.profile_text() + (
        f"[sensors]\nsample_period = {SAMPLE_PERIOD_S!r}\n"
        f"[electrical]\nfirst_epoch = {FIRST_EPOCH_S!r}\nepoch_period = {EPOCH_PERIOD_S!r}\n"
        f"[run]\nduration = {CLOSED_LOOP_DURATION_S!r}\n"
    )
    if rows is not None:
        text += f"[array]\nrows = {rows}\ncols = {cols}\n"
    return text


def check_closed_loop(cols: dict, phase: np.ndarray, tol: float) -> list[str]:
    """Checks shared by both closed-loop workloads on one trace."""
    errors = []
    mech = phase == "mech"
    if int(mech.sum()) != TICKS:
        errors.append(f"mech rows {int(mech.sum())} != duration / sample period {TICKS}")
    t = cols["t"][mech]
    for axis in ("yaw", "pitch", "roll"):
        worst = float(np.max(np.abs(cols[f"{axis}_true_deg"][mech] - ref.profile_deg(axis, t))))
        if not worst <= tol:
            errors.append(f"{axis} truth differs from the profile by {worst:.3g} deg")
    err_tol = 2 * tol
    for axis, wrapped in (("yaw", True), ("pitch", False), ("roll", True)):
        diff = cols[f"{axis}_est_deg"] - cols[f"{axis}_true_deg"]
        if wrapped:
            diff = ref.wrap_deg(diff)
        worst = float(np.max(np.abs(cols[f"{axis}_err_deg"] - diff)))
        if not worst <= err_tol:
            errors.append(f"{axis} error column differs from est - truth by {worst:.3g} deg")
    nrsp = cols["nrsp"]
    if not (np.all(nrsp >= 0.0) and np.all(nrsp <= 1.0 + EXACT_TOL)):
        errors.append("nrsp outside [0, 1]")
    errors += _check_query_counts(phase, cols["elec_iteration"], cols["oracle_queries"])
    att = np.max(np.abs(np.stack([cols[f"{a}_err_deg"][mech] for a in ("yaw", "pitch", "roll")])), axis=0)
    share = float(np.mean(att <= FUSED_BAND_DEG))
    if share < FUSED_SHARE:
        errors.append(f"fused error <= {FUSED_BAND_DEG} deg on {share:.3f} of ticks")
    point = np.maximum(np.abs(cols["azimuth_err_deg"][mech]), np.abs(cols["elevation_err_deg"][mech]))
    share = float(np.mean(point <= POINTING_BAND_DEG))
    if share < POINTING_SHARE:
        errors.append(f"pointing error <= {POINTING_BAND_DEG} deg on {share:.3f} of ticks")
    return errors


def _check_query_counts(phase, iteration, queries) -> list[str]:
    """Mech rows carry the running total; electrical row i of an epoch adds
    QUERIES_PER_ITER * i to the total before the epoch."""
    total = 0
    epochs = 0
    prev_iter = 0
    for kind, it, q in zip(phase.tolist(), iteration.tolist(), queries.tolist()):
        if kind == "mech":
            if prev_iter:
                total += ref.QUERIES_PER_ITER * prev_iter
                prev_iter = 0
            if q != total:
                return [f"mech row carries {q} queries, expected {total}"]
        else:
            if it != prev_iter + 1:
                return [f"electrical iteration {it} follows {prev_iter}"]
            if it == 1:
                epochs += 1
            if q != total + ref.QUERIES_PER_ITER * it:
                return [f"electrical row {it} carries {q} queries, expected "
                        f"{total + ref.QUERIES_PER_ITER * it}"]
            prev_iter = it
    if epochs != EPOCHS:
        return [f"{epochs} electrical epochs, expected {EPOCHS}"]
    return []


class ClosedLoop(Workload):
    work_unit = "tick"

    def work(self, inp) -> int:
        return TICKS

    def warmup_round(self) -> list:
        # the first timed unit repeats the warm-up seed: a determinism check
        self.repeat_seed = self.new_seed()
        self.first = [self.repeat_seed]
        return [self.repeat_seed]

    def next_round(self) -> list:
        if self.first:
            return [self.first.pop()]
        return [self.new_seed()]


class SimulateRef(ClosedLoop):
    """``beamtrack simulate`` on the reference scenario, CSV and JSON export."""

    name = "simulate_ref"
    config_text = closed_loop_text()

    def prepare(self, bt, workdir, seed):
        super().prepare(bt, workdir, seed)
        self.scenario = workdir / "simulate_ref.ini"
        self.scenario.write_text(self.config_text)
        self.load()
        self.out = workdir / "simulate_ref_out"
        self.repeat_bytes = None

    def load(self):
        return self.bt.config.load_scenario(self.scenario)

    def run(self, seed):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.bt.cli.cli_main(
                ["simulate", "--config", str(self.scenario), "--seed", str(seed),
                 "--out", str(self.out)]
            )
        return code, stdout.getvalue()

    def check(self, seed, out) -> list[str]:
        code, stdout = out
        if code != 0:
            return [f"simulate exited {code}"]
        csv_bytes = (self.out / "trace.csv").read_bytes()
        json_bytes = (self.out / "trace.json").read_bytes()
        self.trace_bytes = len(csv_bytes) + len(json_bytes)
        if seed == self.repeat_seed:
            if self.repeat_bytes is None:
                self.repeat_bytes = (csv_bytes, json_bytes)
            elif self.repeat_bytes != (csv_bytes, json_bytes):
                return ["repeated seed gave a different trace"]
        lines = csv_bytes.decode().splitlines()
        header = lines[1].split(",")
        cells = [line.split(",") for line in lines[2:]]
        payload = json.loads(json_bytes)
        if payload["columns"] != header or len(payload["rows"]) != len(cells):
            return ["JSON trace does not mirror the CSV trace"]
        phase_at = header.index("phase")
        if any(
            [float(c) if j != phase_at else c for j, c in enumerate(row)] != jrow
            for row, jrow in zip(cells, payload["rows"])
        ):
            return ["JSON trace values differ from the CSV trace"]
        phase = np.array([row[phase_at] for row in cells])
        cols = {
            name: np.array([float(row[j]) for row in cells])
            for j, name in enumerate(header) if j != phase_at
        }
        mech = int((phase == "mech").sum())
        if f"ticks = {mech}, electrical rows = {len(cells) - mech}" not in stdout:
            return ["simulate summary does not match the trace"]
        # 9 significant digits of values up to 10 deg
        return check_closed_loop(cols, phase, 1e-7)


class ClosedLoopFleet(ClosedLoop):
    """``harness.run_simulation`` of one seed after another on a 16x8 array."""

    name = "closed_loop_fleet"
    config_text = closed_loop_text(16, 8)

    def prepare(self, bt, workdir, seed):
        super().prepare(bt, workdir, seed)
        self.cfg = self.load()
        self.repeat_records = None

    def run(self, seed):
        self.cfg.run.seed = seed
        return self.bt.harness.run_simulation(self.cfg)

    def check(self, seed, records) -> list[str]:
        if seed == self.repeat_seed:
            if self.repeat_records is None:
                self.repeat_records = records
            elif self.repeat_records != records:
                return ["repeated seed gave a different trace"]
        phase = np.array([r.phase for r in records])
        cols = {
            c: np.array([getattr(r, c) for r in records], dtype=float)
            for c in self.bt.harness.TRACE_COLUMNS if c != "phase"
        }
        return check_closed_loop(cols, phase, 1e-9)


# ------------------------------------------------------------ sweeps


class Sweep(Workload):
    """Convergence trials of one method at 128x64 and 0.3 deg/axis, one
    trial at each SNR per round, as ``beamtrack sweep`` runs them:
    offset_channel -> PowerOracle -> runner -> fit_doa."""

    method = ""
    work_unit = "trial"
    config_text = SWEEP_PARAMS_TEXT

    def prepare(self, bt, workdir, seed):
        super().prepare(bt, workdir, seed)
        cfg = self.load()
        self.geom = cfg.array
        self.params = cfg.electrical.params
        u_r, u_c = ref.offset_direction_sines(OFFSET_DEG)
        self.r, self.c = ref.plane_wave_factors(ROWS, COLS, SPACING, u_r, u_c)
        self.h_ref = np.kron(self.c, self.r)  # column-major vec of r c^T
        self.start_nrsp = ref.zero_phase_nrsp(ROWS, COLS, SPACING, u_r, u_c)
        # Keep each trial's runner output (run_trial returns only statistics)
        # by recording through the method table the sweep dispatches on.  The
        # runner is looked up at call time, so a traced run sees it wrapped.
        self.table = bt.experiments.METHOD_RUNNERS
        self.original = self.table[self.method]
        runner_name = self.original.__name__
        self.captured = []

        def recorder(initial, oracle, params, rng, geom):
            phases, trace = getattr(bt.electrical, runner_name)(initial, oracle, params, rng, geom)
            self.captured.append((initial, oracle, phases, trace))
            return phases, trace

        self.table[self.method] = recorder

    def close(self):
        self.table[self.method] = self.original

    def next_round(self) -> list:
        return [(snr, self.new_seed()) for snr in SNRS_DB]

    def run(self, inp):
        snr, trial_seed = inp
        self.captured.clear()
        return self.bt.experiments.run_trial(
            self.method, self.geom, snr, trial_seed, self.params, offset_deg=OFFSET_DEG
        )

    def check(self, inp, result) -> list[str]:
        if len(self.captured) != 1:
            return [f"{len(self.captured)} runner calls in one trial"]
        initial, oracle, phases, trace = self.captured[0]
        errors = []
        if np.any(initial != 0.0):
            errors.append("trial did not start from zero phase")
        h = np.asarray(oracle.h_vec)
        if h.shape != self.h_ref.shape or not float(np.max(np.abs(h - self.h_ref))) <= EXACT_TOL:
            errors.append("trial channel differs from the plane wave")
        z0 = self.bt.channel.nrsp(np.zeros(h.size), h)
        if not abs(z0 - self.start_nrsp) <= EXACT_TOL:
            errors.append(f"zero-phase nrsp {z0!r} != Dirichlet value {self.start_nrsp!r}")
        final = ref.nrsp_separable(phases, self.r, self.c)
        if not (abs(final - trace.nrsp[-1]) <= EXACT_TOL and result.final_nrsp == trace.nrsp[-1]):
            errors.append(f"final nrsp {trace.nrsp[-1]!r} != recomputed {final!r}")
        if self.method == "sequential":
            per_row = ref.sequential_queries_per_sweep(ROWS * COLS)
            rows = SEQ_MAX_SWEEPS
        else:
            per_row = ref.QUERIES_PER_ITER
            rows = MAX_ITERS
        if len(trace) != rows or trace.queries != [per_row * (i + 1) for i in range(rows)]:
            errors.append(f"query counts break {per_row} per row over {rows} rows")
        if not oracle.queries == result.queries == trace.queries[-1]:
            errors.append("oracle, trace and trial query totals differ")
        if self.method == "assp" and not final > self.start_nrsp:
            errors.append(f"assp final nrsp {final:.4f} <= start {self.start_nrsp:.4f}")
        if not (math.isfinite(result.fit_azimuth_err_deg) and math.isfinite(result.fit_elevation_err_deg)):
            errors.append("fitted arrival angles are not finite")
        return errors


class SweepAssp(Sweep):
    name = "sweep_assp"
    method = "assp"


class SweepSpsa(Sweep):
    name = "sweep_spsa"
    method = "spsa"


class SweepSequential(Sweep):
    name = "sweep_sequential"
    method = "sequential"


WORKLOADS = {w.name: w for w in (SimulateRef, ClosedLoopFleet, SweepAssp, SweepSpsa, SweepSequential)}
