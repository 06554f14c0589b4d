import json
import math
from typing import get_type_hints

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical
from beamtrack.config import load_scenario_text
from beamtrack.frames import SingularityError
from beamtrack.sensors import ProfileConfig, Sinusoid
from beamtrack.harness import (
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    TraceRecord,
    beam_frame_arrival,
    export_csv,
    export_json,
    run_simulation,
)

D2R = math.pi / 180.0
COLUMN_TYPES = get_type_hints(TraceRecord)
FLOAT_COLUMNS = [c for c in TRACE_COLUMNS if COLUMN_TYPES[c] is float]


def format_value(value) -> str:
    """Reference cell of the trace CSV: 9 significant digits for a float,
    str() otherwise, chosen by the value's runtime type."""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def reference_csv(records) -> str:
    """Reference trace CSV, formatted cell by cell."""
    lines = [f"# {TRACE_SCHEMA}", ",".join(TRACE_COLUMNS)]
    for rec in records:
        lines.append(",".join(format_value(getattr(rec, c)) for c in TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_csv(path):
    """Read back an exported CSV: (columns, rows), each cell typed by its
    column's annotation on ``TraceRecord``."""
    schema, header, *lines = path.read_text().splitlines()
    assert schema == f"# {TRACE_SCHEMA}"
    columns = header.split(",")
    kinds = [COLUMN_TYPES[name] for name in columns]
    return columns, [[kind(cell) for kind, cell in zip(kinds, line.split(","))] for line in lines]


def reference_json(records) -> str:
    """Reference trace JSON: each float is the float of its CSV cell,
    through the generic encoder."""
    payload = {
        "schema": TRACE_SCHEMA,
        "columns": TRACE_COLUMNS,
        "rows": [
            [
                float(f"{v:.9g}") if isinstance(v, float) else v
                for v in (getattr(rec, c) for c in TRACE_COLUMNS)
            ]
            for rec in records
        ],
    }
    return json.dumps(payload, indent=1) + "\n"


# float cells that the digest configs never reach: signed zero, integral
# values (t reads 1.0 at tick 100), the 9-digit integer limit and beyond,
# negative exponents down to the subnormals, nan/inf and a numpy float
EDGE_FLOATS = [
    -0.0, 5.0, 1.0, 123456789.0, 1.5e9, 1e-05, 1.23456789e-05, 5e-324, 2.5e-310,
    1e300, float("nan"), float("inf"), float("-inf"), np.float64(2.0) / 3.0,
]


def small_scenario(extra=""):
    return load_scenario_text(
        """
        [array]
        rows = 16
        cols = 8
        [run]
        duration = 6
        seed = 3
        [electrical]
        max_iters = 10
        first_epoch = 3.0
        epoch_period = 10.0
        """
        + extra
    )


class TestBeamFrameArrival:
    def test_perfect_pointing_is_broadside(self):
        euler = mechanical.pointing_euler(mechanical.GeoConfig())
        c_n_b = frames.c_n_b(frames.Attitude(0.2, -0.1, 0.3))[None]
        commands = mechanical.stabilization_command(c_n_b, euler)
        [(az, el)] = beam_frame_arrival(commands, c_n_b, euler)
        assert az == pytest.approx(0.0, abs=1e-10)

    def test_known_offset_magnitude(self):
        euler = mechanical.pointing_euler(mechanical.GeoConfig())
        c_n_b = frames.c_n_b(frames.Attitude(0.0, 0.0, 0.0))[None]
        [ideal] = mechanical.stabilization_command(c_n_b, euler)
        # pure polarization-axis rotation tilts the arrival off-normal by
        # exactly the elevation perturbation
        off = ideal._replace(elevation=ideal.elevation + 0.3 * D2R)
        [(az, el)] = beam_frame_arrival([off], c_n_b, euler)
        assert az == pytest.approx(0.3 * D2R, abs=1e-9)

    def test_stack_equals_one_row_stacks(self):
        # the satellite of a zero pointing solution lies on the NED x axis,
        # so zero gimbal angles on a level vehicle put it on the array
        # normal: transverse 0, elevation 0.0
        euler = mechanical.PointingEuler(0.0, 0.0, 0.0)
        rng = np.random.default_rng(5)
        angles = rng.uniform(-1.5, 1.5, (40, 3))
        attitudes = rng.uniform(-1.5, 1.5, (40, 3))
        angles[7] = attitudes[7] = 0.0
        c_n_b = frames.c_n_b(frames.Attitude(*attitudes.T.copy()))
        stack = beam_frame_arrival(angles, c_n_b, euler)
        rows = [beam_frame_arrival(a[None], m[None], euler)[0] for a, m in zip(angles, c_n_b)]
        assert np.array(stack).tobytes() == np.array(rows).tobytes()
        assert stack[7] == (0.0, 0.0)


class TestRunSimulation:
    def test_record_counts(self):
        cfg = small_scenario()
        records = run_simulation(cfg)
        mech = [r for r in records if r.phase == "mech"]
        elec = [r for r in records if r.phase == "elec"]
        assert len(mech) == int(cfg.run.duration / cfg.sensors.sample_period)
        assert len(records) == len(mech) + len(elec)
        assert len(elec) >= 1  # one epoch at t=3

    def test_deterministic_repeat(self):
        a = run_simulation(small_scenario())
        b = run_simulation(small_scenario())
        assert a == b

    def test_different_seed_differs(self):
        a = run_simulation(small_scenario())
        b = run_simulation(small_scenario(extra="[sensors]\ngyro_bias = 0.003\n"))
        assert a != b

    def test_quiet_static_scenario_reaches_full_power(self):
        cfg = load_scenario_text(
            """
            [array]
            rows = 16
            cols = 8
            [profile]
            yaw =
            pitch =
            roll =
            [sensors]
            gyro_white_sigma = 0
            gyro_bias = 0
            accel_white_sigma = 0
            gps_yaw_sigma_deg = 0
            [run]
            duration = 2
            seed = 1
            [electrical]
            first_epoch = 100
            """
        )
        records = run_simulation(cfg)
        assert all(r.phase == "mech" for r in records)
        assert records[-1].nrsp == pytest.approx(1.0, abs=1e-9)
        assert abs(records[-1].azimuth_err_deg) < 1e-6

    def test_attitude_error_columns_consistent(self):
        records = run_simulation(small_scenario())
        r = records[100]
        assert r.yaw_err_deg == pytest.approx(r.yaw_est_deg - r.yaw_true_deg, abs=1e-9)

    def test_electrical_rows_carry_iterations(self):
        records = run_simulation(small_scenario())
        elec = [r for r in records if r.phase == "elec"]
        assert [r.elec_iteration for r in elec] == list(range(1, len(elec) + 1))
        assert all(r.oracle_queries >= 2 * r.elec_iteration for r in elec)

    def test_two_dcms_per_tick(self, monkeypatch):
        # a tick and its trace row build the gimbal's c_b_t and the truth's
        # c_n_b through frames._zyx, each stage in one stacked call per
        # block; the estimate's DCM comes from its quaternion, and the
        # truth's serves both the arrival and the error
        stacks = []
        zyx = frames._zyx

        def counted(*angles):
            dcm = zyx(*angles)
            if dcm.ndim == 3:
                stacks.append(len(dcm))
            return dcm

        monkeypatch.setattr(frames, "_zyx", counted)
        calls, dcms = [], []
        for duration in (1, 12):
            stacks.clear()
            run_simulation(load_scenario_text(
                f"[array]\nrows = 4\ncols = 4\n[run]\nduration = {duration}\n"
                "[electrical]\nfirst_epoch = 100\n"
            ))
            calls.append(len(stacks))
            dcms.append(sum(stacks))
        assert dcms[1] - dcms[0] == 2 * 1100  # 1100 ticks of 0.01 s
        assert calls[1] - calls[0] == 2  # one block more: its truth and its gimbal

    @pytest.mark.parametrize("gravity", ["0.0383203125", "0.01"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_fused_pitch_pole_runs_to_a_finite_trace(self, gravity, seed):
        # garbage gyro rates and a saturated accelerometer can carry the fused
        # estimate to pitch +/-90 deg; its Euler angles then read the
        # pole convention of frames.zyx_angles instead of raising
        cfg = load_scenario_text(
            "[array]\nrows = 4\ncols = 4\n[run]\nduration = 0.5\n"
            f"seed = {seed}\n[sensors]\ngyro_white_sigma = 1e6\ngravity = {gravity}\n"
        )
        records = run_simulation(cfg)
        assert len(records) == 50
        cells = [getattr(r, c) for r in records for c in TRACE_COLUMNS if c != "phase"]
        assert all(math.isfinite(v) for v in cells)


def reference_step(cfg, euler, prev: harness.Tick, sensed: harness.Sensed) -> harness.Tick:
    """The closed-loop tick after ``prev``, on its own: fuse the readings of
    ``sensed``, command the gimbal to the stabilization solution, isolate the
    measured body rates, servo, and take the arrival."""
    t_s = cfg.sensors.sample_period
    prior = fusion.predict(prev.filter_state, sensed.omega_m, t_s)
    state = fusion.update(prior, fusion.align(sensed.z, prior.q))
    c_n_b, est = fusion.estimate(state.q)
    [target] = mechanical.stabilization_command(c_n_b[None], euler)
    isolation = mechanical.isolation_rates(prev.gimbal.angles, sensed.omega_m)
    gimbal = mechanical.gimbal_step(prev.gimbal, target, isolation, cfg.servo, t_s)
    [arrival] = beam_frame_arrival([gimbal.angles], sensed.c_n_b_truth[None], euler)
    return harness.Tick(sensed, state, c_n_b, est, gimbal, arrival)


CHUNK = harness._SENSE_CHUNK


def tick_bits(tick) -> bytes:
    """Every float of a tick, its flags included, as bytes."""
    s, state, gimbal = tick.sensed, tick.filter_state, tick.gimbal
    values = [
        s.t, *s.truth, *(s.omega_m or ()), *s.pitch_roll, s.psi_m, *s.ideal,
        *state[1:], *tick.est, *gimbal.angles, gimbal.rate_clamped, *tick.arrival,
    ]
    arrays = (values, s.z, s.c_n_b_truth, state.q, tick.c_n_b)
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


class TestTicks:
    # whole blocks, and a trailing block of one tick
    @pytest.mark.parametrize("steps", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_ticks_equal_step_by_step(self, steps):
        # the loop runs _SENSE_CHUNK ticks at a time through its stages; the
        # step on ticks sensed one at a time reads the same bits
        cfg = small_scenario()
        euler = mechanical.pointing_euler(cfg.geo)
        t_s = cfg.sensors.sample_period
        loop = list(harness.ticks(cfg, euler, np.random.default_rng(4), steps))
        rng = np.random.default_rng(4)
        want = [harness.start(cfg, euler, rng)]
        for k in range(1, steps + 1):
            [sensed] = harness.sense(cfg, euler, np.array([k * t_s]), rng)
            want.append(reference_step(cfg, euler, want[-1], sensed))
        assert [tick_bits(t) for t in loop] == [tick_bits(t) for t in want]

    def test_a_block_that_raises_yields_none_of_its_ticks(self):
        # the pitch passes 90 deg at t = 14.85 s, on tick 1485 of the second block
        cfg = small_scenario()
        cfg.profile = ProfileConfig(pitch=[Sinusoid(100 * D2R, 0.012)])
        done = []
        with pytest.raises(SingularityError):
            for tick in harness.ticks(cfg, mechanical.pointing_euler(cfg.geo),
                                      np.random.default_rng(0), 2 * CHUNK):
                done.append(tick)
        assert len(done) == 1 + CHUNK


class TestExport:
    def test_csv_header_and_shape(self, tmp_path):
        records = run_simulation(small_scenario())
        path = tmp_path / "trace.csv"
        export_csv(records, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# beamtrack-trace")
        assert text[1].split(",") == TRACE_COLUMNS
        assert len(text) == 2 + len(records)
        widths = {len(line.split(",")) for line in text[1:]}
        assert widths == {len(TRACE_COLUMNS)}

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert path.read_bytes() == reference_csv([]).encode()
        export_json([], tmp_path / "empty.json")
        assert (tmp_path / "empty.json").read_bytes() == reference_json([]).encode()

    def test_csv_round_trip(self, tmp_path):
        records = run_simulation(small_scenario())
        path = tmp_path / "trace.csv"
        export_csv(records, path)
        columns, rows = parse_csv(path)
        assert columns == TRACE_COLUMNS
        assert len(rows) == len(records)
        for rec, row in zip(records[:50], rows[:50]):
            for name, cell in zip(columns, row):
                want = getattr(rec, name)
                assert type(cell) is type(want), name
                if isinstance(want, float):
                    assert cell == pytest.approx(want, rel=1e-8, abs=1e-12)
                else:
                    assert cell == want

    def test_json_mirrors_columns(self, tmp_path):
        records = run_simulation(small_scenario())
        path = tmp_path / "trace.json"
        export_json(records, path)
        payload = json.loads(path.read_text())
        assert payload["columns"] == TRACE_COLUMNS
        assert len(payload["rows"]) == len(records)
        assert all(len(row) == len(TRACE_COLUMNS) for row in payload["rows"])

    def test_bytes_match_reference_writer(self, tmp_path):
        records = run_simulation(small_scenario())
        export_csv(records, tmp_path / "trace.csv")
        export_json(records, tmp_path / "trace.json")
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(records).encode()
        assert (tmp_path / "trace.json").read_bytes() == reference_json(records).encode()

    def test_edge_cells(self, tmp_path):
        # every float column of one record holds one edge value, shifted by
        # one column per record, so each value meets each column
        records = []
        for i in range(len(EDGE_FLOATS)):
            cells = {
                c: EDGE_FLOATS[(i + j) % len(EDGE_FLOATS)] for j, c in enumerate(FLOAT_COLUMNS)
            }
            records.append(TraceRecord(
                phase=("mech", "elec")[i % 2], elec_iteration=i, oracle_queries=10**12 + i,
                rate_clamped=i % 2, **cells,
            ))
        export_csv(records, tmp_path / "trace.csv")
        export_json(records, tmp_path / "trace.json")
        csv_text = (tmp_path / "trace.csv").read_text()
        json_text = (tmp_path / "trace.json").read_text()
        assert csv_text == reference_csv(records)
        assert json_text == reference_json(records)
        # in the indent=1 layout each row cell is one line indented by three
        tokens = [
            line.strip().rstrip(",") for line in json_text.splitlines()
            if line.startswith("   ")
        ]
        cells = [cell for line in csv_text.splitlines()[2:] for cell in line.split(",")]
        assert len(tokens) == len(cells) == len(records) * len(TRACE_COLUMNS)
        for k, (token, cell) in enumerate(zip(tokens, cells)):
            name = TRACE_COLUMNS[k % len(TRACE_COLUMNS)]
            if name in FLOAT_COLUMNS:
                assert token == json.dumps(float(cell)), (name, cell)
            elif name == "phase":
                assert token == json.dumps(cell)
            else:
                assert token == cell

    @pytest.mark.parametrize("method", ["assp", "spsa", "sequential"])
    def test_cells_hold_their_declared_types(self, method):
        # the writer formats by declared column type, so run_simulation
        # (mechanical rows and the _replace(...) electrical rows of each
        # runner) must put a float in every float column and an int in
        # every int column
        # (the extra text opens inside small_scenario's [electrical])
        records = run_simulation(small_scenario(
            f"method = {method}\n[signal]\nnlos_gain = 0.3\n"
        ))
        assert {r.phase for r in records} == {"mech", "elec"}
        for rec in records:
            for name in TRACE_COLUMNS:
                value, kind = getattr(rec, name), COLUMN_TYPES[name]
                assert isinstance(value, float) if kind is float else type(value) is kind, name
