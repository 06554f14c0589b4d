import json
import math
from typing import NamedTuple, get_type_hints

import numpy as np
import pytest

from beamtrack import electrical, frames, fusion, harness, mechanical
from beamtrack.channel import PowerOracle, conj_weight_matrix
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
from test_channel import reference_nrsp, reference_terms, reference_vec
from test_fusion import align, predict, update
from test_mechanical import gimbal_step
from test_sensors import Sensed, sensed_ticks

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


class Tick(NamedTuple):
    """One tick of the closed loop, and the loop state for the next."""

    sensed: Sensed
    filter_state: fusion.FilterState
    command: mechanical.GimbalAngles  # stabilization command of the estimate
    est: tuple  # the estimate's yaw/pitch/roll
    gimbal: mechanical.GimbalState
    arrival: tuple[float, float]  # (azimuth, elevation) of beam_frame_arrival


def ticks_of(block: harness.Block) -> list[Tick]:
    """The columns of ``block``, one record per tick."""
    return list(map(
        Tick, sensed_ticks(block), block.filter_state, block.command, block.est, block.gimbal,
        block.arrival,
    ))


def loop_ticks(cfg, euler, rng, steps) -> list[Tick]:
    """Every tick of ``harness.blocks``, the start's included."""
    return [tick for block in harness.blocks(cfg, euler, rng, steps) for tick in ticks_of(block)]


def reference_step(cfg, euler, prev: Tick, sensed: Sensed) -> Tick:
    """The closed-loop tick after ``prev``, on its own: fuse the readings of
    ``sensed``, command the gimbal to the stabilization solution, isolate the
    measured body rates, servo, and take the arrival."""
    t_s = cfg.sensors.sample_period
    prior = predict(prev.filter_state, sensed.omega_m, t_s)
    state = update(prior, align(sensed.z, prior.q))
    c_n_b, [est] = fusion.estimate(state.q[None])
    [target] = mechanical.stabilization_command(c_n_b, euler)
    isolation = mechanical.isolation_rates(prev.gimbal.angles, sensed.omega_m)
    gimbal = gimbal_step(prev.gimbal, target, isolation, cfg.servo, t_s)
    [arrival] = beam_frame_arrival([gimbal.angles], sensed.c_n_b_truth[None], euler)
    return Tick(sensed, state, target, est, gimbal, arrival)


CHUNK = harness._SENSE_CHUNK


def tick_bits(tick) -> bytes:
    """Every float of a tick, its flags included, as bytes."""
    s, state, gimbal = tick.sensed, tick.filter_state, tick.gimbal
    values = [
        s.t, *s.truth, *(s.omega_m or ()), *s.pitch_roll, s.psi_m, *s.ideal,
        *state[1:], *tick.command, *tick.est, *gimbal.angles, gimbal.rate_clamped,
        *tick.arrival,
    ]
    arrays = (values, s.z, s.c_n_b_truth, state.q)
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays)


class TestTicks:
    # whole blocks, a trailing block of one tick, and a partial last block
    @pytest.mark.parametrize("steps", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * CHUNK + 300])
    def test_ticks_equal_step_by_step(self, steps):
        # the loop runs _SENSE_CHUNK ticks at a time through its stages; the
        # step on ticks sensed one at a time reads the same bits
        cfg = small_scenario()
        euler = mechanical.pointing_euler(cfg.geo)
        t_s = cfg.sensors.sample_period
        sizes = [len(b.t) for b in harness.blocks(cfg, euler, np.random.default_rng(4), steps)]
        assert sizes == [1] + [CHUNK] * (steps // CHUNK) + [steps % CHUNK] * (steps % CHUNK > 0)
        loop = loop_ticks(cfg, euler, np.random.default_rng(4), steps)
        rng = np.random.default_rng(4)
        want = ticks_of(next(harness.blocks(cfg, euler, rng, 0)))
        for k in range(1, steps + 1):
            [sensed] = sensed_ticks(harness.sense(cfg, euler, np.array([k * t_s]), rng))
            want.append(reference_step(cfg, euler, want[-1], sensed))
        assert [tick_bits(t) for t in loop] == [tick_bits(t) for t in want]

    def test_a_block_that_raises_yields_none_of_its_ticks(self):
        # the pitch passes 90 deg at t = 14.85 s, on tick 1485 of the second block
        cfg = small_scenario()
        cfg.profile = ProfileConfig(pitch=[Sinusoid(100 * D2R, 0.012)])
        done = []
        with pytest.raises(SingularityError):
            for block in harness.blocks(cfg, mechanical.pointing_euler(cfg.geo),
                                        np.random.default_rng(0), 2 * CHUNK):
                done += block.t
        assert len(done) == 1 + CHUNK


def reference_run(cfg) -> list[TraceRecord]:
    """``run_simulation`` with a readout per tick: each tick's channel built
    and read on its own (``test_channel``'s per-arrival reference), its
    errors wrapped by ``frames.wrap_angle``, and each epoch's oracle on the
    vector of its tick's channel."""
    sensor_rng, channel_rng, perturb_rng = harness.streams(cfg.run.seed)
    loop = loop_ticks(cfg, mechanical.pointing_euler(cfg.geo), sensor_rng, cfg.ticks)
    phases = np.zeros(cfg.array.size)
    wbar = conj_weight_matrix(phases, cfg.array)
    next_epoch = cfg.electrical.first_epoch
    total_queries = 0
    records = []
    for tick in loop[1:]:  # the start at t = 0 is not recorded
        sensed, gimbal = tick.sensed, tick.gimbal
        terms = reference_terms(cfg.signal, cfg.array, *tick.arrival)
        angles = (
            *sensed.truth, *tick.est, *harness.attitude_error(tick.est, sensed.truth),
            *gimbal.angles, *mechanical.pointing_error(gimbal, sensed.ideal),
        )
        base = TraceRecord(
            sensed.t, "mech", *(a * harness.R2D for a in angles),
            reference_nrsp(terms, wbar), 0, total_queries, int(gimbal.rate_clamped),
        )
        records.append(base)
        if sensed.t >= next_epoch - 1e-12:
            next_epoch += cfg.electrical.epoch_period
            oracle = PowerOracle(reference_vec(terms), cfg.signal.noise_power, channel_rng)
            phases, trace = electrical.RUNNERS[cfg.electrical.method](
                phases, oracle, cfg.electrical.params, perturb_rng, cfg.array
            )
            wbar = conj_weight_matrix(phases, cfg.array)
            records.extend(
                base._replace(
                    phase="elec", nrsp=trace.nrsp[i], elec_iteration=i + 1,
                    oracle_queries=total_queries + trace.queries[i], rate_clamped=0,
                )
                for i in range(len(trace))
            )
            total_queries += oracle.queries
    return records


READOUT = harness._READOUT_CHUNK


FOUR = "[array]\nrows = 4\ncols = 4\n"


class TestReadout:
    # (array and signal sections, [electrical] keys, duration, the ticks of
    # the epochs); 0.01 s ticks
    @pytest.mark.parametrize("head, epoch_keys, duration, epochs", [
        (FOUR, "first_epoch = 0.01\nepoch_period = 1\n", 2.5, [1, 101, 201]),
        # several epochs in one readout
        (FOUR, "first_epoch = 0.05\nepoch_period = 0.17\n", 0.6, [5, 22, 39, 56]),
        # the last tick of a readout, the first of the next but one, then a
        # tick inside one
        (FOUR, f"first_epoch = {READOUT / 100}\nepoch_period = {(READOUT + 1) / 100}\n",
         (3 * READOUT + 10) / 100, [READOUT, 2 * READOUT + 1, 3 * READOUT + 2]),
        # both edges of the loop's first block of ticks, on consecutive ticks
        (FOUR, f"first_epoch = {CHUNK / 100}\nepoch_period = 0.01\n",
         (CHUNK + 1) / 100, [CHUNK, CHUNK + 1]),
        # one whole block
        (FOUR, "first_epoch = 2\nepoch_period = 5\n", CHUNK / 100, [200, 700]),
        # the last tick of the first block and the one tick of the third
        (FOUR, f"first_epoch = {CHUNK / 100}\nepoch_period = {(CHUNK + 1) / 100}\n",
         (2 * CHUNK + 1) / 100, [CHUNK, 2 * CHUNK + 1]),
        # a partial last block
        (FOUR, "first_epoch = 3\nepoch_period = 12\n", (CHUNK + 300) / 100, [300]),
        (FOUR + "[signal]\nnlos_gain = 0.3\n",
         "method = spsa\nfirst_epoch = 0.3\nepoch_period = 0.5\n", 1.2, [30, 80]),
        ("[array]\nrows = 1\ncols = 1\n", "method = sequential\nfirst_epoch = 0.2\n", 1, [20]),
    ], ids=["tick-1", "several-per-readout", "readout-edges", "block-edges", "one-block",
            "third-block", "partial-block", "two-ray", "1x1"])
    def test_block_readout_equals_per_tick_readout(self, head, epoch_keys, duration, epochs):
        cfg = load_scenario_text(
            f"{head}[electrical]\nmax_iters = 5\nseq_max_sweeps = 2\n{epoch_keys}"
            f"[run]\nseed = 6\nduration = {duration}\n"
        )
        records = run_simulation(cfg)
        assert sorted({round(r.t * 100) for r in records if r.phase == "elec"}) == epochs
        # repr shows every bit of a float, and its type
        assert list(map(repr, records)) == list(map(repr, reference_run(cfg)))

    def test_errors_of_a_huge_yaw(self):
        # the errors that the readout wraps are differences of finite angles:
        # sense refuses a non-finite truth, and the estimate and the gimbal
        # come out of atan2, asin and frames.wrap_angle.  A truth yaw of
        # 1e300 rad (a cosine of a tiny frequency) makes the largest of them
        cfg = load_scenario_text(f"{FOUR}[run]\nseed = 2\nduration = 0.7\n")
        cfg.profile = ProfileConfig(yaw=[Sinusoid(1e300, 1e-310, math.pi / 2)])
        records = run_simulation(cfg)
        assert {r.yaw_true_deg for r in records} == {1e300 * harness.R2D}
        assert all(abs(r.yaw_err_deg) <= 180.0 for r in records)
        assert list(map(repr, records)) == list(map(repr, reference_run(cfg)))


class TestWrapAngles:
    def test_bits_of_wrap_angle(self):
        pi = math.pi
        edges = [
            pi, -pi, 0.0, -0.0, 3 * pi, -3 * pi, 5 * pi, -5 * pi, 1001 * pi, -1001 * pi,
            2 * pi, -2 * pi, math.nextafter(pi, 4), math.nextafter(-pi, -4),
            math.nextafter(pi, 0), math.nextafter(-pi, 0), 5e-324, -5e-324, 1e300, -1e300,
            1.7976931348623157e308, -1.7976931348623157e308,
        ]
        rng = np.random.default_rng(8)
        angles = np.concatenate([edges, rng.uniform(-50, 50, 2000), rng.normal(0, 1e9, 200)])
        want = np.array([frames.wrap_angle(a) for a in angles.tolist()])
        assert harness._wrap_angles(angles.reshape(-1, 2)).tobytes() == want.tobytes()

    def test_infinite_angle(self):
        # math.fmod raises on an infinite angle, np.fmod gives nan; the
        # readout wraps differences of finite angles only (TestReadout)
        with pytest.raises(ValueError):
            frames.wrap_angle(math.inf)
        with np.errstate(invalid="ignore"):
            assert np.isnan(harness._wrap_angles(np.array([math.inf, -math.inf]))).all()


def edge_records() -> list[TraceRecord]:
    """Every float column of one record holds one edge value, shifted by
    one column per record, so each value meets each column."""
    records = []
    for i in range(len(EDGE_FLOATS)):
        cells = {
            c: EDGE_FLOATS[(i + j) % len(EDGE_FLOATS)] for j, c in enumerate(FLOAT_COLUMNS)
        }
        records.append(TraceRecord(
            phase=("mech", "elec")[i % 2], elec_iteration=i, oracle_queries=10**12 + i,
            rate_clamped=i % 2, **cells,
        ))
    return records


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
        # a stream of no block writes the same files
        harness.write_trace(iter([]), tmp_path / "trace.csv", tmp_path / "trace.json")
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv([]).encode()
        json_text = (tmp_path / "trace.json").read_text()
        assert json_text == reference_json([])
        assert '"rows": []' in json_text

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
        records = edge_records()
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

    def test_stream_bytes_at_every_block_edge(self, tmp_path):
        # rows of a run (t = 0.96 s to 1.05 s) around the edge records; the
        # writer builds the JSON of a plain row from its CSV line, and of
        # the others (t = 1.0, an integral float, and every edge record)
        # cell by cell.  The stream splits the trace in two at each row
        run = run_simulation(small_scenario())[95:105]
        records = run[:5] + edge_records() + run[5:]
        plain = [bool(harness._PLAIN_ROW.fullmatch(harness._ROW_FORMAT % r)) for r in records]
        assert plain == [True] * 4 + [False] * (1 + len(EDGE_FLOATS)) + [True] * 5
        csv_path, json_path = tmp_path / "trace.csv", tmp_path / "trace.json"
        for k in range(len(records) + 1):
            harness.write_trace(iter([records[:k], [], records[k:]]), csv_path, json_path)
            assert csv_path.read_bytes() == reference_csv(records).encode(), k
            assert json_path.read_bytes() == reference_json(records).encode(), k
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv", "trace.json"]

    def test_failing_close_renames_neither(self, tmp_path, monkeypatch):
        # the CSV file closes last; its close failing (a full disk on the
        # final flush) must leave neither trace, the closed JSON included
        def open_failing_csv(path, mode):
            file = open(path, mode)
            if str(path).endswith(".csv.tmp"):
                close = file.close

                def fail():
                    close()
                    raise OSError(28, "No space left on device")
                file.close = fail
            return file
        monkeypatch.setattr(harness, "open", open_failing_csv, raising=False)
        records = edge_records()
        with pytest.raises(OSError, match="No space"):
            harness.write_trace(iter([records]), tmp_path / "trace.csv", tmp_path / "trace.json")
        assert list(tmp_path.iterdir()) == []

    def test_plain_row_pattern_compiles_on_python_3_10(self):
        # possessive quantifiers and atomic groups came with Python 3.11;
        # the package supports 3.10, whose re rejects them at import
        pattern = harness._PLAIN_ROW.pattern
        assert not any(token in pattern for token in ("++", "*+", "?+", "}+", "(?>"))

    def test_run_simulation_is_the_stream(self):
        cfg = small_scenario()
        stream = list(harness.trace_blocks(cfg))
        # 600 ticks, a record block per readout, which splits at the epoch
        # on tick 300; the epoch's rows end the block of its tick
        assert [sum(r.phase == "mech" for r in block) for block in stream] == 2 * (
            [READOUT] * 4 + [300 - 4 * READOUT])
        epoch_block = [r.phase for r in stream[4]]
        assert epoch_block[43:] == ["mech"] + ["elec"] * (len(epoch_block) - 44)
        assert round(stream[4][43].t * 100) == 300 and len(epoch_block) > 44
        assert run_simulation(cfg) == [r for block in stream for r in block]

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
