import json
import math
from typing import get_type_hints

import numpy as np
import pytest

from beamtrack import frames, harness, mechanical
from beamtrack.config import D2R, load_scenario_text
from beamtrack.frames import SingularityError
from beamtrack.sensors import ProfileConfig, Sinusoid
from beamtrack.harness import (
    TRACE_COLUMNS,
    TRACE_SCHEMA,
    TraceRecord,
    beam_frame_arrival,
    run_simulation,
)
from refs import block_bits, reference_run, reference_ticks

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
        off = (ideal[0], ideal[1] + 0.3 * D2R, ideal[2])
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


CHUNK = harness._SENSE_CHUNK


class TestTicks:
    # whole blocks, a trailing block of one tick, and a partial last block
    @pytest.mark.parametrize("steps", [1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 2 * CHUNK + 300])
    def test_ticks_equal_step_by_step(self, steps):
        # the loop runs _SENSE_CHUNK ticks at a time through its stages; the
        # reference loop, a tick at a time, reads the same bits
        cfg = small_scenario()
        euler = mechanical.pointing_euler(cfg.geo)
        loop = list(harness.blocks(cfg, euler, np.random.default_rng(4), steps))
        sizes = [len(b.t) for b in loop]
        assert sizes == [1] + [CHUNK] * (steps // CHUNK) + [steps % CHUNK] * (steps % CHUNK > 0)
        want = reference_ticks(cfg, euler, np.random.default_rng(4), steps)
        assert b"".join(map(block_bits, loop)) == b"".join(map(block_bits, want))

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

    def test_list_columns_hold_plain_floats(self):
        # each per-tick entry of the loop's stages is a float tuple, a float
        # or a bool, never a NamedTuple: 2100 ticks of a 16x8 run, in three
        # blocks after the start (test_sensors checks the gyro rows)
        cfg = load_scenario_text("[array]\nrows = 16\ncols = 8\n[run]\nduration = 21\n")
        euler = mechanical.pointing_euler(cfg.geo)
        start, *run = harness.blocks(cfg, euler, harness.streams(0)[0], cfg.ticks)
        assert [len(b.t) for b in run] == [CHUNK, CHUNK, 2100 - 2 * CHUNK]
        widths = {"ideal": 3, "q": 4, "est": 3, "command": 3, "gimbal": 3, "arrival": 2}
        for block in [start, *run]:
            for name, width in widths.items():
                assert all(
                    type(x) is tuple and len(x) == width and all(type(v) is float for v in x)
                    for x in getattr(block, name)
                ), name
            assert all(type(x) is float for x in block.t + block.kappa)
            assert all(type(x) is bool for x in block.rate_clamped)


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
    def test_empty_records_header_only(self, tmp_path):
        # a stream of no block to both files, and of one empty block to each
        harness.write_trace(iter([]), tmp_path / "trace.csv", tmp_path / "trace.json")
        harness.write_trace([[]], csv_path=tmp_path / "empty.csv")
        harness.write_trace([[]], json_path=tmp_path / "empty.json")
        for name in ("trace", "empty"):
            assert (tmp_path / f"{name}.csv").read_bytes() == reference_csv([]).encode()
            assert (tmp_path / f"{name}.json").read_bytes() == reference_json([]).encode()
        assert '"rows": []' in reference_json([])

    def test_bytes_match_reference_writer(self, tmp_path):
        records = run_simulation(small_scenario())
        harness.write_trace([records], tmp_path / "trace.csv", tmp_path / "trace.json")
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(records).encode()
        assert (tmp_path / "trace.json").read_bytes() == reference_json(records).encode()

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
