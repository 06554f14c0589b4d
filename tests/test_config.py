import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from beamtrack.config import (
    D2R, SCHEMA, ConfigError, default_scenario, load_scenario, load_scenario_text,
)
from beamtrack.harness import TRACE_COLUMNS, run_simulation


class TestDefaults:
    def test_empty_text_is_default_scenario(self):
        cfg = load_scenario_text("")
        ref = default_scenario()
        assert cfg.geo == ref.geo
        assert cfg.array == ref.array
        assert cfg.signal == ref.signal
        assert cfg.electrical.params == ref.electrical.params

    def test_default_profile_within_band(self):
        cfg = load_scenario(None)
        for axis in (cfg.profile.yaw, cfg.profile.pitch, cfg.profile.roll):
            for term in axis:
                assert term.amplitude <= 10.0 * D2R + 1e-12
                assert term.frequency <= 0.2 + 1e-12


class TestParsing:
    def test_sections_applied(self):
        cfg = load_scenario_text(
            """
            [array]
            rows = 16
            cols = 8
            [signal]
            snr_db = 10
            [run]
            seed = 99
            """
        )
        assert cfg.array.rows == 16 and cfg.array.cols == 8
        assert cfg.signal.snr_db == 10.0
        assert cfg.run.seed == 99

    def test_profile_terms(self):
        cfg = load_scenario_text(
            """
            [profile]
            yaw = 10 @ 0.1, 2 @ 0.05 @ 30
            pitch = 5 @ 0.2 @ 90
            roll =
            """
        )
        assert len(cfg.profile.yaw) == 2
        assert cfg.profile.yaw[0].amplitude == pytest.approx(10 * D2R)
        assert cfg.profile.yaw[1].phase == pytest.approx(30 * D2R)
        assert cfg.profile.roll == []

    def test_comments_allowed(self):
        cfg = load_scenario_text("# top\n[array]\nrows = 4  # inline\ncols = 2\n")
        assert cfg.array.rows == 4

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/path/scenario.ini")

    def test_directory_rejected_with_its_path(self, tmp_path):
        with pytest.raises(ConfigError, match=f"not a regular file: {tmp_path}$"):
            load_scenario(tmp_path)

    def test_undecodable_file_rejected_with_its_path(self, tmp_path):
        p = tmp_path / "latin1.ini"
        p.write_bytes(b"[run]\noutput = caf\xe9\n")
        with pytest.raises(ConfigError, match=f"scenario file {p}: .*utf-8"):
            load_scenario(p)

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "s.ini"
        p.write_text("[run]\nduration = 5\nseed = 7\n")
        cfg = load_scenario(p)
        assert cfg.run.duration == 5.0
        assert cfg.run.seed == 7

    def test_pitch_below_90_deg_and_free_azimuth_stop_load(self):
        cfg = load_scenario_text("[profile]\npitch = 89 @ 0.1\n[servo]\nazimuth_stop_deg = 180\n")
        assert cfg.profile.pitch[0].amplitude == pytest.approx(89 * D2R)
        assert cfg.servo.azimuth_stop >= math.pi  # no stop

    @pytest.mark.parametrize("text, message", [
        ("[array\nrows = 4", "parse error"),
        ("[nope]\nx = 1", r"unknown section \[nope\]"),
        ("[array]\nrowz = 4", "unknown key array.rowz"),
        ("[array]\nrows = 0", r"^array: "),
        ("[electrical]\nmethod = annealing", r"^electrical\.method: "),
        # the Euler rates are singular at pitch +/-90 deg
        ("[profile]\npitch = 95 @ 0.1", r"^profile\.pitch: "),
        ("[profile]\npitch = 50 @ 0.1, -40 @ 0.2 @ 90", r"^profile\.pitch: "),
        # checks made by the section's holder
        ("[fusion]\ninitial_covariance = 0", "fusion: initial_covariance"),
        ("[fusion]\nmeasurement_noise = -1", "fusion: process_noise and measurement_noise"),
        ("[signal]\nnlos_gain = -0.1", "signal: nlos_gain"),
        ("[electrical]\nepoch_period = 0", "electrical: epochs"),
        # isolation_rates is singular at elevation +/-90 deg
        ("[servo]\nelevation_max_deg = 90", "servo: elevation stops"),
        # a negative stop held the gimbal at the stop for the whole run
        ("[servo]\nazimuth_stop_deg = -10", "servo: azimuth_stop must not be negative"),
        # each of these used to load and then fail in the middle of a run
        ("[geo]\nlatitude_deg = 85", "geo: satellite below horizon"),
        ("[sensors]\ngravity = 0", "sensors: gravity"),
        ("[fusion]\nprocess_noise = 0\nmeasurement_noise = 0", "fusion: process_noise"),
        ("[electrical]\ngain_offset = 0", "electrical: gain, isotropic_weight and gain_offset"),
        ("[array]\nrows = 100000\ncols = 100000", r"^array: "),  # numpy's MemoryError
        # iteration limits below 1 ran no iteration and scored a nan nrsp
        ("[electrical]\nmax_iters = 0", "electrical: max_iters must be at least 1, got 0"),
        ("[electrical]\nstop_window = 0", "electrical: stop_window must be at least 1"),
        ("[electrical]\nseq_max_sweeps = -2", "electrical: seq_max_sweeps must be at least 1"),
        # an epoch's budget times the elements, beyond 1e9 element-iterations
        ("[array]\nrows = 1000\ncols = 1000\n[electrical]\nmax_iters = 1000000",
         r"^electrical\.max_iters: 1000000000000 element-iterations per epoch"),
        ("[electrical]\nmax_iters = 10000000000000000000000000", r"^electrical\.max_iters: "),
        ("[electrical]\nmax_iters = 122071", r"^electrical\.max_iters: .*beyond 1e\+09"),
        ("[array]\nrows = 1000\ncols = 1000\n[electrical]\nseq_max_sweeps = 1001",
         r"^electrical\.seq_max_sweeps: "),
        ("[run]\nseed = -1", "run: run.duration must be positive and run.seed"),
        # no tick: run_simulation rounds duration / sample_period to 0
        ("[run]\nduration = 0.004", r"^run\.duration: .*no tick runs"),
        ("[run]\nduration = 1\n[sensors]\nsample_period = 2.5", r"^run\.duration: "),
        # more ticks than the bound, also where the tick count overflows
        ("[run]\nduration = 20000", r"^run\.duration: more than 1e\+06 ticks"),
        ("[run]\nduration = 1e6\n[sensors]\nsample_period = 1e-320", r"^run\.duration: "),
        ("[signal]\nsnr_db = -5000", "signal: snr_db"),
        # two rays that coincide and cancel: no power at the array normal,
        # which used to stop simulate in the middle of the run
        ("[array]\nrows = 4\ncols = 4\n[signal]\nnlos_gain = 1\nnlos_azimuth_offset_deg = 0\n"
         "nlos_elevation_offset_deg = 0\nnlos_path_length = 0.0075", "^signal: the second ray cancels"),
        ("[array]\nrows = 4\ncols = 4\n[signal]\nnlos_gain = 1\nnlos_azimuth_offset_deg = 0\n"
         "nlos_elevation_offset_deg = 360\nnlos_path_length = 0.0225", "^signal: the second ray"),
        ("[array]\nrows = 1\ncols = 1\n[signal]\nnlos_gain = 1\nnlos_path_length = 0.0075",
         "^signal: the second ray"),
        ("[sensors]\ngyro_white_sigma = 1e300", r"^sensors\.gyro_white_sigma: .* beyond"),
        ("[DEFAULT]\nrows = 4\n[array]\ncols = 4", r"unknown section \[DEFAULT\]"),
        # keys that cancel from the normalized power reading
        ("[signal]\nsymbol = 1+0j", "unknown key signal.symbol"),
        ("[signal]\nlos_gain = 1", "unknown key signal.los_gain"),
        ("[signal]\nwavelength = 0.015", "unknown key signal.wavelength"),
    ])
    def test_rejected_at_load_time(self, text, message):
        with pytest.raises(ConfigError, match=message):
            load_scenario_text(text)

    def test_cancelling_rays_that_never_coincide_load(self):
        # an azimuth offset keeps the rays apart on the array normal
        cfg = load_scenario_text(
            "[array]\nrows = 4\ncols = 4\n[signal]\nnlos_gain = 1\nnlos_elevation_offset_deg = 0\n"
            "nlos_path_length = 0.0075\n[run]\nduration = 0.5\n"
        )
        records = run_simulation(cfg)
        assert all(0.0 <= r.nrsp <= 1.0 for r in records)

    def test_epoch_budget_at_its_bound_loads(self):
        # 122070 iterations of 128x64 elements: 999997440 element-iterations
        cfg = load_scenario_text("[electrical]\nmax_iters = 122070\nstop_window = 1000000000\n")
        assert cfg.electrical.params.max_iters * cfg.array.size <= 1e9


# every key of the table at its default, in file units (degrees, km)
DEFAULTS = {
    "geo": dict(latitude_deg=34.27, longitude_deg=108.95, satellite_longitude_deg=105.5,
                earth_radius_km=6378, orbit_radius_km=42164),
    "array": dict(rows=128, cols=64, spacing_over_wavelength=0.5),
    "profile": dict(yaw="10 @ 0.1 @ 0", pitch="5 @ 0.2 @ 90", roll="8 @ 0.15 @ 200"),
    "sensors": dict(gyro_white_sigma=0.01, gyro_bias=0.002, accel_white_sigma=0.05,
                    gps_yaw_sigma_deg=0.3, sample_period=0.01, gravity=9.81),
    "fusion": dict(initial_covariance=1e-2, process_noise=1e-6, measurement_noise=1e-4),
    "servo": dict(gain=20, rate_limit_deg=60, azimuth_stop_deg=180, elevation_min_deg=0,
                  elevation_max_deg=85),
    "signal": dict(snr_db=20, nlos_gain=0, nlos_azimuth_offset_deg=2, nlos_elevation_offset_deg=30,
                   nlos_path_length=0.5),
    "electrical": dict(method="assp", gain=0.7, structure_weight=0.02, isotropic_weight=0.01,
                       gain_offset=0.1, step_exponent=0.602, probe_exponent=0.101, max_iters=100,
                       stop_epsilon=1e-3, stop_window=3, seq_step=0.25, seq_max_sweeps=12,
                       first_epoch=5, epoch_period=10),
    "run": dict(duration=60, seed=1, output="out"),
}
KEYS = [row[:2] for row in SCHEMA]
NUMERIC_KEYS = [k for k in KEYS if k not in {("electrical", "method"), ("run", "output")}]


def leaves(obj, path=""):
    """{path: value} of every scalar inside nested dataclasses and lists."""
    if dataclasses.is_dataclass(obj) or isinstance(obj, (list, tuple)):
        items = vars(obj).items() if dataclasses.is_dataclass(obj) else enumerate(obj)
        return {p: v for k, item in items for p, v in leaves(item, f"{path}.{k}").items()}
    return {path: obj}


class TestTable:
    def test_defaults_file_writes_every_key(self):
        assert sorted((s, k) for s in DEFAULTS for k in DEFAULTS[s]) == sorted(KEYS)
        assert len(KEYS) == 47
        text = "".join(
            f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in DEFAULTS[s].items()) for s in DEFAULTS
        )
        assert leaves(load_scenario_text(text)) == pytest.approx(leaves(default_scenario()))

    @pytest.mark.parametrize("section, key", KEYS)
    def test_key_at_its_default_loads_the_default_scenario(self, section, key):
        # alone, so a row with the wrong attribute or unit scale moves a value
        loaded = load_scenario_text(f"[{section}]\n{key} = {DEFAULTS[section][key]}\n")
        assert leaves(loaded) == pytest.approx(leaves(default_scenario()))

    @pytest.mark.parametrize("bad", ["nan", "inf", "garbage"])
    @pytest.mark.parametrize("section, key", NUMERIC_KEYS)
    def test_bad_number_rejected_with_path(self, section, key, bad):
        raw = f"{bad} @ 0.1" if section == "profile" else bad
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            load_scenario_text(f"[{section}]\n{key} = {raw}\n")


# A short run on a small array: these keys are fixed, and the two keys that
# set how many ticks and epochs a run has are drawn from a bounded range.
SHORT_RUN = {("array", "rows"): "4", ("array", "cols"): "4", ("run", "duration"): "0.5"}
SPECIAL = ["0", "-1", "nan", "inf", "1e6", "-1e6", "1e300", "garbage"]


def raw_value(section, key):
    """Raw text for ``[section] key``: a special value, or its default
    scaled by a factor in [-3, 3]."""
    default = DEFAULTS[section][key]
    parse = next(row[4] for row in SCHEMA if row[:2] == (section, key))
    special = st.sampled_from(SPECIAL)
    if key == "method":
        return st.sampled_from(["assp", "spsa", "sequential", "bogus"])
    if section == "profile":
        term = st.tuples(st.floats(-90, 90), st.floats(-2, 2), st.floats(-360, 360))
        return st.lists(term.map(lambda t: "%r @ %r @ %r" % t), max_size=3).map(", ".join) | special
    if key in ("sample_period", "epoch_period"):
        return st.floats(0.002, 30).map(repr) | special
    scaled = st.floats(-3, 3).map(lambda f: (default or 1) * f)
    return (scaled.map(int) if isinstance(parse("7"), int) else scaled).map(repr) | special


FREE_KEYS = [k for k in KEYS if k not in SHORT_RUN and k != ("run", "output")]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_scenario_loads_or_runs_finite(data):
    # the outcome of any scenario text is a ConfigError at load time or a
    # complete run with a finite trace, never an error in the middle
    chosen = data.draw(st.lists(st.sampled_from(FREE_KEYS), unique=True, max_size=8))
    values = {**{k: data.draw(raw_value(*k), label=f"{k[0]}.{k[1]}") for k in chosen}, **SHORT_RUN}
    sections = {}
    for (section, key), raw in values.items():
        sections.setdefault(section, []).append(f"{key} = {raw}\n")
    text = "".join(f"[{s}]\n" + "".join(lines) for s, lines in sections.items())
    try:
        cfg = load_scenario_text(text)
    except ConfigError:
        return
    records = run_simulation(cfg)
    assert len(records) >= round(0.5 / cfg.sensors.sample_period)
    cells = [getattr(r, c) for r in records for c in TRACE_COLUMNS if c != "phase"]
    assert all(math.isfinite(v) for v in cells)
