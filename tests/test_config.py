import math

import pytest

from beamtrack.config import (
    ConfigError,
    default_scenario,
    load_scenario,
    load_scenario_text,
)

D2R = math.pi / 180.0


class TestDefaults:
    def test_empty_text_is_default_scenario(self):
        cfg = load_scenario_text("")
        ref = default_scenario()
        assert cfg.geo == ref.geo
        assert cfg.array == ref.array
        assert cfg.signal == ref.signal
        assert cfg.electrical.params == ref.electrical.params

    def test_reference_values(self):
        cfg = load_scenario(None)
        assert cfg.geo.uav_latitude == pytest.approx(34.27 * D2R)
        assert cfg.geo.satellite_longitude == pytest.approx(105.5 * D2R)
        assert cfg.array.rows == 128 and cfg.array.cols == 64
        assert cfg.array.spacing_over_wavelength == 0.5
        assert cfg.signal.snr_db == 20.0
        p = cfg.electrical.params
        assert (p.gain, p.structure_weight, p.isotropic_weight) == (0.7, 0.02, 0.01)
        assert (p.gain_offset, p.step_exponent, p.probe_exponent) == (0.1, 0.602, 0.101)
        assert cfg.run.duration == 60.0

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

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section \[nope\]"):
            load_scenario_text("[nope]\nx = 1\n")

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="unknown key array.rowz"):
            load_scenario_text("[array]\nrowz = 4\n")

    def test_bad_number_names_field(self):
        with pytest.raises(ConfigError, match="signal.snr_db"):
            load_scenario_text("[signal]\nsnr_db = garbage\n")

    def test_complex_symbol(self):
        cfg = load_scenario_text("[signal]\nsymbol = 0.6+0.8j\n")
        assert cfg.signal.symbol == 0.6 + 0.8j
        assert cfg.signal.noise_power == pytest.approx(0.01)
        with pytest.raises(ConfigError, match="signal.symbol"):
            load_scenario_text("[signal]\nsymbol = pineapple\n")

    def test_invariant_violation_names_section(self):
        with pytest.raises(ConfigError, match="array"):
            load_scenario_text("[array]\nrows = 0\n")

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError, match="electrical.method"):
            load_scenario_text("[electrical]\nmethod = annealing\n")

    def test_zero_gps_baseline_rejected(self):
        # a zero baseline has no direction: GPS yaw would be atan2(0, 0)
        with pytest.raises(ConfigError, match="gps_baseline_length"):
            load_scenario_text("[sensors]\ngps_baseline_length = 0\n")

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="parse error"):
            load_scenario_text("[array\nrows = 4\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/path/scenario.ini")

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "s.ini"
        p.write_text("[run]\nduration = 5\nseed = 7\n")
        cfg = load_scenario(p)
        assert cfg.run.duration == 5.0
        assert cfg.run.seed == 7
