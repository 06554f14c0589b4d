import re

import pytest

from beamtrack import cli, harness
from beamtrack.cli import cli_main


def run_cli(capsys, argv):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGeometry:
    def test_reference_location(self, capsys):
        code, out, _ = run_cli(capsys, ["geometry"])
        assert code == 0
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(values["heading_offset_deg"]) == pytest.approx(6.111, abs=1e-3)
        assert float(values["elevation_deg"]) == pytest.approx(49.9978, abs=1e-3)
        assert float(values["polarization_deg"]) == pytest.approx(5.047, abs=1e-3)

    def test_explicit_arguments(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["geometry", "--lat", "34.27", "--lon", "108.95", "--sat-lon", "105.5"],
        )
        assert code == 0
        assert "gimbal_azimuth_deg" in out

    def test_zenith_takes_the_keyhole_convention(self, capsys):
        # the satellite overhead puts the beam at the gimbal keyhole, which
        # answers with polarization 0 and elevation 90 deg
        code, out, _ = run_cli(capsys, ["geometry", "--lat", "0.001", "--lon", "105.5"])
        assert code == 0
        assert "gimbal_elevation_deg = 90.0000" in out.splitlines()
        assert "gimbal_polarization_deg = 0.0000" in out.splitlines()

    def test_below_horizon_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, ["geometry", "--lat", "85"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag, value, key", [
        ("--sat-lon", "inf", "geo.satellite_longitude_deg"),
        ("--lon", "nan", "geo.longitude_deg"),
        ("--earth-radius-km", "big", "geo.earth_radius_km"),
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, flag, value, key):
        code, _, err = run_cli(capsys, ["geometry", flag, value])
        assert code == 2
        assert err.startswith(f"error: {flag}: {key}: ")

    @pytest.mark.parametrize("attitude", ["-5,2,1", "-.5,-2,1", "-1e1,0,0"])
    def test_negative_attitude_reads_as_with_equals(self, capsys, attitude):
        # argparse on its own reads -5,2,1 as an unknown option
        spaced = run_cli(capsys, ["geometry", "--attitude", attitude])
        assert spaced[0] == 0
        assert spaced == run_cli(capsys, ["geometry", f"--attitude={attitude}"])

    @pytest.mark.parametrize("attitude", ["1,2", "nan,0,0", "0,inf,0"])
    def test_bad_attitude_usage(self, capsys, attitude):
        code, out, err = run_cli(capsys, ["geometry", "--attitude", attitude])
        assert code == 2
        assert err.startswith("usage: ")
        assert "error: argument --attitude: " in err
        assert out == ""


class TestSimulate:
    def test_missing_config_exits_2_with_usage(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "--config", "/no/such/file.ini"])
        assert code == 2
        assert "usage" in err.lower()

    def test_directory_config_exits_2_with_usage(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["simulate", "--config", str(tmp_path)])
        assert code == 2
        assert err.startswith("usage: ")
        assert f"error: argument --config: scenario file is not a regular file: {tmp_path}" in err

    def test_undecodable_config_exits_1_naming_it(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff[run]\n")
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 1
        assert err.startswith(f"error: cannot read scenario file {cfg}: ")
        assert out == ""

    def test_seed_override_changes_trace(self, capsys, tmp_path):
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            "[array]\nrows = 8\ncols = 4\n[run]\nduration = 1\n"
            "[electrical]\nfirst_epoch = 100\n"
        )
        outs = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"o{seed}"
            code, _, _ = run_cli(
                capsys,
                ["simulate", "--config", str(cfg), "--seed", seed, "--out", str(out_dir)],
            )
            assert code == 0
            outs.append((out_dir / "trace.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_summary_reads_the_written_trace(self, capsys, tmp_path):
        # an epoch on the last tick, so the trace ends on electrical rows,
        # and a tick whose pitch error is the largest attitude error
        cfg = tmp_path / "s.ini"
        cfg.write_text(
            "[array]\nrows = 4\ncols = 4\n[run]\nduration = 2\nseed = 7\n"
            "[electrical]\nmax_iters = 5\nfirst_epoch = 2\n"
        )
        csv_path = tmp_path / "o" / "trace.csv"
        argv = ["simulate", "--config", str(cfg), "--out", str(csv_path.parent)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert (csv_path.parent / "trace.json").exists()
        _, header, *lines = csv_path.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        mech = [row for row in rows if row["phase"] == "mech"]
        worst = {axis: max(abs(float(row[f"{axis}_err_deg"])) for row in mech)
                 for axis in ("yaw", "pitch", "roll")}
        assert max(worst, key=worst.get) == "pitch"
        assert rows[-1]["phase"] == "elec" and rows[0]["nrsp"] != rows[-1]["nrsp"]
        assert out.splitlines() == [
            f"ticks = {len(mech)}, electrical rows = {len(rows) - len(mech)}",
            f"max attitude error = {worst['pitch']:.4f} deg",
            f"final nrsp = {float(rows[-1]['nrsp']):.6f}",
            f"trace written to {csv_path}",
        ]

    def test_run_failing_mid_flight_leaves_no_trace(self, capsys, tmp_path, monkeypatch):
        # 1200 ticks: two blocks of the loop, the first already written when
        # the second raises
        cfg = tmp_path / "s.ini"
        cfg.write_text("[array]\nrows = 4\ncols = 4\n[run]\nduration = 12\n")
        trace_angles, calls = harness._trace_angles, []

        def second_raises(block):
            calls.append(len(block.t))
            if len(calls) == 2:
                raise RuntimeError("stage failed")
            return trace_angles(block)

        monkeypatch.setattr(harness, "_trace_angles", second_raises)
        out_dir = tmp_path / "o"
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 1
        assert err == "error: stage failed\n"
        assert out == ""
        assert calls == [1024, 176]
        # the run made the directory, so it takes it back
        assert not out_dir.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_run_failing_keeps_only_the_directories_it_found(
        self, capsys, tmp_path, monkeypatch, existing
    ):
        cfg = tmp_path / "s.ini"
        cfg.write_text("[array]\nrows = 4\ncols = 4\n[run]\nduration = 1\n")
        monkeypatch.setattr(harness, "_trace_angles", lambda block: 1 / 0)
        top = tmp_path / "a"
        if existing:
            top.mkdir()
            (top / "keep.txt").write_text("x")
        out_dir = top / "b" / "c"
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 1
        assert err == "error: division by zero\n"
        # every level the run made is gone; what it found stays as it was
        assert sorted(p.name for p in tmp_path.rglob("*")) == (
            ["a", "keep.txt", "s.ini"] if existing else ["s.ini"]
        )

    def test_bad_config_value_is_runtime_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[array]\nrows = 0\n")
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 1
        assert "error" in err


def sweep_argv(cfg, extra=""):
    """sweep argv on a 4x4 array, one seed, ASSP only; ``extra`` is
    appended to its config file ``cfg``."""
    cfg.write_text("[array]\nrows = 4\ncols = 4\n" + extra)
    return ["sweep", "--config", str(cfg), "--seeds", "1", "--methods", "assp"]


@pytest.fixture
def small_sweep(tmp_path):
    return sweep_argv(tmp_path / "small.ini")


class TestSweep:
    def test_row_count_is_values_times_methods(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--values", "20,10", "--seeds", "2", "--methods", "assp,spsa"],
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if re.match(r"\s*\d", l)]
        assert len(lines) == 2 * 2

    def test_iters_run_shows_the_stall_stop(self, capsys, tmp_path):
        # med_iters scores the 100-iteration budget when 0.99 is never
        # reached; the stop rule ended those runs long before it
        cfg = tmp_path / "small.ini"
        cfg.write_text("[array]\nrows = 16\ncols = 8\n")
        code, out, _ = run_cli(
            capsys,
            ["sweep", "--config", str(cfg), "--values", "10", "--seeds", "3",
             "--methods", "assp"],
        )
        assert code == 0
        header, row = out.strip().splitlines()
        values = {k: float(v) for k, v in zip(header.split(), row.split()) if k != "method"}
        assert values["med_iters"] == 100.0
        assert values["iters_run"] < values["med_iters"]
        assert values["med_queries"] == 2 * values["iters_run"]

    def test_unknown_method_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, ["sweep", "--values", "20", "--methods", "foo"]
        )
        assert code == 2
        assert err.startswith("usage: ")
        assert "error: argument --methods: electrical.method: 'foo' not one of" in err
        assert out == ""

    def test_param_option_rejected_by_argparse(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--param", "snr_db", "--values", "1"])
        assert code == 2
        assert "unrecognized arguments: --param" in err

    def test_usage_error_without_values(self, capsys):
        assert cli_main(["sweep"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [
        ("--values", "nan"),
        ("--values", "-400"),
        ("--values", "20,x"),
        ("--seeds", "0"),
        ("--offset-deg", "nan"),
        # a grazing arrival or beyond, which the trial would clamp to grazing
        ("--offset-deg", "45"),
        ("--offset-deg", "-45"),
        ("--offset-deg", "360.3"),
        ("--offset-deg", "1e300"),
        ("--jobs", "0"),
        ("--jobs", "-3"),
        ("--threshold", "0"),
        ("--threshold", "1.5"),
        # empty lists used to print only the header
        ("--values", ","),
        ("--values", " "),
        ("--methods", ","),
        ("--methods", "assp,foo"),
        ("--seed", "-1"),  # a simulate flag, checked as [run] seed
    ])
    def test_bad_flag_value_exits_2_naming_the_flag(self, capsys, small_sweep, flag, value):
        command = ["simulate"] if flag == "--seed" else small_sweep + ["--values", "20"]
        code, out, err = run_cli(capsys, command + [flag, value])
        assert code == 2
        assert f"error: argument {flag}: " in err
        assert err.startswith("usage: ")
        assert out == ""

    @pytest.mark.parametrize("values", ["-10,-20", "-1e1"])
    def test_negative_values_read_as_with_equals(self, capsys, small_sweep, values):
        spaced = run_cli(capsys, small_sweep + ["--values", values])
        assert spaced[0] == 0
        assert spaced == run_cli(capsys, small_sweep + [f"--values={values}"])

    def test_missing_config_exits_2_with_usage(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--config", "/no/such/file.ini", "--values", "20"])
        assert code == 2
        assert "usage" in err.lower()

    def test_directory_config_exits_2_with_usage(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["sweep", "--config", str(tmp_path), "--values", "20"])
        assert code == 2
        assert err.startswith("usage: ")
        assert f"error: argument --config: scenario file is not a regular file: {tmp_path}" in err

    def test_undecodable_config_exits_1_naming_it(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff[array]\n")
        code, out, err = run_cli(capsys, ["sweep", "--config", str(cfg), "--values", "20"])
        assert code == 1
        assert err.startswith(f"error: cannot read scenario file {cfg}: ")
        assert out == ""

    def test_jobs_capped_at_one_worker_per_task(self, capsys, small_sweep, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        code, _, _ = run_cli(capsys, small_sweep + ["--values", "20,10", "--jobs", "64"])
        assert code == 0
        assert asked == [2]

    @pytest.mark.parametrize("signal", ["", "[signal]\nnlos_gain = 0.9\n"], ids=["los", "two_ray"])
    def test_pool_prints_the_serial_table(self, capsys, tmp_path, signal):
        # the workers run the config's link: a second ray moves the table
        plain, serial, pooled = (
            run_cli(capsys, sweep_argv(tmp_path / f"{name}.ini", extra)
                    + ["--values", "20,10", "--seeds", "2", "--jobs", jobs])
            for name, extra, jobs in (("plain", "", "1"), ("link", signal, "1"), ("link", signal, "2"))
        )
        assert serial[0] == 0
        assert pooled == serial
        assert (serial != plain) == bool(signal)
