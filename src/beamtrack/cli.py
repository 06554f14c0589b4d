"""Command-line front end.

Subcommands:

* ``simulate`` - run the closed-loop scenario and export CSV/JSON traces.
* ``geometry`` - print the pointing solution for a ground location and
  satellite longitude, plus the gimbal solution for a given attitude.
* ``sweep`` - convergence statistics of the electrical methods across
  SNR values, one row per value and method.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import experiments, harness, mechanical
from .config import ConfigError, default_scenario, load_scenario, set_key, validate
from .electrical import RUNNERS
from .frames import Attitude, c_n_b

D2R = math.pi / 180.0

# the geometry flags and the [geo] keys of the scenario table they set
GEO_FLAGS = {
    "--lat": "latitude_deg",
    "--lon": "longitude_deg",
    "--sat-lon": "satellite_longitude_deg",
    "--earth-radius-km": "earth_radius_km",
    "--orbit-radius-km": "orbit_radius_km",
}


def _scenario_file(text: str) -> str:
    if not Path(text).exists():
        raise argparse.ArgumentTypeError(f"scenario file not found: {text}")
    return text


def _entries(text: str) -> list[str]:
    entries = [v.strip() for v in text.split(",") if v.strip()]
    if not entries:
        raise argparse.ArgumentTypeError(f"{text!r} lists no entry")
    return entries


def _as_key(section: str, key: str, raw: str):
    """The default scenario with ``raw`` parsed and checked as ``[section] key``."""
    cfg = default_scenario()
    try:
        set_key(cfg, section, key, raw)
        return validate(cfg)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _snr_values(text: str) -> list[float]:
    return [_as_key("signal", "snr_db", raw).signal.snr_db for raw in _entries(text)]


def _seed(text: str) -> int:
    return _as_key("run", "seed", text).run.seed


def _methods(text: str) -> list[str]:
    return [_as_key("electrical", "method", raw).electrical.method for raw in _entries(text)]


def _checked(kind, ok, rule: str):
    def parse(text: str):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return parse


_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_attitude = _checked(
    lambda text: [float(x) for x in text.split(",")],
    lambda v: len(v) == 3 and all(map(math.isfinite, v)),
    "yaw,pitch,roll: three finite numbers of degrees",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamtrack",
        description="Blind beam tracking simulator for UAV satellite links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the closed-loop scenario")
    sim.add_argument("--config", type=_scenario_file,
                     help="scenario file (defaults apply if omitted)")
    sim.add_argument("--seed", type=_seed, help="override [run] seed")
    sim.add_argument("--out", help="output directory (default from config)")

    geo = sub.add_parser("geometry", help="print the pointing solution")
    for flag, key in GEO_FLAGS.items():
        geo.add_argument(flag, dest=key, metavar="X", help=f"[geo] {key} (default: the scenario's)")
    geo.add_argument(
        "--attitude",
        type=_attitude,
        default="0,0,0",
        help="yaw,pitch,roll in degrees for the gimbal solution (default level)",
    )

    sw = sub.add_parser("sweep", help="electrical convergence statistics")
    sw.add_argument("--config", type=_scenario_file,
                    help="scenario file providing [array], the [signal] link and "
                         "the [electrical] step parameters")
    sw.add_argument("--values", type=_snr_values, required=True,
                    help="comma-separated SNRs, dB, each checked as [signal] snr_db")
    sw.add_argument("--seeds", type=_count, default=100)
    sw.add_argument("--methods", type=_methods, default=list(RUNNERS),
                    help="comma-separated method list (default: all)")
    sw.add_argument("--offset-deg", type=_checked(float, math.isfinite, "a finite number"),
                    default=0.3, help="initial offset per axis")
    sw.add_argument("--threshold", type=_checked(float, lambda x: 0 < x <= 1, "a number in (0, 1]"),
                    default=0.99, help="nrsp threshold")
    sw.add_argument("--jobs", type=_count, default=1,
                    help="parallel worker processes, at most one per row")
    return parser


def _cmd_simulate(args) -> int:
    cfg = load_scenario(args.config)
    if args.seed is not None:
        cfg.run.seed = args.seed
    out_dir = Path(args.out if args.out is not None else cfg.run.output)
    records = harness.run_simulation(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "trace.csv"
    harness.export_csv(records, csv_path)
    harness.export_json(records, out_dir / "trace.json")
    mech = [r for r in records if r.phase == "mech"]
    final_nrsp = records[-1].nrsp
    worst_att = max(
        max(abs(r.yaw_err_deg), abs(r.pitch_err_deg), abs(r.roll_err_deg)) for r in mech
    )
    print(f"ticks = {len(mech)}, electrical rows = {len(records) - len(mech)}")
    print(f"max attitude error = {worst_att:.4f} deg")
    print(f"final nrsp = {final_nrsp:.6f}")
    print(f"trace written to {csv_path}")
    return 0


def _cmd_geometry(args) -> int:
    cfg = default_scenario()
    for flag, key in GEO_FLAGS.items():
        try:
            if getattr(args, key) is not None:
                set_key(cfg, "geo", key, getattr(args, key))
        except ConfigError as exc:
            print(f"error: {flag}: {exc}", file=sys.stderr)
            return 2
    # a geometry that loads but has no solution (e.g. below the horizon) exits 1
    euler = mechanical.pointing_euler(validate(cfg).geo)
    yaw, pitch, roll = (x * D2R for x in args.attitude)
    [gimbal] = mechanical.stabilization_command(c_n_b(Attitude(yaw, pitch, roll))[None], euler)
    print(f"heading_deg = {euler.heading / D2R:.4f}")
    print(f"heading_offset_deg = {euler.heading / D2R - 180.0:.4f}")
    print(f"elevation_deg = {euler.elevation / D2R:.4f}")
    print(f"polarization_deg = {euler.polarization / D2R:.4f}")
    print(f"gimbal_azimuth_deg = {gimbal.azimuth / D2R:.4f}")
    print(f"gimbal_elevation_deg = {gimbal.elevation / D2R:.4f}")
    print(f"gimbal_polarization_deg = {gimbal.polarization / D2R:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_scenario(args.config)
    # convergence_stats arguments per row: the scenario's link, at each --values SNR
    tasks = [
        (m, cfg.array, v, args.seeds, cfg.electrical.params, args.offset_deg, args.threshold,
         cfg.signal)
        for v in args.values
        for m in args.methods
    ]
    # the pool forks all its workers when it starts: one per task at most
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(experiments.convergence_stats, *zip(*tasks)))
    else:
        results = list(map(experiments.convergence_stats, *zip(*tasks)))
    rows = sorted(
        ((task[2], stats.method, stats) for task, stats in zip(tasks, results)),
        key=lambda r: r[:2],
    )
    header = (
        f"{'snr_db':>8} {'method':>12} {'med_iters':>10} {'iters_run':>10} {'reach':>6} "
        f"{'med_nrsp':>9} {'med_queries':>12} {'fit_az_deg':>11} {'fit_el_deg':>11}"
    )
    print(header)
    for value, method, s in rows:
        print(
            f"{value:8.1f} {method:>12} {s.median_iterations:10.1f} "
            f"{s.median_iterations_run:10.1f} "
            f"{s.reach_fraction:6.2f} {s.median_final_nrsp:9.4f} "
            f"{s.median_queries:12.1f} {s.median_fit_azimuth_err_deg:11.4f} "
            f"{s.median_fit_elevation_err_deg:11.4f}"
        )
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "geometry":
            return _cmd_geometry(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return 2
    except Exception as exc:  # config errors and runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
