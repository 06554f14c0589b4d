"""Acceptance experiments.

One test per criterion; each prints ``ACCEPTANCE <n> <PASS|FAIL>: detail``
before asserting, so a plain ``pytest -s tests/test_acceptance.py`` gives
the full scorecard.  Criteria are asserted exactly at their stated
tolerances; expensive experiment data is shared through module fixtures.
"""

import math
import time

import numpy as np
import pytest

from beamtrack import frames, harness, mechanical, sensors
from beamtrack.channel import ArrayGeometry, nrsp
from beamtrack.cli import cli_main
from beamtrack.config import default_scenario
from beamtrack.electrical import AsspParams
from beamtrack.frames import Attitude
from beamtrack.experiments import convergence_stats
from beamtrack.mechanical import GimbalAngles

D2R = math.pi / 180.0


def report(n: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def closed_loop_runs():
    """20 seeds x 60 s of the default scenario without the electrical stage:
    per-tick max attitude error, pointing errors, gyro-only drift, and the
    pre-electrical nrsp at t = 5 s."""
    cfg = default_scenario()
    t_s = cfg.sensors.sample_period
    steps = int(60.0 / t_s)
    euler = mechanical.pointing_euler(cfg.geo)
    results = []
    started = time.perf_counter()
    for seed in range(20):
        # the sensor stream of run_simulation for the same seed
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        loop = harness.ticks(cfg, euler, rng, steps)
        gyro_only = next(loop).est
        att_err = np.empty(steps)
        gyro_err = np.empty(steps)
        pt_err = np.empty((steps, 2))
        nrsp_pre = None
        for k, tick in enumerate(loop, 1):
            sensed = tick.sensed
            truth = sensed.truth
            gyro_only = sensors.gyro_integrate(gyro_only, sensed.omega_m, t_s)
            att_err[k - 1] = max(map(abs, harness.attitude_error(tick.est, truth)))
            gyro_err[k - 1] = max(map(abs, harness.attitude_error(gyro_only, truth)))
            pt_err[k - 1] = mechanical.pointing_error(tick.gimbal, sensed.ideal)
            if nrsp_pre is None and sensed.t >= 5.0:
                h = cfg.signal.channel(cfg.array, *tick.arrival).vec()
                nrsp_pre = nrsp(np.zeros(cfg.array.size), h)
        results.append((att_err, gyro_err, pt_err, nrsp_pre))
    return results, time.perf_counter() - started


ELECTRICAL_BUDGET = 100
# the threshold metric must reflect the algorithm, not the stop heuristic
ACCEPT_PARAMS = AsspParams(max_iters=ELECTRICAL_BUDGET, stop_window=10**9, seq_max_sweeps=4)
STANDARD_GEOM = ArrayGeometry(128, 64)


@pytest.fixture(scope="module")
def assp_20db():
    return convergence_stats("assp", STANDARD_GEOM, 20.0, 100, ACCEPT_PARAMS)


@pytest.fixture(scope="module")
def assp_10db():
    return convergence_stats("assp", STANDARD_GEOM, 10.0, 100, ACCEPT_PARAMS)


@pytest.fixture(scope="module")
def spsa_20db():
    return convergence_stats("spsa", STANDARD_GEOM, 20.0, 100, ACCEPT_PARAMS)


@pytest.fixture(scope="module")
def seq_20db():
    return convergence_stats("sequential", STANDARD_GEOM, 20.0, 100, ACCEPT_PARAMS)


# ---------------------------------------------------------------- criteria

def test_criterion_01_geometry_exactness():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst_gimbal = 0.0
    for _ in range(10_000):
        a = rng.uniform(-math.pi, math.pi)
        b = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        g = rng.uniform(-math.pi, math.pi)
        out = frames.zyx_angles(frames.c_b_t(a, b, g))
        worst_gimbal = max(
            worst_gimbal,
            abs(frames.wrap_angle(out[0] - a)),
            abs(out[1] - b),
            abs(frames.wrap_angle(out[2] - g)),
        )
    worst_euler = 0.0
    for _ in range(10_000):
        att = Attitude(
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3),
            rng.uniform(-math.pi, math.pi),
        )
        out = Attitude(*frames.zyx_angles(frames.quat_to_dcm(frames.euler_to_quat(att)).T))
        worst_euler = max(worst_euler, *map(abs, harness.attitude_error(out, att)))
    elapsed = time.perf_counter() - started
    ok = worst_gimbal <= 1e-10 and worst_euler <= 1e-10 and elapsed < 1.0
    line = report(
        1, ok,
        f"gimbal round-trip worst {worst_gimbal:.2e}, euler chain worst "
        f"{worst_euler:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 1s)",
    )
    assert ok, line


def test_criterion_02_reference_pointing_solution(capsys):
    code = cli_main([
        "geometry", "--lat", "34.27", "--lon", "108.95", "--sat-lon", "105.5",
        "--earth-radius-km", "6378", "--orbit-radius-km", "42164",
    ])
    out = capsys.readouterr().out
    with capsys.disabled():
        assert code == 0
        values = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        o_off = float(values["heading_offset_deg"])
        e = float(values["elevation_deg"])
        v = float(values["polarization_deg"])
        ok_o = abs(o_off - 6.11) <= 0.05
        ok_e = abs(e - 50.1) <= 0.1
        ok_v = abs(abs(v) - 5.05) <= 0.05
        ok = ok_o and ok_e and ok_v
        line = report(
            2, ok,
            f"heading-180 = {o_off:.4f} (6.11 +/- 0.05: {'ok' if ok_o else 'FAIL'}), "
            f"elevation = {e:.4f} (50.1 +/- 0.1: {'ok' if ok_e else 'FAIL'}), "
            f"|polarization| = {abs(v):.4f} (5.05 +/- 0.05: {'ok' if ok_v else 'FAIL'})",
        )
        assert ok, line


def test_criterion_03_dynamic_isolation_closure():
    rng = np.random.default_rng(99)
    n = 100_000
    angles = np.column_stack([
        rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-80 * D2R, 80 * D2R, n),
        rng.uniform(-math.pi, math.pi, n),
    ])
    omegas = rng.uniform(-1.0, 1.0, (n, 3))
    started = time.perf_counter()
    worst = 0.0
    for i in range(n):
        ga = GimbalAngles(*angles[i])
        rates = mechanical.isolation_rates(ga, omegas[i])
        resid = mechanical.monitor_beam_rate(ga, rates) + mechanical.coupled_beam_rate(
            ga, omegas[i]
        )
        err = abs(resid[0]) + abs(resid[1]) + abs(resid[2])
        if err > worst:
            worst = err
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    line = report(
        3, ok,
        f"worst |monitor + coupled| over 1e5 states = {worst:.2e} (tol 1e-12), "
        f"runtime {elapsed:.2f}s (< 5s)",
    )
    assert ok, line


def test_criterion_04_fusion_band(closed_loop_runs):
    runs, elapsed = closed_loop_runs
    fracs = [np.mean(att <= 0.5 * D2R) for att, _, _, _ in runs]
    drifts = [gyro.max() for _, gyro, _, _ in runs]
    seeds_ok = sum(f >= 0.95 for f in fracs)
    drift_ok = all(d > 1.0 * D2R for d in drifts)
    ok = seeds_ok == 20 and drift_ok and elapsed < 30.0
    line = report(
        4, ok,
        f"fused error <= 0.5 deg on >= 95% ticks for {seeds_ok}/20 seeds "
        f"(min frac {min(fracs):.4f}); gyro-only drift {np.rad2deg(min(drifts)):.1f}"
        f"..{np.rad2deg(max(drifts)):.1f} deg all > 1 deg: {drift_ok}; "
        f"runtime {elapsed:.1f}s (< 30s)",
    )
    assert ok, line


def test_criterion_05_mechanical_pointing_band(closed_loop_runs):
    runs, _ = closed_loop_runs
    fracs = [np.mean(np.abs(pt).max(axis=1) <= 0.5 * D2R) for _, _, pt, _ in runs]
    nrsp_pre = [v for _, _, _, v in runs]
    ok = all(f >= 0.90 for f in fracs)
    line = report(
        5, ok,
        f"pointing error <= 0.5 deg on >= 90% ticks in all seeds "
        f"(min frac {min(fracs):.4f}); pre-electrical nrsp median "
        f"{np.median(nrsp_pre):.4f} (reference value 0.952, no hard tolerance)",
    )
    assert ok, line


def test_criterion_06_assp_convergence(assp_20db, assp_10db):
    ok20 = assp_20db.median_iterations <= 10
    ok10 = assp_10db.median_iterations <= 20
    ok = ok20 and ok10
    # informational: the same optimizer at the residual scale the closed
    # loop actually hands over (pre-electrical nrsp ~0.95 corresponds to
    # roughly 0.1 deg per axis, not 0.3 deg)
    diag20 = convergence_stats("assp", STANDARD_GEOM, 20.0, 40, ACCEPT_PARAMS, offset_deg=0.1)
    diag10 = convergence_stats("assp", STANDARD_GEOM, 10.0, 40, ACCEPT_PARAMS, offset_deg=0.1)
    print(
        f"  [diagnostic, not the stated criterion] at 0.1 deg/axis offset: "
        f"median iterations {diag20.median_iterations:.0f} @20 dB "
        f"(reach {diag20.reach_fraction:.0%}), {diag10.median_iterations:.0f} @10 dB "
        f"(reach {diag10.reach_fraction:.0%})"
    )
    line = report(
        6, ok,
        f"median iterations to nrsp>=0.99 at 20 dB = {assp_20db.median_iterations:.0f} "
        f"(<= 10: {'ok' if ok20 else 'FAIL'}, reach {assp_20db.reach_fraction:.0%}, "
        f"median final nrsp {assp_20db.median_final_nrsp:.4f}); at 10 dB = "
        f"{assp_10db.median_iterations:.0f} (<= 20: {'ok' if ok10 else 'FAIL'}, "
        f"reach {assp_10db.reach_fraction:.0%}, final {assp_10db.median_final_nrsp:.4f})",
    )
    assert ok, line


def test_criterion_07_baseline_ordering(assp_20db, spsa_20db, seq_20db):
    seq_equiv = seq_20db.median_queries_to_threshold / 2.0
    ok = (
        assp_20db.median_iterations
        < spsa_20db.median_iterations
        < seq_equiv
    )
    line = report(
        7, ok,
        f"median iterations-to-0.99: assp {assp_20db.median_iterations:.0f} "
        f"< spsa {spsa_20db.median_iterations:.0f} "
        f"< sequential {seq_equiv:.0f} (queries/2): {ok} "
        f"(final nrsp: assp {assp_20db.median_final_nrsp:.3f}, "
        f"spsa {spsa_20db.median_final_nrsp:.3f}, seq {seq_20db.median_final_nrsp:.3f})",
    )
    assert ok, line


def test_criterion_08_final_angle_error(assp_10db):
    ok = (
        assp_10db.median_fit_azimuth_err_deg <= 0.05
        and assp_10db.median_fit_elevation_err_deg <= 0.05
    )
    line = report(
        8, ok,
        f"median fitted arrival error at 10 dB: polar {assp_10db.median_fit_azimuth_err_deg:.4f} deg, "
        f"orientation {assp_10db.median_fit_elevation_err_deg:.4f} deg (tol 0.05 deg each)",
    )
    assert ok, line


def test_criterion_09_antenna_count_insensitivity(assp_20db, seq_20db):
    stats = {
        (16, 8): convergence_stats("assp", ArrayGeometry(16, 8), 20.0, 50, ACCEPT_PARAMS),
        (64, 32): convergence_stats("assp", ArrayGeometry(64, 32), 20.0, 50, ACCEPT_PARAMS),
        (128, 64): assp_20db,
    }
    meds = {k: s.median_iterations for k, s in stats.items()}
    pairs = [((16, 8), (64, 32)), ((16, 8), (128, 64)), ((64, 32), (128, 64))]
    ratios = {
        (a, b): max(meds[a], meds[b]) / max(1.0, min(meds[a], meds[b]))
        for a, b in pairs
    }
    ok_iters = all(r <= 2.0 for r in ratios.values())
    seq_small = convergence_stats(
        "sequential", ArrayGeometry(16, 8), 20.0, 5, ACCEPT_PARAMS
    )
    growth = seq_20db.median_queries / seq_small.median_queries
    ok_queries = growth >= 10.0
    ok = ok_iters and ok_queries
    line = report(
        9, ok,
        f"assp median iterations {meds} pairwise <= 2x: {ok_iters} "
        f"(worst ratio {max(ratios.values()):.1f}); sequential query growth "
        f"{seq_small.median_queries:.0f} -> {seq_20db.median_queries:.0f} "
        f"= {growth:.0f}x (>= 10x: {ok_queries})",
    )
    assert ok, line


def test_criterion_10_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[array]\nrows = 16\ncols = 8\n"
        "[run]\nduration = 3\nseed = 11\n"
        "[electrical]\nfirst_epoch = 1.5\nmax_iters = 20\n"
    )
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        blobs.append((out / "trace.csv").read_bytes())
    capsys.readouterr()
    with capsys.disabled():
        ok = blobs[0] == blobs[1]
        line = report(
            10, ok,
            f"two simulate runs, identical config+seed: byte-identical CSV = {ok} "
            f"({len(blobs[0])} bytes)",
        )
        assert ok, line
