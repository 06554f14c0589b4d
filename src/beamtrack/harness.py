"""Closed-loop simulation: truth flight, sensors, fusion, mechanical
stabilization with dynamic isolation, channel evaluation, and scheduled
electrical refinement; plus CSV/JSON trace export.

``ticks`` runs the loop a block of up to ``_SENSE_CHUNK`` ticks at a time,
each block through five stages in the order of what they read: ``sense``
(the truth, the sensor draws, the measurement quaternions, the truth DCMs
and the ideal commands, in numpy), ``fuse_block`` (predict, hemisphere
sign, update, estimate), the stabilization commands of the estimates,
the servo loop (isolation at the previous angles, then the servo step)
and ``beam_frame_arrival``.  Only fusion and the servo are recursive, so
only they loop per tick, and fusion never reads the gimbal; the other
stages are one stacked call per block, each tick with the bits it would
have alone.  A block that raises in any stage yields none of its ticks.

Per tick ``run_simulation`` reads the channel at the tick's arrival and
records the normalized received power of the current analog weights,
through the conjugated weight matrix, which changes only at the epochs.
At configured epochs the electrical stage refines the weights against the
MN channel vector frozen at the epoch's geometry.  No stage reads the
weights, so an epoch never splits a block.

Randomness is split into independent per-subsystem streams (sensor
noise, channel noise, perturbations) from the master seed, so changing
one noise source leaves the other draws untouched.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterator, NamedTuple, get_type_hints

import numpy as np

from . import channel as ch
from . import electrical as el
from . import frames, fusion, mechanical, sensors
from .config import ScenarioConfig
from .mechanical import GimbalState, PointingEuler

R2D = 180.0 / math.pi

TRACE_SCHEMA = "beamtrack-trace v1"


class TraceRecord(NamedTuple):
    """One trace row.  The writers format a cell by its declared type, so a
    float column must hold a float: an int there is written as %.9g writes
    it (1000000000 as 1e+09)."""

    t: float
    phase: str  # "mech" per tick, "elec" per optimizer iteration
    yaw_true_deg: float
    pitch_true_deg: float
    roll_true_deg: float
    yaw_est_deg: float
    pitch_est_deg: float
    roll_est_deg: float
    yaw_err_deg: float
    pitch_err_deg: float
    roll_err_deg: float
    azimuth_deg: float
    elevation_deg: float
    polarization_deg: float
    azimuth_err_deg: float
    elevation_err_deg: float
    nrsp: float
    elec_iteration: int
    oracle_queries: int
    rate_clamped: int


TRACE_COLUMNS = list(TraceRecord._fields)


def beam_frame_arrival(angles, c_n_b_truth: np.ndarray, euler: PointingEuler) -> list:
    """Arrival directions of the satellite, on the boresight of the pointing
    solution ``euler``, in the beam frames of the (n, 3) gimbal ``angles``
    on the (n, 3, 3) truth NED-to-body DCMs ``c_n_b_truth``.

    Returns the n (azimuth, elevation) pairs of the channel model: azimuth
    is the polar angle off the array normal (0 for perfect pointing),
    elevation the orientation of the offset around it (0.0 on the normal).
    """
    sat_dir_ned = frames.c_n_t(*euler).T @ np.array([1.0, 0.0, 0.0])
    # @ runs ndarray.dot's BLAS calls per row; the angles stay math's
    u = frames.c_b_t(*np.array(angles, dtype=float).T.copy()) @ c_n_b_truth @ sat_dir_ned
    arrivals = []
    for u0, u1, u2 in u.tolist():
        transverse = math.hypot(u1, u2)
        arrivals.append(
            (math.atan2(transverse, u0), math.atan2(u2, u1) if transverse > 0 else 0.0)
        )
    return arrivals


# ticks per block: bounds what a block holds
_SENSE_CHUNK = 1024


class Sensed(NamedTuple):
    """The open-loop half of a tick: what depends only on ``t`` and the
    sensor stream."""

    t: float
    truth: frames.Attitude
    omega_m: tuple[float, float, float] | None  # None from start, which draws no gyro sample
    pitch_roll: sensors.PitchRoll
    psi_m: float
    z: np.ndarray  # measurement quaternion, before its hemisphere sign
    c_n_b_truth: np.ndarray  # truth NED-to-body DCM
    ideal: mechanical.GimbalAngles  # stabilization command under the truth


class Tick(NamedTuple):
    """One tick of the closed loop, and the loop state for the next."""

    sensed: Sensed
    filter_state: fusion.FilterState
    c_n_b: np.ndarray  # NED-to-body DCM of the estimate
    est: frames.Attitude  # its yaw/pitch/roll, for the trace
    gimbal: GimbalState
    arrival: tuple[float, float]  # (azimuth, elevation) of beam_frame_arrival


def sense(
    cfg: ScenarioConfig,
    euler: PointingEuler,
    times: np.ndarray,
    rng: np.random.Generator,
    gyro: bool = True,
) -> list[Sensed]:
    """The open-loop half of the ticks at ``times``, computed for them all at
    once: the truth, the gyro, accelerometer and GPS draws (in that order per
    tick, from ``rng``), the measurement quaternions, the truth DCMs and the
    ideal stabilization commands.  Each entry holds the bits of its tick
    sensed on its own."""
    readings = sensors.sense(times, cfg.profile, cfg.sensors, rng, gyro)
    attitude, pr = readings.truth.attitude, readings.pitch_roll
    c_n_b = frames.c_n_b(attitude)
    omega = map(tuple, readings.omega_m.tolist()) if gyro else [None] * len(times)
    return list(map(
        Sensed,
        times.tolist(),
        map(frames.Attitude, *(a.tolist() for a in attitude)),
        omega,
        map(sensors.PitchRoll, *(a.tolist() for a in pr)),
        readings.gps_yaw.tolist(),
        fusion.measurement_quat(readings.gps_yaw, pr.pitch, pr.roll),
        c_n_b,
        mechanical.stabilization_command(c_n_b, euler),
    ))


def fuse_block(cfg: ScenarioConfig, state: fusion.FilterState, block: list[Sensed]) -> list:
    """The fusion stage: from ``state``, one predict, hemisphere sign, update
    and estimate per tick of ``block``, each giving the filter state, the
    estimate's DCM and its yaw/pitch/roll (the fields of ``Tick``)."""
    t_s = cfg.sensors.sample_period
    fused = []
    for sensed in block:
        prior = fusion.predict(state, sensed.omega_m, t_s)
        state = fusion.update(prior, fusion.align(sensed.z, prior.q))
        fused.append((state, *fusion.estimate(state.q)))
    return fused


def start(cfg: ScenarioConfig, euler: PointingEuler, rng: np.random.Generator) -> Tick:
    """The loop at t = 0: the filter starts on the first accelerometer and
    GPS draws, and the gimbal on the first stabilization solution (instant
    acquisition)."""
    [first] = sense(cfg, euler, np.zeros(1), rng, gyro=False)
    state = fusion.make_filter_state(first.z, cfg.fusion)
    c_n_b, est = fusion.estimate(state.q)
    [target] = mechanical.stabilization_command(c_n_b[None], euler)
    [arrival] = beam_frame_arrival([target], first.c_n_b_truth[None], euler)
    return Tick(first, state, c_n_b, est, GimbalState(target), arrival)


def ticks(
    cfg: ScenarioConfig, euler: PointingEuler, rng: np.random.Generator, steps: int
) -> Iterator[Tick]:
    """The closed loop: ``start``'s tick at t = 0, then ticks 1 to ``steps``
    (t = k * sample_period), the sensor stream drawn from ``rng``; each
    block of ``_SENSE_CHUNK`` ticks runs through the stages before any of
    its ticks is yielded."""
    tick = start(cfg, euler, rng)
    yield tick
    t_s = cfg.sensors.sample_period
    for first in range(1, steps + 1, _SENSE_CHUNK):
        times = np.arange(first, min(first + _SENSE_CHUNK, steps + 1)) * t_s
        block = sense(cfg, euler, times, rng)
        fused = fuse_block(cfg, tick.filter_state, block)
        estimates = np.array([c_n_b for _, c_n_b, _ in fused])
        targets = mechanical.stabilization_command(estimates, euler)
        gimbal, gimbals = tick.gimbal, []
        for target, sensed in zip(targets, block):  # the servo loop
            isolation = mechanical.isolation_rates(gimbal.angles, sensed.omega_m)
            gimbal = mechanical.gimbal_step(gimbal, target, isolation, cfg.servo, t_s)
            gimbals.append(gimbal)
        arrivals = beam_frame_arrival(
            [g.angles for g in gimbals], np.array([s.c_n_b_truth for s in block]), euler
        )
        done = [Tick(s, *f, g, a) for s, f, g, a in zip(block, fused, gimbals, arrivals)]
        yield from done
        tick = done[-1]


def attitude_error(est, truth) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of ``est`` minus ``truth``, yaw and roll wrapped
    to (-pi, pi]."""
    return (
        frames.wrap_angle(est[0] - truth[0]),
        est[1] - truth[1],
        frames.wrap_angle(est[2] - truth[2]),
    )


def run_simulation(cfg: ScenarioConfig) -> list[TraceRecord]:
    """Run the full closed loop and return the trace.

    One record per sensor tick plus one per electrical iteration at each
    refinement epoch (the ``phase`` column tells them apart).
    """
    master = np.random.SeedSequence(cfg.run.seed)
    sensor_rng, channel_rng, perturb_rng = (
        np.random.default_rng(s) for s in master.spawn(3)
    )
    t_s = cfg.sensors.sample_period
    steps = int(round(cfg.run.duration / t_s))
    loop = ticks(cfg, mechanical.pointing_euler(cfg.geo), sensor_rng, steps)
    next(loop)  # the start at t = 0, which the trace does not record
    phases = np.zeros(cfg.array.size)
    wbar = ch.conj_weight_matrix(phases, cfg.array)  # changes only at the epochs
    next_epoch = cfg.electrical.first_epoch
    total_queries = 0
    records: list[TraceRecord] = []

    for tick in loop:
        sensed, gimbal = tick.sensed, tick.gimbal
        t, truth = sensed.t, sensed.truth
        chan = cfg.signal.channel(cfg.array, *tick.arrival)
        # degrees: truth, estimate and error (yaw, pitch, roll), gimbal
        # angles, pointing error (azimuth, elevation)
        angles = (
            *truth, *tick.est, *attitude_error(tick.est, truth), *gimbal.angles,
            *mechanical.pointing_error(gimbal, sensed.ideal),
        )
        base = TraceRecord(
            t, "mech", *(a * R2D for a in angles),
            chan.nrsp(wbar), 0, total_queries, int(gimbal.rate_clamped),
        )
        records.append(base)

        if t >= next_epoch - 1e-12:
            next_epoch += cfg.electrical.epoch_period
            oracle = ch.PowerOracle(chan.vec(), cfg.signal.noise_power, channel_rng)
            phases, trace = el.RUNNERS[cfg.electrical.method](
                phases, oracle, cfg.electrical.params, perturb_rng, cfg.array
            )
            wbar = ch.conj_weight_matrix(phases, cfg.array)
            records.extend(
                base._replace(
                    phase="elec", nrsp=trace.nrsp[i], elec_iteration=i + 1,
                    oracle_queries=total_queries + trace.queries[i], rate_clamped=0,
                )
                for i in range(len(trace))
            )
            total_queries += oracle.queries
    return records


# One %-format per row, from the declared column types: 9 significant
# digits for a float column, str() otherwise.  run_simulation, the one
# writer of records (its _replace(...) rows included), puts floats in the
# float columns and ints in the int columns, so no cell needs its runtime
# type; an int in a float column is written as the float it equals.
_COLUMN_TYPES = tuple(get_type_hints(TraceRecord).values())  # in field order
_ROW_FORMAT = ",".join("%.9g" if kind is float else "%s" for kind in _COLUMN_TYPES)


def _data_lines(records: list[TraceRecord]) -> list[str]:
    """One CSV line per record, each formatted by one C-level call."""
    return [_ROW_FORMAT % rec for rec in records]


def _json_token(kind: type, cell: str) -> str:
    """The JSON token of one CSV cell: for a float column, the token of
    ``float(cell)``, which %.9g writes in the same digits as float repr
    except for integral values, positive exponents, subnormals and nan/inf."""
    if kind is not float:
        return encode_basestring_ascii(cell) if kind is str else cell
    if "e+" in cell or "e-3" in cell or cell[-1] in "nf":
        # 1.5e+09 (repr: 1500000000.0), e-3x and e-3xx (the subnormals
        # among them, which hold fewer than 9 digits: 5e-324), nan, inf
        return json.dumps(float(cell))
    if "." in cell or "e" in cell:  # 0.25, 1e-05
        return cell
    return cell + ".0"  # 5, -0


def export_csv(records: list[TraceRecord], path: str | Path) -> None:
    """Write the trace as CSV: schema comment, header, 9-significant-digit
    floats, one line per record."""
    lines = [f"# {TRACE_SCHEMA}", ",".join(TRACE_COLUMNS), *_data_lines(records)]
    Path(path).write_text("\n".join(lines) + "\n")


def export_json(records: list[TraceRecord], path: str | Path) -> None:
    """JSON mirror of the CSV columns, in the layout of ``json.dumps(...,
    indent=1)``: each float is the float of its 9-digit CSV cell."""
    rows = ",\n".join(
        "  [\n   " + ",\n   ".join(map(_json_token, _COLUMN_TYPES, line.split(","))) + "\n  ]"
        for line in _data_lines(records)
    )
    columns = ",\n  ".join(map(encode_basestring_ascii, TRACE_COLUMNS))
    body = f"[\n{rows}\n ]" if rows else "[]"
    Path(path).write_text(
        f'{{\n "schema": {encode_basestring_ascii(TRACE_SCHEMA)},\n'
        f' "columns": [\n  {columns}\n ],\n "rows": {body}\n}}\n'
    )

