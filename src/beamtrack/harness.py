"""Closed-loop simulation: truth flight, sensors, fusion, mechanical
stabilization with dynamic isolation, channel evaluation, and scheduled
electrical refinement; plus CSV/JSON trace export.

``blocks`` runs the loop a block of up to ``_SENSE_CHUNK`` ticks at a
time and yields each as a ``Block`` of columns, one entry per tick,
after five stages in the order of what they read: ``sense`` (the truth,
the sensor draws, the measurement quaternions, the truth DCMs and the
ideal commands, in numpy), ``fuse_block`` (predict, hemisphere sign,
update), the estimates' DCMs and angles (``fusion.estimate``) with their
stabilization commands, the servo loop (isolation at the previous
angles, then the servo step) and ``beam_frame_arrival``.  Only fusion
and the servo are recursive, so only they walk the ticks, over the gyro
rates as float lists, and fusion never reads the gimbal; the other
stages are one stacked call per block, each tick with the bits it would
have alone.  A block that raises in any stage is not yielded.

``run_simulation`` reads its trace rows from the columns: a block's
angle cells in one numpy pass, and its channels a readout of up to
``_READOUT_CHUNK`` ticks at a time: one stacked channel of the ticks'
arrivals, and one stacked normalized received power of the current
analog weights, through the conjugated weight matrix, which changes only
at the epochs.  A readout splits at each epoch tick: the ticks up to and
including it read the weights before the epoch, the ticks after it the
weights the electrical stage refined against the MN channel vector
frozen at the epoch's geometry.  No stage of ``blocks`` reads the
weights, so an epoch never splits a block of the loop.

Randomness is split into independent per-subsystem streams (sensor
noise, channel noise, perturbations) from the master seed by ``streams``,
so changing one noise source leaves the other draws untouched.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
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
# ticks per readout: bounds the stacked channel factors that a readout holds
_READOUT_CHUNK = 64


class Block(NamedTuple):
    """A block of ticks of the closed loop, as columns: one entry per tick.
    ``sense`` fills the open-loop columns, the loop's stages the others."""

    t: list[float]
    truth: np.ndarray  # (n, 3) truth yaw, pitch, roll
    omega_m: list | None  # gyro body rates, three floats per tick; None at the start
    pitch_roll: sensors.PitchRoll  # of the accelerometer, each field an (n,) array
    psi_m: np.ndarray  # (n,) GPS yaw
    z: np.ndarray  # (n, 4) measurement quaternions, before their hemisphere sign
    c_n_b_truth: np.ndarray  # (n, 3, 3) truth NED-to-body DCMs
    ideal: list[mechanical.GimbalAngles]  # stabilization commands under the truth
    filter_state: list[fusion.FilterState] | None = None
    est: list[tuple[float, float, float]] | None = None  # the estimates' yaw, pitch, roll
    command: list[mechanical.GimbalAngles] | None = None  # stabilization commands of the estimates
    gimbal: list[GimbalState] | None = None
    arrival: list[tuple[float, float]] | None = None  # (azimuth, elevation) of beam_frame_arrival


def sense(
    cfg: ScenarioConfig, euler: PointingEuler, times: np.ndarray, rng: np.random.Generator,
    gyro: bool = True,
) -> Block:
    """The open-loop columns of the ticks at ``times``, computed for them all
    at once: the truth, the gyro, accelerometer and GPS draws (in that order
    per tick, from ``rng``), the measurement quaternions, the truth DCMs and
    the ideal stabilization commands.  Each entry holds the bits of its tick
    sensed on its own."""
    readings = sensors.sense(times, cfg.profile, cfg.sensors, rng, gyro)
    attitude, pr = readings.truth.attitude, readings.pitch_roll
    c_n_b = frames.c_n_b(attitude)
    omega = readings.omega_m.tolist() if gyro else None
    z = fusion.measurement_quat(readings.gps_yaw, pr.pitch, pr.roll)
    ideal = mechanical.stabilization_command(c_n_b, euler)
    truth = np.column_stack(attitude)
    return Block(times.tolist(), truth, omega, pr, readings.gps_yaw, z, c_n_b, ideal)


def fuse_block(cfg: ScenarioConfig, state: fusion.FilterState, block: Block) -> list:
    """The fusion recursion: from ``state``, one predict, hemisphere sign and
    update per tick of ``block``, each giving the filter state."""
    t_s = cfg.sensors.sample_period
    states = []
    for omega, z in zip(block.omega_m, block.z):
        prior = fusion.predict(state, omega, t_s)
        state = fusion.update(prior, fusion.align(z, prior.q))
        states.append(state)
    return states


def blocks(
    cfg: ScenarioConfig, euler: PointingEuler, rng: np.random.Generator, steps: int
) -> Iterator[Block]:
    """The closed loop: a block of one tick at t = 0, where the filter starts
    on the first accelerometer and GPS draws and the gimbal on the first
    stabilization solution (instant acquisition), then ticks 1 to ``steps``
    (t = k * sample_period) in blocks of up to ``_SENSE_CHUNK``, the sensor
    stream drawn from ``rng``.  Each block runs through the stages before it
    is yielded."""
    block = sense(cfg, euler, np.zeros(1), rng, gyro=False)
    state = fusion.make_filter_state(block.z[0], cfg.fusion)
    c_n_b, est = fusion.estimate(state.q[None])
    targets = mechanical.stabilization_command(c_n_b, euler)
    block = block._replace(
        filter_state=[state], est=est, command=targets, gimbal=[GimbalState(targets[0])],
        arrival=beam_frame_arrival(targets, block.c_n_b_truth, euler),
    )
    yield block
    t_s = cfg.sensors.sample_period
    for first in range(1, steps + 1, _SENSE_CHUNK):
        times = np.arange(first, min(first + _SENSE_CHUNK, steps + 1)) * t_s
        sensed = sense(cfg, euler, times, rng)
        states = fuse_block(cfg, block.filter_state[-1], sensed)
        c_n_b, est = fusion.estimate(np.array([state.q for state in states]))
        targets = mechanical.stabilization_command(c_n_b, euler)
        gimbal, gimbals = block.gimbal[-1], []
        for target, omega in zip(targets, sensed.omega_m):  # the servo recursion
            isolation = mechanical.isolation_rates(gimbal.angles, omega)
            gimbal = mechanical.gimbal_step(gimbal, target, isolation, cfg.servo, t_s)
            gimbals.append(gimbal)
        block = sensed._replace(
            filter_state=states, est=est, command=targets, gimbal=gimbals,
            arrival=beam_frame_arrival([g.angles for g in gimbals], sensed.c_n_b_truth, euler),
        )
        yield block


def streams(seed: int) -> tuple[np.random.Generator, ...]:
    """The run's sensor, channel and perturbation generators: the three
    children of ``seed``'s SeedSequence, in that order."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))


def attitude_error(est, truth) -> tuple[float, float, float]:
    """(yaw, pitch, roll) of ``est`` minus ``truth``, yaw and roll wrapped
    to (-pi, pi]."""
    return (
        frames.wrap_angle(est[0] - truth[0]),
        est[1] - truth[1],
        frames.wrap_angle(est[2] - truth[2]),
    )


def _wrap_angles(angles: np.ndarray) -> np.ndarray:
    """``frames.wrap_angle`` of each of the finite ``angles``, with its bits:
    ``np.fmod`` is exact, as ``math.fmod`` is.  Where ``math.fmod`` raises
    on an infinite angle, ``np.fmod`` gives nan."""
    r = np.fmod(angles + math.pi, frames.TWO_PI)
    return np.where(r <= 0.0, r + frames.TWO_PI, r) - math.pi


# the columns of _trace_angles wrapped to (-pi, pi]: yaw, roll, pointing errors
_WRAPPED = [6, 8, 12, 13]


def _trace_angles(block: Block) -> list[list[float]]:
    """The angle cells of each tick's trace row, in degrees: truth, estimate
    and error (yaw, pitch, roll), gimbal angles, pointing error (azimuth,
    elevation).  The angles are finite (``sense`` checks the truth, the
    others come out of atan2, asin and ``frames.wrap_angle``), so the
    errors wrap as ``attitude_error`` and ``mechanical.pointing_error`` do."""
    est = np.array(block.est)
    gimbal = np.array([g.angles for g in block.gimbal])
    ideal = np.array(block.ideal)
    rad = np.hstack((block.truth, est, est - block.truth, gimbal, ideal[:, :2] - gimbal[:, :2]))
    rad[:, _WRAPPED] = _wrap_angles(rad[:, _WRAPPED])
    return (rad * R2D).tolist()


def run_simulation(cfg: ScenarioConfig) -> list[TraceRecord]:
    """Run the full closed loop and return the trace.

    One record per sensor tick plus one per electrical iteration at each
    refinement epoch (the ``phase`` column tells them apart).
    """
    sensor_rng, channel_rng, perturb_rng = streams(cfg.run.seed)
    loop = blocks(cfg, mechanical.pointing_euler(cfg.geo), sensor_rng, cfg.ticks)
    next(loop)  # the start at t = 0, which the trace does not record
    phases = np.zeros(cfg.array.size)
    wbar = ch.conj_weight_matrix(phases, cfg.array)  # changes only at the epochs
    next_epoch = cfg.electrical.first_epoch
    total_queries = 0
    records: list[TraceRecord] = []

    for block in loop:
        angles = _trace_angles(block)
        lo = 0
        while lo < len(block.t):
            # the first tick at or past the next epoch, as the times increase
            epoch = bisect_left(block.t, next_epoch - 1e-12, lo)
            hi = min(lo + _READOUT_CHUNK, epoch + 1, len(block.t))
            # the ticks up to an epoch read the weights before it, in one
            # stacked readout of their channels
            powers = cfg.signal.channel(cfg.array, block.arrival[lo:hi]).nrsp(wbar)
            rows = zip(block.t[lo:hi], angles[lo:hi], powers, block.gimbal[lo:hi])
            records += [
                TraceRecord(t, "mech", *cells, power, 0, total_queries, int(g.rate_clamped))
                for t, cells, power, g in rows
            ]
            lo = hi
            if hi <= epoch:
                continue
            next_epoch += cfg.electrical.epoch_period
            [h_vec] = cfg.signal.channel(cfg.array, [block.arrival[epoch]]).vec()
            oracle = ch.PowerOracle(h_vec, cfg.signal.noise_power, channel_rng)
            phases, trace = el.RUNNERS[cfg.electrical.method](
                phases, oracle, cfg.electrical.params, perturb_rng, cfg.array
            )
            wbar = ch.conj_weight_matrix(phases, cfg.array)
            base = records[-1]
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

