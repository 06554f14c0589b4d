"""Closed-loop simulation: truth flight, sensors, fusion, mechanical
stabilization with dynamic isolation, channel evaluation, and scheduled
electrical refinement; plus CSV/JSON trace export.

``blocks`` runs the loop a block of up to ``_SENSE_CHUNK`` ticks at a
time and yields each as a ``Block`` of columns, one entry per tick,
after five stages in the order of what they read: ``sense`` (the truth,
the sensor draws, the measurement quaternions, the truth DCMs and the
ideal commands, in numpy), ``fusion.fuse`` (predict, hemisphere sign,
update), the estimates' DCMs and angles (``fusion.estimate``) with their
stabilization commands, ``mechanical.servo`` (isolation at the previous
angles, then the servo step) and ``beam_frame_arrival``.  Only fusion
and the servo are recursive, so only they walk the ticks, each in Python
floats, over the gyro rates as float lists, and fusion never reads the
gimbal; the other stages are one stacked call per block, each tick with
the bits it would have alone.  A block that raises is not yielded.

``trace_blocks`` reads a block of trace rows from each block's columns:
its angle cells in one numpy pass, and its channels a readout of up to
``_READOUT_CHUNK`` ticks at a time: one stacked channel of the ticks'
arrivals, and one stacked normalized received power of the current
analog weights, through the conjugated weight matrix, which changes only
at the epochs.  A readout splits at each epoch tick: the ticks up to and
including it read the weights before the epoch, the ticks after it the
weights the electrical stage refined against the MN channel vector
frozen at the epoch's geometry.  No stage of ``blocks`` reads the
weights, so an epoch never splits a block of the loop.
It yields the records of each readout, with its epoch's records if it
ends on one, as they are read.  ``run_simulation`` is the list of that
stream, and ``write_trace`` writes the stream to CSV and JSON a record
block at a time, so a run that writes its trace holds one block of the
loop and one readout of records, however long it flies.

Randomness is split into independent per-subsystem streams (sensor
noise, channel noise, perturbations) from the master seed by ``streams``,
so changing one noise source leaves the other draws untouched.
"""

from __future__ import annotations

import json
import math
import os
import re
from bisect import bisect_left
from contextlib import ExitStack, contextmanager
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO, get_type_hints

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
    c_n_b, est = fusion.estimate(np.array([state.q]))
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
        states = fusion.fuse(block.filter_state[-1], sensed.omega_m, sensed.z, t_s)
        c_n_b, est = fusion.estimate(np.array([state.q for state in states]))
        targets = mechanical.stabilization_command(c_n_b, euler)
        gimbals = mechanical.servo(block.gimbal[-1], targets, sensed.omega_m, cfg.servo, t_s)
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


def trace_blocks(cfg: ScenarioConfig) -> Iterator[list[TraceRecord]]:
    """Run the full closed loop and yield its trace a readout at a time: one
    record per sensor tick of the readout, then, where the readout ends on
    an epoch, one record per electrical iteration of the epoch (the
    ``phase`` column tells them apart).  The stream holds one block of the
    loop's columns and one readout of records."""
    sensor_rng, channel_rng, perturb_rng = streams(cfg.run.seed)
    loop = blocks(cfg, mechanical.pointing_euler(cfg.geo), sensor_rng, cfg.ticks)
    next(loop)  # the start at t = 0, which the trace does not record
    phases = np.zeros(cfg.array.size)
    wbar = ch.conj_weight_matrix(phases, cfg.array)  # changes only at the epochs
    next_epoch = cfg.electrical.first_epoch
    total_queries = 0

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
            records = [
                TraceRecord(t, "mech", *cells, power, 0, total_queries, int(g.rate_clamped))
                for t, cells, power, g in rows
            ]
            lo = hi
            if hi > epoch:
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
            yield records


def run_simulation(cfg: ScenarioConfig) -> list[TraceRecord]:
    """The whole trace of ``trace_blocks`` as one list, held until the run
    ends (about 1.9 KB per tick)."""
    return list(chain.from_iterable(trace_blocks(cfg)))


# One %-format per row, from the declared column types: 9 significant
# digits for a float column, str() otherwise.  trace_blocks, the one
# writer of records (its _replace(...) rows included), puts floats in the
# float columns and ints in the int columns, so no cell needs its runtime
# type; an int in a float column is written as the float it equals.
_COLUMN_TYPES = tuple(get_type_hints(TraceRecord).values())  # in field order
_ROW_FORMAT = ",".join("%.9g" if kind is float else "%s" for kind in _COLUMN_TYPES)


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


# A CSV line whose cells are their own JSON tokens but for the quotes of
# its str cell: each float cell one that _json_token passes as it is (a
# point or a negative exponent, and no e+, e-3, nan or inf), the str cell
# printable ASCII but for the quote, the comma and the backslash.
_PLAIN_CELL = {
    float: r"-?[0-9]+(?:\.[0-9]+(?:e-[0-24-9][0-9]+)?|e-[0-24-9][0-9]+)",
    int: r"-?[0-9]+",
    str: r"[ !#-+\--\[\]-~]*",
}
# each run of columns of one type as one repeated group: a flat pattern
# takes 4x the time to compile, and 128 KB more peak RSS
_PLAIN_ROW = re.compile(",".join(
    f"{_PLAIN_CELL[kind]}(?:,{_PLAIN_CELL[kind]}){{{len(list(run)) - 1}}}"
    for kind, run in groupby(_COLUMN_TYPES)
))
# the separator of a JSON row's cells, in the layout of json.dumps(..., indent=1)
_CELL_SEP = ",\n   "
# the index of the one cell that a plain line's JSON row quotes: the phase,
# the only str column (the unpacking fails at import for none or several)
(_STR_CELL,) = (i for i, kind in enumerate(_COLUMN_TYPES) if kind is str)


def _json_row(line: str) -> str:
    """The JSON row of one CSV line: each cell its token, on a line of its own."""
    if _PLAIN_ROW.fullmatch(line):
        cells = line.split(",", _STR_CELL + 1)
        cells[_STR_CELL] = f'"{cells[_STR_CELL]}"'
        cells[-1] = cells[-1].replace(",", _CELL_SEP)
        return "  [\n   " + _CELL_SEP.join(cells) + "\n  ]"
    return "  [\n   " + _CELL_SEP.join(map(_json_token, _COLUMN_TYPES, line.split(","))) + "\n  ]"


_CSV_HEAD = f"# {TRACE_SCHEMA}\n" + ",".join(TRACE_COLUMNS) + "\n"
_JSON_HEAD = (
    f'{{\n "schema": {encode_basestring_ascii(TRACE_SCHEMA)},\n "columns": [\n  '
    + ",\n  ".join(map(encode_basestring_ascii, TRACE_COLUMNS)) + '\n ],\n "rows": ['
)


@contextmanager
def _replacing(*paths: str | Path | None) -> Iterator[list[TextIO | None]]:
    """Text files, one per path, written under the path + ".tmp" (None for
    a None path).  When the ``with`` body returns, all are closed, then
    each is renamed to its path; when the body or a close raises, all are
    removed."""
    parts = [None if path is None else Path(f"{path}.tmp") for path in paths]
    try:
        with ExitStack() as stack:
            yield [part and stack.enter_context(open(part, "w")) for part in parts]
        for part, path in zip(parts, paths):
            if part:
                os.replace(part, path)
    except BaseException:
        for part in parts:
            if part:
                part.unlink(missing_ok=True)
        raise


def write_trace(
    stream: Iterable[list[TraceRecord]], csv_path: str | Path | None = None,
    json_path: str | Path | None = None,
) -> None:
    """Write the trace ``stream``, blocks of records, as CSV to ``csv_path``
    and as JSON to ``json_path`` (either may be None), one ``write`` per
    block and file.

    The CSV holds a schema comment, the header and one line per record,
    floats at 9 significant digits.  The JSON mirrors its columns in the
    layout of ``json.dumps(..., indent=1)``: each float is the float of its
    CSV cell, and each row is built from its CSV line.  Each file is
    written under a temporary name; once the stream ends both are closed,
    and only then does each take its own name, so a stream or a close that
    raises leaves neither."""
    with _replacing(csv_path, json_path) as (csv, js):
        if csv:
            csv.write(_CSV_HEAD)
        if js:
            js.write(_JSON_HEAD)
        rows = False  # whether a JSON row is written
        for records in stream:
            if not records:
                continue
            lines = [_ROW_FORMAT % rec for rec in records]
            if csv:
                csv.write("\n".join(lines) + "\n")
            if js:
                js.write((",\n" if rows else "\n") + ",\n".join(map(_json_row, lines)))
                rows = True
        if js:
            js.write("\n ]\n}\n" if rows else "]\n}\n")


def export_csv(records: list[TraceRecord], path: str | Path) -> None:
    """Write ``records`` as the CSV trace of ``write_trace``."""
    write_trace([records], csv_path=path)


def export_json(records: list[TraceRecord], path: str | Path) -> None:
    """Write ``records`` as the JSON trace of ``write_trace``."""
    write_trace([records], json_path=path)
