"""The references of the test suite, each defined once: what the program
computes a block of ticks or a stack of arrivals at a time, written out a
tick or an arrival at a time.

Each test module compares the stage it owns against these, and no test
module imports another (``test_imports.py``).  The loop's references
build ``harness.Block`` columns: ``reference_sensed`` the open-loop half
of a tick, ``reference_step`` a closed-loop tick through the recursions
``reference_fuse`` and ``reference_servo``, ``reference_ticks`` the loop
and ``reference_run`` its trace, each tick's channel read on its own
(``reference_terms``).  The tests compare blocks through ``block_bits``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from beamtrack import electrical, frames, fusion, harness, mechanical, sensors
from beamtrack.channel import WAVELENGTH, PowerOracle, conj_weight_matrix
from beamtrack.config import ScenarioConfig
from beamtrack.frames import Attitude
from beamtrack.fusion import FilterState, NumericalError
from beamtrack.mechanical import GimbalAngles, GimbalRates, ServoConfig
from beamtrack.sensors import ProfileConfig, SensorNoiseConfig


def bits(values) -> bytes:
    """The bytes of every number in ``values``, a number, an array or a
    nested sequence of them, in order: a flag reads as 0.0 or 1.0, and a
    complex array keeps its complex bytes."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged, as a filter state of a 4-vector and scalars
        return b"".join(map(bits, values))
    return array.astype(complex if array.dtype.kind == "c" else float).tobytes()


def block_bits(block: harness.Block) -> bytes:
    """The bits of the filled columns of ``block``, a row of floats per
    tick: consecutive blocks join into the bits of one block of their
    ticks."""
    columns = block._replace(pitch_roll=np.column_stack(block.pitch_roll))
    n = len(block.t)
    return np.hstack([
        np.frombuffer(bits(column)).reshape(n, -1) for column in columns if column is not None
    ]).tobytes()


# ---------------------------------------------------------------- frames
# The frame rotations by an angle about one axis: the factors of frames._zyx.


def rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


# ---------------------------------------------------------- the open-loop tick
# What sensors.sense and harness.sense compute for a block of ticks in numpy.


def quiet_noise(**overrides) -> SensorNoiseConfig:
    """Sensors without noise or bias, but for ``overrides``."""
    base = dict(gyro_white_sigma=0.0, gyro_bias=0.0, accel_white_sigma=0.0, gps_yaw_sigma=0.0)
    return SensorNoiseConfig(**{**base, **overrides})


def reference_flight_profile(t: float, profile: ProfileConfig) -> sensors.FlightState:
    """The truth at one time ``t``."""
    if t < 0:
        raise ValueError("time must be non-negative")
    axes = []
    for terms in (profile.yaw, profile.pitch, profile.roll):
        value = rate = 0.0
        for amp, freq, phase in terms:
            w = 2.0 * math.pi * freq
            value += amp * math.sin(w * t + phase)
            rate += amp * w * math.cos(w * t + phase)
        axes.append((value, rate))
    (yaw, yaw_rate), (pitch, pitch_rate), (roll, roll_rate) = axes
    attitude = Attitude(yaw, pitch, roll)
    euler_rates = (roll_rate, pitch_rate, yaw_rate)
    return sensors.FlightState(
        attitude, euler_rates, sensors.euler_rates_to_body_rates(attitude, euler_rates)
    )


def gyro_measure(truth, noise: SensorNoiseConfig, rng) -> tuple[float, float, float]:
    """Gyro triad output: truth + constant bias + white noise per axis."""
    wx, wy, wz = truth
    nx, ny, nz = rng.standard_normal(3).tolist()
    bias, sigma = noise.gyro_bias, noise.gyro_white_sigma
    return (wx + bias + sigma * nx, wy + bias + sigma * ny, wz + bias + sigma * nz)


def accel_measure(attitude: Attitude, noise: SensorNoiseConfig, rng) -> tuple[float, float, float]:
    """Accelerometer triad: gravity projection + noise; level gives (0, 0, -g)."""
    sp, cp = math.sin(attitude.pitch), math.cos(attitude.pitch)
    sr, cr = math.sin(attitude.roll), math.cos(attitude.roll)
    nx, ny, nz = rng.standard_normal(3).tolist()
    g, sigma = -noise.gravity, noise.accel_white_sigma
    return (g * -sp + sigma * nx, g * (sr * cp) + sigma * ny, g * (cr * cp) + sigma * nz)


def gps_yaw_measure(attitude: Attitude, noise: SensorNoiseConfig, rng) -> float:
    """Dual-antenna GPS heading: the yaw of the first row of c_n_b + noise."""
    yaw, pitch, roll = attitude
    if not (math.isfinite(yaw) and math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError(f"attitude must be finite, got {attitude!r}")
    cp = math.cos(pitch)
    north, east = cp * math.cos(yaw), cp * math.sin(yaw)
    return math.atan2(east, north) + noise.gps_yaw_sigma * rng.standard_normal()


def reference_pitch_roll(f, gravity: float) -> sensors.PitchRoll:
    """The accelerometer inversion of one reading."""
    fx, fy, fz = f
    ratio = fx / gravity
    pitch = math.asin(min(1.0, max(-1.0, ratio)))
    return sensors.PitchRoll(pitch, math.atan2(-fy, -fz), abs(ratio) > 1.0)


def reference_measurement_quat(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """The measurement quaternion before its sign, pitch clamped."""
    pitch = min(fusion._PITCH_LIMIT, max(-fusion._PITCH_LIMIT, pitch))
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    q = np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])
    return q / math.sqrt(q.dot(q))


def reference_sensed(cfg: ScenarioConfig, euler, t: float, rng, gyro=True) -> harness.Block:
    """The open-loop columns of the one tick at ``t``, its gyro,
    accelerometer and GPS draws taken from ``rng`` in that order;
    ``gyro=False`` draws no gyro reading."""
    truth = reference_flight_profile(t, cfg.profile)
    omega = [gyro_measure(truth.body_rates, cfg.sensors, rng)] if gyro else None
    pr = reference_pitch_roll(accel_measure(truth.attitude, cfg.sensors, rng), cfg.sensors.gravity)
    psi = gps_yaw_measure(truth.attitude, cfg.sensors, rng)
    c_n_b = frames.c_n_b(truth.attitude)[None]
    return harness.Block(
        [t], np.array([truth.attitude]), omega, sensors.PitchRoll(*([v] for v in pr)),
        np.array([psi]), reference_measurement_quat(psi, pr.pitch, pr.roll)[None], c_n_b,
        mechanical.stabilization_command(c_n_b, euler),
    )


# ------------------------------------------------------------- the recursions
# fusion.fuse and mechanical.servo, a tick at a time.


def predict(state: FilterState, body_rates, sample_period: float) -> FilterState:
    """One tick's prior, q- = (I + (T_s/2) Omega(omega)) q written out in
    floats, as an array; ``body_rates`` is a 3-sequence."""
    h = sample_period / 2.0
    wx, wy, wz = body_rates
    x, y, z = h * wx, h * wy, h * wz
    q0, q1, q2, q3 = np.asarray(state.q, dtype=float).tolist()
    q_pred = np.array([
        q0 - x * q1 - y * q2 - z * q3,
        x * q0 + q1 + z * q2 - y * q3,
        y * q0 - z * q1 + q2 + x * q3,
        z * q0 + y * q1 - x * q2 + q3,
    ])
    kappa = state.kappa * (1.0 + (x * x + y * y + z * z)) + state.q_chi
    return FilterState(q_pred, kappa, state.q_chi, state.q_u)


def align(z: np.ndarray, q_ref: np.ndarray) -> np.ndarray:
    """``z`` or ``-z``, whichever lies in the hemisphere of ``q_ref``, by
    the sign of their ``ddot``."""
    return -z if z.dot(q_ref) < 0.0 else z


def update(state: FilterState, z: np.ndarray) -> FilterState:
    """The Kalman update with identity observation, q + g (z - q) written
    out in floats, renormalized by the ``ddot`` of the result."""
    innovation = state.kappa + state.q_u
    if innovation == 0.0:
        raise NumericalError("zero innovation variance")
    gain = state.kappa / innovation
    q0, q1, q2, q3 = np.asarray(state.q, dtype=float).tolist()
    z0, z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    q_new = np.array([
        q0 + gain * (z0 - q0), q1 + gain * (z1 - q1), q2 + gain * (z2 - q2), q3 + gain * (z3 - q3)
    ])
    norm = math.sqrt(q_new.dot(q_new))
    if norm == 0.0:
        raise NumericalError("update produced a zero quaternion")
    return FilterState(q_new / norm, (1.0 - gain) * state.kappa, state.q_chi, state.q_u)


def reference_fuse(state: FilterState, omegas, zs, sample_period) -> tuple[list, list]:
    """``fusion.fuse`` a tick at a time, through predict, align and update,
    each measurement a row of the array ``zs``: the columns of the
    quaternions (float tuples) and covariance scales."""
    q, kappa = [], []
    for omega, z in zip(omegas, np.asarray(zs, dtype=float)):
        prior = predict(state, omega, sample_period)
        state = update(prior, align(z, prior.q))
        q.append(tuple(state.q.tolist()))
        kappa.append(state.kappa)
    return q, kappa


def gimbal_step(
    angles: GimbalAngles,
    target: GimbalAngles,
    isolation: GimbalRates,
    servo: ServoConfig,
    sample_period: float,
) -> tuple[GimbalAngles, bool]:
    """One tick of the servo: the new angles, and whether a rate was
    clamped.  The commanded rate per axis is the isolation feedforward plus
    a proportional correction toward the target (shortest angular path);
    rates saturate at the motor limit and angles are held inside the
    mechanical stops."""
    clamped = False
    moved = []
    for goal, angle, rate in zip(target, angles, isolation):
        rate += servo.gain * frames.wrap_angle(goal - angle)
        if abs(rate) > servo.rate_limit:
            rate = math.copysign(servo.rate_limit, rate)
            clamped = True
        moved.append(angle + rate * sample_period)
    azimuth = frames.wrap_angle(moved[0])
    azimuth = min(servo.azimuth_stop, max(-servo.azimuth_stop, azimuth))
    elevation = min(servo.elevation_max, max(servo.elevation_min, moved[1]))
    polarization = frames.wrap_angle(moved[2])
    return GimbalAngles(azimuth, elevation, polarization), clamped


def reference_servo(angles, targets, omegas, servo, sample_period) -> tuple[list, list]:
    """``mechanical.servo`` a tick at a time: the isolation rates at the
    previous angles, then ``gimbal_step``; the columns of the angles (float
    tuples) and the clamp flags."""
    moved, clamps = [], []
    for target, omega in zip(targets, omegas):
        angles, target = GimbalAngles(*angles), GimbalAngles(*target)
        isolation = mechanical.isolation_rates(angles, omega)
        angles, clamped = gimbal_step(angles, target, isolation, servo, sample_period)
        moved.append(tuple(angles))
        clamps.append(clamped)
    return moved, clamps


# ------------------------------------------------------------ the closed loop


def reference_step(cfg, euler, prev: harness.Block, sensed: harness.Block) -> harness.Block:
    """The closed-loop tick after the last of ``prev``, the one tick of
    ``sensed``: fuse its readings, command the gimbal to the stabilization
    solution of the estimate, servo it under the isolation of the measured
    body rates, and take the arrival."""
    t_s, cov = cfg.sensors.sample_period, cfg.fusion
    start = FilterState(prev.q[-1], prev.kappa[-1], cov.process_noise, cov.measurement_noise)
    q, kappa = reference_fuse(start, sensed.omega_m, sensed.z, t_s)
    c_n_b, est = fusion.estimate(q)
    targets = mechanical.stabilization_command(c_n_b, euler)
    gimbal, clamped = reference_servo(prev.gimbal[-1], targets, sensed.omega_m, cfg.servo, t_s)
    return sensed._replace(
        q=q, kappa=kappa, est=est, command=targets, gimbal=gimbal, rate_clamped=clamped,
        arrival=harness.beam_frame_arrival(gimbal, sensed.c_n_b_truth, euler),
    )


def reference_ticks(cfg, euler, rng, steps) -> Iterator[harness.Block]:
    """``harness.blocks`` a tick at a time, each tick a block of its own:
    the start at t = 0, where the filter starts on the first measurement
    and the gimbal on its command, then ticks 1 to ``steps``, each sensed
    by ``reference_sensed`` and run by ``reference_step``."""
    tick = reference_sensed(cfg, euler, 0.0, rng, gyro=False)
    state = fusion.make_filter_state(tick.z[0], cfg.fusion)
    c_n_b, est = fusion.estimate([state.q])
    targets = mechanical.stabilization_command(c_n_b, euler)
    tick = tick._replace(
        q=[state.q], kappa=[state.kappa], est=est, command=targets, gimbal=targets,
        rate_clamped=[False], arrival=harness.beam_frame_arrival(targets, tick.c_n_b_truth, euler),
    )
    yield tick
    t_s = cfg.sensors.sample_period
    for k in range(1, steps + 1):
        tick = reference_step(cfg, euler, tick, reference_sensed(cfg, euler, k * t_s, rng))
        yield tick


def reference_run(cfg) -> list[harness.TraceRecord]:
    """``harness.run_simulation`` a tick at a time: the ticks of
    ``reference_ticks``, each tick's channel built and read on its own, its
    errors wrapped by ``frames.wrap_angle``, and each epoch's oracle on the
    vector of its tick's channel."""
    sensor_rng, channel_rng, perturb_rng = harness.streams(cfg.run.seed)
    ticks = reference_ticks(cfg, mechanical.pointing_euler(cfg.geo), sensor_rng, cfg.ticks)
    next(ticks)  # the start at t = 0 is not recorded
    phases = np.zeros(cfg.array.size)
    wbar = conj_weight_matrix(phases, cfg.array)
    next_epoch = cfg.electrical.first_epoch
    total_queries = 0
    records = []
    for tick in ticks:
        [t], [truth], [est] = tick.t, tick.truth.tolist(), tick.est
        [ideal], [gimbal], [clamped] = tick.ideal, tick.gimbal, tick.rate_clamped
        terms = reference_terms(cfg.signal, cfg.array, *tick.arrival[0])
        angles = (
            *truth, *est, *harness.attitude_error(est, truth),
            *gimbal, *mechanical.pointing_error(gimbal, ideal),
        )
        base = harness.TraceRecord(
            t, "mech", *(a * harness.R2D for a in angles),
            reference_nrsp(terms, wbar), 0, total_queries, int(clamped),
        )
        records.append(base)
        if t >= next_epoch - 1e-12:
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


# ------------------------------------------------------- the per-arrival channel
# Each arrival's terms built, summed and read on their own: the stacked
# channel.Channel reads the bits of these, arrival by arrival.


def reference_plane_wave(geom, u_r, u_c):
    """The factors (r, c) of one plane wave, from one complex exponential."""
    k = 2.0 * math.pi * geom.spacing_over_wavelength
    idx = lambda n: 1j * np.arange(n, dtype=float)
    e = np.exp(np.concatenate((k * u_r * idx(geom.rows), k * u_c * idx(geom.cols))))
    return e[:geom.rows], e[geom.rows:]


def reference_ray(geom, azimuth, elevation, gain=1.0 + 0j):
    """The (g, r, c) term of one plane wave of gain ``gain``, g carrying
    the 1/sqrt(MN) array normalization."""
    s = math.sin(azimuth)
    return (gain * (1.0 / math.sqrt(geom.size)),
            *reference_plane_wave(geom, s * math.cos(elevation), s * math.sin(elevation)))


def reference_terms(link, geom, azimuth, elevation):
    """The (g, r, c) terms of ``link``'s channel at one arrival: the LOS
    ray, and the second ray when ``nlos_gain`` > 0."""
    terms = [reference_ray(geom, azimuth, elevation)]
    if link.nlos_gain > 0.0:
        turn = np.exp(-2j * math.pi * link.nlos_path_length / WAVELENGTH)
        terms.append(reference_ray(geom, azimuth + link.nlos_azimuth_offset,
                                   elevation + link.nlos_elevation_offset,
                                   (link.nlos_gain + 0j) * turn))
    return terms


def reference_vec(terms):
    """The MN channel vector of one channel's terms, column-major."""
    return sum(g * np.outer(c, r).ravel() for g, r, c in terms)


def reference_power(terms):
    return sum(
        gp * np.conj(gq) * np.vdot(rq, rp) * np.vdot(cq, cp)
        for gp, rp, cp in terms
        for gq, rq, cq in terms
    ).real


def reference_nrsp(terms, wbar):
    """|sum g r^T wbar c|^2 / (MN ||h||^2) of one channel's terms."""
    denom = wbar.size * reference_power(terms)
    return float(abs(sum(g * (r @ wbar @ c) for g, r, c in terms)) ** 2 / denom)


def los_vec(geom, azimuth=0.0, elevation=0.0, gain=1.0 + 0j):
    """The MN channel vector of one plane wave of gain ``gain``."""
    return reference_vec([reference_ray(geom, azimuth, elevation, gain)])
