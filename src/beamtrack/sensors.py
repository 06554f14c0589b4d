"""Truth flight profiles and low-cost sensor models.

The truth generator produces an attitude trajectory as sums of sinusoids
per axis together with its exact analytic rates.  Three sensors observe
it: a MEMS gyro triad (white noise plus a constant per-run bias), an
accelerometer triad measuring the gravity direction, and a dual-antenna
GPS heading.  ``sense`` evaluates the truth and draws the three readings
for a block of ticks at once.  All randomness comes from caller-supplied
generators, so every simulation is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import frames
from .frames import RATE_MAP_LIMIT, Attitude, SingularityError


class Sinusoid(NamedTuple):
    """One term of an axis trajectory: amplitude*sin(2*pi*frequency*t + phase)."""

    amplitude: float  # rad
    frequency: float  # Hz
    phase: float = 0.0  # rad


@dataclass
class ProfileConfig:
    """Sinusoid sums for each attitude axis (radians internally)."""

    yaw: list[Sinusoid] = field(default_factory=list)
    pitch: list[Sinusoid] = field(default_factory=list)
    roll: list[Sinusoid] = field(default_factory=list)


@dataclass
class SensorNoiseConfig:
    gyro_white_sigma: float = 0.01  # rad/s per axis
    gyro_bias: float = 0.002  # rad/s, constant per run, same on each axis
    accel_white_sigma: float = 0.05  # m/s^2 per axis
    gps_yaw_sigma: float = math.radians(0.3)  # rad
    sample_period: float = 0.01  # s
    gravity: float = 9.81  # m/s^2

    def __post_init__(self):
        for name in (
            "gyro_white_sigma",
            "gyro_bias",
            "accel_white_sigma",
            "gps_yaw_sigma",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # the accelerometer pitch divides by gravity
        for name in ("sample_period", "gravity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


class FlightState(NamedTuple):
    """Truth attitude, its Euler rates (roll, pitch, yaw order) and body rates;
    each angle and rate an array over the ticks of a block (a numpy scalar
    for one time)."""

    attitude: Attitude
    euler_rates: tuple  # (roll_rate, pitch_rate, yaw_rate), rad/s
    body_rates: tuple  # rad/s in the body frame


def flight_profile(t, profile: ProfileConfig) -> FlightState:
    """Evaluate the truth trajectory at the times ``t`` (an array, or one
    time), analytically, without integration."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("time must be non-negative")
    axes = []
    for terms in (profile.yaw, profile.pitch, profile.roll):
        value = rate = np.zeros(np.shape(t))
        for amp, freq, phase in terms:
            w = 2.0 * math.pi * freq
            value = value + amp * np.sin(w * t + phase)
            rate = rate + amp * w * np.cos(w * t + phase)
        axes.append((value, rate))
    (yaw, yaw_rate), (pitch, pitch_rate), (roll, roll_rate) = axes
    attitude = Attitude(yaw, pitch, roll)
    euler_rates = (roll_rate, pitch_rate, yaw_rate)
    return FlightState(attitude, euler_rates, euler_rates_to_body_rates(attitude, euler_rates))


def euler_rates_to_body_rates(attitude: Attitude, euler_rates) -> tuple[float, float, float]:
    """Map (roll, pitch, yaw) rates to body angular rates; the angles and
    rates may be arrays over ticks.

    Composition of the per-axis rotation rates expressed in the body frame:
    omega = [roll_rate,0,0] + R_x(roll)[0,pitch_rate,0]
    + R_x(roll)R_y(pitch)[0,0,yaw_rate].
    """
    if np.any(np.abs(attitude.pitch) >= math.pi / 2):
        raise SingularityError("pitch at +/-90 deg")
    roll_rate, pitch_rate, yaw_rate = euler_rates
    return frames.euler_rates_in_frame(
        attitude.roll, attitude.pitch, roll_rate, pitch_rate, yaw_rate
    )


def body_rates_to_euler_rates(attitude: Attitude, body_rates: np.ndarray) -> np.ndarray:
    """Inverse kinematic map; singular as pitch approaches +/-90 deg."""
    if abs(attitude.pitch) >= RATE_MAP_LIMIT:
        raise SingularityError("pitch too close to +/-90 deg for rate inversion")
    sr, cr = math.sin(attitude.roll), math.cos(attitude.roll)
    tp, cp = math.tan(attitude.pitch), math.cos(attitude.pitch)
    k = np.array(
        [
            [1.0, sr * tp, cr * tp],
            [0.0, cr, -sr],
            [0.0, sr / cp, cr / cp],
        ]
    )
    return np.dot(k, np.asarray(body_rates, dtype=float))


def gyro_integrate(prev: Attitude, body_rates: np.ndarray, sample_period: float) -> Attitude:
    """One dead-reckoning step: integrate measured body rates into attitude."""
    roll_rate, pitch_rate, yaw_rate = body_rates_to_euler_rates(prev, body_rates).tolist()
    return Attitude(
        prev.yaw + yaw_rate * sample_period,
        prev.pitch + pitch_rate * sample_period,
        prev.roll + roll_rate * sample_period,
    )


class PitchRoll(NamedTuple):
    pitch: float
    roll: float
    saturated: bool


def accel_to_pitch_roll(f, gravity: float) -> PitchRoll:
    """Invert the accelerometer model for an (n, 3) array of readings (one
    reading reads as n = 1); each field is an (n,) array over the readings.

    Pitch comes from asin(f_x/g); noise can push |f_x| past g, in which case
    the ratio is clamped and the result flagged.  Roll uses the two-argument
    arctangent with signs chosen so a level (0, 0, -g) reading maps to zero.
    """
    fx, fy, fz = np.asarray(f, dtype=float).reshape(-1, 3).T
    ratio = fx / gravity
    pitch = _by_math(math.asin, np.clip(ratio, -1.0, 1.0))
    return PitchRoll(pitch, _by_math(math.atan2, -fy, -fz), np.abs(ratio) > 1.0)


def _by_math(fn, *args):
    """``math`` function ``fn`` of 1-D arrays, element by element: numpy's
    asin and atan2 differ from libm in the last bit."""
    return np.fromiter(map(fn, *(a.tolist() for a in args)), float, len(args[0]))


class Readings(NamedTuple):
    """The truth and the sensor readings of a block of ticks, one entry per tick."""

    truth: FlightState
    omega_m: np.ndarray | None  # (n, 3) gyro body rates, rad/s; None when not drawn
    pitch_roll: PitchRoll  # of the accelerometer, each field an (n,) array
    gps_yaw: np.ndarray  # (n,) rad


def sense(
    times: np.ndarray,
    profile: ProfileConfig,
    noise: SensorNoiseConfig,
    rng: np.random.Generator,
    gyro: bool = True,
) -> Readings:
    """The truth at each of ``times`` and what the three sensors read of it.

    * gyro triad: truth body rates + the constant bias + white noise per axis;
    * accelerometer triad under quasi-static flight: the gravity projection
      (level attitude gives (0, 0, -g)) + noise, inverted by
      ``accel_to_pitch_roll``;
    * dual-antenna GPS heading: the yaw of the body-fixed baseline [1, 0, 0]
      expressed in NED (a baseline of any length gives the same direction)
      + noise.

    One call of ``rng`` draws the block's noise, per tick in the order gyro
    (3), accelerometer (3), GPS (1), so a block holds the bits of its ticks
    sensed one at a time.  ``gyro=False`` draws and returns no gyro reading.
    """
    truth = flight_profile(times, profile)
    yaw, pitch, roll = truth.attitude
    if not np.isfinite(yaw).all():  # roll and pitch are checked on the way to the body rates
        raise ValueError("attitude must be finite, got a non-finite yaw")
    draws = rng.standard_normal((len(times), 7 if gyro else 4))
    omega = None
    if gyro:
        omega = np.column_stack(truth.body_rates) + noise.gyro_bias
        omega += noise.gyro_white_sigma * draws[:, :3]
    sp, cp = np.sin(pitch), np.cos(pitch)
    sr, cr = np.sin(roll), np.cos(roll)
    g = -noise.gravity
    f = np.column_stack((g * -sp, g * (sr * cp), g * (cr * cp)))
    f += noise.accel_white_sigma * draws[:, -4:-1]
    # the baseline in NED is the first row of c_n_b, whose entries
    # cos(pitch) cos(yaw) and cos(pitch) sin(yaw) are single products
    heading = _by_math(math.atan2, cp * np.sin(yaw), cp * np.cos(yaw))
    gps_yaw = heading + noise.gps_yaw_sigma * draws[:, -1]
    return Readings(truth, omega, accel_to_pitch_roll(f, noise.gravity), gps_yaw)
