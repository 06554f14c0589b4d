"""Truth flight profiles and low-cost sensor models.

The truth generator produces an attitude trajectory as sums of sinusoids
per axis together with its exact analytic rates.  Three sensors observe
it: a MEMS gyro triad (white noise plus a constant per-run bias), an
accelerometer triad measuring the gravity direction, and a dual-antenna
GPS heading.  All randomness comes from caller-supplied generators, so
every simulation is reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import frames
from .frames import Attitude, SingularityError


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
    """Truth attitude, its Euler rates (roll, pitch, yaw order) and body rates."""

    attitude: Attitude
    euler_rates: tuple[float, float, float]  # (roll_rate, pitch_rate, yaw_rate), rad/s
    body_rates: tuple[float, float, float]  # rad/s in the body frame


def _axis_value_rate(terms: Sequence[Sinusoid], t: float) -> tuple[float, float]:
    value = 0.0
    rate = 0.0
    for amp, freq, phase in terms:
        w = 2.0 * math.pi * freq
        value += amp * math.sin(w * t + phase)
        rate += amp * w * math.cos(w * t + phase)
    return value, rate


def flight_profile(t: float, profile: ProfileConfig) -> FlightState:
    """Evaluate the truth trajectory at time ``t`` (analytic, no integration)."""
    if t < 0:
        raise ValueError("time must be non-negative")
    yaw, yaw_rate = _axis_value_rate(profile.yaw, t)
    pitch, pitch_rate = _axis_value_rate(profile.pitch, t)
    roll, roll_rate = _axis_value_rate(profile.roll, t)
    attitude = Attitude(yaw, pitch, roll)
    euler_rates = (roll_rate, pitch_rate, yaw_rate)
    return FlightState(attitude, euler_rates, euler_rates_to_body_rates(attitude, euler_rates))


def euler_rates_to_body_rates(attitude: Attitude, euler_rates) -> tuple[float, float, float]:
    """Map (roll, pitch, yaw) rates to body angular rates.

    Composition of the per-axis rotation rates expressed in the body frame:
    omega = [roll_rate,0,0] + R_x(roll)[0,pitch_rate,0]
    + R_x(roll)R_y(pitch)[0,0,yaw_rate].
    """
    if abs(attitude.pitch) >= math.pi / 2:
        raise SingularityError("pitch at +/-90 deg")
    roll_rate, pitch_rate, yaw_rate = euler_rates
    return frames.euler_rates_in_frame(
        attitude.roll, attitude.pitch, roll_rate, pitch_rate, yaw_rate
    )


def body_rates_to_euler_rates(attitude: Attitude, body_rates: np.ndarray) -> np.ndarray:
    """Inverse kinematic map; singular as pitch approaches +/-90 deg."""
    if abs(attitude.pitch) >= math.pi / 2 - 1e-6:
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


def gyro_measure(
    truth, noise: SensorNoiseConfig, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Gyro triad output: truth + constant bias + white noise per axis."""
    wx, wy, wz = truth
    nx, ny, nz = rng.standard_normal(3).tolist()
    bias, sigma = noise.gyro_bias, noise.gyro_white_sigma
    return (wx + bias + sigma * nx, wy + bias + sigma * ny, wz + bias + sigma * nz)


def gyro_integrate(prev: Attitude, body_rates: np.ndarray, sample_period: float) -> Attitude:
    """One dead-reckoning step: integrate measured body rates into attitude."""
    roll_rate, pitch_rate, yaw_rate = body_rates_to_euler_rates(prev, body_rates).tolist()
    return Attitude(
        prev.yaw + yaw_rate * sample_period,
        prev.pitch + pitch_rate * sample_period,
        prev.roll + roll_rate * sample_period,
    )


def accel_measure(
    attitude: Attitude, noise: SensorNoiseConfig, rng: np.random.Generator
) -> tuple[float, float, float]:
    """Accelerometer triad under quasi-static flight: gravity projection + noise.

    Level attitude gives (0, 0, -g).
    """
    sp, cp = math.sin(attitude.pitch), math.cos(attitude.pitch)
    sr, cr = math.sin(attitude.roll), math.cos(attitude.roll)
    nx, ny, nz = rng.standard_normal(3).tolist()
    g, sigma = -noise.gravity, noise.accel_white_sigma
    return (g * -sp + sigma * nx, g * (sr * cp) + sigma * ny, g * (cr * cp) + sigma * nz)


class PitchRoll(NamedTuple):
    pitch: float
    roll: float
    saturated: bool


def accel_to_pitch_roll(f, gravity: float) -> PitchRoll:
    """Invert the accelerometer model.

    Pitch comes from asin(f_x/g); noise can push |f_x| past g, in which case
    the ratio is clamped and the result flagged.  Roll uses the two-argument
    arctangent with signs chosen so a level (0, 0, -g) reading maps to zero.
    """
    fx, fy, fz = f
    ratio = fx / gravity
    saturated = abs(ratio) > 1.0
    pitch = math.asin(min(1.0, max(-1.0, ratio)))
    roll = math.atan2(-fy, -fz)
    return PitchRoll(pitch, roll, saturated)


def gps_yaw_measure(
    attitude: Attitude, noise: SensorNoiseConfig, rng: np.random.Generator
) -> float:
    """Dual-antenna GPS heading.

    The body-fixed unit baseline [1, 0, 0] is expressed in NED coordinates
    and its horizontal direction gives yaw; a baseline of any length gives
    the same direction.
    """
    yaw, pitch, roll = attitude
    if not (math.isfinite(yaw) and math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError(f"attitude must be finite, got {attitude!r}")
    # c_n_b(attitude).T @ [1, 0, 0] is the first row of c_n_b, whose entries
    # cos(pitch) cos(yaw) and cos(pitch) sin(yaw) are single products
    cp = math.cos(pitch)
    north, east = cp * math.cos(yaw), cp * math.sin(yaw)
    return math.atan2(east, north) + noise.gps_yaw_sigma * rng.standard_normal()
