"""Quaternion-state Kalman filter fusing gyro propagation with
accelerometer/GPS attitude measurements.

The state is the unit attitude quaternion, propagated by the first-order
transition I + (T_s/2) Omega(omega) of the measured body rates.  The
measurement is a quaternion assembled from GPS yaw and accelerometer
pitch/roll, observed directly, hemisphere-aligned with the prediction
before the innovation; the estimate is renormalized after every update.
As Omega Omega^T = |omega|^2 I, scaled-identity covariances stay scaled
identities, so the filter runs the scalar Riccati recursion of their
scales: k- = k (1 + (T_s/2)^2 |omega|^2) + q_chi, g = k- / (k- + q_u),
k = (1 - g) k-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames
from .frames import Attitude


class NumericalError(RuntimeError):
    """Raised when the innovation variance or the updated quaternion is zero."""


class FilterState(NamedTuple):
    q: tuple[float, float, float, float]  # unit quaternion estimate, scalar first
    kappa: float  # estimate covariance kappa * I
    q_chi: float  # process noise covariance q_chi * I
    q_u: float  # measurement noise covariance q_u * I


@dataclass
class FusionConfig:
    """Scaled-identity covariances the filter starts and runs with."""

    initial_covariance: float = 1e-2  # estimate covariance at start
    process_noise: float = 1e-6
    measurement_noise: float = 1e-4

    def __post_init__(self):
        if not self.initial_covariance > 0:
            raise ValueError("initial_covariance must be positive")
        # a zero measurement noise lets the innovation variance reach zero
        if not (self.process_noise >= 0 and self.measurement_noise > 0):
            raise ValueError("process_noise and measurement_noise must be >= 0 and > 0")


def make_filter_state(q0: np.ndarray, cov: FusionConfig) -> FilterState:
    """Build a filter state with the configured covariance scales."""
    q = np.asarray(q0, dtype=float)
    q = tuple((q / np.linalg.norm(q)).tolist())
    return FilterState(q, cov.initial_covariance, cov.process_noise, cov.measurement_noise)


# the largest |pitch| that frames.zyx_angles resolves without its pole
# convention
_PITCH_LIMIT = math.asin(1.0 - 2.0 * frames.GIMBAL_LOCK_EPS)


def measurement_quat(yaw_m, pitch_m, roll_m) -> np.ndarray:
    """Measurement quaternion from sensor angles, before its hemisphere sign
    (see ``fuse``); from arrays of angles, the (n, 4) stack of them.

    The pitch is clamped just short of +/-90 deg (which a saturated
    accelerometer reads), where yaw and roll cannot be told apart.
    """
    pitch_m = np.clip(pitch_m, -_PITCH_LIMIT, _PITCH_LIMIT)
    return frames.euler_to_quat(Attitude(yaw_m, pitch_m, roll_m))


def fuse(state: FilterState, omegas, zs, sample_period: float) -> list[FilterState]:
    """The recursion of the module docstring over a block: from ``state``,
    the filter state after each tick of the gyro rates ``omegas`` (3-sequences)
    and measurements ``zs``; ``NumericalError`` at the first tick whose
    innovation variance or updated quaternion is zero.  In floats, but for
    ``ddot``: the update's norm, and a sign whose float dot is within 1e-12
    of zero, where it and ``ddot`` can disagree for unit quaternions."""
    h = sample_period / 2.0
    q0, q1, q2, q3 = map(float, state.q)
    kappa, q_chi, q_u = state.kappa, state.q_chi, state.q_u
    new = tuple.__new__  # builds a NamedTuple without the Python call of its __new__
    states = []
    for (wx, wy, wz), z in zip(omegas, np.asarray(zs, dtype=float).tolist()):
        x, y, w = h * wx, h * wy, h * wz
        p0 = q0 - x * q1 - y * q2 - w * q3
        p1 = x * q0 + q1 + w * q2 - y * q3
        p2 = y * q0 - w * q1 + q2 + x * q3
        p3 = w * q0 + y * q1 - x * q2 + q3
        kappa = kappa * (1.0 + (x * x + y * y + w * w)) + q_chi
        z0, z1, z2, z3 = z
        d = z0 * p0 + z1 * p1 + z2 * p2 + z3 * p3
        if abs(d) <= 1e-12:
            d = np.dot(z, (p0, p1, p2, p3))
        if d < 0.0:
            z0, z1, z2, z3 = -z0, -z1, -z2, -z3
        innovation = kappa + q_u
        if innovation == 0.0:
            raise NumericalError("zero innovation variance")
        gain = kappa / innovation
        q0, q1 = p0 + gain * (z0 - p0), p1 + gain * (z1 - p1)
        q2, q3 = p2 + gain * (z2 - p2), p3 + gain * (z3 - p3)
        v = np.array((q0, q1, q2, q3))
        # np.linalg.norm's own formula, without its overhead
        norm = math.sqrt(v.dot(v))
        if norm == 0.0:
            raise NumericalError("update produced a zero quaternion")
        q0, q1, q2, q3 = q0 / norm, q1 / norm, q2 / norm, q3 / norm
        kappa = (1.0 - gain) * kappa
        states.append(new(FilterState, ((q0, q1, q2, q3), kappa, q_chi, q_u)))
    return states


def estimate(q: np.ndarray) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """The (n, 3, 3) NED-to-body DCMs of the (n, 4) estimates ``q`` and
    their yaw/pitch/roll, both read from the DCMs ``quat_to_dcm`` builds,
    rotations: unchecked."""
    c_n_b = frames.quat_to_dcm(q).mT
    return c_n_b, list(map(frames._zyx_of_rows, c_n_b.tolist()))
