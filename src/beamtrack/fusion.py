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
    q: np.ndarray  # unit quaternion estimate, scalar first
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
    return FilterState(
        q / np.linalg.norm(q), cov.initial_covariance, cov.process_noise, cov.measurement_noise
    )


def predict(state: FilterState, body_rates, sample_period: float) -> FilterState:
    """Propagate estimate and covariance one step; returns the prior.

    q- = (I + (T_s/2) Omega(omega)) q, written out in floats; ``body_rates`` is a 3-sequence.
    """
    h = sample_period / 2.0
    wx, wy, wz = body_rates
    x, y, z = h * wx, h * wy, h * wz
    q0, q1, q2, q3 = state.q.tolist()
    q_pred = np.array([
        q0 - x * q1 - y * q2 - z * q3,
        x * q0 + q1 + z * q2 - y * q3,
        y * q0 - z * q1 + q2 + x * q3,
        z * q0 + y * q1 - x * q2 + q3,
    ])
    kappa = state.kappa * (1.0 + (x * x + y * y + z * z)) + state.q_chi
    return FilterState(q_pred, kappa, state.q_chi, state.q_u)


# the largest |pitch| that frames.zyx_angles resolves without its pole
# convention
_PITCH_LIMIT = math.asin(1.0 - 2.0 * frames.GIMBAL_LOCK_EPS)


def measurement_quat(yaw_m, pitch_m, roll_m) -> np.ndarray:
    """Measurement quaternion from sensor angles, before its hemisphere sign
    (see ``align``); from arrays of angles, the (n, 4) stack of them.

    The pitch is clamped just short of +/-90 deg (which a saturated
    accelerometer reads), where yaw and roll cannot be told apart.
    """
    pitch_m = np.clip(pitch_m, -_PITCH_LIMIT, _PITCH_LIMIT)
    return frames.euler_to_quat(Attitude(yaw_m, pitch_m, roll_m))


def align(z: np.ndarray, q_ref: np.ndarray) -> np.ndarray:
    """``z`` or ``-z``, whichever lies in the hemisphere of ``q_ref``.

    q and -q encode the same attitude; aligning the sign keeps the linear
    innovation small.
    """
    return -z if z.dot(q_ref) < 0.0 else z


def update(state: FilterState, z: np.ndarray) -> FilterState:
    """Kalman update with identity observation; renormalizes the estimate."""
    innovation = state.kappa + state.q_u
    if innovation == 0.0:
        raise NumericalError("zero innovation variance")
    gain = state.kappa / innovation
    # q + g (z - q), written out in floats: the same IEEE operations
    q0, q1, q2, q3 = state.q.tolist()
    z0, z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    q_new = np.array([
        q0 + gain * (z0 - q0), q1 + gain * (z1 - q1), q2 + gain * (z2 - q2), q3 + gain * (z3 - q3)
    ])
    # np.linalg.norm's own formula, without its overhead
    norm = math.sqrt(q_new.dot(q_new))
    if norm == 0.0:
        raise NumericalError("update produced a zero quaternion")
    return FilterState(q_new / norm, (1.0 - gain) * state.kappa, state.q_chi, state.q_u)


def estimate(q: np.ndarray) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """The (n, 3, 3) NED-to-body DCMs of the (n, 4) estimates ``q`` and
    their yaw/pitch/roll, both read from the DCMs ``quat_to_dcm`` builds,
    rotations: unchecked."""
    c_n_b = frames.quat_to_dcm(q).mT
    return c_n_b, list(map(frames._zyx_of_rows, c_n_b.tolist()))
