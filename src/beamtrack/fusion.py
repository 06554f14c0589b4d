"""Quaternion-state Kalman filter fusing gyro propagation with
accelerometer/GPS attitude measurements.

The state is the unit attitude quaternion propagated by a first-order
transition matrix built from measured body rates.  The measurement is a
quaternion assembled from GPS yaw and accelerometer pitch/roll, observed
directly (identity observation matrix), hemisphere-aligned with the
prediction before the innovation.  The estimate is renormalized after
every update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .frames import Attitude


class NumericalError(RuntimeError):
    """Raised when the innovation covariance cannot be inverted."""


_EYE4 = np.eye(4)
_EYE4.flags.writeable = False

# The per-tick products below use np.dot: on 1-D and 2-D float arrays it
# makes the same BLAS call as ``@`` (same bits) at half the call overhead.


@dataclass
class FilterState:
    q: np.ndarray  # unit quaternion estimate, scalar first
    kappa: np.ndarray  # 4x4 estimate covariance
    q_chi: np.ndarray  # 4x4 process noise covariance
    q_u: np.ndarray  # 4x4 measurement noise covariance


@dataclass
class FusionConfig:
    """Scaled-identity covariances the filter starts and runs with."""

    initial_covariance: float = 1e-2  # estimate covariance at start
    process_noise: float = 1e-6
    measurement_noise: float = 1e-4

    def __post_init__(self):
        if not self.initial_covariance > 0:
            raise ValueError("initial_covariance must be positive")
        # a zero measurement noise lets the innovation covariance go singular
        if not (self.process_noise >= 0 and self.measurement_noise > 0):
            raise ValueError("process_noise and measurement_noise must be >= 0 and > 0")


def make_filter_state(q0: np.ndarray, cov: FusionConfig) -> FilterState:
    """Build a filter state with scaled-identity covariances."""
    q = np.asarray(q0, dtype=float)
    return FilterState(
        q=q / np.linalg.norm(q),
        kappa=cov.initial_covariance * np.eye(4),
        q_chi=cov.process_noise * np.eye(4),
        q_u=cov.measurement_noise * np.eye(4),
    )


def transition_matrix(body_rates: np.ndarray, sample_period: float) -> np.ndarray:
    """First-order quaternion propagation: I + (T_s/2) * Omega(omega)."""
    wx, wy, wz = np.asarray(body_rates, dtype=float).tolist()
    omega = np.array(
        [
            [0.0, -wx, -wy, -wz],
            [wx, 0.0, wz, -wy],
            [wy, -wz, 0.0, wx],
            [wz, wy, -wx, 0.0],
        ]
    )
    return _EYE4 + (sample_period / 2.0) * omega


def predict(state: FilterState, body_rates: np.ndarray, sample_period: float) -> FilterState:
    """Propagate estimate and covariance one step; returns the prior."""
    gamma = transition_matrix(body_rates, sample_period)
    q_pred = np.dot(gamma, state.q)
    kappa_pred = np.dot(np.dot(gamma, state.kappa), gamma.T) + state.q_chi
    return FilterState(q_pred, kappa_pred, state.q_chi, state.q_u)


# the largest |pitch| that frames.dcm_to_euler still resolves
_PITCH_LIMIT = math.asin(1.0 - 2.0 * frames.GIMBAL_LOCK_EPS)


def measurement_quat(
    yaw_m: float, pitch_m: float, roll_m: float, q_ref: np.ndarray | None = None
) -> np.ndarray:
    """Measurement quaternion from sensor angles, hemisphere-aligned to ``q_ref``.

    q and -q encode the same attitude; aligning the sign keeps the linear
    innovation small.  The pitch is clamped just short of +/-90 deg (which a
    saturated accelerometer reads), where the estimate has no Euler angles.
    """
    pitch_m = min(_PITCH_LIMIT, max(-_PITCH_LIMIT, pitch_m))
    z = frames.euler_to_quat(Attitude(yaw_m, pitch_m, roll_m))
    if q_ref is not None and z.dot(q_ref) < 0.0:
        z = -z
    return z


def update(state: FilterState, z: np.ndarray) -> FilterState:
    """Kalman update with identity observation; renormalizes the estimate."""
    innovation_cov = state.kappa + state.q_u
    try:
        gain = np.dot(state.kappa, np.linalg.inv(innovation_cov))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    q_new = state.q + np.dot(gain, np.asarray(z, dtype=float) - state.q)
    # np.linalg.norm's own formula, without its overhead
    norm = math.sqrt(q_new.dot(q_new))
    if norm == 0.0:
        raise NumericalError("update produced a zero quaternion")
    kappa_new = np.dot(_EYE4 - gain, state.kappa)
    kappa_new = 0.5 * (kappa_new + kappa_new.T)
    return FilterState(q_new / norm, kappa_new, state.q_chi, state.q_u)


def fuse_step(
    state: FilterState,
    body_rates_measured: np.ndarray,
    yaw_m: float,
    pitch_m: float,
    roll_m: float,
    sample_period: float,
) -> tuple[FilterState, Attitude]:
    """One full fusion cycle: predict, measure, update, extract attitude."""
    prior = predict(state, body_rates_measured, sample_period)
    z = measurement_quat(yaw_m, pitch_m, roll_m, q_ref=prior.q)
    posterior = update(prior, z)
    attitude = frames.dcm_to_euler(frames.quat_to_dcm(posterior.q))
    return posterior, attitude

