"""Rotation algebra and attitude representations.

Conventions used throughout the package:

* All angles are radians; degrees appear only at config/CSV boundaries.
* Rotation matrices are passive (frame rotations).  ``rot_z(a)`` maps the
  coordinates of a fixed vector from the original frame to a frame rotated
  by ``a`` about z.
* ``c_n_b`` etc. are direction cosine matrices named source-to-target:
  ``c_n_b(att) @ v_n`` gives the vector in body coordinates.
* Quaternions are scalar-first arrays ``[q0, q1, q2, q3]`` with unit norm.
* The loop's 3-vectors (rates, sensor readings) are float tuples; a function
  that takes one accepts any 3-sequence, an array too.
* ``c_n_b``, ``c_b_t``, ``euler_to_quat`` and ``euler_rates_in_frame`` take
  arrays of angles, one per tick of a block, and give the stack of their
  results, each with the bits of its own call: numpy's sin and cos give
  math's bits, and ``@`` runs each product through the BLAS call of
  ``ndarray.dot``.  ``_cos_sin`` and ``_zyx`` keep a float path for the
  callers of one value (``c_n_t``, ``coupled_beam_rate``, ``beamtrack
  geometry``), where numpy's per-call overhead would dominate.
* The yaw/pitch/roll sequence is z-y-x: ``c_n_b = rot_x(roll) @
  rot_y(pitch) @ rot_z(yaw)``.
* A value that nothing changes after construction is a NamedTuple (the
  loop's states and trace rows, the channel, trial results); ``@dataclass``
  marks the holders that change: the config sections that
  ``config.set_key`` writes, ``OptimizerTrace`` and ``PowerOracle``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

# |C13| within this of 1 takes the pole convention of zyx_angles
GIMBAL_LOCK_EPS = 1e-9


class SingularityError(ValueError):
    """Raised when a map with no defined answer at a +/-90 degree
    singularity is asked for one there."""


class Attitude(NamedTuple):
    """UAV orientation relative to the north-east-down frame, radians."""

    yaw: float
    pitch: float
    roll: float


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the canonical interval (-pi, pi]."""
    r = math.fmod(angle + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


def _check_finite(angle: float) -> float:
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    return angle


def _matrix3(entries: list[float]) -> np.ndarray:
    """3x3 array from nine row-major entries (a flat list converts faster than
    a nested one)."""
    return np.array(entries).reshape(3, 3)


def _cos_sin(angle):
    """cos and sin of a finite angle: a float by ``math``, or an array of
    angles by numpy, whose sin and cos give math's bits."""
    if isinstance(angle, np.ndarray):
        bad = angle[~np.isfinite(angle)]
        if bad.size:
            _check_finite(float(bad[0]))
        return np.cos(angle), np.sin(angle)
    if not math.isfinite(angle):
        _check_finite(angle)  # raises
    return math.cos(angle), math.sin(angle)


def _rot_z(angle: float) -> list:
    c, s = _cos_sin(angle)
    return [c, s, 0.0, -s, c, 0.0, 0.0, 0.0, 1.0]


def rot_z(angle: float) -> np.ndarray:
    """Frame rotation by ``angle`` about the z axis."""
    return _matrix3(_rot_z(angle))


def rot_y(angle: float) -> np.ndarray:
    """Frame rotation by ``angle`` about the y axis."""
    a = _check_finite(angle)
    c, s = math.cos(a), math.sin(a)
    return _matrix3([c, 0.0, -s, 0.0, 1.0, 0.0, s, 0.0, c])


def rot_x(angle: float) -> np.ndarray:
    """Frame rotation by ``angle`` about the x axis."""
    a = _check_finite(angle)
    c, s = math.cos(a), math.sin(a)
    return _matrix3([1.0, 0.0, 0.0, 0.0, c, s, 0.0, -s, c])


def _rot_xy(x: float, y: float) -> list:
    """Row-major entries of ``rot_x(x) @ rot_y(y)``, written out.  Every entry
    is a single product, so it equals the matrix product exactly.  For arrays
    of angles, each entry but the two constants is an array over them."""
    cx, sx = _cos_sin(x)
    cy, sy = _cos_sin(y)
    return [cy, 0.0, -sy, sx * sy, cx, sx * cy, cx * sy, -sx, cx * cy]


def _zyx(z: float, y: float, x: float) -> np.ndarray:
    """``rot_x(x) @ rot_y(y) @ rot_z(z)``, with one matrix product instead of two.

    Both factors are built in one array.  ``ndarray.dot`` runs the BLAS call of
    ``np.dot`` and ``@`` on 2-D float arrays, so the bits match, at a third
    of the call overhead.  For arrays of n angles the result is the
    (n, 3, 3) stack of the matrices; ``@`` runs that BLAS call on each pair.
    """
    entries = _rot_xy(x, y) + _rot_z(z)
    if isinstance(z, np.ndarray) and z.ndim:
        factors = np.stack(np.broadcast_arrays(*entries), axis=-1).reshape(-1, 2, 3, 3)
        return factors[:, 0] @ factors[:, 1]
    factors = np.array(entries).reshape(2, 3, 3)
    return factors[0].dot(factors[1])


def c_b_t(azimuth: float, elevation: float, polarization: float) -> np.ndarray:
    """Body-to-beam DCM: z-rotation by azimuth, y by elevation, x by polarization."""
    return _zyx(azimuth, elevation, polarization)


def c_n_b(attitude: Attitude) -> np.ndarray:
    """NED-to-body DCM from yaw/pitch/roll; from an Attitude of angle arrays,
    the (n, 3, 3) stack of the DCMs, each with the bits of its own call."""
    return _zyx(attitude.yaw, attitude.pitch, attitude.roll)


def c_n_t(heading: float, elevation: float, polarization: float) -> np.ndarray:
    """NED-to-beam DCM from the pointing Euler angles."""
    return _zyx(heading, elevation, polarization)


def euler_rates_in_frame(
    x: float, y: float, x_rate: float, y_rate: float, z_rate: float
) -> tuple[float, float, float]:
    """Angular velocity, in the last frame of the z-y-x sequence, of the angle rates.

    ``[x_rate, 0, 0] + rot_x(x) @ [0, y_rate, 0] + rot_x(x) @ rot_y(y) @
    [0, 0, z_rate]``, written out; every matrix entry involved is a single
    product, so the result equals the matrix form exactly.  The angles and
    rates may be arrays of one per tick, and then so are the components.
    """
    _, _, r02, _, r11, r12, _, r21, r22 = _rot_xy(x, y)
    return (x_rate + r02 * z_rate, r11 * y_rate + r12 * z_rate, r21 * y_rate + r22 * z_rate)


# how far a rotation's m @ m.T and determinant may depart from I and +1
ROTATION_TOL = 1e-8


def _rotation_rows(matrix: np.ndarray) -> list[list[float]] | None:
    """Rows of ``matrix`` as floats when it is a rotation within ``ROTATION_TOL``, else None.

    The test of :func:`is_rotation`: a finite 3x3 matrix whose ``m @ m.T``
    departs from the identity by at most ``ROTATION_TOL`` in every entry and
    whose determinant departs from +1 by at most that.  Worked in Python floats,
    since numpy's per-call overhead dwarfs nine-entry arithmetic.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 3):
        return None
    rows = m.tolist()
    (a, b, c), (d, e, f), (g, h, i) = rows
    # any inf or nan entry makes the sum non-finite
    if not math.isfinite(a + b + c + d + e + f + g + h + i):
        return None
    # chained comparisons, so that a nan from an overflowing product rejects
    tol = ROTATION_TOL
    if (
        abs(a * a + b * b + c * c - 1.0) <= tol
        and abs(d * d + e * e + f * f - 1.0) <= tol
        and abs(g * g + h * h + i * i - 1.0) <= tol
        and abs(a * d + b * e + c * f) <= tol
        and abs(a * g + b * h + c * i) <= tol
        and abs(d * g + e * h + f * i) <= tol
        and abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) - 1.0) <= tol
    ):
        return rows
    return None


def is_rotation(matrix: np.ndarray) -> bool:
    """True when ``matrix`` is orthonormal with determinant +1 within ``ROTATION_TOL``."""
    return _rotation_rows(matrix) is not None


def zyx_angles(matrix: np.ndarray) -> tuple[float, float, float]:
    """(z, y, x) of a rotation ``c = rot_x(x) @ rot_y(y) @ rot_z(z)``.

    The inverse of :func:`c_n_b` (yaw, pitch, roll), :func:`c_b_t`
    (azimuth, elevation, polarization) and :func:`c_n_t` alike.
    Quadrant-correct arctangents make the round trip exact away from
    y = +/-90 deg.

    Total.  When |C13| is within ``GIMBAL_LOCK_EPS`` of 1 (y at +/-90 deg:
    gimbal lock of an attitude, the keyhole of the gimbal) z and x turn
    about the same axis and only their combination is defined; the
    convention there is x = 0, y = +/-90 deg by the sign of -C13, and
    z = atan2(-C21, C22), which at the pole rebuilds the same DCM.

    Raises ``ValueError`` when ``matrix`` is not a rotation.  The loop reads
    its own DCMs without that check, through ``_zyx_of_rows``.
    """
    rows = _rotation_rows(matrix)
    if rows is None:
        raise ValueError("input is not a rotation matrix")
    return _zyx_of_rows(rows)


def _zyx_of_rows(rows: list[list[float]]) -> tuple[float, float, float]:
    """:func:`zyx_angles` of the rotation with float ``rows``, unchecked."""
    (c11, c12, c13), (c21, c22, c23), (_, _, c33) = rows
    if abs(c13) >= 1.0 - GIMBAL_LOCK_EPS:
        return math.atan2(-c21, c22), math.copysign(math.pi / 2, -c13), 0.0
    return math.atan2(c12, c11), -math.asin(c13), math.atan2(c23, c33)


def euler_to_quat(attitude: Attitude) -> np.ndarray:
    """Unit quaternion (scalar first) for the z-y-x attitude sequence; from an
    Attitude of angle arrays, the (n, 4) stack of the quaternions, each with
    the bits of its own call."""
    cy, sy = _cos_sin(attitude.yaw / 2)
    cp, sp = _cos_sin(attitude.pitch / 2)
    cr, sr = _cos_sin(attitude.roll / 2)
    q = np.array(
        [
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        ]
    ).T.copy()  # (4,) or (n, 4)
    # sqrt(q . q) is np.linalg.norm's own formula; @ takes each row's dot
    # product with the BLAS call of q.dot(q)
    return q / np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]


def quat_to_dcm(q: np.ndarray) -> np.ndarray:
    """Body-to-NED DCM from a unit quaternion.

    For ``q = euler_to_quat(a)`` this equals ``c_n_b(a).T``.  ``q`` and
    ``-q`` map to the same matrix.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (4,):
        raise ValueError("quaternion must have four components")
    n = math.sqrt(q.dot(q))
    if abs(n - 1.0) > 1e-6:
        raise ValueError(f"quaternion norm {n} departs from 1 beyond 1e-6")
    q0, q1, q2, q3 = [v / n for v in q.tolist()]
    return _matrix3(
        [
            q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3,
            2.0 * (q1 * q2 - q0 * q3),
            2.0 * (q1 * q3 + q0 * q2),
            2.0 * (q1 * q2 + q0 * q3),
            q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3,
            2.0 * (q2 * q3 - q0 * q1),
            2.0 * (q1 * q3 - q0 * q2),
            2.0 * (q2 * q3 + q0 * q1),
            q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3,
        ]
    )
