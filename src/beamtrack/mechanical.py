"""Coarse beam alignment: geodesic pointing, gimbal stabilization commands,
dynamic isolation of body rates, and a rate-limited proportional servo.

Beam stabilization computes the gimbal angles that point the beam at the
satellite given UAV attitude and geometry.  Dynamic isolation commands
gimbal rates that exactly cancel the projection of UAV body rates into
the beam frame, so the net beam rotation is zero even before the servo
correction acts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import frames
from .frames import RATE_MAP_LIMIT, SingularityError


class NoVisibilityError(ValueError):
    """Raised when the satellite is below the local horizon."""


class PointingEuler(NamedTuple):
    """Beam attitude relative to the NED frame, radians."""

    heading: float  # o: 180 deg + offset toward the satellite meridian
    elevation: float  # e
    polarization: float  # v


class GimbalAngles(NamedTuple):
    azimuth: float
    elevation: float
    polarization: float


class GimbalRates(NamedTuple):
    azimuth: float
    elevation: float
    polarization: float


@dataclass
class GeoConfig:
    uav_latitude: float = math.radians(34.27)
    uav_longitude: float = math.radians(108.95)
    satellite_longitude: float = math.radians(105.5)
    earth_radius: float = 6378e3  # m
    orbit_radius: float = 42164e3  # m, geostationary orbit radius

    def __post_init__(self):
        if not abs(self.uav_latitude) < math.pi / 2:
            raise ValueError("uav_latitude must lie strictly inside +/-90 deg")
        if not self.orbit_radius > self.earth_radius > 0:
            raise ValueError("orbit_radius must exceed earth_radius > 0")
        pointing_euler(self)  # NoVisibilityError when the satellite is below the horizon


@dataclass
class ServoConfig:
    """Proportional rate servo with saturation and mechanical stops."""

    gain: float = 20.0  # 1/s
    rate_limit: float = math.radians(60.0)  # rad/s per axis
    # |azimuth| <= stop, not negative; a stop >= pi holds every wrapped azimuth
    azimuth_stop: float = math.radians(170.0)
    elevation_min: float = 0.0
    elevation_max: float = math.radians(85.0)

    def __post_init__(self):
        if self.gain <= 0 or self.rate_limit <= 0:
            raise ValueError("gain and rate_limit must be positive")
        if self.azimuth_stop < 0:
            raise ValueError("azimuth_stop must not be negative")
        if self.elevation_min >= self.elevation_max:
            raise ValueError("elevation stops are inverted")
        if max(-self.elevation_min, self.elevation_max) >= RATE_MAP_LIMIT:
            raise ValueError("elevation stops must stay short of the +/-90 deg keyhole")


class GimbalState(NamedTuple):
    angles: GimbalAngles
    rate_clamped: bool = False


def pointing_euler(geo: GeoConfig) -> PointingEuler:
    """Pointing Euler angles of the satellite beam relative to the NED frame.

    Classic geostationary look-angle geometry driven by UAV latitude and the
    longitude difference to the satellite.  The heading keeps its raw
    180-degree offset (no wrapping).

    Raises
    ------
    NoVisibilityError
        If the satellite is below the local horizon.
    """
    lat = geo.uav_latitude
    dlon = geo.uav_longitude - geo.satellite_longitude
    rho = geo.earth_radius / geo.orbit_radius
    cos_psi = math.cos(lat) * math.cos(dlon)
    if cos_psi <= rho:
        raise NoVisibilityError("satellite below horizon for this geometry")
    heading = math.pi + math.atan2(math.tan(dlon), math.sin(lat))
    elevation = math.atan2(cos_psi - rho, math.sqrt(1.0 - cos_psi * cos_psi))
    polarization = math.atan2(math.sin(dlon), math.tan(lat))
    return PointingEuler(heading, elevation, polarization)


def stabilization_command(c_n_b: np.ndarray, euler: PointingEuler) -> list[GimbalAngles]:
    """Gimbal angles pointing the beam at the satellite, for each vehicle
    NED-to-body DCM of the (n, 3, 3) stack ``c_n_b``: the list of the n
    commands.

    Factors the NED-to-beam map through the body frame: c_b_t(command) @
    c_n_b = c_n_t(euler), so coordinates flow n -> b -> t.  A pure yaw of
    the vehicle shifts the azimuth command by the opposite amount.  At the
    keyhole (elevation +/-90 deg) the angles take the pole convention of
    ``frames.zyx_angles``: polarization 0, the azimuth carrying the rest.
    Each DCM must be a rotation (the loop's own DCMs): it is not checked.
    """
    c_nt = frames.c_n_t(*euler)
    # @ runs ndarray.dot's BLAS call per product: each command has its own bits
    return [GimbalAngles(*frames._zyx_of_rows(rows)) for rows in (c_nt @ c_n_b.mT).tolist()]


def coupled_beam_rate(angles: GimbalAngles, body_rates: np.ndarray) -> np.ndarray:
    """UAV body rates projected into the beam frame."""
    return np.dot(frames.c_b_t(*angles), np.asarray(body_rates, dtype=float))


def monitor_beam_rate(angles: GimbalAngles, rates: GimbalRates) -> tuple[float, float, float]:
    """Net beam-frame rate produced by the three gimbal motors, a float tuple."""
    return frames.euler_rates_in_frame(
        angles.polarization, angles.elevation,
        rates.polarization, rates.elevation, rates.azimuth,
    )


def isolation_rates(angles: GimbalAngles, body_rates) -> GimbalRates:
    """Gimbal rates (floats) that cancel the coupled beam rate of ``body_rates``.

    Singular as the elevation approaches +/-90 deg (keyhole), where the
    azimuth axis loses authority over the beam.
    """
    if abs(angles.elevation) >= RATE_MAP_LIMIT:
        raise SingularityError("elevation too close to +/-90 deg (keyhole)")
    wx, wy, wz = map(float, body_rates)
    ca, sa = math.cos(angles.azimuth), math.sin(angles.azimuth)
    tb = math.tan(angles.elevation)
    sec_b = 1.0 / math.cos(angles.elevation)
    return GimbalRates(
        azimuth=-ca * tb * wx - sa * tb * wy - wz,
        elevation=sa * wx - ca * wy,
        polarization=(-ca * wx - sa * wy) * sec_b,
    )


def servo(
    gimbal: GimbalState, targets, omegas, servo: ServoConfig, sample_period: float
) -> list[GimbalState]:
    """The servo recursion over a block: from ``gimbal``, the gimbal state
    after each tick toward the ``targets`` under the gyro rates ``omegas``
    (3-sequences).  Each axis commands the ``isolation_rates`` feedforward
    at the previous angles plus a proportional step along the shortest
    path, clamped at the rate limit (``rate_clamped``), and stays inside
    its stops; ``SingularityError`` at the first tick that starts at the
    keyhole."""
    gain, limit, t_s = servo.gain, servo.rate_limit, sample_period
    stop, el_min, el_max = servo.azimuth_stop, servo.elevation_min, servo.elevation_max
    wrap, cos, sin, tan, copysign = frames.wrap_angle, math.cos, math.sin, math.tan, math.copysign
    az, el, pol = gimbal.angles
    new = tuple.__new__  # builds a NamedTuple without the Python call of its __new__
    states = []
    for (goal_az, goal_el, goal_pol), (wx, wy, wz) in zip(targets, omegas):
        if abs(el) >= RATE_MAP_LIMIT:
            raise SingularityError("elevation too close to +/-90 deg (keyhole)")
        ca, sa, tb = cos(az), sin(az), tan(el)
        clamped = False
        rate_az = -ca * tb * wx - sa * tb * wy - wz + gain * wrap(goal_az - az)
        if abs(rate_az) > limit:
            rate_az, clamped = copysign(limit, rate_az), True
        rate_el = sa * wx - ca * wy + gain * wrap(goal_el - el)
        if abs(rate_el) > limit:
            rate_el, clamped = copysign(limit, rate_el), True
        rate_pol = (-ca * wx - sa * wy) * (1.0 / cos(el)) + gain * wrap(goal_pol - pol)
        if abs(rate_pol) > limit:
            rate_pol, clamped = copysign(limit, rate_pol), True
        az = min(stop, max(-stop, wrap(az + rate_az * t_s)))
        el = min(el_max, max(el_min, el + rate_el * t_s))
        pol = wrap(pol + rate_pol * t_s)
        states.append(new(GimbalState, (new(GimbalAngles, (az, el, pol)), clamped)))
    return states


def pointing_error(state: GimbalState, ideal: GimbalAngles) -> tuple[float, float]:
    """Azimuth/elevation error of the actual gimbal against the ideal
    stabilization solution ``ideal``, the ``stabilization_command`` of the
    truth NED-to-body DCM."""
    return (
        frames.wrap_angle(ideal.azimuth - state.angles.azimuth),
        frames.wrap_angle(ideal.elevation - state.angles.elevation),
    )
