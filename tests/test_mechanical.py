import math

import numpy as np
import pytest

from beamtrack import frames, mechanical
from beamtrack.frames import Attitude, SingularityError
from beamtrack.mechanical import (
    GeoConfig,
    GimbalAngles,
    GimbalRates,
    GimbalState,
    NoVisibilityError,
    PointingEuler,
    ServoConfig,
    coupled_beam_rate,
    gimbal_step,
    isolation_rates,
    monitor_beam_rate,
    pointing_error,
    pointing_euler,
    stabilization_command,
)

D2R = math.pi / 180.0


def command(att: Attitude, euler: PointingEuler) -> GimbalAngles:
    """The stabilization command of one attitude, a stack of one DCM."""
    [cmd] = stabilization_command(frames.c_n_b(att)[None], euler)
    return cmd


class TestPointingEuler:
    def test_xian_to_asiasat(self):
        # latitude 34.27N, longitude 108.95E, satellite at 105.5E
        out = pointing_euler(GeoConfig())
        assert math.degrees(out.heading) - 180.0 == pytest.approx(6.111, abs=1e-3)
        assert math.degrees(out.polarization) == pytest.approx(5.047, abs=1e-3)
        # the reference value is 50.1 deg; the closed form with
        # R_E=6378 km and orbit 42164 km lands a hair below 50.0
        assert math.degrees(out.elevation) == pytest.approx(49.9978, abs=1e-3)

    def test_subsatellite_point(self):
        geo = GeoConfig(uav_latitude=0.0, uav_longitude=GeoConfig().satellite_longitude)
        out = pointing_euler(geo)
        assert out.heading == pytest.approx(math.pi)
        assert out.elevation == pytest.approx(math.pi / 2)
        assert out.polarization == pytest.approx(0.0)

    def test_same_meridian(self):
        lat = 34.27 * D2R
        geo = GeoConfig(uav_latitude=lat, uav_longitude=GeoConfig().satellite_longitude)
        out = pointing_euler(geo)
        rho = geo.earth_radius / geo.orbit_radius
        assert out.heading == pytest.approx(math.pi)
        assert out.polarization == pytest.approx(0.0)
        assert out.elevation == pytest.approx(
            math.atan((math.cos(lat) - rho) / math.sin(lat)), abs=1e-12
        )

    def test_below_horizon(self):
        with pytest.raises(NoVisibilityError):
            pointing_euler(GeoConfig(uav_latitude=85 * D2R))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeoConfig(uav_latitude=math.pi / 2)
        with pytest.raises(ValueError):
            GeoConfig(orbit_radius=1e3)


class TestStabilization:
    def test_zero_attitude_passes_euler_through(self):
        euler = PointingEuler(186.11 * D2R, 50.1 * D2R, -5.05 * D2R)
        out = command(Attitude(0, 0, 0), euler)
        assert out.azimuth == pytest.approx(frames.wrap_angle(euler.heading), abs=1e-12)
        assert out.elevation == pytest.approx(euler.elevation, abs=1e-12)
        assert out.polarization == pytest.approx(euler.polarization, abs=1e-12)

    def test_defining_factorization(self):
        # the NED-to-beam map decomposes through the body frame:
        # c_b_t(command) composed with c_n_b(attitude) recovers c_n_t(euler)
        rng = np.random.default_rng(31)
        euler = PointingEuler(186.11 * D2R, 50.1 * D2R, -5.05 * D2R)
        for _ in range(300):
            att = Attitude(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.2, 1.2),
                rng.uniform(-math.pi, math.pi),
            )
            cmd = command(att, euler)
            np.testing.assert_allclose(
                frames.c_b_t(*cmd) @ frames.c_n_b(att), frames.c_n_t(*euler), atol=1e-10
            )

    def test_command_points_beam_at_satellite(self):
        # end-to-end geometric check: the commanded beam axis, expressed in
        # NED coordinates, matches the ideal satellite direction
        euler = pointing_euler(GeoConfig())
        sat_dir = frames.c_n_t(*euler).T @ np.array([1.0, 0.0, 0.0])
        rng = np.random.default_rng(8)
        for _ in range(100):
            att = Attitude(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-0.5, 0.5),
                rng.uniform(-math.pi, math.pi),
            )
            cmd = command(att, euler)
            beam_axis_n = (frames.c_b_t(*cmd) @ frames.c_n_b(att)).T @ np.array([1.0, 0.0, 0.0])
            np.testing.assert_allclose(beam_axis_n, sat_dir, atol=1e-10)

    def test_pure_yaw_shifts_azimuth(self):
        euler = PointingEuler(30 * D2R, 50 * D2R, 5 * D2R)
        base = command(Attitude(0, 0, 0), euler)
        yawed = command(Attitude(10 * D2R, 0, 0), euler)
        assert yawed.azimuth == pytest.approx(base.azimuth - 10 * D2R, abs=1e-12)
        assert yawed.elevation == pytest.approx(base.elevation, abs=1e-12)
        assert yawed.polarization == pytest.approx(base.polarization, abs=1e-12)


class TestDynamicIsolation:
    def test_zero_gimbal_angles(self):
        out = isolation_rates(GimbalAngles(0, 0, 0), np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(out, [-0.3, -0.2, -0.1], atol=1e-15)

    def test_specific_configuration(self):
        out = isolation_rates(GimbalAngles(math.pi / 2, 30 * D2R, 0.0), np.array([0.1, 0, 0]))
        assert out.azimuth == pytest.approx(0.0, abs=1e-15)
        assert out.elevation == pytest.approx(0.1, abs=1e-15)
        assert out.polarization == pytest.approx(0.0, abs=1e-15)

    def test_keyhole_raises(self):
        with pytest.raises(SingularityError):
            isolation_rates(GimbalAngles(0, math.pi / 2, 0), np.zeros(3))


class TestBeamRates:
    def test_coupled_rate_zero_angles(self):
        omega = np.array([0.2, -0.1, 0.4])
        np.testing.assert_allclose(coupled_beam_rate(GimbalAngles(0, 0, 0), omega), omega)

    def test_coupled_rate_norm_preserved(self):
        omega = np.array([0.2, -0.1, 0.4])
        out = coupled_beam_rate(GimbalAngles(0.5, 0.3, -0.7), omega)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(omega), abs=1e-12)

    def test_coupled_rate_matches_triple_product(self):
        angles = GimbalAngles(30 * D2R, 20 * D2R, 10 * D2R)
        omega = np.array([0.11, -0.22, 0.33])
        oracle = (
            frames.rot_x(angles.polarization)
            @ frames.rot_y(angles.elevation)
            @ frames.rot_z(angles.azimuth)
            @ omega
        )
        np.testing.assert_allclose(coupled_beam_rate(angles, omega), oracle, atol=1e-15)

    def test_monitor_rate_zero(self):
        out = monitor_beam_rate(GimbalAngles(0.4, 0.2, 0.1), GimbalRates(0, 0, 0))
        np.testing.assert_array_equal(out, 0.0)

    def test_monitor_rate_zero_angles(self):
        out = monitor_beam_rate(GimbalAngles(0.3, 0, 0), GimbalRates(0.1, 0.2, 0.3))
        np.testing.assert_allclose(out, [0.3, 0.2, 0.1], atol=1e-15)


class TestGimbalServo:
    def test_at_target_stays(self):
        state = GimbalState(GimbalAngles(0.3, 0.5, -0.1))
        out = gimbal_step(state, state.angles, GimbalRates(0, 0, 0), ServoConfig(), 0.01)
        np.testing.assert_allclose(out.angles, state.angles, atol=1e-15)
        assert not out.rate_clamped

    def test_first_order_settling(self):
        servo = ServoConfig(gain=20.0, rate_limit=1e6)
        target = GimbalAngles(0.0, 0.5, 0.0)
        state = GimbalState(GimbalAngles(0.02, 0.5, 0.0))
        t_s = 0.001
        steps = int(5.0 / servo.gain / t_s)  # five time constants
        for _ in range(steps):
            state = gimbal_step(state, target, GimbalRates(0, 0, 0), servo, t_s)
        # first-order decay: offset shrinks by ~exp(-5)
        assert abs(state.angles.azimuth) <= 0.02 * math.exp(-5) * 1.3

    def test_rate_clamp_applied_exactly(self):
        servo = ServoConfig(gain=20.0, rate_limit=10 * D2R)
        state = GimbalState(GimbalAngles(0.0, 0.5, 0.0))
        out = gimbal_step(state, GimbalAngles(1.0, 0.5, 0.0), GimbalRates(0, 0, 0), servo, 0.01)
        assert out.rate_clamped
        assert out.angles.azimuth == pytest.approx(10 * D2R * 0.01, abs=1e-15)

    def test_stops_hold_angles(self):
        servo = ServoConfig()
        state = GimbalState(GimbalAngles(0.0, 84.9 * D2R, 0.0))
        for _ in range(200):
            state = gimbal_step(
                state, GimbalAngles(0.0, 89.0 * D2R, 0.0), GimbalRates(0, 0, 0), servo, 0.01
            )
        assert state.angles.elevation == pytest.approx(85 * D2R)

    def test_azimuth_wraps_across_180(self):
        servo = ServoConfig(azimuth_stop=math.pi)
        state = GimbalState(GimbalAngles(math.radians(179.0), 0.5, 0.0))
        target = GimbalAngles(math.radians(-179.0), 0.5, 0.0)
        state = gimbal_step(state, target, GimbalRates(0, 0, 0), servo, 0.01)
        # shortest path goes through +180, not back through zero
        assert state.angles.azimuth > math.radians(179.0) or state.angles.azimuth < 0


class TestPointingError:
    def test_perfect_tracking(self):
        euler = pointing_euler(GeoConfig())
        att = Attitude(0.1, -0.05, 0.2)
        ideal = command(att, euler)
        err = pointing_error(GimbalState(ideal), command(att, euler))
        assert err == (0.0, 0.0)

    def test_yaw_error_passthrough(self):
        # at zero elevation target, a yaw estimate error shows up 1:1 in azimuth
        euler = PointingEuler(0.3, 0.0, 0.0)
        truth = Attitude(0.0, 0.0, 0.0)
        delta_yaw = 0.7 * D2R
        believed = Attitude(delta_yaw, 0.0, 0.0)
        cmd = command(believed, euler)
        err = pointing_error(GimbalState(cmd), command(truth, euler))
        assert abs(err[0]) == pytest.approx(delta_yaw, abs=1e-12)
        assert abs(err[1]) <= 1e-12
