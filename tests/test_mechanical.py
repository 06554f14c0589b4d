import math

import numpy as np
import pytest

from beamtrack import frames, mechanical
from beamtrack.config import D2R
from beamtrack.frames import Attitude, SingularityError
from beamtrack.mechanical import (
    GeoConfig,
    GimbalAngles,
    GimbalRates,
    NoVisibilityError,
    PointingEuler,
    ServoConfig,
    coupled_beam_rate,
    isolation_rates,
    monitor_beam_rate,
    pointing_error,
    pointing_euler,
    stabilization_command,
)
from refs import bits, reference_servo, rot_x, rot_y, rot_z


def command(att: Attitude, euler: PointingEuler) -> GimbalAngles:
    """The stabilization command of one attitude, a stack of one DCM."""
    [cmd] = stabilization_command(frames.c_n_b(att)[None], euler)
    return GimbalAngles(*cmd)


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

    def test_float_fields_from_any_sequence(self):
        # an array of rates, or array angles, gives the floats of a tuple's
        angles = GimbalAngles(*np.array([0.4, 0.7, -0.2]))
        want = isolation_rates(GimbalAngles(0.4, 0.7, -0.2), (0.31, -0.22, 0.13))
        for rates in ((0.31, -0.22, 0.13), [0.31, -0.22, 0.13], np.array([0.31, -0.22, 0.13])):
            out = isolation_rates(angles, rates)
            assert [type(x) for x in out] == [float] * 3
            assert out == want


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
            rot_x(angles.polarization)
            @ rot_y(angles.elevation)
            @ rot_z(angles.azimuth)
            @ omega
        )
        np.testing.assert_allclose(coupled_beam_rate(angles, omega), oracle, atol=1e-15)

    def test_monitor_rate_zero(self):
        out = monitor_beam_rate(GimbalAngles(0.4, 0.2, 0.1), GimbalRates(0, 0, 0))
        np.testing.assert_array_equal(out, 0.0)

    def test_monitor_rate_zero_angles(self):
        out = monitor_beam_rate(GimbalAngles(0.3, 0, 0), GimbalRates(0.1, 0.2, 0.3))
        np.testing.assert_allclose(out, [0.3, 0.2, 0.1], atol=1e-15)


class TestServo:
    """``mechanical.servo`` against ``reference_servo``, bit for bit."""

    T_S = 0.01

    def run_both(self, start, targets, omegas, servo=None):
        servo = servo or ServoConfig()
        got = mechanical.servo(start, targets, omegas, servo, self.T_S)
        want = reference_servo(start, targets, omegas, servo, self.T_S)
        assert bits(got) == bits(want)
        return want

    def test_equals_the_reference_on_random_motion(self):
        # targets that wander on every axis, across the azimuth and
        # polarization wraps, under body rates that saturate some ticks
        rng = np.random.default_rng(31)
        n = 4096
        walk = np.cumsum(rng.normal(0.0, 0.01, (n, 3)), axis=0) + (3.0, 0.6, 3.0)
        walk[:, 1] = np.clip(walk[:, 1], -0.1, 1.4)
        targets = np.column_stack([
            np.angle(np.exp(1j * walk[:, 0])), walk[:, 1], np.angle(np.exp(1j * walk[:, 2])),
        ]).tolist()
        omegas = rng.uniform(-0.8, 0.8, (n, 3)).tolist()
        _, clamped = self.run_both(GimbalAngles(0.1, 0.4, -0.2), targets, omegas)
        assert 0 < sum(clamped) < n

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rate_clamp_on_each_axis(self, axis):
        # one axis steps 0.5 rad away from its target, the others stay on
        # theirs: only that axis saturates, on the first ticks, and moves
        # by exactly the rate limit
        start = GimbalAngles(0.2, 0.4, -0.3)
        target = list(start)
        target[axis] += 0.5
        angles, clamped = self.run_both(start, [target] * 100, [(0.0, 0.0, 0.0)] * 100)
        assert clamped[0] and not clamped[-1]
        limit_step = ServoConfig().rate_limit * self.T_S
        assert angles[0][axis] == pytest.approx(start[axis] + limit_step, abs=1e-15)
        for other in {0, 1, 2} - {axis}:  # held, but for the wrap's rounding
            held = [start[other]] * 100
            assert [a[other] for a in angles] == pytest.approx(held, abs=1e-15)

    def test_azimuth_stop(self):
        # a target beyond each stop: the azimuth runs into it and holds there
        for sign in (1.0, -1.0):
            target = (sign * 175 * D2R, 0.4, 0.0)
            start = GimbalAngles(sign * 160 * D2R, 0.4, 0.0)
            angles, _ = self.run_both(start, [target] * 50, [(0.0, 0.0, 0.0)] * 50)
            assert angles[-1][0] == sign * ServoConfig().azimuth_stop

    def test_azimuth_wraps_across_180(self):
        # without a stop the shortest path goes through +180 deg, not back
        # through zero
        start, target = GimbalAngles(179 * D2R, 0.5, 0.0), (-179 * D2R, 0.5, 0.0)
        [(azimuth, _, _)], _ = self.run_both(start, [target], [(0.0, 0.0, 0.0)],
                                             ServoConfig(azimuth_stop=math.pi))
        assert azimuth > 179 * D2R or azimuth < 0

    def test_first_order_settling(self):
        # unclamped, an offset decays by 1 - gain * T_s a tick: five time
        # constants take it to about exp(-5) of itself
        servo = ServoConfig(gain=2.0, rate_limit=1e6)
        steps = int(5.0 / servo.gain / self.T_S)
        angles, _ = self.run_both(GimbalAngles(0.02, 0.5, 0.0), [(0.0, 0.5, 0.0)] * steps,
                                  [(0.0, 0.0, 0.0)] * steps, servo)
        assert abs(angles[-1][0]) <= 0.02 * math.exp(-5) * 1.3

    def test_elevation_stops(self):
        # targets above the upper stop and below the lower one, with the
        # vehicle pitching toward them
        servo = ServoConfig()
        for target_el, omega_y, stop in ((89 * D2R, -0.2, servo.elevation_max),
                                          (-10 * D2R, 0.2, servo.elevation_min)):
            start = GimbalAngles(0.0, 42 * D2R, 0.0)
            targets, omegas = [(0.0, target_el, 0.0)] * 300, [(0.0, omega_y, 0.0)] * 300
            angles, _ = self.run_both(start, targets, omegas)
            assert angles[-1][1] == stop

    def test_keyhole_in_mid_block(self):
        # the upper stop moved to the keyhole after the config's own check:
        # the elevation climbs into it, and the tick that starts there raises
        servo = ServoConfig(gain=100.0, rate_limit=30.0)
        servo.elevation_max = math.pi / 2
        start = GimbalAngles(0.0, 0.0, 0.0)
        # the vehicle pitches down, so the feedforward lifts the elevation
        targets, omegas = [(0.0, math.pi / 2, 0.0)] * 12, [(0.0, -0.1, 0.0)] * 12
        angles, k = start, 0
        while abs(angles[1]) < frames.RATE_MAP_LIMIT and k < len(targets):
            [angles], _ = reference_servo(angles, targets[:1], omegas[:1], servo, self.T_S)
            k += 1
        assert 2 <= k < len(targets) - 1
        self.run_both(start, targets[:k], omegas[:k], servo)
        with pytest.raises(SingularityError):
            reference_servo(start, targets[:k + 1], omegas[:k + 1], servo, self.T_S)
        with pytest.raises(SingularityError):
            mechanical.servo(start, targets, omegas, servo, self.T_S)


class TestPointingError:
    def test_perfect_tracking(self):
        euler = pointing_euler(GeoConfig())
        att = Attitude(0.1, -0.05, 0.2)
        ideal = command(att, euler)
        err = pointing_error(ideal, command(att, euler))
        assert err == (0.0, 0.0)

    def test_yaw_error_passthrough(self):
        # at zero elevation target, a yaw estimate error shows up 1:1 in azimuth
        euler = PointingEuler(0.3, 0.0, 0.0)
        truth = Attitude(0.0, 0.0, 0.0)
        delta_yaw = 0.7 * D2R
        believed = Attitude(delta_yaw, 0.0, 0.0)
        cmd = command(believed, euler)
        err = pointing_error(cmd, command(truth, euler))
        assert abs(err[0]) == pytest.approx(delta_yaw, abs=1e-12)
        assert abs(err[1]) <= 1e-12
