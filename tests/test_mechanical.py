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
    isolation_rates,
    monitor_beam_rate,
    pointing_error,
    pointing_euler,
    stabilization_command,
)
from test_frames import rot_x, rot_y, rot_z

D2R = math.pi / 180.0


def gimbal_step(
    state: GimbalState,
    target: GimbalAngles,
    isolation: GimbalRates,
    servo: ServoConfig,
    sample_period: float,
) -> GimbalState:
    """Reference: one tick of the servo.  The commanded rate per axis is the
    isolation feedforward plus a proportional correction toward the target
    (shortest angular path); rates saturate at the motor limit and angles
    are held inside the mechanical stops."""
    clamped = False
    moved = []
    for goal, angle, rate in zip(target, state.angles, isolation):
        rate += servo.gain * frames.wrap_angle(goal - angle)
        if abs(rate) > servo.rate_limit:
            rate = math.copysign(servo.rate_limit, rate)
            clamped = True
        moved.append(angle + rate * sample_period)
    azimuth = frames.wrap_angle(moved[0])
    azimuth = min(servo.azimuth_stop, max(-servo.azimuth_stop, azimuth))
    elevation = min(servo.elevation_max, max(servo.elevation_min, moved[1]))
    polarization = frames.wrap_angle(moved[2])
    return GimbalState(GimbalAngles(azimuth, elevation, polarization), clamped)


def reference_servo(gimbal, targets, omegas, servo, sample_period) -> list[GimbalState]:
    """Reference: ``mechanical.servo`` a tick at a time, the isolation rates
    at the previous angles, then ``gimbal_step``."""
    states = []
    for target, omega in zip(targets, omegas):
        isolation = isolation_rates(gimbal.angles, omega)
        gimbal = gimbal_step(gimbal, GimbalAngles(*target), isolation, servo, sample_period)
        states.append(gimbal)
    return states


def gimbal_bits(states) -> list[bytes]:
    """Every float of each gimbal state, its flag included, as bytes."""
    return [np.array([*g.angles, g.rate_clamped], dtype=float).tobytes() for g in states]


def hold(state: GimbalState, target: GimbalAngles, servo: ServoConfig, t_s: float, ticks: int):
    """``ticks`` ticks of ``mechanical.servo`` toward a fixed target, the
    vehicle at rest."""
    return mechanical.servo(state, [target] * ticks, [(0.0, 0.0, 0.0)] * ticks, servo, t_s)


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


class TestGimbalServo:
    def test_at_target_stays(self):
        state = GimbalState(GimbalAngles(0.3, 0.5, -0.1))
        [out] = hold(state, state.angles, ServoConfig(), 0.01, 1)
        np.testing.assert_allclose(out.angles, state.angles, atol=1e-15)
        assert not out.rate_clamped

    def test_first_order_settling(self):
        servo = ServoConfig(gain=20.0, rate_limit=1e6)
        state = GimbalState(GimbalAngles(0.02, 0.5, 0.0))
        t_s = 0.001
        steps = int(5.0 / servo.gain / t_s)  # five time constants
        *_, state = hold(state, GimbalAngles(0.0, 0.5, 0.0), servo, t_s, steps)
        # first-order decay: offset shrinks by ~exp(-5)
        assert abs(state.angles.azimuth) <= 0.02 * math.exp(-5) * 1.3

    def test_rate_clamp_applied_exactly(self):
        servo = ServoConfig(gain=20.0, rate_limit=10 * D2R)
        state = GimbalState(GimbalAngles(0.0, 0.5, 0.0))
        [out] = hold(state, GimbalAngles(1.0, 0.5, 0.0), servo, 0.01, 1)
        assert out.rate_clamped
        assert out.angles.azimuth == pytest.approx(10 * D2R * 0.01, abs=1e-15)

    def test_stops_hold_angles(self):
        state = GimbalState(GimbalAngles(0.0, 84.9 * D2R, 0.0))
        *_, state = hold(state, GimbalAngles(0.0, 89.0 * D2R, 0.0), ServoConfig(), 0.01, 200)
        assert state.angles.elevation == pytest.approx(85 * D2R)

    def test_azimuth_wraps_across_180(self):
        servo = ServoConfig(azimuth_stop=math.pi)
        state = GimbalState(GimbalAngles(math.radians(179.0), 0.5, 0.0))
        target = GimbalAngles(math.radians(-179.0), 0.5, 0.0)
        [state] = hold(state, target, servo, 0.01, 1)
        # shortest path goes through +180, not back through zero
        assert state.angles.azimuth > math.radians(179.0) or state.angles.azimuth < 0


class TestServo:
    """``mechanical.servo`` against ``reference_servo``, bit for bit."""

    T_S = 0.01

    def run_both(self, start, targets, omegas, servo=None):
        servo = servo or ServoConfig()
        got = mechanical.servo(start, targets, omegas, servo, self.T_S)
        want = reference_servo(start, targets, omegas, servo, self.T_S)
        assert gimbal_bits(got) == gimbal_bits(want)
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
        states = self.run_both(GimbalState(GimbalAngles(0.1, 0.4, -0.2)), targets, omegas)
        assert 0 < sum(g.rate_clamped for g in states) < n

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_rate_clamp_on_each_axis(self, axis):
        # one axis steps 0.5 rad away from its target, the others stay on
        # theirs: only that axis saturates, on the first ticks
        start = GimbalAngles(0.2, 0.4, -0.3)
        target = list(start)
        target[axis] += 0.5
        states = self.run_both(GimbalState(start), [target] * 100, [(0.0, 0.0, 0.0)] * 100)
        assert states[0].rate_clamped and not states[-1].rate_clamped
        for other in {0, 1, 2} - {axis}:  # held, but for the wrap's rounding
            held = [start[other]] * 100
            assert [g.angles[other] for g in states] == pytest.approx(held, abs=1e-15)

    def test_azimuth_stop(self):
        # a target beyond each stop: the azimuth runs into it and holds there
        for sign in (1.0, -1.0):
            target = (sign * 175 * D2R, 0.4, 0.0)
            start = GimbalState(GimbalAngles(sign * 160 * D2R, 0.4, 0.0))
            states = self.run_both(start, [target] * 50, [(0.0, 0.0, 0.0)] * 50)
            assert states[-1].angles.azimuth == sign * ServoConfig().azimuth_stop

    def test_elevation_stops(self):
        # targets above the upper stop and below the lower one, with the
        # vehicle pitching toward them
        servo = ServoConfig()
        for target_el, omega_y, stop in ((89 * D2R, -0.2, servo.elevation_max),
                                          (-10 * D2R, 0.2, servo.elevation_min)):
            start = GimbalState(GimbalAngles(0.0, 42 * D2R, 0.0))
            targets, omegas = [(0.0, target_el, 0.0)] * 300, [(0.0, omega_y, 0.0)] * 300
            states = self.run_both(start, targets, omegas)
            assert states[-1].angles.elevation == stop

    def test_keyhole_in_mid_block(self):
        # the upper stop moved to the keyhole after the config's own check:
        # the elevation climbs into it, and the tick that starts there raises
        servo = ServoConfig(gain=100.0, rate_limit=30.0)
        servo.elevation_max = math.pi / 2
        start = GimbalState(GimbalAngles(0.0, 0.0, 0.0))
        # the vehicle pitches down, so the feedforward lifts the elevation
        targets, omegas = [(0.0, math.pi / 2, 0.0)] * 12, [(0.0, -0.1, 0.0)] * 12
        gimbal, k = start, 0
        while abs(gimbal.angles.elevation) < frames.RATE_MAP_LIMIT and k < len(targets):
            [gimbal] = reference_servo(gimbal, targets[:1], omegas[:1], servo, self.T_S)
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
