import math

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical, sensors
from beamtrack.config import D2R, ScenarioConfig, default_scenario
from beamtrack.frames import Attitude, SingularityError
from beamtrack.sensors import (
    ProfileConfig,
    SensorNoiseConfig,
    Sinusoid,
    accel_to_pitch_roll,
    body_rates_to_euler_rates,
    euler_rates_to_body_rates,
    flight_profile,
    gyro_integrate,
)
from refs import (
    accel_measure,
    bits,
    block_bits,
    gps_yaw_measure,
    gyro_measure,
    quiet_noise,
    reference_sensed,
    rot_x,
    rot_y,
)


def default_profile() -> ProfileConfig:
    return ProfileConfig(
        yaw=[Sinusoid(10 * D2R, 0.1, 0.0)],
        pitch=[Sinusoid(5 * D2R, 0.2, 0.5)],
        roll=[Sinusoid(8 * D2R, 0.15, 2.0)],
    )


class TestFlightProfile:
    def test_zero_amplitudes(self):
        state = flight_profile(3.7, ProfileConfig())
        assert state.attitude == Attitude(0.0, 0.0, 0.0)
        np.testing.assert_array_equal(state.euler_rates, 0.0)
        np.testing.assert_array_equal(state.body_rates, 0.0)

    def test_sine_derivative_at_zero_phase(self):
        prof = ProfileConfig(pitch=[Sinusoid(5 * D2R, 0.1, 0.0)])
        state = flight_profile(0.0, prof)
        assert state.attitude.pitch == 0.0
        assert state.euler_rates[1] == pytest.approx(2 * math.pi * 0.1 * 5 * D2R, rel=1e-15)

    def test_rates_match_finite_differences(self):
        prof = default_profile()
        dt = 1e-6
        for t in (0.3, 1.0, 7.77, 33.3):
            lo = flight_profile(t - dt, prof).attitude
            hi = flight_profile(t + dt, prof).attitude
            fd = np.array(
                [
                    (hi.roll - lo.roll) / (2 * dt),
                    (hi.pitch - lo.pitch) / (2 * dt),
                    (hi.yaw - lo.yaw) / (2 * dt),
                ]
            )
            np.testing.assert_allclose(flight_profile(t, prof).euler_rates, fd, atol=1e-5)

    def test_body_rates_consistent_with_euler_rates(self):
        prof = default_profile()
        state = flight_profile(12.34, prof)
        np.testing.assert_allclose(
            state.body_rates,
            euler_rates_to_body_rates(state.attitude, state.euler_rates),
            atol=1e-15,
        )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            flight_profile(-0.1, ProfileConfig())


class TestRateKinematics:
    def test_identity_at_zero_attitude(self):
        rates = np.array([0.3, -0.2, 0.5])
        np.testing.assert_allclose(
            euler_rates_to_body_rates(Attitude(0, 0, 0), rates), rates, atol=1e-15
        )
        np.testing.assert_allclose(
            body_rates_to_euler_rates(Attitude(0, 0, 0), rates), rates, atol=1e-15
        )

    def test_mutual_inverse(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            att = Attitude(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.3, 1.3),
                rng.uniform(-math.pi, math.pi),
            )
            rates = rng.uniform(-1, 1, size=3)
            back = body_rates_to_euler_rates(att, euler_rates_to_body_rates(att, rates))
            np.testing.assert_allclose(back, rates, atol=1e-12)

    def test_yaw_rate_only_rolled_body(self):
        # direct substitution: the yaw rate column of the composition
        att = Attitude(0.0, 0.0, math.pi / 2)
        psi_dot = 0.42
        out = euler_rates_to_body_rates(att, np.array([0.0, 0.0, psi_dot]))
        oracle = rot_x(att.roll) @ rot_y(att.pitch) @ np.array([0, 0, psi_dot])
        np.testing.assert_allclose(out, oracle, atol=1e-15)
        np.testing.assert_allclose(out, [0.0, psi_dot, 0.0], atol=1e-15)

    def test_pitch_singularity(self):
        with pytest.raises(SingularityError):
            body_rates_to_euler_rates(Attitude(0, math.pi / 2, 0), np.zeros(3))
        with pytest.raises(SingularityError):
            euler_rates_to_body_rates(Attitude(0, math.pi / 2, 0), np.zeros(3))


class TestGyro:
    def test_zero_noise_identity(self):
        rng = np.random.default_rng(0)
        truth = np.array([0.1, -0.2, 0.05])
        np.testing.assert_array_equal(gyro_measure(truth, quiet_noise(), rng), truth)

    def test_sample_mean_tracks_truth_plus_bias(self):
        cfg = quiet_noise(gyro_white_sigma=0.01, gyro_bias=0.002)
        rng = np.random.default_rng(101)
        truth = np.array([0.3, 0.0, -0.1])
        n = 100_000
        draws = np.array([gyro_measure(truth, cfg, rng) for _ in range(n)])
        tol = 3 * cfg.gyro_white_sigma / math.sqrt(n)
        np.testing.assert_allclose(draws.mean(axis=0), truth + cfg.gyro_bias, atol=tol)

    def test_integration_telescopes(self):
        att = Attitude(0, 0, 0)
        for _ in range(50):
            att = gyro_integrate(att, np.array([0.0, 0.0, 0.02]), 0.01)
        assert att.yaw == pytest.approx(50 * 0.01 * 0.02, rel=1e-9)
        assert att.pitch == 0.0 and att.roll == 0.0

    def test_zero_rates_leave_attitude(self):
        att = Attitude(0.2, -0.1, 0.4)
        assert gyro_integrate(att, np.zeros(3), 0.01) == att

    def test_bias_drift_matches_kinematic_ode(self):
        # stationary truth: the integrated estimate should follow the ODE
        # att' = K(att) @ bias, integrated here at a 10x finer step as oracle
        cfg = quiet_noise(gyro_bias=0.002)
        rng = np.random.default_rng(1)
        t_s, total = 0.01, 100.0
        att = Attitude(0, 0, 0)
        for _ in range(int(total / t_s)):
            omega = gyro_measure(np.zeros(3), cfg, rng)
            att = gyro_integrate(att, omega, t_s)
        bias = np.full(3, cfg.gyro_bias)
        fine = Attitude(0, 0, 0)
        fine_dt = t_s / 10
        for _ in range(int(total / fine_dt)):
            r = body_rates_to_euler_rates(fine, bias)
            fine = Attitude(fine.yaw + r[2] * fine_dt, fine.pitch + r[1] * fine_dt, fine.roll + r[0] * fine_dt)
        for got, want in zip(att, fine):
            assert got == pytest.approx(want, abs=2e-3)

    def test_bias_drift_linear_slope_early(self):
        # before cross-coupling builds up, drift per axis ~ bias * elapsed
        cfg = quiet_noise(gyro_bias=0.002)
        rng = np.random.default_rng(1)
        att = Attitude(0, 0, 0)
        t_s, total = 0.01, 25.0
        for _ in range(int(total / t_s)):
            att = gyro_integrate(att, gyro_measure(np.zeros(3), cfg, rng), t_s)
        for component in (att.yaw, att.pitch, att.roll):
            assert abs(component) == pytest.approx(cfg.gyro_bias * total, rel=0.05)


class TestAccelerometer:
    def test_level_attitude(self):
        rng = np.random.default_rng(0)
        f = accel_measure(Attitude(0, 0, 0), quiet_noise(), rng)
        np.testing.assert_allclose(f, [0.0, 0.0, -9.81], atol=1e-15)

    def test_pitched_attitude_value(self):
        rng = np.random.default_rng(0)
        f = accel_measure(Attitude(0, 10 * D2R, 0), quiet_noise(), rng)
        assert f[0] == pytest.approx(9.81 * math.sin(10 * D2R), abs=1e-12)
        assert f[0] == pytest.approx(1.7035, abs=5e-4)

    def test_noiseless_norm_is_g(self):
        rng_att = np.random.default_rng(55)
        rng = np.random.default_rng(0)
        for _ in range(100):
            att = Attitude(*rng_att.uniform(-math.pi / 2, math.pi / 2, size=3))
            f = accel_measure(att, quiet_noise(), rng)
            assert np.linalg.norm(f) == pytest.approx(9.81, abs=1e-9)

    def test_level_inverts_to_zero(self):
        out = accel_to_pitch_roll(np.array([0.0, 0.0, -9.81]), 9.81)
        assert out.pitch == 0.0 and out.roll == 0.0 and not out.saturated

    def test_round_trip(self):
        rng_att = np.random.default_rng(77)
        rng = np.random.default_rng(0)
        for _ in range(200):
            att = Attitude(0.0, rng_att.uniform(-79, 79) * D2R, rng_att.uniform(-79, 79) * D2R)
            f = accel_measure(att, quiet_noise(), rng)
            out = accel_to_pitch_roll(f, 9.81)
            assert out.pitch == pytest.approx(att.pitch, abs=1e-12)
            assert out.roll == pytest.approx(att.roll, abs=1e-12)

    def test_saturation_boundary(self):
        out = accel_to_pitch_roll(np.array([9.81, 0.0, 0.0]), 9.81)
        assert out.pitch == pytest.approx(math.pi / 2)
        assert not out.saturated
        out = accel_to_pitch_roll(np.array([10.5, 0.0, 0.0]), 9.81)
        assert out.pitch == pytest.approx(math.pi / 2)
        assert out.saturated


class TestGps:
    def test_zero_attitude(self):
        rng = np.random.default_rng(0)
        assert gps_yaw_measure(Attitude(0, 0, 0), quiet_noise(), rng) == 0.0

    def test_pure_yaw_recovered(self):
        rng = np.random.default_rng(0)
        psi = gps_yaw_measure(Attitude(30 * D2R, 0, 0), quiet_noise(), rng)
        assert psi == pytest.approx(30 * D2R, abs=1e-12)

    def test_matches_rotated_baseline(self):
        # the written-out first row of c_n_b against the full rotation
        rng = np.random.default_rng(3)
        for _ in range(200):
            att = Attitude(*rng.uniform(-math.pi, math.pi, 3))
            ned = frames.c_n_b(att).T @ np.array([1.0, 0.0, 0.0])
            psi = gps_yaw_measure(att, quiet_noise(), rng)
            assert psi == math.atan2(ned[1], ned[0])

    def test_nonfinite_attitude_rejected(self):
        rng = np.random.default_rng(0)
        for bad in (Attitude(math.nan, 0, 0), Attitude(0, math.inf, 0), Attitude(0, 0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                gps_yaw_measure(bad, quiet_noise(), rng)


class TestNoiselessRoundTrips:
    def test_gyro_path_exact_for_constant_rates(self):
        # with constant Euler rates the per-step inverse mapping is exact,
        # so dead reckoning telescopes with no truncation error
        cfg = quiet_noise()
        rng = np.random.default_rng(0)
        rates = np.array([0.021, -0.013, 0.034])  # roll, pitch, yaw rad/s
        t_s = 0.01
        est = Attitude(0, 0, 0)
        truth = Attitude(0, 0, 0)
        for _ in range(500):
            omega = gyro_measure(euler_rates_to_body_rates(truth, rates), cfg, rng)
            est = gyro_integrate(est, omega, t_s)
            truth = Attitude(
                truth.yaw + rates[2] * t_s,
                truth.pitch + rates[1] * t_s,
                truth.roll + rates[0] * t_s,
            )
            assert est.yaw == pytest.approx(truth.yaw, abs=1e-10)
            assert est.pitch == pytest.approx(truth.pitch, abs=1e-10)
            assert est.roll == pytest.approx(truth.roll, abs=1e-10)

    def test_gyro_path_first_order_error_for_sinusoids(self):
        # rectangle-rule integration of time-varying rates drifts at O(T_s)
        prof = default_profile()
        cfg = quiet_noise()
        rng = np.random.default_rng(0)
        t_s = 0.01
        est = flight_profile(0.0, prof).attitude
        for k in range(1, 501):
            state = flight_profile((k - 1) * t_s, prof)
            est = gyro_integrate(est, gyro_measure(state.body_rates, cfg, rng), t_s)
        final = flight_profile(500 * t_s, prof).attitude
        for got, want in zip(est, final):
            assert abs(got - want) < 5e-3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SensorNoiseConfig(sample_period=0.0)
        with pytest.raises(ValueError):
            SensorNoiseConfig(gyro_white_sigma=-1.0)


class TestFloatTupleVectors:
    """The functions that read a 3-vector read a float tuple and an array
    alike, bit for bit."""

    def test_readers_take_arrays(self):
        cfg = SensorNoiseConfig()
        rates = (0.31, -0.22, 0.13)
        array = np.array(rates)
        state = fusion.make_filter_state(np.array([0.9, 0.1, -0.2, 0.3]), fusion.FusionConfig())
        z = fusion.measurement_quat(0.1, 0.2, 0.3)
        angles = mechanical.GimbalAngles(0.4, 0.7, -0.2)
        servo = mechanical.ServoConfig()
        for reader in (
            lambda v: fusion.fuse(state, [v], [z], 0.01),
            lambda v: mechanical.isolation_rates(angles, v),
            lambda v: mechanical.servo(angles, [angles], [v], servo, 0.01),
            lambda v: accel_to_pitch_roll(v, cfg.gravity)[:2],
            lambda v: gyro_measure(v, cfg, np.random.default_rng(3)),
            lambda v: euler_rates_to_body_rates(Attitude(0.1, 0.2, 0.3), v),
        ):
            assert bits(reader(array)) == bits(reader(rates))


def block_configs() -> dict[str, ScenarioConfig]:
    several = default_scenario()
    several.profile = ProfileConfig(
        yaw=[Sinusoid(10 * D2R, 0.1, 0.3), Sinusoid(40 * D2R, 0.013), Sinusoid(2 * D2R, 1.7, 2.0)],
        pitch=[Sinusoid(30 * D2R, 0.05, 1.0), Sinusoid(25 * D2R, 0.31, -0.4)],
        roll=[Sinusoid(20 * D2R, 0.21), Sinusoid(170 * D2R, 0.02, 3.0), Sinusoid(1 * D2R, 2.3)],
    )
    quiet = default_scenario()
    quiet.sensors = quiet_noise()
    # |f_x| > g on some ticks: the accelerometer pitch saturates at +/-90 deg
    # and the measurement quaternion clamps it to fusion._PITCH_LIMIT
    saturating = default_scenario()
    saturating.profile = several.profile
    saturating.sensors = SensorNoiseConfig(accel_white_sigma=6.0)
    return {"default": default_scenario(), "several": several, "quiet": quiet,
            "saturating": saturating}


class TestSenseBlock:
    """The open-loop half of a block of ticks equals that of its ticks
    computed one at a time, bit for bit."""

    @pytest.mark.parametrize("name", list(block_configs()))
    @pytest.mark.parametrize("n", [1, harness._SENSE_CHUNK, harness._SENSE_CHUNK + 1])
    def test_block_matches_per_tick_reference(self, name, n):
        cfg = block_configs()[name]
        euler = mechanical.pointing_euler(cfg.geo)
        times = np.arange(1, n + 1) * cfg.sensors.sample_period
        ref_rng = np.random.default_rng(17)
        want = [reference_sensed(cfg, euler, 0.0, ref_rng, gyro=False)]
        want += [reference_sensed(cfg, euler, t, ref_rng) for t in times.tolist()]
        # one block, and the loop's chunks with their closed-loop columns
        # (those with a default) cleared
        block_rng, chunk_rng = np.random.default_rng(17), np.random.default_rng(17)
        start = harness.sense(cfg, euler, np.zeros(1), block_rng, gyro=False)
        block = harness.sense(cfg, euler, times, block_rng)
        chunked = [b._replace(**harness.Block._field_defaults)
                   for b in harness.blocks(cfg, euler, chunk_rng, n)]
        assert len(block.t) == sum(len(b.t) for b in chunked) - 1 == n
        for got in ([start, block], chunked):
            assert b"".join(map(block_bits, got)) == b"".join(map(block_bits, want))
            assert all(
                type(w) is list and all(type(v) is float for v in w)
                for b in got[1:] for w in b.omega_m
            )
        if name == "saturating" and n > 1:
            assert block.pitch_roll.saturated.any()
            assert (abs(block.pitch_roll.pitch) > fusion._PITCH_LIMIT).any()

    def test_negative_time_rejected(self):
        cfg = default_scenario()
        times = np.array([0.01, -0.01, 0.02])
        with pytest.raises(ValueError, match="non-negative"):
            sensors.sense(times, cfg.profile, cfg.sensors, np.random.default_rng(0))

    def test_pitch_singularity_rejected(self):
        # the pitch term reaches 90 deg at t = 0.25 s
        prof = ProfileConfig(pitch=[Sinusoid(math.pi / 2, 1.0)])
        times = np.array([0.0, 0.25, 0.5])
        with pytest.raises(SingularityError):
            sensors.sense(times, prof, SensorNoiseConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("axis", ["yaw", "pitch", "roll"])
    def test_nonfinite_attitude_rejected(self, axis):
        prof = ProfileConfig(**{axis: [Sinusoid(0.1, 0.1, math.nan)]})
        with pytest.raises(ValueError, match="finite"):
            sensors.sense(np.array([0.01, 0.0]), prof, SensorNoiseConfig(),
                          np.random.default_rng(0))
