import math

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical, sensors
from beamtrack.config import ScenarioConfig, default_scenario
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

D2R = math.pi / 180.0


# ---------------------------------------------------------------- references
# The loop's open-loop half, one tick at a time in Python floats: the code
# that sensors.sense and harness.sense compute for a block of ticks in numpy.
# TestSenseBlock holds the block to these bit for bit, and the sensor-model
# tests below test them.


def reference_flight_profile(t: float, profile: ProfileConfig) -> sensors.FlightState:
    """The truth at one time ``t``."""
    if t < 0:
        raise ValueError("time must be non-negative")
    axes = []
    for terms in (profile.yaw, profile.pitch, profile.roll):
        value = rate = 0.0
        for amp, freq, phase in terms:
            w = 2.0 * math.pi * freq
            value += amp * math.sin(w * t + phase)
            rate += amp * w * math.cos(w * t + phase)
        axes.append((value, rate))
    (yaw, yaw_rate), (pitch, pitch_rate), (roll, roll_rate) = axes
    attitude = Attitude(yaw, pitch, roll)
    euler_rates = (roll_rate, pitch_rate, yaw_rate)
    return sensors.FlightState(
        attitude, euler_rates, euler_rates_to_body_rates(attitude, euler_rates)
    )


def gyro_measure(truth, noise: SensorNoiseConfig, rng) -> tuple[float, float, float]:
    """Gyro triad output: truth + constant bias + white noise per axis."""
    wx, wy, wz = truth
    nx, ny, nz = rng.standard_normal(3).tolist()
    bias, sigma = noise.gyro_bias, noise.gyro_white_sigma
    return (wx + bias + sigma * nx, wy + bias + sigma * ny, wz + bias + sigma * nz)


def accel_measure(attitude: Attitude, noise: SensorNoiseConfig, rng) -> tuple[float, float, float]:
    """Accelerometer triad: gravity projection + noise; level gives (0, 0, -g)."""
    sp, cp = math.sin(attitude.pitch), math.cos(attitude.pitch)
    sr, cr = math.sin(attitude.roll), math.cos(attitude.roll)
    nx, ny, nz = rng.standard_normal(3).tolist()
    g, sigma = -noise.gravity, noise.accel_white_sigma
    return (g * -sp + sigma * nx, g * (sr * cp) + sigma * ny, g * (cr * cp) + sigma * nz)


def gps_yaw_measure(attitude: Attitude, noise: SensorNoiseConfig, rng) -> float:
    """Dual-antenna GPS heading: the yaw of the first row of c_n_b + noise."""
    yaw, pitch, roll = attitude
    if not (math.isfinite(yaw) and math.isfinite(pitch) and math.isfinite(roll)):
        raise ValueError(f"attitude must be finite, got {attitude!r}")
    cp = math.cos(pitch)
    north, east = cp * math.cos(yaw), cp * math.sin(yaw)
    return math.atan2(east, north) + noise.gps_yaw_sigma * rng.standard_normal()


def reference_pitch_roll(f, gravity: float) -> sensors.PitchRoll:
    """The accelerometer inversion of one reading."""
    fx, fy, fz = f
    ratio = fx / gravity
    pitch = math.asin(min(1.0, max(-1.0, ratio)))
    return sensors.PitchRoll(pitch, math.atan2(-fy, -fz), abs(ratio) > 1.0)


def reference_measurement_quat(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """The measurement quaternion before its sign, pitch clamped."""
    pitch = min(fusion._PITCH_LIMIT, max(-fusion._PITCH_LIMIT, pitch))
    cy, sy = math.cos(yaw / 2), math.sin(yaw / 2)
    cp, sp = math.cos(pitch / 2), math.sin(pitch / 2)
    cr, sr = math.cos(roll / 2), math.sin(roll / 2)
    q = np.array([
        cy * cp * cr + sy * sp * sr,
        cy * cp * sr - sy * sp * cr,
        cy * sp * cr + sy * cp * sr,
        sy * cp * cr - cy * sp * sr,
    ])
    return q / math.sqrt(q.dot(q))


def reference_sensed(cfg: ScenarioConfig, euler, t: float, rng, gyro=True) -> harness.Sensed:
    """The open-loop half of one tick, its draws taken from ``rng``."""
    truth = reference_flight_profile(t, cfg.profile)
    omega = gyro_measure(truth.body_rates, cfg.sensors, rng) if gyro else None
    f = accel_measure(truth.attitude, cfg.sensors, rng)
    pr = reference_pitch_roll(f, cfg.sensors.gravity)
    psi = gps_yaw_measure(truth.attitude, cfg.sensors, rng)
    c_n_b = frames.c_n_b(truth.attitude)
    [ideal] = mechanical.stabilization_command(c_n_b[None], euler)
    return harness.Sensed(
        t, truth.attitude, omega, pr, psi, reference_measurement_quat(psi, pr.pitch, pr.roll),
        c_n_b, ideal,
    )


def quiet_noise(**overrides) -> SensorNoiseConfig:
    base = dict(gyro_white_sigma=0.0, gyro_bias=0.0, accel_white_sigma=0.0, gps_yaw_sigma=0.0)
    return SensorNoiseConfig(**{**base, **overrides})


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
        oracle = frames.rot_x(att.roll) @ frames.rot_y(att.pitch) @ np.array([0, 0, psi_dot])
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

    def test_seeded_reproducibility(self):
        cfg = quiet_noise(gyro_white_sigma=0.05)
        a = [gyro_measure(np.zeros(3), cfg, np.random.default_rng(7)) for _ in range(1)]
        b = [gyro_measure(np.zeros(3), cfg, np.random.default_rng(7)) for _ in range(1)]
        np.testing.assert_array_equal(a, b)

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
    def test_instantaneous_paths_recover_truth(self):
        prof = default_profile()
        cfg = quiet_noise()
        rng = np.random.default_rng(0)
        for k in range(1, 501):
            state = flight_profile(k * 0.01, prof)
            pr = accel_to_pitch_roll(accel_measure(state.attitude, cfg, rng), cfg.gravity)
            psi = gps_yaw_measure(state.attitude, cfg, rng)
            assert pr.pitch == pytest.approx(state.attitude.pitch, abs=1e-10)
            assert pr.roll == pytest.approx(state.attitude.roll, abs=1e-10)
            assert psi == pytest.approx(state.attitude.yaw, abs=1e-10)

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


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestFloatTupleVectors:
    """The loop's 3-vectors are float tuples with the bits of the array forms
    they replace, and the functions that read one also take an array."""

    def test_flight_profile_rates(self):
        prof = default_profile()
        for t in np.linspace(0.0, 20.0, 57).tolist():
            state = reference_flight_profile(t, prof)
            for vec in (state.euler_rates, state.body_rates):
                assert type(vec) is tuple and all(type(v) is float for v in vec)
            roll_rate, pitch_rate, yaw_rate = state.euler_rates
            roll, pitch = state.attitude.roll, state.attitude.pitch
            matrix_form = (
                np.array([roll_rate, 0.0, 0.0])
                + frames.rot_x(roll) @ np.array([0.0, pitch_rate, 0.0])
                + frames.rot_x(roll) @ frames.rot_y(pitch) @ np.array([0.0, 0.0, yaw_rate])
            )
            assert bits(state.body_rates) == bits(matrix_form)

    def test_sensor_draws_match_their_array_forms(self):
        cfg = SensorNoiseConfig()
        rng = np.random.default_rng(61)
        for seed in range(50):
            truth = rng.uniform(-1, 1, 3)
            att = Attitude(*rng.uniform(-1.4, 1.4, 3))
            draws, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            omega = gyro_measure(tuple(truth.tolist()), cfg, draws)
            f = accel_measure(att, cfg, draws)
            assert type(omega) is tuple and type(f) is tuple
            assert bits(omega) == bits(
                truth + cfg.gyro_bias + cfg.gyro_white_sigma * ref.standard_normal(3)
            )
            sp, cp = math.sin(att.pitch), math.cos(att.pitch)
            sr, cr = math.sin(att.roll), math.cos(att.roll)
            assert bits(f) == bits(
                -cfg.gravity * np.array([-sp, sr * cp, cr * cp])
                + cfg.accel_white_sigma * ref.standard_normal(3)
            )

    def test_readers_take_arrays(self):
        cfg = SensorNoiseConfig()
        rates = (0.31, -0.22, 0.13)
        array = np.array(rates)
        state = fusion.make_filter_state(np.array([0.9, 0.1, -0.2, 0.3]), fusion.FusionConfig())
        angles = mechanical.GimbalAngles(0.4, 0.7, -0.2)
        for reader in (
            lambda v: fusion.predict(state, v, 0.01).q,
            lambda v: mechanical.isolation_rates(angles, v),
            lambda v: accel_to_pitch_roll(v, cfg.gravity)[:2],
            lambda v: gyro_measure(v, cfg, np.random.default_rng(3)),
            lambda v: euler_rates_to_body_rates(Attitude(0.1, 0.2, 0.3), v),
        ):
            assert bits(reader(array)) == bits(reader(rates))


def sensed_bits(s: harness.Sensed) -> bytes:
    """Every float of a tick's open-loop half, and the saturated flag, as bytes."""
    values = [s.t, *s.truth, *(s.omega_m or ()), *s.pitch_roll, s.psi_m, *s.z, *s.ideal]
    return np.array(values, dtype=float).tobytes() + s.c_n_b_truth.tobytes()


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
        t_s = cfg.sensors.sample_period
        ref_rng = np.random.default_rng(17)
        want = [reference_sensed(cfg, euler, 0.0, ref_rng, gyro=False)]
        want += [reference_sensed(cfg, euler, k * t_s, ref_rng) for k in range(1, n + 1)]
        # one block, and the chunks of the loop
        block_rng, chunk_rng = np.random.default_rng(17), np.random.default_rng(17)
        start = harness.sense(cfg, euler, np.zeros(1), block_rng, gyro=False)
        block = harness.sense(cfg, euler, np.arange(1, n + 1) * t_s, block_rng)
        chunked = [tick.sensed for tick in harness.ticks(cfg, euler, chunk_rng, n)]
        assert len(block) == len(chunked) - 1 == n
        for got in (start + block, chunked):
            assert [sensed_bits(s) for s in got] == [sensed_bits(s) for s in want]
            assert all(
                type(s.omega_m) is tuple and all(type(v) is float for v in s.omega_m)
                for s in got[1:]
            )
        if name == "saturating" and n > 1:
            assert any(s.pitch_roll.saturated for s in block)
            assert any(abs(s.pitch_roll.pitch) > fusion._PITCH_LIMIT for s in block)

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
