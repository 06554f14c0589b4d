import math

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, sensors
from beamtrack.config import ScenarioConfig
from beamtrack.frames import Attitude
from beamtrack.fusion import (
    FilterState, FusionConfig, make_filter_state, measurement_quat, predict, transition_matrix,
    update,
)
from beamtrack.sensors import ProfileConfig, SensorNoiseConfig, Sinusoid

D2R = math.pi / 180.0
MOVING = ProfileConfig(yaw=[Sinusoid(10 * D2R, 0.1)], pitch=[Sinusoid(5 * D2R, 0.2)],
                       roll=[Sinusoid(8 * D2R, 0.15)])
QUIET = SensorNoiseConfig(gyro_white_sigma=0, gyro_bias=0, accel_white_sigma=0, gps_yaw_sigma=0)


def quat_exact_step(q, body_rates, sample_period):
    """Reference exact constant-rate propagation: the closed-form exponential
    of the generator the first-order transition matrix truncates,
    exp((T_s/2) Omega) = cos(half) I + sin(half)/|omega| * Omega."""
    w = np.asarray(body_rates, dtype=float)
    speed = np.linalg.norm(w)
    q = np.asarray(q, dtype=float)
    if speed * sample_period < 1e-15:
        return q.copy()
    half = speed * sample_period / 2.0
    omega = transition_matrix(w, 2.0) - np.eye(4)  # bare Omega(w)
    out = (math.cos(half) * np.eye(4) + (math.sin(half) / speed) * omega) @ q
    return out / np.linalg.norm(out)


class TestTransitionMatrix:
    def test_zero_rates_identity(self):
        np.testing.assert_array_equal(transition_matrix(np.zeros(3), 0.01), np.eye(4))

    def test_antisymmetric_generator(self):
        g = transition_matrix(np.array([0.3, -0.4, 0.9]), 0.01) - np.eye(4)
        np.testing.assert_allclose(g, -g.T, atol=1e-15)

    def test_first_order_against_exact_exponential(self):
        q = frames.euler_to_quat(Attitude(0.2, -0.1, 0.4))
        w = np.array([0.1, 0.0, 0.0])
        t_s = 0.01
        approx = transition_matrix(w, t_s) @ q
        approx /= np.linalg.norm(approx)
        exact = quat_exact_step(q, w, t_s)
        assert np.abs(approx - exact).max() < 1e-6

    def test_norm_preserved_to_second_order(self):
        q = np.array([1.0, 0.0, 0.0, 0.0])
        w = np.array([0.1, 0.0, 0.0])
        out = transition_matrix(w, 0.01) @ q
        assert abs(np.linalg.norm(out) - 1.0) < (0.01 * 0.1) ** 2


class TestPredict:
    def test_zero_rates_zero_process_noise(self):
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig(process_noise=0.0))
        prior = predict(state, np.zeros(3), 0.01)
        np.testing.assert_array_equal(prior.q, state.q)
        np.testing.assert_array_equal(prior.kappa, state.kappa)

    def test_covariance_identity(self):
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        w = np.array([0.2, -0.1, 0.3])
        prior = predict(state, w, 0.01)
        gamma = transition_matrix(w, 0.01)
        np.testing.assert_allclose(
            prior.kappa - gamma @ state.kappa @ gamma.T, state.q_chi, atol=1e-15
        )

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(13)
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        for _ in range(10_000):
            state = predict(state, rng.uniform(-0.5, 0.5, 3), 0.01)
            z = measurement_quat(
                rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(-1, 1), state.q
            )
            state = update(state, z)
            np.testing.assert_allclose(state.kappa, state.kappa.T, atol=1e-12)
            assert np.linalg.eigvalsh(state.kappa).min() >= -1e-10


class TestMeasurementQuat:
    def test_zero_angles(self):
        np.testing.assert_allclose(measurement_quat(0, 0, 0), [1, 0, 0, 0], atol=1e-15)

    def test_matches_euler_to_quat(self):
        np.testing.assert_allclose(
            measurement_quat(math.pi / 2, 0, 0),
            frames.euler_to_quat(Attitude(math.pi / 2, 0, 0)),
            atol=1e-15,
        )

    def test_hemisphere_alignment(self):
        q_ref = -frames.euler_to_quat(Attitude(0.4, 0.1, -0.2))
        z = measurement_quat(0.4, 0.1, -0.2, q_ref)
        assert float(np.dot(z, q_ref)) >= 0.0

    def test_saturated_pitch_keeps_euler_angles(self):
        # a saturated accelerometer reads pitch +/-90 deg, where dcm_to_euler
        # raises; the measurement stays just short of it
        for pitch in (math.pi / 2, -math.pi / 2):
            z = measurement_quat(0.3, pitch, 0.1)
            att = frames.dcm_to_euler(frames.quat_to_dcm(z))
            assert att.pitch == pytest.approx(pitch, abs=1e-4)


class TestUpdate:
    def test_zero_innovation(self):
        state = make_filter_state(frames.euler_to_quat(Attitude(0.3, 0.1, -0.5)), FusionConfig())
        post = update(state, state.q.copy())
        np.testing.assert_allclose(post.q, state.q, atol=1e-15)
        gain = state.kappa @ np.linalg.inv(state.kappa + state.q_u)
        np.testing.assert_allclose(
            post.kappa, 0.5 * ((np.eye(4) - gain) @ state.kappa
                               + ((np.eye(4) - gain) @ state.kappa).T), atol=1e-15
        )

    def test_measurement_rejection_limit(self):
        q = frames.euler_to_quat(Attitude(0.2, 0.0, 0.0))
        state = FilterState(q=q, kappa=1e-2 * np.eye(4), q_chi=np.zeros((4, 4)), q_u=1e12 * np.eye(4))
        z = frames.euler_to_quat(Attitude(-0.9, 0.3, 0.3))
        post = update(state, z)
        assert np.abs(post.q - q).max() < 1e-6

    def test_measurement_trust_limit(self):
        q = frames.euler_to_quat(Attitude(0.2, 0.0, 0.0))
        state = FilterState(q=q, kappa=1e6 * np.eye(4), q_chi=np.zeros((4, 4)), q_u=1e-6 * np.eye(4))
        z = frames.euler_to_quat(Attitude(-0.9, 0.3, 0.3))
        post = update(state, z)
        assert np.abs(post.q - z / np.linalg.norm(z)).max() < 1e-6

    def test_unit_norm_after_update(self):
        rng = np.random.default_rng(3)
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        for _ in range(200):
            state = predict(state, rng.uniform(-0.3, 0.3, 3), 0.01)
            z = measurement_quat(*rng.uniform(-0.5, 0.5, 3), q_ref=state.q)
            state = update(state, z)
            assert abs(np.linalg.norm(state.q) - 1.0) <= 1e-9


def fusion_ticks(profile, noise_cfg, seed, duration, **covariances):
    """The sense-and-fuse ticks of a filter started on the noiseless truth."""
    cfg = ScenarioConfig(profile=profile, sensors=noise_cfg, fusion=FusionConfig(**covariances))
    rng = np.random.default_rng(seed)
    first = sensors.flight_profile(0.0, profile).attitude
    state = make_filter_state(measurement_quat(*first), cfg.fusion)
    for k in range(1, int(round(duration / noise_cfg.sample_period)) + 1):
        tick = harness.sense_and_fuse(cfg, state, k * noise_cfg.sample_period, rng)
        state = tick.filter_state
        yield tick


def run_fusion(profile, noise_cfg, seed, duration, **covariances):
    """Per-step attitude errors (rad, 3 columns) of the fused estimate."""
    ticks = fusion_ticks(profile, noise_cfg, seed, duration, **covariances)
    return np.array([harness.attitude_error(t.est, t.truth.attitude) for t in ticks])


class TestFuseStep:
    def test_stationary_noiseless_fixed_point(self):
        errs = run_fusion(ProfileConfig(), QUIET, seed=0, duration=1.0)
        assert np.abs(errs).max() < 1e-8

    def test_noiseless_tracks_moving_truth(self):
        # all noise zeroed, including the filter's measurement-noise model
        errs = run_fusion(MOVING, QUIET, seed=0, duration=5.0, measurement_noise=1e-12)
        after_transient = errs[int(1.0 / QUIET.sample_period):]
        assert np.abs(after_transient).max() < 1e-6

    def test_noiseless_default_covariances_small_lag(self):
        # with the default noise model the filter keeps a small prediction
        # weight, leaving a first-order propagation lag well under 0.01 deg
        errs = run_fusion(MOVING, QUIET, seed=0, duration=5.0)
        after_transient = errs[int(1.0 / QUIET.sample_period):]
        assert np.abs(after_transient).max() < 0.01 * D2R

    def test_error_band_under_default_noise(self):
        errs = run_fusion(MOVING, SensorNoiseConfig(), seed=42, duration=60.0)
        frac = (np.abs(errs).max(axis=1) <= 0.5 * D2R).mean()
        assert frac >= 0.95

    def test_fusion_beats_degenerate_pipelines(self):
        # the fused filter, gyro dead reckoning and the raw measurements on
        # one sensor stream
        cfg = SensorNoiseConfig()
        est = sensors.flight_profile(0.0, MOVING).attitude
        errs = []
        for tick in fusion_ticks(MOVING, cfg, 7, 60.0):
            est = sensors.gyro_integrate(est, tick.omega_m, cfg.sample_period)
            arms = (tick.est, est, (tick.psi_m, tick.pitch_roll.pitch, tick.pitch_roll.roll))
            errs.append([harness.attitude_error(a, tick.truth.attitude) for a in arms])
        fused_rmse, gyro_rmse, meas_rmse = np.sqrt((np.array(errs) ** 2).mean(axis=(0, 2)))
        assert fused_rmse < gyro_rmse
        assert fused_rmse < meas_rmse

    def test_deterministic_given_inputs(self):
        prof = ProfileConfig(yaw=[Sinusoid(5 * D2R, 0.1)])
        a = run_fusion(prof, SensorNoiseConfig(), seed=3, duration=2.0)
        b = run_fusion(prof, SensorNoiseConfig(), seed=3, duration=2.0)
        np.testing.assert_array_equal(a, b)

    def test_singular_innovation_raises(self):
        zero = np.zeros((4, 4))
        state = FilterState(q=np.array([1.0, 0, 0, 0]), kappa=zero, q_chi=zero, q_u=zero)
        with pytest.raises(fusion.NumericalError):
            update(state, np.array([1.0, 0, 0, 0]))
