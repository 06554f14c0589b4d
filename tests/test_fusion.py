import math
from typing import NamedTuple

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical, sensors
from beamtrack.config import ScenarioConfig, default_scenario
from beamtrack.frames import Attitude
from beamtrack.fusion import (
    FilterState, FusionConfig, align, make_filter_state, measurement_quat, predict, update,
)
from beamtrack.sensors import ProfileConfig, SensorNoiseConfig, Sinusoid

D2R = math.pi / 180.0
MOVING = ProfileConfig(yaw=[Sinusoid(10 * D2R, 0.1)], pitch=[Sinusoid(5 * D2R, 0.2)],
                       roll=[Sinusoid(8 * D2R, 0.15)])
QUIET = SensorNoiseConfig(gyro_white_sigma=0, gyro_bias=0, accel_white_sigma=0, gps_yaw_sigma=0)


def transition_matrix(body_rates, sample_period):
    """Reference first-order quaternion propagation: I + (T_s/2) * Omega(omega)."""
    wx, wy, wz = np.asarray(body_rates, dtype=float).tolist()
    omega = np.array(
        [
            [0.0, -wx, -wy, -wz],
            [wx, 0.0, wz, -wy],
            [wy, -wz, 0.0, wx],
            [wz, wy, -wx, 0.0],
        ]
    )
    return np.eye(4) + (sample_period / 2.0) * omega


class MatrixFilter(NamedTuple):
    """Reference: the filter with full 4x4 covariances, which the scalar
    filter must match while they stay scaled identities."""

    q: np.ndarray
    kappa: np.ndarray
    q_chi: np.ndarray
    q_u: np.ndarray


def matrix_state(state: FilterState) -> MatrixFilter:
    eye = np.eye(4)
    return MatrixFilter(state.q, state.kappa * eye, state.q_chi * eye, state.q_u * eye)


def matrix_predict(state: MatrixFilter, body_rates, sample_period) -> MatrixFilter:
    gamma = transition_matrix(body_rates, sample_period)
    kappa = gamma @ state.kappa @ gamma.T + state.q_chi
    return state._replace(q=gamma @ state.q, kappa=kappa)


def matrix_update(state: MatrixFilter, z) -> MatrixFilter:
    gain = state.kappa @ np.linalg.inv(state.kappa + state.q_u)
    q = state.q + gain @ (np.asarray(z, dtype=float) - state.q)
    kappa = (np.eye(4) - gain) @ state.kappa
    return state._replace(q=q / np.linalg.norm(q), kappa=0.5 * (kappa + kappa.T))


def assert_scalar_covariance(k, kappa):
    """The scalar ``k`` equals the reference's diagonal to a relative 1e-15,
    and the reference's off-diagonal stays below 1e-15 of its diagonal."""
    diag = np.diag(kappa)
    assert np.abs(diag - k).max() <= 1e-15 * k
    assert np.abs(kappa - np.diag(diag)).max() <= 1e-15 * diag.min()


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


def prior_q(q, body_rates, sample_period):
    """The program's first-order propagation of ``q``, without noise."""
    state = FilterState(np.asarray(q, dtype=float), 1.0, 0.0, 1.0)
    return predict(state, body_rates, sample_period).q


class TestTransitionMatrix:
    def test_zero_rates_identity(self):
        np.testing.assert_array_equal(transition_matrix(np.zeros(3), 0.01), np.eye(4))
        np.testing.assert_array_equal(prior_q([0.5, 0.5, -0.5, 0.5], np.zeros(3), 0.01),
                                      [0.5, 0.5, -0.5, 0.5])

    def test_antisymmetric_generator(self):
        g = transition_matrix(np.array([0.3, -0.4, 0.9]), 0.01) - np.eye(4)
        np.testing.assert_allclose(g, -g.T, atol=1e-15)

    def test_predict_applies_the_transition_matrix(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            q = frames.euler_to_quat(Attitude(*rng.uniform(-1.5, 1.5, 3)))
            w = rng.uniform(-3, 3, 3)
            np.testing.assert_allclose(
                prior_q(q, w, 0.01), transition_matrix(w, 0.01) @ q, rtol=0, atol=1e-15
            )

    def test_first_order_against_exact_exponential(self):
        q = frames.euler_to_quat(Attitude(0.2, -0.1, 0.4))
        w = np.array([0.1, 0.0, 0.0])
        t_s = 0.01
        approx = prior_q(q, w, t_s)
        approx /= np.linalg.norm(approx)
        exact = quat_exact_step(q, w, t_s)
        assert np.abs(approx - exact).max() < 1e-6

    def test_norm_preserved_to_second_order(self):
        out = prior_q([1.0, 0.0, 0.0, 0.0], np.array([0.1, 0.0, 0.0]), 0.01)
        assert abs(np.linalg.norm(out) - 1.0) < (0.01 * 0.1) ** 2


class TestPredict:
    def test_zero_rates_zero_process_noise(self):
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig(process_noise=0.0))
        prior = predict(state, np.zeros(3), 0.01)
        np.testing.assert_array_equal(prior.q, state.q)
        assert prior.kappa == state.kappa

    def test_covariance_identity(self):
        # Gamma (k I) Gamma^T + q_chi I of the 4x4 filter, as a scalar
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        w = np.array([0.2, -0.1, 0.3])
        prior = predict(state, w, 0.01)
        assert_scalar_covariance(prior.kappa, matrix_predict(matrix_state(state), w, 0.01).kappa)

    def test_covariance_stays_symmetric_psd(self):
        # the scalar filter against the 4x4 reference over a random walk: the
        # reference covariance stays k I (so symmetric, positive) and the
        # estimates agree
        rng = np.random.default_rng(13)
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        ref = matrix_state(state)
        for _ in range(10_000):
            w = rng.uniform(-0.5, 0.5, 3)
            state, ref = predict(state, w, 0.01), matrix_predict(ref, w, 0.01)
            angles = rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(-1, 1)
            state = update(state, align(measurement_quat(*angles), state.q))
            ref = matrix_update(ref, align(measurement_quat(*angles), ref.q))
            assert state.kappa > 0
            assert_scalar_covariance(state.kappa, ref.kappa)
            np.testing.assert_allclose(state.q, ref.q, rtol=0, atol=1e-12)

    def test_covariance_matches_matrix_filter_on_reference_ticks(self):
        # the same comparison over 60 s of the reference scenario's sensor stream
        cfg = default_scenario()
        rng = np.random.default_rng(1)
        euler = mechanical.pointing_euler(cfg.geo)
        loop = harness.ticks(cfg, euler, rng, 6000)
        ref = matrix_state(next(loop).filter_state)
        t_s = cfg.sensors.sample_period
        for tick in loop:
            sensed = tick.sensed
            ref = matrix_predict(ref, sensed.omega_m, t_s)
            pr = sensed.pitch_roll
            z = measurement_quat(sensed.psi_m, pr.pitch, pr.roll)
            ref = matrix_update(ref, align(z, ref.q))
            assert_scalar_covariance(tick.filter_state.kappa, ref.kappa)
            np.testing.assert_allclose(tick.filter_state.q, ref.q, rtol=0, atol=1e-12)


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
        z = align(measurement_quat(0.4, 0.1, -0.2), q_ref)
        assert float(np.dot(z, q_ref)) >= 0.0

    def test_saturated_pitch_keeps_euler_angles(self):
        # a saturated accelerometer reads pitch +/-90 deg, where yaw and roll
        # merge; the measurement stays just short of it
        for pitch in (math.pi / 2, -math.pi / 2):
            z = measurement_quat(0.3, pitch, 0.1)
            att = Attitude(*frames.zyx_angles(frames.quat_to_dcm(z).T))
            assert att.pitch == pytest.approx(pitch, abs=1e-4)


class TestUpdate:
    def test_zero_innovation(self):
        state = make_filter_state(frames.euler_to_quat(Attitude(0.3, 0.1, -0.5)), FusionConfig())
        post = update(state, state.q.copy())
        np.testing.assert_allclose(post.q, state.q, atol=1e-15)
        assert_scalar_covariance(post.kappa, matrix_update(matrix_state(state), state.q).kappa)

    def test_measurement_rejection_limit(self):
        q = frames.euler_to_quat(Attitude(0.2, 0.0, 0.0))
        state = FilterState(q=q, kappa=1e-2, q_chi=0.0, q_u=1e12)
        z = frames.euler_to_quat(Attitude(-0.9, 0.3, 0.3))
        post = update(state, z)
        assert np.abs(post.q - q).max() < 1e-6

    def test_measurement_trust_limit(self):
        q = frames.euler_to_quat(Attitude(0.2, 0.0, 0.0))
        state = FilterState(q=q, kappa=1e6, q_chi=0.0, q_u=1e-6)
        z = frames.euler_to_quat(Attitude(-0.9, 0.3, 0.3))
        post = update(state, z)
        assert np.abs(post.q - z / np.linalg.norm(z)).max() < 1e-6

    def test_unit_norm_after_update(self):
        rng = np.random.default_rng(3)
        state = make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig())
        for _ in range(200):
            state = predict(state, rng.uniform(-0.3, 0.3, 3), 0.01)
            z = align(measurement_quat(*rng.uniform(-0.5, 0.5, 3)), state.q)
            state = update(state, z)
            assert abs(np.linalg.norm(state.q) - 1.0) <= 1e-9

    def test_keeps_the_bits_of_the_array_form(self):
        # q + g (z - q) is written out in floats: the same IEEE operations
        rng = np.random.default_rng(71)
        for _ in range(2000):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            z = rng.standard_normal(4)
            state = FilterState(q, rng.uniform(1e-6, 1e-1), 1e-6, 10.0 ** rng.uniform(-6, -2))
            q_new = q + state.kappa / (state.kappa + state.q_u) * (z - q)
            want = q_new / math.sqrt(q_new.dot(q_new))
            assert update(state, z).q.tobytes() == want.tobytes()


def fusion_ticks(profile, noise_cfg, seed, duration, **covariances):
    """(sensed tick, fused estimate) pairs of a filter started on the
    noiseless truth."""
    cfg = ScenarioConfig(profile=profile, sensors=noise_cfg, fusion=FusionConfig(**covariances))
    rng = np.random.default_rng(seed)
    first = sensors.flight_profile(0.0, profile).attitude
    state = make_filter_state(measurement_quat(*first), cfg.fusion)
    steps = int(round(duration / noise_cfg.sample_period))
    times = np.arange(1, steps + 1) * noise_cfg.sample_period
    block = harness.sense(cfg, mechanical.pointing_euler(cfg.geo), times, rng)
    fused = harness.fuse_block(cfg, state, block)
    return [(sensed, est) for sensed, (_, _, est) in zip(block, fused)]


def run_fusion(profile, noise_cfg, seed, duration, **covariances):
    """Per-step attitude errors (rad, 3 columns) of the fused estimate."""
    ticks = fusion_ticks(profile, noise_cfg, seed, duration, **covariances)
    return np.array([harness.attitude_error(est, sensed.truth) for sensed, est in ticks])


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
        for sensed, fused in fusion_ticks(MOVING, cfg, 7, 60.0):
            est = sensors.gyro_integrate(est, sensed.omega_m, cfg.sample_period)
            arms = (fused, est, (sensed.psi_m, sensed.pitch_roll.pitch, sensed.pitch_roll.roll))
            errs.append([harness.attitude_error(a, sensed.truth) for a in arms])
        fused_rmse, gyro_rmse, meas_rmse = np.sqrt((np.array(errs) ** 2).mean(axis=(0, 2)))
        assert fused_rmse < gyro_rmse
        assert fused_rmse < meas_rmse

    def test_deterministic_given_inputs(self):
        prof = ProfileConfig(yaw=[Sinusoid(5 * D2R, 0.1)])
        a = run_fusion(prof, SensorNoiseConfig(), seed=3, duration=2.0)
        b = run_fusion(prof, SensorNoiseConfig(), seed=3, duration=2.0)
        np.testing.assert_array_equal(a, b)

    def test_singular_innovation_raises(self):
        # a zero innovation variance k- + q_u has no Kalman gain
        state = FilterState(q=np.array([1.0, 0, 0, 0]), kappa=0.0, q_chi=0.0, q_u=0.0)
        with pytest.raises(fusion.NumericalError):
            update(state, np.array([1.0, 0, 0, 0]))
