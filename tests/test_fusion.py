import math
from typing import NamedTuple

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical, sensors
from beamtrack.config import ScenarioConfig, default_scenario
from beamtrack.frames import Attitude
from beamtrack.fusion import (
    FilterState, FusionConfig, NumericalError, fuse, make_filter_state, measurement_quat,
)
from beamtrack.sensors import ProfileConfig, SensorNoiseConfig, Sinusoid

D2R = math.pi / 180.0
MOVING = ProfileConfig(yaw=[Sinusoid(10 * D2R, 0.1)], pitch=[Sinusoid(5 * D2R, 0.2)],
                       roll=[Sinusoid(8 * D2R, 0.15)])
QUIET = SensorNoiseConfig(gyro_white_sigma=0, gyro_bias=0, accel_white_sigma=0, gps_yaw_sigma=0)


def predict(state: FilterState, body_rates, sample_period: float) -> FilterState:
    """Reference: one tick's prior, q- = (I + (T_s/2) Omega(omega)) q written
    out in floats, as an array; ``body_rates`` is a 3-sequence."""
    h = sample_period / 2.0
    wx, wy, wz = body_rates
    x, y, z = h * wx, h * wy, h * wz
    q0, q1, q2, q3 = np.asarray(state.q, dtype=float).tolist()
    q_pred = np.array([
        q0 - x * q1 - y * q2 - z * q3,
        x * q0 + q1 + z * q2 - y * q3,
        y * q0 - z * q1 + q2 + x * q3,
        z * q0 + y * q1 - x * q2 + q3,
    ])
    kappa = state.kappa * (1.0 + (x * x + y * y + z * z)) + state.q_chi
    return FilterState(q_pred, kappa, state.q_chi, state.q_u)


def align(z: np.ndarray, q_ref: np.ndarray) -> np.ndarray:
    """Reference: ``z`` or ``-z``, whichever lies in the hemisphere of
    ``q_ref``, by the sign of their ``ddot``."""
    return -z if z.dot(q_ref) < 0.0 else z


def update(state: FilterState, z: np.ndarray) -> FilterState:
    """Reference: the Kalman update with identity observation, q + g (z - q)
    written out in floats, renormalized by the ``ddot`` of the result."""
    innovation = state.kappa + state.q_u
    if innovation == 0.0:
        raise NumericalError("zero innovation variance")
    gain = state.kappa / innovation
    q0, q1, q2, q3 = np.asarray(state.q, dtype=float).tolist()
    z0, z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    q_new = np.array([
        q0 + gain * (z0 - q0), q1 + gain * (z1 - q1), q2 + gain * (z2 - q2), q3 + gain * (z3 - q3)
    ])
    norm = math.sqrt(q_new.dot(q_new))
    if norm == 0.0:
        raise NumericalError("update produced a zero quaternion")
    return FilterState(q_new / norm, (1.0 - gain) * state.kappa, state.q_chi, state.q_u)


def reference_fuse(state: FilterState, omegas, zs, sample_period) -> list[FilterState]:
    """Reference: ``fusion.fuse`` a tick at a time, through predict, align
    and update, each measurement a row of the array ``zs``."""
    states = []
    for omega, z in zip(omegas, np.asarray(zs, dtype=float)):
        prior = predict(state, omega, sample_period)
        state = update(prior, align(z, prior.q))
        states.append(state)
    return states


def state_bits(states) -> list[bytes]:
    """Every float of each filter state, as bytes."""
    return [np.array([*s.q, *s[1:]], dtype=float).tobytes() for s in states]


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
    q = np.asarray(state.q, dtype=float)
    return MatrixFilter(q, state.kappa * eye, state.q_chi * eye, state.q_u * eye)


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
        start, *run = harness.blocks(cfg, euler, rng, 6000)
        ref = matrix_state(start.filter_state[0])
        t_s = cfg.sensors.sample_period
        for block in run:
            pr = block.pitch_roll
            for omega, psi, pitch, roll, state in zip(
                block.omega_m, block.psi_m.tolist(), pr.pitch.tolist(), pr.roll.tolist(),
                block.filter_state,
            ):
                ref = matrix_predict(ref, omega, t_s)
                ref = matrix_update(ref, align(measurement_quat(psi, pitch, roll), ref.q))
                assert_scalar_covariance(state.kappa, ref.kappa)
                np.testing.assert_allclose(state.q, ref.q, rtol=0, atol=1e-12)


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
        # the filter starts on -q and measures q: the estimate stays on -q
        q_ref = -frames.euler_to_quat(Attitude(0.4, 0.1, -0.2))
        z = measurement_quat(0.4, 0.1, -0.2)
        [post] = fuse(FilterState(tuple(q_ref), 1.0, 0.0, 1e-4), [(0.0, 0.0, 0.0)], [z], 0.01)
        np.testing.assert_allclose(post.q, q_ref, rtol=0, atol=1e-15)

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
        post = update(state, np.array(state.q))
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
    """(truth, gyro rates, measured yaw/pitch/roll, fused estimate) of each
    tick of a filter started on the noiseless truth."""
    cfg = ScenarioConfig(profile=profile, sensors=noise_cfg, fusion=FusionConfig(**covariances))
    rng = np.random.default_rng(seed)
    first = sensors.flight_profile(0.0, profile).attitude
    state = make_filter_state(measurement_quat(*first), cfg.fusion)
    steps = int(round(duration / noise_cfg.sample_period))
    times = np.arange(1, steps + 1) * noise_cfg.sample_period
    block = harness.sense(cfg, mechanical.pointing_euler(cfg.geo), times, rng)
    states = fuse(state, block.omega_m, block.z, noise_cfg.sample_period)
    _, est = fusion.estimate(np.array([s.q for s in states]))
    pr = block.pitch_roll
    measured = zip(block.psi_m.tolist(), pr.pitch.tolist(), pr.roll.tolist())
    return list(zip(block.truth.tolist(), block.omega_m, measured, est))


def run_fusion(profile, noise_cfg, seed, duration, **covariances):
    """Per-step attitude errors (rad, 3 columns) of the fused estimate."""
    ticks = fusion_ticks(profile, noise_cfg, seed, duration, **covariances)
    return np.array([harness.attitude_error(est, truth) for truth, _, _, est in ticks])


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
        for truth, omega, measured, fused in fusion_ticks(MOVING, cfg, 7, 60.0):
            est = sensors.gyro_integrate(est, omega, cfg.sample_period)
            errs.append([harness.attitude_error(a, truth) for a in (fused, est, measured)])
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
        state = FilterState(q=(1.0, 0.0, 0.0, 0.0), kappa=0.0, q_chi=0.0, q_u=0.0)
        with pytest.raises(NumericalError, match="zero innovation variance"):
            fuse(state, [(0.0, 0.0, 0.0)], [(1.0, 0.0, 0.0, 0.0)], 0.01)


def orthogonal_to(q, rng) -> np.ndarray:
    """A random unit quaternion orthogonal to ``q`` up to rounding."""
    u = rng.standard_normal(4)
    u -= u.dot(q) * q
    return u / np.linalg.norm(u)


def plain_dot(a, b) -> float:
    """The left-to-right float dot, which ``fuse`` takes before its ``ddot``."""
    return sum(x * y for x, y in zip(a, b))


class TestFuse:
    """``fusion.fuse`` against ``reference_fuse``, bit for bit."""

    T_S = 0.01

    def test_equals_the_reference_on_a_sensed_block(self):
        # the yaw swings through 180 deg, where the measurement quaternions
        # change hemisphere
        profile = ProfileConfig(yaw=[Sinusoid(200 * D2R, 0.1)], pitch=MOVING.pitch,
                                roll=MOVING.roll)
        cfg = ScenarioConfig(profile=profile, sensors=SensorNoiseConfig(gyro_white_sigma=0.05))
        times = np.arange(1, 2049) * self.T_S
        block = harness.sense(cfg, mechanical.pointing_euler(cfg.geo), times,
                              np.random.default_rng(5))
        state = make_filter_state(block.z[0], cfg.fusion)
        got = fuse(state, block.omega_m, block.z, self.T_S)
        want = reference_fuse(state, block.omega_m, block.z, self.T_S)
        assert state_bits(got) == state_bits(want)
        priors = [predict(s, w, self.T_S).q for s, w in zip([state, *want], block.omega_m)]
        flips = sum(z.dot(q) < 0.0 for z, q in zip(block.z, priors))
        assert 0 < flips < len(priors)

    def test_sign_of_nearly_orthogonal_measurements(self):
        # at rest the prior is the estimate, so each measurement, orthogonal
        # to the estimate, has a dot within rounding of zero: the float dot
        # and ddot then disagree in sign on some ticks, where ddot decides
        rng = np.random.default_rng(23)
        start = FilterState((0.5, -0.5, 0.5, 0.5), 1e-2, 1e-6, 1e-4)
        state, zs = start, []
        for _ in range(64):
            q = np.asarray(state.q, dtype=float)
            zs.append(orthogonal_to(q, rng))
            [state] = reference_fuse(state, [(0.0, 0.0, 0.0)], [zs[-1]], self.T_S)
        still = [(0.0, 0.0, 0.0)] * len(zs)
        want = reference_fuse(start, still, zs, self.T_S)
        priors = [np.asarray(s.q) for s in [start, *want[:-1]]]
        dots = [(plain_dot(z, q) < 0.0, z.dot(q) < 0.0) for z, q in zip(zs, priors)]
        assert all(abs(z.dot(q)) <= 1e-15 for z, q in zip(zs, priors))
        assert sum(a != b for a, b in dots) >= 3
        assert state_bits(fuse(start, still, zs, self.T_S)) == state_bits(want)

    def test_exact_zero_dot_keeps_the_measurement(self):
        # the estimate stays on (1, 0, 0, 0) while it measures it, then meets a
        # measurement at a dot of exactly 0.0, whose sign it keeps
        start = FilterState((1.0, 0.0, 0.0, 0.0), 1e-2, 1e-6, 1e-4)
        zs = [(1.0, 0.0, 0.0, 0.0)] * 3 + [(0.0, -0.6, 0.8, 0.0)] + [(1.0, 0.0, 0.0, 0.0)] * 3
        still = [(0.0, 0.0, 0.0)] * len(zs)
        got, want = fuse(start, still, zs, self.T_S), reference_fuse(start, still, zs, self.T_S)
        assert state_bits(got) == state_bits(want)
        assert got[2].q == (1.0, 0.0, 0.0, 0.0)
        assert got[3].q[1] < 0.0 < got[3].q[2]

    @pytest.mark.parametrize("q_chi, zero_row, message", [
        # no noise at all: the first update takes the whole measurement and
        # leaves k = 0, so the second tick's innovation variance is zero
        (0.0, None, "zero innovation variance"),
        # process noise alone: each update takes the whole measurement, and
        # the zero row of the fifth tick has no norm
        (1e-6, 4, "update produced a zero quaternion"),
    ])
    def test_numerical_error_in_mid_block(self, q_chi, zero_row, message):
        rng = np.random.default_rng(8)
        start = FilterState((1.0, 0.0, 0.0, 0.0), 1e-2, q_chi, 0.0)
        omegas = rng.uniform(-0.5, 0.5, (8, 3)).tolist()
        zs = [measurement_quat(*rng.uniform(-0.5, 0.5, 3)) for _ in omegas]
        if zero_row is not None:
            zs[zero_row] = np.zeros(4)
        bad = 1 if zero_row is None else zero_row
        # the reference raises on the same tick, and the ticks before it agree
        with pytest.raises(NumericalError, match=message):
            reference_fuse(start, omegas[:bad + 1], zs[:bad + 1], self.T_S)
        want = reference_fuse(start, omegas[:bad], zs[:bad], self.T_S)
        assert state_bits(fuse(start, omegas[:bad], zs[:bad], self.T_S)) == state_bits(want)
        with pytest.raises(NumericalError, match=message):
            fuse(start, omegas, zs, self.T_S)
