import math
from typing import NamedTuple

import numpy as np
import pytest

from beamtrack import frames, fusion, harness, mechanical, sensors
from beamtrack.config import D2R, ScenarioConfig, default_scenario
from beamtrack.frames import Attitude
from beamtrack.fusion import (
    FilterState, FusionConfig, NumericalError, fuse, make_filter_state, measurement_quat,
)
from beamtrack.sensors import ProfileConfig, SensorNoiseConfig, Sinusoid
from refs import align, bits, predict, quiet_noise, reference_fuse

MOVING = ProfileConfig(yaw=[Sinusoid(10 * D2R, 0.1)], pitch=[Sinusoid(5 * D2R, 0.2)],
                       roll=[Sinusoid(8 * D2R, 0.15)])


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


class TestMatrixFilter:
    """``fusion.fuse`` against the 4x4 matrix filter, tick by tick, with the
    physical limits of the recursion as its inputs."""

    T_S = 0.01

    def walk(self, start, omegas, zs):
        """``fuse``'s quaternions from ``start``, checked on every tick: the
        reference covariance stays k I (so symmetric, positive) and the
        estimates agree."""
        q, kappa = fuse(start, omegas, zs, self.T_S)
        ref = matrix_state(start)
        for w, z, qk, kk in zip(omegas, np.asarray(zs, dtype=float), q, kappa):
            ref = matrix_predict(ref, w, self.T_S)
            ref = matrix_update(ref, align(z, ref.q))
            assert kk > 0
            assert_scalar_covariance(kk, ref.kappa)
            assert np.abs(np.subtract(qk, ref.q)).max() <= 1e-12
        return q

    def test_random_walk(self):
        rng = np.random.default_rng(13)
        omegas, zs = [], []
        for _ in range(10_000):
            omegas.append(rng.uniform(-0.5, 0.5, 3).tolist())
            angles = rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(-1, 1)
            zs.append(measurement_quat(*angles))
        self.walk(make_filter_state(np.array([1.0, 0, 0, 0]), FusionConfig()), omegas, zs)

    def test_reference_ticks(self):
        # 60 s of the reference scenario's sensor stream, from the loop's start
        cfg = default_scenario()
        euler = mechanical.pointing_euler(cfg.geo)
        start, *run = harness.blocks(cfg, euler, np.random.default_rng(1), 6000)
        omegas = [omega for block in run for omega in block.omega_m]
        self.walk(make_filter_state(start.z[0], cfg.fusion), omegas, np.vstack([b.z for b in run]))

    def test_zero_innovation_at_rest(self):
        # no rates, no process noise, and the estimate measured: it stays put
        q = frames.euler_to_quat(Attitude(0.3, 0.1, -0.5))
        start = make_filter_state(q, FusionConfig(process_noise=0.0))
        got = self.walk(start, [(0.0, 0.0, 0.0)] * 3, [q] * 3)
        np.testing.assert_allclose(got, [q] * 3, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kappa, q_u, taken", [(1e-2, 1e12, False), (1e6, 1e-6, True)],
                             ids=["rejected", "trusted"])
    def test_measurement_weight_limits(self, kappa, q_u, taken):
        # a far measurement: a huge measurement noise leaves the estimate,
        # a tiny one takes the measurement
        q = frames.euler_to_quat(Attitude(0.2, 0.0, 0.0))
        z = frames.euler_to_quat(Attitude(-0.9, 0.3, 0.3))
        [got] = self.walk(FilterState(tuple(q), kappa, 0.0, q_u), [(0.0, 0.0, 0.0)], [z])
        assert np.abs(np.subtract(got, z if taken else q)).max() < 1e-6

    def test_first_order_against_exact_exponential(self):
        # the measurement rejected, a tick is the normalized first-order prior
        q = frames.euler_to_quat(Attitude(0.2, -0.1, 0.4))
        w = (0.1, 0.0, 0.0)
        [got] = self.walk(FilterState(tuple(q), 1e-2, 0.0, 1e12), [w], [q])
        assert np.abs(got - quat_exact_step(q, w, self.T_S)).max() < 1e-6


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
        [q], _ = fuse(FilterState(tuple(q_ref), 1.0, 0.0, 1e-4), [(0.0, 0.0, 0.0)], [z], 0.01)
        np.testing.assert_allclose(q, q_ref, rtol=0, atol=1e-15)

    def test_saturated_pitch_keeps_euler_angles(self):
        # a saturated accelerometer reads pitch +/-90 deg, where yaw and roll
        # merge; the measurement stays just short of it
        for pitch in (math.pi / 2, -math.pi / 2):
            z = measurement_quat(0.3, pitch, 0.1)
            att = Attitude(*frames.zyx_angles(frames.quat_to_dcm(z).T))
            assert att.pitch == pytest.approx(pitch, abs=1e-4)


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
    q, _ = fuse(state, block.omega_m, block.z, noise_cfg.sample_period)
    _, est = fusion.estimate(q)
    pr = block.pitch_roll
    measured = zip(block.psi_m.tolist(), pr.pitch.tolist(), pr.roll.tolist())
    return list(zip(block.truth.tolist(), block.omega_m, measured, est))


def run_fusion(profile, noise_cfg, seed, duration, **covariances):
    """Per-step attitude errors (rad, 3 columns) of the fused estimate."""
    ticks = fusion_ticks(profile, noise_cfg, seed, duration, **covariances)
    return np.array([harness.attitude_error(est, truth) for truth, _, _, est in ticks])


class TestFuseStep:
    def test_stationary_noiseless_fixed_point(self):
        errs = run_fusion(ProfileConfig(), quiet_noise(), seed=0, duration=1.0)
        assert np.abs(errs).max() < 1e-8

    def test_noiseless_tracks_moving_truth(self):
        # all noise zeroed, including the filter's measurement-noise model
        errs = run_fusion(MOVING, quiet_noise(), seed=0, duration=5.0, measurement_noise=1e-12)
        after_transient = errs[int(1.0 / quiet_noise().sample_period):]
        assert np.abs(after_transient).max() < 1e-6

    def test_noiseless_default_covariances_small_lag(self):
        # with the default noise model the filter keeps a small prediction
        # weight, leaving a first-order propagation lag well under 0.01 deg
        errs = run_fusion(MOVING, quiet_noise(), seed=0, duration=5.0)
        after_transient = errs[int(1.0 / quiet_noise().sample_period):]
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
        assert bits(got) == bits(want)
        states = [state, *(state._replace(q=q, kappa=kappa) for q, kappa in zip(*want))]
        priors = [predict(s, w, self.T_S).q for s, w in zip(states, block.omega_m)]
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
            [q], [kappa] = reference_fuse(state, [(0.0, 0.0, 0.0)], [zs[-1]], self.T_S)
            state = state._replace(q=q, kappa=kappa)
        still = [(0.0, 0.0, 0.0)] * len(zs)
        want = reference_fuse(start, still, zs, self.T_S)
        priors = [np.asarray(q) for q in [start.q, *want[0][:-1]]]
        dots = [(plain_dot(z, q) < 0.0, z.dot(q) < 0.0) for z, q in zip(zs, priors)]
        assert all(abs(z.dot(q)) <= 1e-15 for z, q in zip(zs, priors))
        assert sum(a != b for a, b in dots) >= 3
        assert bits(fuse(start, still, zs, self.T_S)) == bits(want)

    def test_exact_zero_dot_keeps_the_measurement(self):
        # the estimate stays on (1, 0, 0, 0) while it measures it, then meets a
        # measurement at a dot of exactly 0.0, whose sign it keeps
        start = FilterState((1.0, 0.0, 0.0, 0.0), 1e-2, 1e-6, 1e-4)
        zs = [(1.0, 0.0, 0.0, 0.0)] * 3 + [(0.0, -0.6, 0.8, 0.0)] + [(1.0, 0.0, 0.0, 0.0)] * 3
        still = [(0.0, 0.0, 0.0)] * len(zs)
        got, want = fuse(start, still, zs, self.T_S), reference_fuse(start, still, zs, self.T_S)
        assert bits(got) == bits(want)
        q, _ = got
        assert q[2] == (1.0, 0.0, 0.0, 0.0)
        assert q[3][1] < 0.0 < q[3][2]

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
        assert bits(fuse(start, omegas[:bad], zs[:bad], self.T_S)) == bits(want)
        with pytest.raises(NumericalError, match=message):
            fuse(start, omegas, zs, self.T_S)
