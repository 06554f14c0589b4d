import math
from dataclasses import replace

import numpy as np
import pytest

from beamtrack import channel, electrical, experiments
from beamtrack.channel import ArrayGeometry, PowerOracle, SignalModel
from beamtrack.electrical import (
    AsspParams,
    OptimizerTrace,
    _rotation,
    aligned_gradient,
    draw_perturbation,
    fit_doa,
    perturbation_vector,
    run_assp,
    run_isotropic_spsa,
    run_sequential_perturbation,
    structure_matrix,
)
from beamtrack.experiments import offset_arrival, run_trial

D2R = math.pi / 180.0


def los_vec(geom, az, el):
    """The MN channel vector of the unit-gain LOS ray from (az, el)."""
    [h] = SignalModel().channel(geom, [(az, el)]).vec()
    return h


def make_oracle(geom, az, el, snr_db=None, seed=0):
    h = los_vec(geom, az, el)
    noise = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
    return PowerOracle(h, noise, np.random.default_rng(seed))


class ZeroProbeError(ValueError):
    """The elementwise reference gradient cannot divide by a zero probe."""


def assp_gradient(phases, delta, oracle):
    """Reference elementwise central-difference gradient: queries the oracle
    at phases +/- delta and divides the difference by 2*delta per element."""
    delta = np.asarray(delta, dtype=float)
    if np.any(delta == 0.0):
        raise ZeroProbeError("perturbation has a zero component")
    p_plus = oracle(phases + delta)
    p_minus = oracle(phases - delta)
    return (p_plus - p_minus) / (2.0 * delta), p_plus, p_minus


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def reference_draw(rng, size):
    """``draw_perturbation`` as the two ``rng.integers`` calls that fix
    the traces' stream."""
    xi = int(rng.integers(0, 2)) * 2 - 1
    return xi, (rng.integers(0, 2, size) * 2 - 1).astype(float)


def simultaneous_reference(initial_phases, oracle, params, rng, geom):
    """``run_assp`` without its stop rule, from the general formulas: the
    reference draw, ``perturbation_vector`` and ``aligned_gradient`` on
    every element, and the combiner terms made and turned by complex
    exponentials."""
    structure = structure_matrix(geom)
    phases = np.asarray(initial_phases, dtype=float).copy()
    terms = np.conj(np.exp(1j * phases)) * oracle.h_vec
    trace = OptimizerTrace(params.max_iters)
    for k in range(params.max_iters):
        xi, bern = reference_draw(rng, phases.size)
        delta = perturbation_vector(structure, xi, bern, params, k)
        e = np.exp(-1j * delta)
        n_plus, n_minus = oracle.noise_terms(2).tolist()
        p_plus = abs(terms @ e + n_plus) ** 2 / oracle.scale
        p_minus = abs(np.vdot(e, terms) + n_minus) ** 2 / oracle.scale
        step = params.step_size(k) * aligned_gradient(p_plus, p_minus, delta)
        terms *= np.exp(-1j * step)
        phases += step
        trace.append(float(abs(terms.sum()) ** 2 / oracle.scale), oracle.queries)
    return phases, trace


def from_scratch_reference(initial_phases, power, diagnostic, params, rng, geom):
    """``run_assp`` without its stop rule, each probe read from scratch as
    ``power(phases +/- delta)`` and each row as ``diagnostic(phases)``."""
    structure = structure_matrix(geom)
    phases = np.asarray(initial_phases, dtype=float).copy()
    trace = OptimizerTrace(params.max_iters)
    for k in range(params.max_iters):
        xi, bern = reference_draw(rng, phases.size)
        delta = perturbation_vector(structure, xi, bern, params, k)
        p_plus, p_minus = power(phases + delta), power(phases - delta)
        phases += params.step_size(k) * aligned_gradient(p_plus, p_minus, delta)
        trace.append(diagnostic(phases), 2 * (k + 1))
    return phases, trace


def sequential_reference(initial_phases, oracle, params):
    """The per-query sequential walk: one ``sample_pair`` call per probe."""
    phases = np.asarray(initial_phases, dtype=float).copy()
    h = np.asarray(oracle.h_vec)
    trace = OptimizerTrace(params.seq_max_sweeps)
    step = params.seq_step
    rot_plus = complex(np.exp(-1j * step))
    rot_minus = complex(np.exp(1j * step))
    for _ in range(params.seq_max_sweeps):
        contrib = np.conj(np.exp(1j * phases)) * h
        total = complex(contrib.sum())
        for i in range(phases.size):
            ci = complex(contrib[i])
            base = total - ci
            p_plus = oracle.sample_pair(base, ci * rot_plus)
            p_minus = oracle.sample_pair(base, ci * rot_minus)
            if p_plus > p_minus:
                phases[i] += step
                total = base + ci * rot_plus
            elif p_minus > p_plus:
                phases[i] -= step
                total = base + ci * rot_minus
        trace.append(oracle.true_nrsp(phases), oracle.queries)
    return phases, trace


class TestStructureMatrix:
    def test_values_and_order(self):
        d = structure_matrix(ArrayGeometry(2, 2))
        np.testing.assert_allclose(d, [0.0, 1.0, 1.0, math.sqrt(2.0)], atol=1e-15)

    def test_corner_zero_and_monotone(self):
        geom = ArrayGeometry(8, 5)
        d = structure_matrix(geom).reshape(geom.rows, geom.cols, order="F")
        assert d[0, 0] == 0.0
        assert np.all(np.diff(d, axis=0) >= 0)
        assert np.all(np.diff(d, axis=1) >= 0)


class TestDraw:
    @pytest.mark.parametrize("size", [1, 2, 3, 127, 128, 8191, 8192])
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    def test_equals_the_integers_draws(self, size, buffered):
        # xi, the signs, the whole generator state (the buffered half word
        # included) and the stream after it, over draws of alternating
        # parity
        ref, fast = (np.random.default_rng(17) for _ in range(2))
        if buffered:
            ref.integers(0, 2)
            fast.integers(0, 2)
        for _ in range(4):
            xi, signs = draw_perturbation(fast, size)
            ref_xi, ref_signs = reference_draw(ref, size)
            assert xi == ref_xi and type(xi) is int
            assert signs.dtype == np.float64
            assert signs.tobytes() == ref_signs.tobytes()
            np.testing.assert_equal(fast.bit_generator.state, ref.bit_generator.state)
        assert fast.random() == ref.random()


class TestPerturbationVector:
    def test_isotropic_reduction(self):
        params = AsspParams(structure_weight=0.0, isotropic_weight=0.01)
        delta = perturbation_vector(np.zeros(5), +1, np.ones(5), params, 0)
        np.testing.assert_allclose(delta, 0.01, atol=1e-18)

    def test_corner_element_has_only_isotropic_term(self):
        params = AsspParams()
        d = structure_matrix(ArrayGeometry(4, 4))
        delta = perturbation_vector(d, +1, np.ones(16), params, 0)
        assert delta[0] == pytest.approx(params.isotropic_weight)

    def test_two_by_two_frozen_example(self):
        # b=0.02, c=0.01, xi=+1, Delta=(+1,-1,+1,-1), k=0, column-major D
        params = AsspParams(structure_weight=0.02, isotropic_weight=0.01)
        d = structure_matrix(ArrayGeometry(2, 2))
        delta = perturbation_vector(d, +1, np.array([1.0, -1.0, 1.0, -1.0]), params, 0)
        np.testing.assert_allclose(
            delta, [0.01, 0.01, 0.03, 0.02 * math.sqrt(2.0) - 0.01], atol=1e-15
        )

    def test_probe_decay(self):
        params = AsspParams()
        d = structure_matrix(ArrayGeometry(2, 2))
        d0 = perturbation_vector(d, +1, np.ones(4), params, 0)
        d9 = perturbation_vector(d, +1, np.ones(4), params, 9)
        np.testing.assert_allclose(d9, d0 / 10**params.probe_exponent, atol=1e-15)


class TestGradients:
    def test_equal_powers_zero_gradient(self):
        calls = iter([5.0, 5.0])
        grad, _, _ = assp_gradient(np.zeros(3), np.full(3, 0.01), lambda p: next(calls))
        np.testing.assert_array_equal(grad, 0.0)

    def test_quadratic_oracle_elementwise_value(self):
        # central difference of P(x) = -||x||^2 at x=(1,1) with delta=(0.01,0.01):
        # (P+ - P-) = -0.08, so dividing by 2*delta gives -4 per element
        # (the single-draw estimate, not the true gradient (-2,-2))
        target = np.array([1.0, 1.0])
        oracle = lambda p: -float(np.sum(p * p))
        grad, p_plus, p_minus = assp_gradient(target, np.array([0.01, 0.01]), oracle)
        np.testing.assert_allclose(grad, [-4.0, -4.0], atol=1e-9)
        assert p_plus - p_minus == pytest.approx(-0.08, abs=1e-12)

    def test_zero_component_raises(self):
        with pytest.raises(ZeroProbeError):
            assp_gradient(np.zeros(2), np.array([0.0, 0.01]), lambda p: 0.0)

    def test_aligned_equals_reciprocal_for_bernoulli(self):
        rng = np.random.default_rng(4)
        delta = 0.01 * (rng.integers(0, 2, 16) * 2 - 1).astype(float)
        p_plus, p_minus = 3.7, 3.1
        np.testing.assert_allclose(
            aligned_gradient(p_plus, p_minus, delta),
            (p_plus - p_minus) / (2.0 * delta),
            atol=1e-15,
        )

    def test_spsa_unbiasedness_on_beam_oracle(self):
        # averaged isotropic estimates correlate positively with the true
        # finite-difference gradient near a small offset
        geom = ArrayGeometry(8, 4)
        oracle = make_oracle(geom, 1.0 * D2R, 45 * D2R)
        phases = np.zeros(geom.size)
        params = AsspParams(structure_weight=0.0)
        rng = np.random.default_rng(11)
        acc = np.zeros(geom.size)
        for _ in range(200):
            _, bern = draw_perturbation(rng, geom.size)
            delta = params.isotropic_weight * bern
            grad, _, _ = assp_gradient(phases, delta, oracle)
            acc += grad
        acc /= 200
        fd = np.empty(geom.size)
        eps = 1e-6
        for i in range(geom.size):
            e = np.zeros(geom.size)
            e[i] = eps
            fd[i] = (oracle(phases + e) - oracle(phases - e)) / (2 * eps)
        assert float(np.dot(acc, fd)) > 0.0

    def test_reciprocal_update_diverges_noiselessly(self):
        # structured probes differ in magnitude per element: dividing
        # elementwise (assp_gradient) kicks small-probe elements hard
        geom, params = ArrayGeometry(16, 8), AsspParams()
        h = los_vec(geom, *offset_arrival(0.3))
        structure = structure_matrix(geom)
        final = {}
        for form in ("aligned", "reciprocal"):
            oracle = PowerOracle(h, 0.0, np.random.default_rng(0))
            rng, phases = np.random.default_rng(1), np.zeros(geom.size)
            for k in range(30):
                xi, bern = draw_perturbation(rng, geom.size)
                delta = perturbation_vector(structure, xi, bern, params, k)
                grad, p_plus, p_minus = assp_gradient(phases, delta, oracle)
                if form == "aligned":
                    grad = aligned_gradient(p_plus, p_minus, delta)
                phases = phases + params.step_size(k) * grad
            final[form] = oracle.true_nrsp(phases)
        start = oracle.true_nrsp(np.zeros(geom.size))
        assert start == pytest.approx(0.9929, abs=1e-4)
        assert final["aligned"] > 0.999
        assert final["reciprocal"] < 0.5


class TestAsspRun:
    def test_step_size_schedule(self):
        params = AsspParams()
        assert params.step_size(0) == pytest.approx(0.7 / 0.1**0.602, rel=1e-12)
        assert params.step_size(0) == pytest.approx(2.7996, abs=2e-4)

    def test_matched_start_terminates_quickly(self):
        geom = ArrayGeometry(16, 8)
        oracle = make_oracle(geom, 0.0, 0.0)
        params = AsspParams(max_iters=50)
        phases, trace = run_assp(
            np.zeros(geom.size), oracle, params, np.random.default_rng(0), geom
        )
        assert len(trace) <= params.max_iters
        assert trace.nrsp[-1] >= 1.0 - 1e-5
        # tiny probes around the optimum cost a bounded nrsp dip
        assert min(trace.nrsp) > 0.99

    def test_exactly_two_queries_per_iteration(self):
        geom = ArrayGeometry(8, 4)
        oracle = make_oracle(geom, 0.2 * D2R, 10 * D2R, snr_db=20, seed=1)
        _, trace = run_assp(
            np.zeros(geom.size), oracle, AsspParams(max_iters=12, stop_window=10**9),
            np.random.default_rng(3), geom,
        )
        assert oracle.queries == 2 * len(trace)
        assert trace.queries == [2 * (i + 1) for i in range(len(trace))]

    def test_exact_zero_probe_component_runs(self):
        # b*D = c at the four elements at distance D = 5 (0.002 * 5.0 == 0.01
        # in floats), so a draw with xi*Delta = -1 at any of them probes it by
        # exactly 0: 15 draws in 16 do
        geom = ArrayGeometry(16, 8)
        params = AsspParams(structure_weight=0.002, isotropic_weight=0.01, stop_window=10**9)
        delta = perturbation_vector(structure_matrix(geom), 1, -np.ones(geom.size), params, 0)
        assert np.count_nonzero(delta == 0.0) == 4
        result = run_trial("assp", geom, 20.0, 0, params)
        assert result.iterations_run == params.max_iters
        assert 0.0 <= result.final_nrsp <= 1.0

    def test_equal_seeds_identical_traces(self):
        geom = ArrayGeometry(8, 8)
        params = AsspParams(max_iters=20)
        runs = []
        for _ in range(2):
            oracle = make_oracle(geom, 0.2 * D2R, 45 * D2R, snr_db=20, seed=5)
            phases, trace = run_assp(
                np.zeros(geom.size), oracle, params, np.random.default_rng(17), geom
            )
            runs.append((phases, trace))
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1] == runs[1][1]  # budget, nrsp and queries

    def test_isotropic_is_assp_with_zero_structure(self):
        geom = ArrayGeometry(8, 4)
        params = AsspParams(max_iters=15)
        o1 = make_oracle(geom, 0.3 * D2R, 30 * D2R, snr_db=15, seed=2)
        p1, t1 = run_assp(
            np.zeros(geom.size), o1, AsspParams(max_iters=15, structure_weight=0.0),
            np.random.default_rng(9), geom,
        )
        o2 = make_oracle(geom, 0.3 * D2R, 30 * D2R, snr_db=15, seed=2)
        p2, t2 = run_isotropic_spsa(
            np.zeros(geom.size), o2, params, np.random.default_rng(9), geom
        )
        assert p1.tobytes() == p2.tobytes()
        assert t1.nrsp == t2.nrsp and t1.queries == t2.queries

    def test_best_so_far_trend(self):
        # standard scenario: best-so-far nrsp is non-decreasing and the run
        # ends above its starting alignment in (at least) 95% of seeds
        geom = ArrayGeometry(128, 64)
        u = math.asin(math.sin(0.3 * D2R) * math.sqrt(2.0))
        improved = 0
        runs = 20
        for seed in range(runs):
            oracle = make_oracle(geom, u, 45 * D2R, snr_db=20, seed=seed)
            start = oracle.true_nrsp(np.zeros(geom.size))
            _, trace = run_assp(
                np.zeros(geom.size), oracle, AsspParams(max_iters=40),
                np.random.default_rng(seed), geom,
            )
            best = np.maximum.accumulate(trace.nrsp)
            assert np.all(np.diff(best) >= 0)
            if trace.nrsp[-1] >= start:
                improved += 1
        assert improved >= 0.95 * runs

    def test_spsa_sanity_noiseless_quadratic(self):
        # isotropic SPSA on -||p - t||^2 over 8 phases: objective gap below
        # 1e-3 within 500 iterations for at least 95% of seeds
        target = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.25, -0.15, 0.05])

        def quadratic(p):
            return -float(np.sum((p - target) ** 2))

        geom = ArrayGeometry(8, 1)
        params = AsspParams(max_iters=500, stop_window=10**9, structure_weight=0.0)
        ok = 0
        seeds = 40
        for seed in range(seeds):
            phases, _ = from_scratch_reference(
                np.zeros(8), quadratic, quadratic, params, np.random.default_rng(seed), geom
            )
            if float(np.sum((phases - target) ** 2)) <= 1e-3:
                ok += 1
        assert ok >= math.ceil(0.95 * seeds)

    def test_carried_phasor_matches_per_query_reference(self):
        # the carried terms against from-scratch probes and diagnostic on
        # the same noise stream: equal control flow, floats to rounding.
        # A LOS ray from zero phases, and a channel of random terms from
        # random phases under large ASSP and SPSA steps
        geom = ArrayGeometry(16, 8)
        az = math.asin(math.sqrt(2.0) * math.sin(0.3 * D2R))
        rng = np.random.default_rng(3)
        h = rng.standard_normal(geom.size) + 1j * rng.standard_normal(geom.size)
        start = rng.uniform(-3.0, 3.0, geom.size)
        cases = [(los_vec(geom, az, 45 * D2R), 0.1, np.zeros(geom.size),
                  AsspParams(max_iters=100, stop_window=10**9))]
        cases += [(h, 0.01, start, AsspParams(gain=20.0, structure_weight=weight, max_iters=5,
                                              stop_window=10**9)) for weight in (0.02, 0.0)]
        for h, noise, start, params in cases:
            fast, slow = (PowerOracle(h, noise, np.random.default_rng(4)) for _ in range(2))
            p1, t1 = run_assp(start, fast, params, np.random.default_rng(8), geom)
            p2, t2 = from_scratch_reference(
                start, slow, slow.true_nrsp, params, np.random.default_rng(8), geom
            )
            assert len(t1) == params.max_iters and t1.queries == t2.queries
            assert fast.queries == slow.queries == 2 * params.max_iters
            assert np.max(np.abs(p1 - start)) > 0.1
            np.testing.assert_allclose(t1.nrsp, t2.nrsp, rtol=0, atol=1e-11)
            np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-11)

    def test_held_nrsp_tracks_true_nrsp_over_large_phases(self):
        geom = ArrayGeometry(16, 8)
        oracle = make_oracle(geom, 0.4 * D2R, 45 * D2R, snr_db=20, seed=6)
        phases, trace = run_isotropic_spsa(
            np.zeros(geom.size), oracle, AsspParams(max_iters=100, stop_window=10**9),
            np.random.default_rng(2), geom,
        )
        assert len(trace) == 100
        assert abs(trace.nrsp[-1] - oracle.true_nrsp(phases)) <= 1e-12

    def test_oracle_keeps_no_array_of_a_run(self):
        # the runner carries its terms and rotation buffer itself: after a
        # run the oracle holds no array but the channel
        geom = ArrayGeometry(16, 8)
        oracle = make_oracle(geom, 0.3 * D2R, 45 * D2R, snr_db=20)
        for runner in (run_assp, run_isotropic_spsa):
            runner(np.zeros(geom.size), oracle, AsspParams(max_iters=5), np.random.default_rng(0), geom)
            arrays = [k for k, v in vars(oracle).items() if isinstance(v, np.ndarray)]
            assert arrays == ["h_vec"]

    @pytest.mark.parametrize("runner, full", [(run_assp, True), (run_isotropic_spsa, False)],
                             ids=["assp", "spsa"])
    def test_full_array_exponentials_per_iteration(self, monkeypatch, runner, full):
        # a rotation is a cos and a sin of the same size, or one scalar
        # exponential: ``sizes`` records each exp and each cos, ``sines``
        # each sin
        geom = ArrayGeometry(16, 8)
        oracle = make_oracle(geom, 0.3 * D2R, 45 * D2R, snr_db=20)
        sizes, sines = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x, **kwargs):
                sizes.append(np.size(x))
                return np.exp(x, **kwargs)

            def cos(self, x, **kwargs):
                sizes.append(np.size(x))
                return np.cos(x, **kwargs)

            def sin(self, x, **kwargs):
                sines.append(np.size(x))
                return np.sin(x, **kwargs)

        for module in (channel, electrical):
            monkeypatch.setattr(module, "np", CountingNumpy())
        _, trace = runner(
            np.zeros(geom.size), oracle, AsspParams(max_iters=7, stop_window=10**9),
            np.random.default_rng(0), geom,
        )
        # one for the start's terms, then a probe pair and a step per
        # iteration: full-array for ASSP, one scalar each for isotropic SPSA
        assert len(trace) == 7
        assert sizes == [geom.size] + [geom.size if full else 1] * 2 * len(trace)
        assert sines == [n for n in sizes if n == geom.size]


class TestRotation:
    """The terms that ``run_assp`` carries and turns, and its noise draws."""

    def test_terms_and_rotation_are_the_exponential(self):
        # phases of both signs from 1e-3 to 1e6 in magnitude, multiples of
        # pi, the signed zeros and the smallest subnormal
        rng = np.random.default_rng(12)
        x = np.concatenate((10.0 ** rng.uniform(-3, 6, 5000), math.pi * np.arange(0.5, 9.0, 0.5),
                            [1e5 * math.pi, 0.0, 5e-324]))
        x = np.concatenate((x, -x))
        h = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
        oracle = PowerOracle(h, 0.0, np.random.default_rng(0))
        assert oracle.combiner_terms(x).tobytes() == (np.conj(np.exp(1j * x)) * h).tobytes()
        buf = np.empty(x.size, dtype=complex)
        for offset in (x, x[::-1].copy(), 1e-2 * x):
            assert _rotation(offset, None, buf).tobytes() == np.exp(-1j * offset).tobytes()

    def test_each_iteration_draws_both_noises_in_one_call(self):
        geom = ArrayGeometry(16, 8)
        oracle, twin = (make_oracle(geom, 0.3 * D2R, 45 * D2R, snr_db=10, seed=8) for _ in range(2))
        calls, draw = [], oracle.noise_terms
        oracle.noise_terms = lambda n: calls.append(n) or draw(n)
        params = AsspParams(max_iters=6, stop_window=10**9)
        for runner in (run_assp, run_isotropic_spsa):
            runner(np.zeros(geom.size), oracle, params, np.random.default_rng(0), geom)
        assert calls == [2] * 12
        twin.noise_terms(24)
        assert oracle.queries == twin.queries == 24
        assert oracle.rng.standard_normal() == twin.rng.standard_normal()


class TestSignedRotation:
    """The isotropic probe's rotation, built from one scalar exponential,
    against ``np.exp(-1j * offset)`` element for element."""

    @pytest.mark.parametrize("magnitude", [1e-3, 0.01, 0.7, 2.8, 31.4159, 123.4, 999.9])
    @pytest.mark.parametrize("kind", ["mixed", "plus", "minus"])
    def test_bits_equal_the_elementwise_exponential(self, magnitude, kind):
        size = 128
        signs = {
            "mixed": np.random.default_rng(3).integers(0, 2, size) * 2.0 - 1.0,
            "plus": np.ones(size),
            "minus": -np.ones(size),
        }[kind]
        buf = np.empty(size, dtype=complex)
        for x in (magnitude, -magnitude):
            offset = signs * x
            assert np.array_equal(bits(_rotation(offset, signs, buf)), bits(np.exp(-1j * offset)))

    def test_signed_zero_step(self):
        # p_plus == p_minus makes a step of +0.0 on + signs and -0.0 on -
        # signs, whose exponentials differ in the sign of the zero
        # imaginary part
        signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
        buf = np.empty(signs.size, dtype=complex)
        for first in (1.0, -1.0):
            signs[0] = first
            step = 0.0 * signs
            assert np.array_equal(bits(_rotation(step, signs, buf)), bits(np.exp(-1j * step)))

    @pytest.mark.parametrize("rows, cols, runner", [
        (16, 8, run_isotropic_spsa),
        (128, 64, run_isotropic_spsa),
        (16, 8, run_assp),
        (128, 64, run_assp),
    ], ids=["16-8", "128-64", "assp-16-8", "assp-128-64"])
    def test_spsa_run_equals_elementwise_reference(self, rows, cols, runner):
        # SPSA phases drift large; the whole run, SPSA's worked as one
        # magnitude on its signs and rotated by scalar exponentials or
        # ASSP's rotated by cos and sin, stays bit for bit equal to the
        # general formulas on every element and rotations by complex
        # exponentials
        geom = ArrayGeometry(rows, cols)
        params = AsspParams(max_iters=100, stop_window=10**9)
        az = math.asin(math.sqrt(2.0) * math.sin(0.3 * D2R))
        h = los_vec(geom, az, 45 * D2R)
        p1, t1 = runner(
            np.zeros(geom.size), PowerOracle(h, 0.1, np.random.default_rng(4)), params,
            np.random.default_rng(8), geom,
        )
        if runner is run_isotropic_spsa:
            params = replace(params, structure_weight=0.0)
        p2, t2 = simultaneous_reference(
            np.zeros(geom.size), PowerOracle(h, 0.1, np.random.default_rng(4)), params,
            np.random.default_rng(8), geom,
        )
        assert len(t1) == params.max_iters
        assert np.array_equal(p1.view(np.uint64), p2.view(np.uint64))
        assert np.array_equal(bits(t1.nrsp), bits(t2.nrsp))
        assert t1.queries == t2.queries


SEQ_PARAMS = AsspParams(seq_step=0.2, seq_max_sweeps=5)


class TestSequential:
    def test_single_probed_element_converges_within_quantum(self):
        # a lone element sees nrsp == 1 at any phase (power is blind to a
        # global phase), so the smallest meaningful case is one probed
        # element against one reference element
        geom = ArrayGeometry(2, 1)
        h = los_vec(geom, 0.0, 0.0)
        h[1] *= np.exp(0.9j)  # relative phase the walk must match
        oracle = PowerOracle(h, 0.0, np.random.default_rng(0))
        params = AsspParams(seq_step=0.25, seq_max_sweeps=10)
        phases, trace = run_sequential_perturbation(
            np.zeros(2), oracle, params, np.random.default_rng(0), geom
        )
        assert abs((phases[1] - phases[0]) - 0.9) <= params.seq_step

    def test_query_count_per_sweep(self):
        geom = ArrayGeometry(4, 2)
        oracle = make_oracle(geom, 0.5 * D2R, 10 * D2R)
        params = AsspParams(seq_max_sweeps=3)
        _, trace = run_sequential_perturbation(
            np.zeros(geom.size), oracle, params, np.random.default_rng(0), geom
        )
        per_sweep = np.diff([0] + trace.queries)
        assert np.all(per_sweep == 2 * geom.size)

    def test_noiseless_converges_on_small_array(self):
        # fine quantum: the walk should push nrsp above its ~(sinc(s/2))^2
        # quantization floor
        geom = ArrayGeometry(8, 4)
        oracle = make_oracle(geom, 2.0 * D2R, 40 * D2R)
        params = AsspParams(seq_step=0.1, seq_max_sweeps=20)
        phases, trace = run_sequential_perturbation(
            np.zeros(geom.size), oracle, params, np.random.default_rng(1), geom
        )
        assert trace.nrsp[-1] > 0.99

    @pytest.mark.parametrize("rows, cols, snr_db, link, zero_every, params", [
        pytest.param(8, 4, 20.0, SignalModel(), 0, SEQ_PARAMS, id="8-4-20.0"),
        pytest.param(8, 4, None, SignalModel(), 0, SEQ_PARAMS, id="8-4-None"),
        pytest.param(
            3 * electrical._SEQ_CHUNK // 32, 16, 10.0, SignalModel(), 0, SEQ_PARAMS,
            id="one-and-a-half-blocks-10.0",
        ),
        pytest.param(16, 8, 200.0, SignalModel(), 0, SEQ_PARAMS, id="16-8-200.0"),
        pytest.param(1, 1, 20.0, SignalModel(), 0, SEQ_PARAMS, id="1-1-20.0"),
        pytest.param(16, 8, 20.0, SignalModel(nlos_gain=0.3), 0, SEQ_PARAMS, id="two-ray-20.0"),
        # every third element of h is zero: its probes tie and it stays put
        pytest.param(16, 8, None, SignalModel(), 3, SEQ_PARAMS, id="ties-None"),
        # noiseless to convergence: the late sweeps dither about the optimum
        pytest.param(
            8, 4, None, SignalModel(), 0, AsspParams(seq_step=0.1, seq_max_sweeps=20),
            id="converging-None",
        ),
    ])
    def test_matches_per_query_reference_bit_for_bit(
        self, rows, cols, snr_db, link, zero_every, params
    ):
        geom = ArrayGeometry(rows, cols)
        [h] = link.channel(geom, [(0.9 * D2R, 40 * D2R)]).vec()
        if zero_every:
            h[::zero_every] = 0.0
        noise = 0.0 if snr_db is None else 10.0 ** (-snr_db / 10.0)
        fast, slow = (PowerOracle(h, noise, np.random.default_rng(21)) for _ in range(2))
        p1, t1 = run_sequential_perturbation(
            np.zeros(geom.size), fast, params, np.random.default_rng(0), geom
        )
        p2, t2 = sequential_reference(np.zeros(geom.size), slow, params)
        assert p1.tobytes() == p2.tobytes()
        assert t1 == t2  # budget, nrsp and queries
        assert len(t1) == params.seq_max_sweeps  # only the budget stops a walk
        assert fast.queries == slow.queries == 2 * geom.size * len(t1)
        assert fast.rng.standard_normal() == slow.rng.standard_normal()

    def test_block_keeps_the_walks_running_sum(self):
        # the last bits of the running sum seldom decide a probe, so the
        # block's sum is compared with the scalar walk's directly
        rng = np.random.default_rng(4)
        c = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c[::5] = 0.0
        noise = 0.1 * rng.standard_normal(256).view(complex)
        noise[1::10] = noise[0::10]  # so both probes of a zero term tie
        rot_plus, rot_minus = complex(np.exp(-0.2j)), complex(np.exp(0.2j))
        total = complex(c.sum())
        moves, block_total = electrical._walk_block(total, c, noise, rot_plus, rot_minus, 2.0)
        want = []
        for ci, n_plus, n_minus in zip(c.tolist(), noise[0::2].tolist(), noise[1::2].tolist()):
            plus, minus = total - ci + ci * rot_plus, total - ci + ci * rot_minus
            p_plus, p_minus = abs(plus + n_plus) ** 2 / 2.0, abs(minus + n_minus) ** 2 / 2.0
            want.append((p_plus > p_minus) - (p_minus > p_plus))
            total = plus if want[-1] > 0 else minus if want[-1] < 0 else total
        assert moves.tolist() == want and 0 in want
        assert np.array(block_total).tobytes() == np.array(total).tobytes()
        # an element that stays put leaves even a -0.0 part of the sum
        _, kept = electrical._walk_block(
            complex(1.0, -0.0), np.zeros(2, complex), np.zeros(4, complex), rot_plus, rot_minus, 2.0
        )
        assert math.copysign(1.0, kept.imag) == -1.0

    def test_no_oracle_call_per_query(self, monkeypatch):
        def per_query(*args):
            raise AssertionError("per-query oracle call")

        monkeypatch.setattr(PowerOracle, "_measure", per_query)
        geom = ArrayGeometry(16, 8)
        oracle = make_oracle(geom, 0.5 * D2R, 10 * D2R, snr_db=20)
        _, trace = run_sequential_perturbation(
            np.zeros(geom.size), oracle, AsspParams(seq_max_sweeps=2),
            np.random.default_rng(0), geom,
        )
        assert trace.queries == [2 * geom.size, 4 * geom.size]


class TestTrace:
    def test_iterations_to_threshold(self):
        trace = OptimizerTrace(4)
        for i, v in enumerate([0.5, 0.8, 0.995, 0.97]):
            trace.append(v, 2 * (i + 1))
        assert trace.first_reaching(0.99) == 2  # row 2 is iteration 3
        assert trace.first_reaching(0.999) is None  # never reached

    @pytest.mark.parametrize("method, budget", [("assp", 7), ("spsa", 7), ("sequential", 3)])
    def test_unreached_threshold_scores_the_runners_budget(self, method, budget):
        # distinct limits, so a budget read from the wrong one fails
        params = AsspParams(max_iters=7, seq_max_sweeps=3)
        result = run_trial(method, ArrayGeometry(8, 4), 20.0, 0, params, threshold=2.0)
        assert not result.reached
        assert result.iterations_to_threshold == budget


class TestTrialLink:
    def test_snr_argument_replaces_the_links(self):
        geom, params = ArrayGeometry(8, 4), AsspParams(max_iters=12)
        for method in ("assp", "spsa", "sequential"):
            for seed in (0, 1):
                assert run_trial(
                    method, geom, 20.0, seed, params, signal=SignalModel(snr_db=99.0)
                ) == run_trial(method, geom, 20.0, seed, params)

    def test_trial_runs_the_two_ray_link(self, monkeypatch):
        geom, params = ArrayGeometry(16, 8), AsspParams(max_iters=12)
        signal = SignalModel(nlos_gain=0.3)
        seen = []

        def recorder(initial, oracle, *rest):
            seen.append(oracle)
            return electrical.run_assp(initial, oracle, *rest)

        monkeypatch.setitem(experiments.METHOD_RUNNERS, "assp", recorder)
        two_ray = run_trial("assp", geom, 20.0, 3, params, signal=signal)
        (oracle,) = seen
        [want] = signal.channel(geom, [offset_arrival(0.3)]).vec()
        assert oracle.h_vec.tobytes() == want.tobytes()
        assert two_ray != run_trial("assp", geom, 20.0, 3, params)

    @pytest.mark.parametrize("offset_deg", [45.0, -45.0, 360.3, 1e300, math.nan, math.inf])
    def test_offset_out_of_range_raises(self, offset_deg):
        # at 45 deg per axis the arrival grazes the array; beyond it there is
        # no arrival to clamp to
        geom, params = ArrayGeometry(5, 3), AsspParams(max_iters=3)
        with pytest.raises(ValueError, match=r"offset_deg must lie in \(-45, 45\) degrees"):
            run_trial("assp", geom, 20.0, 0, params, offset_deg=offset_deg)
        with pytest.raises(ValueError, match=r"offset_deg must lie in \(-45, 45\) degrees"):
            experiments.convergence_stats("assp", geom, 20.0, 2, params, offset_deg=offset_deg)

    def test_offset_just_inside_the_range_runs(self):
        # 44.9 deg per axis arrives 86.6 deg off the normal, not grazing
        geom, params = ArrayGeometry(5, 3), AsspParams(max_iters=3)
        az, el = offset_arrival(44.9)
        assert az == pytest.approx(math.asin(math.sqrt(2.0) * math.sin(44.9 * D2R)), abs=1e-15)
        assert 86.5 < az / D2R < 86.7 and el == pytest.approx(45 * D2R)
        result = run_trial("assp", geom, 20.0, 0, params, offset_deg=44.9)
        assert result.iterations_run == 3
        stats = experiments.convergence_stats("assp", geom, 20.0, 2, params, offset_deg=44.9)
        assert stats.median_iterations_run == 3


def reference_fit_doa(phases, geom):
    """The fit over the full zero-padded grid: ``fft2``, the argmax of its
    magnitudes, and five correlations per Newton step."""
    wbar = channel.conj_weight_matrix(phases, geom)
    spec = np.fft.fft2(np.conj(wbar), s=(4 * geom.rows, 4 * geom.cols))
    peak = np.unravel_index(np.argmax(np.abs(spec)), spec.shape)
    fr = peak[0] / (4 * geom.rows)
    fc = peak[1] / (4 * geom.cols)
    if fr > 0.5:
        fr -= 1.0
    if fc > 0.5:
        fc -= 1.0
    d = geom.spacing_over_wavelength
    u_r, u_c = fr / d, fc / d

    def corr(ur, uc):
        r, c = channel.plane_wave(geom, ur, uc)
        return abs(r @ wbar @ c) ** 2

    h = 1e-6
    for _ in range(60):
        f0 = corr(u_r, u_c)
        r_plus, r_minus = corr(u_r + h, u_c), corr(u_r - h, u_c)
        c_plus, c_minus = corr(u_r, u_c + h), corr(u_r, u_c - h)
        gr = (r_plus - r_minus) / (2 * h)
        gc = (c_plus - c_minus) / (2 * h)
        hrr = (r_plus - 2 * f0 + r_minus) / h**2
        hcc = (c_plus - 2 * f0 + c_minus) / h**2
        step_r = -gr / hrr if hrr < 0 else 0.0
        step_c = -gc / hcc if hcc < 0 else 0.0
        u_r += step_r
        u_c += step_c
        if abs(step_r) < 1e-12 and abs(step_c) < 1e-12:
            break
    return math.asin(min(1.0, math.hypot(u_r, u_c))), math.atan2(u_c, u_r)


def fit_phase_sets(geom):
    """Named phase sets for the fit: each runner's converged output, zeros,
    noise-like phases, phases in {0, pi} and matched weights."""
    rng = np.random.default_rng(geom.size)
    az = math.asin(math.sqrt(2.0) * math.sin(0.3 * D2R))
    h = los_vec(geom, az, 45 * D2R)
    params = AsspParams(max_iters=60, seq_max_sweeps=2)
    sets = {
        f"{method}-seed{seed}": runner(
            np.zeros(geom.size), PowerOracle(h, 0.1, np.random.default_rng(seed)), params,
            np.random.default_rng(seed + 10), geom,
        )[0]
        for method, runner in electrical.RUNNERS.items()
        for seed in range(2)
    }
    sets["zeros"] = np.zeros(geom.size)
    for k in range(3):
        sets[f"noise{k}"] = rng.normal(0.0, 3.0, geom.size)
    for k in range(8):
        sets[f"binary{k}"] = np.pi * rng.integers(0, 2, geom.size)
    for az_deg, el_deg in ((0.35, 40.0), (2.0, 200.0), (0.0, 0.0)):
        sets[f"matched-{az_deg}-{el_deg}"] = channel.matched_weights(geom, az_deg * D2R, el_deg * D2R)
    return sets


class TestDoaFit:
    def test_exact_plane_wave(self):
        geom = ArrayGeometry(64, 32)
        az, el = 0.35 * D2R, 40 * D2R
        fit_az, fit_el = fit_doa(channel.matched_weights(geom, az, el), geom)
        assert fit_az == pytest.approx(az, abs=1e-9)
        assert fit_el == pytest.approx(el, abs=1e-7)

    def test_each_correlation_point_evaluated_once(self, monkeypatch):
        steps = []

        def counted(geom, u_r, u_c):
            steps.append((u_r.tolist(), u_c.tolist()))
            return channel.plane_wave(geom, u_r, u_c)

        monkeypatch.setattr(electrical, "plane_wave", counted)
        geom = ArrayGeometry(16, 8)
        fit_doa(channel.matched_weights(geom, 0.35 * D2R, 40 * D2R), geom)
        # one stacked call per Newton step: u and u +/- h on both axes
        points = [point for u_r, u_c in steps for point in zip(u_r, u_c)]
        assert len(steps) > 1
        assert len(set(points)) == len(points)
        h = 1e-6
        for u_r, u_c in steps:
            assert u_r[1:] == [u_r[0] + h, u_r[0] - h]
            assert u_c[1:] == [u_c[0] + h, u_c[0] - h]

    @pytest.mark.parametrize("rows, cols", [(16, 8), (64, 32), (5, 3), (1, 1)])
    def test_fit_equals_full_grid_reference(self, rows, cols):
        # the pruned peak search and the shared Newton products give the
        # same tuple, bit for bit, as the full grid and five correlations
        geom = ArrayGeometry(rows, cols)
        for name, phases in fit_phase_sets(geom).items():
            assert fit_doa(phases, geom) == reference_fit_doa(phases, geom), name

    def test_binary_phases_hold_tied_peaks(self):
        # a real spectrum is conjugate-symmetric, so its peak magnitude can
        # occur twice: the equality above then pins the row-major tie rule
        geom = ArrayGeometry(64, 32)
        tied = 0
        for name, phases in fit_phase_sets(geom).items():
            if name.startswith("binary"):
                wbar = channel.conj_weight_matrix(phases, geom)
                spec = np.abs(np.fft.fft2(np.conj(wbar), s=(4 * geom.rows, 4 * geom.cols)))
                tied += np.count_nonzero(spec == spec.max()) > 1
        assert tied > 0

    @staticmethod
    def count_second_pass(monkeypatch, geom):
        """Wrap ``np.fft.fft`` in ``electrical``: returns the list of the
        column counts of each second-pass call, the first-pass outputs and
        the second-pass inputs."""
        fft = np.fft.fft
        columns, firsts, seconds = [], [], []

        def counted(a, n=None, axis=-1):
            out = fft(a, n=n, axis=axis)
            if n == 4 * geom.rows and (a.ndim == 1 or axis == 0):
                columns.append(1 if a.ndim == 1 else a.shape[1])
                seconds.append(a)
            else:
                firsts.append(out)
            return out

        monkeypatch.setattr(electrical.np.fft, "fft", counted)
        return columns, firsts, seconds

    def test_matched_weights_transform_at_most_two_columns(self, monkeypatch):
        geom = ArrayGeometry(64, 32)
        columns, firsts, _ = self.count_second_pass(monkeypatch, geom)
        fit_doa(channel.matched_weights(geom, 0.35 * D2R, 40 * D2R), geom)
        assert len(firsts) == 1
        assert sum(columns) <= 2

    def test_noise_transforms_every_column_without_a_copy(self, monkeypatch):
        geom = ArrayGeometry(64, 32)
        columns, firsts, seconds = self.count_second_pass(monkeypatch, geom)
        phases = np.random.default_rng(9).normal(0.0, 3.0, geom.size)
        fit_doa(phases, geom)
        (s1,) = firsts
        assert columns == [1, 4 * geom.cols]
        assert seconds[-1] is s1

    def test_noisy_phases_still_close(self):
        geom = ArrayGeometry(64, 32)
        az, el = 0.3 * D2R, 45 * D2R
        rng = np.random.default_rng(6)
        phases = channel.matched_weights(geom, az, el) + 0.2 * rng.standard_normal(geom.size)
        fit_az, fit_el = fit_doa(phases, geom)
        assert abs(fit_az - az) < 0.01 * D2R
        assert abs(fit_el - el) < 2.0 * D2R
