import math

import numpy as np
import pytest

from beamtrack.channel import (
    ArrayGeometry,
    Channel,
    PowerOracle,
    SignalModel,
    WAVELENGTH,
    conj_weight_matrix,
    direction_sines,
    matched_weights,
    nrsp,
    plane_wave,
    spatial_spectrum,
    weights_from_phases,
)
from beamtrack.config import D2R
from refs import (
    los_vec, reference_nrsp, reference_power, reference_ray, reference_terms, reference_vec,
)


def stack(terms):
    """The one-channel ``Channel`` stack of the one-channel ``terms``."""
    return Channel(tuple((g, r[None], c[None]) for g, r, c in terms))


def response_matrix(geom, azimuth, elevation):
    """The (rows, cols) response matrix r c^T of one plane wave."""
    r, c = plane_wave(geom, *direction_sines(azimuth, elevation))
    return np.outer(r, c)


def received_signal(phases, h_vec):
    """Reference combiner output without noise: y = w^H h."""
    return complex(np.vdot(weights_from_phases(phases), np.asarray(h_vec)))


def received_signals(phases, h_vec, noise_power, rng, n):
    """Reference per-element noise model, ``n`` draws: y = w^H h + w^H n,
    with n circular complex Gaussian of per-element variance
    ``noise_power``."""
    w = weights_from_phases(phases)
    y = np.vdot(w, np.asarray(h_vec))
    z = rng.standard_normal((n, 2, w.size))
    noise = math.sqrt(noise_power / 2.0) * (z[:, 0] + 1j * z[:, 1])
    # np.vdot per row: a matrix product sums in another order
    return [complex(y + np.vdot(w, row)) for row in noise]


def oracle_readings(oracle, phases, n):
    """``n`` calls of ``oracle(phases)`` from one ``noise_terms(n)`` draw:
    bit for bit their readings (Python's abs and ** are the scalar
    oracle's; numpy's array forms round differently)."""
    combined = complex(np.vdot(weights_from_phases(phases), oracle.h_vec))
    scale = float(oracle.scale)
    return np.array([abs(combined + t) ** 2 / scale for t in oracle.noise_terms(n).tolist()])


PREFIX = 1000  # queries on which a block form is checked against its loop


class TestArrayResponse:
    def test_broadside_all_ones(self):
        a = response_matrix(ArrayGeometry(4, 3), 0.0, 0.7)
        np.testing.assert_allclose(a, np.ones((4, 3)), atol=1e-15)

    def test_single_element_phase(self):
        # element (2,1) at azimuth 30 deg, elevation 0, half-wavelength spacing
        a = response_matrix(ArrayGeometry(4, 4, 0.5), 30 * D2R, 0.0)
        assert a[1, 0] == pytest.approx(np.exp(1j * math.pi * 0.5), abs=1e-12)
        assert a[1, 0] == pytest.approx(1j, abs=1e-12)

    def test_unit_modulus(self):
        a = response_matrix(ArrayGeometry(8, 5), 0.4, 1.1)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)

    def test_corner_element_is_one(self):
        a = response_matrix(ArrayGeometry(8, 5), 0.6, -0.4)
        assert a[0, 0] == 1.0 + 0j

    def test_two_geometries_in_one_process(self):
        # interleaved sizes give each its own factors, with the bits of one
        # exponential per factor, and leave earlier factors as they were
        rng = np.random.default_rng(83)
        geoms = (ArrayGeometry(16, 8), ArrayGeometry(5, 12, 0.7))
        kept = []
        for i in range(60):
            geom = geoms[i % 2]
            u_r, u_c = rng.uniform(-1, 1, 2).tolist()
            if i % 5 == 0:
                u_r, u_c = -0.0, 0.0  # signed zeros
            k = 2.0 * math.pi * geom.spacing_over_wavelength
            r, c = plane_wave(geom, u_r, u_c)
            assert r.tobytes() == np.exp(1j * (k * u_r * np.arange(geom.rows))).tobytes()
            assert c.tobytes() == np.exp(1j * (k * u_c * np.arange(geom.cols))).tobytes()
            kept.append((r, c, r.copy(), c.copy()))
        for r, c, r0, c0 in kept:
            assert r.tobytes() == r0.tobytes() and c.tobytes() == c0.tobytes()


class TestChannelMatrix:
    def test_single_path_whole_wavelength(self):
        geom = ArrayGeometry(8, 4)
        link = SignalModel(nlos_gain=1.0, nlos_path_length=3 * WAVELENGTH)
        _, ray = link.channel(geom, [(0.0, 0.0)]).terms
        gain = ray[0] * math.sqrt(geom.size)
        assert gain == pytest.approx(1.0, abs=1e-12)  # three wavelengths turn no phase
        chan = stack([reference_ray(geom, 0.2, 0.1, gain)])
        expected = response_matrix(geom, 0.2, 0.1).flatten(order="F") / math.sqrt(geom.size)
        np.testing.assert_allclose(chan.vec()[0], expected, atol=1e-12)
        assert chan.power()[0] == pytest.approx(1.0, abs=1e-12)

    def test_two_path_frobenius_norm_brute_force(self):
        geom = ArrayGeometry(16, 8)
        paths = [  # (azimuth, elevation, gain)
            (0.1, 0.3, 1.0),
            (-0.25, 1.2, 0.5 * np.exp(0.7j) * np.exp(-2j * math.pi * 1.234 / WAVELENGTH)),
        ]
        rng = np.random.default_rng(8)
        for chosen in (paths[:1], paths):  # LOS alone, LOS plus the second ray
            chan = stack([reference_ray(geom, *p) for p in chosen])
            # brute-force oracle: accumulate each entry directly from the model
            h = np.zeros((geom.rows, geom.cols), dtype=complex)
            for m in range(geom.rows):
                for n in range(geom.cols):
                    for az, el, gain in chosen:
                        phase = (
                            2 * math.pi * geom.spacing_over_wavelength * math.sin(az)
                            * (m * math.cos(el) + n * math.sin(el))
                        )
                        h[m, n] += gain * np.exp(1j * phase) / math.sqrt(geom.size)
            total = float(np.sum(np.abs(h) ** 2))
            np.testing.assert_allclose(chan.vec()[0], h.flatten(order="F"), atol=1e-12)
            assert chan.power()[0] == pytest.approx(total, abs=1e-12)
            # the factored NRSP against the full-vector reference
            for _ in range(20):
                phases = rng.uniform(-math.pi, math.pi, geom.size)
                assert chan.nrsp(conj_weight_matrix(phases, geom))[0] == pytest.approx(
                    nrsp(phases, chan.vec()[0]), abs=1e-12
                )


class TestStackedChannel:
    @pytest.mark.parametrize("rows, cols", [(1, 1), (5, 3), (16, 8), (128, 64)])
    @pytest.mark.parametrize("link", [
        SignalModel(), SignalModel(nlos_gain=0.3, nlos_path_length=0.0123),
    ], ids=["los", "two-ray"])
    def test_each_arrival_reads_its_bits_alone(self, rows, cols, link):
        # factors, powers and readings of a stack of arrivals (signed-zero
        # azimuths among them) against each arrival's channel built alone
        geom = ArrayGeometry(rows, cols)
        rng = np.random.default_rng(100 * rows + cols)
        arrivals = [(0.0, 0.3), (-0.0, 0.3), (0.0, -0.0), (-0.0, 0.0), *zip(
            rng.uniform(-0.03, 0.03, 28).tolist(), rng.uniform(-math.pi, math.pi, 28).tolist()
        )]
        chan = link.channel(geom, arrivals)
        want = [reference_terms(link, geom, *arrival) for arrival in arrivals]
        for k, (g, r, c) in enumerate(chan.terms):
            assert {np.asarray(terms[k][0]).tobytes() for terms in want} == {
                np.asarray(g).tobytes()
            }
            assert r.tobytes() == np.array([terms[k][1] for terms in want]).tobytes()
            assert c.tobytes() == np.array([terms[k][2] for terms in want]).tobytes()
        assert chan.power().tobytes() == np.array([reference_power(t) for t in want]).tobytes()
        for phases in (np.zeros(geom.size), rng.uniform(-math.pi, math.pi, geom.size)):
            wbar = conj_weight_matrix(phases, geom)
            got = chan.nrsp(wbar)
            assert all(type(v) is float for v in got)
            assert np.array(got).tobytes() == np.array(
                [reference_nrsp(terms, wbar) for terms in want]
            ).tobytes()
        # the one-arrival stack that an epoch and a trial build their oracle on
        for arrival, terms in zip(arrivals[2:6], want[2:6]):
            [h] = link.channel(geom, [arrival]).vec()
            assert h.tobytes() == reference_vec(terms).tobytes()

    def test_zero_channel_raises(self):
        # two rays that coincide on a 1x1 array and cancel
        link = SignalModel(nlos_gain=1.0, nlos_path_length=WAVELENGTH / 2)
        chan = link.channel(ArrayGeometry(1, 1), [(0.1, 0.2), (0.0, 0.0)])
        assert chan.power().tolist() == [0.0, 0.0]
        with pytest.raises(ValueError, match="identically zero"):
            chan.nrsp(conj_weight_matrix(np.zeros(1), ArrayGeometry(1, 1)))


class TestSpatialSpectrum:
    def test_broadside_concentrates_at_origin(self):
        geom = ArrayGeometry(16, 8)
        [s] = spatial_spectrum(stack([reference_ray(geom, 0.0, 0.0)]))
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)
        mask = np.ones_like(s, dtype=bool)
        mask[0, 0] = False
        assert s[mask].max() < 1e-12

    def test_peak_bin_at_generic_doa(self):
        geom = ArrayGeometry(32, 16)
        az, el = 14 * D2R, 33 * D2R
        [s] = spatial_spectrum(stack([reference_ray(geom, az, el)]))
        got = np.unravel_index(np.argmax(s), s.shape)
        # stationary-phase prediction, verified by exhaustive search over bins
        u_r = geom.spacing_over_wavelength * math.sin(az) * math.cos(el)
        u_c = geom.spacing_over_wavelength * math.sin(az) * math.sin(el)
        want = (round(geom.rows * u_r) % geom.rows, round(geom.cols * u_c) % geom.cols)
        # fft convention: exp(+j phase) concentrates at the negated frequency
        want_conj = ((-want[0]) % geom.rows, (-want[1]) % geom.cols)
        assert got in (want, want_conj)

    def test_parseval(self):
        # a stack of four channels of three terms each, with arbitrary
        # complex factors, not only plane waves
        rng = np.random.default_rng(5)
        draw = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        chan = Channel(tuple((complex(draw(1)[0]), draw(4, 12), draw(4, 7)) for _ in range(3)))
        spectra = spatial_spectrum(chan)
        assert spectra.shape == (4, 12, 7)
        for spec, h, power in zip(spectra, chan.vec(), chan.power()):
            assert np.linalg.norm(spec) == pytest.approx(np.linalg.norm(h), abs=1e-10)
            assert np.linalg.norm(spec) ** 2 == pytest.approx(power, rel=1e-12)


class TestMatchedWeights:
    def test_broadside_zero_phases(self):
        np.testing.assert_array_equal(matched_weights(ArrayGeometry(4, 4), 0.0, 0.9), 0.0)

    def test_phases_match_response(self):
        geom = ArrayGeometry(8, 6)
        w = weights_from_phases(matched_weights(geom, 0.3, 1.0))
        np.testing.assert_allclose(
            w, response_matrix(geom, 0.3, 1.0).flatten(order="F"), atol=1e-12
        )

    def test_first_phase_zero(self):
        assert matched_weights(ArrayGeometry(16, 16), 0.5, -0.3)[0] == 0.0


class TestReceivedSignal:
    def test_noiseless_matched_magnitude(self):
        geom = ArrayGeometry(16, 8)
        h = los_vec(geom, 0.2, 0.4)
        w = matched_weights(geom, 0.2, 0.4)
        y = received_signal(w, h)
        assert abs(y) == pytest.approx(math.sqrt(geom.size), abs=1e-10)

    def test_orthogonal_steering_nulls(self):
        # steer to an exact DFT-grid direction away from the source
        geom = ArrayGeometry(16, 8)
        h = los_vec(geom, 0.0, 0.0)
        null_u = 1.0 / geom.rows  # one DFT bin off along rows
        az = math.asin(null_u / geom.spacing_over_wavelength)
        w = matched_weights(geom, az, 0.0)
        y = received_signal(w, h)
        assert abs(y) < 1e-10

class TestReceivedPower:
    def test_nonnegative(self):
        geom = ArrayGeometry(4, 2)
        oracle = PowerOracle(los_vec(geom), 1.0, np.random.default_rng(12))
        for _ in range(50):
            assert oracle(np.zeros(geom.size)) >= 0.0

    def test_expectation(self):
        geom = ArrayGeometry(8, 4)
        h = los_vec(geom, 0.05, 0.0)
        w = np.zeros(geom.size)
        noise_power = 0.1
        loop = PowerOracle(h, noise_power, np.random.default_rng(3))
        prefix = np.array([loop(w) for _ in range(PREFIX)])
        oracle = PowerOracle(h, noise_power, np.random.default_rng(3))
        draws = oracle_readings(oracle, w, 200_000)
        assert draws[:PREFIX].tobytes() == prefix.tobytes()
        # noise adds MN * noise_power to |w^H h|^2 before the MN ||h||^2 scale
        expected = nrsp(w, h) + noise_power / np.vdot(h, h).real
        assert draws.mean() == pytest.approx(expected, rel=0.02)


class TestNrsp:
    def test_matched_is_one(self):
        geom = ArrayGeometry(16, 8)
        for az, el in ((0.0, 0.0), (0.3, 0.5), (-0.8, 2.0), (1.0, -1.4)):
            h = los_vec(geom, az, el, gain=0.8 * np.exp(1.1j - 2j * math.pi * 0.0123 / WAVELENGTH))
            w = matched_weights(geom, az, el)
            assert nrsp(w, h) == pytest.approx(1.0, abs=1e-12)

    def test_broadside_zero_phase(self):
        geom = ArrayGeometry(8, 8)
        assert nrsp(np.zeros(geom.size), los_vec(geom)) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_invariance(self):
        geom = ArrayGeometry(8, 4)
        h = los_vec(geom, 0.2, 0.3)
        w = matched_weights(geom, 0.2, 0.3)
        assert nrsp(w + 1.234, h) == pytest.approx(nrsp(w, h), abs=1e-12)
        h2 = los_vec(geom, 0.2, 0.3, gain=np.exp(2.2j))
        assert nrsp(w, h2) == pytest.approx(nrsp(w, h), abs=1e-12)

    def test_monotone_decrease_with_offset(self):
        geom = ArrayGeometry(128, 64)
        w = np.zeros(geom.size)
        # first null along the row axis at asin(2/M / (d/lambda)) ~ 0.9 deg
        offsets = np.linspace(0.05, 0.85, 12)
        values = []
        for off in offsets:
            h = los_vec(geom, off * D2R, 0.0)
            values.append(nrsp(w, h))
        assert all(0.0 < v < 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


def phasor_arguments():
    """Finite phases of both signs from 1e-3 to 1e6 in magnitude, the
    signed zeros, the smallest subnormal and multiples of pi."""
    rng = np.random.default_rng(12)
    magnitudes = np.concatenate((
        np.logspace(-3, 6, 91),
        10.0 ** rng.uniform(-3, 6, 5000),
        math.pi * np.array([0.5, 1, 2, 3, 4, 7, 8, 100, 1000, 12345, 1e5]),
        [0.0, 5e-324],
    ))
    return np.concatenate((magnitudes, -magnitudes))


class TestUnitPhasor:
    """The rotations built from cos and sin against the complex exponential
    they replace, bit for bit: a platform whose float cos and sin are not
    the routines of its complex exp fails here instead of moving traces."""

    def test_weights_are_the_exponential(self):
        x = phasor_arguments()
        assert weights_from_phases(x).tobytes() == np.exp(1j * x).tobytes()
        assert weights_from_phases(list(x[:7])).tobytes() == np.exp(1j * x[:7]).tobytes()


class TestPowerOracle:
    @pytest.mark.parametrize("rows, cols, az, el", [(16, 8, 0.1, 0.3), (128, 64, 0.1, 0.2)],
                             ids=["16x8", "128x64"])
    def test_noiseless_matched_reads_one(self, rows, cols, az, el):
        # |w^H h|^2 = MN for a matched unit-norm channel, which the oracle
        # scales to 1
        geom = ArrayGeometry(rows, cols)
        h = los_vec(geom, az, el)
        w = matched_weights(geom, az, el)
        p = abs(received_signal(w, h)) ** 2
        assert p == pytest.approx(geom.size, rel=1e-10)
        oracle = PowerOracle(h, 0.0, np.random.default_rng(0))
        assert oracle(w) == pytest.approx(1.0, abs=1e-12)
        assert oracle.queries == 1

    def test_noise_statistics_match_vector_model(self):
        # scalar draw w^H n must match the explicit per-element vector model
        geom = ArrayGeometry(8, 4)
        h = los_vec(geom, 0.02, 0.0)
        w = np.zeros(geom.size)
        noise_power = 0.1
        scale = geom.size * np.vdot(h, h).real
        signals = received_signals(w, h, noise_power, np.random.default_rng(77), 100_000)
        b = oracle_readings(PowerOracle(h, noise_power, np.random.default_rng(78)), w, 100_000)
        a = np.array([abs(y) ** 2 / scale for y in signals])
        assert a.mean() == pytest.approx(b.mean(), rel=0.02)
        assert a.var() == pytest.approx(b.var(), rel=0.05)

    def test_noise_terms_are_the_per_query_draws(self):
        geom = ArrayGeometry(8, 4)
        h = los_vec(geom, 0.02, 0.1)
        block = PowerOracle(h, 0.1, np.random.default_rng(5))
        single = PowerOracle(h, 0.1, np.random.default_rng(5))
        terms = block.noise_terms(7)
        assert terms.dtype == complex and terms.shape == (7,)
        # sample_pair(0, 0) reads |noise|^2 / scale from the scalar draws
        assert [abs(t) ** 2 / block.scale for t in terms.tolist()] == [
            single.sample_pair(0j, 0j) for _ in range(7)
        ]
        assert block.queries == single.queries == 7
        assert block.rng.standard_normal() == single.rng.standard_normal()

    def test_probe_pair_and_move_match_from_scratch_queries(self):
        # a probe pair and a move read through combiner_terms and
        # noise_terms, as the simultaneous runners read them, against
        # from-scratch queries on the same noise stream
        geom = ArrayGeometry(16, 8)
        h = los_vec(geom, 0.01, 0.7, gain=0.8 * np.exp(0.4j))
        rng = np.random.default_rng(3)
        phases = rng.uniform(-3.0, 3.0, geom.size)
        delta = 0.05 * rng.standard_normal(geom.size)
        step = 0.3 * rng.standard_normal(geom.size)
        held = PowerOracle(h, 0.01, np.random.default_rng(4))
        fresh = PowerOracle(h, 0.01, np.random.default_rng(4))
        terms = held.combiner_terms(phases)
        assert abs(terms.sum()) ** 2 / held.scale == pytest.approx(fresh.true_nrsp(phases), abs=1e-14)
        e = np.exp(-1j * delta)
        n_plus, n_minus = held.noise_terms(2).tolist()
        p_plus = abs(terms @ e + n_plus) ** 2 / held.scale
        p_minus = abs(np.vdot(e, terms) + n_minus) ** 2 / held.scale
        assert p_plus == pytest.approx(fresh(phases + delta), rel=1e-12)
        assert p_minus == pytest.approx(fresh(phases - delta), rel=1e-12)
        terms *= np.exp(-1j * step)
        assert abs(terms.sum()) ** 2 / held.scale == pytest.approx(
            fresh.true_nrsp(phases + step), abs=1e-14
        )
        assert held.queries == fresh.queries == 2

    def test_one_query_noise_is_the_array_draw(self):
        # one query at a time reads the stream of one array draw, in query order
        h = los_vec(ArrayGeometry(8, 4), 0.02, 0.1)
        scalar = PowerOracle(h, 0.1, np.random.default_rng(17))
        block = PowerOracle(h, 0.1, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        for n in (1, 1, 3, 1, 2, 1, 1):
            terms = np.concatenate([scalar.noise_terms(1) for _ in range(n)])
            want = (scalar._noise_sigma * rng.standard_normal(2 * n)).view(complex)
            assert terms.tobytes() == block.noise_terms(n).tobytes() == want.tobytes()
        assert scalar.queries == block.queries == 10

    def test_noiseless_noise_terms_draw_nothing(self):
        geom = ArrayGeometry(4, 2)
        rng = np.random.default_rng(9)
        oracle = PowerOracle(los_vec(geom), 0.0, rng)
        assert oracle.noise_terms(5).tobytes() == np.zeros(5, dtype=complex).tobytes()
        assert oracle.queries == 5
        assert rng.standard_normal() == np.random.default_rng(9).standard_normal()

    def test_signal_model_noise_power(self):
        assert SignalModel(snr_db=20.0).noise_power == pytest.approx(0.01)
        assert SignalModel(snr_db=-10.0).noise_power == pytest.approx(10.0)

    def test_signal_model_rejects_non_finite_second_ray(self):
        for key in ("nlos_azimuth_offset", "nlos_elevation_offset", "nlos_path_length"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="finite"):
                    SignalModel(**{key: value})

    @pytest.mark.parametrize("path_length", [0.5, 0.0123, 0.0, -0.0, 7.5e-3])
    def test_signal_model_second_ray_gain_bits(self, path_length):
        # the second ray's gain has the bits of the direct expression, also
        # after a field is rebound (as config.set_key does), -0.0 included
        geom = ArrayGeometry(4, 2)

        def direct(gain, length):
            turn = np.exp(-2j * math.pi * length / WAVELENGTH)
            return (gain + 0j) * turn * (1 / math.sqrt(geom.size))

        def ray_gain(model):
            return model.channel(geom, [(0.1, 0.2)]).terms[1][0]

        model = SignalModel(nlos_gain=0.3)
        model.nlos_path_length = -path_length
        ray_gain(model)
        model.nlos_path_length = path_length
        for _ in range(2):
            assert ray_gain(model).tobytes() == direct(0.3, path_length).tobytes()
        model.nlos_gain = 0.7
        assert ray_gain(model).tobytes() == direct(0.7, path_length).tobytes()
