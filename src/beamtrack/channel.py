"""Ka-band multipath channel of the uniform planar array, kept factored;
the link that builds it and sets its noise (``SignalModel``), matched analog
weights, spatial spectrum, the normalized received power, and the noisy
power oracle of the electrical stage.

Every power reading is normalized to the matched-beam maximum MN*||h||^2,
and the noise variance is set relative to a unit-gain LOS ray, so the
transmitted symbol cancels from the blind reading and the LOS gain is the
unit of every other path gain.  The carrier is fixed at ``WAVELENGTH``;
the array spacing is given in wavelengths, so the carrier enters only
through the carrier phase of a path length.

Element (m, n) of the response to a plane wave carries phase
2*pi*(d/lambda) * (m u_r + n u_c), with direction sines u_r = sin(az)
cos(el) and u_c = sin(az) sin(el); ``az`` is the polar angle off the
array normal and ``el`` the orientation around it.  The response is
therefore the outer product r c^T of a row vector and a column vector
(``plane_wave``), and a ``Channel`` is a sum of such terms, one per path,
for a stack of arrivals at once.  Its power and the received power of a
beam come from the short factors; the MN vector is built only where the
oracle needs it.  Matrices are flattened column-major everywhere a vector
form is needed, and beam weights are stored as phases so unit modulus
holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

WAVELENGTH = 0.015  # m, the Ka-band carrier


@dataclass
class ArrayGeometry:
    rows: int = 128
    cols: int = 64
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one row and column")
        if self.spacing_over_wavelength <= 0:
            raise ValueError("spacing_over_wavelength must be positive")

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass
class SignalModel:
    """The link of the blind power reading: its SNR, relative to a
    unit-gain LOS ray and a unit-power symbol, and the optional weak second
    ray, offset from the LOS arrival and delayed by a path length."""

    snr_db: float = 20.0
    nlos_gain: float = 0.0  # magnitude of the second ray; 0 disables
    nlos_azimuth_offset: float = math.radians(2.0)
    nlos_elevation_offset: float = math.radians(30.0)
    nlos_path_length: float = 0.5  # m

    def __post_init__(self):
        if not self.snr_db >= -300:  # 10^(-snr/10) overflows near -3080 dB
            raise ValueError("snr_db must be at least -300")
        if not self.nlos_gain >= 0:
            raise ValueError("nlos_gain must be non-negative")
        if not all(map(math.isfinite, (
            self.nlos_azimuth_offset, self.nlos_elevation_offset, self.nlos_path_length,
        ))):
            raise ValueError("nlos offsets and path length must be finite")

    @property
    def noise_power(self) -> float:
        """Per-element noise variance from the configured SNR."""
        return 10.0 ** (-self.snr_db / 10.0)

    def channel(self, geom: ArrayGeometry, arrivals) -> Channel:
        """The channels of the LOS ray arriving from each (azimuth, elevation)
        of ``arrivals``, stacked in their order, plus the second ray when
        ``nlos_gain`` > 0, its gain turned once by the carrier phase of
        ``nlos_path_length``."""
        scale = 1.0 / math.sqrt(geom.size)
        azimuth, elevation = np.array(arrivals, dtype=float).T
        terms = [((1.0 + 0.0j) * scale, *plane_wave(geom, *direction_sines(azimuth, elevation)))]
        if self.nlos_gain > 0.0:
            turn = np.exp(-2j * math.pi * self.nlos_path_length / WAVELENGTH)
            terms.append(((self.nlos_gain + 0j) * turn * scale, *plane_wave(geom, *direction_sines(
                azimuth + self.nlos_azimuth_offset, elevation + self.nlos_elevation_offset,
            ))))
        return Channel(tuple(terms))


def direction_sines(azimuth, elevation) -> tuple:
    """(u_r, u_c) = sin(az) * (cos(el), sin(el)), along the row and column
    axes, of floats or of arrays of one shape."""
    s = np.sin(azimuth)
    return s * np.cos(elevation), s * np.sin(elevation)


def plane_wave(geom: ArrayGeometry, u_r, u_c) -> tuple[np.ndarray, np.ndarray]:
    """Unit-modulus factors (r, c) of the responses to plane waves with
    direction sines (u_r, u_c), floats or arrays of one shape: element (m, n)
    of each response is r[..., m] * c[..., n].  One cos and sin pass makes
    both, bit for bit the complex exponential of 1j * k u_r m and 1j * k u_c n."""
    k = 2.0 * math.pi * geom.spacing_over_wavelength
    e = np.empty((*np.shape(u_r), geom.rows + geom.cols), dtype=complex)
    x = e.imag  # the phases, which _unit_phasor turns into the factors in place
    np.multiply.outer(k * u_r, np.arange(geom.rows, dtype=float), out=x[..., :geom.rows])
    np.multiply.outer(k * u_c, np.arange(geom.cols, dtype=float), out=x[..., geom.rows:])
    _unit_phasor(x, 1, e)
    return e[..., :geom.rows], e[..., geom.rows:]


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """conj(x[i]) @ y[i] for each row i of two stacks: one BLAS dot per
    row, bit for bit ``np.vdot`` of the pair."""
    return (np.conj(x)[:, None, :] @ y[:, :, None]).ravel()


def _product(x, y) -> np.ndarray:
    """x * y of complex arrays (or a complex number and an array), rounded
    as the scalar product of numpy or Python rounds it: numpy's array
    product may fuse a multiply and an add into one rounding."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


class Channel(NamedTuple):
    """A stack of multipath channels, one per arrival, each h = sum over
    paths of g * r c^T, kept as the (g, r, c) terms of its paths.  g carries
    the path gain (with its carrier phase) and the 1/sqrt(MN) array
    normalization, and is the same down the stack; r and c are the (n,
    rows) and (n, cols) factors of the n channels.  Each channel reads the
    bits it would read alone: the inner products are the BLAS calls that
    ``r @ wbar @ c`` and ``np.vdot`` make for one channel, one per channel."""

    terms: tuple[tuple[complex, np.ndarray, np.ndarray], ...]

    def vec(self) -> np.ndarray:
        """The (n, MN) channel vectors, column-major."""
        return sum(
            g * (c[:, :, None] * r[:, None, :]).reshape(len(r), -1) for g, r, c in self.terms
        )

    def power(self) -> np.ndarray:
        """||h||^2 of each channel, from the factors: the sum over path pairs
        (p, q) of g_p conj(g_q) (r_q^H r_p) (c_q^H c_p)."""
        return sum(
            _product(_product(gp * np.conj(gq), _dots(rq, rp)), _dots(cq, cp))
            for gp, rp, cp in self.terms
            for gq, rq, cq in self.terms
        ).real

    def nrsp(self, wbar: np.ndarray) -> list[float]:
        """``nrsp`` of each channel under the weights whose conjugated matrix
        is ``wbar`` (``conj_weight_matrix``): |sum g r^T wbar c|^2 / (MN ||h||^2),
        each squared magnitude taken in Python floats, which numpy's array
        abs and square do not round alike."""
        denoms = wbar.size * self.power()
        if not denoms.all():
            raise ValueError("channel vector is identically zero")
        sums = sum(
            _product(g, ((r[:, None, :] @ wbar) @ c[:, :, None]).ravel()) for g, r, c in self.terms
        )
        return [abs(z) ** 2 / d for z, d in zip(sums.tolist(), denoms.tolist())]


def spatial_spectrum(chan: Channel) -> np.ndarray:
    """Magnitudes of the 2-D unitary DFT of each channel matrix of the
    stack, (n, rows, cols), taken one factor at a time.

    Unitary normalization preserves total energy, so the Frobenius norm of
    the output equals ||h||.
    """
    return np.abs(sum(
        g * (np.fft.fft(r, norm="ortho")[:, :, None] * np.fft.fft(c, norm="ortho")[:, None, :])
        for g, r, c in chan.terms
    ))


def matched_weights(geom: ArrayGeometry, azimuth: float, elevation: float) -> np.ndarray:
    """Phase-shifter settings matched to a plane wave from (azimuth, elevation).

    Returns the MN phase vector (column-major) of its response, wrapped to
    (-pi, pi]; the implied weights are exp(1j*phases).
    """
    r, c = plane_wave(geom, *direction_sines(azimuth, elevation))
    return np.angle(np.outer(c, r).ravel())


def _unit_phasor(x: np.ndarray, sign: int, out: np.ndarray) -> np.ndarray:
    """exp(sign * 1j * x) for finite x and sign +1 or -1, written into the
    complex array ``out`` from cos and sin, without a complex temporary.

    The complex exponential of sign * 1j * x is cos and sin of its
    imaginary part, which is 0.0 + x for sign +1 (a -0.0 reads +0.0) and
    -x for sign -1.  That part is built in ``out.imag`` and both functions
    take it (``x`` may be ``out.imag`` itself), so the result is bit for
    bit ``np.exp(sign * 1j * x)`` where numpy's float cos and sin are the
    routines its complex exp calls, as the tests check."""
    arg = out.imag
    if sign > 0:
        np.add(x, 0.0, out=arg)
    else:
        np.negative(x, out=arg)
    np.cos(arg, out=out.real)
    np.sin(arg, out=arg)
    return out


def weights_from_phases(phases: np.ndarray) -> np.ndarray:
    """exp(1j * phases), the unit-modulus weights of a phase setting."""
    x = np.asarray(phases, dtype=float)
    return _unit_phasor(x, 1, np.empty(x.shape, dtype=complex))


def conj_weight_matrix(phases: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """conj(exp(1j*phases)) as the (rows, cols) matrix of the column-major
    phase vector: the wbar of ``Channel.nrsp``."""
    return np.conj(weights_from_phases(phases)).reshape(geom.rows, geom.cols, order="F")


def nrsp(phases: np.ndarray, h_vec: np.ndarray) -> float:
    """Normalized received signal power.

    Noiseless captured power over the matched-beam maximum MN*||h||^2; equals
    1 exactly when the weights are matched to a single-path channel.
    """
    h = np.asarray(h_vec)
    w = weights_from_phases(phases)
    denom = h.size * np.vdot(h, h).real
    if denom == 0.0:
        raise ValueError("channel vector is identically zero")
    return float(abs(np.vdot(w, h)) ** 2 / denom)


@dataclass
class PowerOracle:
    """Noisy instant-power oracle for the electrical optimizers.

    A query reads |w^H h + w^H n|^2 / (MN*||h||^2): the instantaneous
    received power over the matched-beam maximum ``scale`` = MN*||h||^2, so
    a perfectly aligned noiseless measurement reads 1.0.  The measurement
    noise is the exact scalar projection of the per-element noise vector
    through the unit-modulus combiner: w^H n is circular Gaussian with
    variance MN*noise_power for every phase setting, so it is drawn
    directly (one complex draw per query instead of MN).

    The oracle only measures; it keeps no state of a run but its query
    count.  Every runner reads it the same way: it takes the per-element
    terms conj(w) * h of the combiner sum (``combiner_terms``), carries
    and turns them itself, and reads each query as
    ``abs(combined + noise) ** 2 / scale`` with the noise drawn, and the
    query counted, by ``noise_terms`` in query order.  ``__call__`` (from
    scratch) and ``sample_pair`` (a combiner sum plus an increment) are
    the one-query forms of that reading, and ``true_nrsp`` the noiseless
    diagnostic; the tests and the benchmark's tracer use them, no runner
    does.
    """

    h_vec: np.ndarray
    noise_power: float
    rng: np.random.Generator
    queries: int = 0
    scale: float = field(init=False)
    _noise_sigma: float = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h_vec)
        self.scale = h.size * np.vdot(h, h).real
        if self.scale == 0.0:
            raise ValueError("channel vector is identically zero")
        self._noise_sigma = math.sqrt(h.size * self.noise_power / 2.0)

    def __call__(self, phases: np.ndarray) -> float:
        combined = np.vdot(weights_from_phases(phases), self.h_vec)
        return self._measure(combined, *self.noise_terms(1).tolist())

    def sample_pair(self, base: complex, delta: complex) -> float:
        """Power of an incrementally adjusted combiner sum (base + delta),
        same scaling and noise law."""
        return self._measure(base + delta, *self.noise_terms(1).tolist())

    def noise_terms(self, n: int) -> np.ndarray:
        """Additive noise of the next ``n`` queries, as a complex array,
        counted as ``n`` queries: 2n normals in one draw, real then
        imaginary part of each query, which are the 2n scalar draws of n
        queries.  A query reads ``abs(combined + noise) ** 2 / scale``."""
        self.queries += n
        if self.noise_power > 0.0:
            return (self._noise_sigma * self.rng.standard_normal(2 * n)).view(complex)
        return np.zeros(n, dtype=complex)

    def combiner_terms(self, phases: np.ndarray) -> np.ndarray:
        """The per-element terms conj(w) * h of the combiner sum w^H h."""
        return np.conj(weights_from_phases(phases)) * self.h_vec

    def _measure(self, combined: complex, noise: complex) -> float:
        return abs(combined + noise) ** 2 / self.scale

    def true_nrsp(self, phases: np.ndarray) -> float:
        return nrsp(phases, self.h_vec)
