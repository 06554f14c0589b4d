"""Electrical fine alignment: stochastic perturbation of the analog phase
shifters against the noisy instant-power oracle.

Three optimizers share the oracle contract (two queries per iteration for
the simultaneous methods, 2*MN per sweep for the sequential baseline; see
``channel.PowerOracle``):

* ``run_assp`` - simultaneous perturbation whose probe mixes a
  deterministic element-distance structure (a radial ramp that swings the
  whole beam) with an isotropic Bernoulli vector.
* ``run_isotropic_spsa`` - the same machinery with the structure weight
  forced to zero; the classic fully isotropic baseline.
* ``run_sequential_perturbation`` - one shifter at a time, keeping the
  probe sign that increased measured power.

Each runner takes ``(initial_phases, oracle, params, rng, geom)`` and
returns the final phases and an ``OptimizerTrace`` whose row i is
iteration i + 1 (sweep i + 1 for the sequential walk) and whose
``budget`` is the runner's own limit: ``max_iters`` for ASSP and SPSA,
``seq_max_sweeps`` for the sequential walk.

No runner reads the channel, and every runner reads the oracle the same
way: it takes the oracle's ``combiner_terms`` conj(w) * h, carries and
turns them itself, and reads each query as ``abs(sum + noise) ** 2 /
scale``, its noise drawn from ``noise_terms``.  ASSP and SPSA take the
terms once and turn them by each probe and step (``_rotation``, whose
one-scalar form for the isotropic probe is known only here); the
sequential walk takes them once per sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    ArrayGeometry,
    PowerOracle,
    _product,
    _unit_phasor,
    conj_weight_matrix,
    plane_wave,
)


@dataclass
class AsspParams:
    gain: float = 0.7  # a: step-size scale
    structure_weight: float = 0.02  # b: structured probe scale
    isotropic_weight: float = 0.01  # c: Bernoulli probe scale
    gain_offset: float = 0.1  # zeta in the step-size denominator
    step_exponent: float = 0.602  # xi: step-size decay
    probe_exponent: float = 0.101  # Omega: probe decay
    max_iters: int = 100
    stop_epsilon: float = 1e-3  # relative best-power improvement threshold
    stop_window: int = 3  # consecutive stalled iterations before stopping
    seq_step: float = 0.25  # rad, sequential probe quantum
    seq_max_sweeps: int = 12

    def __post_init__(self):
        # the step size divides by gain_offset at k = 0
        if not (self.gain > 0 and self.isotropic_weight > 0 and self.gain_offset > 0):
            raise ValueError("gain, isotropic_weight and gain_offset must be positive")
        if self.structure_weight < 0:
            raise ValueError("structure_weight must be non-negative")
        if not (0 < self.probe_exponent <= 1 and 0 < self.step_exponent <= 1):
            raise ValueError("exponents must lie in (0, 1]")
        for name in ("max_iters", "stop_window", "seq_max_sweeps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def step_size(self, k: int) -> float:
        return self.gain / (self.gain_offset + k) ** self.step_exponent


def structure_matrix(geom: ArrayGeometry) -> np.ndarray:
    """Element distances from the reference corner, flattened column-major."""
    m = np.arange(geom.rows)[:, None]
    n = np.arange(geom.cols)[None, :]
    return np.sqrt(m * m + n * n, dtype=float).flatten(order="F")


def draw_perturbation(rng: np.random.Generator, size: int) -> tuple[int, np.ndarray]:
    """One Bernoulli draw: scalar xi and the +/-1 vector, each fair.

    Bit for bit ``rng.integers(0, 2)`` then ``rng.integers(0, 2, size)``
    mapped to +/-1, generator state included, the draws that fix the
    traces' stream: each fair bit is the top bit of one 32-bit word
    (Lemire's bounded draw with a range of 2 never rejects), and numpy's
    64-bit generators (PCG64, the default) hand out the low half of an
    output first, keeping the high half in their state (``has_uint32``,
    ``uinteger``).  The words are read here from ``random_raw`` (the
    half-word view assumes a little-endian machine), the buffered half
    first, and the buffer is written back as the two calls leave it.
    """
    bits = rng.bit_generator
    state = bits.state
    buffered = state["has_uint32"]
    need = size + 1 - buffered  # words to take from fresh 64-bit outputs
    words = bits.random_raw((need + 1) // 2).view(np.uint32)
    if buffered:
        xi, tops = state["uinteger"] >> 31, words[:size]
    else:
        xi, tops = int(words[0]) >> 31, words[1 : size + 1]
    state = bits.state
    state["has_uint32"] = need % 2
    state["uinteger"] = int(words[-1])  # stale when no half is left over
    bits.state = state
    return xi * 2 - 1, (tops >> 31) * 2.0 - 1.0


def perturbation_vector(
    structure: np.ndarray, xi: int, bernoulli: np.ndarray, params: AsspParams, k: int
) -> np.ndarray:
    """Per-element probe (b*D*xi + c*Delta) / (k+1)^Omega."""
    decay = (k + 1) ** params.probe_exponent
    return (
        params.structure_weight * structure * xi
        + params.isotropic_weight * bernoulli
    ) / decay


def aligned_gradient(p_plus: float, p_minus: float, delta: np.ndarray) -> np.ndarray:
    """Projection of the measured difference onto the probe direction:
    (p_plus - p_minus) * delta / (2 * mean(delta^2)).

    For pure +/-c Bernoulli probes this equals dividing the difference by
    the perturbation element by element (1/x = x/x^2 for x = +/-c); unlike
    that elementwise form it stays consistent when probe magnitudes differ
    per element.  Dividing elementwise amplifies the shared structured
    measurement into unbounded kicks on small-probe elements and diverges
    even without noise (``test_reciprocal_update_diverges_noiselessly``).
    """
    delta = np.asarray(delta, dtype=float)
    return (p_plus - p_minus) * delta / (2.0 * float(np.mean(delta * delta)))


@dataclass
class OptimizerTrace:
    """One row per iteration (per sweep for the sequential method): row i is
    iteration i + 1.  ``budget`` is the runner's own iteration or sweep
    limit, the score of a run that never reaches a threshold."""

    budget: int
    nrsp: list[float] = field(default_factory=list)
    queries: list[int] = field(default_factory=list)

    def append(self, nrsp: float, queries: int) -> None:
        self.nrsp.append(nrsp)
        self.queries.append(queries)

    def __len__(self):
        return len(self.nrsp)

    def first_reaching(self, threshold: float) -> int | None:
        """Row of the first nrsp at or above ``threshold``, or None."""
        return next((i for i, v in enumerate(self.nrsp) if v >= threshold), None)


def run_assp(
    initial_phases: np.ndarray,
    oracle: PowerOracle,
    params: AsspParams,
    rng: np.random.Generator,
    geom: ArrayGeometry,
) -> tuple[np.ndarray, OptimizerTrace]:
    """Iterate perturb/measure/update until the iteration budget or the stop
    rule fires (best observed power improved by less than stop_epsilon
    relative over stop_window consecutive iterations).

    A probe component that is exactly zero (b*D_i*xi and c*Delta_i cancel)
    needs no resample: ``aligned_gradient`` divides by mean(delta^2), never
    by delta_i, so that element only stays put for the iteration.
    """
    structure = structure_matrix(geom)
    phases = np.asarray(initial_phases, dtype=float).copy()
    terms = oracle.combiner_terms(phases)
    spin = np.empty_like(terms)
    trace = OptimizerTrace(params.max_iters)
    best, stalled = -math.inf, 0
    # without the structured term every probe and step component is one
    # magnitude on the Bernoulli signs: the probe, mean(delta^2) and the
    # step are worked as scalars, and the terms turn by one scalar
    # exponential.  Bit for bit the general formulas: b*D*xi is +/-0.0, so
    # adding it to +/-c is exact, multiplying by +/-1 is exact, and
    # (-x)*(-x) == x*x; a zero step keeps the sign of its Bernoulli entry.
    isotropic = params.structure_weight == 0.0
    for k in range(params.max_iters):
        xi, bern = draw_perturbation(rng, phases.size)
        if isotropic:
            mag = params.isotropic_weight / (k + 1) ** params.probe_exponent
            # np.mean's pairwise sum of n equal squares is not always the square
            msq = float(np.mean(np.full(bern.size, mag * mag)))
            delta, signs = bern * mag, bern
        else:
            delta, signs = perturbation_vector(structure, xi, bern, params, k), None
        e = _rotation(delta, signs, spin)
        n_plus, n_minus = oracle.noise_terms(2).tolist()
        p_plus = abs(terms @ e + n_plus) ** 2 / oracle.scale
        p_minus = abs(np.vdot(e, terms) + n_minus) ** 2 / oracle.scale
        if isotropic:
            step = bern * (params.step_size(k) * ((p_plus - p_minus) * mag / (2.0 * msq)))
        else:
            step = params.step_size(k) * aligned_gradient(p_plus, p_minus, delta)
        terms *= _rotation(step, signs, spin)
        phases += step
        trace.append(float(abs(terms.sum()) ** 2 / oracle.scale), oracle.queries)
        observed = max(p_plus, p_minus)
        improved = observed > best * (1.0 + params.stop_epsilon) or best == -math.inf
        stalled = 0 if improved else stalled + 1
        best = max(best, observed)
        if stalled >= params.stop_window:
            break
    return phases, trace


def _rotation(offset: np.ndarray, signs: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """exp(-1j * offset), written into the complex buffer ``out``: one
    full-array cos and sin, or with ``signs`` (the isotropic SPSA probe
    and step, whose offset is signs * offset[0] * signs[0]) one scalar
    exponential, bit for bit: cos is even and sin odd, so element i is
    cos(x) - j*signs[i]*sin(x) for x = offset[0] * signs[0]."""
    if signs is None:
        return _unit_phasor(offset, -1, out)
    p = np.exp(-1j * (offset[:1] * signs[:1]))
    out.real = p.real
    np.multiply(signs, p.imag, out=out.imag)
    return out


def run_isotropic_spsa(
    initial_phases: np.ndarray,
    oracle: PowerOracle,
    params: AsspParams,
    rng: np.random.Generator,
    geom: ArrayGeometry,
) -> tuple[np.ndarray, OptimizerTrace]:
    """Fully isotropic baseline: ASSP with the structure weight zeroed.

    Runs ``run_assp`` on the same random stream, so equal seeds give
    bit-identical traces to ``run_assp`` with b = 0.
    """
    return run_assp(initial_phases, oracle, replace(params, structure_weight=0.0), rng, geom)


# elements per block of the sequential walk: the block bounds its
# temporaries and the work redone after a wrong guess
_SEQ_CHUNK = 2048
# relative gap of two probe powers below which the walk's scalar
# arithmetic decides; the additive floor keeps subnormal powers out
_NEAR_TIE, _TINY = 1e-13, 1e-290
_NO_MOVE = complex(-0.0, -0.0)  # x + (-0.0) == x for every x, -0.0 included


def _walk_block(
    total: complex, c: np.ndarray, noise: np.ndarray,
    rot_plus: complex, rot_minus: complex, scale: float,
) -> tuple[np.ndarray, complex]:
    """Moves (+1, -1 or 0) of the walk over the block's combiner terms
    ``c`` from the running sum ``total``, and the running sum after the
    block; ``noise`` holds each element's plus and minus noise in turn."""
    size = c.size
    neg = -c
    turned_plus, turned_minus = _product(c, rot_plus), _product(c, rot_minus)
    noise_plus, noise_minus = noise[0::2], noise[1::2]
    moves = np.zeros(size)
    seq = np.empty(2 * size + 1, dtype=complex)
    lo = 0
    while lo < size:
        # running sums under the guessed moves of lo.. ; exact up to the
        # first wrong guess, since every earlier sum matches the walk's
        guess = moves[lo:]
        n = size - lo
        seq[0] = total
        seq[1 : 2 * n : 2] = np.where(guess == 0, _NO_MOVE, neg[lo:])
        seq[2 : 2 * n + 1 : 2] = np.where(
            guess > 0, turned_plus[lo:], np.where(guess < 0, turned_minus[lo:], _NO_MOVE)
        )
        sums = np.cumsum(seq[: 2 * n + 1])[::2]
        base = sums[:-1] - c[lo:]
        plus = base + turned_plus[lo:]
        minus = base + turned_minus[lo:]
        p_plus = np.abs(plus + noise_plus[lo:]) ** 2 / scale
        p_minus = np.abs(minus + noise_minus[lo:]) ** 2 / scale
        gap = p_plus - p_minus
        decided = np.sign(gap)
        for k in np.flatnonzero(~(np.abs(gap) > _NEAR_TIE * np.maximum(p_plus, p_minus) + _TINY)):
            exact_plus = abs(complex(plus[k] + noise_plus[lo + k])) ** 2 / scale
            exact_minus = abs(complex(minus[k] + noise_minus[lo + k])) ** 2 / scale
            decided[k] = (exact_plus > exact_minus) - (exact_minus > exact_plus)
        wrong = decided != moves[lo:]
        moves[lo:] = decided
        j = int(np.argmax(wrong))
        if not wrong[j]:
            return moves, complex(sums[-1])
        total = complex((plus if decided[j] > 0 else minus if decided[j] < 0 else sums)[j])
        lo += j + 1
    return moves, total


def run_sequential_perturbation(
    initial_phases: np.ndarray,
    oracle: PowerOracle,
    params: AsspParams,
    rng: np.random.Generator,
    geom: ArrayGeometry,
) -> tuple[np.ndarray, OptimizerTrace]:
    """Coordinate-wise baseline: probe each shifter +/-seq_step in turn and
    keep the sign that increased measured power.

    One trace row per full sweep (2*MN oracle queries).  Element i's probes
    read |base + c_i*rot + noise|^2 / scale, with c_i its term of the
    combiner sum (``PowerOracle.combiner_terms`` at the start of each
    sweep) and base the running sum less c_i, as
    ``PowerOracle.sample_pair`` reads them; a block of _SEQ_CHUNK elements
    draws its noise in one ``noise_terms`` call.

    One probe moves the running sum by about 1/MN of its size, so a block
    is decided by checked speculation (``_walk_block``): guess its moves,
    form every running sum under the guess with one ``np.cumsum`` over
    (total, -c_0, c_0*rot_0, -c_1, ...), decide every element from those
    sums, and keep the decisions up to and including the first that
    differs from its guess, whose sums were all the walk's own; the later
    decisions are the next guess.  The walk's bits are kept: cumsum adds
    in order, as the walk does; c*rot takes Python's complex product
    order; an element that stays put adds -0.0 twice, which leaves a sum
    unchanged; and where two probe powers lie within a relative 1e-13,
    the walk's scalar ``abs(...) ** 2 / scale`` decides, so that numpy's
    rounding of abs, power and division cannot flip a decision.
    """
    phases = np.asarray(initial_phases, dtype=float).copy()
    size = phases.size
    trace = OptimizerTrace(params.seq_max_sweeps)
    step = params.seq_step
    rot_plus = complex(np.exp(-1j * step))
    rot_minus = complex(np.exp(1j * step))
    scale = float(oracle.scale)
    for _ in range(params.seq_max_sweeps):
        contrib = oracle.combiner_terms(phases)
        total = complex(contrib.sum())
        for start in range(0, size, _SEQ_CHUNK):
            stop = min(start + _SEQ_CHUNK, size)
            noise = oracle.noise_terms(2 * (stop - start))
            moves, total = _walk_block(total, contrib[start:stop], noise, rot_plus, rot_minus, scale)
            walked = phases[start:stop]
            phases[start:stop] = np.where(moves == 0, walked, walked + moves * step)
        trace.append(oracle.true_nrsp(phases), oracle.queries)
    return phases, trace


# the one method registry: config validation, the simulator and the sweep
# all look runners up here
RUNNERS = {
    "assp": run_assp,
    "spsa": run_isotropic_spsa,
    "sequential": run_sequential_perturbation,
}


# zero-padding factor of fit_doa's FFT grid along each axis
_FFT_PAD = 4


def fit_doa(phases: np.ndarray, geom: ArrayGeometry) -> tuple[float, float]:
    """Fit the converged phase vector to the plane-wave model, least squares
    in the complex domain.

    The peak bin of the zero-padded 2-D FFT of exp(j*phases) locates the
    dominant plane-wave component; Newton refinement on the correlation
    power polishes the two direction sines.  Returns (azimuth, elevation)
    of the fitted arrival.  Working on exp(j*phases) rather than raw phases
    keeps the fit immune to 2*pi wraps.

    The peak is the bin ``np.argmax(np.abs(np.fft.fft2(...)))`` picks, found
    without the full grid.  One pass along the rows makes the first stage
    of ``fft2`` (same bits).  A column's second-pass outputs are bounded by
    the L1 norm of its first-pass column; pocketfft's rounding is near
    log2(4 * rows) * eps of that norm, so a 1e-9 slack keeps the bound safe
    by orders of magnitude, and a column whose bound is below one computed
    peak can neither hold the maximum nor tie it.  Only the other columns
    get their second pass, in ascending order, so ties go to the smallest
    (row, column): the row-major-first bin of the full grid.  Each Newton
    step makes the plane waves at u and u +/- h on both axes in one stacked
    call, and shares the row product r0 @ wbar between f0 and the column
    probes.
    """
    wbar = conj_weight_matrix(phases, geom)
    n_rows, n_cols = _FFT_PAD * geom.rows, _FFT_PAD * geom.cols
    s1 = np.fft.fft(np.conj(wbar), n=n_cols, axis=1)
    bound = np.abs(s1).sum(axis=0) * (1.0 + 1e-9)
    best = np.abs(np.fft.fft(s1[:, np.argmax(bound)], n=n_rows)).max()
    keep = np.flatnonzero(bound >= best)
    # on noise-like phases every column qualifies: transform s1, not a copy
    spec = np.abs(np.fft.fft(s1 if keep.size == n_cols else s1[:, keep], n=n_rows, axis=0))
    row, col = np.unravel_index(np.argmax(spec), spec.shape)
    fr = row / n_rows
    fc = keep[col] / n_cols
    if fr > 0.5:
        fr -= 1.0
    if fc > 0.5:
        fc -= 1.0
    # model exp(+2pi i d u m) against fft kernel exp(-2pi i f m): peak at f = d*u
    d = geom.spacing_over_wavelength
    u_r, u_c = fr / d, fc / d

    # |conj(r)^T W conj(c)|^2 = |(r^T wbar) c|^2 against the model r c^T;
    # plane_wave builds r from u_r alone and c from u_c alone
    h = 1e-6
    probe = np.array([0.0, h, -h])
    for _ in range(60):
        (r0, rp, rm), (c0, cp, cm) = plane_wave(geom, u_r + probe, u_c + probe)
        v0 = r0 @ wbar
        f0 = abs(v0 @ c0) ** 2
        r_plus, r_minus = abs(rp @ wbar @ c0) ** 2, abs(rm @ wbar @ c0) ** 2
        c_plus, c_minus = abs(v0 @ cp) ** 2, abs(v0 @ cm) ** 2
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
    radial = math.hypot(u_r, u_c)
    azimuth = math.asin(min(1.0, radial))
    elevation = math.atan2(u_c, u_r)
    return azimuth, elevation
