"""Reference computations the workload checks compare the program against.

Everything here is written from the model equations, not from beamtrack:
the sinusoid truth profile, the separable plane-wave channel of a uniform
planar array, the Dirichlet-kernel normalized received power of the
zero-phase beam, and the oracle query-count laws of the optimizers.
"""

from __future__ import annotations

import math

import numpy as np

D2R = math.pi / 180.0

# The reference flight profile, (amplitude_deg, frequency_hz, phase_deg)
# terms per axis, as written in the workloads' scenario text.
PROFILE_DEG = {
    "yaw": [(10.0, 0.10, 0.0)],
    "pitch": [(5.0, 0.20, 90.0)],
    "roll": [(8.0, 0.15, 200.0)],
}

# Oracle queries: two per simultaneous-perturbation iteration (one probe
# each side), two per element per sequential sweep.
QUERIES_PER_ITER = 2


def sequential_queries_per_sweep(size: int) -> int:
    return 2 * size


def profile_text() -> str:
    """The [profile] section that states PROFILE_DEG."""
    lines = ["[profile]"]
    for axis, terms in PROFILE_DEG.items():
        lines.append(f"{axis} = " + ", ".join(f"{a!r} @ {f!r} @ {p!r}" for a, f, p in terms))
    return "\n".join(lines) + "\n"


def profile_deg(axis: str, t: np.ndarray) -> np.ndarray:
    """Truth angle of one axis in degrees: sum of amp*sin(2*pi*f*t + phase)."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for amp, freq, phase in PROFILE_DEG[axis]:
        total += amp * np.sin(2.0 * math.pi * freq * t + phase * D2R)
    return total


def wrap_deg(angle: np.ndarray) -> np.ndarray:
    """Wrap degrees to (-180, 180]."""
    r = np.mod(np.asarray(angle, dtype=float) + 180.0, 360.0)
    r = np.where(r <= 0.0, r + 360.0, r)
    return r - 180.0


def offset_direction_sines(offset_deg: float) -> tuple[float, float]:
    """Direction sines of an arrival ``offset_deg`` off-normal on each axis."""
    u = math.sin(offset_deg * D2R)
    return u, u


def plane_wave_factors(
    rows: int, cols: int, spacing: float, u_r: float, u_c: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row and column factors r, c of the unit-gain plane wave h[m, n] = r[m] c[n].

    Element (m, n) carries phase 2*pi*spacing*(m*u_r + n*u_c); the
    1/sqrt(MN) normalization is split evenly over the two factors.
    """
    r = np.exp(2j * math.pi * spacing * u_r * np.arange(rows)) / math.sqrt(rows)
    c = np.exp(2j * math.pi * spacing * u_c * np.arange(cols)) / math.sqrt(cols)
    return r, c


def nrsp_separable(phases: np.ndarray, r: np.ndarray, c: np.ndarray) -> float:
    """|w^H h|^2 / (MN ||h||^2) for weights exp(j*phases), column-major,
    against the separable channel r c^T."""
    rows, cols = r.size, c.size
    w = np.exp(1j * np.asarray(phases, dtype=float)).reshape(rows, cols, order="F")
    y = r @ np.conj(w) @ c
    norm2 = float(np.vdot(r, r).real * np.vdot(c, c).real)
    return float(abs(y) ** 2 / (rows * cols * norm2))


def dirichlet(n: int, x: float) -> float:
    """|sum_{k<n} exp(j*k*x)| = |sin(n x / 2) / sin(x / 2)|."""
    half = x / 2.0
    if abs(math.sin(half)) < 1e-300:
        return float(n)
    return abs(math.sin(n * half) / math.sin(half))


def zero_phase_nrsp(rows: int, cols: int, spacing: float, u_r: float, u_c: float) -> float:
    """NRSP of the all-zero phase setting: the product of two Dirichlet
    kernels, (D_M(a) D_N(b) / MN)^2 with a = 2*pi*d*u_r, b = 2*pi*d*u_c."""
    a = 2.0 * math.pi * spacing * u_r
    b = 2.0 * math.pi * spacing * u_c
    return (dirichlet(rows, a) * dirichlet(cols, b) / (rows * cols)) ** 2
