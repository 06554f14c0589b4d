"""Standalone electrical-alignment convergence experiments.

Each trial starts the analog weights at zero phase against a link
(``SignalModel``) whose LOS ray arrives from a per-axis angular offset
(the post-mechanical residual) and runs one optimizer to termination.
Statistics over seeds feed the sweep command and the acceptance
experiments: iterations to a normalized power threshold (counting the
budget when never reached), final normalized power, oracle queries, and
the fitted arrival-angle error against the LOS arrival.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import electrical as el
from .channel import ArrayGeometry, PowerOracle, SignalModel
from .config import D2R
from .electrical import AsspParams
from .frames import wrap_angle

# the registry itself, not a copy: an entry swapped in it is what
# ``run_trial`` calls
METHOD_RUNNERS = el.RUNNERS


class TrialResult(NamedTuple):
    iterations_to_threshold: int
    iterations_run: int  # trace rows: iterations (sweeps) before the run stopped
    reached: bool
    final_nrsp: float
    queries: int
    queries_to_threshold: int
    fit_azimuth_err_deg: float
    fit_elevation_err_deg: float


class ConvergenceStats(NamedTuple):
    method: str
    median_iterations: float
    median_iterations_run: float
    reach_fraction: float
    median_final_nrsp: float
    median_queries: float
    median_queries_to_threshold: float
    median_fit_azimuth_err_deg: float
    median_fit_elevation_err_deg: float


def offset_arrival(offset_deg: float = 0.3) -> tuple[float, float]:
    """(azimuth, elevation) of a LOS ray arriving ``offset_deg`` off-normal
    along each array axis, which must lie in (-45, 45) degrees (``ValueError``
    otherwise, nan included): at 45 the arrival grazes the array.

    The two direction sines are sin(offset) each, i.e. the polar arrival
    angle is asin(sqrt(2)*sin(offset)) oriented at 45 degrees.
    """
    if not -45.0 < offset_deg < 45.0:
        raise ValueError(f"offset_deg must lie in (-45, 45) degrees, got {offset_deg!r}")
    u = math.sin(offset_deg * D2R)
    return math.asin(math.hypot(u, u)), math.atan2(u, u)


def run_trial(
    method: str,
    geom: ArrayGeometry,
    snr_db: float,
    seed: int,
    params: AsspParams,
    offset_deg: float = 0.3,
    threshold: float = 0.99,
    signal: SignalModel = SignalModel(),
) -> TrialResult:
    """One trial on the link ``signal``, with ``snr_db`` as its SNR."""
    link = replace(signal, snr_db=snr_db)
    true_az, true_el = offset_arrival(offset_deg)
    [h_vec] = link.channel(geom, [(true_az, true_el)]).vec()
    # str hash is process-randomized; derive the stream tag from the bytes
    method_tag = sum(method.encode())
    master = np.random.SeedSequence((seed, method_tag))
    noise_seq, perturb_seq = master.spawn(2)
    oracle = PowerOracle(h_vec, link.noise_power, np.random.default_rng(noise_seq))
    runner = METHOD_RUNNERS[method]
    phases, trace = runner(
        np.zeros(geom.size), oracle, params, np.random.default_rng(perturb_seq), geom
    )
    # a run that never reaches the threshold scores the runner's budget
    first = trace.first_reaching(threshold)
    reached = first is not None
    fit_az, fit_el = el.fit_doa(phases, geom)
    return TrialResult(
        iterations_to_threshold=first + 1 if reached else trace.budget,
        iterations_run=len(trace),
        reached=reached,
        final_nrsp=trace.nrsp[-1],
        queries=oracle.queries,
        queries_to_threshold=trace.queries[first if reached else -1],
        fit_azimuth_err_deg=abs(fit_az - true_az) / D2R,
        fit_elevation_err_deg=abs(wrap_angle(fit_el - true_el)) / D2R,
    )


def convergence_stats(
    method: str,
    geom: ArrayGeometry,
    snr_db: float,
    seeds: int,
    params: AsspParams,
    offset_deg: float = 0.3,
    threshold: float = 0.99,
    signal: SignalModel = SignalModel(),
) -> ConvergenceStats:
    trials = [
        run_trial(method, geom, snr_db, seed, params, offset_deg, threshold, signal)
        for seed in range(seeds)
    ]
    med = lambda xs: float(np.median(xs))
    return ConvergenceStats(
        method=method,
        median_iterations=med([t.iterations_to_threshold for t in trials]),
        median_iterations_run=med([t.iterations_run for t in trials]),
        reach_fraction=float(np.mean([t.reached for t in trials])),
        median_final_nrsp=med([t.final_nrsp for t in trials]),
        median_queries=med([t.queries for t in trials]),
        median_queries_to_threshold=med([t.queries_to_threshold for t in trials]),
        median_fit_azimuth_err_deg=med([t.fit_azimuth_err_deg for t in trials]),
        median_fit_elevation_err_deg=med([t.fit_elevation_err_deg for t in trials]),
    )
