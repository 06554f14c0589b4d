"""Why fuse sensors at all?

Runs 60 seconds of the default sinusoidal flight profile through three
attitude pipelines: gyro dead reckoning alone, the instantaneous
accelerometer/GPS angles alone, and the quaternion Kalman fusion of
both.  Prints their error statistics side by side.
"""

import math

import numpy as np

from beamtrack import harness, mechanical, sensors
from beamtrack.config import default_scenario
from beamtrack.frames import Attitude

D2R = math.pi / 180.0

cfg = default_scenario()
rng = np.random.default_rng(2)
t_s = cfg.sensors.sample_period
steps = int(60.0 / t_s)

euler = mechanical.pointing_euler(cfg.geo)
start, *run = harness.blocks(cfg, euler, rng, steps)
gyro_only = Attitude(*start.est[0])

errors = {"gyro-only": [], "instantaneous": [], "fused": []}
for block in run:
    pr = block.pitch_roll
    instantaneous = zip(block.psi_m.tolist(), pr.pitch.tolist(), pr.roll.tolist())
    for truth, omega, measured, est in zip(
        block.truth.tolist(), block.omega_m, instantaneous, block.est
    ):
        gyro_only = sensors.gyro_integrate(gyro_only, omega, t_s)
        errors["gyro-only"].append(harness.attitude_error(gyro_only, truth))
        errors["instantaneous"].append(harness.attitude_error(measured, truth))
        errors["fused"].append(harness.attitude_error(est, truth))

print(f"{'pipeline':>14} {'rmse [deg]':>11} {'max [deg]':>10} {'<=0.5 deg':>10}")
for name, errs in errors.items():
    e = np.abs(np.array(errs)) / D2R
    rmse = float(np.sqrt((e**2).mean()))
    print(f"{name:>14} {rmse:11.3f} {e.max():10.3f} {(e.max(axis=1) <= 0.5).mean():9.1%}")
print()
print("The gyro path drifts without bound (constant bias), the instantaneous")
print("path is noisy sample to sample; the filter keeps the best of both.")
