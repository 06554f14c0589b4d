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

D2R = math.pi / 180.0

cfg = default_scenario()
rng = np.random.default_rng(2)
t_s = cfg.sensors.sample_period
steps = int(60.0 / t_s)

euler = mechanical.pointing_euler(cfg.geo)
loop = harness.ticks(cfg, euler, rng, steps)
gyro_only = next(loop).est

errors = {"gyro-only": [], "instantaneous": [], "fused": []}
for tick in loop:
    sensed = tick.sensed
    truth = sensed.truth
    gyro_only = sensors.gyro_integrate(gyro_only, sensed.omega_m, t_s)
    instantaneous = (sensed.psi_m, sensed.pitch_roll.pitch, sensed.pitch_roll.roll)
    errors["gyro-only"].append(harness.attitude_error(gyro_only, truth))
    errors["instantaneous"].append(harness.attitude_error(instantaneous, truth))
    errors["fused"].append(harness.attitude_error(tick.est, truth))

print(f"{'pipeline':>14} {'rmse [deg]':>11} {'max [deg]':>10} {'<=0.5 deg':>10}")
for name, errs in errors.items():
    e = np.abs(np.array(errs)) / D2R
    rmse = float(np.sqrt((e**2).mean()))
    print(f"{name:>14} {rmse:11.3f} {e.max():10.3f} {(e.max(axis=1) <= 0.5).mean():9.1%}")
print()
print("The gyro path drifts without bound (constant bias), the instantaneous")
print("path is noisy sample to sample; the filter keeps the best of both.")
