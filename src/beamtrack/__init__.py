"""Blind beam tracking for a UAV-mounted massive planar array toward a
geostationary satellite.

Layers, bottom up: ``frames`` (rotation algebra), ``sensors`` (truth
profiles and low-cost sensor models), ``fusion`` (quaternion Kalman
filter), ``mechanical`` (pointing geometry, stabilization, dynamic
isolation, servo), ``channel`` (factored planar-array channel and power),
``electrical`` (stochastic phase-shifter optimizers), and ``harness``
(closed-loop scenario simulation with CSV/JSON traces behind the CLI).
"""

from . import channel, config, electrical, experiments, frames, fusion, harness, mechanical, sensors
from .channel import ArrayGeometry, PowerOracle
from .config import ScenarioConfig, load_scenario
from .electrical import AsspParams, run_assp, run_isotropic_spsa, run_sequential_perturbation
from .frames import Attitude
from .harness import TraceRecord, export_csv, export_json, run_simulation
from .mechanical import GeoConfig, GimbalAngles, PointingEuler, pointing_euler

__all__ = [
    "ArrayGeometry",
    "AsspParams",
    "Attitude",
    "GeoConfig",
    "GimbalAngles",
    "PointingEuler",
    "PowerOracle",
    "ScenarioConfig",
    "TraceRecord",
    "channel",
    "config",
    "electrical",
    "experiments",
    "export_csv",
    "export_json",
    "frames",
    "fusion",
    "harness",
    "load_scenario",
    "mechanical",
    "pointing_euler",
    "run_assp",
    "run_isotropic_spsa",
    "run_sequential_perturbation",
    "run_simulation",
    "sensors",
]
