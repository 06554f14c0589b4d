"""Scenario configuration: a flat, sectioned key-value text format.

Grammar (INI-style, parsed strictly):

* ``[section]`` headers, ``key = value`` entries, ``#`` or ``;`` comments.
* every key belongs to a known section and has a typed default; unknown
  sections or keys are rejected with their full path, so typos fail loudly.
* angles in the file are degrees (``*_deg`` keys or the profile terms);
  everything becomes radians/SI at load time.
* profile axes take comma-separated sinusoid terms
  ``amplitude_deg @ frequency_hz @ phase_deg`` (phase optional).

An empty file (or no file) yields the built-in default scenario:
the Xi'an to AsiaSat-3S geometry, a 128x64 half-wavelength array, the
default sinusoidal flight profile, and the reference step parameters for
the electrical stage.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ArrayGeometry, SignalModel
from .electrical import RUNNERS, AsspParams
from .mechanical import GeoConfig, ServoConfig
from .sensors import ProfileConfig, SensorNoiseConfig, Sinusoid

D2R = math.pi / 180.0


class ConfigError(ValueError):
    """Scenario file rejected; the message carries the offending path."""


@dataclass
class ElectricalConfig:
    method: str = "assp"
    params: AsspParams = field(default_factory=AsspParams)
    first_epoch: float = 5.0
    epoch_period: float = 10.0


@dataclass
class RunConfig:
    duration: float = 60.0
    seed: int = 1
    output: str = "out"

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("run.duration must be positive")


@dataclass
class NlosConfig:
    gain: float = 0.0  # magnitude of the optional second ray; 0 disables
    azimuth_offset: float = 2.0 * D2R
    elevation_offset: float = 30.0 * D2R
    path_length: float = 0.5  # m


@dataclass
class ScenarioConfig:
    geo: GeoConfig = field(default_factory=GeoConfig)
    array: ArrayGeometry = field(default_factory=ArrayGeometry)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    sensors: SensorNoiseConfig = field(default_factory=SensorNoiseConfig)
    fusion_initial_covariance: float = 1e-2
    fusion_process_noise: float = 1e-6
    fusion_measurement_noise: float = 1e-4
    servo: ServoConfig = field(default_factory=ServoConfig)
    signal: SignalModel = field(default_factory=SignalModel)
    wavelength: float = 0.015
    nlos: NlosConfig = field(default_factory=NlosConfig)
    electrical: ElectricalConfig = field(default_factory=ElectricalConfig)
    run: RunConfig = field(default_factory=RunConfig)


def default_profile() -> ProfileConfig:
    return ProfileConfig(
        yaw=[Sinusoid(10.0 * D2R, 0.10, 0.0)],
        pitch=[Sinusoid(5.0 * D2R, 0.20, 0.5 * math.pi)],
        roll=[Sinusoid(8.0 * D2R, 0.15, 200.0 * D2R)],
    )


def default_scenario() -> ScenarioConfig:
    cfg = ScenarioConfig()
    cfg.profile = default_profile()
    # the geometry commands azimuth near -174 deg, outside the +/-170 deg
    # hardware default, so the reference scenario frees the azimuth stop
    cfg.servo.azimuth_stop = math.pi
    return cfg


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as a number") from exc


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as an integer") from exc


def _parse_complex(section: str, key: str, raw: str) -> complex:
    try:
        return complex(raw.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as a complex number") from exc


def _parse_profile_terms(section: str, key: str, raw: str) -> list[Sinusoid]:
    terms = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split("@")]
        if len(parts) not in (2, 3):
            raise ConfigError(
                f"{section}.{key}: term {chunk!r} is not amplitude_deg @ frequency_hz"
                " [@ phase_deg]"
            )
        amp = _parse_float(section, key, parts[0]) * D2R
        freq = _parse_float(section, key, parts[1])
        phase = _parse_float(section, key, parts[2]) * D2R if len(parts) == 3 else 0.0
        terms.append(Sinusoid(amp, freq, phase))
    return terms


# section -> key -> setter(cfg, raw_string)
_SCHEMA = {
    "geo": {
        "latitude_deg": lambda c, s, v: setattr(c.geo, "uav_latitude", _parse_float(s, "latitude_deg", v) * D2R),
        "longitude_deg": lambda c, s, v: setattr(c.geo, "uav_longitude", _parse_float(s, "longitude_deg", v) * D2R),
        "satellite_longitude_deg": lambda c, s, v: setattr(c.geo, "satellite_longitude", _parse_float(s, "satellite_longitude_deg", v) * D2R),
        "earth_radius_km": lambda c, s, v: setattr(c.geo, "earth_radius", _parse_float(s, "earth_radius_km", v) * 1e3),
        "orbit_radius_km": lambda c, s, v: setattr(c.geo, "orbit_radius", _parse_float(s, "orbit_radius_km", v) * 1e3),
    },
    "array": {
        "rows": lambda c, s, v: setattr(c.array, "rows", _parse_int(s, "rows", v)),
        "cols": lambda c, s, v: setattr(c.array, "cols", _parse_int(s, "cols", v)),
        "spacing_over_wavelength": lambda c, s, v: setattr(c.array, "spacing_over_wavelength", _parse_float(s, "spacing_over_wavelength", v)),
    },
    "profile": {
        "yaw": lambda c, s, v: setattr(c.profile, "yaw", _parse_profile_terms(s, "yaw", v)),
        "pitch": lambda c, s, v: setattr(c.profile, "pitch", _parse_profile_terms(s, "pitch", v)),
        "roll": lambda c, s, v: setattr(c.profile, "roll", _parse_profile_terms(s, "roll", v)),
    },
    "sensors": {
        "gyro_white_sigma": lambda c, s, v: setattr(c.sensors, "gyro_white_sigma", _parse_float(s, "gyro_white_sigma", v)),
        "gyro_bias": lambda c, s, v: setattr(c.sensors, "gyro_bias", _parse_float(s, "gyro_bias", v)),
        "accel_white_sigma": lambda c, s, v: setattr(c.sensors, "accel_white_sigma", _parse_float(s, "accel_white_sigma", v)),
        "gps_yaw_sigma_deg": lambda c, s, v: setattr(c.sensors, "gps_yaw_sigma", _parse_float(s, "gps_yaw_sigma_deg", v) * D2R),
        "sample_period": lambda c, s, v: setattr(c.sensors, "sample_period", _parse_float(s, "sample_period", v)),
        "gravity": lambda c, s, v: setattr(c.sensors, "gravity", _parse_float(s, "gravity", v)),
        "gps_baseline_length": lambda c, s, v: setattr(c.sensors, "gps_baseline_length", _parse_float(s, "gps_baseline_length", v)),
    },
    "fusion": {
        "initial_covariance": lambda c, s, v: setattr(c, "fusion_initial_covariance", _parse_float(s, "initial_covariance", v)),
        "process_noise": lambda c, s, v: setattr(c, "fusion_process_noise", _parse_float(s, "process_noise", v)),
        "measurement_noise": lambda c, s, v: setattr(c, "fusion_measurement_noise", _parse_float(s, "measurement_noise", v)),
    },
    "servo": {
        "gain": lambda c, s, v: setattr(c.servo, "gain", _parse_float(s, "gain", v)),
        "rate_limit_deg": lambda c, s, v: setattr(c.servo, "rate_limit", _parse_float(s, "rate_limit_deg", v) * D2R),
        "azimuth_stop_deg": lambda c, s, v: setattr(c.servo, "azimuth_stop", _parse_float(s, "azimuth_stop_deg", v) * D2R),
        "elevation_min_deg": lambda c, s, v: setattr(c.servo, "elevation_min", _parse_float(s, "elevation_min_deg", v) * D2R),
        "elevation_max_deg": lambda c, s, v: setattr(c.servo, "elevation_max", _parse_float(s, "elevation_max_deg", v) * D2R),
    },
    "signal": {
        "snr_db": lambda c, s, v: setattr(c.signal, "snr_db", _parse_float(s, "snr_db", v)),
        "symbol": lambda c, s, v: setattr(c.signal, "symbol", _parse_complex(s, "symbol", v)),
        "los_gain": lambda c, s, v: setattr(c.signal, "los_gain_abs", _parse_float(s, "los_gain", v)),
        "wavelength": lambda c, s, v: setattr(c, "wavelength", _parse_float(s, "wavelength", v)),
        "nlos_gain": lambda c, s, v: setattr(c.nlos, "gain", _parse_float(s, "nlos_gain", v)),
        "nlos_azimuth_offset_deg": lambda c, s, v: setattr(c.nlos, "azimuth_offset", _parse_float(s, "nlos_azimuth_offset_deg", v) * D2R),
        "nlos_elevation_offset_deg": lambda c, s, v: setattr(c.nlos, "elevation_offset", _parse_float(s, "nlos_elevation_offset_deg", v) * D2R),
        "nlos_path_length": lambda c, s, v: setattr(c.nlos, "path_length", _parse_float(s, "nlos_path_length", v)),
    },
    "electrical": {
        "method": lambda c, s, v: setattr(c.electrical, "method", v.strip()),
        "gain": lambda c, s, v: setattr(c.electrical.params, "gain", _parse_float(s, "gain", v)),
        "structure_weight": lambda c, s, v: setattr(c.electrical.params, "structure_weight", _parse_float(s, "structure_weight", v)),
        "isotropic_weight": lambda c, s, v: setattr(c.electrical.params, "isotropic_weight", _parse_float(s, "isotropic_weight", v)),
        "gain_offset": lambda c, s, v: setattr(c.electrical.params, "gain_offset", _parse_float(s, "gain_offset", v)),
        "step_exponent": lambda c, s, v: setattr(c.electrical.params, "step_exponent", _parse_float(s, "step_exponent", v)),
        "probe_exponent": lambda c, s, v: setattr(c.electrical.params, "probe_exponent", _parse_float(s, "probe_exponent", v)),
        "max_iters": lambda c, s, v: setattr(c.electrical.params, "max_iters", _parse_int(s, "max_iters", v)),
        "stop_epsilon": lambda c, s, v: setattr(c.electrical.params, "stop_epsilon", _parse_float(s, "stop_epsilon", v)),
        "stop_window": lambda c, s, v: setattr(c.electrical.params, "stop_window", _parse_int(s, "stop_window", v)),
        "seq_step": lambda c, s, v: setattr(c.electrical.params, "seq_step", _parse_float(s, "seq_step", v)),
        "seq_max_sweeps": lambda c, s, v: setattr(c.electrical.params, "seq_max_sweeps", _parse_int(s, "seq_max_sweeps", v)),
        "first_epoch": lambda c, s, v: setattr(c.electrical, "first_epoch", _parse_float(s, "first_epoch", v)),
        "epoch_period": lambda c, s, v: setattr(c.electrical, "epoch_period", _parse_float(s, "epoch_period", v)),
    },
    "run": {
        "duration": lambda c, s, v: setattr(c.run, "duration", _parse_float(s, "duration", v)),
        "seed": lambda c, s, v: setattr(c.run, "seed", _parse_int(s, "seed", v)),
        "output": lambda c, s, v: setattr(c.run, "output", v.strip()),
    },
}


def _validate(cfg: ScenarioConfig) -> ScenarioConfig:
    # re-run dataclass validators on mutated values
    for holder, section in (
        (cfg.geo, "geo"),
        (cfg.array, "array"),
        (cfg.sensors, "sensors"),
        (cfg.servo, "servo"),
        (cfg.electrical.params, "electrical"),
        (cfg.run, "run"),
    ):
        try:
            holder.__post_init__()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    if cfg.electrical.method not in RUNNERS:
        raise ConfigError(
            f"electrical.method: {cfg.electrical.method!r} not one of {tuple(RUNNERS)}"
        )
    if cfg.electrical.first_epoch < 0 or cfg.electrical.epoch_period <= 0:
        raise ConfigError("electrical: epochs must have first_epoch >= 0, period > 0")
    if cfg.wavelength <= 0:
        raise ConfigError("signal.wavelength must be positive")
    if cfg.nlos.gain < 0:
        raise ConfigError("signal.nlos_gain must be non-negative")
    if cfg.fusion_initial_covariance <= 0:
        raise ConfigError("fusion.initial_covariance must be positive")
    if cfg.fusion_process_noise < 0 or cfg.fusion_measurement_noise < 0:
        raise ConfigError("fusion noise covariances must be non-negative")
    return cfg


def load_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully validated config (defaults filled)."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    cfg = default_scenario()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            setter = _SCHEMA[section].get(key)
            if setter is None:
                raise ConfigError(f"unknown key {section}.{key}")
            setter(cfg, section, raw)
    return _validate(cfg)


def load_scenario(path: str | Path | None = None) -> ScenarioConfig:
    """Load a scenario file; ``None`` gives the default scenario."""
    if path is None:
        return _validate(default_scenario())
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    return load_scenario_text(p.read_text())
