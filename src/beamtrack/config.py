"""Scenario configuration: a flat, sectioned key-value text format.

Grammar (INI-style, parsed strictly):

* ``[section]`` headers, ``key = value`` entries, ``#`` or ``;`` comments.
* every key belongs to a known section and has a typed default; unknown
  sections or keys are rejected with their full path, so typos fail loudly.
* angles in the file are degrees (``*_deg`` keys or the profile terms);
  everything becomes radians/SI at load time.  Numbers must be finite.
* profile axes take comma-separated sinusoid terms
  ``amplitude_deg @ frequency_hz @ phase_deg`` (phase optional); the pitch
  amplitudes must sum to less than 90 deg.

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
from functools import partial
from pathlib import Path

from .channel import ArrayGeometry, SignalModel
from .electrical import RUNNERS, AsspParams
from .fusion import FusionConfig
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

    def __post_init__(self):
        if not (self.first_epoch >= 0 and self.epoch_period > 0):
            raise ValueError("epochs must have first_epoch >= 0, period > 0")


@dataclass
class RunConfig:
    duration: float = 60.0
    seed: int = 1
    output: str = "out"

    def __post_init__(self):
        if self.duration <= 0 or self.seed < 0:
            raise ValueError("run.duration must be positive and run.seed non-negative")


@dataclass
class ScenarioConfig:
    geo: GeoConfig = field(default_factory=GeoConfig)
    array: ArrayGeometry = field(default_factory=ArrayGeometry)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    sensors: SensorNoiseConfig = field(default_factory=SensorNoiseConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    servo: ServoConfig = field(default_factory=ServoConfig)
    signal: SignalModel = field(default_factory=SignalModel)
    electrical: ElectricalConfig = field(default_factory=ElectricalConfig)
    run: RunConfig = field(default_factory=RunConfig)

    @property
    def ticks(self) -> int:
        """The run's tick count, duration / sample_period rounded; the cap
        keeps an overflowed ratio (a subnormal sample_period) from reaching
        round."""
        return round(min(self.run.duration / self.sensors.sample_period, 2 * LIMIT))


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


# Value parsers: raw text -> value, or ValueError with the reason.

# magnitude bound on every non-integer number, far beyond any physical
# value of a key, so that no product or square of them overflows
LIMIT = 1e6
# bound on an electrical epoch's iteration budget times the array's
# elements: about a minute of 128x64 ASSP on a 2-vCPU x86-64 machine
WORK_LIMIT = 1e9


def _number(kind, noun: str, raw: str):
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r} as {noun}") from None
    if kind is not int and not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    if kind is not int and abs(value) > LIMIT:
        raise ValueError(f"{raw!r} is beyond +/-{LIMIT:g}")
    return value


_float = partial(_number, float, "a number")
_int = partial(_number, int, "an integer")


def _method(raw: str) -> str:
    method = raw.strip()
    if method not in RUNNERS:
        raise ValueError(f"{method!r} not one of {tuple(RUNNERS)}")
    return method


def _terms(raw: str) -> list[Sinusoid]:
    terms = []
    for chunk in filter(None, (c.strip() for c in raw.split(","))):
        parts = chunk.split("@")
        if len(parts) not in (2, 3):
            raise ValueError(f"term {chunk!r} is not amplitude_deg @ frequency_hz [@ phase_deg]")
        amp, freq, *phase = (_float(p.strip()) for p in parts)
        terms.append(Sinusoid(amp * D2R, freq, phase[0] * D2R if phase else 0.0))
    return terms


def _pitch_terms(raw: str) -> list[Sinusoid]:
    # the Euler rates are singular at pitch +/-90 deg, which the terms reach
    # when their amplitudes sum to it
    terms = _terms(raw)
    reach = sum(abs(term.amplitude) for term in terms)
    if reach >= math.pi / 2:
        raise ValueError(f"amplitudes sum to {reach / D2R:g} deg, so pitch can reach +/-90 deg")
    return terms


# One row per scenario key: (section, key, holder, attribute, parse, scale).
# The raw text of ``[section] key`` is parsed, multiplied by ``scale`` (file
# units to radians/SI) and stored as ``attribute`` of the object at the
# dotted ``holder`` path of the scenario.
SCHEMA = (
    ("geo", "latitude_deg", "geo", "uav_latitude", _float, D2R),
    ("geo", "longitude_deg", "geo", "uav_longitude", _float, D2R),
    ("geo", "satellite_longitude_deg", "geo", "satellite_longitude", _float, D2R),
    ("geo", "earth_radius_km", "geo", "earth_radius", _float, 1e3),
    ("geo", "orbit_radius_km", "geo", "orbit_radius", _float, 1e3),
    ("array", "rows", "array", "rows", _int, 1),
    ("array", "cols", "array", "cols", _int, 1),
    ("array", "spacing_over_wavelength", "array", "spacing_over_wavelength", _float, 1),
    ("profile", "yaw", "profile", "yaw", _terms, 1),
    ("profile", "pitch", "profile", "pitch", _pitch_terms, 1),
    ("profile", "roll", "profile", "roll", _terms, 1),
    ("sensors", "gyro_white_sigma", "sensors", "gyro_white_sigma", _float, 1),
    ("sensors", "gyro_bias", "sensors", "gyro_bias", _float, 1),
    ("sensors", "accel_white_sigma", "sensors", "accel_white_sigma", _float, 1),
    ("sensors", "gps_yaw_sigma_deg", "sensors", "gps_yaw_sigma", _float, D2R),
    ("sensors", "sample_period", "sensors", "sample_period", _float, 1),
    ("sensors", "gravity", "sensors", "gravity", _float, 1),
    ("fusion", "initial_covariance", "fusion", "initial_covariance", _float, 1),
    ("fusion", "process_noise", "fusion", "process_noise", _float, 1),
    ("fusion", "measurement_noise", "fusion", "measurement_noise", _float, 1),
    ("servo", "gain", "servo", "gain", _float, 1),
    ("servo", "rate_limit_deg", "servo", "rate_limit", _float, D2R),
    ("servo", "azimuth_stop_deg", "servo", "azimuth_stop", _float, D2R),
    ("servo", "elevation_min_deg", "servo", "elevation_min", _float, D2R),
    ("servo", "elevation_max_deg", "servo", "elevation_max", _float, D2R),
    ("signal", "snr_db", "signal", "snr_db", _float, 1),
    ("signal", "nlos_gain", "signal", "nlos_gain", _float, 1),
    ("signal", "nlos_azimuth_offset_deg", "signal", "nlos_azimuth_offset", _float, D2R),
    ("signal", "nlos_elevation_offset_deg", "signal", "nlos_elevation_offset", _float, D2R),
    ("signal", "nlos_path_length", "signal", "nlos_path_length", _float, 1),
    ("electrical", "method", "electrical", "method", _method, 1),
    ("electrical", "gain", "electrical.params", "gain", _float, 1),
    ("electrical", "structure_weight", "electrical.params", "structure_weight", _float, 1),
    ("electrical", "isotropic_weight", "electrical.params", "isotropic_weight", _float, 1),
    ("electrical", "gain_offset", "electrical.params", "gain_offset", _float, 1),
    ("electrical", "step_exponent", "electrical.params", "step_exponent", _float, 1),
    ("electrical", "probe_exponent", "electrical.params", "probe_exponent", _float, 1),
    ("electrical", "max_iters", "electrical.params", "max_iters", _int, 1),
    ("electrical", "stop_epsilon", "electrical.params", "stop_epsilon", _float, 1),
    ("electrical", "stop_window", "electrical.params", "stop_window", _int, 1),
    ("electrical", "seq_step", "electrical.params", "seq_step", _float, 1),
    ("electrical", "seq_max_sweeps", "electrical.params", "seq_max_sweeps", _int, 1),
    ("electrical", "first_epoch", "electrical", "first_epoch", _float, 1),
    ("electrical", "epoch_period", "electrical", "epoch_period", _float, 1),
    ("run", "duration", "run", "duration", _float, 1),
    ("run", "seed", "run", "seed", _int, 1),
    ("run", "output", "run", "output", str.strip, 1),
)

_KEYS = {(section, key): rest for section, key, *rest in SCHEMA}
# (section, holder) in table order; each holder checks itself in __post_init__
_HOLDERS = tuple(dict.fromkeys((section, holder) for section, _, holder, *_ in SCHEMA))
_SECTIONS = {section for section, *_ in SCHEMA}


def _holder(cfg: ScenarioConfig, path: str):
    for name in path.split("."):
        cfg = getattr(cfg, name)
    return cfg


def set_key(cfg: ScenarioConfig, section: str, key: str, raw: str) -> None:
    """Parse ``raw`` as the value of ``[section] key`` and store it in ``cfg``
    in radians/SI; a ConfigError names ``section.key``."""
    if (section, key) not in _KEYS:
        raise ConfigError(f"unknown key {section}.{key}")
    holder, attribute, parse, scale = _KEYS[section, key]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: {exc}") from exc
    setattr(_holder(cfg, holder), attribute, value * scale)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    # re-run the holders' own checks on the values the file set
    for section, path in _HOLDERS:
        check = getattr(_holder(cfg, path), "__post_init__", None)
        if check is None:
            continue
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    # the channel vector and the weights hold rows * cols elements each
    if cfg.array.size > LIMIT:
        raise ConfigError(f"array: rows * cols = {cfg.array.size} elements, beyond {LIMIT:g}")
    # on the array normal the two rays coincide on a 1x1 array or with no
    # azimuth offset, and a second ray of the LOS ray's magnitude and
    # opposite carrier phase cancels it: no power to normalize a reading by
    if cfg.signal.channel(cfg.array, [(0.0, 0.0)]).power()[0] == 0.0:
        raise ConfigError("signal: the second ray cancels the LOS ray on the array normal")
    for key in ("max_iters", "seq_max_sweeps"):
        work = getattr(cfg.electrical.params, key) * cfg.array.size
        if work > WORK_LIMIT:
            raise ConfigError(
                f"electrical.{key}: {work} element-iterations per epoch "
                f"({cfg.array.size} elements), beyond {WORK_LIMIT:g}"
            )
    # the loop runs cfg.ticks ticks, and run_simulation holds every tick's
    # trace row until the run ends
    if cfg.ticks < 1:
        raise ConfigError("run.duration: shorter than half a sensors.sample_period, no tick runs")
    if cfg.ticks > LIMIT:
        raise ConfigError(f"run.duration: more than {LIMIT:g} ticks of sensors.sample_period")
    return cfg


def load_scenario_text(text: str) -> ScenarioConfig:
    """Parse scenario text into a fully validated config (defaults filled)."""
    # no default section: a [DEFAULT] header is an unknown section like any other
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), default_section=""
    )
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    cfg = default_scenario()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            set_key(cfg, section, key, raw)
    return validate(cfg)


def scenario_file(path: str | Path) -> Path:
    """``path`` when it names a regular file (a symlink to one too), else a
    ConfigError naming it."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"scenario file not found: {p}")
    if not p.is_file():
        raise ConfigError(f"scenario file is not a regular file: {p}")
    return p


def load_scenario(path: str | Path | None = None) -> ScenarioConfig:
    """Load a UTF-8 scenario file; ``None`` gives the default scenario."""
    if path is None:
        return validate(default_scenario())
    p = scenario_file(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {p}: {exc}") from exc
    return load_scenario_text(text)
