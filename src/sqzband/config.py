"""INI-style run configuration.

Physics lives in [cavity], [mechanics], [pump] and [bath]; frequencies are
given in Hz, temperatures in K, pump amplitudes as ``magnitude, phase_deg``
pairs; `SystemParams.from_hz` turns the physics values into angular rates.
Tool sections ([detection], [experiment], [sweep], [bias]) keep Hz until read,
configure synthesis, campaigns and sweeps and are optional; each holds one
key per field of its settings dataclass ([bias] also those of [detection]),
whose defaults are the only defaults; [sweep] start and stop have none and
are required.  A key that no setting reads (a misspelled key, or any key of
a misspelled section) is a ConfigError, and so is a value outside the domain
its dataclass field declares, a broken cross-field rule, and physics values
whose conversion to rates fails in floating point (a zero quality_factor, a
bath occupancy out of range).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

from .core import FINITE, NONNEGATIVE, POSITIVE, PumpConfig, SystemParams
from .core import at_least, check_domains, check_value
from .errors import ConfigError
from .fitter import MIN_BIAS_TRIALS
from .synthesizer import DetectionConfig, check_grid_step

SWEEP_AXES = ("parametric_gain_s", "gamma_eff", "detuning_delta")


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


@dataclass(frozen=True)
class SweepSettings:
    start: float = field(metadata=FINITE)
    stop: float = field(metadata=FINITE)
    axis: str = "detuning_delta"
    n_points: int = field(default=21, metadata=at_least(2))
    # (gamma_eff_hz, s) overrides on the gamma_eff axis
    s_table: tuple[tuple[float, float], ...] = field(default=(), metadata={"cast": _s_table})

    def __post_init__(self):
        check_domains(self, ConfigError)
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; one of {SWEEP_AXES}")
        if not self.start < self.stop:
            raise ConfigError("sweep start must be below stop")
        if self.s_table and self.axis != "gamma_eff":
            raise ConfigError(f"s_table: not read on the {self.axis} axis")
        for width_hz, s in self.s_table:
            check_value("s_table width", width_hz, POSITIVE, ConfigError)
            if not abs(s) < 1:  # nan and inf fail too
                raise ConfigError(f"s_table s must be finite with |s| < 1, got {s}")


@dataclass(frozen=True)
class ExperimentSettings:
    n_bar: float = field(default=5.8, metadata=NONNEGATIVE)
    s: float = field(default=0.53, metadata=FINITE)
    gamma_eff_hz: float = field(default=100.0, metadata=POSITIVE)
    phi_deg: float = field(default=0.0, metadata=FINITE)
    center_hz: float = field(default=530e3, metadata=POSITIVE)
    n_repeats: int = field(default=100, metadata=at_least(2))
    n_jobs: int = field(default=1, metadata=at_least(1))

    def __post_init__(self):
        check_domains(self, ConfigError)


@dataclass(frozen=True)
class BiasSettings:
    n_trials: int = field(default=6000, metadata=at_least(MIN_BIAS_TRIALS))
    n_bar: float = field(default=5.8, metadata=NONNEGATIVE)
    gamma_eff_hz: float = field(default=100.0, metadata=POSITIVE)
    center_hz: float = field(default=530e3, metadata=POSITIVE)
    n_jobs: int = field(default=1, metadata=at_least(1))

    def __post_init__(self):
        check_domains(self, ConfigError)


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
    mag = check_value("magnitude", float(parts[0]), NONNEGATIVE)
    deg = check_value("phase", float(parts[1]), FINITE)
    return mag * complex(math.cos(math.radians(deg)), math.sin(math.radians(deg)))


def load_config(path) -> RunConfig:
    """Parse a config file into physics parameters plus tool settings."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
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
        """A `cls` read from `section`, one key per field.  A field with no
        default is required; an unset key takes the field's default unless
        `defaults` overrides it.  A set key is cast by the field's
        metadata["cast"] if it has one, else to its default's type (int stays
        int, str stays str, anything else reads as float)."""
        values = {}
        for f in fields(cls):
            default = defaults.get(f.name, f.default)
            kind = next((t for t in (int, str) if isinstance(default, t)), float)
            cast = f.metadata.get("cast", kind)
            values[f.name] = _get(section, f.name, cast, default, required=default is MISSING)
        try:
            return cls(**values)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"[{section}]: {exc}") from None

    def _one_of(section, first, second):
        values = _get(section, first), _get(section, second)
        if (values[0] is None) == (values[1] is None):
            raise ConfigError(f"[{section}] needs {first} or {second}, not both")
        return values

    omega_m_hz = _get("mechanics", "omega_m_hz", required=True)
    gamma_m_hz, quality = _one_of("mechanics", "gamma_m_hz", "quality_factor")
    n_th, temperature = _one_of("bath", "n_th", "temperature_k")

    try:
        params = SystemParams.from_hz(
            kappa_hz=_get("cavity", "kappa_hz", required=True),
            kappa_in_hz=_get("cavity", "kappa_in_hz"),
            g0_hz=_get("cavity", "g0_hz", required=True),
            omega_m_hz=omega_m_hz,
            gamma_m_hz=omega_m_hz / quality if gamma_m_hz is None else gamma_m_hz,
            delta_hz=_get("pump", "delta_hz", required=True),
            n_th=n_th,
            temperature_k=temperature,
            n_extra=_get("bath", "n_extra", default=0.0),
        )
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"physics values out of range: {exc}") from None

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
    for name, center_hz, grid in (
        ("[experiment] center_hz", experiment.center_hz, detection),
        ("[bias] center_hz", bias.center_hz, bias_detection),
    ):
        half_span_hz = grid.delta_lo_hz + grid.band_halfwidth_hz
        check_grid_step(name, center_hz, half_span_hz, grid.resolution_hz, ConfigError)

    sweep = _settings(SweepSettings, "sweep") if parser.has_section("sweep") else None

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
