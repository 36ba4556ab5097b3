"""Every numeric key load_config reads, at the edges of floating point.

The table is generated: the physics keys are listed once with the domain
they are checked against, and the tool keys are the numeric fields of the
settings dataclasses of each section.  Each key of configs/paper.ini (or
added to it) is set, one at a time, to each of VALUES, and each command that
reads the key runs in-process (spectrum with a model flag for an
[experiment] key, or it would not read the section).  Every run must end in
exit 0, 2 or 3 without an uncaught exception or a RuntimeWarning; a value
outside the key's domain must exit 2, and an exit 2 must leave no
manifest.json.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import fields

import pytest
from conftest import PAPER_CONFIG

from sqzband import cli
from sqzband.config import BiasSettings, ExperimentSettings, SweepSettings
from sqzband.core import NONNEGATIVE, POSITIVE, SystemParams, check_value
from sqzband.synthesizer import DetectionConfig

# 1e100 and 1e-100: their squares are in floating-point range, their fourth powers not
VALUES = ("0", "-1", "1e100", "1e-100", "1e300", "1e-300", "nan", "inf")
NUMERIC = ("int", "float", "float | None")
CONFIG_READ = (SystemParams, DetectionConfig, ExperimentSettings, BiasSettings, SweepSettings)

_DOMAIN = {f.name: f.metadata for f in fields(SystemParams)}
# (section, key, domain, the paper.ini key it replaces); pump keys set the magnitude
PHYSICS = [
    ("cavity", "kappa_hz", _DOMAIN["kappa"], None),
    ("cavity", "kappa_in_hz", _DOMAIN["kappa_in"], None),
    ("cavity", "g0_hz", _DOMAIN["g0"], None),
    ("mechanics", "omega_m_hz", _DOMAIN["omega_m0"], None),
    ("mechanics", "quality_factor", POSITIVE, None),  # gamma_m = omega_m / Q
    ("mechanics", "gamma_m_hz", _DOMAIN["gamma_m"], "quality_factor"),
    ("pump", "delta_hz", _DOMAIN["delta"], None),
    ("pump", "alpha_in_minus", NONNEGATIVE, None),
    ("pump", "alpha_in_plus", NONNEGATIVE, None),
    ("bath", "temperature_k", POSITIVE, None),
    ("bath", "n_th", _DOMAIN["n_th"], "temperature_k"),
    ("bath", "n_extra", _DOMAIN["n_extra"], None),
]


def _settings(section, *classes):
    return [
        (section, f.name, f.metadata, None)
        for cls in classes
        for f in fields(cls)
        if f.type in NUMERIC
    ]


DETECTION = _settings("detection", DetectionConfig)
EXPERIMENT = _settings("experiment", ExperimentSettings)
BIAS = _settings("bias", BiasSettings, DetectionConfig)
SWEEP = _settings("sweep", SweepSettings)

CASES = [
    pytest.param(command, *key, id=f"{command}-{key[0]}-{key[1]}")
    for command, keys in (
        ("rates", PHYSICS + DETECTION + EXPERIMENT + BIAS + SWEEP),
        ("spectrum", PHYSICS + EXPERIMENT),
        ("synth", DETECTION + EXPERIMENT),
        ("sweep", PHYSICS + SWEEP),
    )
    for key in keys
]


def _paper_sections() -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(PAPER_CONFIG)
    return {name: dict(parser[name]) for name in parser.sections()}


def _in_domain(value: str, domain) -> bool:
    try:
        check_value("value", float(value), domain)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("command, section, key, domain, replaces", CASES)
def test_every_value_exits_0_2_or_3(tmp_path, command, section, key, domain, replaces):
    flags = []
    if command == "spectrum" and section == "experiment":
        # spectrum reads [experiment] only with a model flag: one, at its paper.ini value
        flag = "s" if key == "n_bar" else "n_bar"
        flags = [f"--{flag.replace('_', '-')}", _paper_sections()["experiment"][flag]]
    failures = []
    for i, value in enumerate(VALUES):
        sections = _paper_sections()
        sections[section].pop(replaces, None)
        sections[section][key] = f"{value}, 0.0" if key.startswith("alpha_in") else value
        path = tmp_path / f"{i}.ini"
        path.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
                for name, items in sections.items()
            )
        )
        out = tmp_path / f"out{i}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main([command, *flags, "--config", str(path), "--out-dir", str(out)])
            except Exception as exc:  # an escaped exception fails the cell
                code = f"{type(exc).__name__}: {exc}"
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        expected = {0, 2, 3} if _in_domain(value, domain) else {2}
        if code not in expected or warned or (code == 2 and (out / "manifest.json").exists()):
            failures.append((value, code, warned))
    assert not failures, f"{command} with [{section}] {key}: {failures}"


@pytest.mark.parametrize("cls", CONFIG_READ, ids=lambda cls: cls.__name__)
def test_every_numeric_field_declares_its_domain(cls):
    undeclared = [f.name for f in fields(cls) if f.type in NUMERIC and "domain" not in f.metadata]
    assert not undeclared
