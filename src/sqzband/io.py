"""Deterministic file emission: CSV tables, JSON reports, run manifests.

Data files never contain timestamps, so re-running a seeded command writes
byte-identical outputs; wall-clock information lives only in the manifest.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np


def write_csv(path, columns: dict, comments: list[str] | None = None) -> Path:
    """Column-oriented CSV with optional '#' comment header lines.

    Floats are written as their shortest repr (exact read-back), bools as
    0/1; each ndarray column is formatted in one pass.
    """
    path = Path(path)
    cells = [_format_column(values) for values in columns.values()]
    lines = [f"# {text}" for text in (comments or [])]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*cells)))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def _format_column(values):
    """The cells of one column, each as _format_cell writes it."""
    if not (isinstance(values, np.ndarray) and values.ndim == 1):
        return map(_format_cell, values)
    items = values.tolist()  # numpy scalars -> plain python, as .item()
    kind = values.dtype.kind
    if kind == "f" and values.dtype.itemsize <= 8:  # longdouble stays a numpy scalar
        return map(repr, items)
    if kind == "b":
        return ["1" if v else "0" for v in items]
    if kind in "iu":
        return map(str, items)
    return map(_format_cell, items)


def _format_cell(value) -> str:
    if hasattr(value, "item"):  # numpy scalar -> plain python
        value = value.item()
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_json(path, payload) -> Path:
    """Strict JSON (RFC 8259) of a dict or a dataclass instance, at any depth:
    dataclasses are written as their fields, arrays and tuples as lists, and
    NaN and +/-inf floats as null."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def _finite_or_null(value):
    if is_dataclass(value) and not isinstance(value, type):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    elif isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass
class RunManifest:
    """Reproducibility record for one CLI run.

    Re-running the recorded command with the recorded config snapshot and
    root seed regenerates every listed output byte-identically (timestamps
    live only here).
    """

    command: str
    config_snapshot: dict
    root_seed: int | None  # None for commands that draw no random numbers
    tool_version: str
    arguments: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    started_at: str = ""
    finished_at: str = ""

    def record(self, path) -> str:
        rel = str(Path(path))
        if rel not in self.outputs:
            self.outputs.append(rel)
        return rel

    def write(self, path) -> Path:
        self.finished_at = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return write_json(path, replace(self, outputs=sorted(self.outputs)))

    @staticmethod
    def load(path) -> dict:
        return json.loads(Path(path).read_text())
