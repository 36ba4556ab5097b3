"""Deterministic file emission: CSV tables, JSON reports, run manifests.

Data files never contain timestamps, so re-running a seeded command writes
byte-identical outputs; wall-clock information lives only in the manifest.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
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


def write_json(path, payload: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class RunManifest:
    """Reproducibility record for one CLI run.

    Re-running the recorded command with the recorded config snapshot and
    root seed regenerates every listed output byte-identically (timestamps
    live only here).
    """

    command: str
    config_snapshot: dict
    root_seed: int
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
        return write_json(
            path,
            {
                "command": self.command,
                "config_snapshot": self.config_snapshot,
                "root_seed": self.root_seed,
                "tool_version": self.tool_version,
                "arguments": self.arguments,
                "outputs": sorted(self.outputs),
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            },
        )

    @staticmethod
    def load(path) -> dict:
        return json.loads(Path(path).read_text())
