import math
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import load_strict_json
from sqzband.io import _format_cell, write_csv, write_json

AWKWARD = [5e-324, 1e22, 0.1 + 0.2, 518799.80000000005, -0.0, math.nan, math.inf, 1e-7]


def per_cell(columns: dict, comments=None) -> str:
    """The table as the row-by-row, cell-by-cell writer formats it."""
    lines = [f"# {text}" for text in (comments or [])]
    lines.append(",".join(columns))
    for row in zip(*columns.values()):
        lines.append(",".join(_format_cell(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "column",
    [
        np.array(AWKWARD),
        np.array(AWKWARD, dtype=np.float32),
        np.array([0, -3, 2**62, 7], dtype=np.int64),
        np.array([0, 255, 1, 9], dtype=np.uint8),
        np.array([True, False, True, True]),
        np.array(["a", "bc", "", "d"]),
        np.array(AWKWARD[:4], dtype=np.longdouble),
        np.array([1 + 2j, -0.5j, 3, 0]),
        [np.float64(0.1 + 0.2), np.int64(-4), np.bool_(True), np.float32(1.1)],
        [1, 2.5, math.nan, "unstable", True, None, 5e-324, -0.0],
    ],
    ids=[
        "float64", "float32", "int64", "uint8", "bool", "str", "longdouble",
        "complex", "numpy-scalars", "mixed-list",
    ],
)
def test_columns_formatted_as_per_cell(tmp_path, column):
    columns = {"index": np.arange(len(column)), "value": column}
    path = write_csv(tmp_path / "table.csv", columns, ["axis=s", "note"])
    assert path.read_text() == per_cell(columns, ["axis=s", "note"])


def test_rows_stop_at_shortest_column(tmp_path):
    columns = {"a": np.arange(5.0), "b": [True, False], "c": np.array([1, 2, 3])}
    path = write_csv(tmp_path / "table.csv", columns)
    assert path.read_text() == per_cell(columns) == "a,b,c\n0.0,1,1\n1.0,0,2\n"


def test_creates_parent_directory(tmp_path):
    path = write_csv(tmp_path / "new" / "t.csv", {"x": np.array([1.5])})
    assert path.read_text() == "x\n1.5\n"


def test_json_writes_non_finite_floats_as_null(tmp_path):
    payload = {
        "sigmas": {"s": math.nan, "q": 0.25},
        "ratios": [math.inf, -math.inf, 1.5, (math.nan, 2)],
        "flags": ["s_at_lower_bound"],
        "ok": True,
    }
    path = write_json(tmp_path / "report.json", payload)
    assert load_strict_json(path) == {
        "sigmas": {"s": None, "q": 0.25},
        "ratios": [None, None, 1.5, [None, 2]],
        "flags": ["s_at_lower_bound"],
        "ok": True,
    }


@dataclass(frozen=True)
class _Inner:
    r0: float
    flags: tuple


@dataclass(frozen=True)
class _Report:
    inner: _Inner
    edges: np.ndarray
    counts: np.ndarray
    sigmas: dict
    note: str | None = None


def test_json_of_a_dataclass_is_its_fields(tmp_path):
    # nested dataclasses become dicts, arrays and tuples lists, NaN and inf null
    report = _Report(
        inner=_Inner(r0=math.inf, flags=("s_at_lower_bound", 0.1 + 0.2)),
        edges=np.array([0.0, 5e-324, 1e22, math.nan]),
        counts=np.array([0, 3, 2**40], dtype=np.int64),
        sigmas={"s": math.nan, "q": (math.inf, -0.0)},
    )
    by_hand = {
        "inner": {"r0": math.inf, "flags": ["s_at_lower_bound", 0.1 + 0.2]},
        "edges": [0.0, 5e-324, 1e22, math.nan],
        "counts": [0, 3, 2**40],
        "sigmas": {"s": math.nan, "q": [math.inf, -0.0]},
        "note": None,
    }
    got = write_json(tmp_path / "got.json", report).read_bytes()
    assert got == write_json(tmp_path / "by_hand.json", by_hand).read_bytes()
    assert load_strict_json(tmp_path / "got.json")["edges"] == [0.0, 5e-324, 1e22, None]
