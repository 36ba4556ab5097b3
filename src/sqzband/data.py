"""Spectrum data containers and their CSV form.

SpectrumData is the one averaged-periodogram type shared by the synthesizer,
the PSD estimators and the fitter.  CSV layout (written by io.write_csv):
comment header lines with a small JSON metadata blob (n_avg, seed, truth
parameters), then ``freq_hz,psd,mask`` rows with shortest-repr floats and a
0/1 mask.  The reader parses the data block in one numpy call; '#' and
blank lines may appear anywhere.

The grid is a lattice: ascending, each step a whole positive multiple of the
first step (within a relative 1e-9 plus the float rounding of the
frequencies).  A full uniform grid with masked bins and the same grid with
those bins left out are both valid; synthetic spectra store the fitted bands
only.  Each bin's integer lattice index is derived once, and window queries
(which stored bins, how many lattice points) are integer arithmetic on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SystemParams, at_least, check_value
from .errors import GridError
from .io import write_csv

_GRID_RTOL = 1e-9
_META_PREFIX = "# meta:"
_ROW = np.dtype([("freq_hz", float), ("psd", float), ("mask", np.int64)])


@dataclass(frozen=True, eq=False)
class SpectrumData:
    """Averaged periodogram on an ascending lattice frequency grid (Hz).

    Every step is a whole positive multiple of the first one, which is
    `resolution_hz`: a uniform grid, or a uniform grid with gaps (bins no
    fit reads, left out instead of masked).  `k` (derived, int64) is each
    bin's lattice index, freq_hz ~ freq_hz[0] + k * resolution_hz with
    k[0] = 0; `window` answers window queries on it.
    """

    freq_hz: np.ndarray
    psd: np.ndarray
    n_avg: int
    mask: np.ndarray = None  # True = excluded from fits
    meta: dict = field(default_factory=dict)
    k: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        freq = np.asarray(self.freq_hz, dtype=float)
        psd = np.asarray(self.psd, dtype=float)
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "psd", psd)
        if freq.ndim != 1 or freq.size < 2 or freq.shape != psd.shape:
            raise GridError("freq_hz and psd must be matching 1-d arrays, >= 2 bins")
        for name, values in (("freq_hz", freq), ("psd", psd)):
            if not np.isfinite(values).all():
                bad = np.flatnonzero(~np.isfinite(values))
                raise GridError(f"{name} has {bad.size} non-finite bins (first at index {bad[0]})")
        object.__setattr__(self, "k", _lattice_index(freq))
        if np.any(psd < 0):
            raise ValueError("psd must be nonnegative")
        check_value("n_avg", self.n_avg, at_least(1))
        mask = self.mask
        if mask is None:
            mask = np.zeros(freq.shape, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != freq.shape:
            raise GridError("mask shape must match the grid")
        object.__setattr__(self, "mask", mask)

    @property
    def resolution_hz(self) -> float:
        return float(self.freq_hz[1] - self.freq_hz[0])

    @property
    def n_bins(self) -> int:
        return self.freq_hz.size

    def included(self) -> np.ndarray:
        """Boolean selector of bins that participate in fits."""
        return ~self.mask

    def window(self, lo_hz: float, hi_hz: float) -> tuple[slice, int]:
        """(slice of the stored bins, number of lattice points) in [lo_hz, hi_hz]
        and in the grid's span; the count includes the points in the gaps."""
        f0, res, last = self.freq_hz[0], self.resolution_hz, self.k[-1]
        j_lo = int(np.clip(np.ceil((lo_hz - f0) / res), 0, last + 1))
        j_hi = int(np.clip(np.floor((hi_hz - f0) / res), -1, last))
        start, stop = np.searchsorted(self.k, j_lo), np.searchsorted(self.k, j_hi, "right")
        return slice(int(start), int(stop)), max(j_hi - j_lo + 1, 0)

    def to_csv(self, path) -> None:
        meta = json.dumps({"n_avg": self.n_avg, **self.meta}, sort_keys=True)
        write_csv(
            path,
            {"freq_hz": self.freq_hz, "psd": self.psd, "mask": self.mask},
            ["sqzband spectrum", f"meta: {meta}"],
        )

    @classmethod
    def from_csv(cls, path) -> "SpectrumData":
        try:
            lines = Path(path).read_text().splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise GridError(f"cannot read {path}: {exc}") from None
        try:
            meta, freq, psd, mask = _parse_block(lines)
        except ValueError:
            meta, freq, psd, mask = _parse_rows(path, lines)
        if not isinstance(meta, dict):
            raise GridError(f"{path}: the meta line is not a JSON object")
        n_avg = meta.pop("n_avg", 1)  # not true, "3", 2.5 or inf: an int or an integral float
        if not (type(n_avg) is int or type(n_avg) is float and n_avg.is_integer()):
            raise GridError(f"{path}: meta n_avg is not a whole number")
        try:
            return cls(freq_hz=freq, psd=psd, n_avg=int(n_avg), mask=mask, meta=meta)
        except (GridError, ValueError) as exc:
            raise GridError(f"{path}: {exc}") from None


def _lattice_index(freq: np.ndarray) -> np.ndarray:
    """Lattice index of each bin: k[0] = 0, then the running sum of each step
    over the first, rounded.

    Each step must be a whole positive multiple m of the first, within
    m (_GRID_RTOL steps + 2 ulp of the largest |f|): the first step is known
    only to an ulp of the frequencies, which above 2^20 Hz exceeds 1e-9 of a
    0.2 Hz step.  The span must stay below 2^53 steps, where the running sum
    of the multiples is still exact.
    """
    with np.errstate(all="ignore"):  # a zero first step or steps past float range fail below
        steps = np.diff(freq)
        step = steps[0]
        multiple = np.rint(steps / step)
        off = np.abs(steps - multiple * step)
        tol = multiple * (_GRID_RTOL * step + 2 * np.spacing(np.abs(freq).max()))
        span = multiple.sum()
    whole = np.isfinite(multiple) & (multiple >= 1)
    if not (step > 0 and np.all(whole) and np.all(off <= tol) and span < 2.0**53):
        raise GridError(
            "frequency grid must be ascending, each step a whole multiple of the first"
        )
    return np.concatenate(([0], np.cumsum(multiple))).astype(np.int64)


def _is_data(line: str) -> bool:
    return bool(line.strip()) and not line.startswith(("#", "freq_hz"))


def _parse_block(lines: list[str]):
    """(meta, freq, psd, mask): the header, then the data block in one numpy call.

    Raises ValueError on any line after the header that numpy does not take
    as a row: a comment or blank line there, or a value numpy's parser is
    stricter about than float()/int() (underscores, non-ASCII digits).
    """
    meta = {}
    start = 0
    while start < len(lines) and not _is_data(lines[start]):
        if lines[start].startswith(_META_PREFIX):
            meta = json.loads(lines[start][len(_META_PREFIX) :])
        start += 1
    if start == len(lines):
        raise ValueError("no data rows")
    rows = np.loadtxt(lines[start:], dtype=_ROW, delimiter=",", comments=None, ndmin=1)
    return (
        meta,
        np.ascontiguousarray(rows["freq_hz"]),
        np.ascontiguousarray(rows["psd"]),
        rows["mask"].astype(bool),
    )


def _parse_rows(path, lines: list[str]):
    """Line-by-line parse of any file _parse_block refuses.

    Skips '#' and blank lines anywhere and names the first malformed line;
    it defines which files are accepted.
    """
    meta = {}
    rows = []
    for lineno, line in enumerate(lines, start=1):
        try:
            if line.startswith(_META_PREFIX):
                meta = json.loads(line[len(_META_PREFIX) :])
            elif _is_data(line):
                f, p, m = line.split(",")
                rows.append((float(f), float(p), bool(int(m))))
        except ValueError:
            raise GridError(f"{path}:{lineno}: malformed line {line!r}") from None
    if not rows:
        raise GridError(f"no data rows in {path}")
    freq, psd, mask = (np.array(col) for col in zip(*rows))
    return meta, freq, psd, mask


@dataclass(frozen=True, eq=False)
class OnOffPair:
    """Drive-on / drive-off spectra sharing one grid and averaging depth."""

    drive_on: SpectrumData
    drive_off: SpectrumData
    shared_params: SystemParams | None

    def __post_init__(self):
        on, off = self.drive_on, self.drive_off
        if on.n_bins != off.n_bins or not np.array_equal(on.freq_hz, off.freq_hz):
            raise GridError("on/off spectra must share one grid")
        if on.n_avg != off.n_avg:
            raise ValueError("on/off spectra must share n_avg")
