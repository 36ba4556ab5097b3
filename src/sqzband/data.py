"""Spectrum data containers and their CSV form.

SpectrumData is the one averaged-periodogram type shared by the synthesizer,
the PSD estimators and the fitter.  CSV layout: comment header lines with a
small JSON metadata blob (n_avg, seed, truth parameters), then
``freq_hz,psd,mask`` rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SystemParams
from .errors import GridError

_GRID_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectrumData:
    """Averaged periodogram on a uniform ascending frequency grid (Hz)."""

    freq_hz: np.ndarray
    psd: np.ndarray
    n_avg: int
    mask: np.ndarray = None  # True = excluded from fits
    resolution_hz: float = None
    meta: dict = field(default_factory=dict)

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
        steps = np.diff(freq)
        step = freq[1] - freq[0]
        if step <= 0 or np.any(np.abs(steps - step) > _GRID_RTOL * abs(step)):
            raise GridError("frequency grid must be uniform and ascending")
        if np.any(psd < 0):
            raise ValueError("psd must be nonnegative")
        if self.n_avg < 1:
            raise ValueError("n_avg must be >= 1")
        mask = self.mask
        if mask is None:
            mask = np.zeros(freq.shape, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != freq.shape:
            raise GridError("mask shape must match the grid")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "resolution_hz", float(step))

    @property
    def n_bins(self) -> int:
        return self.freq_hz.size

    def included(self) -> np.ndarray:
        """Boolean selector of bins that participate in fits."""
        return ~self.mask

    def with_mask(self, mask: np.ndarray) -> "SpectrumData":
        return SpectrumData(
            freq_hz=self.freq_hz,
            psd=self.psd,
            n_avg=self.n_avg,
            mask=mask,
            meta=dict(self.meta),
        )

    def to_csv(self, path) -> None:
        path = Path(path)
        lines = [
            "# sqzband spectrum",
            f"# meta: {json.dumps({'n_avg': self.n_avg, **self.meta}, sort_keys=True)}",
            "freq_hz,psd,mask",
        ]
        for f, p, m in zip(self.freq_hz, self.psd, self.mask):
            lines.append(f"{float(f)!r},{float(p)!r},{int(m)}")
        path.write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "SpectrumData":
        meta = {}
        rows = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            try:
                if line.startswith("# meta:"):
                    meta = json.loads(line[len("# meta:") :])
                elif not (line.startswith(("#", "freq_hz")) or not line.strip()):
                    f, p, m = line.split(",")
                    rows.append((float(f), float(p), bool(int(m))))
            except ValueError:
                raise GridError(f"{path}:{lineno}: malformed line {line!r}") from None
        if not rows:
            raise GridError(f"no data rows in {path}")
        freq, psd, mask = (np.array(col) for col in zip(*rows))
        try:
            n_avg = int(meta.pop("n_avg", 1))
            return cls(freq_hz=freq, psd=psd, n_avg=n_avg, mask=mask.astype(bool), meta=meta)
        except (GridError, ValueError) as exc:
            raise GridError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class OnOffPair:
    """Drive-on / drive-off spectra sharing one grid and averaging depth."""

    drive_on: SpectrumData
    drive_off: SpectrumData
    shared_params: SystemParams | None
    gamma_eff_off: float  # truth width behind the off spectrum (rad/s)

    def __post_init__(self):
        on, off = self.drive_on, self.drive_off
        if on.n_bins != off.n_bins or not np.array_equal(on.freq_hz, off.freq_hz):
            raise GridError("on/off spectra must share one grid")
        if on.n_avg != off.n_avg:
            raise ValueError("on/off spectra must share n_avg")
