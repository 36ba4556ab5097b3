"""Synthetic measurement data mimicking the acquisition protocol.

Two routes:

* Model + estimator noise: the composite two-sideband model is sampled on
  the bins of a 0.2 Hz-class grid that lie inside the fitted band around
  each sideband, and each bin multiplied by an independent Gamma(n_avg)/n_avg
  variate -- the exact distribution of an n_avg-segment averaged
  periodogram of a Gaussian process (rectangular windows, no overlap).
  Bins outside the bands are not synthesized: no fit reads them.  The
  variates are still drawn for the whole grid and the band bins picked out,
  so each fitted bin gets the value it had when every bin was stored.
  This is the route that carries the quantum sideband asymmetry.

* Time-domain analog: a classical envelope trajectory is modulated onto a
  synthetic heterodyne carrier with both sidebands, white measurement noise
  added.  Demodulation and segment averaging reproduce widths and
  symmetrized shapes (a classical trajectory cannot carry the asymmetry).

Drive-on/off pairing mirrors the alternation used in the experiment: the
off member keeps the full cooling of both tones and only zeroes the
coherent parametric rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import NONNEGATIVE, POSITIVE, TWO_PI, DerivedRates, SystemParams
from .core import at_least, check_domains, check_value
from .data import OnOffPair, SpectrumData
from .errors import GridError
from .lineshape import heterodyne_composite
from .oracle import EnvelopeTrace, quadrature_series, sde_simulate, welch_psd
from .seeding import task_rng, task_seed

# largest synthesis grid: 88x paper.ini's 113 003 bins, 80 MB per float64 array
MAX_GRID_BINS = 10_000_000


@dataclass(frozen=True)
class DetectionConfig:
    """Heterodyne detection and averaging settings (Hz at this boundary).

    The gain from model PSD to detector units is not a setting: it puts the
    drive-off Stokes peak `snr` times above the floor (`resolve_calibration`).
    `band_halfwidth_hz` sets the fitted window around each sideband center;
    synthetic spectra hold only the grid bins inside the two windows,
    emulating the restricted fit regions of the analysis.  Besides each
    field's domain, the grid may hold MAX_GRID_BINS bins, and a band must span
    3 bins either side of its center (the fitter's 7-bin smoothing kernel);
    ValueError otherwise (a ConfigError when read from a config file).
    """

    delta_lo_hz: float = field(default=11e3, metadata=POSITIVE)
    resolution_hz: float = field(default=0.2, metadata=POSITIVE)
    band_halfwidth_hz: float = field(default=300.0, metadata=POSITIVE)
    floor: float = field(default=1.0, metadata=NONNEGATIVE)
    snr: float = field(default=30.0, metadata=NONNEGATIVE)
    n_avg: int = field(default=10, metadata=at_least(1))

    def __post_init__(self):
        check_domains(self)
        if not self.band_halfwidth_hz < self.delta_lo_hz:
            raise ValueError("band_halfwidth_hz must be below delta_lo_hz")
        if not self.band_halfwidth_hz / self.resolution_hz >= 3 - 1e-9:  # 0.6 / 0.2 < 3
            raise ValueError("band_halfwidth_hz must span 3 resolution_hz: the fit needs 7 bins")
        span = (self.delta_lo_hz + self.band_halfwidth_hz) / self.resolution_hz
        if not 2 * span + 3 <= MAX_GRID_BINS:
            raise ValueError(f"the synthesis grid needs more than {MAX_GRID_BINS} bins")

    @property
    def delta_lo(self) -> float:
        return TWO_PI * self.delta_lo_hz

    def resolve_calibration(self, rates: DerivedRates, n_bar: float) -> float:
        """Peak-to-floor SNR -> gain, referenced to the drive-off Stokes peak."""
        peak = 4 * (n_bar + 1) / rates.gamma_eff  # s = 0 Stokes peak PSD
        return self.snr * self.floor / peak


def check_grid_step(name: str, center_hz, half_span_hz, step_hz, error=ValueError) -> None:
    """`error` naming center_hz unless float64 holds `step_hz` steps on center_hz +/-
    half_span_hz (load_config's synthesis grids, `sqzband spectrum`'s composite).

    A bin is rounded by half a float spacing u, so a step is known to one u,
    and a reader rounds each step to a whole multiple of the first: that needs
    (step + u) / (step - u) < 3/2 at the top bin."""
    if not step_hz > 5 * math.ulp(center_hz + half_span_hz):
        raise error(f"{name} = {center_hz:g}: float64 cannot hold {step_hz:g} Hz steps there")


def synthetic_grid_hz(center_hz: float, detection: DetectionConfig) -> np.ndarray:
    """Uniform grid spanning both sidebands plus the fitted bands.

    The noise variates are drawn on this grid; spectra keep its band bins."""
    half = detection.delta_lo_hz + detection.band_halfwidth_hz + detection.resolution_hz
    n = int(round(half / detection.resolution_hz))
    offsets = np.arange(-n, n + 1) * detection.resolution_hz
    return center_hz + offsets


def band_mask(freq_hz: np.ndarray, centers_hz, halfwidth_hz: float) -> np.ndarray:
    """True outside every +/- halfwidth window around the given centers."""
    keep = np.zeros(freq_hz.shape, dtype=bool)
    for c in np.atleast_1d(centers_hz):
        keep |= np.abs(freq_hz - c) <= halfwidth_hz
    return ~keep


def synth_periodogram(
    mean_psd: np.ndarray,
    freq_hz: np.ndarray,
    n_avg: int,
    seed: int,
    drawn: np.ndarray | None = None,
    meta: dict | None = None,
) -> SpectrumData:
    """Noisy averaged periodogram: bin ~ mean_psd * Gamma(n_avg, 1/n_avg).

    `mean_psd` is the model sampled on `freq_hz` (e.g. the PSD that
    heterodyne_composite returns).  Per-bin mean equals the model, relative
    standard deviation 1/sqrt(n_avg); bins are independent.  Deterministic
    per seed.  `drawn` is a boolean selector over the grid the variates are
    drawn on: one variate per entry of that grid, and the i-th bin gets the
    variate of the i-th selected entry, so a bin's value does not depend on
    which other bins are kept.  None draws on the bins alone, one variate
    per bin.  A variate is positive, so each bin has its model's sign, and
    SpectrumData rejects a negative model bin (ValueError).
    """
    check_value("n_avg", n_avg, at_least(1))
    truth = np.asarray(mean_psd, dtype=float)
    drawn = np.ones(truth.size, dtype=bool) if drawn is None else np.asarray(drawn, dtype=bool)
    if drawn.ndim != 1 or np.count_nonzero(drawn) != truth.size:
        raise GridError("drawn must select exactly one entry per bin")
    rng = np.random.default_rng(seed)
    variates = rng.gamma(shape=n_avg, scale=1.0 / n_avg, size=drawn.size)[drawn]
    info = {"seed": seed} if meta is None else {"seed": seed, **meta}
    return SpectrumData(freq_hz=freq_hz, psd=truth * variates, n_avg=n_avg, meta=info)


def synth_timeseries(
    rates: DerivedRates,
    n_bar: float,
    delta_lo: float,
    fs: float,
    duration: float,
    seed: int,
    floor: float = 0.0,
) -> EnvelopeTrace:
    """Complex heterodyne-analog record with both motional sidebands.

    v(t) = 2 beta(t) cos(2 pi f_lo t) e^{2 pi i f_c t} + noise,
    beta from the envelope SDE, f_lo = delta_lo/2pi, carrier f_c = fs/4 (so
    fs > 4 f_lo keeps f_c + f_lo below fs/2) and white complex noise at
    two-sided PSD `floor`.  Demodulating at f_c -/+ f_lo recovers the
    envelope; the two sidebands are mutually coherent, as they are for a
    single mechanical mode.
    """
    delta_lo_hz = delta_lo / TWO_PI
    if fs <= 4 * delta_lo_hz:
        raise GridError("fs must exceed 4 * delta_lo / 2pi")
    f_c = fs / 4
    dt = 1.0 / fs
    beta = sde_simulate(rates, n_bar, duration, dt, seed=task_seed(seed, 0))
    n = beta.samples.size
    t = np.arange(n) * dt
    signal = 2.0 * beta.samples * np.cos(TWO_PI * delta_lo_hz * t) * np.exp(2j * math.pi * f_c * t)
    if floor > 0:
        rng = task_rng(seed, 1)
        scale = math.sqrt(floor * fs / 2)
        signal = signal + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return EnvelopeTrace(samples=signal, dt=dt)


def lockin_demodulate(
    trace: EnvelopeTrace, f_demod: float, theta: float, lowpass_cutoff: float
) -> np.ndarray:
    """Real quadrature record of the lock-in output.

    The record is mixed down by f_demod (Hz), brick-wall low-passed at
    lowpass_cutoff, and the theta quadrature is taken; the 1/sqrt(2) makes
    the output PSD equal (S_XthXth(f - f_lo) + S_XthXth(f + f_lo)) / 2.
    theta = -phi/2 selects the squeezed Y quadrature.
    """
    if lowpass_cutoff >= f_demod:
        raise ValueError("lowpass_cutoff must be below f_demod")
    n = trace.samples.size
    t = np.arange(n) * trace.dt
    mixed = trace.samples * np.exp(-2j * math.pi * f_demod * t)
    spec = np.fft.fft(mixed)
    freq = np.fft.fftfreq(n, d=trace.dt)
    spec[np.abs(freq) > lowpass_cutoff] = 0.0
    lowpassed = np.fft.ifft(spec)
    return quadrature_series(EnvelopeTrace(lowpassed, trace.dt), theta) / math.sqrt(2)


def segment_average(samples, segment_seconds: float, *, dt: float) -> SpectrumData:
    """Averaged non-overlapping rectangular-window periodograms of samples at step dt.

    `welch_psd` with a boxcar window and zero overlap.  Resolution is
    1/segment_seconds.  The segment length must land on the sample grid.
    Complex samples yield a two-sided spectrum, real ones one-sided.
    """
    check_value("segment_seconds", segment_seconds, POSITIVE, GridError)
    n_per = segment_seconds / dt
    if abs(n_per - round(n_per)) > 1e-9 * n_per:
        raise GridError("segment_seconds is not an integer number of samples")
    spec = welch_psd(samples, round(n_per), overlap_fraction=0.0, window="boxcar", dt=dt)
    return replace(spec, meta={"segment_seconds": segment_seconds})


def _truth_meta(rates: DerivedRates, n_bar: float, detection: DetectionConfig, cal: float):
    return {
        "truth": {
            "gamma_eff_hz": rates.gamma_eff / TWO_PI,
            "s": rates.s,
            "n_bar": n_bar,
            "floor": detection.floor,
            "calibration": cal,
            "delta_lo_hz": detection.delta_lo_hz,
        }
    }


def synth_onoff_from_rates(
    rates_on: DerivedRates,
    rates_off: DerivedRates,
    n_bar: float,
    detection: DetectionConfig,
    seed: int,
    params: SystemParams | None = None,
) -> OnOffPair:
    """Drive-on / drive-off synthetic pair from explicit rate sets.

    Both spectra hold the bins of `synthetic_grid_hz` inside the two fitted
    bands only (a gapped grid, nothing masked), averaged over
    `detection.n_avg` segments."""
    cal = detection.resolve_calibration(rates_off, n_bar)
    center_hz = rates_on.omega_m / TWO_PI
    full = synthetic_grid_hz(center_hz, detection)
    centers = (center_hz + detection.delta_lo_hz, center_hz - detection.delta_lo_hz)
    in_band = ~band_mask(full, centers, detection.band_halfwidth_hz)
    freq = full[in_band]
    grid = TWO_PI * freq

    spectra = {}
    for label, rates, idx in (("on", rates_on, 0), ("off", rates_off, 1)):
        _, mean_psd = heterodyne_composite(
            rates, n_bar, detection.delta_lo, cal, detection.floor, grid
        )
        spectra[label] = synth_periodogram(
            mean_psd,
            freq,
            detection.n_avg,
            seed=task_seed(seed, idx),
            drawn=in_band,
            meta={"drive": label, **_truth_meta(rates, n_bar, detection, cal)},
        )
    return OnOffPair(drive_on=spectra["on"], drive_off=spectra["off"], shared_params=params)
