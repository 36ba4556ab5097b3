"""Synthetic measurement data mimicking the acquisition protocol.

Two routes:

* Model + estimator noise: the composite two-sideband model is sampled on a
  0.2 Hz-class grid and each bin multiplied by an independent
  Gamma(n_avg)/n_avg variate -- the exact distribution of an n_avg-segment
  averaged periodogram of a Gaussian process (rectangular windows, no
  overlap).  This is the route that carries the quantum sideband asymmetry.

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
from dataclasses import dataclass, replace

import numpy as np

from .core import TWO_PI, DerivedRates, PumpConfig, SystemParams, derive_all
from .data import OnOffPair, SpectrumData
from .errors import GridError
from .lineshape import heterodyne_composite
from .oracle import EnvelopeTrace, sde_simulate
from .seeding import task_rng, task_seed


@dataclass(frozen=True)
class DetectionConfig:
    """Heterodyne detection and averaging settings (Hz at this boundary).

    `calibration` maps model PSD to detector units; when None it is chosen
    so the drive-off Stokes peak sits `snr` times above the floor.
    `band_halfwidth_hz` sets the fitted window around each sideband center;
    bins outside are masked (excluded from fits), emulating the restricted
    fit regions of the analysis.
    """

    delta_lo_hz: float = 11e3
    resolution_hz: float = 0.2
    band_halfwidth_hz: float = 300.0
    floor: float = 1.0
    snr: float = 30.0
    calibration: float | None = None
    n_avg: int = 10

    def __post_init__(self):
        if self.delta_lo_hz <= 0 or self.resolution_hz <= 0:
            raise ValueError("delta_lo_hz and resolution_hz must be positive")
        if self.band_halfwidth_hz >= self.delta_lo_hz:
            raise ValueError("fit bands around the two sidebands must not overlap")

    @property
    def delta_lo(self) -> float:
        return TWO_PI * self.delta_lo_hz

    def resolve_calibration(self, rates: DerivedRates, n_bar: float) -> float:
        """Peak-to-floor SNR -> gain, referenced to the drive-off Stokes peak."""
        if self.calibration is not None:
            return self.calibration
        peak = 4 * (n_bar + 1) / rates.gamma_eff  # s = 0 Stokes peak PSD
        return self.snr * self.floor / peak


def synthetic_grid_hz(center_hz: float, detection: DetectionConfig) -> np.ndarray:
    """Uniform grid spanning both sidebands plus the fitted bands."""
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
    mask: np.ndarray | None = None,
    meta: dict | None = None,
) -> SpectrumData:
    """Noisy averaged periodogram: bin ~ mean_psd * Gamma(n_avg, 1/n_avg).

    `mean_psd` is the model sampled on `freq_hz` (e.g. the PSD that
    heterodyne_composite returns).  Per-bin mean equals the model, relative
    standard deviation 1/sqrt(n_avg); bins are independent.  Deterministic
    per seed.
    """
    if n_avg < 1:
        raise ValueError("n_avg must be >= 1")
    freq_hz = np.asarray(freq_hz, dtype=float)
    truth = np.asarray(mean_psd, dtype=float)
    if np.any(truth < 0):
        raise ValueError("model PSD must be nonnegative on the grid")
    rng = np.random.default_rng(seed)
    noisy = truth * rng.gamma(shape=n_avg, scale=1.0 / n_avg, size=truth.shape)
    info = {"seed": seed} if meta is None else {"seed": seed, **meta}
    return SpectrumData(freq_hz=freq_hz, psd=noisy, n_avg=n_avg, mask=mask, meta=info)


def synth_timeseries(
    rates: DerivedRates,
    n_bar: float,
    delta_lo: float,
    fs: float,
    duration: float,
    seed: int,
    floor: float = 0.0,
    calibration: float = 1.0,
    carrier_hz: float | None = None,
) -> EnvelopeTrace:
    """Complex heterodyne-analog record with both motional sidebands.

    v(t) = sqrt(cal) * 2 beta(t) cos(2 pi f_lo t) e^{2 pi i f_c t} + noise,
    beta from the envelope SDE, f_lo = delta_lo/2pi, carrier f_c = fs/4 by
    default and white complex noise at two-sided PSD `floor`.  Demodulating
    at f_c -/+ f_lo recovers the envelope; the two sidebands are mutually
    coherent, as they are for a single mechanical mode.
    """
    delta_lo_hz = delta_lo / TWO_PI
    if fs <= 4 * delta_lo_hz:
        raise GridError("fs must exceed 4 * delta_lo / 2pi")
    f_c = fs / 4 if carrier_hz is None else carrier_hz
    if f_c + delta_lo_hz >= fs / 2:
        raise GridError("carrier + delta_lo would alias at this sample rate")
    dt = 1.0 / fs
    beta = sde_simulate(rates, n_bar, duration, dt, seed=task_seed(seed, 0))
    n = beta.samples.size
    t = np.arange(n) * dt
    signal = (
        math.sqrt(calibration)
        * 2.0
        * beta.samples
        * np.cos(TWO_PI * delta_lo_hz * t)
        * np.exp(2j * math.pi * f_c * t)
    )
    if floor > 0:
        rng = task_rng(seed, 1)
        scale = math.sqrt(floor * fs / 2)
        signal = signal + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return EnvelopeTrace(samples=signal, dt=dt, seed=seed)


def lockin_demodulate(
    trace: EnvelopeTrace, f_demod: float, theta: float, lowpass_cutoff: float
) -> np.ndarray:
    """Real quadrature record of the lock-in output.

    The record is mixed down by f_demod (Hz), brick-wall low-passed at
    lowpass_cutoff, and the theta quadrature is taken; the 1/sqrt(2) makes
    the output PSD equal (S_XthXth(f - f_lo) + S_XthXth(f + f_lo)) / 2 at
    unit calibration.  theta = -phi/2 selects the squeezed Y quadrature.
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
    return (np.exp(1j * theta) * lowpassed).real / math.sqrt(2)


def segment_average(
    trace,
    segment_seconds: float,
    resolution_hz: float | None = None,
    dt: float | None = None,
) -> SpectrumData:
    """Non-overlapping rectangular-window periodograms, averaged.

    Resolution is 1/segment_seconds; if resolution_hz is passed it must
    agree.  The segment length must land on the sample grid.  Complex input
    yields a two-sided spectrum, real input one-sided.
    """
    if isinstance(trace, EnvelopeTrace):
        samples, dt = trace.samples, trace.dt
    else:
        samples = np.asarray(trace)
        if dt is None:
            raise ValueError("dt required for plain arrays")
    n_per = segment_seconds / dt
    if abs(n_per - round(n_per)) > 1e-9 * n_per:
        raise GridError("segment_seconds is not an integer number of samples")
    n_per = int(round(n_per))
    res = 1.0 / segment_seconds
    if resolution_hz is not None and abs(res - resolution_hz) > 1e-9 * res:
        raise GridError(
            f"requested resolution {resolution_hz} Hz inconsistent with "
            f"{segment_seconds} s segments"
        )
    n_seg = samples.size // n_per
    if n_seg < 2:
        raise GridError("series shorter than 2 segments")
    fs = 1.0 / dt
    chunks = samples[: n_seg * n_per].reshape(n_seg, n_per)
    spec = np.fft.fft(chunks, axis=1)
    psd = (spec * np.conj(spec)).real / (fs * n_per)
    psd = psd.mean(axis=0)
    freq = np.fft.fftfreq(n_per, d=dt)
    if np.iscomplexobj(samples):
        freq, psd = np.fft.fftshift(freq), np.fft.fftshift(psd)
    else:
        half = n_per // 2 + 1
        freq, psd = freq[:half].copy(), psd[:half].copy()
        if n_per % 2 == 0:
            freq[-1] = -freq[-1]
            psd[1:-1] *= 2
        else:
            psd[1:] *= 2
    return SpectrumData(
        freq_hz=freq,
        psd=np.clip(psd, 0.0, None),
        n_avg=n_seg,
        meta={"segment_seconds": segment_seconds},
    )


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
    n_avg: int | None = None,
) -> OnOffPair:
    """Drive-on / drive-off synthetic pair from explicit rate sets."""
    n_avg = detection.n_avg if n_avg is None else n_avg
    cal = detection.resolve_calibration(rates_off, n_bar)
    center_hz = rates_on.omega_m / TWO_PI
    freq = synthetic_grid_hz(center_hz, detection)
    centers = (center_hz + detection.delta_lo_hz, center_hz - detection.delta_lo_hz)
    mask = band_mask(freq, centers, detection.band_halfwidth_hz)
    grid = TWO_PI * freq

    spectra = {}
    for label, rates, idx in (("on", rates_on, 0), ("off", rates_off, 1)):
        _, mean_psd = heterodyne_composite(
            rates, n_bar, detection.delta_lo, cal, detection.floor, grid
        )
        spectra[label] = synth_periodogram(
            mean_psd,
            freq,
            n_avg,
            seed=task_seed(seed, idx),
            mask=mask,
            meta={"drive": label, **_truth_meta(rates, n_bar, detection, cal)},
        )
    return OnOffPair(
        drive_on=spectra["on"],
        drive_off=spectra["off"],
        shared_params=params,
        gamma_eff_off=rates_off.gamma_eff,
    )


def make_onoff_pair(
    params: SystemParams,
    pump: PumpConfig,
    detection: DetectionConfig,
    n_avg: int,
    seed: int,
    pump_off_variant: PumpConfig | None = None,
) -> OnOffPair:
    """Physical-level pair: off member keeps cooling, drops the parametric rate."""
    rates_on = derive_all(params, pump)
    rates_off = derive_all(params, pump_off_variant or pump).without_parametric_drive()
    if pump_off_variant is None:
        # identical cooling by construction; keep one grid center
        rates_off = replace(rates_off, omega_m=rates_on.omega_m)
    return synth_onoff_from_rates(
        rates_on,
        rates_off,
        n_bar=rates_on.n_bar,
        detection=detection,
        seed=seed,
        params=params,
        n_avg=n_avg,
    )
