import json
import math
from pathlib import Path

import numpy as np
import pytest

from sqzband.core import PumpConfig, SystemParams, derive_all
from sqzband.errors import SqzbandError

REPO_ROOT = Path(__file__).resolve().parent.parent
PAPER_CONFIG = REPO_ROOT / "configs" / "paper.ini"

TWO_PI = 2 * math.pi


def load_strict_json(path):
    """JSON file contents; NaN, Infinity and -Infinity (not RFC 8259) raise."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(Path(path).read_text(), parse_constant=reject)


@pytest.fixture(scope="session")
def paper_config_path():
    return PAPER_CONFIG


@pytest.fixture(scope="session")
def paper_run_config():
    from sqzband.config import load_config

    return load_config(PAPER_CONFIG)


def sample_system(rng) -> tuple[SystemParams, PumpConfig]:
    """One random physical configuration (may be unstable)."""
    kappa_hz = 10 ** rng.uniform(5.3, 6.7)
    omega_m_hz = 10 ** rng.uniform(5.0, 6.0)
    params = SystemParams.from_hz(
        kappa_hz=kappa_hz,
        kappa_in_hz=kappa_hz * rng.uniform(0.3, 1.0),
        g0_hz=rng.uniform(5.0, 60.0),
        omega_m_hz=omega_m_hz,
        gamma_m_hz=10 ** rng.uniform(-1.5, 0.5),
        delta_hz=rng.uniform(-0.4, 0.4) * kappa_hz,
        n_th=10 ** rng.uniform(2.0, 5.5),
    )
    scale = 10 ** rng.uniform(4.5, 6.2)
    pump = PumpConfig(
        alpha_in_minus=scale * rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, TWO_PI)),
        alpha_in_plus=scale * rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI)),
    )
    return params, pump


def load_table(path):
    """CSV table -> structured array, tolerant of leading '#' comments."""
    lines = Path(path).read_text().splitlines()
    skip = sum(1 for line in lines if line.startswith("#"))
    return np.genfromtxt(path, delimiter=",", names=True, skip_header=skip)


def sample_stable_rates(rng, max_tries: int = 200):
    """(params, pump, rates) from rejection sampling of the stable domain."""
    for _ in range(max_tries):
        params, pump = sample_system(rng)
        try:
            rates = derive_all(params, pump)
        except SqzbandError:
            continue
        if rates.gamma_eff > 10 * params.gamma_m and abs(rates.s) < 0.9:
            return params, pump, rates
    raise RuntimeError("could not sample a stable configuration")


def folded_periodogram(samples, segment_length: int, step: int, taper, dt: float):
    """Reference averaged periodogram from two-sided np.fft.fft segments.

    Complex input: all bins, fftshifted.  Real input: each positive bin k
    gets its mirror bin -k added by hand; DC and (even lengths) Nyquist are
    kept once.  Returns (freq_hz, psd).
    """
    n = segment_length
    starts = range(0, samples.size - n + 1, step)
    power = np.mean([np.abs(np.fft.fft(samples[k : k + n] * taper)) ** 2 for k in starts], axis=0)
    power *= dt / np.sum(taper**2)
    freq = np.fft.fftfreq(n, d=dt)
    if np.iscomplexobj(samples):
        return np.fft.fftshift(freq), np.fft.fftshift(power)
    one_sided = power[: n // 2 + 1].copy()
    n_mirrored = (n - 1) // 2
    one_sided[1 : n_mirrored + 1] += power[:0:-1][:n_mirrored]  # power[n - k], k = 1..
    return np.abs(freq[: n // 2 + 1]), one_sided


def full_grid_pair(truth, seed: int):
    """Reference drive-on/off pair on the whole synthetic grid, out-of-band
    bins masked: the model and the Gamma(n_avg) draw taken on every bin.

    Built from the public pieces, independently of synth_onoff_from_rates,
    which stores the fitted bands only."""
    from sqzband.data import OnOffPair, SpectrumData
    from sqzband.lineshape import heterodyne_composite
    from sqzband.seeding import task_seed
    from sqzband.synthesizer import band_mask, synthetic_grid_hz

    det = truth.detection
    rates_on, rates_off = truth.rates_pair()
    cal = det.resolve_calibration(rates_off, truth.n_bar)
    center_hz = rates_on.omega_m / TWO_PI
    freq = synthetic_grid_hz(center_hz, det)
    centers = (center_hz + det.delta_lo_hz, center_hz - det.delta_lo_hz)
    mask = band_mask(freq, centers, det.band_halfwidth_hz)
    spectra = []
    for idx, rates in enumerate((rates_on, rates_off)):
        _, mean_psd = heterodyne_composite(
            rates, truth.n_bar, det.delta_lo, cal, det.floor, TWO_PI * freq
        )
        rng = np.random.default_rng(task_seed(seed, idx))
        psd = mean_psd * rng.gamma(shape=det.n_avg, scale=1.0 / det.n_avg, size=freq.size)
        spectra.append(SpectrumData(freq_hz=freq, psd=psd, n_avg=det.n_avg, mask=mask))
    return OnOffPair(drive_on=spectra[0], drive_off=spectra[1], shared_params=None)
