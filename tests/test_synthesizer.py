import math
from dataclasses import asdict

import numpy as np
import pytest
from scipy.optimize import curve_fit

from conftest import TWO_PI, folded_periodogram, full_grid_pair
from sqzband.cli import _truth_from_config
from sqzband.core import DerivedRates, PumpConfig, derive_all
from sqzband.errors import GridError
from sqzband.fitter import fit_pair_two_stage
from sqzband.lineshape import Lorentzian, antistokes_spectrum, stokes_spectrum
from sqzband.oracle import welch_psd
from sqzband.synthesizer import (
    DetectionConfig,
    band_mask,
    lockin_demodulate,
    segment_average,
    synth_onoff_from_rates,
    synth_periodogram,
    synth_timeseries,
    synthetic_grid_hz,
)


def lorentz_floor(f, amp, fwhm, center, floor):
    return floor + amp / ((f - center) ** 2 + fwhm**2 / 4)


class TestSynthPeriodogram:
    def test_large_averages_recover_model(self):
        freq = np.linspace(0, 100, 64)
        data = synth_periodogram(np.full(freq.size, 3.0), freq, n_avg=10**6, seed=5)
        assert np.all(np.abs(data.psd / 3.0 - 1) < 0.005)

    def test_relative_scatter_matches_gamma_law(self):
        freq = np.linspace(0, 100, 101)
        mean = np.full(freq.size, 1.0)
        draws = np.stack(
            [synth_periodogram(mean, freq, n_avg=10, seed=k).psd for k in range(100)]
        )
        rel_std = draws.std(axis=0, ddof=1).mean()
        assert rel_std == pytest.approx(1 / math.sqrt(10), rel=0.05)
        assert draws.mean() == pytest.approx(1.0, rel=0.01)
        assert draws.var(ddof=1) == pytest.approx(1.0 / 10, rel=0.05)

    def test_deterministic_per_seed(self):
        freq = np.linspace(0, 10, 32)
        mean = np.full(freq.size, 2.0)
        a = synth_periodogram(mean, freq, n_avg=7, seed=42)
        b = synth_periodogram(mean, freq, n_avg=7, seed=42)
        assert np.array_equal(a.psd, b.psd)
        assert a.n_avg == 7 and a.meta["seed"] == 42

    def test_negative_model_rejected(self):
        freq = np.linspace(-5, 5, 11)
        bad = Lorentzian(0.0, TWO_PI * 10.0, -5.0).psd(TWO_PI * freq)
        with pytest.raises(ValueError):
            synth_periodogram(bad, freq, n_avg=5, seed=1)


class TestSynthTimeseries:
    def test_floor_only_flat(self):
        # away from the sidebands (10 linewidths and more) only the floor is left
        rates = DerivedRates.from_effective(TWO_PI * 20, 0.0, n_bar=0.0)
        trace = synth_timeseries(
            rates, 0.0, TWO_PI * 64, fs=2048.0, duration=64.0, seed=3, floor=0.5
        )
        spec = segment_average(trace.samples, segment_seconds=0.5, dt=trace.dt)
        offsets = spec.freq_hz - 2048.0 / 4  # from the carrier fs/4
        far = np.minimum(np.abs(offsets - 64.0), np.abs(offsets + 64.0)) >= 200.0
        assert spec.psd[far].mean() == pytest.approx(0.5, rel=0.02)
        assert spec.psd[far].std() / spec.psd[far].mean() < 0.1

    def test_deterministic(self):
        rates = DerivedRates.from_effective(TWO_PI * 20, 0.3, n_bar=1.0)
        kwargs = dict(fs=2048.0, duration=8.0, seed=21, floor=0.1)
        a = synth_timeseries(rates, 1.0, TWO_PI * 64, **kwargs)
        b = synth_timeseries(rates, 1.0, TWO_PI * 64, **kwargs)
        assert np.array_equal(a.samples, b.samples)

    def test_aliasing_guard(self):
        rates = DerivedRates.from_effective(TWO_PI * 20, 0.0)
        with pytest.raises(GridError):
            synth_timeseries(rates, 1.0, TWO_PI * 600, fs=2048.0, duration=4.0, seed=1)

    def test_no_drive_sideband_widths(self):
        gamma_hz = 8.0
        rates = DerivedRates.from_effective(TWO_PI * gamma_hz, 0.0, n_bar=2.0)
        trace = synth_timeseries(
            rates, 2.0, TWO_PI * 64, fs=2048.0, duration=512.0, seed=9
        )
        spec = segment_average(trace.samples, segment_seconds=1.0, dt=trace.dt)
        carrier = 512.0
        for sign in (+1, -1):
            center = carrier + sign * 64.0
            sel = np.abs(spec.freq_hz - center) < 30
            popt, _ = curve_fit(
                lorentz_floor,
                spec.freq_hz[sel],
                spec.psd[sel],
                p0=[spec.psd[sel].max() * gamma_hz**2 / 4, gamma_hz, center, 0.0],
            )
            assert abs(popt[1]) == pytest.approx(gamma_hz, rel=0.1)

    def test_pipeline_identity_symmetrized_composite(self):
        """Large-average segment PSD converges to the symmetrized composite.

        A classical trajectory carries no operator ordering, so its sidebands
        converge to (S_stokes + S_anti)/2 at both centers; systematic bin-mean
        deviation must stay below 1% (statistical per-bin scatter 1/sqrt(n_avg)).
        """
        gamma_hz, n_bar, s = 8.0, 1.5, 0.4
        fs, delta_lo_hz, duration = 8192.0, 64.0, 600.0
        rates = DerivedRates.from_effective(TWO_PI * gamma_hz, s, phi=0.9, n_bar=n_bar)
        trace = synth_timeseries(
            rates, n_bar, TWO_PI * delta_lo_hz, fs=fs, duration=duration, seed=31, floor=0.02
        )
        spec = segment_average(trace.samples, segment_seconds=1.0, dt=trace.dt)
        carrier = fs / 4
        offsets = TWO_PI * (spec.freq_hz - carrier)
        sym = 0.5 * (
            stokes_spectrum(rates, n_bar, offsets - TWO_PI * delta_lo_hz)
            + antistokes_spectrum(rates, n_bar, offsets - TWO_PI * delta_lo_hz)
            + stokes_spectrum(rates, n_bar, offsets + TWO_PI * delta_lo_hz)
            + antistokes_spectrum(rates, n_bar, offsets + TWO_PI * delta_lo_hz)
        )
        model = 0.02 + sym
        band = (np.abs(spec.freq_hz - carrier - delta_lo_hz) < 40) | (
            np.abs(spec.freq_hz - carrier + delta_lo_hz) < 40
        )
        ratio = spec.psd[band] / model[band]
        assert abs(ratio.mean() - 1) < 0.01
        assert np.max(np.abs(ratio - 1)) < 6 / math.sqrt(spec.n_avg)


class TestLockinDemodulate:
    def setup_trace(self, s, seed=15, phi=0.9, duration=256.0):
        gamma_hz = 8.0
        rates = DerivedRates.from_effective(TWO_PI * gamma_hz, s, phi=phi, n_bar=2.0)
        trace = synth_timeseries(
            rates, 2.0, TWO_PI * 64, fs=2048.0, duration=duration, seed=seed,
            floor=0.0,
        )
        return rates, trace

    def fitted_width(self, series, dt):
        spec = welch_psd(series, segment_length=4096, dt=dt)
        sel = np.abs(spec.freq_hz - 64.0) < 30
        popt, _ = curve_fit(
            lorentz_floor,
            spec.freq_hz[sel],
            spec.psd[sel],
            p0=[spec.psd[sel].max() * 16, 8.0, 64.0, 0.0],
        )
        return abs(popt[1])

    def test_squeezed_quadrature_width(self):
        rates, trace = self.setup_trace(0.5)
        y = lockin_demodulate(trace, f_demod=512.0, theta=-rates.phi / 2, lowpass_cutoff=128.0)
        x = lockin_demodulate(
            trace, f_demod=512.0, theta=-rates.phi / 2 + math.pi / 2, lowpass_cutoff=128.0
        )
        assert y.var() < x.var()
        w_y = self.fitted_width(y, trace.dt)
        w_x = self.fitted_width(x, trace.dt)
        assert w_y == pytest.approx(8.0 * 1.5, rel=0.1)  # Gamma_plus
        assert w_x == pytest.approx(8.0 * 0.5, rel=0.1)  # Gamma_minus

    def test_no_drive_quadratures_indistinguishable(self):
        rates, trace = self.setup_trace(0.0)
        widths = [
            self.fitted_width(
                lockin_demodulate(trace, 512.0, theta, lowpass_cutoff=128.0), trace.dt
            )
            for theta in (0.2, 0.2 + math.pi / 2)
        ]
        assert widths[0] == pytest.approx(widths[1], rel=0.1)
        assert widths[0] == pytest.approx(8.0, rel=0.1)

    def test_theta_period(self):
        rates, trace = self.setup_trace(0.5, duration=32.0)
        a = lockin_demodulate(trace, 512.0, 0.7, lowpass_cutoff=128.0)
        b = lockin_demodulate(trace, 512.0, 0.7 + math.pi, lowpass_cutoff=128.0)
        assert np.allclose(a, -b, atol=1e-12)

    def test_cutoff_validation(self):
        _, trace = self.setup_trace(0.0, duration=32.0)
        with pytest.raises(ValueError):
            lockin_demodulate(trace, 512.0, 0.0, lowpass_cutoff=600.0)


class TestSegmentAverage:
    def test_protocol_numbers(self):
        fs = 1000.0
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(int(100 * fs))
        spec = segment_average(samples, segment_seconds=5.0, dt=1 / fs)
        assert spec.n_avg == 20
        assert spec.resolution_hz == pytest.approx(0.2, rel=1e-12)

    def test_constant_signal_dc_bin(self):
        spec = segment_average(np.full(4096, 3.0), segment_seconds=1.0, dt=1 / 1024)
        assert spec.psd[0] > 0
        assert np.all(spec.psd[1:] < 1e-20 * spec.psd[0])

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(GridError):
            segment_average(np.zeros(4096), segment_seconds=0.3333, dt=1 / 1024)

    @pytest.mark.parametrize("segment_seconds", [0.0, -1.0, math.nan, math.inf, 1 / 1024])
    def test_degenerate_segment_rejected(self, segment_seconds):
        with pytest.raises(GridError):
            segment_average(np.zeros(4096), segment_seconds=segment_seconds, dt=1 / 1024)

    @pytest.mark.parametrize("n_per", [512, 511])
    def test_matches_folded_fft_reference(self, n_per):
        dt = 1 / 1024
        rng = np.random.default_rng(13)
        x = rng.standard_normal(6 * n_per + 100)
        for samples in (x, x + 1j * rng.standard_normal(x.size)):
            spec = segment_average(samples, segment_seconds=n_per * dt, dt=dt)
            freq, psd = folded_periodogram(samples, n_per, n_per, np.ones(n_per), dt)
            assert spec.n_avg == 6
            assert spec.meta == {"segment_seconds": n_per * dt}
            np.testing.assert_array_equal(spec.freq_hz, freq)
            np.testing.assert_allclose(spec.psd, psd, rtol=1e-12, atol=0)

    def test_matches_gamma_noise_statistics(self):
        # averaged periodogram of white noise scatters per the Gamma law
        fs = 1024.0
        rng = np.random.default_rng(44)
        samples = rng.standard_normal(int(fs * 256))
        spec = segment_average(samples, segment_seconds=0.5, dt=1 / fs)
        level = 2 / fs
        inner = spec.psd[(spec.freq_hz > 20) & (spec.freq_hz < 480)]
        assert inner.mean() == pytest.approx(level, rel=0.02)
        assert inner.std() / inner.mean() == pytest.approx(
            1 / math.sqrt(spec.n_avg), rel=0.1
        )


class TestOnOffPair:
    def test_shared_grid_and_masks(self):
        rates_on = DerivedRates.from_effective(
            TWO_PI * 100, 0.5, omega_m=TWO_PI * 530e3, n_bar=5.8
        )
        det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0)
        pair = synth_onoff_from_rates(
            rates_on, rates_on.without_parametric_drive(), 5.8, det, seed=7
        )
        assert np.array_equal(pair.drive_on.freq_hz, pair.drive_off.freq_hz)
        assert pair.drive_on.n_avg == pair.drive_off.n_avg == det.n_avg
        assert pair.drive_off.meta["truth"]["gamma_eff_hz"] == rates_on.gamma_eff / TWO_PI
        centers = 530e3 + np.array([-1.1e3, 1.1e3])
        expected_mask = band_mask(pair.drive_on.freq_hz, centers, 300.0)
        assert np.array_equal(pair.drive_on.mask, expected_mask)
        assert pair.drive_on.meta["truth"]["s"] == 0.5
        assert pair.drive_off.meta["truth"]["s"] == 0.0

    @pytest.mark.parametrize("seed", [3, 29, 4242])
    @pytest.mark.parametrize("which", ["experiment", "bias"])
    def test_band_bins_equal_full_grid_draw(self, paper_run_config, which, seed):
        # the stored bands are the full-grid synthesis restricted to them,
        # bit for bit, and fit exactly as the full masked pair does
        truth = _truth_from_config(paper_run_config, bias=which == "bias")
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(
            rates_on, rates_off, truth.n_bar, truth.detection, seed=seed
        )
        full = full_grid_pair(truth, seed)
        for got, ref in ((pair.drive_on, full.drive_on), (pair.drive_off, full.drive_off)):
            keep = ref.included()
            assert got.n_bins == np.count_nonzero(keep) < ref.n_bins
            assert not got.mask.any()
            assert got.freq_hz.tobytes() == ref.freq_hz[keep].tobytes()
            assert got.psd.tobytes() == ref.psd[keep].tobytes()
        got_fits = [asdict(r) for r in fit_pair_two_stage(pair.drive_off, pair.drive_on)]
        ref_fits = [asdict(r) for r in fit_pair_two_stage(full.drive_off, full.drive_on)]
        assert repr(got_fits) == repr(ref_fits)

    def test_drawn_selects_one_variate_per_bin(self):
        freq = 100.0 + 0.5 * np.arange(6)
        drawn = np.array([0, 1, 1, 0, 1, 0], dtype=bool)
        whole = synth_periodogram(np.full(6, 2.0), freq, n_avg=4, seed=9)
        stream = np.random.default_rng(9).gamma(shape=4, scale=0.25, size=6)
        assert whole.psd.tobytes() == (2.0 * stream).tobytes()
        part = synth_periodogram(np.full(3, 2.0), freq[drawn], n_avg=4, seed=9, drawn=drawn)
        assert np.array_equal(part.psd, whole.psd[drawn])
        with pytest.raises(GridError):
            synth_periodogram(np.full(2, 2.0), freq[:2], n_avg=4, seed=9, drawn=drawn)

    def test_physical_level_pair(self, paper_run_config):
        cfg = paper_run_config
        det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=250.0, n_avg=5)
        rates = derive_all(cfg.params, cfg.pump)
        off = rates.without_parametric_drive()
        pair = synth_onoff_from_rates(rates, off, rates.n_bar, det, seed=3)
        assert pair.drive_on.n_avg == 5
        truth = pair.drive_off.meta["truth"]
        assert truth["gamma_eff_hz"] == pytest.approx(rates.gamma_eff / TWO_PI, rel=1e-12)
        assert pair.drive_off.meta["truth"]["s"] == 0.0

    def test_parametric_tone_share_lowers_off_r0(self, paper_run_config):
        # at constant total pump power, moving power into the upper tone
        # reduces the cooling share and the off-pair sideband asymmetry
        cfg = paper_run_config
        total = cfg.pump.total_flux

        def off_r0(upper_fraction):
            pump = PumpConfig(
                alpha_in_minus=math.sqrt(total * (1 - upper_fraction)),
                alpha_in_plus=math.sqrt(total * upper_fraction),
            )
            rates = derive_all(cfg.params, pump).without_parametric_drive()
            return (rates.n_bar + 1) / rates.n_bar

        fractions = [0.05, 0.15, 0.3]
        values = [off_r0(f) for f in fractions]
        assert values[0] > values[1] > values[2]

    def test_snr_sets_the_drive_off_stokes_peak(self):
        rates = DerivedRates.from_effective(TWO_PI * 100, 0.0, n_bar=5.8)
        auto = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0)
        cal = auto.resolve_calibration(rates, 5.8)
        peak = cal * 4 * (5.8 + 1) / rates.gamma_eff
        assert peak == pytest.approx(30.0 * auto.floor, rel=1e-12)

    @pytest.mark.parametrize("resolution_hz, accepted", [(0.0025, True), (0.002, False)])
    def test_grid_beyond_the_bound_rejected(self, resolution_hz, accepted):
        # paper.ini's offsets: 9.04e6 bins at 2.5 mHz, 1.13e7 at 2 mHz (bound 1e7)
        kwargs = {"delta_lo_hz": 11e3, "band_halfwidth_hz": 300.0, "resolution_hz": resolution_hz}
        if accepted:
            DetectionConfig(**kwargs)
        else:
            with pytest.raises(ValueError, match="synthesis grid"):
                DetectionConfig(**kwargs)

    @pytest.mark.parametrize("halfwidth_hz, accepted", [(0.6, True), (0.5, False), (0.25, False)])
    def test_band_narrower_than_the_fit_kernel_rejected(self, halfwidth_hz, accepted):
        kwargs = {"delta_lo_hz": 1.1e3, "band_halfwidth_hz": halfwidth_hz}
        if accepted:
            det = DetectionConfig(**kwargs)
            freq = synthetic_grid_hz(530e3, det)
            assert np.count_nonzero(~band_mask(freq, 530e3 + 1.1e3, halfwidth_hz)) == 7
        else:
            with pytest.raises(ValueError, match="7 bins"):
                DetectionConfig(**kwargs)

    def test_grid_helper_covers_bands(self):
        det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0)
        freq = synthetic_grid_hz(530e3, det)
        assert freq.min() <= 530e3 - 1.1e3 - 300.0
        assert freq.max() >= 530e3 + 1.1e3 + 300.0
        step = np.diff(freq)
        assert np.allclose(step, det.resolution_hz, rtol=1e-9)
