import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.signal import get_window, lfilter

from conftest import TWO_PI, folded_periodogram, sample_stable_rates
from sqzband.core import DerivedRates
from sqzband.errors import GridError
from sqzband.lineshape import antistokes_spectrum, quadrature_spectrum, stokes_spectrum
from sqzband.oracle import (
    _CHUNK,
    EnvelopeTrace,
    IllConditionedWarning,
    NoiseCorrelators,
    TransferMatrix,
    propagate_spectra,
    quadrature_series,
    sde_simulate,
    welch_psd,
)


def traced_peak(fn, *args, **kwargs):
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def stacked_propagation(rates, correlators, grid, thetas):
    """(stokes, antistokes, quadratures) from the stacked (n, 2, 2) matrix of
    `TransferMatrix.matrix`: adjugate over determinant, contracted column by
    column.  The reference for the flat solve of `propagate_spectra`."""
    tm = TransferMatrix.from_rates(rates)
    corr = correlators.matrix()

    def inverse(d):
        m = tm.matrix(d)
        det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
        adj = np.empty_like(m)
        adj[:, 0, 0], adj[:, 1, 1] = m[:, 1, 1], m[:, 0, 0]
        adj[:, 0, 1], adj[:, 1, 0] = -m[:, 0, 1], -m[:, 1, 0]
        return adj / det[:, None, None]

    def contract(left, right):
        total = np.zeros(left.shape[0], dtype=complex)
        for i in range(2):
            for j in range(2):
                total += left[:, i] * right[:, j] * corr[i, j]
        return total

    def symmetrized(left_pos, right_pos, left_neg, right_neg):
        return 0.5 * (contract(left_neg, right_pos).real + contract(left_pos, right_neg).real)

    pos, neg = inverse(grid), inverse(-grid)
    quadratures = {}
    for th in thetas:
        phase = np.exp(1j * th)
        v_pos = (phase * pos[:, 0, :] + np.conj(phase) * pos[:, 1, :]) / 2
        v_neg = (phase * neg[:, 0, :] + np.conj(phase) * neg[:, 1, :]) / 2
        quadratures[th] = symmetrized(v_pos, v_pos, v_neg, v_neg)
    stokes = symmetrized(pos[:, 0], pos[:, 1], neg[:, 0], neg[:, 1])
    antistokes = symmetrized(pos[:, 1], pos[:, 0], neg[:, 1], neg[:, 0])
    return stokes, antistokes, quadratures


def one_segment_at_a_time(samples, segment_length, overlap_fraction, window, dt):
    """`welch_psd`'s psd with one transform per segment, summed in order."""
    step = max(1, int(round(segment_length * (1 - overlap_fraction))))
    n_seg = 1 + (samples.size - segment_length) // step
    is_complex = np.iscomplexobj(samples)
    transform = np.fft.fft if is_complex else np.fft.rfft
    taper = get_window(window, segment_length, fftbins=True)
    psd = np.zeros(segment_length if is_complex else segment_length // 2 + 1)
    for k in range(n_seg):
        spec = transform(samples[k * step : k * step + segment_length] * taper)
        psd += spec.real**2
        psd += spec.imag**2
    psd /= n_seg * np.sum(taper**2) / dt
    if is_complex:
        return np.fft.fftshift(psd)
    psd[1 : psd.size - (segment_length % 2 == 0)] *= 2
    return psd


class TestTransferMatrix:
    def test_determinant_factorization(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            gamma_eff = 10 ** rng.uniform(1, 4)
            s = rng.uniform(-0.95, 0.95)
            tm = TransferMatrix(gamma_eff, s * gamma_eff, rng.uniform(0, TWO_PI))
            grid = rng.uniform(-20, 20, size=64) * gamma_eff
            det = tm.determinant(grid)
            gp, gm = gamma_eff * (1 + s), gamma_eff * (1 - s)
            expected = (-1j * grid + gp / 2) * (-1j * grid + gm / 2)
            assert np.all(np.abs(det - expected) < 1e-12 * np.abs(det))

    def test_inverse_solves_system(self):
        tm = TransferMatrix(100.0, 55.0, 0.4)
        grid = np.linspace(-300, 300, 7)
        m, inv = tm.matrix(grid), tm.inverse(grid)
        prod = np.einsum("nij,njk->nik", m, inv)
        assert np.allclose(prod, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_inverse_near_instability(self, sign):
        tm = TransferMatrix(100.0, 99.9, 0.4)  # s = 0.999
        grid = sign * np.linspace(-300, 300, 601)  # passes through 0
        m, inv = tm.matrix(grid), tm.inverse(grid)
        err = np.abs(np.einsum("nij,njk->nik", m, inv) - np.eye(2)).max(axis=(1, 2))
        assert np.all(err <= 1e-12 * tm.condition_numbers(grid))

    @pytest.mark.parametrize("gamma_par", [100.0, -100.0])
    def test_singular_inverse_raises(self, gamma_par):
        # |s| = 1 at zero offset; with phi = 0 the determinant is exactly 0
        # (at other phases e^{i phi} e^{-i phi} need not round to 1)
        tm = TransferMatrix(100.0, gamma_par, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            tm.inverse(np.array([-1.0, 0.0, 1.0]))

    def test_non_finite_determinant_raises(self):
        tm = TransferMatrix(100.0, 55.0, 0.4)
        with pytest.raises(np.linalg.LinAlgError):
            tm.inverse(np.array([0.0, 1e200]))  # determinant overflows


class TestNoiseCorrelators:
    def test_physical_difference_is_total_damping(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            params, _, rates = sample_stable_rates(rng)
            corr = NoiseCorrelators.from_params(params, rates)
            assert corr.c_bbdag - corr.c_bdagb == pytest.approx(
                rates.gamma_eff, rel=1e-12
            )
            # equivalent occupancy form
            assert corr.c_bdagb == pytest.approx(rates.gamma_eff * rates.n_bar, rel=1e-12)

    def test_occupancy_form(self):
        corr = NoiseCorrelators.from_occupancy(TWO_PI * 90, 4.2, 1.0 + 2.0j)
        assert corr.c_bbdag - corr.c_bdagb == pytest.approx(TWO_PI * 90, rel=1e-15)
        assert corr.c_anom == 1.0 + 2.0j


class TestPropagateSpectra:
    def grid_for(self, rates):
        return np.linspace(-25, 25, 301) * rates.gamma_eff

    def test_matches_closed_forms_physical_configs(self):
        rng = np.random.default_rng(101)
        thetas = (0.0, 0.7, 1.9)
        for _ in range(15):
            params, _, rates = sample_stable_rates(rng)
            corr = NoiseCorrelators.from_params(params, rates)
            grid = self.grid_for(rates)
            out = propagate_spectra(rates, corr, grid, thetas=thetas)
            n_bar = rates.n_bar
            for numeric, closed in (
                (out.stokes, stokes_spectrum(rates, n_bar, grid)),
                (out.antistokes, antistokes_spectrum(rates, n_bar, grid)),
            ):
                assert np.max(np.abs(numeric - closed) / closed) < 1e-9
            for th in thetas:
                closed = quadrature_spectrum(rates, n_bar, th, grid)
                assert np.max(np.abs(out.quadratures[th] - closed) / closed) < 1e-9

    def test_special_angles_are_single_lorentzians(self):
        rates = DerivedRates.from_effective(
            TWO_PI * 80, 0.5, phi=1.1, n_bar=3.0, anomalous=200 * np.exp(1j * (1.1 - np.pi / 2))
        )
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 3.0, rates.anomalous)
        grid = self.grid_for(rates)
        out = propagate_spectra(rates, corr, grid, thetas=(-rates.phi / 2,))
        expected = rates.gamma_eff * 7 / (4 * (grid**2 + rates.gamma_plus**2 / 4))
        assert np.allclose(out.quadratures[-rates.phi / 2], expected, rtol=1e-10)

    def test_no_drive_single_lorentzian_ratio(self):
        rates = DerivedRates.from_effective(TWO_PI * 120, 0.0, n_bar=4.0)
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 4.0)
        grid = self.grid_for(rates)
        out = propagate_spectra(rates, corr, grid)
        ratio = out.stokes / out.antistokes
        assert np.allclose(ratio, 5.0 / 4.0, rtol=1e-10)

    def test_anomalous_correlator_drives_theta_dependence(self):
        # parametric terms only in the input correlators: zeroing c_anom
        # removes every theta dependence of the quadrature spectra
        gamma_eff = TWO_PI * 100
        rates_static = DerivedRates.from_effective(gamma_eff, 0.0, n_bar=1.0)
        grid = self.grid_for(rates_static)
        thetas = (0.0, 0.5, 1.2, 2.4)
        with_anom = propagate_spectra(
            rates_static,
            NoiseCorrelators.from_occupancy(gamma_eff, 1.0, anomalous=120 * 1j),
            grid,
            thetas=thetas,
        )
        without = propagate_spectra(
            rates_static,
            NoiseCorrelators.from_occupancy(gamma_eff, 1.0, anomalous=0.0j),
            grid,
            thetas=thetas,
        )
        base = without.quadratures[0.0]
        spread_without = max(
            np.max(np.abs(without.quadratures[th] - base)) for th in thetas
        )
        spread_with = max(
            np.max(np.abs(with_anom.quadratures[th] - with_anom.quadratures[0.0]))
            for th in thetas[1:]
        )
        assert spread_without < 1e-14 * np.max(base)
        assert spread_with > 1e-3 * np.max(base)

    def test_slices_do_not_move_a_bit(self):
        rng = np.random.default_rng(101)
        params, _, rates = sample_stable_rates(rng)
        corr = NoiseCorrelators.from_params(params, rates)
        grid = np.linspace(-25, 25, 2 * _CHUNK + 101) * rates.gamma_eff
        thetas = (0.0, 0.7)
        whole = propagate_spectra(rates, corr, grid, thetas=thetas)
        cut = grid.size // 2
        halves = [propagate_spectra(rates, corr, g, thetas=thetas) for g in (grid[:cut], grid[cut:])]
        for name in ("stokes", "antistokes"):
            joined = np.concatenate([getattr(h, name) for h in halves])
            assert np.array_equal(getattr(whole, name), joined)
        for th in thetas:
            joined = np.concatenate([h.quadratures[th] for h in halves])
            assert np.array_equal(whole.quadratures[th], joined)
        assert whole.max_condition == max(h.max_condition for h in halves)

    def test_flat_solve_matches_stacked_reference(self):
        rng = np.random.default_rng(2026)
        for _ in range(50):
            params, _, rates = sample_stable_rates(rng)
            corr = NoiseCorrelators.from_params(params, rates)
            grid = rng.uniform(-25, 25, size=rng.integers(2, 3000)) * rates.gamma_eff
            thetas = (0.0, 0.7, -rates.phi / 2)
            out = propagate_spectra(rates, corr, grid, thetas=thetas)
            stokes, antistokes, quadratures = stacked_propagation(rates, corr, grid, thetas)
            assert np.array_equal(out.stokes, stokes)
            assert np.array_equal(out.antistokes, antistokes)
            for th in thetas:
                assert np.array_equal(out.quadratures[th], quadratures[th])

    def test_empty_grid(self):
        rates = DerivedRates.from_effective(TWO_PI * 100, 0.3, n_bar=1.0)
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 1.0)
        out = propagate_spectra(rates, corr, np.array([]), thetas=(0.4,))
        assert out.stokes.shape == out.antistokes.shape == out.quadratures[0.4].shape == (0,)
        assert out.max_condition == 1.0

    def test_peak_memory(self):
        rates = DerivedRates.from_effective(TWO_PI * 80, 0.5, phi=1.1, n_bar=3.0)
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 3.0, 200j)
        grid = np.linspace(-27.3, 31.1, 200_000) * rates.gamma_eff
        thetas = (-rates.phi / 2, -rates.phi / 2 + math.pi / 2)
        _, peak = traced_peak(propagate_spectra, rates, corr, grid, thetas=thetas)
        assert peak <= 16 * grid.nbytes

    def test_condition_warning_near_instability(self):
        rates = DerivedRates.from_effective(TWO_PI * 100, 1 - 1e-7, n_bar=1.0)
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 1.0)
        with pytest.warns(IllConditionedWarning):
            propagate_spectra(rates, corr, np.array([0.0, rates.gamma_eff]))


class TestSdeSimulate:
    def make_rates(self, s):
        return DerivedRates.from_effective(TWO_PI * 100, s, phi=0.6)

    def test_deterministic_per_seed(self):
        rates = self.make_rates(0.4)
        a = sde_simulate(rates, 1.5, duration=1.0, dt=1e-4, seed=77)
        b = sde_simulate(rates, 1.5, duration=1.0, dt=1e-4, seed=77)
        assert np.array_equal(a.samples, b.samples)
        c = sde_simulate(rates, 1.5, duration=1.0, dt=1e-4, seed=78)
        assert not np.array_equal(a.samples, c.samples)

    def test_stationary_variances_thermal(self):
        rates = self.make_rates(0.0)
        n_bar = 2.0
        trace = sde_simulate(rates, n_bar, duration=8.0, dt=1e-4, seed=11)
        target = (2 * n_bar + 1) / 4
        assert trace.samples.real.var() == pytest.approx(target, rel=0.15)
        assert trace.samples.imag.var() == pytest.approx(target, rel=0.15)

    def test_squeezed_variances(self):
        rates = self.make_rates(0.5)
        n_bar = 1.0
        trace = sde_simulate(rates, n_bar, duration=16.0, dt=1e-4, seed=13)
        y = quadrature_series(trace, -rates.phi / 2)
        x = quadrature_series(trace, -rates.phi / 2 + math.pi / 2)
        sigma0_sq = (2 * n_bar + 1) / 4
        assert y.var() == pytest.approx(sigma0_sq / 1.5, rel=0.15)
        assert x.var() == pytest.approx(sigma0_sq / 0.5, rel=0.15)

    def test_envelope_peak_memory(self):
        rates = self.make_rates(0.5)
        sde_simulate(rates, 1.0, duration=0.2, dt=1e-4, seed=5)  # loads scipy.signal
        trace, peak = traced_peak(sde_simulate, rates, 1.0, duration=2.0, dt=1e-5, seed=5)
        assert peak <= 1.3 * trace.samples.nbytes

    @staticmethod
    def one_shot(rates, n_bar, n, dt, seed):
        """The recurrence with one draw and one filter call per quadrature."""
        rng = np.random.default_rng(seed)
        diffusion = rates.gamma_eff * (2 * n_bar + 1) / 4

        def chain(gamma):
            a = 1.0 - gamma * dt / 2
            x0 = math.sqrt(diffusion * dt / (1 - a * a)) * rng.standard_normal()
            noise = math.sqrt(diffusion * dt) * rng.standard_normal(n - 1)
            rest, _ = lfilter([1.0], [1.0, -a], noise, zi=np.array([a * x0]))
            return np.concatenate(([x0], rest))

        u = chain(rates.gamma_plus)
        v = chain(rates.gamma_minus)
        beta = np.empty(n, dtype=complex)
        beta.real, beta.imag = u, v
        return np.exp(1j * rates.phi / 2) * beta

    @pytest.mark.parametrize("n", [_CHUNK // 2, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_do_not_move_a_bit(self, n):
        rates = DerivedRates.from_effective(TWO_PI * 1000, 0.5, phi=0.6)
        dt = 5e-6
        trace = sde_simulate(rates, 1.0, duration=n * dt, dt=dt, seed=5)
        assert trace.samples.size == n
        assert np.array_equal(trace.samples, self.one_shot(rates, 1.0, n, dt, seed=5))

    def test_preconditions(self):
        rates = self.make_rates(0.5)
        with pytest.raises(ValueError):
            sde_simulate(rates, 1.0, duration=10.0, dt=1e-3, seed=1)  # dt too big
        with pytest.raises(ValueError):
            sde_simulate(rates, 1.0, duration=0.05, dt=1e-5, seed=1)  # too short


class TestQuadratureSeries:
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 7])
    def test_chunks_do_not_move_a_bit(self, n):
        rng = np.random.default_rng(8)
        trace = EnvelopeTrace(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1e-4)
        for theta in (0.0, 0.7, -2.3):
            expected = (np.exp(1j * theta) * trace.samples).real
            assert np.array_equal(quadrature_series(trace, theta), expected)

    def test_peak_memory(self):
        rng = np.random.default_rng(8)
        n = 200_000
        trace = EnvelopeTrace(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1e-4)
        series, peak = traced_peak(quadrature_series, trace, 0.7)
        assert peak <= 1.3 * series.nbytes


class TestWelchPsd:
    def test_sinusoid_parseval(self):
        fs, amp, f0 = 4096.0, 1.7, 200.0
        t = np.arange(int(fs * 16)) / fs
        x = amp * np.sin(TWO_PI * f0 * t)
        spec = welch_psd(x, segment_length=4096, dt=1 / fs)
        band = np.abs(spec.freq_hz - f0) < 5
        power = np.sum(spec.psd[band]) * spec.resolution_hz
        assert power == pytest.approx(amp**2 / 2, rel=0.01)

    def test_white_noise_level(self):
        rng = np.random.default_rng(3)
        fs, sigma = 2048.0, 0.8
        x = sigma * rng.standard_normal(int(fs * 64))
        spec = welch_psd(x, segment_length=1024, dt=1 / fs)
        expected = 2 * sigma**2 / fs  # one-sided
        inner = spec.psd[(spec.freq_hz > 10) & (spec.freq_hz < fs / 2 - 10)]
        assert inner.mean() == pytest.approx(expected, rel=0.02)

    def test_ou_width_recovered(self):
        rates = DerivedRates.from_effective(TWO_PI * 40, 0.0)
        trace = sde_simulate(rates, 1.0, duration=64.0, dt=1 / 4096, seed=4)
        y = quadrature_series(trace, 0.0)
        spec = welch_psd(y, segment_length=4096 * 4, dt=trace.dt)
        band = spec.freq_hz < 400

        def lorentz(f, amp, fwhm_hz):
            return amp / (f**2 + fwhm_hz**2 / 4)

        popt, _ = curve_fit(
            lorentz, spec.freq_hz[band], spec.psd[band], p0=[1.0, 30.0]
        )
        assert abs(popt[1]) == pytest.approx(40.0, rel=0.05)

    def test_two_sided_for_complex(self):
        fs = 1024.0
        t = np.arange(int(fs * 8)) / fs
        z = np.exp(2j * np.pi * 100 * t)
        spec = welch_psd(z, segment_length=1024, dt=1 / fs)
        assert spec.freq_hz[0] < 0 < spec.freq_hz[-1]
        peak_freq = spec.freq_hz[np.argmax(spec.psd)]
        assert peak_freq == pytest.approx(100.0, abs=spec.resolution_hz)

    @pytest.mark.parametrize("segment_length", [256, 255])
    def test_matches_folded_fft_reference(self, segment_length):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(9 * segment_length + 17)
        taper = get_window("hann", segment_length, fftbins=True)
        for samples in (x, x + 1j * rng.standard_normal(x.size)):
            spec = welch_psd(samples, segment_length, dt=1e-3)
            step = round(segment_length * 0.5)  # the default half overlap
            freq, psd = folded_periodogram(samples, segment_length, step, taper, 1e-3)
            assert spec.n_avg == 17
            np.testing.assert_array_equal(spec.freq_hz, freq)
            np.testing.assert_allclose(spec.psd, psd, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "segment_length, n_seg, overlap, window",
        [
            (300, 2, 0.5, "hann"),
            (300, 97, 0.5, "hann"),
            (2048, 40, 0.0, "boxcar"),
            (_CHUNK + 3, 2, 0.0, "boxcar"),
            (_CHUNK + 3, 9, 0.5, "hann"),
        ],
    )
    def test_blocks_do_not_move_a_bit(self, segment_length, n_seg, overlap, window):
        rng = np.random.default_rng(21)
        step = max(1, round(segment_length * (1 - overlap)))
        x = rng.standard_normal(segment_length + (n_seg - 1) * step + step // 3)
        for samples in (x, x + 1j * rng.standard_normal(x.size)):
            spec = welch_psd(samples, segment_length, overlap, window, dt=1e-3)
            assert spec.n_avg == n_seg
            expected = one_segment_at_a_time(samples, segment_length, overlap, window, 1e-3)
            assert np.array_equal(spec.psd, expected)

    @pytest.mark.parametrize("segment_length", [256, 4 * _CHUNK])
    def test_peak_memory(self, segment_length):
        # two blocks of at least _CHUNK samples and their transforms, beside
        # the taper and the output; a transform of all segments at once is
        # over 40 segments here
        x = np.random.default_rng(4).standard_normal(24 * segment_length)
        welch_psd(x, segment_length, dt=1e-3)  # loads scipy.signal
        _, peak = traced_peak(welch_psd, x, segment_length, dt=1e-3)
        assert peak <= 12 * max(segment_length, _CHUNK) * x.itemsize

    def test_segment_count_errors(self):
        x = np.zeros(100)
        with pytest.raises(GridError):
            welch_psd(x, segment_length=200, dt=1e-3)
        with pytest.raises(GridError):
            welch_psd(x, segment_length=100, dt=1e-3)  # single segment

    @pytest.mark.parametrize("segment_length", [1, 0, -5])
    def test_degenerate_segment_rejected(self, segment_length):
        with pytest.raises(GridError):
            welch_psd(np.zeros(100), segment_length=segment_length, dt=1e-3)


class TestWorkerThreads:
    def sde_rates(self):
        return DerivedRates.from_effective(TWO_PI * 1000, 0.5, phi=0.6)

    def test_no_thread_outlives_a_call(self):
        rates = self.sde_rates()
        before = threading.active_count()
        trace = sde_simulate(rates, 1.0, duration=(3 * _CHUNK + 7) * 5e-6, dt=5e-6, seed=5)
        assert threading.active_count() == before
        welch_psd(trace.samples, _CHUNK, dt=trace.dt)
        assert threading.active_count() == before
        corr = NoiseCorrelators.from_occupancy(rates.gamma_eff, 1.0, 30j)
        propagate_spectra(rates, corr, np.linspace(-20, 20, 2 * _CHUNK + 1) * rates.gamma_eff)
        assert threading.active_count() == before

    def test_concurrent_callers_keep_every_bit(self):
        # four callers, each with its own pool, on two CPUs, with the
        # interpreter switching threads every microsecond: a buffer shared
        # between calls, or reused too early, would change a result
        rates = self.sde_rates()
        args = (rates, 1.0, (3 * _CHUNK + 7) * 5e-6, 5e-6)
        expected = {}
        for seed in range(4):
            samples = sde_simulate(*args, seed=seed).samples
            expected[seed] = (samples, welch_psd(samples, _CHUNK, dt=5e-6).psd)
        results = {}

        def call(seed):
            samples = sde_simulate(*args, seed=seed).samples
            results[seed] = (samples, welch_psd(samples, _CHUNK, dt=5e-6).psd)

        callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert sorted(results) == sorted(expected)
        for seed, (samples, psd) in results.items():
            assert np.array_equal(samples, expected[seed][0])
            assert np.array_equal(psd, expected[seed][1])
