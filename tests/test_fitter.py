import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest
from scipy.special import expit, logit

from conftest import TWO_PI
from sqzband import fitter
from sqzband.data import SpectrumData
from sqzband.errors import FitFailureError, GridError
from sqzband.fitter import (
    S_MAX,
    ExperimentTruth,
    apply_mask,
    bias_study,
    fit_double_pair,
    fit_pair_two_stage,
    fit_single_pair,
    recovery_campaign,
)
from sqzband.lineshape import heterodyne_composite, sideband_ratios
from sqzband.seeding import task_seed
from sqzband.synthesizer import (
    DetectionConfig,
    band_mask,
    synth_onoff_from_rates,
    synthetic_grid_hz,
)

DET = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=10)
CENTER_HZ = 530e3


def truth_for(s, n_bar=5.8, gamma_eff_hz=100.0, detection=DET):
    return ExperimentTruth(
        gamma_eff=TWO_PI * gamma_eff_hz,
        s=s,
        n_bar=n_bar,
        center_hz=CENTER_HZ,
        detection=detection,
    )


def noiseless_pair(truth):
    """SpectrumData pair carrying the exact model curve (no estimator noise)."""
    rates_on, rates_off = truth.rates_pair()
    det = truth.detection
    cal = det.resolve_calibration(rates_off, truth.n_bar)
    freq = synthetic_grid_hz(CENTER_HZ, det)
    centers = (CENTER_HZ + det.delta_lo_hz, CENTER_HZ - det.delta_lo_hz)
    mask = band_mask(freq, centers, det.band_halfwidth_hz)
    out = {}
    for label, rates in (("on", rates_on), ("off", rates_off)):
        components, psd = heterodyne_composite(
            rates, truth.n_bar, det.delta_lo, cal, det.floor, TWO_PI * freq
        )
        out[label] = SpectrumData(freq_hz=freq, psd=psd, n_avg=det.n_avg, mask=mask), components
    return out["off"], out["on"], cal


class TestSinglePairFit:
    def test_noiseless_round_trip(self):
        truth = truth_for(0.0)
        (off_data, off_model), _, cal = noiseless_pair(truth)
        result = fit_single_pair(off_data)
        assert result.converged
        assert result.params["gamma_eff_hz"] == pytest.approx(100.0, rel=1e-6)
        assert result.params["center_1_hz"] == pytest.approx(CENTER_HZ - 1.1e3, rel=1e-9)
        assert result.params["center_2_hz"] == pytest.approx(CENTER_HZ + 1.1e3, rel=1e-9)
        assert result.params["floor"] == pytest.approx(DET.floor, rel=1e-6)
        # areas reproduce the model component areas in detector units
        truth_stokes = cal * (1 + 5.8) / 2 * 2  # both components coincide at s=0
        assert result.params["area_2"] == pytest.approx(truth_stokes, rel=1e-6)
        assert result.ratios.r0 == pytest.approx((5.8 + 1) / 5.8, rel=1e-6)
        assert result.n_bar_inferred == pytest.approx(5.8, rel=1e-6)
        assert result.chi2_reduced > 0

    def test_r0_to_occupancy_map(self):
        # R0 = 1.172 corresponds to n ~ 5.8
        assert 1 / (1.1724 - 1) == pytest.approx(5.8, abs=0.01)

    def test_noisy_occupancy_recovery(self):
        truth = truth_for(0.0)
        rates_on, rates_off = truth.rates_pair()
        estimates = []
        for k in range(40):
            pair = synth_onoff_from_rates(
                rates_on, rates_off, truth.n_bar, DET, seed=task_seed(5, k)
            )
            result = fit_single_pair(pair.drive_off)
            assert result.converged
            estimates.append(result.n_bar_inferred)
        estimates = np.array(estimates)
        assert abs(np.median(estimates) - 5.8) < 0.5

    def test_ratio_correction_applied(self):
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        plain = fit_single_pair(off_data)
        corrected = fit_single_pair(off_data, ratio_correction=1.05)
        assert corrected.ratios.r0 == pytest.approx(plain.ratios.r0 * 1.05, rel=1e-9)

    def test_exhausted_budget_is_not_converged(self, monkeypatch):
        (off_data, _), _, _ = noiseless_pair(truth_for(0.0))
        monkeypatch.setattr(fitter, "_MAX_NFEV", 2)
        result = fit_single_pair(off_data)
        assert not result.converged
        assert result.n_iter == 2


class TestDoublePairFit:
    def test_noiseless_round_trip_driven(self):
        truth = truth_for(0.53)
        _, (on_data, on_model), cal = noiseless_pair(truth)
        result = fit_double_pair(on_data, truth.gamma_eff)
        assert result.converged
        assert result.params["s"] == pytest.approx(0.53, rel=1e-6)
        ratios = sideband_ratios(5.8, 0.53)
        assert result.ratios.r_plus == pytest.approx(ratios.r_plus, rel=1e-6)
        assert result.ratios.r_minus == pytest.approx(ratios.r_minus, rel=1e-6)

    def test_negative_broad_area_below_zero_point(self):
        truth = truth_for(0.4, n_bar=0.12)
        _, (on_data, _), cal = noiseless_pair(truth)
        result = fit_double_pair(on_data, truth.gamma_eff)
        assert result.converged
        # Stokes is center_2 (upper); anti-Stokes broad area is negative
        anti_broad = result.params["area_1_broad"]
        assert anti_broad == pytest.approx(cal * (0.12 - 0.2) / (2 * 1.4), rel=1e-5)
        assert anti_broad < 0
        assert result.ratios.r_plus == pytest.approx(-16.5, rel=1e-4)

    def test_noiseless_no_drive_pins_s_to_zero(self):
        truth = truth_for(0.0)
        _, (on_data, _), _ = noiseless_pair(truth)
        result = fit_double_pair(on_data, truth.gamma_eff)
        assert result.params["s"] < 1e-6
        assert "s_at_lower_bound" in result.flags

    @pytest.mark.parametrize("gamma_eff", [math.inf, math.nan])
    def test_width_that_cannot_be_fitted_rejected(self, gamma_eff):
        _, (on_data, _), _ = noiseless_pair(truth_for(0.53))
        with pytest.raises(ValueError, match="gamma_eff_fixed"):
            fit_double_pair(on_data, gamma_eff)

    def test_recovery_at_reference_point(self):
        truth = truth_for(0.53)
        values = []
        for k in range(30):
            rates_on, rates_off = truth.rates_pair()
            pair = synth_onoff_from_rates(
                rates_on, rates_off, truth.n_bar, DET, seed=task_seed(31, k)
            )
            off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
            assert off.converged and on.converged
            values.append(on.params["s"])
        values = np.array(values)
        assert abs(values.mean() - 0.53) < 0.012
        assert values.std(ddof=1) < 0.05


def _unit_lorentz(f, center, gamma_hz):
    return (gamma_hz / TWO_PI) / ((f - center) ** 2 + gamma_hz**2 / 4)


def _single_pair_model(p, f):
    floor, c1, c2, g, a1, a2 = p
    return floor + a1 * _unit_lorentz(f, c1, g) + a2 * _unit_lorentz(f, c2, g)


def _double_pair_model(gamma_eff_hz):
    def model(p, f):
        floor, c1, c2, q, a1n, a1b, a2n, a2b = p
        s = S_MAX * expit(q)
        gn, gb = gamma_eff_hz * (1 - s), gamma_eff_hz * (1 + s)
        return (
            floor
            + a1n * _unit_lorentz(f, c1, gn)
            + a1b * _unit_lorentz(f, c1, gb)
            + a2n * _unit_lorentz(f, c2, gn)
            + a2b * _unit_lorentz(f, c2, gb)
        )

    return model


def _gradient_cosines(model, names, result, data):
    """|J_k . r| / (|J_k| |r|) for each full-model parameter at the fit.

    Full-model residuals weighted by sigma = model / sqrt(n_avg), as in the
    fitter's last pass; J by central differences."""
    sel = data.included()
    f, y = data.freq_hz[sel], data.psd[sel]
    p = np.array([result.params[name] for name in names])
    fitted = model(p, f)
    sigma = fitted / math.sqrt(data.n_avg)
    r = (fitted - y) / sigma
    cosines = []
    for k in range(p.size):
        h = 1e-6 * max(abs(p[k]), 1e-3)
        up, down = p.copy(), p.copy()
        up[k] += h
        down[k] -= h
        column = (model(up, f) - model(down, f)) / (2 * h) / sigma
        cosines.append(abs(column @ r) / (np.linalg.norm(column) * np.linalg.norm(r)))
    return np.array(cosines)


class TestStationarity:
    """The projected optimum is a stationary point of the full weighted problem."""

    @pytest.mark.parametrize("s", [0.3, 0.53])
    def test_full_gradient_vanishes(self, s):
        (off_data, _), (on_data, _), _ = noiseless_pair(truth_for(s))

        # a deterministic ripple keeps the residual at the optimum nonzero
        def rippled(data):
            ripple = 1 + 0.02 * np.sin(TWO_PI * data.freq_hz / 13.7)
            return SpectrumData(
                freq_hz=data.freq_hz, psd=data.psd * ripple, n_avg=data.n_avg, mask=data.mask
            )

        off_data, on_data = rippled(off_data), rippled(on_data)
        off = fit_single_pair(off_data)
        off_names = ("floor", "center_1_hz", "center_2_hz", "gamma_eff_hz", "area_1", "area_2")
        assert off.converged
        assert _gradient_cosines(_single_pair_model, off_names, off, off_data).max() < 1e-5

        gamma_eff_hz = off.params["gamma_eff_hz"]
        on = fit_double_pair(on_data, TWO_PI * gamma_eff_hz)
        on_names = (
            "floor",
            "center_1_hz",
            "center_2_hz",
            "q",
            "area_1_narrow",
            "area_1_broad",
            "area_2_narrow",
            "area_2_broad",
        )
        assert on.converged
        assert on.params["s"] == pytest.approx(s, abs=2e-3)
        cosines = _gradient_cosines(_double_pair_model(gamma_eff_hz), on_names, on, on_data)
        assert cosines.max() < 1e-5


class TestMirrorWidth:
    @pytest.mark.parametrize("index", [427, 1417])
    def test_off_fit_width_is_positive(self, paper_run_config, index):
        # at these paper.ini seeds a fit with a signed width reaches the
        # negative-width mirror (gamma ~ -100 Hz, negative areas)
        exp = paper_run_config.experiment
        truth = ExperimentTruth(
            gamma_eff=TWO_PI * exp.gamma_eff_hz,
            s=exp.s,
            n_bar=exp.n_bar,
            phi=math.radians(exp.phi_deg),
            center_hz=exp.center_hz,
            detection=paper_run_config.detection,
        )
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(
            rates_on, rates_off, truth.n_bar, truth.detection, seed=task_seed(2024, index)
        )
        off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
        assert off.converged and on.converged
        assert off.params["gamma_eff_hz"] == pytest.approx(exp.gamma_eff_hz, rel=0.05)
        assert off.params["area_1"] > 0 and off.params["area_2"] > 0
        assert abs(on.params["s"] - exp.s) < 0.05


class TestBoundarySigma:
    @pytest.mark.parametrize("index, at_bound", [(3, True), (0, False)])
    def test_sigma_s_undefined_only_at_lower_bound(self, index, at_bound):
        # criterion-6 trials (s = 0 truth, root seed 1234): trial 3 walks to
        # s -> 0, trial 0 stays interior
        det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=1200)
        rates_on, rates_off = truth_for(0.0, detection=det).rates_pair()
        pair = synth_onoff_from_rates(
            rates_on, rates_off, n_bar=5.8, detection=det, seed=task_seed(1234, index)
        )
        _, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
        assert ("s_at_lower_bound" in on.flags) == at_bound
        assert np.isfinite(on.sigmas["q"])
        if at_bound:
            assert math.isnan(on.sigmas["s"])
        else:
            e = expit(on.params["q"])
            assert on.sigmas["s"] == on.sigmas["q"] * on.params["s"] * (1 - e)
            assert 0 < on.sigmas["s"] < 0.1


class TestInitHint:
    def test_hinted_start_reaches_the_same_fit(self):
        (_, _), (on_data, _), _ = noiseless_pair(truth_for(0.53))
        hint = {"center_1_hz": CENTER_HZ - 1.1e3, "center_2_hz": CENTER_HZ + 1.1e3}
        hinted = fit_double_pair(on_data, TWO_PI * 100.0, init_hint=hint)
        assert hinted.params["s"] == pytest.approx(0.53, rel=1e-6)


class TestWeightScaling:
    def test_ensemble_sigma_shrinks_with_averaging(self):
        # ensemble scatter of first-order-identified parameters ~ 1/sqrt(n_avg)
        truth = truth_for(0.53)
        rates_on, rates_off = truth.rates_pair()
        stds = {}
        for n_avg in (5, 10, 20, 40):
            det = DetectionConfig(
                delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=n_avg
            )
            gammas = []
            svals = []
            for k in range(40):
                pair = synth_onoff_from_rates(
                    rates_on, rates_off, truth.n_bar, det, seed=task_seed(17, k)
                )
                off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
                gammas.append(off.params["gamma_eff_hz"])
                svals.append(on.params["s"])
            stds[n_avg] = (np.std(gammas, ddof=1), np.std(svals, ddof=1))
        for small, large in ((5, 20), (10, 40)):
            expected = math.sqrt(large / small)
            for idx in (0, 1):
                ratio = stds[small][idx] / stds[large][idx]
                assert ratio == pytest.approx(expected, rel=0.2)


class TestMasking:
    def test_empty_mask_is_identity(self):
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        again = apply_mask(off_data, [])
        assert np.array_equal(again.mask, off_data.mask)

    def test_window_outside_grid_rejected(self):
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        with pytest.raises(GridError):
            apply_mask(off_data, [(CENTER_HZ + 1e6, CENTER_HZ + 1.1e6)])

    @pytest.mark.parametrize(
        "lo, hi", [(math.nan, math.nan), (math.nan, CENTER_HZ), (CENTER_HZ, math.nan)]
    )
    def test_window_edge_that_is_not_a_number_rejected(self, lo, hi):
        # a NaN edge would otherwise mask nothing without a word
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        with pytest.raises(GridError):
            apply_mask(off_data, [(lo, hi)])

    def test_spike_masking_restores_fit(self):
        truth = truth_for(0.53)
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(
            rates_on, rates_off, truth.n_bar, DET, seed=task_seed(23, 0)
        )
        clean_off, clean_on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
        sigma_s = clean_on.sigmas["s"]

        spike_freq = CENTER_HZ + 1.1e3 + 40.0
        psd = pair.drive_on.psd.copy()
        idx = int(np.argmin(np.abs(pair.drive_on.freq_hz - spike_freq)))
        psd[idx - 1 : idx + 2] += 40 * psd[idx]
        spiked = SpectrumData(
            freq_hz=pair.drive_on.freq_hz,
            psd=psd,
            n_avg=pair.drive_on.n_avg,
            mask=pair.drive_on.mask,
        )
        gamma_eff = clean_off.params["gamma_eff_hz"] * TWO_PI
        biased = fit_double_pair(spiked, gamma_eff)
        masked = fit_double_pair(
            apply_mask(spiked, [(spike_freq - 2, spike_freq + 2)]), gamma_eff
        )
        assert abs(biased.params["s"] - clean_on.params["s"]) > abs(
            masked.params["s"] - clean_on.params["s"]
        )
        assert abs(masked.params["s"] - clean_on.params["s"]) < 3 * sigma_s

    def test_masked_peak_region_flagged(self):
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        stokes_center = CENTER_HZ + 1.1e3
        heavy = apply_mask(off_data, [(stokes_center - 45.0, stokes_center + 45.0)])
        result = fit_single_pair(heavy)
        assert "peak_region_masked" in result.flags
        clean = fit_single_pair(off_data)
        # area information from the peak core is gone; the local-model error grows
        assert result.sigmas["area_2"] > 1.15 * clean.sigmas["area_2"]

    def test_peak_region_cut_from_grid_flagged(self):
        # bins left out of a gapped grid count as masked ones
        truth = truth_for(0.0)
        (off_data, _), _, _ = noiseless_pair(truth)
        stokes_center = CENTER_HZ + 1.1e3
        heavy = apply_mask(off_data, [(stokes_center - 45.0, stokes_center + 45.0)])
        keep = heavy.included()
        cut = SpectrumData(
            freq_hz=off_data.freq_hz[keep], psd=off_data.psd[keep], n_avg=off_data.n_avg
        )
        assert cut.n_bins == np.count_nonzero(keep) < off_data.n_bins
        result, masked = fit_single_pair(cut), fit_single_pair(heavy)
        assert result.flags == masked.flags == ("peak_region_masked",)
        assert result.params == masked.params
        assert fit_single_pair(off_data).flags == ()


class TestBiasStudy:
    def test_quick_study_moments_and_determinism(self):
        det = DetectionConfig(
            delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=1200
        )
        truth = truth_for(0.0, detection=det)
        report = bias_study(truth, n_trials=100, root_seed=9)
        assert report.valid
        assert 0.0 < report.mean_s < 0.05
        assert 0.005 < report.std_s < 0.06
        assert report.skewness_s > 0
        assert report.hist_counts.sum() == report.n_trials - report.n_failed
        again = bias_study(truth, n_trials=100, root_seed=9)
        assert again.mean_s == report.mean_s and again.std_s == report.std_s

    def test_requires_zero_truth_and_enough_trials(self):
        with pytest.raises(ValueError):
            bias_study(truth_for(0.2), n_trials=100, root_seed=1)
        with pytest.raises(ValueError):
            bias_study(truth_for(0.0), n_trials=50, root_seed=1)
        for n_jobs in (0, -3):
            with pytest.raises(ValueError, match="n_jobs"):
                bias_study(truth_for(0.0), n_trials=100, root_seed=1, n_jobs=n_jobs)

    def test_trial_whose_fit_raises_is_dropped_and_counted(self, monkeypatch):
        # serial, so the third call fits trial 2; every other trial of both studies converges
        real_fit = fitter.fit_pair_two_stage
        calls = []

        def fit_raising_on_third_call(off, on):
            calls.append(None)
            if len(calls) == 3:
                raise GridError("no fit")
            return real_fit(off, on)

        expected = recovery_campaign(truth_for(0.53), n_repeats=4, root_seed=3).rows
        monkeypatch.setattr(fitter, "fit_pair_two_stage", fit_raising_on_third_call)
        rows = recovery_campaign(truth_for(0.53), n_repeats=4, root_seed=3, n_jobs=1).rows
        assert [row["index"] for row in rows] == [0, 1, 3]
        assert rows == [expected[0], expected[1], expected[3]]
        calls.clear()
        report = bias_study(truth_for(0.0), n_trials=100, root_seed=9, n_jobs=1)
        assert report.n_failed == 1
        assert report.hist_counts.sum() == 99

    def test_every_trial_failing_raises(self):
        # no floor gives no gain: every spectrum is zero, and no fit of it succeeds
        det = DetectionConfig(delta_lo_hz=1.1e3, floor=0.0, n_avg=10)
        with pytest.raises(FitFailureError, match="fewer than 2 usable fits"):
            bias_study(truth_for(0.0, detection=det), n_trials=100, root_seed=1)


class TestRecoveryCampaign:
    def test_reports_all_fields(self):
        truth = truth_for(0.53)
        report = recovery_campaign(truth, n_repeats=8, root_seed=3)
        rows = report.rows
        assert len(rows) == 8
        for key in ("s", "gamma_eff_hz", "r0", "r_plus", "r_minus", "n_bar"):
            assert all(key in row for row in rows)
        assert report.summary.keys() == {
            "truth",
            "n_repeats",
            "n_recovered",
            "s_mean",
            "s_std_ensemble",
            "s_sigma_fit_mean",
            "s_sigma_fit_undefined",
            "s_bias",
            "gamma_eff_hz_mean",
            "gamma_eff_hz_std_ensemble",
            "n_bar_mean",
            "sigma_note",
        }
        assert report.summary["n_recovered"] == len(rows)
        assert report == recovery_campaign(truth, n_repeats=8, root_seed=3)

    def test_requires_two_repeats_and_a_worker(self):
        # argument errors, not fit failures: no trial runs
        for n_repeats, n_jobs in ((1, 1), (0, 1), (2, 0), (2, -3)):
            with pytest.raises(ValueError, match="n_repeats" if n_repeats < 2 else "n_jobs"):
                recovery_campaign(truth_for(0.53), n_repeats, root_seed=5, n_jobs=n_jobs)


class TestSigmaCalibration:
    def test_pull_of_s_has_unit_width(self):
        # criterion-7 settings: (s - 0.53) / sigma_s over 200 repeats
        rows = recovery_campaign(truth_for(0.53), n_repeats=200, root_seed=2024).rows
        assert len(rows) == 200
        pull = np.array([(row["s"] - 0.53) / row["s_sigma_fit"] for row in rows])
        assert abs(pull.std(ddof=1) - 1) <= 0.15
        assert abs(pull.mean()) < 0.2


FLAT_FREQ = CENTER_HZ + 0.2 * np.arange(3000)


def _fit_both_warning_free(data):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fit_single_pair(data), fit_double_pair(data, TWO_PI * 100.0)


class TestDegenerateSpectra:
    def test_flat_spectrum_is_not_converged(self):
        # without a peak the off-fit width runs away and both areas vanish
        data = SpectrumData(freq_hz=FLAT_FREQ, psd=np.ones(FLAT_FREQ.size), n_avg=10)
        off, _ = _fit_both_warning_free(data)
        assert not off.converged
        assert off.params["area_1"] == off.params["area_2"] == 0
        assert off.ratios.r0 == math.inf

    def test_zero_spectrum_is_not_converged(self):
        data = SpectrumData(freq_hz=FLAT_FREQ, psd=np.zeros(FLAT_FREQ.size), n_avg=10)
        off, on = _fit_both_warning_free(data)
        assert not off.converged and not on.converged

    @pytest.mark.parametrize("n_bins, n_masked", [(3, 0), (3000, 3000), (3000, 2994)])
    def test_fewer_bins_than_the_smoothing_kernel_rejected(self, n_bins, n_masked):
        mask = np.arange(n_bins) < n_masked
        data = SpectrumData(freq_hz=FLAT_FREQ[:n_bins], psd=np.ones(n_bins), n_avg=10, mask=mask)
        with pytest.raises(GridError, match="smoothing kernel"):
            fit_single_pair(data)
        with pytest.raises(GridError, match="smoothing kernel"):
            fit_double_pair(data, TWO_PI * 100.0)

    def test_failed_trials_counted_not_raised(self):
        # no floor and no gain: every spectrum is zero, and no fit of it succeeds
        det = DetectionConfig(delta_lo_hz=1.1e3, floor=0.0, n_avg=10)
        truth = truth_for(0.53, detection=det)
        assert fitter._trial_fits(truth, task_seed(1, 0)) is None
        with pytest.raises(FitFailureError, match="more than half"):
            recovery_campaign(truth, n_repeats=4, root_seed=1, n_jobs=2)


def _synth_pair(truth, index):
    rates_on, rates_off = truth.rates_pair()
    seed = task_seed(2024, index)
    return synth_onoff_from_rates(rates_on, rates_off, truth.n_bar, truth.detection, seed=seed)


def _fit_dicts(pair):
    return [asdict(fit) for fit in fit_pair_two_stage(pair.drive_off, pair.drive_on)]


class TestWorkspace:
    def test_fit_after_another_bin_count_is_unchanged(self):
        # the second fit on pair A runs on arrays dropped and taken afresh
        a = _synth_pair(truth_for(0.53), 0)
        wider = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=400.0, snr=30.0, n_avg=10)
        b = _synth_pair(truth_for(0.53, detection=wider), 1)
        assert a.drive_on.included().sum() != b.drive_on.included().sum()
        first = _fit_dicts(a)
        _fit_dicts(b)
        assert _fit_dicts(a) == first

    def test_threads_keep_their_own_arrays(self):
        # numpy writes without the interpreter lock: shared arrays would mix fits
        pairs = [_synth_pair(truth_for(0.53), i) for i in range(8)]
        serial = [_fit_dicts(pair) for pair in pairs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(_fit_dicts, pairs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestLogisticTransform:
    # the fitter's scalar expit and logit must keep scipy.special's bits
    def test_expit_bit_equal_to_scipy(self):
        rng = np.random.default_rng(18)
        edges = [709.78, -709.78, 745.0, -745.0, -746.0, 800.0, 0.0, -0.0, np.inf, -np.inf]
        x = np.concatenate(
            [rng.normal(0, 5, 200_000), rng.uniform(-800, 800, 100_000), rng.normal(0, 40, 100_000)]
            + [edges]
        )
        ours = np.array([fitter._expit(v) for v in x.tolist()])
        assert np.array_equal(ours.view(np.int64), expit(x).view(np.int64))
        assert math.isnan(fitter._expit(math.nan))

    def test_logit_bit_equal_to_scipy(self):
        # uniform(0, 1) crosses both branch edges, 0.3 and 0.65
        scan = np.array(fitter._S_SCAN) / S_MAX
        p = np.concatenate([scan, np.random.default_rng(18).uniform(0, 1, 100_000)])
        ours = np.array([fitter._logit(v) for v in p.tolist()])
        assert np.array_equal(ours.view(np.int64), logit(p).view(np.int64))
        assert fitter._Q_SCAN == tuple(logit(scan).tolist())
