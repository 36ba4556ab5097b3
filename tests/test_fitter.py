import math

import numpy as np
import pytest
from scipy.special import expit

from conftest import TWO_PI
from sqzband.data import SpectrumData
from sqzband.errors import GridError
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
        model, _ = heterodyne_composite(
            rates, truth.n_bar, det.delta_lo, cal, det.floor, TWO_PI * freq
        )
        out[label] = SpectrumData(
            freq_hz=freq, psd=model.psd_hz(freq), n_avg=det.n_avg, mask=mask
        ), model
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

    def test_recovery_at_reference_point(self):
        truth = truth_for(0.53)
        values = []
        for k in range(30):
            rates_on, rates_off = truth.rates_pair()
            pair = synth_onoff_from_rates(
                rates_on, rates_off, truth.n_bar, DET, seed=task_seed(31, k)
            )
            off, on = fit_pair_two_stage(pair)
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
        off, on = fit_pair_two_stage(pair)
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
        _, on = fit_pair_two_stage(pair)
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
        hint = {"center_1_hz": CENTER_HZ - 1.1e3, "center_2_hz": CENTER_HZ + 1.1e3, "s": 0.3}
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
                off, on = fit_pair_two_stage(pair)
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

    def test_spike_masking_restores_fit(self):
        truth = truth_for(0.53)
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(
            rates_on, rates_off, truth.n_bar, DET, seed=task_seed(23, 0)
        )
        clean_off, clean_on = fit_pair_two_stage(pair)
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


class TestRecoveryCampaign:
    def test_reports_all_fields(self):
        truth = truth_for(0.53)
        rows = recovery_campaign(truth, n_repeats=8, root_seed=3)
        assert len(rows) == 8
        for key in ("s", "gamma_eff_hz", "r0", "r_plus", "r_minus", "n_bar"):
            assert all(key in row for row in rows)
        assert rows == recovery_campaign(truth, n_repeats=8, root_seed=3)
