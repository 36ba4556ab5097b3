"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavy studies (6000-trial bias run, 100-campaign recovery)
execute here and nowhere else in the suite.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import TWO_PI, load_table, sample_stable_rates
from sqzband import cli
from sqzband.core import DerivedRates
from sqzband.fitter import ExperimentTruth, bias_study, recovery_campaign
from sqzband.lineshape import (
    antistokes_spectrum,
    quadrature_spectrum,
    sideband_areas,
    sideband_ratios,
    stokes_spectrum,
)
from sqzband.oracle import (
    NoiseCorrelators,
    propagate_spectra,
    quadrature_series,
    sde_simulate,
    welch_psd,
)
from sqzband.synthesizer import DetectionConfig

N_CONFIGS = 1000


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {number:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def random_configs():
    rng = np.random.default_rng(20240817)
    return [sample_stable_rates(rng) for _ in range(N_CONFIGS)]


def test_criterion_1_oracle_equivalence(random_configs):
    with criterion(1, "oracle matches closed forms to 1e-9 on 1000 random configs, < 1 min"):
        started = time.time()
        worst = 0.0
        for params, _, rates in random_configs:
            grid = np.linspace(-27.3, 31.1, 157) * rates.gamma_eff
            corr = NoiseCorrelators.from_params(params, rates)
            thetas = (-rates.phi / 2, -rates.phi / 2 + math.pi / 2)
            out = propagate_spectra(rates, corr, grid, thetas=thetas)
            n_bar = rates.n_bar
            pairs = [
                (out.stokes, stokes_spectrum(rates, n_bar, grid)),
                (out.antistokes, antistokes_spectrum(rates, n_bar, grid)),
                (out.quadratures[thetas[0]], quadrature_spectrum(rates, n_bar, thetas[0], grid)),
                (out.quadratures[thetas[1]], quadrature_spectrum(rates, n_bar, thetas[1], grid)),
            ]
            for numeric, closed in pairs:
                worst = max(worst, float(np.max(np.abs(numeric - closed) / np.abs(closed))))
        elapsed = time.time() - started
        assert worst < 1e-9, f"worst relative deviation {worst:.2e}"
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_2_sum_rule(random_configs):
    with criterion(2, "Stokes - anti-Stokes area difference = 1 to 1e-10"):
        for _, _, rates in random_configs:
            stokes, anti = sideband_areas(rates, rates.n_bar)
            assert abs((stokes - anti) - 1.0) < 1e-10


def test_criterion_3_rate_identity(random_configs):
    with criterion(3, "Gamma_opt = A- - A+ to 1e-10 relative"):
        for _, _, rates in random_configs:
            scale = max(rates.a_minus, rates.a_plus)
            assert abs(rates.gamma_opt - (rates.a_minus - rates.a_plus)) <= 1e-10 * scale


def test_criterion_4_ratio_formulas():
    with criterion(4, "sideband ratios at the reference points to 1e-6"):
        ref = sideband_ratios(5.8, 0.53)
        assert ref.r_plus == pytest.approx((5.8 + 1 + 0.265) / (5.8 - 0.265), rel=1e-9)
        assert ref.r_plus == pytest.approx(1.276423, rel=1e-6)
        assert ref.r_minus == pytest.approx((5.8 + 1 - 0.265) / (5.8 + 0.265), rel=1e-9)
        assert ref.r_minus == pytest.approx(1.077494, rel=1e-6)
        below = sideband_ratios(0.12, 0.4)
        assert below.r_plus == pytest.approx(-16.5, rel=1e-6)


def test_criterion_5_below_zero_point_spectrum(tmp_path, paper_config_path):
    with criterion(5, "model emission at n=0.12, s=0.4: negative broad weight, PSD >= 0"):
        out = tmp_path / "fig"
        code = cli.main(
            [
                "spectrum",
                "--config",
                str(paper_config_path),
                "--out-dir",
                str(out),
                "--n-bar",
                "0.12",
                "--s",
                "0.4",
            ]
        )
        assert code == 0
        info = json.loads((out / "model.json").read_text())
        anti = info["components"]["antistokes"]
        broad = max(anti, key=lambda c: c["width_hz"])
        weight = broad["area_weight"] * 2 * (1 + 0.4)
        assert weight == pytest.approx(-0.08, rel=1e-6)
        assert info["area_difference"] == pytest.approx(1.0, abs=1e-10)
        rows = load_table(out / "sidebands.csv")
        assert np.all(rows["antistokes_psd"] >= 0)
        assert np.all(rows["stokes_psd"] >= 0)


def test_criterion_6_bias_study():
    with criterion(6, "6000-trial bias study: mean in [0.005,0.03], std in [0.01,0.04], skew > 0, < 10 min"):
        det = DetectionConfig(
            delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=1200
        )
        truth = ExperimentTruth(
            gamma_eff=TWO_PI * 100.0, s=0.0, n_bar=5.8, center_hz=530e3, detection=det
        )
        started = time.time()
        report = bias_study(truth, n_trials=6000, root_seed=1234, n_jobs=2)
        elapsed = time.time() - started
        assert report.valid, f"{report.n_failed} trials failed"
        assert 0.005 <= report.mean_s <= 0.03, f"mean_s = {report.mean_s:.4f}"
        assert 0.01 <= report.std_s <= 0.04, f"std_s = {report.std_s:.4f}"
        assert report.skewness_s > 0, f"skewness = {report.skewness_s:.3f}"
        assert elapsed < 600.0, f"took {elapsed:.0f} s"
        print(
            f"  [bias study: mean 0.014-like -> {report.mean_s:.4f}, "
            f"std {report.std_s:.4f}, skew {report.skewness_s:.2f}, {elapsed:.0f} s]"
        )


def test_criterion_7_recovery_study():
    with criterion(7, "100 campaigns at s=0.53, n=5.8, n_avg=10: std <= 0.05, |bias| <= 0.02"):
        det = DetectionConfig(
            delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=10
        )
        truth = ExperimentTruth(
            gamma_eff=TWO_PI * 100.0, s=0.53, n_bar=5.8, center_hz=530e3, detection=det
        )
        rows = recovery_campaign(truth, n_repeats=100, root_seed=2024, n_jobs=2).rows
        assert len(rows) == 100
        values = np.array([row["s"] for row in rows])
        std = values.std(ddof=1)
        bias = values.mean() - 0.53
        assert std <= 0.05, f"ensemble std {std:.4f}"
        assert abs(bias) <= 0.02, f"bias {bias:+.4f}"
        print(f"  [recovery: mean {values.mean():.4f}, std {std:.4f}, bias {bias:+.4f}]")


def test_criterion_8_detuning_behavior(tmp_path, paper_config_path):
    with criterion(8, "detuning sweep: s(0) = 0 and equal ratios to 1e-9, sign folding"):
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(paper_config_path), "--out-dir", str(out)]
        )
        assert code == 0
        rows = load_table(out / "sweep.csv")
        zero = rows[np.argmin(np.abs(rows["delta_hz"]))]
        assert zero["delta_hz"] == 0.0
        assert abs(zero["s"]) < 1e-12
        assert abs(zero["r_plus"] - zero["r0"]) < 1e-9 * zero["r0"]
        assert abs(zero["r_minus"] - zero["r0"]) < 1e-9 * zero["r0"]
        stable = rows["stable"] == 1
        assert np.all(rows["s"][stable] >= 0)
        assert np.all(rows["s_signed"][stable & (rows["delta_hz"] < 0)] <= 0)
        assert np.all(rows["s_signed"][stable & (rows["delta_hz"] > 0)] >= 0)


def test_criterion_9_sde_cross_check():
    with criterion(9, "SDE quadrature widths at s=0.5: Gamma_+ and Gamma_- within 5%"):
        from scipy.optimize import curve_fit

        gamma_eff_hz = 100.0
        rates = DerivedRates.from_effective(TWO_PI * gamma_eff_hz, 0.5, phi=0.8)
        n_bar = 1.0
        fs = 32768.0
        duration = 96.0  # > 10^4 correlation times of the slow quadrature
        trace = sde_simulate(rates, n_bar, duration, 1 / fs, seed=424242)

        def fitted_width(series):
            spec = welch_psd(series, segment_length=int(4 * fs), dt=trace.dt)
            sel = spec.freq_hz < 8 * gamma_eff_hz

            def shape(f, amp, fwhm):
                return amp / (f * f + fwhm * fwhm / 4)

            # periodogram noise is relative: weight by the PSD itself
            popt, _ = curve_fit(
                shape,
                spec.freq_hz[sel],
                spec.psd[sel],
                p0=[1.0, gamma_eff_hz],
                sigma=np.maximum(spec.psd[sel], 1e-12),
            )
            return abs(popt[1])

        width_y = fitted_width(quadrature_series(trace, -rates.phi / 2))
        width_x = fitted_width(quadrature_series(trace, -rates.phi / 2 + math.pi / 2))
        assert width_y == pytest.approx(gamma_eff_hz * 1.5, rel=0.05), width_y
        assert width_x == pytest.approx(gamma_eff_hz * 0.5, rel=0.05), width_x
        print(f"  [widths: Y {width_y:.1f} Hz (150), X {width_x:.1f} Hz (50)]")


def test_criterion_10_determinism(tmp_path, paper_config_path):
    with criterion(10, "seeded commands reproduce byte-identical CSV/JSON"):
        pairs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            assert (
                cli.main(
                    [
                        "synth",
                        "--config",
                        str(paper_config_path),
                        "--out-dir",
                        str(base / "synth"),
                        "--seed",
                        "99",
                    ]
                )
                == 0
            )
            assert (
                cli.main(
                    [
                        "sweep",
                        "--config",
                        str(paper_config_path),
                        "--out-dir",
                        str(base / "sweep"),
                        "--format",
                        "svg",
                    ]
                )
                == 0
            )
            assert (
                cli.main(
                    [
                        "experiment",
                        "--config",
                        str(paper_config_path),
                        "--out-dir",
                        str(base / "exp"),
                        "--seed",
                        "99",
                        "--n-repeats",
                        "4",
                    ]
                )
                == 0
            )
            pairs.append(base)
        for rel in (
            "synth/drive_on.csv",
            "synth/drive_off.csv",
            "sweep/sweep.csv",
            "sweep/sweep.svg",
            "exp/campaign.csv",
            "exp/summary.json",
            "exp/overlay.csv",
        ):
            a = (pairs[0] / rel).read_bytes()
            b = (pairs[1] / rel).read_bytes()
            assert a == b, f"{rel} differs between identical runs"
