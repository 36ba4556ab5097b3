import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_PI, load_table
from sqzband import cli
from sqzband.config import load_config
from sqzband.core import derive_all
from sqzband.data import SpectrumData
from sqzband.errors import ConfigError
from sqzband.fitter import BiasStudyReport


MINIMAL = """
[cavity]
kappa_hz = 1.9e6
g0_hz = 30.0

[mechanics]
omega_m_hz = 530e3
quality_factor = 6.4e6

[pump]
delta_hz = 2.0e5
alpha_in_minus = 1.63575e6, 0.0
alpha_in_plus = 6.4957e5, 0.0

[bath]
temperature_k = 7.0
"""


def write_config(tmp_path, text=MINIMAL, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadConfig:
    def test_paper_values(self, paper_config_path):
        cfg = load_config(paper_config_path)
        assert cfg.params.kappa == pytest.approx(TWO_PI * 1.9e6, rel=1e-12)
        assert cfg.params.omega_m0 == pytest.approx(TWO_PI * 530e3, rel=1e-12)
        assert cfg.params.gamma_m == pytest.approx(TWO_PI * 530e3 / 6.4e6, rel=1e-12)
        assert cfg.params.n_th == pytest.approx(2.75e5, rel=2e-3)
        assert cfg.detection.delta_lo_hz == 11e3
        assert cfg.bias_detection.n_avg == 1200

    def test_kappa_in_defaults_to_half(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.params.kappa_in == pytest.approx(cfg.params.kappa / 2, rel=1e-12)

    def test_missing_section_diagnostic(self, tmp_path):
        bad = MINIMAL.replace("[bath]", "[bathtub]")
        with pytest.raises(ConfigError, match=r"\[bath\]"):
            load_config(write_config(tmp_path, bad))

    def test_bad_amplitude_diagnostic(self, tmp_path):
        bad = MINIMAL.replace("1.63575e6, 0.0", "oops")
        with pytest.raises(ConfigError, match="alpha_in_minus"):
            load_config(write_config(tmp_path, bad))

    def test_explicit_n_th_wins(self, tmp_path):
        text = MINIMAL.replace("temperature_k = 7.0", "temperature_k = 7.0\nn_th = 1234.0")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.params.n_th == 1234.0

    def test_amplitude_phase_parsing(self, tmp_path):
        text = MINIMAL.replace("alpha_in_plus = 6.4957e5, 0.0", "alpha_in_plus = 2.0, 90.0")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.pump.alpha_in_plus == pytest.approx(2j, abs=1e-12)


class TestRatesCommand:
    def test_emits_derived_rates(self, tmp_path, paper_config_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["rates", "--config", str(paper_config_path), "--out-dir", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "rates.json").read_text())
        cfg = load_config(paper_config_path)
        rates = derive_all(cfg.params, cfg.pump)
        assert payload["gamma_eff_hz"] == pytest.approx(rates.gamma_eff / TWO_PI, rel=1e-12)
        assert payload["s_folded"] == pytest.approx(abs(rates.s), rel=1e-12)
        assert payload["stable"] is True
        assert "total damping" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(out / "rates.json") in manifest["outputs"]

    def test_config_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.ini"
        assert cli.main(["rates", "--config", str(missing), "--out-dir", str(tmp_path)]) == 2

    def test_instability_exit_code(self, tmp_path, capsys):
        # upper tone stronger than lower: net anti-damping / instability
        text = MINIMAL.replace(
            "alpha_in_plus = 6.4957e5, 0.0", "alpha_in_plus = 1.8e6, 0.0"
        )
        path = write_config(tmp_path, text)
        code = cli.main(["rates", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Error" in err or "error" in err


class TestSpectrumCommand:
    def test_below_zero_point_model(self, tmp_path, paper_config_path):
        out = tmp_path / "spec"
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
        broad = min(anti, key=lambda c: c["area_weight"])
        assert broad["area_weight"] * 2 * 1.4 == pytest.approx(-0.08, rel=1e-9)
        assert info["area_difference"] == pytest.approx(1.0, abs=1e-12)
        assert info["squeezed_below_zero_point"] is True
        rows = load_table(out / "sidebands.csv")
        assert np.all(rows["antistokes_psd"] >= 0)

    def test_pump_derived_rates_path(self, tmp_path, paper_config_path):
        # without model-level overrides the curves come from the pump config
        out = tmp_path / "derived"
        code = cli.main(
            ["spectrum", "--config", str(paper_config_path), "--out-dir", str(out)]
        )
        assert code == 0
        info = json.loads((out / "model.json").read_text())
        cfg = load_config(paper_config_path)
        rates = derive_all(cfg.params, cfg.pump)
        assert info["s"] == pytest.approx(abs(rates.s), rel=1e-12)
        assert info["n_bar"] == pytest.approx(rates.n_bar, rel=1e-12)
        comp = load_table(out / "composite.csv")
        # two sidebands at the heterodyne offsets around the effective resonance
        center = rates.omega_m / TWO_PI
        assert comp["frequency_hz"].min() < center - 11e3 < center + 11e3 < comp["frequency_hz"].max()

    def test_svg_emitted(self, tmp_path, paper_config_path):
        out = tmp_path / "svg"
        code = cli.main(
            [
                "spectrum",
                "--config",
                str(paper_config_path),
                "--out-dir",
                str(out),
                "--n-bar",
                "5.8",
                "--s",
                "0.53",
                "--format",
                "svg",
            ]
        )
        assert code == 0
        text = (out / "sidebands.svg").read_text()
        assert text.startswith("<svg") and "polyline" in text


class TestSynthFitFlow:
    def test_synth_then_fit(self, tmp_path, paper_config_path):
        out = tmp_path / "synth"
        assert (
            cli.main(
                [
                    "synth",
                    "--config",
                    str(paper_config_path),
                    "--out-dir",
                    str(out),
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        off = SpectrumData.from_csv(out / "drive_off.csv")
        on = SpectrumData.from_csv(out / "drive_on.csv")
        assert off.n_avg == 10 and on.n_bins == off.n_bins
        assert off.meta["truth"]["s"] == 0.0

        fit_out = tmp_path / "fits"
        code = cli.main(
            [
                "fit",
                "--off",
                str(out / "drive_off.csv"),
                "--on",
                str(out / "drive_on.csv"),
                "--out-dir",
                str(fit_out),
            ]
        )
        assert code == 0
        on_fit = json.loads((fit_out / "fit_on.json").read_text())
        assert abs(on_fit["params"]["s"] - 0.53) < 0.08
        off_fit = json.loads((fit_out / "fit_off.json").read_text())
        assert abs(off_fit["params"]["gamma_eff_hz"] - 100.0) < 10.0

    def test_fit_rejects_non_finite_csv(self, tmp_path, capsys):
        freq = 529000.0 + 0.2 * np.arange(32)
        psd = np.ones(32)
        path = tmp_path / "drive_off.csv"
        SpectrumData(freq_hz=freq, psd=psd, n_avg=10).to_csv(path)
        lines = path.read_text().splitlines()
        lines[10] = f"{float(freq[7])!r},nan,0"
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["fit", "--off", str(path), "--out-dir", str(tmp_path / "fits")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "non-finite" in err
        assert "Traceback" not in err

    def test_physical_level_synth(self, tmp_path, paper_config_path):
        out = tmp_path / "phys"
        code = cli.main(
            [
                "synth",
                "--config",
                str(paper_config_path),
                "--out-dir",
                str(out),
                "--level",
                "physical",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        off = SpectrumData.from_csv(out / "drive_off.csv")
        cfg = load_config(paper_config_path)
        rates = derive_all(cfg.params, cfg.pump)
        assert off.meta["truth"]["gamma_eff_hz"] == pytest.approx(
            rates.gamma_eff / TWO_PI, rel=1e-9
        )


class TestSweepCommand:
    def test_detuning_sweep_null_at_zero(self, tmp_path, paper_config_path):
        out = tmp_path / "sweep"
        code = cli.main(
            ["sweep", "--config", str(paper_config_path), "--out-dir", str(out)]
        )
        assert code == 0
        rows = load_table(out / "sweep.csv")
        assert np.all(np.diff(rows["delta_hz"]) > 0)
        zero = rows[np.argmin(np.abs(rows["delta_hz"]))]
        assert zero["delta_hz"] == 0.0
        assert abs(zero["s"]) < 1e-12
        assert zero["r_plus"] == pytest.approx(zero["r0"], rel=1e-9)
        assert zero["r_minus"] == pytest.approx(zero["r0"], rel=1e-9)
        # sign folding: reported s nonnegative, signed s follows the detuning
        stable = rows["stable"] == 1
        assert stable.sum() >= 35  # far-detuned points may cross the threshold
        assert np.all(rows["s"][stable] >= 0)
        negative = stable & (rows["delta_hz"] < 0)
        assert np.all(rows["s_signed"][negative] <= 0)

    def test_s_axis_sweep_diverging_ratios(self, tmp_path, paper_config_path):
        text = Path(paper_config_path).read_text()
        text = text.replace(
            "axis = detuning_delta\nstart = -4.0e5\nstop = 4.0e5\nn_points = 41",
            "axis = parametric_gain_s\nstart = 0.0\nstop = 0.9\nn_points = 10\nn_bar = 4.2",
        )
        path = tmp_path / "s_sweep.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = load_table(out / "sweep.csv")
        gaps = rows["r_plus"] - rows["r_minus"]
        assert gaps[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(gaps) > 0)
        expected_r0 = (4.2 + 1) / 4.2
        assert np.allclose(rows["r0"], expected_r0, rtol=1e-12)

    def test_gamma_eff_sweep_with_override_table(self, tmp_path, paper_config_path):
        text = Path(paper_config_path).read_text()
        text = text.replace(
            "axis = detuning_delta\nstart = -4.0e5\nstop = 4.0e5\nn_points = 41",
            "axis = gamma_eff\nstart = 50.0\nstop = 500.0\nn_points = 10\n"
            "s_table = 50:0.30; 250:0.40; 500:0.55",
        )
        path = tmp_path / "gamma.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = load_table(out / "sweep.csv")
        assert np.all(rows["stable"] == 1)
        # achieved widths track the requested axis (pump-power rescaling)
        assert np.allclose(rows["gamma_eff_hz"], rows["gamma_eff_target_hz"], rtol=1e-3)
        # phenomenological s(Gamma_eff) table replaces the derived value
        assert rows["s"][0] == pytest.approx(0.30, abs=1e-3)
        assert rows["s"][-1] == pytest.approx(0.55, abs=1e-3)
        assert not np.allclose(rows["s"], rows["s_derived"])
        # R0 rises with Gamma_eff (stronger cooling -> lower n_bar)
        assert np.all(np.diff(rows["r0"]) > 0)

    def test_single_point_consistency_with_rates(self, tmp_path, paper_config_path):
        text = Path(paper_config_path).read_text()
        text = text.replace("start = -4.0e5", "start = 2.0e5")
        text = text.replace("stop = 4.0e5", "stop = 2.000001e5")
        text = text.replace("n_points = 41", "n_points = 2")
        path = tmp_path / "point.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        rows = load_table(out / "sweep.csv")
        cfg = load_config(paper_config_path)
        rates = derive_all(cfg.params, cfg.pump)
        assert rows["s"][0] == pytest.approx(abs(rates.s), rel=1e-9)
        assert rows["gamma_eff_hz"][0] == pytest.approx(rates.gamma_eff / TWO_PI, rel=1e-9)


class TestExperimentCommand:
    def test_small_campaign(self, tmp_path, paper_config_path):
        out = tmp_path / "exp"
        code = cli.main(
            [
                "experiment",
                "--config",
                str(paper_config_path),
                "--out-dir",
                str(out),
                "--n-repeats",
                "5",
                "--seed",
                "11",
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_recovered"] == 5
        assert abs(summary["s_mean"] - 0.53) < 0.05
        overlay = load_table(out / "overlay.csv")
        for col in ("psd", "model_total", "stokes_narrow", "antistokes_broad"):
            assert col in overlay.dtype.names

    def test_boundary_sigma_left_out_of_summary(self, tmp_path, paper_config_path):
        text = paper_config_path.read_text().replace("\ns = 0.53", "\ns = 0.0")
        path = write_config(tmp_path, text)
        out = tmp_path / "exp"
        args = ["experiment", "--config", str(path), "--out-dir", str(out)]
        assert cli.main(args + ["--n-repeats", "8", "--seed", "12"]) == 0
        rows = load_table(out / "campaign.csv")
        undefined = np.isnan(rows["s_sigma_fit"])
        assert np.array_equal(undefined, rows["s"] < 1e-4)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["s_sigma_fit_undefined"] == undefined.sum() > 0
        assert summary["s_sigma_fit_mean"] == pytest.approx(
            rows["s_sigma_fit"][~undefined].mean(), rel=1e-12
        )


class TestBiasCommand:
    def test_quick_mode_and_determinism(self, tmp_path, paper_config_path):
        import time

        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        started = time.time()
        for out in (out_a, out_b):
            code = cli.main(
                [
                    "bias",
                    "--config",
                    str(paper_config_path),
                    "--out-dir",
                    str(out),
                    "--n-trials",
                    "100",
                    "--seed",
                    "21",
                ]
            )
            assert code == 0
        assert time.time() - started < 120.0  # 100-trial quick mode is interactive
        assert (out_a / "bias_report.json").read_bytes() == (
            out_b / "bias_report.json"
        ).read_bytes()
        assert (out_a / "bias_histogram.csv").read_bytes() == (
            out_b / "bias_histogram.csv"
        ).read_bytes()
        report = json.loads((out_a / "bias_report.json").read_text())
        assert report["valid"] is True

    def test_invalid_report_exit_code(self, tmp_path, paper_config_path, monkeypatch):
        import sqzband.cli as cli_mod

        def fake_bias(truth, n_trials, seed, n_jobs=1):
            return BiasStudyReport(
                n_trials=n_trials,
                n_failed=n_trials // 2,
                mean_s=0.0,
                std_s=0.0,
                skewness_s=0.0,
                hist_edges=np.array([0.0, 1.0]),
                hist_counts=np.array([1]),
                valid=False,
            )

        monkeypatch.setattr(cli_mod, "bias_study", fake_bias)
        code = cli.main(
            [
                "bias",
                "--config",
                str(paper_config_path),
                "--out-dir",
                str(tmp_path / "x"),
                "--n-trials",
                "100",
            ]
        )
        assert code == 4


class TestRerun:
    def test_byte_identical_outputs(self, tmp_path, paper_config_path):
        first = tmp_path / "first"
        assert (
            cli.main(
                [
                    "synth",
                    "--config",
                    str(paper_config_path),
                    "--out-dir",
                    str(first),
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        second = tmp_path / "second"
        code = cli.main(
            ["rerun", str(first / "manifest.json"), "--out-dir", str(second)]
        )
        assert code == 0
        for name in ("drive_on.csv", "drive_off.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestOutDirEnv:
    def test_env_default(self, tmp_path, paper_config_path, monkeypatch):
        monkeypatch.setenv("SQZBAND_OUT_DIR", str(tmp_path / "env_out"))
        code = cli.main(["rates", "--config", str(paper_config_path)])
        assert code == 0
        assert (tmp_path / "env_out" / "rates.json").exists()
