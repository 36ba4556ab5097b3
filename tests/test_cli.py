import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_ROOT, TWO_PI, load_strict_json, load_table
from sqzband import cli, fitter
from sqzband.config import load_config
from sqzband.core import derive_all
from sqzband.data import SpectrumData
from sqzband.errors import ConfigError
from sqzband.fitter import BiasStudyReport, fit_pair_two_stage
from sqzband.io import write_json
from sqzband.seeding import task_seed
from sqzband.synthesizer import synth_onoff_from_rates


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

    @pytest.mark.parametrize("line", ["quality_factor = 6.4e6\ngamma_m_hz = 5.0", ""])
    def test_mechanical_width_given_once(self, tmp_path, line):
        # quality_factor and gamma_m_hz are two ways to give one width
        text = MINIMAL.replace("quality_factor = 6.4e6", line)
        with pytest.raises(ConfigError, match="gamma_m_hz or quality_factor, not both"):
            load_config(write_config(tmp_path, text))

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(MINIMAL.encode() + b"n_extra = \xff\n")
        with pytest.raises(ConfigError, match="run.ini"):
            load_config(path)
        assert cli.main(["rates", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_missing_section_diagnostic(self, tmp_path):
        bad = MINIMAL.replace("[bath]", "[bathtub]")
        with pytest.raises(ConfigError, match=r"\[bath\]"):
            load_config(write_config(tmp_path, bad))

    def test_bad_amplitude_diagnostic(self, tmp_path):
        bad = MINIMAL.replace("1.63575e6, 0.0", "oops")
        with pytest.raises(ConfigError, match="alpha_in_minus"):
            load_config(write_config(tmp_path, bad))

    def test_amplitude_phase_parsing(self, tmp_path):
        text = MINIMAL.replace("alpha_in_plus = 6.4957e5, 0.0", "alpha_in_plus = 2.0, 90.0")
        cfg = load_config(write_config(tmp_path, text))
        assert cfg.pump.alpha_in_plus == pytest.approx(2j, abs=1e-12)

    @pytest.mark.parametrize(
        "section, key",
        [
            ("cavity", "kapa_hz"),
            ("mechanics", "omega_hz"),
            ("pump", "alpha_minus"),
            ("bath", "n_xtra"),
            ("detection", "n_avgs"),
            ("experiment", "n_repeat"),
            ("bias", "n_trial"),
            ("sweep", "npoints"),
            ("experiments", "n_bar"),
        ],
    )
    def test_unread_key_rejected(self, tmp_path, paper_config_path, section, key):
        # a misspelled key would otherwise leave its setting at the default;
        # a misspelled section shows through its keys
        text = paper_config_path.read_text()
        if section == "experiments":
            text = text.replace("[experiment]\n", "[experiments]\n")
        else:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 5\n")
        path = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
            load_config(path)
        assert cli.main(["rates", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2

    def test_sweep_with_only_start_and_stop_takes_the_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL + "\n[sweep]\nstart = -1e5\nstop = 1e5\n"))
        assert (cfg.sweep.axis, cfg.sweep.n_points) == ("detuning_delta", 21)
        assert (cfg.sweep.start, cfg.sweep.stop) == (-1e5, 1e5)
        assert cfg.sweep.s_table == ()

    def test_sweep_without_start_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, MINIMAL + "\n[sweep]\nstop = 1e5\n")
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        assert "[sweep] start" in capsys.readouterr().err

    def test_shipped_examples_load(self, tmp_path):
        # every bundled config and the README's Configuration example
        readme = (REPO_ROOT / "README.md").read_text()
        section = readme[readme.index("## Configuration") :]
        start = section.index("```ini\n") + len("```ini\n")
        example = section[start : section.index("```", start)]
        paths = sorted((REPO_ROOT / "configs").glob("*.ini"))
        assert paths and "[cavity]" in example
        for path in paths:
            load_config(path)
        load_config(write_config(tmp_path, example))


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

    @pytest.mark.parametrize("flag, value", [("--gamma-eff-hz", "150"), ("--center-hz", "531e3")])
    def test_any_model_flag_selects_the_model(self, tmp_path, paper_config_path, flag, value):
        # one model flag is enough; the other model values come from [experiment]
        out = tmp_path / "model"
        args = ["spectrum", "--config", str(paper_config_path), "--out-dir", str(out)]
        assert cli.main(args + [flag, value]) == 0
        info = json.loads((out / "model.json").read_text())
        assert info["n_bar"] == 5.8 and info["s"] == pytest.approx(0.53, rel=1e-12)
        gamma_eff_hz = 150.0 if flag == "--gamma-eff-hz" else 100.0
        assert info["gamma_eff_hz"] == pytest.approx(gamma_eff_hz, rel=1e-12)
        freq = load_table(out / "composite.csv")["frequency_hz"]
        center_hz = 531e3 if flag == "--center-hz" else 530e3
        assert (freq[0] + freq[-1]) / 2 == pytest.approx(center_hz, rel=1e-12)

    def test_phase_flag_rejected(self, tmp_path, paper_config_path):
        # no sideband spectrum depends on the squeezing phase, which only picks
        # the squeezed quadrature
        args = ["spectrum", "--config", str(paper_config_path), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--phi-deg", "30"])
        assert exc.value.code == 2

    def test_log_y_needs_the_plot(self, tmp_path, paper_config_path):
        args = ["spectrum", "--config", str(paper_config_path), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--log-y"])
        assert exc.value.code == 2
        assert not (tmp_path / "manifest.json").exists()
        assert cli.main(args + ["--log-y", "--format", "svg"]) == 0
        assert "log10(psd)" in (tmp_path / "sidebands.svg").read_text()


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
        # the command runs the library's two-stage protocol, byte for byte
        for name, result in zip(("fit_off.json", "fit_on.json"), fit_pair_two_stage(off, on)):
            expected = write_json(tmp_path / name, result).read_bytes()
            assert (fit_out / name).read_bytes() == expected

    def test_synth_writes_fitted_bands_only(self, tmp_path, paper_config_path, capsys):
        out = tmp_path / "synth"
        args = ["synth", "--config", str(paper_config_path), "--out-dir", str(out), "--seed", "11"]
        assert cli.main(args) == 0
        assert "6002 fitted bins" in capsys.readouterr().out
        for name in ("drive_on.csv", "drive_off.csv"):
            lines = (out / name).read_text().splitlines()
            rows = [line for line in lines if line[0].isdigit()]
            assert len(rows) == 6002 == len(lines) - 3
            assert all(row.endswith(",0") for row in rows)

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

    def test_fit_of_a_missing_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "fits"
        code = cli.main(["fit", "--off", str(tmp_path / "absent.csv"), "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "absent.csv" in err
        assert "Traceback" not in err
        assert json.loads((out / "manifest.json").read_text())["outputs"] == []

    @pytest.mark.parametrize(
        "psd, with_on, code, message",
        [
            (np.ones(3000), False, 4, "did not converge"),
            (np.ones(3), False, 1, "smoothing kernel"),
            (np.repeat([0.0, 1.0], 4), False, 1, "singular fit basis"),
            (9.0 + np.arange(8), True, 1, "singular fit basis"),
            (np.where(np.arange(400) == 200, 100.0, 1.0), True, 1, "singular fit basis"),
        ],
        ids=["psd0-4", "psd1-1", "step-off", "ramp-on", "spike-on"],
    )
    def test_fit_degenerate_spectrum_exit_code(self, tmp_path, capsys, psd, with_on, code, message):
        # a flat spectrum fits to no peak (not converged); 3 bins are too few;
        # a step leaves the off-fit basis singular, a ramp or a lone spike the on-fit's
        path = tmp_path / "drive_off.csv"
        freq = 529000.0 + 0.2 * np.arange(psd.size)
        SpectrumData(freq_hz=freq, psd=psd, n_avg=10).to_csv(path)
        args = ["fit", "--off", str(path), "--out-dir", str(tmp_path / "fits")]
        on_args = ["--on", str(path)] if with_on else []
        assert cli.main(args + on_args) == code
        err = capsys.readouterr().err
        assert err.startswith("fit failure:" if code == 4 else "error:") and message in err
        assert "Traceback" not in err and "Warning" not in err
        # every error leaves a record of the run, with what it wrote
        manifest = json.loads((tmp_path / "fits" / "manifest.json").read_text())
        written = [str(tmp_path / "fits" / "fit_off.json")] if code == 4 else []
        assert manifest["command"] == "fit" and manifest["outputs"] == written
        if with_on:  # the off-fit alone converges
            assert cli.main(args) == 0
        if code == 4:
            # R0 = inf and NaN sigmas are written as null: strict JSON
            result = load_strict_json(tmp_path / "fits" / "fit_off.json")
            assert result["params"]["r0"] is None

    @pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.ini"), ("--seed", "99")])
    def test_fit_rejects_removed_options(self, tmp_path, flag, value):
        # fit reads no config and draws nothing, so it takes neither option
        path = tmp_path / "drive_off.csv"
        SpectrumData(freq_hz=529000.0 + 0.2 * np.arange(8), psd=np.ones(8), n_avg=10).to_csv(path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--off", str(path), "--out-dir", str(tmp_path), flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_fit_rejects_ratio_correction_that_cannot_be_right(
        self, tmp_path, paper_config_path, capsys, value
    ):
        # a relative detection efficiency is positive and finite
        synth, fits = tmp_path / "synth", tmp_path / "fits"
        args = ["synth", "--config", str(paper_config_path), "--out-dir", str(synth), "--seed", "7"]
        assert cli.main(args) == 0
        files = ["--off", str(synth / "drive_off.csv"), "--on", str(synth / "drive_on.csv")]
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", *files, "--out-dir", str(fits), "--ratio-correction", value])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (fits / "manifest.json").exists()

    def test_fit_manifest_has_no_seed(self, tmp_path, paper_config_path):
        synth, fits = tmp_path / "synth", tmp_path / "fits"
        args = ["synth", "--config", str(paper_config_path), "--out-dir", str(synth)]
        assert cli.main(args) == 0
        assert cli.main(["fit", "--off", str(synth / "drive_off.csv"), "--out-dir", str(fits)]) == 0
        assert json.loads((fits / "manifest.json").read_text())["root_seed"] is None

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
        # byte for byte the pair synth_onoff_from_rates draws on the pump-derived rates
        off_rates = rates.without_parametric_drive()
        pair = synth_onoff_from_rates(rates, off_rates, rates.n_bar, cfg.detection, seed=3)
        for name, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off)):
            spectrum.to_csv(tmp_path / f"{name}.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == (out / f"{name}.csv").read_bytes()


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
            "axis = parametric_gain_s\nstart = 0.0\nstop = 0.9\nn_points = 10",
        ).replace("[experiment]\nn_bar = 5.8", "[experiment]\nn_bar = 4.2")
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

    @pytest.mark.parametrize(
        "axis, header, first_row",
        [
            (
                "axis = parametric_gain_s\nstart = -1.3\nstop = 1.3\nn_points = 27",
                "s_axis,stable,s,r0,r_plus,r_minus,sigma_x2,sigma_y2,criterion,margin,gamma_eff_hz",
                "-1.3,0,nan,nan,nan,nan,nan,nan,nan,nan,nan",
            ),
            (
                "axis = gamma_eff\nstart = 0.01\nstop = 5000\nn_points = 30",
                "gamma_eff_target_hz,stable,error,gamma_eff_hz,s,s_derived,r0,r_plus,r_minus,n_bar",
                "0.01,0,below_mechanical_width,nan,nan,nan,nan,nan,nan,nan",
            ),
        ],
        ids=["s_above_threshold", "gamma_eff_below_gamma_m"],
    )
    def test_unstable_point_without_an_exception(
        self, tmp_path, paper_config_path, axis, header, first_row
    ):
        # |s| >= 1 on the s axis and a target below gamma_m on the gamma_eff axis
        # are unstable by the axis' own rule, not by a StabilityError
        text = Path(paper_config_path).read_text()
        text = text.replace(
            "axis = detuning_delta\nstart = -4.0e5\nstop = 4.0e5\nn_points = 41", axis
        )
        path = tmp_path / "unstable.ini"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1:3] == [header, first_row]

    @pytest.mark.parametrize(
        "line", ["n_bar = 99", "gamma_eff_hz = 7", "s_table = 50:0.30; 500:0.55"]
    )
    def test_key_its_axis_never_reads_rejected(self, tmp_path, paper_config_path, line):
        # s_table matters on gamma_eff only; no axis reads a [sweep] n_bar or
        # gamma_eff_hz, parametric_gain_s takes [experiment]'s
        for axis in ("detuning_delta", "parametric_gain_s"):
            text = Path(paper_config_path).read_text()
            text = text.replace("axis = detuning_delta", f"axis = {axis}")
            text = text.replace("n_points = 41", f"n_points = 41\n{line}")
            path = tmp_path / "sweep.ini"
            path.write_text(text)
            assert cli.main(["sweep", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
            assert not (tmp_path / "sweep.csv").exists()


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

    def test_fewer_than_two_usable_repeats_fails(
        self, tmp_path, paper_config_path, monkeypatch, capsys
    ):
        # one repeat of two is not under half, but has no ensemble scatter
        fits, dropped = fitter._trial_fits, task_seed(5, 1)

        def drop_second(truth, seed):
            return None if seed == dropped else fits(truth, seed)

        monkeypatch.setattr(fitter, "_trial_fits", drop_second)
        out = tmp_path / "exp"
        args = ["experiment", "--config", str(paper_config_path), "--out-dir", str(out)]
        assert cli.main(args + ["--n-repeats", "2", "--seed", "5"]) == 4
        assert "fewer than 2 usable fits" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


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
        # the failed study's outputs stay on record
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        names = sorted(Path(path).name for path in manifest["outputs"])
        assert names == ["bias_histogram.csv", "bias_report.json", "config_snapshot.ini"]
        assert (tmp_path / "x" / "config_snapshot.ini").exists()


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

    def test_rerun_reads_the_snapshot_when_recorded_as_config_equals(
        self, tmp_path, paper_config_path
    ):
        # the snapshot, not the config file as it is now, drives the replay
        config = write_config(tmp_path, paper_config_path.read_text(), name="c.ini")
        first, second = tmp_path / "first", tmp_path / "second"
        assert cli.main(["rates", f"--config={config}", f"--out-dir={first}"]) == 0
        config.write_text(config.read_text().replace("delta_hz = 2.0e5", "delta_hz = 1.5e5"))
        assert cli.main(["rerun", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
        for name in ("rates.json", "config_snapshot.ini"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    @pytest.mark.parametrize(
        "content", [None, "directory", "{", "[1]", '{"arguments": {}}'],
        ids=["missing", "directory", "not-json", "not-an-object", "no-argv"],
    )
    def test_unreadable_manifest_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "manifest.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        assert cli.main(["rerun", str(path), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "manifest.json" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_sweep_svg_rerun_reproduces_table(self, tmp_path, paper_config_path):
        first = tmp_path / "first"
        args = ["sweep", "--config", str(paper_config_path), "--out-dir", str(first)]
        assert cli.main(args + ["--format", "svg"]) == 0
        assert (first / "sweep.svg").exists()
        second = tmp_path / "second"
        assert cli.main(["rerun", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
        assert (second / "sweep.svg").exists()
        assert (first / "sweep.csv").read_bytes() == (second / "sweep.csv").read_bytes()

    @pytest.mark.parametrize(
        "runs",
        [
            [["rates"]],
            [["spectrum"]],
            [
                ["synth", "--seed", "5"],
                ["fit", "--off", "{0}/drive_off.csv", "--on", "{0}/drive_on.csv"],
            ],
            [["sweep"]],
            [["experiment", "--n-repeats", "4"]],
            [["bias", "--n-trials", "100"]],
        ],
        ids=["rates", "spectrum", "synth-fit", "sweep", "experiment", "bias"],
    )
    def test_replay_of_every_command(self, tmp_path, paper_config_path, runs):
        # each replay rewrites the same files byte for byte, and lists the same outputs
        firsts = []
        for k, run in enumerate(runs):
            first, second = tmp_path / f"first{k}", tmp_path / f"second{k}"
            argv = [arg.format(*firsts) for arg in run] + ["--out-dir", str(first)]
            if run[0] != "fit":
                argv += ["--config", str(paper_config_path)]
            assert cli.main(argv) == 0
            assert cli.main(["rerun", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
            manifests = [json.loads((d / "manifest.json").read_text()) for d in (first, second)]
            names = [sorted(Path(path).name for path in m["outputs"]) for m in manifests]
            assert names[0] == names[1] and names[0]
            for name in names[0]:
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
            seeded = run[0] in ("synth", "experiment", "bias")
            assert (manifests[0]["root_seed"] is not None) == seeded
            firsts.append(first)


class TestSeedOption:
    @pytest.mark.parametrize("command", ["rates", "spectrum", "sweep"])
    def test_rejected_where_nothing_is_drawn(self, tmp_path, paper_config_path, command):
        # only synth, experiment and bias draw random numbers
        args = [command, "--config", str(paper_config_path), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--seed", "99"])
        assert exc.value.code == 2


class TestFormatOption:
    @pytest.mark.parametrize(
        "command, value", [("rates", "svg"), ("synth", "csv"), ("spectrum", "json")]
    )
    def test_rejected_where_it_does_nothing(self, tmp_path, paper_config_path, command, value):
        # only spectrum and sweep take --format, and only csv or svg
        args = [command, "--config", str(paper_config_path), "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--format", value])
        assert exc.value.code == 2


def _s_table_edit(table):
    """paper.ini's [sweep] on the gamma_eff axis from 50 to 500 Hz, with `table` as s_table."""
    return (
        "axis = detuning_delta\nstart = -4.0e5\nstop = 4.0e5",
        f"axis = gamma_eff\nstart = 50.0\nstop = 500.0\ns_table = {table}",
    )


@pytest.mark.parametrize(
    "argv, edit",
    # each id is the positional one the row had in the first version of this table, kept
    # so that deleting a row renames no other; [section] edits that the generated table in
    # test_input_table.py tries (a 0, -1, nan or inf) are not repeated here
    [
        pytest.param(["experiment", "--n-repeats", "0"], None, id="argv0-None"),
        pytest.param(["experiment", "--n-repeats", "1"], None, id="argv1-None"),
        pytest.param(["bias", "--n-trials", "0"], None, id="argv3-None"),
        pytest.param(["bias", "--n-trials", "50"], None, id="argv4-None"),
        pytest.param(["bias"], ("n_trials = 6000", "n_trials = 99"), id="argv5-edit5"),
        pytest.param(["spectrum", "--points", "0"], None, id="argv6-None"),
        pytest.param(["spectrum", "--points", "-3"], None, id="argv7-None"),
        pytest.param(["spectrum", "--halfwidth-hz", "0"], None, id="argv8-None"),
        pytest.param(["spectrum", "--halfwidth-hz", "-5"], None, id="argv9-None"),
        pytest.param(["spectrum", "--center-hz", "0"], None, id="argv10-None"),
        pytest.param(["spectrum", "--center-hz", "-530000"], None, id="argv11-None"),
        pytest.param(["spectrum", "--n-bar", "-0.5"], None, id="argv12-None"),
        pytest.param(
            ["synth"], ("n_bar = 5.8\ns = 0.53", "n_bar = -0.5\ns = 0.53"), id="argv13-edit13"
        ),
        pytest.param(
            ["synth"], ("n_repeats = 100", "n_repeats = 100\ncenter_hz = -5e5"), id="argv14-edit14"
        ),
        pytest.param(
            ["bias"],
            ("n_trials = 6000\nn_bar = 5.8", "n_trials = 6000\nn_bar = -0.5"),
            id="argv15-edit15",
        ),
        pytest.param(
            ["sweep"],
            ("axis = detuning_delta", "axis = parametric_gain_s\nn_bar = -0.5"),
            id="argv17-edit17",
        ),
        pytest.param(["synth"], ("snr = 30.0", "snr = -3"), id="argv20-edit20"),
        pytest.param(
            ["synth"], ("floor = 1.0", "floor = 1.0\ncalibration = -2"), id="argv21-edit21"
        ),
        pytest.param(
            ["synth"], ("band_halfwidth_hz = 300.0", "band_halfwidth_hz = -5"), id="argv22-edit22"
        ),
        pytest.param(["bias"], ("n_jobs = 2", "n_jobs = 2\nsnr = -3"), id="argv28-edit28"),
        pytest.param(["bias"], ("n_jobs = 2", "n_jobs = 2\ncalibration = -2"), id="argv29-edit29"),
        pytest.param(["spectrum", "--halfwidth-hz", "inf"], None, id="argv32-None"),
        pytest.param(["spectrum", "--gamma-eff-hz", "inf"], None, id="argv41-None"),
        pytest.param(["spectrum", "--gamma-eff-hz", "nan"], None, id="argv42-None"),
        pytest.param(["spectrum", "--gamma-eff-hz", "0"], None, id="argv43-None"),
        pytest.param(["spectrum", "--n-bar", "inf"], None, id="argv44-None"),
        pytest.param(["spectrum", "--center-hz", "inf"], None, id="argv45-None"),
        pytest.param(["spectrum", "--s", "nan"], None, id="argv46-None"),
        pytest.param(["spectrum", "--center-hz", "1e17"], None, id="argv47-None"),
        pytest.param(["spectrum", "--center-hz", "1e20"], None, id="argv48-None"),
        pytest.param(["spectrum", "--center-hz", "1e50"], None, id="argv49-None"),
        pytest.param(["spectrum", "--points", "10000001"], None, id="argv50-None"),
        pytest.param(
            ["rates"],
            ("temperature_k = 7.0", "temperature_k = 7.0\nn_th = 1234.0"),
            id="argv51-edit51",
        ),
        pytest.param(["sweep"], _s_table_edit("50:1.5; 500:2.0"), id="argv52-edit52"),
        pytest.param(["sweep"], _s_table_edit("50:nan; 500:0.5"), id="argv53-edit53"),
        pytest.param(["sweep"], _s_table_edit("50:inf"), id="argv54-edit54"),
        pytest.param(["sweep"], _s_table_edit("nan:0.3; 500:0.4"), id="argv55-edit55"),
        pytest.param(["synth", "--seed", "-1"], None, id="argv56-None"),
        pytest.param(["experiment", "--seed", "-1"], None, id="argv57-None"),
        pytest.param(["bias", "--seed", "-1"], None, id="argv58-None"),
    ],
)
def test_count_or_width_that_cannot_run_exits_2(tmp_path, paper_config_path, capsys, argv, edit):
    # an explicit 0 is not "unset", and a study too small for its statistics does not run;
    # neither does a negative occupancy, a resonance not at a positive frequency, a pool
    # of no workers, detection settings no spectrum can be drawn with, a grid float64
    # cannot step at its center, a quantity given by two keys, or a value that is not
    # finite
    text = paper_config_path.read_text()
    if edit:
        assert edit[0] in text
        text = text.replace(*edit)
    args = [*argv, "--config", str(write_config(tmp_path, text)), "--out-dir", str(tmp_path / "o")]
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_import_and_config_load_leave_scipy_and_multiprocessing_unloaded(paper_config_path):
    # what every command pays before it works: only the oracle needs scipy and its
    # worker threads, and only a bias or experiment pool needs multiprocessing
    code = (
        "import sqzband, sqzband.cli, sys\n"
        "from sqzband.config import load_config\n"
        f"load_config({str(paper_config_path)!r})\n"
        "heavy = ('scipy', 'multiprocessing', 'concurrent.futures', 'concurrent.futures.process')\n"
        "print(sorted(m for m in sys.modules if m in heavy or m.startswith('scipy.')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestOutDirEnv:
    def test_env_default(self, tmp_path, paper_config_path, monkeypatch):
        monkeypatch.setenv("SQZBAND_OUT_DIR", str(tmp_path / "env_out"))
        code = cli.main(["rates", "--config", str(paper_config_path)])
        assert code == 0
        assert (tmp_path / "env_out" / "rates.json").exists()
