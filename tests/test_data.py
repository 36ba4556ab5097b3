import json

import numpy as np
import pytest

from conftest import PAPER_CONFIG, full_grid_pair
from sqzband import cli
from sqzband.config import load_config
from sqzband.data import OnOffPair, SpectrumData
from sqzband.errors import GridError

TWO_PI = 2 * np.pi

# shortest reprs that are long, subnormal, huge or off by one ulp
AWKWARD_PSD = [5e-324, 1e22, 0.1 + 0.2, 2.2250738585072014e-308, 1.7976931348623157e308,
               0.0, 1e-7, 1.2345678901234568e17]


def awkward_spectrum():
    freq = 518799.8 + 0.2 * np.arange(-4, 4)  # 518799.39999999997 at index 2
    freq[4] = 518799.80000000005  # one ulp above 518799.8
    return SpectrumData(
        freq_hz=freq,
        psd=np.array(AWKWARD_PSD),
        n_avg=10,
        mask=np.array([1, 0, 0, 1, 0, 1, 1, 0], dtype=bool),
        meta={"seed": 7, "truth": {"s": 0.53}},
    )


def row_format(data):
    """The spectrum CSV as the per-row writer formats it."""
    meta = json.dumps({"n_avg": data.n_avg, **data.meta}, sort_keys=True)
    lines = ["# sqzband spectrum", f"# meta: {meta}", "freq_hz,psd,mask"]
    lines += [f"{f!r},{p!r},{int(m)}" for f, p, m in zip(
        data.freq_hz.tolist(), data.psd.tolist(), data.mask.tolist()
    )]
    return "\n".join(lines) + "\n"


def spectrum(n=16, n_avg=3, start=100.0, step=0.5):
    freq = start + step * np.arange(n)
    psd = 1.0 + np.linspace(0, 1, n)
    return SpectrumData(freq_hz=freq, psd=psd, n_avg=n_avg)


class TestSpectrumData:
    def test_resolution_from_grid(self):
        data = spectrum(step=0.25)
        assert data.resolution_hz == pytest.approx(0.25, rel=1e-12)
        assert not data.mask.any()

    def test_nonuniform_grid_rejected(self):
        freq = np.array([0.0, 1.0, 2.5, 3.0])
        with pytest.raises(GridError):
            SpectrumData(freq_hz=freq, psd=np.ones(4), n_avg=1)

    def test_descending_grid_rejected(self):
        with pytest.raises(GridError):
            SpectrumData(freq_hz=np.array([3.0, 2.0, 1.0]), psd=np.ones(3), n_avg=1)

    def test_gapped_lattice_grid_round_trips(self, tmp_path):
        steps = np.concatenate([np.arange(10), np.arange(50, 60), np.arange(107_000, 107_003)])
        data = SpectrumData(
            freq_hz=518799.8 + 0.2 * steps,
            psd=np.random.default_rng(2).gamma(5.0, size=steps.size),
            n_avg=10,
            meta={"seed": 4},
        )
        assert data.resolution_hz == data.freq_hz[1] - data.freq_hz[0]
        path = tmp_path / "gapped.csv"
        data.to_csv(path)
        loaded = SpectrumData.from_csv(path)
        assert loaded.freq_hz.tobytes() == data.freq_hz.tobytes()
        assert loaded.psd.tobytes() == data.psd.tobytes()
        assert not loaded.mask.any() and loaded.meta == {"seed": 4}

    def test_window_counts_lattice_points_in_gaps(self):
        # lattice indices 0-3, 7-8, 12: gaps hold 4-6 and 9-11
        steps = np.array([0, 1, 2, 3, 7, 8, 12])
        data = SpectrumData(freq_hz=0.5 * steps, psd=np.ones(steps.size), n_avg=1)
        assert np.array_equal(data.k, steps)

        def missing(spectrum, lo_hz, hi_hz):
            bins, n = spectrum.window(lo_hz, hi_hz)
            return n - (bins.stop - bins.start)

        assert missing(data, 0.0, 6.0) == 6
        assert missing(data, 2.0, 4.0) == 3  # 2.0, 2.5, 3.0 (indices 4-6)
        assert missing(data, 2.6, 4.9) == 2  # 3.0, 4.5
        assert missing(data, 3.6, 3.9) == 0
        assert data.window(2.0, 4.0) == (slice(4, 6), 5)  # stored: 3.5, 4.0
        full = SpectrumData(freq_hz=0.5 * np.arange(13), psd=np.ones(13), n_avg=1)
        assert missing(full, 0.0, 6.0) == 0

    def test_window_clipped_to_the_grid_span(self):
        data = SpectrumData(freq_hz=10.0 + 0.5 * np.arange(5), psd=np.ones(5), n_avg=1)
        assert data.window(-np.inf, np.inf) == (slice(0, 5), 5)
        assert data.window(9.0, 10.6) == (slice(0, 2), 2)
        assert data.window(13.0, 14.0) == (slice(5, 5), 0)
        assert data.window(11.1, 11.2) == (slice(3, 3), 0)

    def test_span_past_exact_lattice_index_rejected(self):
        # 2^60 steps of 1 Hz: the float rule would pass any step there
        with pytest.raises(GridError, match="multiple"):
            SpectrumData(freq_hz=np.array([0.0, 1.0, 2.0**60]), psd=np.ones(3), n_avg=1)

    @pytest.mark.parametrize("center_hz", [1.06e6, 1.2e6, 3e6])
    def test_synthetic_grid_above_1_mhz_accepted(self, center_hz):
        # the float spacing of these frequencies exceeds 1e-9 of the 0.2 Hz step
        from sqzband.synthesizer import DetectionConfig, synthetic_grid_hz

        freq = synthetic_grid_hz(center_hz, DetectionConfig())
        assert SpectrumData(freq_hz=freq, psd=np.ones(freq.size), n_avg=10).n_bins == freq.size
        freq[5] += 1e-7  # a step off by far more than the rounding
        with pytest.raises(GridError, match="multiple"):
            SpectrumData(freq_hz=freq, psd=np.ones(freq.size), n_avg=10)

    def test_fit_recovers_s_at_1_2_mhz(self):
        from sqzband.fitter import ExperimentTruth, fit_pair_two_stage
        from sqzband.seeding import task_seed
        from sqzband.synthesizer import DetectionConfig, synth_onoff_from_rates

        det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=1200)
        truth = ExperimentTruth(
            gamma_eff=TWO_PI * 100.0, s=0.53, n_bar=5.8, center_hz=1.2e6, detection=det
        )
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(rates_on, rates_off, 5.8, det, seed=task_seed(2024, 0))
        off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
        assert off.converged and on.converged
        assert abs(on.params["s"] - 0.53) < 4 * on.sigmas["s"] < 0.01

    @pytest.mark.parametrize("center_hz", ["1.2e6", "3e6"])
    def test_synth_then_fit_above_1_mhz(self, tmp_path, center_hz):
        text = PAPER_CONFIG.read_text().replace(
            "[experiment]\n", f"[experiment]\ncenter_hz = {center_hz}\n"
        )
        config = tmp_path / "paper.ini"
        config.write_text(text)
        synth, fits = tmp_path / "synth", tmp_path / "fits"
        args = ["synth", "--config", str(config), "--out-dir", str(synth), "--seed", "7"]
        assert cli.main(args) == 0
        assert SpectrumData.from_csv(synth / "drive_on.csv").freq_hz[0] > 1e6
        args = ["fit", "--off", str(synth / "drive_off.csv"),
                "--on", str(synth / "drive_on.csv"), "--out-dir", str(fits)]
        assert cli.main(args) == 0
        off_fit = json.loads((fits / "fit_off.json").read_text())
        on_fit = json.loads((fits / "fit_on.json").read_text())
        assert off_fit["converged"] and on_fit["converged"]
        assert abs(on_fit["params"]["s"] - 0.53) < 0.08

    def test_gap_off_the_lattice_rejected(self):
        with pytest.raises(GridError, match="multiple"):
            SpectrumData(freq_hz=np.array([0, 0.2, 0.4, 0.7, 0.9]), psd=np.ones(5), n_avg=1)

    @pytest.mark.parametrize(
        "freq",
        [[0.0, 5e-324, 1e308], [-1.5e308, 1.5e308, 1.6e308], [1.0, 1.0, 2.0], [0.0, 1.0, 0.0]],
    )
    def test_degenerate_steps_rejected(self, freq):
        # a zero first step, or steps and step ratios past float range, are
        # no lattice and raise no floating-point warning
        with pytest.raises(GridError, match="multiple"):
            SpectrumData(freq_hz=np.array(freq), psd=np.ones(len(freq)), n_avg=1)

    def test_fit_on_band_files_equals_full_masked_files(self, tmp_path):
        seed = 7
        band, full = tmp_path / "band", tmp_path / "full"
        synth = ["synth", "--config", str(PAPER_CONFIG), "--seed", str(seed)]
        assert cli.main(synth + ["--out-dir", str(band)]) == 0
        truth = cli._truth_from_config(load_config(PAPER_CONFIG))
        reference = full_grid_pair(truth, seed)
        full.mkdir()
        reference.drive_on.to_csv(full / "drive_on.csv")
        reference.drive_off.to_csv(full / "drive_off.csv")
        fits = {}
        for name, directory in (("band", band), ("full", full)):
            out = tmp_path / f"fit-{name}"
            args = ["fit", "--off", str(directory / "drive_off.csv"),
                    "--on", str(directory / "drive_on.csv"), "--out-dir", str(out)]
            assert cli.main(args) == 0
            fits[name] = [(out / f).read_bytes() for f in ("fit_off.json", "fit_on.json")]
        assert SpectrumData.from_csv(band / "drive_on.csv").n_bins == 6002
        assert fits["band"] == fits["full"]

    def test_negative_psd_rejected(self):
        with pytest.raises(ValueError):
            SpectrumData(freq_hz=np.arange(4.0), psd=np.array([1.0, -0.1, 1.0, 1.0]), n_avg=1)

    @pytest.mark.parametrize(
        "field, bad", [("psd", np.nan), ("psd", np.inf), ("freq_hz", np.nan)]
    )
    def test_non_finite_bins_rejected(self, field, bad):
        arrays = {"freq_hz": np.arange(4.0), "psd": np.ones(4)}
        arrays[field][2] = bad
        with pytest.raises(GridError, match=field):
            SpectrumData(n_avg=1, **arrays)

    def test_mask_shape_enforced(self):
        with pytest.raises(GridError):
            SpectrumData(
                freq_hz=np.arange(4.0), psd=np.ones(4), n_avg=1, mask=np.zeros(3, bool)
            )

    def test_csv_round_trip_exact(self, tmp_path):
        data = SpectrumData(
            freq_hz=529000.0 + 0.2 * np.arange(64),
            psd=np.random.default_rng(1).gamma(5.0, size=64),
            n_avg=10,
            mask=(np.arange(64) % 7 == 0),
            meta={"seed": 3, "truth": {"s": 0.53}},
        )
        path = tmp_path / "spec.csv"
        data.to_csv(path)
        loaded = SpectrumData.from_csv(path)
        assert np.array_equal(loaded.freq_hz, data.freq_hz)
        assert np.array_equal(loaded.psd, data.psd)  # repr round-trips floats
        assert np.array_equal(loaded.mask, data.mask)
        assert loaded.n_avg == 10
        assert loaded.meta["truth"]["s"] == 0.53


    def test_csv_bytes_match_row_format(self, tmp_path):
        data = awkward_spectrum()
        path = tmp_path / "spec.csv"
        data.to_csv(path)
        text = path.read_text()
        assert text == row_format(data)
        assert "\n518799.0,5e-324,1\n518799.2,1e+22,0\n" in text
        assert "\n518799.39999999997,0.30000000000000004,0\n" in text
        assert "\n518799.80000000005,1.7976931348623157e+308,0\n" in text

    def test_awkward_floats_read_back_exactly(self, tmp_path):
        data = awkward_spectrum()
        path = tmp_path / "spec.csv"
        data.to_csv(path)
        loaded = SpectrumData.from_csv(path)
        assert loaded.freq_hz.tobytes() == data.freq_hz.tobytes()
        assert loaded.psd.tobytes() == data.psd.tobytes()
        assert np.array_equal(loaded.mask, data.mask)
        assert loaded.meta == data.meta and loaded.n_avg == 10
        assert loaded.freq_hz.flags.c_contiguous and loaded.psd.flags.c_contiguous

    def test_comment_and_blank_lines_skipped_anywhere(self, tmp_path):
        data = spectrum()
        path = tmp_path / "spec.csv"
        data.to_csv(path)
        lines = path.read_text().splitlines()
        lines[6:6] = ["# a note", "", "   ", "freq_hz,psd,mask"]
        lines.append("")
        path.write_text("\n".join(lines) + "\n")
        loaded = SpectrumData.from_csv(path)
        assert np.array_equal(loaded.freq_hz, data.freq_hz)
        assert np.array_equal(loaded.psd, data.psd)
        assert loaded.n_avg == data.n_avg

    def test_values_float_and_int_accept_still_read(self, tmp_path):
        # underscores and a '+' sign: accepted by float()/int() as before
        path = tmp_path / "spec.csv"
        spectrum().to_csv(path)
        lines = path.read_text().splitlines()
        lines[5] = "101.0,1_5.0,+1"
        path.write_text("\n".join(lines) + "\n")
        loaded = SpectrumData.from_csv(path)
        assert loaded.psd[2] == 15.0 and loaded.mask[2]

    @pytest.mark.parametrize(
        "index, line",
        [
            (5, "529000.2,1.5"),
            (5, "529000.2,1.5,0,7"),
            (5, "529000.2,abc,0"),
            (1, '# meta: {"n_avg": 3'),
            (5, "100.5,1.5,0.5"),
            (5, "100.5,1.5,1.0"),
            (9, "103.0,1.5,1 # inline comment"),
        ],
    )
    def test_malformed_csv_line_names_file_and_line(self, tmp_path, index, line):
        path = tmp_path / "spec.csv"
        spectrum().to_csv(path)
        lines = path.read_text().splitlines()
        lines[index] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GridError, match=rf"spec\.csv:{index + 1}: malformed line"):
            SpectrumData.from_csv(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (",1.0,0\n", ",nan,0\n", "psd has 1 non-finite"),
            (",1.0,0\n", ",-1.0,0\n", "psd must be nonnegative"),
            ('{"n_avg": 3}', "[1, 2]", "the meta line is not a JSON object"),
            ('{"n_avg": 3}', '"x"', "the meta line is not a JSON object"),
            ('"n_avg": 3', '"n_avg": null', "meta n_avg is not a whole number"),
            ('"n_avg": 3', '"n_avg": [3]', "meta n_avg is not a whole number"),
            ('"n_avg": 3', '"n_avg": 1e400', "meta n_avg is not a whole number"),
        ],
    )
    def test_bad_csv_values_name_file(self, tmp_path, old, new, message):
        path = tmp_path / "spec.csv"
        spectrum().to_csv(path)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(GridError, match=rf"spec\.csv: {message}"):
            SpectrumData.from_csv(path)

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_names_file(self, tmp_path, kind):
        path = tmp_path / "spec.csv"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"# meta: {}\n100.0,1.0,0\n\xff\n")
        with pytest.raises(GridError, match=r"cannot read .*spec\.csv"):
            SpectrumData.from_csv(path)


class TestOnOffPair:
    def test_grid_mismatch_rejected(self):
        a, b = spectrum(), spectrum(start=101.0)
        with pytest.raises(GridError):
            OnOffPair(drive_on=a, drive_off=b, shared_params=None)

    def test_n_avg_mismatch_rejected(self):
        a, b = spectrum(n_avg=3), spectrum(n_avg=4)
        with pytest.raises(ValueError):
            OnOffPair(drive_on=a, drive_off=b, shared_params=None)


class TestParallelDeterminism:
    def test_bias_study_independent_of_worker_count(self):
        from sqzband.fitter import ExperimentTruth, bias_study
        from sqzband.synthesizer import DetectionConfig

        det = DetectionConfig(
            delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=1200
        )
        truth = ExperimentTruth(
            gamma_eff=TWO_PI * 100.0, s=0.0, n_bar=5.8, center_hz=530e3, detection=det
        )
        serial = bias_study(truth, n_trials=100, root_seed=5, n_jobs=1)
        parallel = bias_study(truth, n_trials=100, root_seed=5, n_jobs=2)
        assert serial.mean_s == parallel.mean_s
        assert serial.std_s == parallel.std_s
        assert np.array_equal(serial.hist_counts, parallel.hist_counts)

    def test_recovery_campaign_independent_of_worker_count(self):
        from sqzband.fitter import recovery_campaign

        truth = cli._truth_from_config(load_config(PAPER_CONFIG))
        serial = recovery_campaign(truth, n_repeats=8, root_seed=5, n_jobs=1)
        parallel = recovery_campaign(truth, n_repeats=8, root_seed=5, n_jobs=2)
        assert [row["index"] for row in serial.rows] == list(range(8))
        assert serial == parallel

    def test_pool_starts_at_most_one_worker_per_cpu(self, monkeypatch):
        # the pool starts all its workers at once, so n_jobs beyond the CPUs would fork
        # that many processes; an in-process fake records the count and starts none
        import concurrent.futures

        from sqzband import fitter

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        truth = cli._truth_from_config(load_config(PAPER_CONFIG))
        serial = fitter.recovery_campaign(truth, n_repeats=2, root_seed=5, n_jobs=1)
        for cpus, workers in ((3, [3]), (None, [])):
            started.clear()
            monkeypatch.setattr(fitter.os, "cpu_count", lambda: cpus)
            pooled = fitter.recovery_campaign(truth, n_repeats=2, root_seed=5, n_jobs=100_000)
            assert started == workers
            assert pooled == serial
