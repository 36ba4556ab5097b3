import json

import numpy as np
import pytest

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
        ],
    )
    def test_bad_csv_values_name_file(self, tmp_path, old, new, message):
        path = tmp_path / "spec.csv"
        spectrum().to_csv(path)
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(GridError, match=rf"spec\.csv: {message}"):
            SpectrumData.from_csv(path)


class TestOnOffPair:
    def test_grid_mismatch_rejected(self):
        a, b = spectrum(), spectrum(start=101.0)
        with pytest.raises(GridError):
            OnOffPair(drive_on=a, drive_off=b, shared_params=None, gamma_eff_off=1.0)

    def test_n_avg_mismatch_rejected(self):
        a, b = spectrum(n_avg=3), spectrum(n_avg=4)
        with pytest.raises(ValueError):
            OnOffPair(drive_on=a, drive_off=b, shared_params=None, gamma_eff_off=1.0)


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
