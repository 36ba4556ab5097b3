import numpy as np
import pytest

from sqzband.data import OnOffPair, SpectrumData
from sqzband.errors import GridError

TWO_PI = 2 * np.pi


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


    @pytest.mark.parametrize(
        "index, line",
        [
            (5, "529000.2,1.5"),
            (5, "529000.2,1.5,0,7"),
            (5, "529000.2,abc,0"),
            (1, '# meta: {"n_avg": 3'),
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
