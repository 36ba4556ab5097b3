"""Smoke test of the benchmark itself, at a tiny size (about a minute).

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
another seed gives other inputs, and that each correctness check trips on a
deliberately wrong result, alone and wired into its workload.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from sqzband.fitter import BiasStudyReport  # noqa: E402

TINY = workloads.Sizes(
    bias_trials=100,
    synth_pairs=2,
    synth_replay_batches=1,
    roundtrip_replays=1,
    oracle_configs=2,
    oracle_bins=2000,
    oracle_replays=1,
)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def units(entries) -> dict:
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = workloads.run(workload, seed=11, seconds=0, trace=trace, sizes=TINY)
    assert out.problems == [] and out.failed == 0 and out.items > 0
    metrics = workloads.metrics_of(out, trace)
    if trace:
        expected = units(SPEC["per_layer"])
    else:
        expected = {k: u for k, u in units(SPEC["end_to_end"]).items() if k != "setup_s"}
        assert metrics["throughput_per_s"]["value"] > 0
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(np.isfinite(m["value"]) for m in metrics.values())


def test_setup_metric_unit_and_value():
    assert units(SPEC["end_to_end"])["setup_s"] == "s"
    assert run.setup_seconds(run.child_env(), runs=1) > 0


def test_benchmark_json_names_this_command():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bias", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_seed_changes_inputs():
    tracer = workloads.NullTracer()

    def configs(seed):
        rng = workloads.task_rng(workloads.task_seed(seed, 0), 0)
        return [rates.gamma_eff for _, rates in workloads.stable_configs(tracer, rng, 3)]

    assert configs(1) == configs(1)
    assert configs(1) != configs(2)
    truth = workloads.experiment_truth(workloads.load_config(workloads.CONFIG))
    a, b = (workloads.synth_pair(truth, workloads.task_seed(s, 0)).drive_off.psd for s in (1, 2))
    assert not np.array_equal(a, b)
    assert np.array_equal(workloads.synth_pair(truth, workloads.task_seed(1, 0)).drive_off.psd, a)


# ---------------------------------------------- each check, fed a wrong result


def good_report(**changes) -> BiasStudyReport:
    report = BiasStudyReport(
        n_trials=100, n_failed=0, mean_s=0.02, std_s=0.02, skewness_s=1.0,
        hist_edges=np.zeros(61), hist_counts=np.zeros(60), valid=True,
    )
    return replace(report, **changes)


@pytest.mark.parametrize(
    "changes",
    [{"valid": False, "n_failed": 6}, {"mean_s": 0.031}, {"mean_s": 0.004},
     {"std_s": 0.041}, {"std_s": 0.009}, {"skewness_s": -0.1}],
)
def test_bias_check_trips(changes):
    assert checks.bias_report(good_report()) == []
    assert checks.bias_report(good_report(**changes))


def test_synth_checks_trip():
    model = np.linspace(1.0, 30.0, 100_000)
    noisy = model * np.random.default_rng(0).gamma(10, 1 / 10, size=model.size)
    assert checks.periodogram_noise("psd", noisy, model, 10) == []
    assert checks.periodogram_noise("psd", noisy * 1.01, model, 10)
    assert checks.periodogram_noise("psd", noisy, model, 8)
    assert checks.periodogram_noise("psd", model, model, 10)
    arrays = {"psd": np.arange(3.0)}
    assert checks.same_arrays("replay", arrays, {"psd": np.arange(3.0)}) == []
    assert checks.same_arrays("replay", arrays, {"psd": np.arange(3.0) + 1e-15})
    assert checks.same_arrays("replay", arrays, {})


def test_replay_checks_trip():
    assert checks.same_values("s", [0.5], [0.5 * (1 + 1e-12)]) == []
    assert checks.same_values("s", [0.5], [0.5 * (1 + 1e-8)])
    files = {"drive_on.csv": b"1,2,0\n"}
    assert checks.identical_files("rerun", files, dict(files)) == []
    assert checks.identical_files("rerun", files, {"drive_on.csv": b"1,2,1\n"})
    assert checks.identical_files("rerun", files, {})


def test_oracle_checks_trip():
    closed = np.linspace(1.0, 2.0, 50)
    assert checks.closed_forms([("stokes", closed * (1 + 1e-12), closed)]) == []
    assert checks.closed_forms([("stokes", closed * (1 + 1e-8), closed)])
    expected = {"Y": 150.0, "X": 50.0}
    assert checks.sde_widths({"Y": [149.0, 152.0], "X": [51.0]}, expected) == []
    assert checks.sde_widths({"Y": [150.0], "X": [53.0]}, expected)
    assert checks.squeezed(1.0, 2.0) == []
    assert checks.squeezed(2.0, 1.0)
    assert checks.parseval(1.0, 1.0) == []
    assert checks.parseval(1.0, 1.0 + 1e-8)


# ------------------------------------- each workload, fed a wrong program result


def test_bias_workload_fails_on_a_wrong_report(monkeypatch):
    monkeypatch.setattr(workloads, "bias_study", lambda *a, **k: good_report(mean_s=0.05))
    out = workloads.run("bias", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems and out.failed == out.items


def test_bias_workload_counts_failed_trials(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "bias_study", lambda *a, **k: good_report(n_failed=3))
    out = workloads.run("bias", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems == [] and out.failed == 3
    args = ["--workload", "bias", "--seed", "1", "--seconds", "0", "--trace", "0"]
    assert workloads.main(args) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 3


def test_synth_workload_fails_on_a_wrong_spectrum(monkeypatch):
    real = workloads.synth_onoff_from_rates

    def louder(*args, **kwargs):
        pair = real(*args, **kwargs)
        return replace(pair, drive_on=replace(pair.drive_on, psd=pair.drive_on.psd * 1.02))

    monkeypatch.setattr(workloads, "synth_onoff_from_rates", louder)
    out = workloads.run("synth", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems and out.failed == out.items


def test_roundtrip_workload_counts_an_exit_code(monkeypatch):
    class FailingSynth:
        @staticmethod
        def main(argv):
            return 4

    monkeypatch.setattr(workloads, "cli", FailingSynth)
    out = workloads.run("roundtrip", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems and out.failed == out.items


def test_roundtrip_workload_fails_on_a_wrong_read(monkeypatch):
    real = workloads.read_pair

    def last_digit_off(out_dir):
        read = real(out_dir)
        on = read["drive_on"]
        return {**read, "drive_on": replace(on, psd=np.nextafter(on.psd, np.inf))}

    monkeypatch.setattr(workloads, "read_pair", last_digit_off)
    out = workloads.run("roundtrip", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems and out.failed == out.items


def test_oracle_workload_fails_on_a_wrong_spectrum(monkeypatch):
    real = workloads.propagate_spectra

    def skewed(*args, **kwargs):
        result = real(*args, **kwargs)
        return replace(result, stokes=result.stokes * (1 + 1e-6))

    monkeypatch.setattr(workloads, "propagate_spectra", skewed)
    out = workloads.run("oracle", seed=1, seconds=0, trace=False, sizes=TINY)
    assert out.problems and out.failed == out.items
