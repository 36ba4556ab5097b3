"""The four benchmark workloads; bench/run.py starts one per fresh process.

    PYTHONPATH=src python3 bench/workloads.py --workload bias --seed 1 --seconds 10 --trace 0

prints an `environment:` line, then one JSON line with `correct`, `attempted`,
`failed` and `metrics`.  Use bench/run.py: it also pins the BLAS thread
count and measures set-up time.

Load is a closed loop from this one process: the next call starts when the
previous one returned.  The only parallelism is bias_study's own process
pool.  Timed intervals enclose only calls into sqzband's public API; the
checks on their outputs run outside them.  With --trace 1 the untraced loop
runs first (failure ratio, untraced walls), then its first items are
replayed serially from public calls under spans (tracing.py), and the
per-layer metrics come from that replay.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
from scipy.optimize import curve_fit

import sqzband
from sqzband import cli, synthesizer
from sqzband.config import load_config
from sqzband.core import TWO_PI, DerivedRates, PumpConfig, SystemParams, derive_all
from sqzband.data import SpectrumData
from sqzband.errors import SqzbandError
from sqzband.fitter import (
    ExperimentTruth,
    bias_study,
    fit_double_pair,
    fit_single_pair,
)
from sqzband.lineshape import antistokes_spectrum, quadrature_spectrum, stokes_spectrum
from sqzband.oracle import (
    NoiseCorrelators,
    propagate_spectra,
    quadrature_series,
    sde_simulate,
    welch_psd,
)
from sqzband.seeding import task_rng, task_seed
from sqzband.synthesizer import (
    lockin_demodulate,
    segment_average,
    synth_onoff_from_rates,
    synth_timeseries,
)

import checks
from run import THREAD_VARS
from tracing import ITEM, NullTracer, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "paper.ini"
OUT_DIR = ROOT / ".bench_out"  # span files
WORK_DIR = ROOT / ".bench_work"  # round-trip scratch, removed after each run
ROUNDTRIP_FILES = ("drive_on.csv", "drive_off.csv")

END_TO_END_UNITS = {"throughput_per_s": "1/s", "peak_rss_mb": "MB"}
# mean self time per replayed item, by span name
LAYER_MS = {
    "lineshape.composite_ms": "lineshape.composite",
    "synthesizer.periodogram_ms": "synthesizer.periodogram",
    "synthesizer.pair_ms": "synthesizer.pair",
    "data.to_csv_ms": "data.to_csv",
    "data.from_csv_ms": "data.from_csv",
    "config.load_ms": "config.load",
    "core.derive_all_ms": "core.derive_all",
    "oracle.propagate_ms": "oracle.propagate",
    "oracle.sde_ms": "oracle.sde",
    "oracle.welch_ms": "oracle.welch",
    "synthesizer.timeseries_ms": "synthesizer.timeseries",
    "synthesizer.lockin_ms": "synthesizer.lockin",
    "synthesizer.segment_average_ms": "synthesizer.segment_average",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_MS},
    "synthesizer.bins_drawn": "count",
    "synthesizer.fitted_bin_ratio": "ratio",
    "fitter.fit_off_ms.p50": "ms",
    "fitter.fit_off_ms.p90": "ms",
    "fitter.fit_on_ms.p50": "ms",
    "fitter.fit_on_ms.p90": "ms",
    "fitter.nfev_off.last_pass": "count",
    "fitter.nfev_on.last_pass": "count",
    "fitter.s_at_lower_bound_ratio": "ratio",
    "fitter.not_converged": "count",
    "fitter.pool_efficiency": "ratio",
    "data.bytes_written": "bytes",
    "data.rows_written": "count",
    "cli.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_ratio": "ratio",
    "fail_ratio": "ratio",
    "bench.machine_slowdown": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Work per timed call.  The smoke test shrinks these."""

    bias_trials: int = 128  # four pool chunks of 32: two per worker
    synth_pairs: int = 10
    synth_replay_batches: int = 2
    roundtrip_replays: int = 3
    oracle_configs: int = 16
    oracle_bins: int = 200_000
    oracle_replays: int = 2


# On the shared 2-core VM this benchmark was tuned on, the speed of fixed work
# drifts by +-20 % over tens of seconds, in process CPU time as much as in
# wall time.  A fixed reference computation timed right after each call
# tracks that drift; rates are scaled to the reference's nominal time there.
REFERENCE_NOMINAL_S = 0.0135
REFERENCE_SHARE = 0.1  # reference time per timed call, as a share of the call


def reference() -> float:
    """Wall time of fixed work that does not touch sqzband: a Python loop and
    numpy FFTs and sorts, the two kinds of work the workloads do."""
    started = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    x = np.random.default_rng(0).standard_normal(1 << 16)
    for _ in range(4):
        np.sort(np.fft.rfft(x).real)
    return time.perf_counter() - started


def machine_slowdown(call_s: float) -> float:
    """Mean reference time over about REFERENCE_SHARE of the call, relative
    to nominal: above 1 while the machine runs slow."""
    n = max(3, math.ceil(REFERENCE_SHARE * call_s / REFERENCE_NOMINAL_S))
    return sum(reference() for _ in range(n)) / n / REFERENCE_NOMINAL_S


@dataclass
class Outcome:
    items: int = 0
    failed: int = 0
    rates: list = field(default_factory=list)  # per timed call, at nominal machine speed
    slowdowns: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    problems: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def add(self, items: int, failed: int, problems=()) -> None:
        self.items += items
        self.failed += failed
        self.problems.extend(problems)

    def loop(self, seconds: float, step) -> list[float]:
        """Call step(k) for k = 0, 1, ... until the timed walls it returns sum
        to `seconds`; step records its items with add().  Each call's items
        completed per second are scaled by the slowdown measured after it."""
        walls: list[float] = []
        while not walls or sum(walls) < seconds:
            done = self.items - self.failed
            walls.append(step(len(walls)))
            self.slowdowns.append(machine_slowdown(walls[-1]))
            self.rates.append((self.items - self.failed - done) / walls[-1] * self.slowdowns[-1])
        if self.failed == self.items:
            self.problems.append("no item completed")
        return walls

    def check(self, problems) -> None:
        """A run-level check on the outputs: a problem fails every item."""
        if problems:
            self.problems.extend(problems)
            self.failed = self.items


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def peak_rss_mb(n_workers: int = 0) -> float:
    """High-water RSS of this process plus n_workers times the largest
    finished child's (the pool workers, each counted at that peak)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + n_workers * child) / 1024.0


# ---------------------------------------------------------------- tracing


@contextlib.contextmanager
def traced_internals(tracer: Tracer):
    """Spans around public calls that other sqzband functions make."""

    def periodogram(spectrum: SpectrumData) -> None:
        tracer.note("synthesizer.bins_drawn", spectrum.n_bins)
        tracer.note("synthesizer.bins_fitted", int(spectrum.included().sum()))

    with (
        patched(tracer, synthesizer, "heterodyne_composite", "lineshape.composite"),
        patched(
            tracer, synthesizer, "synth_periodogram", "synthesizer.periodogram", periodogram
        ),
        patched(tracer, synthesizer, "sde_simulate", "oracle.sde"),
    ):
        yield


def note_fits(tracer: Tracer, off, on) -> None:
    tracer.note("fitter.nfev_off", off.n_iter)  # FitResult.n_iter: last IRLS pass only
    tracer.note("fitter.nfev_on", on.n_iter)
    tracer.note("fitter.not_converged", (not off.converged) + (not on.converged))
    tracer.note("fitter.s_at_lower_bound", "s_at_lower_bound" in on.flags)


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ms_quantile(values, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_items: int, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric; layers the workload does not run read 0."""
    selfs = tracer.self_times()
    samples = tracer.samples
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, span in LAYER_MS.items():
        out[metric] = selfs.get(span, 0.0) * 1e3 / n_items
    for fit in ("off", "on"):
        durations = tracer.durations(f"fitter.fit_{fit}")
        out[f"fitter.fit_{fit}_ms.p50"] = _ms_quantile(durations, 50)
        out[f"fitter.fit_{fit}_ms.p90"] = _ms_quantile(durations, 90)
        out[f"fitter.nfev_{fit}.last_pass"] = _mean(samples.get(f"fitter.nfev_{fit}", []))
    out["fitter.not_converged"] = float(sum(samples.get("fitter.not_converged", [])))
    out["fitter.s_at_lower_bound_ratio"] = _mean(samples.get("fitter.s_at_lower_bound", []))
    drawn = samples.get("synthesizer.bins_drawn", [])
    out["synthesizer.bins_drawn"] = _mean(drawn)
    if drawn:
        out["synthesizer.fitted_bin_ratio"] = sum(samples["synthesizer.bins_fitted"]) / sum(drawn)
    out["data.bytes_written"] = sum(samples.get("data.bytes_written", [])) / n_items
    out["data.rows_written"] = sum(samples.get("data.rows_written", [])) / n_items
    out["trace.overhead_ratio"] = traced_s / untraced_s
    layer_s = sum(t for name, t in selfs.items() if name != ITEM)
    out["trace.coverage_ratio"] = layer_s / traced_s
    return out


# -------------------------------------------------------------------- bias


def bias_truth(cfg) -> ExperimentTruth:
    """Criterion-6 settings, from the [bias] section as `sqzband bias` reads it."""
    return ExperimentTruth(
        gamma_eff=TWO_PI * cfg.bias.gamma_eff_hz,
        s=0.0,
        n_bar=cfg.bias.n_bar,
        center_hz=cfg.bias.center_hz,
        detection=cfg.bias_detection,
    )


def experiment_truth(cfg) -> ExperimentTruth:
    """[experiment] truth on [detection], as `sqzband synth`/`experiment` read it."""
    exp = cfg.experiment
    return ExperimentTruth(
        gamma_eff=TWO_PI * exp.gamma_eff_hz,
        s=exp.s,
        n_bar=exp.n_bar,
        phi=math.radians(exp.phi_deg),
        center_hz=exp.center_hz,
        detection=cfg.detection,
    )


def replay_trial(tracer: Tracer, truth: ExperimentTruth, seed: int):
    """One bias trial from public calls, with the centre hint
    fit_pair_two_stage passes; (off, on), or None where the program's trial
    would drop it."""
    rates_on, rates_off = truth.rates_pair()
    pair = tracer.call(
        "synthesizer.pair",
        synth_onoff_from_rates,
        rates_on,
        rates_off,
        n_bar=truth.n_bar,
        detection=truth.detection,
        seed=seed,
    )
    try:
        off = tracer.call("fitter.fit_off", fit_single_pair, pair.drive_off)
        hint = {k: off.params[k] for k in ("center_1_hz", "center_2_hz")}
        on = tracer.call(
            "fitter.fit_on",
            fit_double_pair,
            pair.drive_on,
            off.params["gamma_eff_hz"] * TWO_PI,
            init_hint=hint,
        )
    except (np.linalg.LinAlgError, ValueError):
        return None
    note_fits(tracer, off, on)
    if not (off.converged and on.converged):
        return None
    return off, on


def replay_trials(truth: ExperimentTruth, seeds: list[int]):
    """Serial traced replay of one trial per seed."""
    tracer = Tracer()
    results = []
    with traced_internals(tracer):
        started = time.perf_counter()
        for i, trial_seed in enumerate(seeds):
            with tracer.item(i):
                results.append(replay_trial(tracer, truth, trial_seed))
        traced_s = time.perf_counter() - started
    return tracer, results, traced_s


def bias_moments(values) -> list[float]:
    """mean, std and skewness of fitted s, as bias_study computes them."""
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    centered = values - mean
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    return [mean, float(values.std(ddof=1)), m3 / m2**1.5 if m2 > 0 else 0.0]


def report_moments(report) -> list[float]:
    return [report.mean_s, report.std_s, report.skewness_s]


def run_bias(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    cfg = load_config(CONFIG)
    truth, n_jobs, n = bias_truth(cfg), cfg.bias.n_jobs, sizes.bias_trials
    out = Outcome()
    reports = []

    def step(k: int) -> float:
        report, wall = timed(bias_study, truth, n, task_seed(seed, k), n_jobs=n_jobs)
        problems = checks.bias_report(report)
        out.add(n, n if problems else report.n_failed, problems)
        reports.append(report)
        return wall

    walls = out.loop(seconds, step)
    out.peak_rss_mb = peak_rss_mb(n_workers=n_jobs)
    if trace:
        root = task_seed(seed, 0)
        serial, serial_s = timed(bias_study, truth, n, root, n_jobs=1)
        first = report_moments(reports[0])
        out.check(checks.same_values("bias: n_jobs=1 vs 2 moments", report_moments(serial), first))
        tracer, results, traced_s = replay_trials(truth, [task_seed(root, i) for i in range(n)])
        values = [r[1].params["s"] for r in results if r]
        out.check(checks.same_values("bias: traced replay moments", bias_moments(values), first))
        out.layers = layer_metrics(tracer, n, traced_s, serial_s)
        out.tracer = tracer
        trial_s = sum(tracer.durations(ITEM))
        out.layers["fitter.pool_efficiency"] = trial_s / (n_jobs * walls[0])
    return out


def synth_pair(truth: ExperimentTruth, seed: int, params=None):
    """The drive-on/off pair a campaign repeat or `sqzband synth` draws."""
    rates_on, rates_off = truth.rates_pair()
    return synth_onoff_from_rates(
        rates_on, rates_off, n_bar=truth.n_bar, detection=truth.detection, seed=seed, params=params
    )


def expected_psd(truth: ExperimentTruth, freq_hz: np.ndarray) -> dict:
    """Mean PSD of each member, from the closed-form sideband spectra:
    floor + calibration * [S_stokes(w - W_m - D_lo) + S_anti(w - W_m + D_lo)]."""
    det = truth.detection
    rates_on, rates_off = truth.rates_pair()
    cal = det.resolve_calibration(rates_off, truth.n_bar)
    omega = TWO_PI * freq_hz
    return {
        label: det.floor
        + cal
        * (
            stokes_spectrum(rates, truth.n_bar, omega - rates.omega_m - det.delta_lo)
            + antistokes_spectrum(rates, truth.n_bar, omega - rates.omega_m + det.delta_lo)
        )
        for label, rates in (("on", rates_on), ("off", rates_off))
    }


def check_pair(pair, expected: dict) -> list[str]:
    problems = []
    for label, spectrum in (("on", pair.drive_on), ("off", pair.drive_off)):
        problems += checks.periodogram_noise(
            f"synth: drive-{label}", spectrum.psd, expected[label], spectrum.n_avg
        )
    return problems


def replay_pairs(truth: ExperimentTruth, seeds: list[int]):
    """Serial traced replay of one pair per seed."""
    tracer = Tracer()
    with traced_internals(tracer):
        started = time.perf_counter()
        pairs = []
        for i, pair_seed in enumerate(seeds):
            with tracer.item(i):
                pairs.append(tracer.call("synthesizer.pair", synth_pair, truth, pair_seed))
        traced_s = time.perf_counter() - started
    return tracer, pairs, traced_s


def run_synth(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    truth = experiment_truth(load_config(CONFIG))
    n = sizes.synth_pairs
    out = Outcome()
    expected = None
    first = []  # the run's first two pairs

    def step(k: int) -> float:
        nonlocal expected
        root = task_seed(seed, k)
        pairs, wall = timed(lambda: [synth_pair(truth, task_seed(root, i)) for i in range(n)])
        if expected is None:
            expected = expected_psd(truth, pairs[0].drive_on.freq_hz)
            first.extend(pairs[:2])
        problems = [p for pair in pairs for p in check_pair(pair, expected)]
        out.add(n, n if problems else 0, problems)
        return wall

    walls = out.loop(seconds, step)
    out.peak_rss_mb = peak_rss_mb()
    again = synth_pair(truth, task_seed(task_seed(seed, 0), 0))
    out.check(checks.same_arrays("synth: same seed again", spectra_of(again), spectra_of(first[0])))
    if len(first) > 1 and np.array_equal(first[0].drive_on.psd, first[1].drive_on.psd):
        out.check(["synth: two seeds drew the same drive-on spectrum"])
    if trace:
        replayed_batches = min(sizes.synth_replay_batches, len(walls))
        roots = [task_seed(seed, k) for k in range(replayed_batches)]
        seeds = [task_seed(root, i) for root in roots for i in range(n)]
        tracer, pairs, traced_s = replay_pairs(truth, seeds)
        replayed = synth_pair(truth, seeds[0])
        out.check(checks.same_arrays("synth: traced replay", spectra_of(pairs[0]), spectra_of(replayed)))
        out.layers = layer_metrics(tracer, len(pairs), traced_s, sum(walls[:replayed_batches]))
        out.tracer = tracer
    return out


def spectra_of(pair) -> dict:
    """Every array of a pair, by name, for equality checks."""
    return {
        f"{label}.{field_name}": getattr(spectrum, field_name)
        for label, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off))
        for field_name in ("freq_hz", "psd", "mask")
    }

# --------------------------------------------------------------- roundtrip


def read_pair(out_dir: Path) -> dict:
    """Both spectra read back the way `sqzband fit` reads them."""
    return {name: SpectrumData.from_csv(out_dir / f"{name}.csv") for name in ("drive_on", "drive_off")}


def cli_roundtrip(seed: int, out_dir: Path) -> tuple:
    """`sqzband synth` in-process, then its two CSVs read back: (exit code, spectra)."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(
            ["synth", "--config", str(CONFIG), "--seed", str(seed), "--out-dir", str(out_dir)]
        )
    return code, (read_pair(out_dir) if code == 0 else None)


def replay_roundtrip(tracer: Tracer, seed: int, out_dir: Path) -> None:
    """cmd_synth then the read-back, step by step from public calls (no manifest)."""
    out_dir.mkdir(parents=True)
    cfg = tracer.call("config.load", load_config, CONFIG)
    pair = tracer.call("synthesizer.pair", synth_pair, experiment_truth(cfg), seed, cfg.params)
    for name, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off)):
        path = out_dir / f"{name}.csv"
        tracer.call("data.to_csv", spectrum.to_csv, path)
        tracer.note("data.bytes_written", path.stat().st_size)
        tracer.note("data.rows_written", spectrum.n_bins)
    for name in ("drive_on", "drive_off"):
        tracer.call("data.from_csv", SpectrumData.from_csv, out_dir / f"{name}.csv")


def read_back_problems(read: dict, pair) -> list[str]:
    """What was read back equals the in-memory pair of the same seed."""
    problems = []
    for name, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off)):
        got = read[name]
        problems += checks.same_arrays(
            f"roundtrip: {name}.csv read back",
            {f: getattr(got, f) for f in ("freq_hz", "psd", "mask")},
            {f: getattr(spectrum, f) for f in ("freq_hz", "psd", "mask")},
        )
        if (got.n_avg, got.meta) != (spectrum.n_avg, spectrum.meta):
            problems.append(f"roundtrip: {name}.csv n_avg or meta differs from the pair's")
    return problems


def read_files(directory: Path, names) -> dict:
    return {name: (directory / name).read_bytes() for name in names if (directory / name).exists()}


def run_roundtrip(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    cfg = load_config(CONFIG)
    truth = experiment_truth(cfg)
    data_files = ROUNDTRIP_FILES + ("config_snapshot.ini",)
    out = Outcome()
    work = WORK_DIR / f"roundtrip-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    kept = sizes.roundtrip_replays if trace else 0
    completed = []  # round trips that exited 0, in order

    def step(k: int) -> float:
        item_seed, item_dir = task_seed(seed, k), work / f"cli-{k}"
        (code, read), wall = timed(cli_roundtrip, item_seed, item_dir)
        if code != 0:
            out.add(1, 1, [f"roundtrip: sqzband synth exited {code}"])
            shutil.rmtree(item_dir, ignore_errors=True)
            return wall
        problems = read_back_problems(read, synth_pair(truth, item_seed, cfg.params))
        if not completed:
            again = work / "again"
            cli_roundtrip(item_seed, again)
            problems += checks.identical_files(
                "roundtrip: rerun with the same seed",
                read_files(again, data_files),
                read_files(item_dir, data_files),
            )
            shutil.rmtree(again)
        out.add(1, 1 if problems else 0, problems)
        completed.append(k)
        if len(completed) > kept:
            shutil.rmtree(item_dir)
        return wall

    try:
        walls = out.loop(seconds, step)
        out.peak_rss_mb = peak_rss_mb()
        if trace:
            replayed = completed[:kept]
            n = len(replayed)
            tracer = Tracer()
            with traced_internals(tracer):
                started = time.perf_counter()
                for k in replayed:
                    with tracer.item(k):
                        replay_roundtrip(tracer, task_seed(seed, k), work / f"replay-{k}")
                traced_s = time.perf_counter() - started
            for k in replayed:
                out.check(
                    checks.identical_files(
                        f"roundtrip: replay {k} vs CLI",
                        read_files(work / f"replay-{k}", ROUNDTRIP_FILES),
                        read_files(work / f"cli-{k}", ROUNDTRIP_FILES),
                    )
                )
            untraced_s = sum(walls[k] for k in replayed)
            out.layers = layer_metrics(tracer, n, traced_s, untraced_s)
            out.tracer = tracer
            layer_s = sum(t for name, t in tracer.self_times().items() if name != ITEM)
            out.layers["cli.overhead_ms"] = (untraced_s - layer_s) * 1e3 / n
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    return out

# ------------------------------------------------------------------ oracle

# criterion-9 settings
SDE = {"gamma_eff_hz": 100.0, "s": 0.5, "phi": 0.8, "n_bar": 1.0, "fs": 32768.0, "duration": 96.0}
SDE_WIDTHS_HZ = {
    "Y": SDE["gamma_eff_hz"] * (1 + SDE["s"]),
    "X": SDE["gamma_eff_hz"] * (1 - SDE["s"]),
}
# time-domain route: envelope on a heterodyne carrier, lock-in, segment average
HET = {"gamma_eff_hz": 8.0, "s": 0.5, "phi": 0.6, "n_bar": 2.0, "delta_lo_hz": 64.0,
       "fs": 2048.0, "duration": 128.0, "floor": 0.01, "cutoff_hz": 128.0, "segment_s": 1.0}


def sample_system(rng) -> tuple[SystemParams, PumpConfig]:
    """One random physical configuration (may be unstable)."""
    kappa_hz = 10 ** rng.uniform(5.3, 6.7)
    params = SystemParams.from_hz(
        kappa_hz=kappa_hz,
        kappa_in_hz=kappa_hz * rng.uniform(0.3, 1.0),
        g0_hz=rng.uniform(5.0, 60.0),
        omega_m_hz=10 ** rng.uniform(5.0, 6.0),
        gamma_m_hz=10 ** rng.uniform(-1.5, 0.5),
        delta_hz=rng.uniform(-0.4, 0.4) * kappa_hz,
        n_th=10 ** rng.uniform(2.0, 5.5),
    )
    scale = 10 ** rng.uniform(4.5, 6.2)
    pump = PumpConfig(
        alpha_in_minus=scale * rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, TWO_PI)),
        alpha_in_plus=scale * rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI)),
    )
    return params, pump


def stable_configs(tracer: Tracer, rng, count: int, max_draws: int = 10_000) -> list:
    """`count` (params, rates) from rejection sampling of the stable domain."""
    found = []
    for _ in range(max_draws):
        params, pump = sample_system(rng)
        try:
            rates = tracer.call("core.derive_all", derive_all, params, pump)
        except SqzbandError:
            continue
        if rates.gamma_eff > 10 * params.gamma_m and abs(rates.s) < 0.9:
            found.append((params, rates))
            if len(found) == count:
                return found
    raise RuntimeError(f"no {count} stable configurations in {max_draws} draws")


def oracle_case(tracer: Tracer, seed: int, sizes: Sizes) -> dict:
    """One validation case from public calls only; returns what the checks need."""
    params, rates = stable_configs(tracer, task_rng(seed, 0), sizes.oracle_configs)[-1]
    grid = np.linspace(-27.3, 31.1, sizes.oracle_bins) * rates.gamma_eff
    thetas = (-rates.phi / 2, -rates.phi / 2 + math.pi / 2)
    propagated = tracer.call(
        "oracle.propagate",
        propagate_spectra,
        rates,
        NoiseCorrelators.from_params(params, rates),
        grid,
        thetas=thetas,
    )

    sde_rates = DerivedRates.from_effective(TWO_PI * SDE["gamma_eff_hz"], SDE["s"], phi=SDE["phi"])
    envelope = tracer.call(
        "oracle.sde", sde_simulate, sde_rates, SDE["n_bar"], SDE["duration"], 1 / SDE["fs"],
        seed=task_seed(seed, 1),
    )
    welch = {
        label: tracer.call(
            "oracle.welch",
            welch_psd,
            quadrature_series(envelope, theta),
            segment_length=int(4 * SDE["fs"]),
            dt=envelope.dt,
        )
        for label, theta in (("Y", -SDE["phi"] / 2), ("X", -SDE["phi"] / 2 + math.pi / 2))
    }

    het_rates = DerivedRates.from_effective(
        TWO_PI * HET["gamma_eff_hz"], HET["s"], phi=HET["phi"], n_bar=HET["n_bar"]
    )
    record = tracer.call(
        "synthesizer.timeseries", synth_timeseries, het_rates, HET["n_bar"],
        TWO_PI * HET["delta_lo_hz"], fs=HET["fs"], duration=HET["duration"],
        seed=task_seed(seed, 2), floor=HET["floor"],
    )
    carrier = HET["fs"] / 4
    lockin = {
        label: tracer.call(
            "synthesizer.lockin", lockin_demodulate, record, carrier, theta, HET["cutoff_hz"]
        )
        for label, theta in (("Y", -HET["phi"] / 2), ("X", -HET["phi"] / 2 + math.pi / 2))
    }
    averaged = tracer.call(
        "synthesizer.segment_average", segment_average, lockin["Y"], HET["segment_s"], dt=record.dt
    )
    return {
        "rates": rates,
        "grid": grid,
        "thetas": thetas,
        "propagated": propagated,
        "welch": welch,
        "lockin": lockin,
        "averaged": averaged,
    }


def fitted_width(spectrum: SpectrumData) -> float:
    """Lorentzian FWHM below 8 Gamma_eff, weighted by the PSD (criterion 9)."""
    sel = spectrum.freq_hz < 8 * SDE["gamma_eff_hz"]

    def shape(f, amp, fwhm):
        return amp / (f * f + fwhm * fwhm / 4)

    popt, _ = curve_fit(
        shape,
        spectrum.freq_hz[sel],
        spectrum.psd[sel],
        p0=[1.0, SDE["gamma_eff_hz"]],
        sigma=np.maximum(spectrum.psd[sel], 1e-12),
    )
    return abs(float(popt[1]))


def check_oracle_case(case: dict, widths: dict) -> list[str]:
    """Per-case checks; fitted SDE widths are collected for the run-level check."""
    rates, grid, (th_y, th_x) = case["rates"], case["grid"], case["thetas"]
    out = case["propagated"]
    n_bar = rates.n_bar
    problems = checks.closed_forms(
        [
            ("stokes", out.stokes, stokes_spectrum(rates, n_bar, grid)),
            ("antistokes", out.antistokes, antistokes_spectrum(rates, n_bar, grid)),
            ("Y quadrature", out.quadratures[th_y], quadrature_spectrum(rates, n_bar, th_y, grid)),
            ("X quadrature", out.quadratures[th_x], quadrature_spectrum(rates, n_bar, th_x, grid)),
        ]
    )
    for label, spectrum in case["welch"].items():
        widths[label].append(fitted_width(spectrum))
    problems += checks.squeezed(float(case["lockin"]["Y"].var()), float(case["lockin"]["X"].var()))
    averaged, y = case["averaged"], case["lockin"]["Y"]
    used = y[: averaged.n_avg * int(round(HET["segment_s"] * HET["fs"]))]
    problems += checks.parseval(
        float(averaged.psd.sum() * averaged.resolution_hz), float(np.mean(used * used))
    )
    return problems


def run_oracle(seed: int, seconds: float, trace: bool, sizes: Sizes) -> Outcome:
    out = Outcome()
    widths = {label: [] for label in SDE_WIDTHS_HZ}
    untraced = NullTracer()

    def step(k: int) -> float:
        case, wall = timed(oracle_case, untraced, task_seed(seed, k), sizes)
        problems = check_oracle_case(case, widths)
        out.add(1, 1 if problems else 0, problems)
        return wall

    walls = out.loop(seconds, step)
    out.peak_rss_mb = peak_rss_mb()
    out.check(checks.sde_widths(widths, SDE_WIDTHS_HZ))
    if trace:
        n = min(sizes.oracle_replays, len(walls))
        tracer = Tracer()
        with traced_internals(tracer):
            started = time.perf_counter()
            for k in range(n):
                with tracer.item(k):
                    oracle_case(tracer, task_seed(seed, k), sizes)
            traced_s = time.perf_counter() - started
        out.layers = layer_metrics(tracer, n, traced_s, sum(walls[:n]))
        out.tracer = tracer
    return out


RUNNERS = {
    "bias": run_bias,
    "synth": run_synth,
    "roundtrip": run_roundtrip,
    "oracle": run_oracle,
}
WORKLOADS = tuple(RUNNERS)


# -------------------------------------------------------------------- main


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metrics_of(out: Outcome, trace: bool) -> dict:
    if trace:
        values = dict(out.layers)
        values["fail_ratio"] = out.failed / out.items
        values["bench.machine_slowdown"] = statistics.median(out.slowdowns)
        units = PER_LAYER_UNITS
    else:
        values = {
            "throughput_per_s": statistics.median(out.rates),
            "peak_rss_mb": out.peak_rss_mb,
        }
        units = END_TO_END_UNITS
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    return RUNNERS[workload](seed, seconds, trace, sizes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(sqzband.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sqzband imported from {sqzband.__file__}, not this checkout", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in out.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if out.failed:
        print(f"{out.failed} of {out.items} items failed", file=sys.stderr)
    if out.tracer is not None:
        header = {"environment": env, "workload": args.workload, "seed": args.seed}
        out.tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", header)
    print(
        json.dumps(
            {
                "correct": not out.problems,
                "attempted": out.items,
                "failed": out.failed,
                "metrics": metrics_of(out, bool(args.trace)),
            }
        )
    )
    return 0 if not out.problems and not out.failed else 1


if __name__ == "__main__":
    sys.exit(main())
