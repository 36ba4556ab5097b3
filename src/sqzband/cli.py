"""Command-line front end.

Subcommands: rates, spectrum, synth, fit, sweep, experiment, bias, rerun.
Exit codes: 0 success, 2 config error, 3 instability, 4 fit-failure
threshold exceeded.  Every command writes a manifest.json from which
`sqzband rerun` reproduces the numeric outputs byte-identically (the
default output directory comes from $SQZBAND_OUT_DIR).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .core import TWO_PI, DerivedRates, derive_all
from .data import SpectrumData
from .errors import ConfigError, FitFailureError, SqzbandError, StabilityError
from .fitter import (
    ExperimentTruth,
    bias_study,
    fit_double_pair,
    fit_single_pair,
    recovery_campaign,
)
from .io import RunManifest, write_csv, write_json
from .lineshape import (
    antistokes_spectrum,
    heterodyne_composite,
    quadrature_spectrum,
    quadrature_variances,
    sideband_areas,
    sideband_components,
    sideband_ratios,
    squeezing_criterion,
    stokes_spectrum,
)
from .svgplot import write_svg
from .synthesizer import make_onoff_pair, synth_onoff_from_rates

_RATE_FIELDS = (
    ("omega_m", "effective resonance"),
    ("gamma_opt", "optical damping"),
    ("gamma_eff", "total damping"),
    ("gamma_par", "parametric rate"),
    ("gamma_plus", "broad width"),
    ("gamma_minus", "narrow width"),
    ("a_minus", "anti-Stokes rate"),
    ("a_plus", "Stokes rate"),
)


def _out_dir(args) -> Path:
    if args.out_dir:
        base = Path(args.out_dir)
    else:
        base = Path(os.environ.get("SQZBAND_OUT_DIR", "sqzband_out"))
    base.mkdir(parents=True, exist_ok=True)
    return base


def _manifest(args, cfg: RunConfig | None, command: str) -> RunManifest:
    argv = list(getattr(args, "_argv", []))
    return RunManifest(
        command=command,
        config_snapshot=cfg.snapshot() if cfg else {},
        root_seed=args.seed,
        tool_version=__version__,
        arguments={"argv": argv},
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )


def _snapshot_ini(cfg: RunConfig, out: Path, manifest: RunManifest) -> Path:
    lines = []
    for section, items in cfg.snapshot().items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in items.items())
        lines.append("")
    path = out / "config_snapshot.ini"
    path.write_text("\n".join(lines))
    manifest.record(path)
    return path


def _truth_from_config(cfg: RunConfig, *, bias: bool = False) -> ExperimentTruth:
    if bias:
        return ExperimentTruth(
            gamma_eff=TWO_PI * cfg.bias.gamma_eff_hz,
            s=0.0,
            n_bar=cfg.bias.n_bar,
            center_hz=cfg.bias.center_hz,
            detection=cfg.bias_detection,
        )
    exp = cfg.experiment
    return ExperimentTruth(
        gamma_eff=TWO_PI * exp.gamma_eff_hz,
        s=exp.s,
        n_bar=exp.n_bar,
        phi=math.radians(exp.phi_deg),
        center_hz=exp.center_hz,
        detection=cfg.detection,
    )


def _rates_payload(rates: DerivedRates) -> dict:
    payload = {name: getattr(rates, name) / TWO_PI for name, _ in _RATE_FIELDS}
    payload = {f"{k}_hz": v for k, v in payload.items()}
    payload.update(
        {
            "s": rates.s,
            "s_folded": rates.s_folded,
            "phi_rad": rates.phi,
            "n_bar": rates.n_bar,
            "n_ba": rates.n_ba,
            "anomalous_re": rates.anomalous.real,
            "anomalous_im": rates.anomalous.imag,
            "stable": True,
        }
    )
    return payload


def cmd_rates(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "rates")
    rates = derive_all(cfg.params, cfg.pump)
    payload = _rates_payload(rates)
    print(f"{'quantity':<22}{'value':>18}")
    for name, label in _RATE_FIELDS:
        print(f"{label:<22}{getattr(rates, name) / TWO_PI:>18.6g}  Hz")
    print(f"{'squeezing s (folded)':<22}{rates.s_folded:>18.6g}")
    print(f"{'occupancy n_bar':<22}{rates.n_bar:>18.6g}")
    manifest.record(write_json(out / "rates.json", payload))
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    return 0


def _model_rates_from_args(args, cfg: RunConfig) -> tuple[DerivedRates, float]:
    """(rates, n_bar) either from explicit model values or from the pump."""
    if args.n_bar is not None or args.s is not None:
        gamma_eff_hz = args.gamma_eff_hz or cfg.experiment.gamma_eff_hz
        s = args.s if args.s is not None else cfg.experiment.s
        n_bar = args.n_bar if args.n_bar is not None else cfg.experiment.n_bar
        rates = DerivedRates.from_effective(
            TWO_PI * gamma_eff_hz,
            s,
            phi=math.radians(args.phi_deg),
            omega_m=TWO_PI * (args.center_hz or cfg.experiment.center_hz),
            n_bar=n_bar,
        )
        return rates, n_bar
    rates = derive_all(cfg.params, cfg.pump)
    return rates, rates.n_bar


def cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "spectrum")
    rates, n_bar = _model_rates_from_args(args, cfg)

    half = args.halfwidth_hz or 8 * rates.gamma_eff / TWO_PI
    offsets_hz = np.linspace(-half, half, args.points)
    grid = TWO_PI * offsets_hz
    stokes = stokes_spectrum(rates, n_bar, grid)
    anti = antistokes_spectrum(rates, n_bar, grid)
    y_quad = quadrature_spectrum(rates, n_bar, -rates.phi / 2, grid)
    x_quad = quadrature_spectrum(rates, n_bar, -rates.phi / 2 + math.pi / 2, grid)

    comps = {
        "stokes": sideband_components(rates, n_bar, stokes=True),
        "antistokes": sideband_components(rates, n_bar, stokes=False),
    }
    area_s, area_a = sideband_areas(rates, n_bar)
    ratios = sideband_ratios(n_bar, rates.s_folded)
    squeezed, margin = squeezing_criterion(n_bar, rates.s_folded)
    sigma_x2, sigma_y2, sigma02 = quadrature_variances(n_bar, rates.s_folded)
    model_info = {
        "n_bar": n_bar,
        "s": rates.s_folded,
        "gamma_eff_hz": rates.gamma_eff / TWO_PI,
        "components": {
            side: [
                {
                    "width_hz": c.width / TWO_PI,
                    "area_weight": c.area_weight,
                }
                for c in pair
            ]
            for side, pair in comps.items()
        },
        "area_stokes": area_s,
        "area_antistokes": area_a,
        "area_difference": area_s - area_a,
        "ratios": {"r0": ratios.r0, "r_plus": ratios.r_plus, "r_minus": ratios.r_minus},
        "squeezed_below_zero_point": squeezed,
        "squeezing_margin": margin,
        "sigma_x2": sigma_x2,
        "sigma_y2": sigma_y2,
        "sigma0_2": sigma02,
    }
    comments = [f"model n_bar={n_bar!r} s={rates.s_folded!r}"]
    manifest.record(
        write_csv(
            out / "sidebands.csv",
            {
                "offset_hz": offsets_hz,
                "stokes_psd": stokes,
                "antistokes_psd": anti,
                "quad_y_psd": y_quad,
                "quad_x_psd": x_quad,
            },
            comments,
        )
    )
    # absolute-frequency two-sideband composite at the detection settings
    center_hz = rates.omega_m / TWO_PI if rates.omega_m > 0 else cfg.experiment.center_hz
    if rates.omega_m <= 0:
        rates = replace(rates, omega_m=TWO_PI * center_hz)
    comp_freq = center_hz + np.linspace(
        -(cfg.detection.delta_lo_hz + half), cfg.detection.delta_lo_hz + half, args.points
    )
    _, comp_psd = heterodyne_composite(
        rates,
        n_bar,
        cfg.detection.delta_lo,
        cfg.detection.resolve_calibration(rates.without_parametric_drive(), n_bar),
        cfg.detection.floor,
        TWO_PI * comp_freq,
    )
    manifest.record(
        write_csv(
            out / "composite.csv",
            {"frequency_hz": comp_freq, "psd": comp_psd},
            comments,
        )
    )
    manifest.record(write_json(out / "model.json", model_info))
    if args.format == "svg":
        manifest.record(
            write_svg(
                out / "sidebands.svg",
                offsets_hz,
                {"stokes": stokes, "antistokes": anti},
                xlabel="offset_hz",
                ylabel="psd",
                log_y=args.log_y,
            )
        )
    print(
        f"sidebands: area diff = {area_s - area_a:.12f}, "
        f"R+ = {ratios.r_plus:.6g}, R- = {ratios.r_minus:.6g}, "
        f"squeezed = {squeezed}"
    )
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "synth")
    if args.level == "physical":
        pair = make_onoff_pair(
            cfg.params, cfg.pump, cfg.detection, cfg.detection.n_avg, args.seed
        )
    else:
        truth = _truth_from_config(cfg)
        rates_on, rates_off = truth.rates_pair()
        pair = synth_onoff_from_rates(
            rates_on,
            rates_off,
            n_bar=truth.n_bar,
            detection=truth.detection,
            seed=args.seed,
            params=cfg.params,
        )
    for name, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off)):
        path = out / f"{name}.csv"
        spectrum.to_csv(path)
        manifest.record(path)
    print(f"wrote drive_on/drive_off spectra ({pair.drive_on.n_bins} bins)")
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args)
    manifest = _manifest(args, None, "fit")
    off = SpectrumData.from_csv(args.off)
    off_result = fit_single_pair(off, ratio_correction=args.ratio_correction)
    manifest.record(write_json(out / "fit_off.json", off_result.to_dict()))
    if not off_result.converged:
        manifest.write(out / "manifest.json")
        raise FitFailureError("drive-off fit did not converge")
    print(
        f"off: gamma_eff = {off_result.params['gamma_eff_hz']:.4g} Hz, "
        f"R0 = {off_result.params['r0']:.5g}, n_bar = {off_result.n_bar_inferred:.4g}"
    )
    if args.on:
        on = SpectrumData.from_csv(args.on)
        on_result = fit_double_pair(
            on,
            TWO_PI * off_result.params["gamma_eff_hz"],
            ratio_correction=args.ratio_correction,
        )
        manifest.record(write_json(out / "fit_on.json", on_result.to_dict()))
        if not on_result.converged:
            manifest.write(out / "manifest.json")
            raise FitFailureError("drive-on fit did not converge")
        print(
            f"on:  s = {on_result.params['s']:.4g}, "
            f"R+ = {on_result.ratios.r_plus:.5g}, R- = {on_result.ratios.r_minus:.5g}"
        )
    manifest.write(out / "manifest.json")
    return 0


def _sweep_rows(cfg: RunConfig, args) -> tuple[list[str], list[dict]]:
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("config has no [sweep] section")
    axis_values = np.linspace(sweep.start, sweep.stop, sweep.n_points)
    rows = []
    held_n_bar = sweep.held.get("n_bar", cfg.experiment.n_bar)

    if sweep.axis == "parametric_gain_s":
        gamma_eff_hz = sweep.held.get("gamma_eff_hz", cfg.experiment.gamma_eff_hz)
        for s in axis_values:
            row = {"s_axis": float(s), "stable": abs(s) < 1}
            if row["stable"]:
                ratios = sideband_ratios(held_n_bar, abs(s))
                sx, sy, _ = quadrature_variances(held_n_bar, abs(s))
                squeezed, margin = squeezing_criterion(held_n_bar, abs(s))
                row.update(
                    s=abs(s),
                    r0=ratios.r0,
                    r_plus=ratios.r_plus,
                    r_minus=ratios.r_minus,
                    sigma_x2=sx,
                    sigma_y2=sy,
                    criterion=squeezed,
                    margin=margin,
                    gamma_eff_hz=gamma_eff_hz,
                )
            rows.append(row)
        return ["s_axis"], rows

    if sweep.axis == "detuning_delta":
        for delta_hz in axis_values:
            params = replace(cfg.params, delta=TWO_PI * float(delta_hz))
            row = {"delta_hz": float(delta_hz)}
            try:
                rates = derive_all(params, cfg.pump)
            except StabilityError as exc:
                row.update(stable=False, error=type(exc).__name__)
                rows.append(row)
                continue
            ratios = sideband_ratios(rates.n_bar, rates.s_folded)
            row.update(
                stable=True,
                s_signed=rates.s,
                s=rates.s_folded,
                r0=ratios.r0,
                r_plus=ratios.r_plus,
                r_minus=ratios.r_minus,
                gamma_eff_hz=rates.gamma_eff / TWO_PI,
                n_bar=rates.n_bar,
            )
            rows.append(row)
        return ["delta_hz"], rows

    # gamma_eff axis: rescale the injected pump power, optional s override table
    rates0 = derive_all(cfg.params, cfg.pump)
    gamma_opt0 = rates0.gamma_opt
    if gamma_opt0 <= 0:
        raise ConfigError("gamma_eff sweep needs a cooling pump (gamma_opt > 0)")
    table = sorted(sweep.s_table)
    for target_hz in axis_values:
        target = TWO_PI * float(target_hz)
        row = {"gamma_eff_target_hz": float(target_hz)}
        if target <= cfg.params.gamma_m:
            row.update(stable=False, error="below_mechanical_width")
            rows.append(row)
            continue
        factor = math.sqrt((target - cfg.params.gamma_m) / gamma_opt0)
        try:
            rates = derive_all(cfg.params, cfg.pump.scaled(factor))
        except StabilityError as exc:
            row.update(stable=False, error=type(exc).__name__)
            rows.append(row)
            continue
        s_used = rates.s_folded
        if table:
            xs = [x for x, _ in table]
            ys = [y for _, y in table]
            s_used = float(np.interp(rates.gamma_eff / TWO_PI, xs, ys))
        ratios = sideband_ratios(rates.n_bar, s_used)
        row.update(
            stable=True,
            gamma_eff_hz=rates.gamma_eff / TWO_PI,
            s=s_used,
            s_derived=rates.s_folded,
            r0=ratios.r0,
            r_plus=ratios.r_plus,
            r_minus=ratios.r_minus,
            n_bar=rates.n_bar,
        )
        rows.append(row)
    return ["gamma_eff_target_hz"], rows


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "sweep")
    axis_cols, rows = _sweep_rows(cfg, args)
    names = list(axis_cols) + ["stable"]
    for row in rows:
        for key in row:
            if key not in names:
                names.append(key)
    columns = {
        name: [row.get(name, math.nan) if name != "error" else row.get(name, "") for row in rows]
        for name in names
    }
    csv_path = write_csv(out / "sweep.csv", columns, [f"axis={cfg.sweep.axis}"])
    manifest.record(csv_path)
    if args.format == "svg":
        plot_cols = {
            k: columns[k]
            for k in ("s", "r0", "r_plus", "r_minus")
            if k in columns
        }
        if plot_cols:
            manifest.record(
                write_svg(
                    out / "sweep.svg",
                    columns[axis_cols[0]],
                    plot_cols,
                    xlabel=axis_cols[0],
                )
            )
    stable_count = sum(1 for row in rows if row.get("stable"))
    print(f"sweep {cfg.sweep.axis}: {stable_count}/{len(rows)} stable points")
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    return 0


def _overlay_columns(truth: ExperimentTruth, seed: int) -> dict:
    """One synthetic drive-on spectrum with its noiseless curve and components."""
    rates_on, rates_off = truth.rates_pair()
    pair = synth_onoff_from_rates(
        rates_on, rates_off, n_bar=truth.n_bar, detection=truth.detection, seed=seed
    )
    data = pair.drive_on
    cal = truth.detection.resolve_calibration(rates_off, truth.n_bar)
    grid = TWO_PI * data.freq_hz
    _, curve = heterodyne_composite(
        rates_on, truth.n_bar, truth.detection.delta_lo, cal, truth.detection.floor, grid
    )
    cols = {
        "freq_hz": data.freq_hz,
        "psd": data.psd,
        "mask": data.mask.astype(int),
        "model_total": curve,
    }
    centers = (
        rates_on.omega_m + truth.detection.delta_lo,
        rates_on.omega_m - truth.detection.delta_lo,
    )
    for label, center, stokes in (
        ("stokes", centers[0], True),
        ("antistokes", centers[1], False),
    ):
        for comp, kind in zip(
            sideband_components(rates_on, truth.n_bar, stokes=stokes, center=center),
            ("narrow", "broad"),
        ):
            cols[f"{label}_{kind}"] = truth.detection.floor + cal * comp.psd(grid)
    return cols


def cmd_experiment(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "experiment")
    truth = _truth_from_config(cfg)
    n_repeats = args.n_repeats or cfg.experiment.n_repeats
    results = recovery_campaign(truth, n_repeats, args.seed, n_jobs=cfg.experiment.n_jobs)
    columns = {
        key: [r[key] for r in results]
        for key in (
            "index",
            "s",
            "s_sigma_fit",
            "gamma_eff_hz",
            "r0",
            "r_plus",
            "r_minus",
            "n_bar",
        )
    }
    manifest.record(write_csv(out / "campaign.csv", columns))
    s_values = np.array(columns["s"])
    gamma_values = np.array(columns["gamma_eff_hz"])
    n_values = np.array([v for v in columns["n_bar"] if not math.isnan(v)])
    s_sigmas = np.array([v for v in columns["s_sigma_fit"] if not math.isnan(v)])
    summary = {
        "truth": {
            "s": truth.s,
            "gamma_eff_hz": truth.gamma_eff / TWO_PI,
            "n_bar": truth.n_bar,
        },
        "n_repeats": n_repeats,
        "n_recovered": len(results),
        "s_mean": float(s_values.mean()),
        "s_std_ensemble": float(s_values.std(ddof=1)),
        "s_sigma_fit_mean": float(s_sigmas.mean()) if s_sigmas.size else math.nan,
        "s_sigma_fit_undefined": len(results) - s_sigmas.size,
        "s_bias": float(s_values.mean() - truth.s),
        "gamma_eff_hz_mean": float(gamma_values.mean()),
        "gamma_eff_hz_std_ensemble": float(gamma_values.std(ddof=1)),
        "n_bar_mean": float(n_values.mean()) if n_values.size else math.nan,
        "sigma_note": (
            "s_sigma_fit_mean is the local-quadratic per-fit error, averaged "
            "over repeats whose s is off the lower bound (s_sigma_fit_undefined "
            "counts the others, NaN in campaign.csv); "
            "*_std_ensemble is the scatter over independent repeats"
        ),
    }
    manifest.record(write_json(out / "summary.json", summary))
    manifest.record(
        write_csv(out / "overlay.csv", _overlay_columns(truth, args.seed))
    )
    print(
        f"recovered s = {summary['s_mean']:.4f} +/- {summary['s_std_ensemble']:.4f} "
        f"(truth {truth.s}), bias {summary['s_bias']:+.4f}"
    )
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    return 0


def cmd_bias(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(args)
    manifest = _manifest(args, cfg, "bias")
    truth = _truth_from_config(cfg, bias=True)
    n_trials = args.n_trials or cfg.bias.n_trials
    report = bias_study(truth, n_trials, args.seed, n_jobs=cfg.bias.n_jobs)
    manifest.record(write_json(out / "bias_report.json", report.to_dict()))
    centers = 0.5 * (report.hist_edges[:-1] + report.hist_edges[1:])
    manifest.record(
        write_csv(
            out / "bias_histogram.csv",
            {"s_bin_center": centers, "count": report.hist_counts},
        )
    )
    print(
        f"bias study: mean_s = {report.mean_s:.4f}, std_s = {report.std_s:.4f}, "
        f"skewness = {report.skewness_s:.3f}, failed = {report.n_failed}"
    )
    _snapshot_ini(cfg, out, manifest)
    manifest.write(out / "manifest.json")
    if not report.valid:
        raise FitFailureError("more than 5% of bias-study trials failed to converge")
    return 0


def cmd_rerun(args) -> int:
    record = RunManifest.load(args.manifest)
    argv = list(record["arguments"]["argv"])
    snapshot = Path(args.manifest).parent / "config_snapshot.ini"
    if snapshot.exists() and "--config" in argv:
        argv[argv.index("--config") + 1] = str(snapshot)
    if args.out_dir:
        if "--out-dir" in argv:
            argv[argv.index("--out-dir") + 1] = args.out_dir
        else:
            argv += ["--out-dir", args.out_dir]
    print(f"re-running: sqzband {' '.join(argv)}")
    return main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzband",
        description="Two-tone optomechanical squeezing: rates, spectra, synthetic "
        "heterodyne data and sideband-asymmetry fits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="INI config file")
        p.add_argument("--seed", type=int, default=1234, help="root seed")
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")

    p = sub.add_parser("rates", help="derived rates and stability flags")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("spectrum", help="model sideband and quadrature curves")
    common(p)
    p.add_argument("--n-bar", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--gamma-eff-hz", type=float, default=None)
    p.add_argument("--phi-deg", type=float, default=0.0)
    p.add_argument("--center-hz", type=float, default=None)
    p.add_argument("--halfwidth-hz", type=float, default=None)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--log-y", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("synth", help="synthetic drive-on/off spectra")
    common(p)
    p.add_argument("--level", choices=("model", "physical"), default="model")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="two-stage fit of spectrum CSVs")
    common(p, config_required=False)
    p.add_argument("--off", required=True, help="drive-off spectrum CSV")
    p.add_argument("--on", default=None, help="drive-on spectrum CSV")
    p.add_argument("--ratio-correction", type=float, default=1.0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="parameter sweep from the [sweep] section")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiment", help="synth + fit recovery campaign")
    common(p)
    p.add_argument("--n-repeats", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bias", help="fitted-s bias study at s = 0 truth")
    common(p)
    p.add_argument("--n-trials", type=int, default=None)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("manifest", help="path to manifest.json")
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StabilityError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except FitFailureError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 4
    except SqzbandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
