"""Command-line front end.

Subcommands: rates, spectrum, synth, fit, sweep, experiment, bias, rerun.
Exit codes: 0 success, 1 data or grid error, 2 config or usage error, 3
instability (also an operating point the closed forms cannot represent in
floating point), 4 fit-failure threshold exceeded.  Every command writes a
manifest.json from which `sqzband rerun` reproduces the numeric outputs
byte-identically (the default output directory comes from $SQZBAND_OUT_DIR).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .core import POSITIVE, TWO_PI, DerivedRates, at_least, check_value, derive_all, in_float_range
from .data import SpectrumData
from .errors import ConfigError, FitFailureError, SqzbandError, StabilityError
from .fitter import ExperimentTruth, bias_study, fit_pair_two_stage, recovery_campaign
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
from .synthesizer import MAX_GRID_BINS, check_grid_step, synth_onoff_from_rates

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


def _record_run(cfg: RunConfig | None, out: Path, manifest: RunManifest) -> None:
    """config_snapshot.ini (for commands with a config), then manifest.json."""
    if cfg:
        lines = []
        for section, items in cfg.snapshot().items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in items.items())
            lines.append("")
        path = out / "config_snapshot.ini"
        path.write_text("\n".join(lines))
        manifest.record(path)
    manifest.write(out / "manifest.json")


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


def cmd_rates(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    rates = derive_all(cfg.params, cfg.pump)
    payload = {f"{name}_hz": getattr(rates, name) / TWO_PI for name, _ in _RATE_FIELDS}
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
    print(f"{'quantity':<22}{'value':>18}")
    for name, label in _RATE_FIELDS:
        print(f"{label:<22}{getattr(rates, name) / TWO_PI:>18.6g}  Hz")
    print(f"{'squeezing s (folded)':<22}{rates.s_folded:>18.6g}")
    print(f"{'occupancy n_bar':<22}{rates.n_bar:>18.6g}")
    manifest.record(write_json(out / "rates.json", payload))


def _model_rates_from_args(args, cfg: RunConfig) -> tuple[DerivedRates, float]:
    """(rates, n_bar) of [experiment] with the model flags given in its place,
    or, when no model flag is given, of the pump."""
    names = ("n_bar", "s", "gamma_eff_hz", "center_hz")
    given = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if not given:
        rates = derive_all(cfg.params, cfg.pump)
        return rates, rates.n_bar
    truth = _truth_from_config(replace(cfg, experiment=replace(cfg.experiment, **given)))
    return truth.rates_pair()[0], truth.n_bar


def cmd_spectrum(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    with in_float_range():
        rates, n_bar = _model_rates_from_args(args, cfg)
        half = 8 * rates.gamma_eff / TWO_PI if args.halfwidth_hz is None else args.halfwidth_hz
        # the composite grid spans both sidebands at the detection settings
        center_hz, span = rates.omega_m / TWO_PI, cfg.detection.delta_lo_hz + half
        step_hz = 2 * span / (args.points - 1)
        check_grid_step("composite center_hz", center_hz, span, step_hz, ConfigError)
        offsets_hz = np.linspace(-half, half, args.points)
        grid = TWO_PI * offsets_hz
        stokes = stokes_spectrum(rates, n_bar, grid)
        anti = antistokes_spectrum(rates, n_bar, grid)
        y_quad = quadrature_spectrum(rates, n_bar, -rates.phi / 2, grid)
        x_quad = quadrature_spectrum(rates, n_bar, -rates.phi / 2 + math.pi / 2, grid)
        comp_freq = center_hz + np.linspace(-span, span, args.points)
        _, comp_psd = heterodyne_composite(
            rates,
            n_bar,
            cfg.detection.delta_lo,
            cfg.detection.resolve_calibration(rates.without_parametric_drive(), n_bar),
            cfg.detection.floor,
            TWO_PI * comp_freq,
        )

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
        "ratios": ratios,
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


def cmd_synth(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    if args.level == "physical":
        rates = derive_all(cfg.params, cfg.pump)  # drive off: only gamma_par drops
        off = rates.without_parametric_drive()
        pair = synth_onoff_from_rates(rates, off, rates.n_bar, cfg.detection, args.seed)
    else:
        pair = _truth_from_config(cfg).synth_pair(args.seed)
    for name, spectrum in (("drive_on", pair.drive_on), ("drive_off", pair.drive_off)):
        path = out / f"{name}.csv"
        spectrum.to_csv(path)
        manifest.record(path)
    fitted = np.count_nonzero(pair.drive_on.included())
    print(f"wrote drive_on/drive_off spectra ({fitted} fitted bins, the two sideband bands)")


def cmd_fit(args, cfg: None, out: Path, manifest: RunManifest) -> None:
    off = SpectrumData.from_csv(args.off)
    on = SpectrumData.from_csv(args.on) if args.on else None
    off_result, on_result = fit_pair_two_stage(off, on, ratio_correction=args.ratio_correction)
    manifest.record(write_json(out / "fit_off.json", off_result))
    if not off_result.converged:
        raise FitFailureError("drive-off fit did not converge")
    print(
        f"off: gamma_eff = {off_result.params['gamma_eff_hz']:.4g} Hz, "
        f"R0 = {off_result.params['r0']:.5g}, n_bar = {off_result.n_bar_inferred:.4g}"
    )
    if on_result is not None:
        manifest.record(write_json(out / "fit_on.json", on_result))
        if not on_result.converged:
            raise FitFailureError("drive-on fit did not converge")
        print(
            f"on:  s = {on_result.params['s']:.4g}, "
            f"R+ = {on_result.ratios.r_plus:.5g}, R- = {on_result.ratios.r_minus:.5g}"
        )


def _gain_axis(cfg: RunConfig):
    """parametric_gain_s: the closed forms at [experiment]'s n_bar; |s| >= 1 is unstable."""
    n_bar, gamma_eff_hz = cfg.experiment.n_bar, cfg.experiment.gamma_eff_hz

    def point(s_axis):
        s = abs(s_axis)
        if not s < 1:
            return {"stable": False}
        sigma_x2, sigma_y2, _ = quadrature_variances(n_bar, s)
        criterion, margin = squeezing_criterion(n_bar, s)
        return {
            "stable": True,
            "s": s,
            **asdict(sideband_ratios(n_bar, s)),
            "sigma_x2": sigma_x2,
            "sigma_y2": sigma_y2,
            "criterion": criterion,
            "margin": margin,
            "gamma_eff_hz": gamma_eff_hz,
        }

    return "s_axis", point


def _detuning_axis(cfg: RunConfig):
    """detuning_delta: the pump-derived rates at each mean detuning."""

    def point(delta_hz):
        rates = derive_all(replace(cfg.params, delta=TWO_PI * delta_hz), cfg.pump)
        return {
            "stable": True,
            "s_signed": rates.s,
            "s": rates.s_folded,
            **asdict(sideband_ratios(rates.n_bar, rates.s_folded)),
            "gamma_eff_hz": rates.gamma_eff / TWO_PI,
            "n_bar": rates.n_bar,
        }

    return "delta_hz", point


def _gamma_eff_axis(cfg: RunConfig):
    """gamma_eff: the injected pump power rescaled to each target width; s is
    the derived one unless s_table gives it at the achieved width."""
    gamma_m = cfg.params.gamma_m
    gamma_opt = derive_all(cfg.params, cfg.pump).gamma_opt
    if gamma_opt <= 0:
        raise ConfigError("gamma_eff sweep needs a cooling pump (gamma_opt > 0)")
    table = tuple(zip(*sorted(cfg.sweep.s_table)))  # (gamma_eff_hz values, s values)

    def point(target_hz):
        target = TWO_PI * target_hz
        if target <= gamma_m:
            return {"stable": False, "error": "below_mechanical_width"}
        rates = derive_all(cfg.params, cfg.pump.scaled(math.sqrt((target - gamma_m) / gamma_opt)))
        gamma_eff_hz = rates.gamma_eff / TWO_PI
        s = float(np.interp(gamma_eff_hz, *table)) if table else rates.s_folded
        return {
            "stable": True,
            "gamma_eff_hz": gamma_eff_hz,
            "s": s,
            "s_derived": rates.s_folded,
            **asdict(sideband_ratios(rates.n_bar, s)),
            "n_bar": rates.n_bar,
        }

    return "gamma_eff_target_hz", point


_SWEEP_AXES = {
    "parametric_gain_s": _gain_axis,
    "detuning_delta": _detuning_axis,
    "gamma_eff": _gamma_eff_axis,
}


def _sweep_rows(cfg: RunConfig) -> list[dict]:
    """One row per axis value: the axis column, then the point's model values,
    or stable=False and the error when the point is unstable."""
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("config has no [sweep] section")
    column, point = _SWEEP_AXES[sweep.axis](cfg)
    rows = []
    for value in np.linspace(sweep.start, sweep.stop, sweep.n_points).tolist():
        row = {column: value}
        try:
            row.update(point(value))
        except StabilityError as exc:
            row.update(stable=False, error=type(exc).__name__)
        rows.append(row)
    return rows


def cmd_sweep(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    rows = _sweep_rows(cfg)
    columns = {
        name: [row.get(name, "" if name == "error" else math.nan) for row in rows]
        for name in dict.fromkeys(key for row in rows for key in row)
    }
    axis = next(iter(columns))
    manifest.record(write_csv(out / "sweep.csv", columns, [f"axis={cfg.sweep.axis}"]))
    plot_cols = {k: columns[k] for k in ("s", "r0", "r_plus", "r_minus") if k in columns}
    if args.format == "svg" and plot_cols:
        manifest.record(write_svg(out / "sweep.svg", columns[axis], plot_cols, xlabel=axis))
    stable_count = sum(1 for row in rows if row["stable"])
    print(f"sweep {cfg.sweep.axis}: {stable_count}/{len(rows)} stable points")


def _overlay_columns(truth: ExperimentTruth, seed: int) -> dict:
    """One synthetic drive-on spectrum with its noiseless curve and components."""
    rates_on, rates_off = truth.rates_pair()
    data = truth.synth_pair(seed).drive_on
    cal = truth.detection.resolve_calibration(rates_off, truth.n_bar)
    grid = TWO_PI * data.freq_hz
    floor = truth.detection.floor
    components, curve = heterodyne_composite(
        rates_on, truth.n_bar, truth.detection.delta_lo, cal, floor, grid
    )
    cols = {
        "freq_hz": data.freq_hz,
        "psd": data.psd,
        "mask": data.mask.astype(int),
        "model_total": curve,
    }
    labels = ("stokes_narrow", "stokes_broad", "antistokes_narrow", "antistokes_broad")
    for label, comp in zip(labels, components):
        cols[label] = floor + cal * comp.psd(grid)
    return cols


def cmd_experiment(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    truth = _truth_from_config(cfg)
    settings = cfg.experiment
    if args.n_repeats is not None:
        settings = replace(settings, n_repeats=args.n_repeats)
    report = recovery_campaign(truth, settings.n_repeats, args.seed, n_jobs=settings.n_jobs)
    rows, summary = report.rows, report.summary
    columns = {key: [row[key] for row in rows] for key in rows[0]}
    manifest.record(write_csv(out / "campaign.csv", columns))
    manifest.record(write_json(out / "summary.json", summary))
    manifest.record(write_csv(out / "overlay.csv", _overlay_columns(truth, args.seed)))
    print(
        f"recovered s = {summary['s_mean']:.4f} +/- {summary['s_std_ensemble']:.4f} "
        f"(truth {truth.s}), bias {summary['s_bias']:+.4f}"
    )


def cmd_bias(args, cfg: RunConfig, out: Path, manifest: RunManifest) -> None:
    truth = _truth_from_config(cfg, bias=True)
    settings = cfg.bias
    if args.n_trials is not None:
        settings = replace(settings, n_trials=args.n_trials)
    report = bias_study(truth, settings.n_trials, args.seed, n_jobs=settings.n_jobs)
    manifest.record(write_json(out / "bias_report.json", report))
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
    if not report.valid:
        raise FitFailureError("more than 5% of bias-study trials failed to converge")


def cmd_rerun(args) -> int:
    try:
        record = RunManifest.load(args.manifest)
        argv, recorded_config = list(record["arguments"]["argv"]), record["config_snapshot"]
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"{args.manifest}: not a readable manifest ({exc!r})") from None
    # argparse keeps the last of a repeated option, in either of its forms
    snapshot = Path(args.manifest).parent / "config_snapshot.ini"
    if recorded_config and snapshot.exists():
        argv += ["--config", str(snapshot)]
    if args.out_dir:
        argv += ["--out-dir", args.out_dir]
    print(f"re-running: sqzband {' '.join(argv)}")
    return main(argv)


def _checked(cast, domain):
    """argparse type: the flag's text cast and checked against a declared domain."""

    def parse(text):
        return check_value("value", cast(text), domain, argparse.ArgumentTypeError)

    parse.__name__ = cast.__name__  # argparse names it in "invalid float value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqzband",
        description="Two-tone optomechanical squeezing: rates, spectra, synthetic "
        "heterodyne data and sideband-asymmetry fits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", required=True, help="INI config file")
        if seeded:
            p.add_argument(
                "--seed", type=_checked(int, at_least(0)), default=1234, help="root seed"
            )
        p.add_argument("--out-dir", default=None, help="output directory")

    p = sub.add_parser("rates", help="derived rates and stability flags")
    common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("spectrum", help="model sideband and quadrature curves")
    common(p)
    p.add_argument("--format", choices=("csv", "svg"), default="csv", help="svg adds a plot")
    p.add_argument("--n-bar", type=float, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--gamma-eff-hz", type=float, default=None)
    p.add_argument("--center-hz", type=float, default=None)
    p.add_argument("--halfwidth-hz", type=_checked(float, POSITIVE), default=None)
    p.add_argument("--points", type=_checked(int, at_least(2)), default=2001)
    p.add_argument("--log-y", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("synth", help="synthetic drive-on/off spectra")
    common(p, seeded=True)
    p.add_argument("--level", choices=("model", "physical"), default="model")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="two-stage fit of spectrum CSVs")
    p.add_argument("--out-dir", default=None, help="output directory")
    p.add_argument("--off", required=True, help="drive-off spectrum CSV")
    p.add_argument("--on", default=None, help="drive-on spectrum CSV")
    p.add_argument("--ratio-correction", type=_checked(float, POSITIVE), default=1.0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sweep", help="parameter sweep from the [sweep] section")
    common(p)
    p.add_argument("--format", choices=("csv", "svg"), default="csv", help="svg adds a plot")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("experiment", help="synth + fit recovery campaign")
    common(p, seeded=True)
    p.add_argument("--n-repeats", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bias", help="fitted-s bias study at s = 0 truth")
    common(p, seeded=True)
    p.add_argument("--n-trials", type=int, default=None)
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("rerun", help="replay a recorded run from its manifest")
    p.add_argument("manifest", help="path to manifest.json")
    p.add_argument("--out-dir", default=None)
    return parser


def _run(args, argv) -> int:
    """The frame of every command but rerun: load the config, run the command
    into the output directory, then record the config snapshot and the manifest,
    also when an error stops the command.  A command that rejects its input
    (ConfigError, exit 2) has not run, and leaves no record."""
    cfg = load_config(args.config) if "config" in vars(args) else None
    out = Path(args.out_dir or os.environ.get("SQZBAND_OUT_DIR", "sqzband_out"))
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=args.command,
        config_snapshot=cfg.snapshot() if cfg else {},
        root_seed=getattr(args, "seed", None),
        tool_version=__version__,
        arguments={"argv": list(argv)},
        started_at=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    )
    try:
        args.func(args, cfg, out, manifest)
    except ConfigError:
        raise
    except SqzbandError:
        _record_run(cfg, out, manifest)
        raise
    _record_run(cfg, out, manifest)
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "spectrum" and args.log_y and args.format != "svg":
        parser.error("--log-y applies to the plot: add --format svg")
    if args.command == "spectrum" and args.points > MAX_GRID_BINS:
        parser.error(f"--points: at most {MAX_GRID_BINS}")
    try:
        return cmd_rerun(args) if args.command == "rerun" else _run(args, argv)
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
