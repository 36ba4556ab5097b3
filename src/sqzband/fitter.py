"""Weighted nonlinear least-squares fits of heterodyne sideband spectra.

Two-stage protocol: the drive-off spectrum is fitted with one pair of
Lorentzians sharing a single width (-> Gamma_eff, R0, n_bar); the drive-on
spectrum with two pairs whose widths are tied to Gamma_eff (1 -/+ s) with
Gamma_eff frozen at the off-fit value and s the only extra shape parameter
(-> s, R+, R-).  Weights follow the averaged-periodogram noise law
sigma_bin = PSD_model / sqrt(n_avg), refreshed from the current model.

Both models are linear in the floor and the areas, so the fits are separable
(variable projection; Golub & Pereyra, Inverse Problems 19 (2003) R1): LM
runs over the two centres and the width (drive off) or q (drive on), the
floor and areas are solved by weighted linear least squares at each step,
and the Jacobian is Kaufman's (BIT 15 (1975) 49).  The full Jacobian is
built once, at the solution, for the reported uncertainties.

s enters the optimizer through a logistic transform onto (0, 0.999): the
spectra depend only on |s| and the transform keeps the fit smooth at the
s = 0 boundary, which is what folds the no-drive fitted-s distribution to
small positive values.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import least_squares
from scipy.special import expit, logit

from .core import TWO_PI, DerivedRates
from .data import OnOffPair, SpectrumData
from .errors import FitFailureError, GridError
from .lineshape import Ratios
from .seeding import task_seed
from .synthesizer import DetectionConfig, synth_onoff_from_rates

S_MAX = 0.999
_GTOL = 1e-10
# cost plateaus long before 1e-12 when s is pinned at its lower bound; 1e-9
# stops the boundary walk ~3x earlier at < 2e-4 shift in the estimates
_FTOL = 1e-9
_MAX_NFEV = 500
_WEIGHT_REFRESH = 1
_LM_OPTIONS = dict(
    method="lm", gtol=_GTOL, xtol=1e-12, ftol=_FTOL, max_nfev=_MAX_NFEV, x_scale="jac"
)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted parameters (Hz at the data boundary), uncertainties, ratios.

    ``n_iter`` counts the evaluations of the reduced (projected) problem in
    the last reweighting pass.  ``sigmas["s"]`` of a drive-on fit is NaN when
    the ``s_at_lower_bound`` flag is set: the model is even in s, so the
    linearised uncertainty is undefined at s -> 0.
    """

    params: dict
    sigmas: dict
    chi2_reduced: float
    ratios: Ratios | None
    n_bar_inferred: float | None
    converged: bool
    n_iter: int
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "params": dict(self.params),
            "sigmas": dict(self.sigmas),
            "chi2_reduced": self.chi2_reduced,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "flags": list(self.flags),
            "n_bar_inferred": self.n_bar_inferred,
        }
        if self.ratios is not None:
            out["ratios"] = {
                "r0": self.ratios.r0,
                "r_plus": self.ratios.r_plus,
                "r_minus": self.ratios.r_minus,
            }
        return out


@dataclass(frozen=True)
class ExperimentTruth:
    """Model-level truth for synthetic campaigns (rates in rad/s)."""

    gamma_eff: float
    s: float
    n_bar: float
    phi: float = 0.0
    center_hz: float = 530e3
    detection: DetectionConfig = field(default_factory=DetectionConfig)

    def rates_pair(self) -> tuple[DerivedRates, DerivedRates]:
        on = DerivedRates.from_effective(
            self.gamma_eff,
            self.s,
            phi=self.phi,
            omega_m=TWO_PI * self.center_hz,
            n_bar=self.n_bar,
        )
        return on, on.without_parametric_drive()


@dataclass(frozen=True)
class BiasStudyReport:
    """Moments and histogram of fitted s over a no-drive ensemble."""

    n_trials: int
    n_failed: int
    mean_s: float
    std_s: float
    skewness_s: float
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    valid: bool

    def to_dict(self) -> dict:
        return {
            "n_trials": self.n_trials,
            "n_failed": self.n_failed,
            "mean_s": self.mean_s,
            "std_s": self.std_s,
            "skewness_s": self.skewness_s,
            "valid": self.valid,
            "hist_edges": list(map(float, self.hist_edges)),
            "hist_counts": list(map(int, self.hist_counts)),
        }


def _lorentz(d2, gamma_hz):
    """Unit-area Lorentzian in per-Hz density form, at squared offsets d2."""
    return (gamma_hz / TWO_PI) / (d2 + gamma_hz * gamma_hz / 4)


class _Basis(NamedTuple):
    """Unweighted columns at one theta, one per row: the model is floor +
    areas @ lines, unit-area Lorentzians on centre theta[0] (first half) and
    theta[1]; the linear solve uses ``solve``, which spans the same space."""

    d: np.ndarray  # (2, n): f - centre
    lines: np.ndarray  # (m, n)
    widths: np.ndarray  # (m,)
    d_widths: np.ndarray  # (m,): d(width)/d(theta[2])
    solve: np.ndarray  # (m, n)


class _PairModel:
    """Drive-off: floor + L(c1, |g|) + L(c2, |g|), theta = (c1, c2, g).

    The model is even in g, so a negative-width mirror of a solution is the
    same solution; the reported width is |g|.
    """

    names = ("floor", "center_1_hz", "center_2_hz", "gamma_eff_hz", "area_1", "area_2")

    @staticmethod
    def basis(f, theta) -> _Basis:
        c1, c2, g = theta
        d = f - np.array([[c1], [c2]])
        lines = _lorentz(d * d, abs(g))
        return _Basis(d, lines, np.full(2, abs(g)), np.full(2, math.copysign(1.0, g)), lines)

    @staticmethod
    def areas(coef):
        return coef


class _TwoPairModel:
    """Drive-on: floor + a pair of Lorentzians of widths Gamma_eff (1 -/+ s) at
    each centre, theta = (c1, c2, q) with s = S_MAX expit(q); Gamma_eff frozen.

    As s -> 0 the narrow and broad lines of a pair coincide, so the linear
    solve uses their sum and their difference instead.  The difference is
    evaluated in closed form, free of cancellation.
    """

    names = ("floor", "center_1_hz", "center_2_hz", "q") + tuple(
        f"area_{i}_{width}" for i in (1, 2) for width in ("narrow", "broad")
    )

    def __init__(self, gamma_eff_hz: float):
        self.gamma_eff_hz = gamma_eff_hz

    def basis(self, f, theta) -> _Basis:
        c1, c2, q = theta
        g = self.gamma_eff_hz
        s = S_MAX * expit(q)
        dg_dq = g * s * expit(-q)
        gn, gb = g * (1 - s), g * (1 + s)
        d = f - np.array([[c1], [c2]])
        d2 = d * d
        narrow, broad = _lorentz(d2, gn), _lorentz(d2, gb)
        # L_n - L_b = (gn - gb) (d^2 - gn gb / 4) / (2 pi den_n den_b)
        gap = (-2 * g * s * TWO_PI / (gn * gb)) * (d2 - gn * gb / 4) * narrow * broad
        lines = np.stack([narrow, broad], axis=1).reshape(4, -1)
        solve = np.stack([narrow + broad, gap], axis=1).reshape(4, -1)
        d_widths = np.array([-dg_dq, dg_dq, -dg_dq, dg_dq])
        return _Basis(d, lines, np.array([gn, gb, gn, gb]), d_widths, solve)

    @staticmethod
    def areas(coef):
        """(floor, sum_1, gap_1, sum_2, gap_2) coefficients -> (floor, areas)."""
        floor, u1, v1, u2, v2 = coef
        return np.array([floor, u1 + v1, u1 - v1, u2 + v2, u2 - v2])


class _Projection:
    """Variable projection at fixed weights: LM sees theta alone.  Kaufman's
    Jacobian is the model's theta-derivative at fixed floor and areas,
    projected off the column space of the weighted basis."""

    def __init__(self, model, freq, psd, sigma):
        self.model, self.freq = model, freq
        self.target = psd / sigma
        # rows: the weighted solve columns (the first is the floor's), then target
        self._rows = np.empty((len(model.names) - 2, freq.size))
        self._rows[0] = 1.0 / sigma
        self._rows[-1] = self.target
        self._key = None

    def residual(self, theta) -> np.ndarray:
        """Weighted residual at theta, floor and areas solved; cached per theta."""
        theta = np.asarray(theta, dtype=float)
        if theta.tobytes() == self._key:
            return self.resid
        basis = self.model.basis(self.freq, theta)
        rows = self._rows
        np.multiply(basis.solve, rows[0], out=rows[1:-1])
        phi = rows[:-1]
        # one product gives the Gram matrix and phi @ target; two distinct
        # operands keep numpy on gemm (its A @ A.T path is ~4x slower here)
        products = rows @ phi.T
        gram, rhs = products[:-1], products[-1]
        # a column numerically zero next to the largest (the pair gap as
        # s -> 0) drops out of the solve and keeps a zero coefficient;
        # unit-column scaling keeps the inverse accurate
        norm = np.sqrt(np.diag(gram))
        live = norm > np.finfo(float).eps * norm.max()
        norm[~live] = 1.0
        scale, keep = np.outer(norm, norm), np.outer(live, live)
        unit_gram = np.where(keep, gram / scale, np.eye(norm.size))
        self._gram_inv = np.where(keep, np.linalg.inv(unit_gram) / scale, 0.0)
        coef = self._gram_inv @ rhs
        self._basis = basis
        self._theta, self._key = theta, theta.tobytes()
        self.areas = self.model.areas(coef)
        self.resid = coef @ phi - self.target
        return self.resid

    def _theta_jacobian(self) -> np.ndarray:
        """Weighted d(model)/d(theta) at fixed floor and areas, one row per theta.

        Per line, dL/dc = 4 pi d L^2 / w and dL/dw = L / w - pi L^2.
        """
        b, areas = self._basis, self.areas[1:]
        squares = b.lines * b.lines
        jac = np.empty((3, squares.shape[1]))
        per_line = (4 * np.pi * areas / b.widths)[:, None] * squares
        jac[:2] = b.d * per_line.reshape(2, -1, jac.shape[1]).sum(axis=1)
        shape = areas * b.d_widths
        jac[2] = (shape / b.widths) @ b.lines - (np.pi * shape) @ squares
        return jac * self._rows[0]

    def jacobian(self, theta) -> np.ndarray:
        self.residual(theta)
        jac = self._theta_jacobian()
        phi = self._rows[:-1]
        jac -= ((jac @ phi.T) @ self._gram_inv) @ phi
        return jac.T

    def solution(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Parameters (floor, *theta, *areas) at theta and the weighted
        Jacobian over all of them, in the model's name order."""
        self.residual(theta)
        lines = self._basis.lines * self._rows[0]
        jac = np.vstack([self._rows[:1], self._theta_jacobian(), lines]).T
        return np.concatenate([self.areas[:1], self._theta, self.areas[1:]]), jac


def _smooth(y: np.ndarray, width: int = 7) -> np.ndarray:
    kernel = np.ones(width) / width
    return np.convolve(y, kernel, mode="same")


def _initial_guess(freq, psd):
    """Two peak centers and a common width from the raw data.

    Centers come from the two largest separated maxima of a lightly smoothed
    spectrum, the width from the Lorentzian peak/area relation above a
    percentile floor.
    """
    smooth = _smooth(psd)
    floor = float(np.percentile(smooth, 10))
    res = freq[1] - freq[0]

    i1 = int(np.argmax(smooth))
    height1 = smooth[i1] - floor
    area_total = float(np.trapezoid(np.clip(psd - floor, 0, None), freq))
    gamma0 = max(2 * (area_total / 2) / (math.pi * max(height1, 1e-300)), 2 * res)

    exclude = np.abs(freq - freq[i1]) < 10 * gamma0
    rest = np.where(~exclude, smooth, -np.inf)
    i2 = int(np.argmax(rest))
    return (*sorted((freq[i1], freq[i2])), gamma0)


def _sigma_floor(values: np.ndarray) -> float:
    top = float(np.max(np.abs(values))) if values.size else 1.0
    return max(top * 1e-12, 1e-300)


def _initial_sigma(psd: np.ndarray, n_avg: int) -> np.ndarray:
    return np.maximum(_smooth(psd), _sigma_floor(psd)) / math.sqrt(n_avg)


def _run_weighted_fit(model, theta0, freq, psd, n_avg):
    """IRLS loop: LM passes over theta with sigma = model / sqrt(n_avg) refreshed.

    Returns the last pass's result and the parameters and sigmas by name."""
    sigma = _initial_sigma(psd, n_avg)
    theta = np.asarray(theta0, dtype=float)
    for i in range(_WEIGHT_REFRESH + 1):
        if i:
            fitted = (proj.residual(theta) + proj.target) * sigma
            sigma = np.maximum(fitted, _sigma_floor(psd)) / math.sqrt(n_avg)
        proj = _Projection(model, freq, psd, sigma)
        result = least_squares(proj.residual, theta, jac=proj.jacobian, **_LM_OPTIONS)
        theta = result.x
    p, jac = proj.solution(theta)
    sig = np.sqrt(np.clip(np.diag(np.linalg.pinv(jac.T @ jac)), 0.0, None))
    return result, dict(zip(model.names, map(float, p))), dict(zip(model.names, map(float, sig)))


def _chi2_reduced(res, n_params: int) -> float:
    dof = max(res.fun.size - n_params, 1)
    return float(2 * res.cost / dof)


def _stokes_anti(params: dict, key: str) -> tuple[float, float]:
    """(Stokes, anti-Stokes) values of params[key.format(1 or 2)]; Stokes is
    the upper sideband."""
    upper = 2 if params["center_2_hz"] >= params["center_1_hz"] else 1
    return params[key.format(upper)], params[key.format(3 - upper)]


def _ratio(stokes: float, anti: float, correction: float) -> float:
    return (stokes / anti) * correction if anti != 0 else math.inf


def _coverage_flags(data: SpectrumData, centers_hz, width_hz) -> tuple[str, ...]:
    """Flag peaks whose fit region is mostly masked out (error inflation)."""
    for c in centers_hz:
        window = np.abs(data.freq_hz - c) <= width_hz / 2
        if window.sum() and data.mask[window].mean() > 0.8:
            return ("peak_region_masked",)
    return ()


def apply_mask(data: SpectrumData, exclusion_windows) -> SpectrumData:
    """Mark bins inside the given (lo_hz, hi_hz) windows as excluded."""
    mask = data.mask.copy()
    lo_grid, hi_grid = data.freq_hz[0], data.freq_hz[-1]
    for lo, hi in exclusion_windows:
        if hi < lo:
            raise GridError(f"window ({lo}, {hi}) is inverted")
        if hi < lo_grid or lo > hi_grid:
            raise GridError(f"window ({lo}, {hi}) lies outside the grid")
        mask |= (data.freq_hz >= lo) & (data.freq_hz <= hi)
    return data.with_mask(mask)


def fit_single_pair(
    data: SpectrumData,
    init_hint: dict | None = None,
    ratio_correction: float = 1.0,
) -> FitResult:
    """One pair of equal-width Lorentzians over a floor (drive-off model).

    Returns Gamma_eff, the Stokes/anti-Stokes area ratio R0 (after the
    optional external ratio correction) and the occupancy implied by
    R0 = 1 + 1/n.  The higher-frequency peak is the Stokes sideband.
    `init_hint` may set the starting center_1_hz, center_2_hz and gamma_eff_hz.
    """
    hint = init_hint or {}
    sel = data.included()
    freq, psd = data.freq_hz[sel], data.psd[sel]
    guess = dict(zip(("center_1_hz", "center_2_hz", "gamma_eff_hz"), _initial_guess(freq, psd)))
    theta0 = [hint.get(name, value) for name, value in guess.items()]
    res, params, sigmas = _run_weighted_fit(_PairModel, theta0, freq, psd, data.n_avg)
    params["gamma_eff_hz"] = abs(params["gamma_eff_hz"])
    r0 = _ratio(*_stokes_anti(params, "area_{}"), ratio_correction)
    params["r0"] = r0
    centers = (params["center_1_hz"], params["center_2_hz"])
    return FitResult(
        params=params,
        sigmas=sigmas,
        chi2_reduced=_chi2_reduced(res, len(_PairModel.names)),
        ratios=Ratios(r0=r0, r_plus=r0, r_minus=r0),
        n_bar_inferred=1.0 / (r0 - 1.0) if math.isfinite(r0) and r0 > 1 else math.nan,
        converged=bool(res.success),
        n_iter=int(res.nfev),
        flags=_coverage_flags(data, centers, params["gamma_eff_hz"]),
    )


_S_SCAN = (0.02, 0.08, 0.18, 0.32, 0.5, 0.7, 0.9)


def _scan_linear_start(model, freq, psd, n_avg, c1, c2) -> float:
    """q of the best point of a coarse s grid at the first-pass weights.

    Each grid point costs one linear solve for floor and areas; this puts the
    nonlinear polish close to the optimum."""
    proj = _Projection(model, freq, psd, _initial_sigma(psd, n_avg))
    qs = logit(np.array(_S_SCAN) / S_MAX)
    costs = [float(np.sum(proj.residual((c1, c2, q)) ** 2)) for q in qs]
    return float(qs[int(np.argmin(costs))])


def fit_double_pair(
    data: SpectrumData,
    gamma_eff_fixed: float,
    init_hint: dict | None = None,
    ratio_correction: float = 1.0,
) -> FitResult:
    """Two Lorentzian pairs with widths Gamma_eff (1 -/+ s), s free (drive-on model).

    gamma_eff_fixed is angular (rad/s), normally the paired off-fit value.
    Returns s and the broad/narrow area ratios R+ and R-.  `init_hint` may
    set the starting center_1_hz, center_2_hz and s; without s the start
    comes from a coarse s scan.
    """
    gamma_eff_hz = gamma_eff_fixed / TWO_PI
    if gamma_eff_hz <= 0:
        raise ValueError("gamma_eff_fixed must be positive")
    hint = init_hint or {}
    model = _TwoPairModel(gamma_eff_hz)
    sel = data.included()
    freq, psd = data.freq_hz[sel], data.psd[sel]
    if "center_1_hz" in hint and "center_2_hz" in hint:
        c1, c2 = hint["center_1_hz"], hint["center_2_hz"]
    else:
        c1, c2, _ = _initial_guess(freq, psd)
        c1, c2 = hint.get("center_1_hz", c1), hint.get("center_2_hz", c2)
    if "s" in hint:
        q0 = float(logit(min(max(hint["s"], 1e-6), S_MAX * 0.999) / S_MAX))
    else:
        q0 = _scan_linear_start(model, freq, psd, data.n_avg, c1, c2)
    res, params, sigmas = _run_weighted_fit(model, (c1, c2, q0), freq, psd, data.n_avg)
    e = expit(params["q"])
    s_hat = float(S_MAX * e)
    params["s"] = s_hat
    params["gamma_eff_hz"] = gamma_eff_hz
    sigmas["s"] = sigmas["q"] * s_hat * (1 - e)

    centers = (params["center_1_hz"], params["center_2_hz"])
    flags = list(_coverage_flags(data, centers, gamma_eff_hz))
    if s_hat < 1e-4:
        flags.append("s_at_lower_bound")
        # the model is even in s: sigma_q ds/dq -> 0 there says nothing about s
        sigmas["s"] = math.nan
    if s_hat > S_MAX * 0.999:
        flags.append("s_at_upper_bound")

    stokes_n, anti_n = _stokes_anti(params, "area_{}_narrow")
    stokes_b, anti_b = _stokes_anti(params, "area_{}_broad")
    r_plus = _ratio(stokes_b, anti_b, ratio_correction)
    r_minus = _ratio(stokes_n, anti_n, ratio_correction)
    r0 = _ratio(stokes_b + stokes_n, anti_b + anti_n, ratio_correction)
    return FitResult(
        params=params,
        sigmas=sigmas,
        chi2_reduced=_chi2_reduced(res, len(model.names)),
        ratios=Ratios(r0=r0, r_plus=r_plus, r_minus=r_minus),
        n_bar_inferred=None,
        converged=bool(res.success),
        n_iter=int(res.nfev),
        flags=tuple(flags),
    )


def fit_pair_two_stage(pair: OnOffPair, ratio_correction: float = 1.0):
    """Off-fit then on-fit with Gamma_eff frozen; returns (off, on) results."""
    off = fit_single_pair(pair.drive_off, ratio_correction=ratio_correction)
    gamma_eff = off.params["gamma_eff_hz"] * TWO_PI
    hint = {
        "center_1_hz": off.params["center_1_hz"],
        "center_2_hz": off.params["center_2_hz"],
    }
    on = fit_double_pair(
        pair.drive_on, gamma_eff, init_hint=hint, ratio_correction=ratio_correction
    )
    return off, on


def _trial_fits(truth: ExperimentTruth, seed: int):
    """Synthesize one on/off pair and fit it: (off, on), or None on failure."""
    rates_on, rates_off = truth.rates_pair()
    pair = synth_onoff_from_rates(
        rates_on, rates_off, n_bar=truth.n_bar, detection=truth.detection, seed=seed
    )
    try:
        off, on = fit_pair_two_stage(pair)
    except (np.linalg.LinAlgError, ValueError):
        return None
    return (off, on) if off.converged and on.converged else None


def _map_trials(trial, inputs, n_jobs: int, chunksize: int) -> list:
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(trial, inputs, chunksize=chunksize))
    return [trial(item) for item in inputs]


def _bias_trial(args) -> float | None:
    truth, seed, _ = args
    fits = _trial_fits(truth, seed)
    return None if fits is None else fits[1].params["s"]


def _trial_inputs(truth, root_seed: int, n_trials: int):
    return [(truth, task_seed(root_seed, i), i) for i in range(n_trials)]


def bias_study(
    truth: ExperimentTruth, n_trials: int, root_seed: int, n_jobs: int = 1
) -> BiasStudyReport:
    """Fitted-s distribution over synthetic no-drive spectra.

    Each trial draws an independent on/off pair at s = 0 truth, runs the
    two-stage fit and records the fitted s.  Aggregation is index-ordered,
    so worker count does not change the report.
    """
    if truth.s != 0:
        raise ValueError("bias study is defined for s = 0 truth")
    if n_trials < 100:
        raise ValueError("need at least 100 trials for reported moments")
    results = _map_trials(_bias_trial, _trial_inputs(truth, root_seed, n_trials), n_jobs, 32)
    values = np.array([r for r in results if r is not None], dtype=float)
    n_failed = n_trials - values.size
    if values.size < 2:
        raise FitFailureError("bias study produced fewer than 2 usable fits")
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    centered = values - mean
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    upper = max(0.2, float(values.max()))
    counts, edges = np.histogram(values, bins=60, range=(0.0, upper))
    return BiasStudyReport(
        n_trials=n_trials,
        n_failed=n_failed,
        mean_s=mean,
        std_s=std,
        skewness_s=skew,
        hist_edges=edges,
        hist_counts=counts,
        valid=(n_failed <= 0.05 * n_trials),
    )


def _recovery_trial(args) -> dict | None:
    truth, seed, idx = args
    fits = _trial_fits(truth, seed)
    if fits is None:
        return None
    off, on = fits
    return {
        "index": idx,
        "s": on.params["s"],
        "s_sigma_fit": on.sigmas["s"],
        "gamma_eff_hz": off.params["gamma_eff_hz"],
        "r0": off.ratios.r0,
        "r_plus": on.ratios.r_plus,
        "r_minus": on.ratios.r_minus,
        "n_bar": off.n_bar_inferred,
    }


def recovery_campaign(
    truth: ExperimentTruth, n_repeats: int, root_seed: int, n_jobs: int = 1
) -> list[dict]:
    """Repeated synth -> two-stage-fit rounds; per-repeat recovered values."""
    results = _map_trials(_recovery_trial, _trial_inputs(truth, root_seed, n_repeats), n_jobs, 8)
    kept = [r for r in results if r is not None]
    if len(kept) < 0.5 * n_repeats:
        raise FitFailureError("more than half of the campaign repeats failed to fit")
    return kept
