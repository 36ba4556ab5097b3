"""Weighted nonlinear least-squares fits of heterodyne sideband spectra.

Two-stage protocol (`fit_pair_two_stage`, its one implementation): the
drive-off spectrum is fitted with one pair of Lorentzians sharing a single
width (-> Gamma_eff, R0, n_bar); then, only if that fit converged, the
drive-on spectrum with two pairs whose widths are tied to Gamma_eff (1 -/+ s),
Gamma_eff frozen at the off-fit value, the centres starting at the off-fit
centres and s the only extra shape parameter (-> s, R+, R-).  Weights follow
the averaged-periodogram noise law sigma_bin = PSD_model / sqrt(n_avg): two
LM passes, the first weighted by the smoothed data, the second by the first
pass's model.
Every line is the one Lorentzian kernel, `lineshape.lorentzian`, with weight
width/2pi: unit area on the Hz grid of the data.

Both models are linear in the floor and the areas, so the fits are separable
(variable projection; Golub & Pereyra, Inverse Problems 19 (2003) R1): Moré's
Levenberg-Marquardt (`lm`: MINPACK lmder on the 3 x 3 normal equations) runs
over the two centres and the width (drive off) or q (drive on), each pass
from the last one's theta; the floor and areas are solved by weighted linear
least squares at each step, and the Jacobian is Kaufman's (BIT 15 (1975) 49).
The full Jacobian is built once, at the solution, for the uncertainties.

s enters the optimizer through a logistic transform onto (0, 0.999): the
spectra depend only on |s| and the transform keeps the fit smooth at the
s = 0 boundary, which is what folds the no-drive fitted-s distribution to
small positive values.  The scalar transform and its inverse (`_expit`,
`_logit`) reproduce scipy.special's formulas bit for bit, so fitted values do
not depend on the installed scipy's `special` build.

Each thread keeps one workspace of the fit's work arrays (`_Workspace`):
the offsets, lines and solve columns of the models, the weighted rows, the
Jacobians and their temporaries, 56 float rows or 448 B per fitted bin
(2.7 MB at 6 002 bins).  Every later fit on the same number of bins reuses
them, so an evaluation takes no fresh pages from the allocator.  A thread's
fits run one after another and never nest: a fit started inside another on
the same thread would overwrite its arrays.  Threads never share them,
because numpy releases the interpreter lock while it writes.

Both batch studies, `bias_study` and `recovery_campaign`, run `_trial_fits`
through one runner, `_run_trials`, and read the same usable-trial records;
their reports, `BiasStudyReport` and `CampaignReport`, are built here only.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .core import POSITIVE, TWO_PI, DerivedRates, at_least, check_value
from .data import OnOffPair, SpectrumData
from .errors import FitFailureError, GridError
from .lineshape import Ratios, lorentzian
from .lm import levenberg_marquardt, scaled_inverse
from .seeding import task_seed
from .synthesizer import DetectionConfig, synth_onoff_from_rates

S_MAX = 0.999
MIN_BIAS_TRIALS = 100  # fewest trials whose moments bias_study reports
_GTOL = 1e-10
# cost plateaus long before 1e-12 when s is pinned at its lower bound; 1e-9
# stops the boundary walk ~3x earlier at < 2e-4 shift in the estimates
_FTOL = 1e-9
_XTOL = 1e-12
_MAX_NFEV = 500


def _expit(x: float) -> float:
    """Logistic 1 / (1 + e^-x), bit-equal to scipy.special.expit."""
    try:
        return 1 / (1 + math.exp(-x))
    except OverflowError:  # x below about -709.78: scipy's 1 / (1 + inf)
        return 0.0


def _logit(p: float) -> float:
    """log(p / (1 - p)) for 0 < p < 1, bit-equal to scipy.special.logit:
    near p = 1/2 it takes scipy's cancellation-free form."""
    if p < 0.3 or p > 0.65:
        return math.log(p / (1 - p))
    return math.log1p(2 * (p - 0.5)) - math.log1p(-2 * (p - 0.5))


@dataclass(frozen=True, eq=False)
class FitResult:
    """Fitted parameters (Hz at the data boundary), uncertainties, ratios.

    ``converged``: the last reweighting pass stopped on one of MINPACK
    lmder's tests (relative cost reduction <= 1e-9, step bound <= 1e-12
    |D theta|, gradient cosines <= 1e-10; see `lm.levenberg_marquardt`)
    within 500 evaluations, and the fitted parameters, their sigmas and the
    area ratios are finite.  ``n_iter`` counts the evaluations of the reduced
    (projected) problem in the last reweighting pass.  ``sigmas["s"]`` of a
    drive-on fit is NaN when the ``s_at_lower_bound`` flag is set: the model
    is even in s, so the linearised uncertainty is undefined at s -> 0.
    Non-finite values (NaN sigmas, R0 = inf) stay floats here and are
    written as ``null`` by `io.write_json`.
    """

    params: dict
    sigmas: dict
    chi2_reduced: float
    ratios: Ratios
    n_bar_inferred: float | None
    converged: bool
    n_iter: int
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExperimentTruth:
    """Model-level truth for synthetic campaigns (gamma_eff in rad/s, center_hz in Hz)."""

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

    def synth_pair(self, seed: int) -> OnOffPair:
        """The seeded drive-on/off pair of this truth: the one place a truth
        becomes synthetic spectra, for `sqzband synth`, the experiment
        overlay and every batch trial."""
        rates_on, rates_off = self.rates_pair()
        return synth_onoff_from_rates(
            rates_on, rates_off, n_bar=self.n_bar, detection=self.detection, seed=seed
        )


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


@dataclass(frozen=True)
class CampaignReport:
    """Recovered values per usable repeat, in repeat order (the rows of
    campaign.csv), and their ensemble summary (summary.json)."""

    rows: list[dict]
    summary: dict


class _Basis(NamedTuple):
    """Unweighted columns at one theta, one per row: the model is floor +
    areas @ lines, unit-area Lorentzians on centre theta[0] (first half) and
    theta[1]; the linear solve uses ``solve``, which spans the same space."""

    d: np.ndarray  # (2, n): f - centre
    lines: np.ndarray  # (m, n)
    widths: np.ndarray  # (m,)
    d_widths: np.ndarray  # (m,): d(width)/d(theta[2])
    solve: np.ndarray  # (m, n)


class _Workspace(threading.local):
    """One thread's work arrays, by name and shape; a request for another
    number of bins drops them all.  Every array is written before it is read,
    so no fit sees another's values."""

    def __init__(self):
        self.n_bins, self.arrays = None, {}

    def get(self, name: str, *shape: int) -> np.ndarray:
        if shape[-1] != self.n_bins:
            self.n_bins, self.arrays = shape[-1], {}
        key = (name, shape)
        if key not in self.arrays:
            self.arrays[key] = np.empty(shape)
        return self.arrays[key]


_WORKSPACE = _Workspace()


class _Model:
    """Offsets d = f - centre and d^2, one row per centre, in workspace arrays."""

    def __init__(self, n_bins: int):
        self._d = _WORKSPACE.get("d", 2, n_bins)
        self._d2 = _WORKSPACE.get("d2", 2, n_bins)

    def _offsets(self, f, c1, c2) -> tuple[np.ndarray, np.ndarray]:
        d = np.subtract(f, np.array([[c1], [c2]]), out=self._d)
        return d, np.multiply(d, d, out=self._d2)


class _PairModel(_Model):
    """Drive-off: floor + L(c1, |g|) + L(c2, |g|), theta = (c1, c2, g).

    The model is even in g, so a negative-width mirror of a solution is the
    same solution; the reported width is |g|.
    """

    names = ("floor", "center_1_hz", "center_2_hz", "gamma_eff_hz", "area_1", "area_2")

    def __init__(self, n_bins: int):
        super().__init__(n_bins)
        self._lines = _WORKSPACE.get("lines", 2, n_bins)

    def basis(self, f, theta) -> _Basis:
        c1, c2, g = theta
        d, d2 = self._offsets(f, c1, c2)
        lines = lorentzian(d2, abs(g), abs(g) / TWO_PI, out=self._lines)
        return _Basis(d, lines, np.full(2, abs(g)), np.full(2, math.copysign(1.0, g)), lines)

    @staticmethod
    def areas(coef):
        return coef


class _TwoPairModel(_Model):
    """Drive-on: floor + a pair of Lorentzians of widths Gamma_eff (1 -/+ s) at
    each centre, theta = (c1, c2, q) with s = S_MAX expit(q); Gamma_eff frozen.

    As s -> 0 the narrow and broad lines of a pair coincide, so the linear
    solve uses their sum and their difference instead.  The difference is
    evaluated in closed form, free of cancellation.  Both sets of lines are
    written into (centre, 2, n) workspace arrays that the next call overwrites.
    """

    names = ("floor", "center_1_hz", "center_2_hz", "q") + tuple(
        f"area_{i}_{width}" for i in (1, 2) for width in ("narrow", "broad")
    )

    def __init__(self, gamma_eff_hz: float, n_bins: int):
        super().__init__(n_bins)
        self.gamma_eff_hz = gamma_eff_hz
        self._lines = _WORKSPACE.get("lines", 2, 2, n_bins)  # narrow, broad
        self._solve = _WORKSPACE.get("solve", 2, 2, n_bins)  # narrow + broad, narrow - broad

    def basis(self, f, theta) -> _Basis:
        c1, c2, q = theta
        g = self.gamma_eff_hz
        s = S_MAX * _expit(q)
        dg_dq = g * s * _expit(-q)  # not 1 - _expit(q), whose bits differ
        gn, gb = g * (1 - s), g * (1 + s)
        d, d2 = self._offsets(f, c1, c2)
        lines, solve = self._lines, self._solve
        narrow = lorentzian(d2, gn, gn / TWO_PI, out=lines[:, 0])
        broad = lorentzian(d2, gb, gb / TWO_PI, out=lines[:, 1])
        np.add(narrow, broad, out=solve[:, 0])
        # L_n - L_b = (gn - gb) (d^2 - gn gb / 4) / (2 pi den_n den_b)
        gap = np.subtract(d2, gn * gb / 4, out=solve[:, 1])
        gap *= -2 * g * s * TWO_PI / (gn * gb)
        gap *= narrow
        gap *= broad
        widths, d_widths = np.array([gn, gb, gn, gb]), np.array([-dg_dq, dg_dq, -dg_dq, dg_dq])
        return _Basis(d, lines.reshape(4, -1), widths, d_widths, solve.reshape(4, -1))

    @staticmethod
    def areas(coef):
        """(floor, sum_1, gap_1, sum_2, gap_2) coefficients -> (floor, areas)."""
        floor, u1, v1, u2, v2 = coef
        return np.array([floor, u1 + v1, u1 - v1, u2 + v2, u2 - v2])


class _Projection:
    """Variable projection at fixed weights: LM sees theta alone.  Kaufman's
    Jacobian is the model's theta-derivative at fixed floor and areas,
    projected off the column space of the weighted basis.  The Jacobian and
    the solution are taken at the theta of the last residual.  The Jacobian
    is a workspace array that the next call overwrites; the residual is fresh.
    """

    def __init__(self, model, freq, psd, sigma):
        self.model, self.freq, self.psd = model, freq, psd
        n_lines, n = len(model.names) - 4, freq.size
        # rows: the weighted solve columns (the first is the floor's), then target
        self._rows = _WORKSPACE.get("rows", n_lines + 2, n)
        self._squares = _WORKSPACE.get("squares", n_lines, n)
        self._per_line = _WORKSPACE.get("per_line", n_lines, n)
        self._jac = _WORKSPACE.get("jac", 3, n)
        self._scratch = _WORKSPACE.get("scratch", 3, n)
        self._full_jac = _WORKSPACE.get("full_jac", len(model.names), n)
        self.reweight(sigma)

    def reweight(self, sigma):
        """Weights 1/sigma on the same bins and model."""
        self.sigma = sigma
        np.divide(1.0, sigma, out=self._rows[0])
        self.target = np.divide(self.psd, sigma, out=self._rows[-1])

    def residual(self, theta) -> np.ndarray:
        """Weighted residual at theta, floor and areas solved."""
        self._basis = basis = self.model.basis(self.freq, theta)
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
        try:
            self._gram_inv = scaled_inverse(gram, norm > np.finfo(float).eps * norm.max())
        except np.linalg.LinAlgError:
            raise GridError(
                "singular fit basis: the spectrum cannot separate the floor and line areas"
            ) from None
        coef = self._gram_inv @ rhs
        self.theta = theta
        self.areas = self.model.areas(coef)
        resid = coef @ phi
        resid -= self.target
        return resid

    def _theta_jacobian(self) -> np.ndarray:
        """Weighted d(model)/d(theta) at fixed floor and areas, one row per theta.

        Per line, dL/dc = 4 pi d L^2 / w and dL/dw = L / w - pi L^2.
        """
        b, areas, jac = self._basis, self.areas[1:], self._jac
        squares = np.multiply(b.lines, b.lines, out=self._squares)
        per_line = np.multiply(
            (4 * np.pi * areas / b.widths)[:, None], squares, out=self._per_line
        )
        np.sum(per_line.reshape(2, -1, jac.shape[1]), axis=1, out=jac[:2])
        jac[:2] *= b.d
        shape = areas * b.d_widths
        np.matmul(shape / b.widths, b.lines, out=jac[2])
        jac[2] -= np.matmul(np.pi * shape, squares, out=self._scratch[0])
        jac *= self._rows[0]
        return jac

    def jacobian(self) -> np.ndarray:
        """Kaufman's Jacobian of the residual, one row per theta."""
        jac = self._theta_jacobian()
        phi = self._rows[:-1]
        jac -= np.matmul((jac @ phi.T) @ self._gram_inv, phi, out=self._scratch)
        return jac

    def solution(self, theta) -> tuple[np.ndarray, np.ndarray]:
        """Parameters (floor, *theta, *areas) at theta and the weighted
        Jacobian over all of them, in the model's name order."""
        if theta is not self.theta:
            self.residual(theta)
        jac = self._full_jac
        jac[0] = self._rows[0]
        jac[1:4] = self._theta_jacobian()
        np.multiply(self._basis.lines, self._rows[0], out=jac[4:])
        return np.concatenate([self.areas[:1], theta, self.areas[1:]]), jac.T


def _smooth(y: np.ndarray, width: int = 7) -> np.ndarray:
    if y.size < width:
        raise GridError(f"{y.size} bins to fit, fewer than the {width}-bin smoothing kernel")
    return np.convolve(y, np.ones(width) / width, mode="same")


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
    return max(float(np.max(np.abs(values))) * 1e-12, 1e-300)


def _initial_sigma(psd: np.ndarray, n_avg: int) -> np.ndarray:
    return np.maximum(_smooth(psd), _sigma_floor(psd)) / math.sqrt(n_avg)


# the LM loop rejects non-finite trials and a non-finite fit is not converged,
# so overflow on degenerate spectra is no error
@np.errstate(all="ignore")
def _run_weighted_fit(proj: _Projection, theta0, n_avg):
    """Two LM passes over theta: the first at `proj`'s starting weights, the
    second from its solution at sigma = first-pass model / sqrt(n_avg).

    `proj` is reweighted in place between the passes.  Returns the second
    pass's LMResult, the parameters and sigmas by name, and chi^2 per degree
    of freedom."""
    tols = dict(ftol=_FTOL, xtol=_XTOL, gtol=_GTOL, max_nfev=_MAX_NFEV)
    result = levenberg_marquardt(proj, np.asarray(theta0, dtype=float), **tols)
    fitted = (result.resid + proj.target) * proj.sigma
    proj.reweight(np.maximum(fitted, _sigma_floor(proj.psd)) / math.sqrt(n_avg))
    result = levenberg_marquardt(proj, result.x, **tols)
    p, jac = proj.solution(result.x)
    fisher = jac.T @ jac
    finite = np.isfinite(fisher).all()
    sig = np.sqrt(np.clip(np.diag(np.linalg.pinv(fisher)), 0, None)) if finite else p * np.nan
    converged = result.converged and np.isfinite(p).all() and np.isfinite(sig).all()
    names = proj.model.names
    chi2 = float(result.resid @ result.resid / max(result.resid.size - len(names), 1))
    named = (dict(zip(names, map(float, values))) for values in (p, sig))
    return result._replace(converged=bool(converged)), *named, chi2


def _stokes_anti(params: dict, key: str) -> tuple[float, float]:
    """(Stokes, anti-Stokes) values of params[key.format(1 or 2)]; Stokes is
    the upper sideband."""
    upper = 2 if params["center_2_hz"] >= params["center_1_hz"] else 1
    return params[key.format(upper)], params[key.format(3 - upper)]


def _ratio(stokes: float, anti: float, correction: float) -> float:
    return (stokes / anti) * correction if anti != 0 else math.inf


def _coverage_flags(data: SpectrumData, centers_hz, width_hz) -> tuple[str, ...]:
    """Flag peaks whose fit region is mostly masked out (error inflation).

    Lattice points missing from a gapped grid count as masked bins."""
    included = data.included()
    for c in centers_hz:
        bins, n = data.window(c - width_hz / 2, c + width_hz / 2)
        if n and (n - included[bins].sum()) / n > 0.8:
            return ("peak_region_masked",)
    return ()


def apply_mask(data: SpectrumData, exclusion_windows) -> SpectrumData:
    """Mark bins inside the given (lo_hz, hi_hz) windows as excluded."""
    mask = data.mask.copy()
    lo_grid, hi_grid = data.freq_hz[0], data.freq_hz[-1]
    for lo, hi in exclusion_windows:
        if not lo <= hi:
            raise GridError(f"window ({lo}, {hi}) is inverted or not a number")
        if hi < lo_grid or lo > hi_grid:
            raise GridError(f"window ({lo}, {hi}) lies outside the grid")
        mask |= (data.freq_hz >= lo) & (data.freq_hz <= hi)
    return replace(data, mask=mask, meta=dict(data.meta))


def fit_single_pair(data: SpectrumData, ratio_correction: float = 1.0) -> FitResult:
    """One pair of equal-width Lorentzians over a floor (drive-off model).

    Returns Gamma_eff, the Stokes/anti-Stokes area ratio R0 (after the
    optional external ratio correction) and the occupancy implied by
    R0 = 1 + 1/n.  The higher-frequency peak is the Stokes sideband.
    """
    sel = data.included()
    freq, psd = data.freq_hz[sel], data.psd[sel]
    proj = _Projection(_PairModel(freq.size), freq, psd, _initial_sigma(psd, data.n_avg))
    res, params, sigmas, chi2 = _run_weighted_fit(proj, _initial_guess(freq, psd), data.n_avg)
    params["gamma_eff_hz"] = abs(params["gamma_eff_hz"])
    r0 = _ratio(*_stokes_anti(params, "area_{}"), ratio_correction)
    params["r0"] = r0
    centers = (params["center_1_hz"], params["center_2_hz"])
    return FitResult(
        params=params,
        sigmas=sigmas,
        chi2_reduced=chi2,
        ratios=Ratios(r0=r0, r_plus=r0, r_minus=r0),
        n_bar_inferred=1.0 / (r0 - 1.0) if math.isfinite(r0) and r0 > 1 else math.nan,
        converged=res.converged and math.isfinite(r0),
        n_iter=res.nfev,
        flags=_coverage_flags(data, centers, params["gamma_eff_hz"]),
    )


_S_SCAN = (0.02, 0.08, 0.18, 0.32, 0.5, 0.7, 0.9)
_Q_SCAN = tuple(_logit(s / S_MAX) for s in _S_SCAN)


def fit_double_pair(
    data: SpectrumData,
    gamma_eff_fixed: float,
    init_hint: dict | None = None,
    ratio_correction: float = 1.0,
) -> FitResult:
    """Two Lorentzian pairs with widths Gamma_eff (1 -/+ s), s free (drive-on model).

    gamma_eff_fixed is angular (rad/s), normally the paired off-fit value.
    Returns s and the broad/narrow area ratios R+ and R-.  `init_hint`, a
    dict with center_1_hz and center_2_hz, sets the starting centres; the
    start of s always comes from a coarse s scan.
    """
    gamma_eff_hz = check_value("gamma_eff_fixed", gamma_eff_fixed, POSITIVE) / TWO_PI
    sel = data.included()
    freq, psd = data.freq_hz[sel], data.psd[sel]
    model = _TwoPairModel(gamma_eff_hz, freq.size)
    proj = _Projection(model, freq, psd, _initial_sigma(psd, data.n_avg))
    if init_hint:
        c1, c2 = init_hint["center_1_hz"], init_hint["center_2_hz"]
    else:
        c1, c2, _ = _initial_guess(freq, psd)
    # q starts at the best point of a coarse s grid, one linear solve for floor
    # and areas each, which puts the nonlinear polish close to the optimum
    with np.errstate(all="ignore"):  # as in _run_weighted_fit
        costs = [float(np.sum(proj.residual((c1, c2, q)) ** 2)) for q in _Q_SCAN]
    q0 = _Q_SCAN[int(np.argmin(costs))]
    res, params, sigmas, chi2 = _run_weighted_fit(proj, (c1, c2, q0), data.n_avg)
    e = _expit(params["q"])
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
        chi2_reduced=chi2,
        ratios=Ratios(r0=r0, r_plus=r_plus, r_minus=r_minus),
        n_bar_inferred=None,
        converged=res.converged and all(map(math.isfinite, (r0, r_plus, r_minus))),
        n_iter=res.nfev,
        flags=tuple(flags),
    )


def fit_pair_two_stage(
    off: SpectrumData, on: SpectrumData | None = None, ratio_correction: float = 1.0
) -> tuple[FitResult, FitResult | None]:
    """The two-stage protocol: (off-fit, on-fit).

    `off` is always fitted.  `on` is fitted only when it is given and the
    off-fit converged, with Gamma_eff held at the off-fit value and the
    off-fit centres as its starting centres; otherwise the on-fit is None.
    """
    off_fit = fit_single_pair(off, ratio_correction=ratio_correction)
    if on is None or not off_fit.converged:
        return off_fit, None
    hint = {name: off_fit.params[name] for name in ("center_1_hz", "center_2_hz")}
    gamma_eff = off_fit.params["gamma_eff_hz"] * TWO_PI
    on_fit = fit_double_pair(on, gamma_eff, init_hint=hint, ratio_correction=ratio_correction)
    return off_fit, on_fit


def _trial_fits(truth: ExperimentTruth, seed: int):
    """Synthesize one on/off pair and fit it: (off, on), or None on failure."""
    pair = truth.synth_pair(seed)
    try:
        off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
    except (np.linalg.LinAlgError, ValueError, GridError):
        return None
    return (off, on) if on is not None and on.converged else None


def _run_trials(
    truth: ExperimentTruth, n_trials: int, root_seed: int, n_jobs: int, chunksize: int
) -> list[tuple[int, FitResult, FitResult]]:
    """(index, off, on) of each usable trial, in trial order: `_trial_fits` of
    each trial's seed on `n_jobs` processes, at most one per CPU (the pool
    starts all its workers at once)."""
    check_value("n_jobs", n_jobs, at_least(1))
    args = (repeat(truth, n_trials), (task_seed(root_seed, i) for i in range(n_trials)))
    workers = min(n_jobs, os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which no serial run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_trial_fits, *args, chunksize=chunksize))
    else:
        results = map(_trial_fits, *args)
    return [(index, *fits) for index, fits in enumerate(results) if fits is not None]


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
    check_value("n_trials", n_trials, at_least(MIN_BIAS_TRIALS))
    trials = _run_trials(truth, n_trials, root_seed, n_jobs, chunksize=32)
    values = np.array([on.params["s"] for _, _, on in trials], dtype=float)
    n_failed = n_trials - values.size
    if values.size < 2:
        raise FitFailureError("bias study produced fewer than 2 usable fits")
    mean = float(values.mean())
    std = float(values.std(ddof=1))
    m2, m3 = (float(((values - mean) ** k).mean()) for k in (2, 3))
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


def recovery_campaign(
    truth: ExperimentTruth, n_repeats: int, root_seed: int, n_jobs: int = 1
) -> CampaignReport:
    """Repeated synth -> two-stage-fit rounds: per-repeat recovered values
    and their ensemble summary.  Raises FitFailureError when more than half
    of the repeats fail, or fewer than 2 are usable."""
    check_value("n_repeats", n_repeats, at_least(2))
    rows = [
        {
            "index": index,
            "s": on.params["s"],
            "s_sigma_fit": on.sigmas["s"],
            "gamma_eff_hz": off.params["gamma_eff_hz"],
            "r0": off.ratios.r0,
            "r_plus": on.ratios.r_plus,
            "r_minus": on.ratios.r_minus,
            "n_bar": off.n_bar_inferred,
        }
        for index, off, on in _run_trials(truth, n_repeats, root_seed, n_jobs, chunksize=8)
    ]
    if len(rows) < 0.5 * n_repeats:
        raise FitFailureError("more than half of the campaign repeats failed to fit")
    if len(rows) < 2:
        raise FitFailureError("campaign produced fewer than 2 usable fits")
    s, gamma = (np.array([row[key] for row in rows]) for key in ("s", "gamma_eff_hz"))
    n_bar, s_sigma = (
        np.array([row[key] for row in rows if not math.isnan(row[key])])
        for key in ("n_bar", "s_sigma_fit")
    )
    summary = {
        "truth": {"s": truth.s, "gamma_eff_hz": truth.gamma_eff / TWO_PI, "n_bar": truth.n_bar},
        "n_repeats": n_repeats,
        "n_recovered": len(rows),
        "s_mean": float(s.mean()),
        "s_std_ensemble": float(s.std(ddof=1)),
        "s_sigma_fit_mean": float(s_sigma.mean()) if s_sigma.size else math.nan,
        "s_sigma_fit_undefined": len(rows) - s_sigma.size,
        "s_bias": float(s.mean() - truth.s),
        "gamma_eff_hz_mean": float(gamma.mean()),
        "gamma_eff_hz_std_ensemble": float(gamma.std(ddof=1)),
        "n_bar_mean": float(n_bar.mean()) if n_bar.size else math.nan,
        "sigma_note": (
            "s_sigma_fit_mean is the local-quadratic per-fit error, averaged "
            "over repeats whose s is off the lower bound (s_sigma_fit_undefined "
            "counts the others, NaN in campaign.csv); "
            "*_std_ensemble is the scatter over independent repeats"
        ),
    }
    return CampaignReport(rows, summary)
