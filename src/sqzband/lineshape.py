"""Closed-form motional-sideband and quadrature spectra.

Each motional sideband is a sum of two Lorentzians with common center and
widths Gamma_pm = Gamma_eff (1 pm s):

    S_stokes(dW)  = (G_eff/2) [ (1+n-s/2)/(dW^2+G_-^2/4) + (1+n+s/2)/(dW^2+G_+^2/4) ]
    S_anti(dW)    = (G_eff/2) [ (n+s/2)/(dW^2+G_-^2/4)   + (n-s/2)/(dW^2+G_+^2/4) ]

Areas are reported as integrals over dW/2pi, so the Stokes minus anti-Stokes
area difference is exactly 1 (ladder-operator commutator) for every (n, s).
Quadrature spectra are single Lorentzians of width Gamma_+ (squeezed Y) and
Gamma_- (amplified X) at the special angles, two-Lorentzian mixtures
otherwise.  Spectra are even in s: the two components swap.

Grids here are angular offsets (rad/s); PSD values are per (dW/2pi), which
makes them numerically identical to a per-Hz density on an f = dW/2pi grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DerivedRates
from .errors import GridError, InternalConsistencyError


@dataclass(frozen=True)
class Lorentzian:
    """One spectral component; area_weight is its integral over dW/2pi."""

    center: float
    width: float
    area_weight: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")

    def psd(self, omega) -> np.ndarray:
        d = np.asarray(omega, dtype=float) - self.center
        return self.area_weight * self.width / (d * d + self.width**2 / 4)


@dataclass(frozen=True)
class SpectrumModel:
    """Sum of Lorentzians over a flat floor, times a detector gain."""

    components: tuple[Lorentzian, ...]
    floor: float = 0.0
    calibration: float = 1.0

    def __post_init__(self):
        if self.calibration < 0:
            raise ValueError("calibration must be nonnegative")

    def psd(self, omega) -> np.ndarray:
        """Same arithmetic as summing Lorentzian.psd, with (omega - center)^2
        computed once per distinct center and the terms built in place."""
        omega = np.asarray(omega, dtype=float)
        total = np.zeros_like(omega)
        term = np.empty_like(omega)
        d2 = {}
        for c in self.components:
            if c.center not in d2:
                d = np.subtract(omega, c.center, out=np.empty_like(omega))
                d2[c.center] = np.multiply(d, d, out=d)
            np.add(d2[c.center], c.width**2 / 4, out=term)
            total += np.divide(c.area_weight * c.width, term, out=term)
        total *= self.calibration
        total += self.floor
        return total

    def psd_hz(self, freq_hz) -> np.ndarray:
        """Same model sampled on an ordinary-frequency grid (Hz)."""
        return self.psd(2 * math.pi * np.asarray(freq_hz, dtype=float))

    @property
    def component_area_sum(self) -> float:
        return sum(c.area_weight for c in self.components)


@dataclass(frozen=True)
class Ratios:
    """Stokes/anti-Stokes area ratios: thermal (r0), broad (r_plus), narrow (r_minus)."""

    r0: float
    r_plus: float
    r_minus: float


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature angle and its variance in absolute units (sigma0^2 = (2n+1)/4)."""

    theta: float
    variance: float

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError("variance must be positive")


def _component_weights(n_bar: float, s: float, stokes: bool) -> tuple[float, float]:
    """(weight with width Gamma_-, weight with width Gamma_+)."""
    if stokes:
        return 1 + n_bar - s / 2, 1 + n_bar + s / 2
    return n_bar + s / 2, n_bar - s / 2


def sideband_components(
    rates: DerivedRates, n_bar: float, *, stokes: bool, center: float = 0.0
) -> tuple[Lorentzian, Lorentzian]:
    """Two-Lorentzian decomposition of one sideband around `center`."""
    w_minus, w_plus = _component_weights(n_bar, rates.s, stokes)
    return (
        Lorentzian(center, rates.gamma_minus, w_minus / (2 * (1 - rates.s))),
        Lorentzian(center, rates.gamma_plus, w_plus / (2 * (1 + rates.s))),
    )


def stokes_spectrum(rates: DerivedRates, n_bar: float, grid) -> np.ndarray:
    """Stokes sideband PSD on a grid of offsets from the sideband center."""
    d2 = np.asarray(grid, dtype=float) ** 2
    w_minus, w_plus = _component_weights(n_bar, rates.s, stokes=True)
    return (rates.gamma_eff / 2) * (
        w_minus / (d2 + rates.gamma_minus**2 / 4) + w_plus / (d2 + rates.gamma_plus**2 / 4)
    )


def antistokes_spectrum(rates: DerivedRates, n_bar: float, grid) -> np.ndarray:
    """Anti-Stokes sideband PSD; the broad weight n - s/2 may be negative.

    The total stays positive analytically (numerator n*dW^2 + const >= 0);
    a negative sample would mean numerical breakage and raises.
    """
    d2 = np.asarray(grid, dtype=float) ** 2
    w_minus, w_plus = _component_weights(n_bar, rates.s, stokes=False)
    out = (rates.gamma_eff / 2) * (
        w_minus / (d2 + rates.gamma_minus**2 / 4) + w_plus / (d2 + rates.gamma_plus**2 / 4)
    )
    if np.any(out < 0):
        raise InternalConsistencyError("anti-Stokes PSD went negative on the grid")
    return out


def sideband_areas(rates: DerivedRates, n_bar: float) -> tuple[float, float]:
    """Analytic (stokes, anti_stokes) total areas, integral over dW/2pi."""
    s = rates.s
    sw_m, sw_p = _component_weights(n_bar, s, stokes=True)
    aw_m, aw_p = _component_weights(n_bar, s, stokes=False)
    stokes = sw_m / (2 * (1 - s)) + sw_p / (2 * (1 + s))
    anti = aw_m / (2 * (1 - s)) + aw_p / (2 * (1 + s))
    return stokes, anti


def quadrature_spectrum(rates: DerivedRates, n_bar: float, theta: float, grid) -> np.ndarray:
    """Symmetrized spectrum of the quadrature X_theta.

    Built from the analytic transfer coefficients of the rotating-frame
    solution: with w = G_eff/2 - (G_par/2) e^{-i(2 theta + phi)},

        S = [ G_eff (2n+1) (dW^2 + |w|^2) + 2 Re(e^{2 i theta} c_anom (w^2 + dW^2)) ]
            / (4 (dW^2 + G_+^2/4)(dW^2 + G_-^2/4))

    where c_anom is the two-tone noise cross-correlator carried by `rates`.
    At 2 theta + phi = 0 this is S_YY with width Gamma_+, at pi it is S_XX
    with width Gamma_-.
    """
    d = np.asarray(grid, dtype=float)
    d2 = d * d
    w = rates.gamma_eff / 2 - (rates.gamma_par / 2) * np.exp(-1j * (2 * theta + rates.phi))
    diag = rates.gamma_eff * (2 * n_bar + 1) * (d2 + abs(w) ** 2)
    anom = 2 * (np.exp(2j * theta) * rates.anomalous * (w * w + d2)).real
    denom = 4 * (d2 + rates.gamma_plus**2 / 4) * (d2 + rates.gamma_minus**2 / 4)
    return (diag + anom) / denom


def quadrature_variances(n_bar: float, s: float) -> tuple[float, float, float]:
    """(sigma_X^2, sigma_Y^2, sigma_0^2) with sigma_0^2 = (2n+1)/4."""
    sigma0_sq = (2 * n_bar + 1) / 4
    return sigma0_sq / (1 - s), sigma0_sq / (1 + s), sigma0_sq


def quadrature_spec(rates: DerivedRates, n_bar: float, theta: float) -> QuadratureSpec:
    """Exact variance of X_theta by partial-fraction integration of its spectrum.

    With p = Gamma_+/2, m = Gamma_-/2 and J(a2) the integral of
    (dW^2 + a2)/((dW^2+p^2)(dW^2+m^2)) over dW/2pi, the variance is
    [G_eff (2n+1) J(|w|^2) + 2 Re(e^{2i theta} c_anom J(w^2))]/4; at the
    special angles it reduces to sigma_0^2/(1 pm s).
    """
    p = rates.gamma_plus / 2
    m = rates.gamma_minus / 2
    w = rates.gamma_eff / 2 - (rates.gamma_par / 2) * np.exp(-1j * (2 * theta + rates.phi))

    def integral(a_sq):
        if p == m:
            # equal widths: (x^2 + a2)/(x^2 + p^2)^2 integrates to
            # (1/(2p)) (1 + (a2 - p^2)/(2 p^2)) over dW/2pi
            return (1 + (a_sq - p * p) / (2 * p * p)) / (2 * p)
        return ((a_sq - p * p) / (m * m - p * p)) / (2 * p) + (
            (a_sq - m * m) / (p * p - m * m)
        ) / (2 * m)

    diag = rates.gamma_eff * (2 * n_bar + 1) * integral(abs(w) ** 2)
    anom = 2 * (np.exp(2j * theta) * rates.anomalous * integral(w * w)).real
    return QuadratureSpec(theta=theta, variance=(diag + anom) / 4)


def sideband_ratios(n_bar: float, s: float) -> Ratios:
    """Area ratios R0 = (n+1)/n, R+ = (n+1+s/2)/(n-s/2), R- = (n+1-s/2)/(n+s/2).

    R0 is reported infinite at n = 0.  R+ flips sign when s > 2n: the broad
    anti-Stokes component area goes negative (sub-zero-point squeezing).
    """
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if not abs(s) < 1:
        raise ValueError("|s| must be < 1")
    r0 = (n_bar + 1) / n_bar if n_bar > 0 else math.inf
    denom_plus = n_bar - s / 2
    denom_minus = n_bar + s / 2
    r_plus = (n_bar + 1 + s / 2) / denom_plus if denom_plus != 0 else math.inf
    r_minus = (n_bar + 1 - s / 2) / denom_minus if denom_minus != 0 else math.inf
    return Ratios(r0=r0, r_plus=r_plus, r_minus=r_minus)


def squeezing_criterion(n_bar: float, s: float) -> tuple[bool, float]:
    """(squeezed_below_zero_point, margin): true iff s > 2 n_bar.

    Equivalent to sigma_Y^2 < 1/4, i.e. (2n+1)/(1+s) < 1.
    """
    if n_bar < 0:
        raise ValueError("n_bar must be nonnegative")
    if not 0 <= s < 1:
        raise ValueError("s must lie in [0, 1)")
    margin = s - 2 * n_bar
    return margin > 0, margin


def heterodyne_composite(
    rates: DerivedRates,
    n_bar: float,
    delta_lo: float,
    calibration: float,
    floor: float,
    grid,
) -> tuple[SpectrumModel, np.ndarray]:
    """Both motional sidebands on an absolute angular-frequency grid.

    PSD(w) = floor + calibration * [S_stokes(w - W_m - D_lo) + S_anti(w - W_m + D_lo)]
    (Stokes sits above the mechanical frequency, anti-Stokes below).
    """
    if delta_lo <= 0:
        raise ValueError("delta_lo must be positive")
    grid = np.asarray(grid, dtype=float)
    center_stokes = rates.omega_m + delta_lo
    center_anti = rates.omega_m - delta_lo
    if grid.min() > center_anti or grid.max() < center_stokes:
        raise GridError("grid does not span both sideband centers")
    components = sideband_components(
        rates, n_bar, stokes=True, center=center_stokes
    ) + sideband_components(rates, n_bar, stokes=False, center=center_anti)
    model = SpectrumModel(components=components, floor=floor, calibration=calibration)
    return model, model.psd(grid)
