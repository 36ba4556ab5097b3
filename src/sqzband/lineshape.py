"""Closed-form motional-sideband and quadrature spectra.

Each motional sideband is a sum of two Lorentzians with common center and
widths Gamma_pm = Gamma_eff (1 pm s):

    S_stokes(dW)  = (G_eff/2) [ (1+n-s/2)/(dW^2+G_-^2/4) + (1+n+s/2)/(dW^2+G_+^2/4) ]
    S_anti(dW)    = (G_eff/2) [ (n+s/2)/(dW^2+G_-^2/4)   + (n-s/2)/(dW^2+G_+^2/4) ]

Areas are reported as integrals over dW/2pi, so the Stokes minus anti-Stokes
area difference is exactly 1 (ladder-operator commutator) for every (n, s).
Quadrature spectra are single Lorentzians of width Gamma_+ (squeezed Y) and
Gamma_- (amplified X) at the special angles, two-Lorentzian mixtures
otherwise; `quadrature_variances` gives the variances at the two special
angles, the only ones sqzband reports.  Spectra are even in s: the two
components swap.

Grids here are angular offsets (rad/s); PSD values are per (dW/2pi), which
makes them numerically identical to a per-Hz density on an f = dW/2pi grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import NONNEGATIVE, POSITIVE, DerivedRates, check_value
from .errors import GridError, InternalConsistencyError


def lorentzian(d2, width, weight, out=None) -> np.ndarray:
    """weight / (d2 + width^2/4) at squared offsets d2, written into `out`
    when one is given.

    The one Lorentzian kernel: its integral over the offset is
    2 pi weight / width, so weight = area * width gives the per-dW/2pi
    components below and weight = width/2pi the fitter's unit-area lines
    on a Hz grid.
    """
    den = np.add(d2, width * width / 4, out=out)
    # a scalar d2 gives a numpy scalar, which cannot hold the quotient
    return np.divide(weight, den, out=den if isinstance(den, np.ndarray) else None)


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
        return lorentzian(d * d, self.width, self.area_weight * self.width)


@dataclass(frozen=True)
class Ratios:
    """Stokes/anti-Stokes area ratios: thermal (r0), broad (r_plus), narrow (r_minus)."""

    r0: float
    r_plus: float
    r_minus: float


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


def _sideband_psd(rates: DerivedRates, n_bar: float, grid, stokes: bool) -> np.ndarray:
    """(G_eff/2) [w_-/(dW^2+G_-^2/4) + w_+/(dW^2+G_+^2/4)] on a grid of offsets."""
    d2 = np.asarray(grid, dtype=float) ** 2
    w_minus, w_plus = _component_weights(n_bar, rates.s, stokes)
    return (rates.gamma_eff / 2) * (
        lorentzian(d2, rates.gamma_minus, w_minus) + lorentzian(d2, rates.gamma_plus, w_plus)
    )


def stokes_spectrum(rates: DerivedRates, n_bar: float, grid) -> np.ndarray:
    """Stokes sideband PSD on a grid of offsets from the sideband center."""
    return _sideband_psd(rates, n_bar, grid, stokes=True)


def antistokes_spectrum(rates: DerivedRates, n_bar: float, grid) -> np.ndarray:
    """Anti-Stokes sideband PSD; the broad weight n - s/2 may be negative.

    The total stays positive analytically (numerator n*dW^2 + const >= 0);
    a negative sample would mean numerical breakage and raises.
    """
    out = _sideband_psd(rates, n_bar, grid, stokes=False)
    if np.any(out < 0):
        raise InternalConsistencyError("anti-Stokes PSD went negative on the grid")
    return out


def sideband_areas(rates: DerivedRates, n_bar: float) -> tuple[float, float]:
    """Analytic (stokes, anti_stokes) total areas, integral over dW/2pi: the
    summed area weights of each side's `sideband_components`."""
    return tuple(
        sum(c.area_weight for c in sideband_components(rates, n_bar, stokes=side))
        for side in (True, False)
    )


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
    # Stokes over anti-Stokes weight of each width (Gamma_- narrow, Gamma_+ broad)
    pairs = zip(_component_weights(n_bar, s, True), _component_weights(n_bar, s, False))
    r_minus, r_plus = (stokes / anti if anti != 0 else math.inf for stokes, anti in pairs)
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
) -> tuple[tuple[Lorentzian, ...], np.ndarray]:
    """(components, PSD) of both motional sidebands on an absolute angular-frequency grid.

    PSD(w) = floor + calibration * [S_stokes(w - W_m - D_lo) + S_anti(w - W_m + D_lo)]
    (Stokes sits above the mechanical frequency, anti-Stokes below); the
    components are each side's `sideband_components`, Stokes first.
    """
    check_value("delta_lo", delta_lo, POSITIVE)
    check_value("calibration", calibration, NONNEGATIVE)
    grid = np.asarray(grid, dtype=float)
    center_stokes = rates.omega_m + delta_lo
    center_anti = rates.omega_m - delta_lo
    if grid.min() > center_anti or grid.max() < center_stokes:
        raise GridError("grid does not span both sideband centers")
    components = sideband_components(rates, n_bar, stokes=True, center=center_stokes)
    components += sideband_components(rates, n_bar, stokes=False, center=center_anti)
    total = sum((c.psd(grid) for c in components), np.zeros_like(grid))
    return components, floor + calibration * total
