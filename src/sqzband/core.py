"""Closed-form rates of a mechanical oscillator driven by a two-tone pump.

The pump consists of two tones at omega_L -/+ Omega_m injected into a cavity
detuned by Delta (mean detuning of the pair from cavity resonance).  The
lower tone cools, the pair together modulates the mechanical spring at
2*Omega_m and squeezes one motional quadrature.  Everything here is the
quasi-resonant weak-coupling model: intracavity tone amplitudes, optical
damping, self-consistent resonance shift, parametric rate, Stokes /
anti-Stokes scattering rates and occupancies.

Units: every rate and frequency in this module is angular (rad/s).  The
physics config sections enter in Hz through `SystemParams.from_hz`; the
model-level Hz settings are multiplied by 2*pi where they are read:
`cli._truth_from_config`, `ExperimentTruth.rates_pair` (center_hz),
`DetectionConfig.delta_lo` and the detuning and gamma_eff sweep axes.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import (
    AntiDampingError,
    InternalConsistencyError,
    ParametricInstabilityError,
    SelfConsistencyError,
    StabilityError,
    ZeroPumpError,
)

TWO_PI = 2.0 * math.pi

# exact SI 2019 (CODATA 2018) values, bit-equal to scipy.constants.hbar and .k
hbar = 6.62607015e-34 / (2 * math.pi)  # J s
k_B = 1.380649e-23  # J/K

# relative tolerance for the A- - A+ = Gamma_opt identity check
_IDENTITY_RTOL = 1e-10

# Declared domains for field(metadata=...): finite, and above `low` (or at it unless strict)
FINITE = {"domain": (-math.inf, True)}
POSITIVE = {"domain": (0.0, True)}
NONNEGATIVE = {"domain": (0.0, False)}


def at_least(low) -> dict:
    return {"domain": (low, False)}


def check_value(name: str, value, domain: dict, error=ValueError):
    """`value` if it lies in `domain` (one of the above), else `error` naming it."""
    low, strict = domain["domain"]
    finite = isinstance(value, int) or math.isfinite(value)
    if not (finite and (value > low if strict else value >= low)):
        bound = "" if low == -math.inf else f" and {'>' if strict else '>='} {low:g}"
        raise error(f"{name} must be finite{bound}, got {value}")
    return value


def check_domains(obj, error=ValueError) -> None:
    """Each field of dataclass `obj` that declares a domain, checked."""
    for f in fields(obj):
        if "domain" in f.metadata:
            check_value(f.name, getattr(obj, f.name), f.metadata, error)


@dataclass(frozen=True)
class SystemParams:
    """Static physical parameters (all angular rates, rad/s).

    kappa          cavity linewidth
    kappa_in       input coupling rate (<= kappa)
    g0             single-photon optomechanical coupling
    omega_m0       bare mechanical resonance
    gamma_m        mechanical damping
    delta          mean two-tone detuning from cavity resonance (signed)
    n_th           thermal bath occupancy
    n_extra        additive occupancy for unmodelled back-action (default 0)
    """

    kappa: float = field(metadata=POSITIVE)
    kappa_in: float = field(metadata=POSITIVE)
    g0: float = field(metadata=NONNEGATIVE)
    omega_m0: float = field(metadata=POSITIVE)
    gamma_m: float = field(metadata=POSITIVE)
    delta: float = field(metadata=FINITE)
    n_th: float = field(metadata=NONNEGATIVE)
    n_extra: float = field(default=0.0, metadata=FINITE)

    def __post_init__(self):
        check_domains(self)
        if not self.kappa_in <= self.kappa:
            raise ValueError("kappa_in must not exceed kappa")

    @classmethod
    def from_hz(
        cls,
        *,
        kappa_hz: float,
        g0_hz: float,
        omega_m_hz: float,
        gamma_m_hz: float,
        delta_hz: float,
        kappa_in_hz: float | None = None,
        n_th: float | None = None,
        temperature_k: float | None = None,
        n_extra: float = 0.0,
    ) -> "SystemParams":
        """Build from user-facing Hz values (the physics sections' Hz -> rad/s step).

        kappa_in defaults to kappa/2 (symmetric cavity).  n_th may be given
        directly or through a bath temperature; an explicit n_th wins.
        """
        omega_m0 = TWO_PI * omega_m_hz
        if n_th is None:
            if temperature_k is None:
                raise ValueError("provide n_th or temperature_k")
            n_th = thermal_occupation(temperature_k, omega_m0)
        kappa = TWO_PI * kappa_hz
        kappa_in = kappa / 2.0 if kappa_in_hz is None else TWO_PI * kappa_in_hz
        return cls(
            kappa=kappa,
            kappa_in=kappa_in,
            g0=TWO_PI * g0_hz,
            omega_m0=omega_m0,
            gamma_m=TWO_PI * gamma_m_hz,
            delta=TWO_PI * delta_hz,
            n_th=n_th,
            n_extra=n_extra,
        )


@dataclass(frozen=True)
class PumpConfig:
    """Input tone amplitudes, sqrt(photons/s), complex.

    alpha_in_minus drives at omega_L - Omega_m (cooling side),
    alpha_in_plus at omega_L + Omega_m.
    """

    alpha_in_minus: complex
    alpha_in_plus: complex

    def scaled(self, factor: float) -> "PumpConfig":
        """Both tones scaled by a common real amplitude factor."""
        return PumpConfig(self.alpha_in_minus * factor, self.alpha_in_plus * factor)

    @property
    def total_flux(self) -> float:
        return abs(self.alpha_in_minus) ** 2 + abs(self.alpha_in_plus) ** 2


@dataclass(frozen=True)
class IntracavityField:
    """Steady-state intracavity tone amplitudes and the total coupling.

    Stored: the two amplitudes and g, with g^2 = g0^2 (|alpha_-|^2 + |alpha_+|^2).
    Derived: the cooling-tone share of the intracavity power,
    epsilon_c = |alpha_-|^2 / (|alpha_-|^2 + |alpha_+|^2).
    """

    alpha_minus: complex
    alpha_plus: complex
    g: float

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("g must be >= 0")

    @property
    def epsilon_c(self) -> float:
        p_minus = abs(self.alpha_minus) ** 2
        return p_minus / (p_minus + abs(self.alpha_plus) ** 2)


# the rates whose squares the closed forms take: each square must be finite,
# and nonzero unless the rate is 0; the occupancy's square must be finite
_RATES = ("omega_m", "gamma_opt", "gamma_eff", "gamma_plus", "gamma_minus", "a_minus", "a_plus")


@dataclass(frozen=True)
class DerivedRates:
    """All derived rates for one operating point (angular units).

    Stored: the fields below.  Derived: the sideband widths gamma_plus and
    gamma_minus, gamma_eff (1 +/- s), and the folded s_folded = |s|.
    gamma_par and s are signed (sign follows the detuning); the spectra are
    invariant under s -> -s, so reporting layers fold to |s|.  `anomalous`
    is the coefficient of the two-tone input-noise cross correlator,
    -g0^2 kappa alpha_-^* alpha_+ / (Delta^2 + kappa^2/4).  |s| < 1 is checked
    here only, and dataclasses.replace re-runs the check.
    """

    omega_m: float
    gamma_opt: float
    gamma_eff: float
    gamma_par: float
    phi: float
    s: float
    a_minus: float
    a_plus: float
    n_ba: float | None
    n_bar: float
    anomalous: complex

    def __post_init__(self):
        for name in (*_RATES, "n_bar"):
            value = float(getattr(self, name))  # a float overflows to inf without a warning
            square = value * value
            if not math.isfinite(square) or (square == 0 and value != 0 and name in _RATES):
                raise StabilityError(f"{name} = {value!r}: its square leaves floating-point range")
        if not self.gamma_eff > 0:
            raise AntiDampingError("gamma_eff must be positive")
        if not abs(self.s) < 1:
            raise ParametricInstabilityError(
                f"|s| = {abs(self.s):.4f} >= 1: the system is stable for s < 1"
            )
        # a violation beyond rounding means the two code paths diverged
        scale = max(self.a_minus, self.a_plus)
        gap = abs(self.gamma_opt - (self.a_minus - self.a_plus))
        if scale > 0 and gap > _IDENTITY_RTOL * scale:
            raise InternalConsistencyError("A- - A+ does not reproduce Gamma_opt")

    @property
    def gamma_plus(self) -> float:
        """Width of the broad (squeezed-quadrature) Lorentzian, gamma_eff (1 + s)."""
        return self.gamma_eff * (1 + self.s)

    @property
    def gamma_minus(self) -> float:
        """Width of the narrow (amplified-quadrature) Lorentzian, gamma_eff (1 - s)."""
        return self.gamma_eff * (1 - self.s)

    @property
    def s_folded(self) -> float:
        """|s|: the reported squeezing parameter (spectra are even in s)."""
        return abs(self.s)

    @classmethod
    def from_effective(
        cls,
        gamma_eff: float,
        s: float,
        *,
        phi: float = 0.0,
        omega_m: float = 0.0,
        n_bar: float = 0.0,
        anomalous: complex = 0.0j,
    ) -> "DerivedRates":
        """Model-level rates without a pump behind them.

        Used when the effective width and squeezing parameter are the truth
        values themselves (synthetic campaigns, abstract sweeps).  The
        optical rates are zero, so damping is formally all mechanical.
        """
        return cls(
            omega_m=omega_m,
            gamma_opt=0.0,
            gamma_eff=gamma_eff,
            gamma_par=s * gamma_eff,
            phi=phi,
            s=s,
            a_minus=0.0,
            a_plus=0.0,
            n_ba=None,
            n_bar=n_bar,
            anomalous=anomalous,
        )

    def without_parametric_drive(self) -> "DerivedRates":
        """Same cooling, parametric effect switched off (drive-off emulation)."""
        return replace(self, gamma_par=0.0, s=0.0, anomalous=0.0j)


def thermal_occupation(temperature: float, omega: float) -> float:
    """Bose-Einstein occupancy 1 / (exp(hbar omega / kB T) - 1)."""
    check_value("temperature", temperature, POSITIVE)
    check_value("omega", omega, POSITIVE)
    # expm1 keeps the high-temperature limit accurate (x ~ 1e-6 is typical)
    return 1.0 / math.expm1(hbar * omega / (k_B * temperature))


def intracavity_amplitudes(
    params: SystemParams, pump: PumpConfig, omega_m: float
) -> IntracavityField:
    """Intracavity amplitudes of the two tones at mechanical frequency omega_m.

    alpha_pm = alpha_pm_in sqrt(kappa_in) / (-i(Delta pm Omega_m) + kappa/2)
    """
    check_value("omega_m", omega_m, POSITIVE)
    if pump.total_flux == 0:
        raise ZeroPumpError("zero total pump power: epsilon_c undefined")
    root_kin = math.sqrt(params.kappa_in)
    alpha_minus = pump.alpha_in_minus * root_kin / (
        -1j * (params.delta - omega_m) + params.kappa / 2
    )
    alpha_plus = pump.alpha_in_plus * root_kin / (
        -1j * (params.delta + omega_m) + params.kappa / 2
    )
    total = abs(alpha_minus) ** 2 + abs(alpha_plus) ** 2
    return IntracavityField(alpha_minus, alpha_plus, g=params.g0 * math.sqrt(total))


def _sideband_denominators(kappa: float, delta: float, omega_m: float):
    """(Delta^2 + k^2/4, (Delta - 2 Om)^2 + k^2/4, (Delta + 2 Om)^2 + k^2/4)."""
    quarter = kappa * kappa / 4.0
    return (
        delta * delta + quarter,
        (delta - 2 * omega_m) ** 2 + quarter,
        (delta + 2 * omega_m) ** 2 + quarter,
    )


def optical_damping(params: SystemParams, field: IntracavityField, omega_m: float) -> float:
    """Optical damping Gamma_opt in the quasi-resonant limit.

    Gamma_opt = g^2 kappa [ eps/(D0) - eps/(Dm) + (1-eps)/(Dp) - (1-eps)/(D0) ]
    with D0, Dm, Dp the resonant and 2*Omega_m-shifted Lorentzian denominators.
    """
    d0, dm, dp = _sideband_denominators(params.kappa, params.delta, omega_m)
    eps = field.epsilon_c
    bracket = eps / d0 - eps / dm + (1 - eps) / dp - (1 - eps) / d0
    return field.g**2 * params.kappa * bracket


def _response_sum(params: SystemParams, field: IntracavityField, omega_m: float) -> complex:
    """Complex cavity back-action response at Omega = Omega_m.

    B = |a_-|^2 (d1 - d3) + |a_+|^2 (d2 - d4); Gamma_opt = 2 g0^2 Re B and the
    resonance shift is g0^2 Im B.
    """
    kappa, delta = params.kappa, params.delta
    d1 = 1.0 / (-1j * delta + kappa / 2)
    d3 = 1.0 / (1j * (delta - 2 * omega_m) + kappa / 2)
    d2 = 1.0 / (-1j * (delta + 2 * omega_m) + kappa / 2)
    d4 = 1.0 / (1j * delta + kappa / 2)
    return abs(field.alpha_minus) ** 2 * (d1 - d3) + abs(field.alpha_plus) ** 2 * (d2 - d4)


def _iterate_resonance(
    params: SystemParams, pump: PumpConfig, max_iter: int = 50
) -> tuple[float, int]:
    """Fixed-point solve of the self-consistent resonance; returns (omega, iters)."""
    tol = 1e-6 * params.gamma_m
    omega = params.omega_m0
    for it in range(1, max_iter + 1):
        field = intracavity_amplitudes(params, pump, omega)
        shift = params.g0**2 * _response_sum(params, field, omega).imag
        new = params.omega_m0 + shift
        if new <= 0:
            raise SelfConsistencyError(
                "spring shift drives the resonance to a non-positive frequency: "
                "outside weak-coupling validity"
            )
        if abs(new - omega) < tol:
            return new, it
        omega = new
    raise SelfConsistencyError(
        f"no convergence in {max_iter} iterations: outside weak-coupling validity"
    )


def self_consistent_frequency(params: SystemParams, pump: PumpConfig) -> float:
    """Effective resonance Omega_m solving the spring-shift equation.

    Plain fixed-point iteration; the contraction factor is ~(g/kappa)^2 in
    the weak-coupling regime, so a handful of iterations suffice.
    """
    omega, _ = _iterate_resonance(params, pump)
    return omega


def parametric_rate(
    params: SystemParams, field: IntracavityField, omega_m: float
) -> tuple[float, float]:
    """(Gamma_par, phi): spring-modulation rate and its phase.

    Gamma_par = 4 g^2 sqrt(eps(1-eps)) Delta / (Delta^2 + kappa^2/4),
    phi = pi/2 + arg(alpha_-^* alpha_+).  Gamma_par carries the sign of
    Delta and vanishes for a single tone or for Delta = 0.
    """
    d0, _, _ = _sideband_denominators(params.kappa, params.delta, omega_m)
    eps = field.epsilon_c
    gamma_par = 4 * field.g**2 * math.sqrt(eps * (1 - eps)) * params.delta / d0
    phi = math.pi / 2 + cmath.phase(field.alpha_minus.conjugate() * field.alpha_plus)
    return gamma_par, phi


def scattering_rates(
    params: SystemParams, field: IntracavityField, omega_m: float
) -> tuple[float, float]:
    """Stokes / anti-Stokes rates (A-, A+) of the two tones combined.

    A- = g0^2 kappa [ |a_-|^2/D0 + |a_+|^2/Dp ]
    A+ = g0^2 kappa [ |a_-|^2/Dm + |a_+|^2/D0 ]
    DerivedRates checks that the difference reproduces Gamma_opt.
    """
    d0, dm, dp = _sideband_denominators(params.kappa, params.delta, omega_m)
    gk = params.g0**2 * params.kappa
    p_minus = abs(field.alpha_minus) ** 2
    p_plus = abs(field.alpha_plus) ** 2
    a_minus = gk * (p_minus / d0 + p_plus / dp)
    a_plus = gk * (p_minus / dm + p_plus / d0)
    return a_minus, a_plus


def occupancy(
    params: SystemParams, *, gamma_eff: float, a_plus: float, gamma_opt: float
) -> tuple[float | None, float]:
    """(n_BA, n_bar) for the cooled oscillator without parametric drive.

    n_bar = (Gamma_m n_th + A+) / Gamma_eff (+ n_extra); this form is the
    back-action expression Gamma_opt n_BA / Gamma_eff with n_BA = A+/Gamma_opt
    rewritten to stay finite at Gamma_opt = 0.  n_BA is only reported when
    Gamma_opt is nonzero.
    """
    if gamma_eff <= 0:
        raise AntiDampingError(
            f"gamma_eff = {gamma_eff:.3e} rad/s <= 0: pump anti-damps the oscillator"
        )
    n_bar = (params.gamma_m * params.n_th + a_plus) / gamma_eff + params.n_extra
    n_ba = a_plus / gamma_opt if gamma_opt != 0 else None
    return n_ba, n_bar


@contextmanager
def in_float_range():
    """numpy's overflow, divide and invalid raised; any ArithmeticError a StabilityError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError as exc:
        raise StabilityError(f"the closed forms leave floating-point range: {exc}") from None


def derive_all(params: SystemParams, pump: PumpConfig) -> DerivedRates:
    """Complete set of derived rates; DerivedRates enforces the stability checks,
    and closed forms that leave floating-point range raise StabilityError."""
    with in_float_range():
        omega_m = self_consistent_frequency(params, pump)
        field = intracavity_amplitudes(params, pump, omega_m)
        gamma_opt = optical_damping(params, field, omega_m)
        gamma_eff = params.gamma_m + gamma_opt
        gamma_par, phi = parametric_rate(params, field, omega_m)
        a_minus, a_plus = scattering_rates(params, field, omega_m)
        # occupancy raises AntiDampingError for gamma_eff <= 0, before the division
        n_ba, n_bar = occupancy(params, gamma_eff=gamma_eff, a_plus=a_plus, gamma_opt=gamma_opt)
        s = gamma_par / gamma_eff
        d0, _, _ = _sideband_denominators(params.kappa, params.delta, omega_m)
        anomalous = (
            -params.g0**2 * params.kappa * field.alpha_minus.conjugate() * field.alpha_plus / d0
        )
        return DerivedRates(
            omega_m=omega_m,
            gamma_opt=gamma_opt,
            gamma_eff=gamma_eff,
            gamma_par=gamma_par,
            phi=phi,
            s=s,
            a_minus=a_minus,
            a_plus=a_plus,
            n_ba=n_ba,
            n_bar=n_bar,
            anomalous=anomalous,
        )
