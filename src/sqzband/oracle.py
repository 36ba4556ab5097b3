"""Independent numerical derivation of the spectra.

Two validation routes that fail independently of the closed forms:

* `propagate_spectra` solves the 2x2 rotating-frame linear system bin by bin
  (numeric matrix inversion, no closed-form substitutions) and contracts the
  solution with the full input correlator matrix, anomalous entries included.
  The raw contraction carries an odd-in-frequency interference term from the
  anomalous correlator; the measurement protocol records symmetrized spectra,
  so the outputs are symmetrized over +/- offsets, after which they must
  agree with the closed forms to rounding error.

* `sde_simulate` integrates the classical envelope equation with
  Euler-Maruyama and isotropic white noise calibrated so that symmetrized
  quadrature spectra match S_XX / S_YY.  Operator ordering (the sideband
  asymmetry) is invisible to a classical trajectory; only symmetrized
  quantities are validated this way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import get_window, lfilter

from .core import DerivedRates, SystemParams
from .data import SpectrumData
from .errors import GridError, ParametricInstabilityError

_CONDITION_WARN_THRESHOLD = 1e6


class IllConditionedWarning(UserWarning):
    """2x2 system close to singular (|s| -> 1 near zero offset)."""


@dataclass(frozen=True)
class TransferMatrix:
    """Rotating-frame system matrix: diagonal -i dW + G_eff/2, off-diagonal
    (G_par/2) e^{+/- i phi}.  Its determinant factorizes as
    (-i dW + G_+/2)(-i dW + G_-/2)."""

    gamma_eff: float
    gamma_par: float
    phi: float

    def matrix(self, grid) -> np.ndarray:
        d = np.asarray(grid, dtype=float)
        m = np.empty(d.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = -1j * d + self.gamma_eff / 2
        m[..., 1, 1] = -1j * d + self.gamma_eff / 2
        m[..., 0, 1] = (self.gamma_par / 2) * np.exp(1j * self.phi)
        m[..., 1, 0] = (self.gamma_par / 2) * np.exp(-1j * self.phi)
        return m

    def determinant(self, grid) -> np.ndarray:
        m = self.matrix(grid)
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]

    def inverse(self, grid) -> np.ndarray:
        """Numeric inverse of the stacked 2x2 systems."""
        return np.linalg.inv(self.matrix(grid))

    def condition_numbers(self, grid) -> np.ndarray:
        """Exact 2-norm condition number (the matrix is normal, so the
        singular values are |-i dW + G_pm/2|)."""
        d = np.asarray(grid, dtype=float)
        gp = abs(self.gamma_eff + self.gamma_par) / 2
        gm = abs(self.gamma_eff - self.gamma_par) / 2
        sv_p = np.hypot(d, gp)
        sv_m = np.hypot(d, gm)
        return np.maximum(sv_p, sv_m) / np.minimum(sv_p, sv_m)

    @classmethod
    def from_rates(cls, rates: DerivedRates) -> "TransferMatrix":
        return cls(gamma_eff=rates.gamma_eff, gamma_par=rates.gamma_par, phi=rates.phi)


@dataclass(frozen=True)
class NoiseCorrelators:
    """Flat input-noise correlator coefficients in the rotating frame.

    c_bbdag multiplies <b_in b_in^dag>, c_bdagb multiplies <b_in^dag b_in>,
    c_anom the two-tone cross correlator <b_in b_in>.  Consistency with the
    damping identity requires c_bbdag - c_bdagb = Gamma_m + Gamma_opt
    = Gamma_eff (the oscillator commutator is preserved); equivalently
    c_bbdag = Gamma_eff (n_bar + 1) and c_bdagb = Gamma_eff n_bar.
    """

    c_bbdag: float
    c_bdagb: float
    c_anom: complex

    def __post_init__(self):
        if self.c_bbdag < 0 or self.c_bdagb < 0:
            raise ValueError("diagonal correlators must be nonnegative")

    @classmethod
    def from_params(cls, params: SystemParams, rates: DerivedRates) -> "NoiseCorrelators":
        """Physical correlators from bath + back-action rates.

        The anti-Stokes rate A- feeds the emission-capable correlator and the
        Stokes rate A+ the absorption one; any n_extra enters both sides as
        extra white occupancy at the effective damping rate.
        """
        extra = rates.gamma_eff * params.n_extra
        return cls(
            c_bbdag=params.gamma_m * (params.n_th + 1) + rates.a_minus + extra,
            c_bdagb=params.gamma_m * params.n_th + rates.a_plus + extra,
            c_anom=rates.anomalous,
        )

    @classmethod
    def from_occupancy(
        cls, gamma_eff: float, n_bar: float, anomalous: complex = 0.0j
    ) -> "NoiseCorrelators":
        """Model-level correlators for a stated steady occupancy."""
        return cls(
            c_bbdag=gamma_eff * (n_bar + 1),
            c_bdagb=gamma_eff * n_bar,
            c_anom=anomalous,
        )

    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.c_anom, self.c_bbdag], [self.c_bdagb, np.conj(self.c_anom)]]
        )


@dataclass(frozen=True)
class PropagatedSpectra:
    """Output bundle of `propagate_spectra` (symmetrized, real arrays)."""

    grid: np.ndarray
    stokes: np.ndarray
    antistokes: np.ndarray
    quadratures: dict
    max_condition: float


@dataclass(frozen=True, eq=False)
class EnvelopeTrace:
    """Complex rotating-frame envelope samples at fixed step dt."""

    samples: np.ndarray
    dt: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def duration(self) -> float:
        return self.samples.size * self.dt

    def to_binary(self, path) -> None:
        """Small text header, then little-endian interleaved (re, im) float64."""
        path = Path(path)
        header = f"sqzband-trace dt={self.dt!r} seed={self.seed} length={self.samples.size}\n"
        inter = np.empty(2 * self.samples.size, dtype="<f8")
        inter[0::2] = self.samples.real
        inter[1::2] = self.samples.imag
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(inter.tobytes())

    @classmethod
    def from_binary(cls, path) -> "EnvelopeTrace":
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            fields = dict(item.split("=") for item in header[1:])
            raw = np.frombuffer(fh.read(), dtype="<f8")
        samples = raw[0::2] + 1j * raw[1::2]
        if samples.size != int(fields["length"]):
            raise ValueError("trace length does not match header")
        return cls(samples=samples, dt=float(fields["dt"]), seed=int(fields["seed"]))


def _contract(tr_neg, tr_pos, corr, row_left: int, row_right: int) -> np.ndarray:
    """sum_ij T(-dW)[left,i] T(+dW)[right,j] M_ij for stacked transfer arrays."""
    total = np.zeros(tr_pos.shape[0], dtype=complex)
    for i in range(2):
        for j in range(2):
            total += tr_neg[:, row_left, i] * tr_pos[:, row_right, j] * corr[i, j]
    return total


def propagate_spectra(
    rates: DerivedRates,
    correlators: NoiseCorrelators,
    grid,
    thetas: tuple[float, ...] = (),
) -> PropagatedSpectra:
    """Sideband and quadrature spectra by frequency-domain covariance propagation.

    For each offset the 2x2 system is inverted numerically and the solution
    rows are contracted with the correlator matrix; quadrature rows are
    (e^{i th} T[0,:] + e^{-i th} T[1,:]) / 2.  Outputs are symmetrized over
    +/- offsets (see module docstring).
    """
    if not abs(rates.s) < 1:
        raise ParametricInstabilityError("|s| must be < 1")
    grid = np.asarray(grid, dtype=float)
    tm = TransferMatrix.from_rates(rates)
    cond = tm.condition_numbers(grid)
    max_cond = float(cond.max()) if cond.size else 1.0
    if max_cond > _CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"transfer matrix condition number {max_cond:.2e} near instability",
            IllConditionedWarning,
            stacklevel=2,
        )
    corr = correlators.matrix()

    def one_sign(tr_pos, tr_neg):
        stokes = _contract(tr_neg, tr_pos, corr, 0, 1).real
        anti = _contract(tr_neg, tr_pos, corr, 1, 0).real
        quads = {}
        for th in thetas:
            phase = np.exp(1j * th)
            v_pos = (phase * tr_pos[:, 0, :] + np.conj(phase) * tr_pos[:, 1, :]) / 2
            v_neg = (phase * tr_neg[:, 0, :] + np.conj(phase) * tr_neg[:, 1, :]) / 2
            total = np.zeros(grid.size, dtype=complex)
            for i in range(2):
                for j in range(2):
                    total += v_neg[:, i] * v_pos[:, j] * corr[i, j]
            quads[th] = total.real
        return stokes, anti, quads

    inv_pos, inv_neg = tm.inverse(grid), tm.inverse(-grid)
    s_p, a_p, q_p = one_sign(inv_pos, inv_neg)
    s_m, a_m, q_m = one_sign(inv_neg, inv_pos)
    del inv_pos, inv_neg
    quadratures = {th: 0.5 * (q_p[th] + q_m[th]) for th in thetas}
    return PropagatedSpectra(
        grid=grid,
        stokes=0.5 * (s_p + s_m),
        antistokes=0.5 * (a_p + a_m),
        quadratures=quadratures,
        max_condition=max_cond,
    )


def sde_simulate(
    rates: DerivedRates, n_bar: float, duration: float, dt: float, seed: int
) -> EnvelopeTrace:
    """Euler-Maruyama trajectory of the classical envelope.

    d beta = [-(G_eff/2) beta - (G_par/2) e^{i phi} beta*] dt + dW with
    isotropic complex noise of intensity G_eff (2n+1)/2 per quadrature pair.
    In the frame rotated by phi/2 the two real quadratures decouple into
    AR(1) recurrences with poles (1 - G_pm dt/2), which is what is evaluated
    (identical arithmetic to the naive step loop, vectorized).  The chain
    starts from its discrete stationary distribution.  Deterministic per
    seed.
    """
    if not abs(rates.s) < 1:
        raise ParametricInstabilityError("unstable parameters rejected before integration")
    if dt * rates.gamma_plus >= 0.1:
        raise ValueError("dt * gamma_plus must stay below 0.1")
    if duration * rates.gamma_minus <= 50:
        raise ValueError("duration must cover > 50 correlation times of the slow quadrature")
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    diffusion = rates.gamma_eff * (2 * n_bar + 1) / 4  # per real quadrature

    def ou_chain(gamma: float) -> np.ndarray:
        a = 1.0 - gamma * dt / 2
        var_stat = diffusion * dt / (1 - a * a)
        x0 = math.sqrt(var_stat) * rng.standard_normal()
        noise = math.sqrt(diffusion * dt) * rng.standard_normal(n - 1)
        rest, _ = lfilter([1.0], [1.0, -a], noise, zi=np.array([a * x0]))
        return np.concatenate(([x0], rest))

    u = ou_chain(rates.gamma_plus)  # squeezed quadrature, width Gamma_+
    v = ou_chain(rates.gamma_minus)  # amplified quadrature, width Gamma_-
    beta = np.exp(1j * rates.phi / 2) * (u + 1j * v)
    return EnvelopeTrace(samples=beta, dt=dt, seed=seed)


def quadrature_series(trace: EnvelopeTrace, theta: float) -> np.ndarray:
    """Real quadrature X_theta(t) = Re(e^{i theta} beta(t)) of a trace."""
    return (np.exp(1j * theta) * trace.samples).real


def welch_psd(
    trace,
    segment_length: int,
    overlap_fraction: float = 0.5,
    window: str = "hann",
    dt: float | None = None,
) -> SpectrumData:
    """Averaged-periodogram PSD estimate (density scaling).

    Accepts an EnvelopeTrace or a plain array with explicit dt.  Real input
    gives a one-sided spectrum, complex input a two-sided one on an
    ascending grid.  Resolution is 1/(segment duration); n_avg records the
    number of (overlapping) segments averaged.
    """
    if isinstance(trace, EnvelopeTrace):
        samples, dt = trace.samples, trace.dt
    else:
        samples = np.asarray(trace)
        if dt is None:
            raise ValueError("dt required for plain arrays")
    n = samples.size
    segment_length = int(segment_length)
    if segment_length > n:
        raise GridError("segment_length exceeds trace length")
    if not 0 <= overlap_fraction < 1:
        raise ValueError("overlap_fraction must lie in [0, 1)")
    step = max(1, int(round(segment_length * (1 - overlap_fraction))))
    n_seg = 1 + (n - segment_length) // step
    if n_seg < 2:
        raise GridError("need at least 2 averaging segments")

    is_complex = np.iscomplexobj(samples)
    fs = 1.0 / dt
    taper = get_window(window, segment_length, fftbins=True)
    norm = fs * np.sum(taper**2)
    psd_sum = None
    for k in range(n_seg):
        seg = samples[k * step : k * step + segment_length] * taper
        spec = np.fft.fft(seg)
        p = (spec * np.conj(spec)).real / norm
        psd_sum = p if psd_sum is None else psd_sum + p
    psd = psd_sum / n_seg
    freq = np.fft.fftfreq(segment_length, d=dt)
    if is_complex:
        freq, psd = np.fft.fftshift(freq), np.fft.fftshift(psd)
    else:
        half = segment_length // 2 + 1
        freq = freq[:half].copy()
        psd = psd[:half].copy()
        if segment_length % 2 == 0:
            freq[-1] = -freq[-1]  # Nyquist bin, reported positive
            psd[1:-1] *= 2
        else:
            psd[1:] *= 2
    psd = np.clip(psd, 0.0, None)
    return SpectrumData(
        freq_hz=freq,
        psd=psd,
        n_avg=n_seg,
        meta={"window": window, "overlap": overlap_fraction},
    )
