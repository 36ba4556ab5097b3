"""Independent numerical derivation of the spectra.

Two validation routes that fail independently of the closed forms:

* `propagate_spectra` solves the 2x2 rotating-frame linear system bin by bin
  (adjugate over determinant, both computed from the numeric matrix entries
  of each bin, no closed-form substitutions) and contracts the solution with
  the full input correlator matrix, anomalous entries included.
  The raw contraction carries an odd-in-frequency interference term from the
  anomalous correlator; the measurement protocol records symmetrized spectra,
  so the outputs are symmetrized over +/- offsets, after which they must
  agree with the closed forms to rounding error.

* `sde_simulate` integrates the classical envelope equation with
  Euler-Maruyama and isotropic white noise calibrated so that symmetrized
  quadrature spectra match S_XX / S_YY.  Operator ordering (the sideband
  asymmetry) is invisible to a classical trajectory; only symmetrized
  quantities are validated this way.  `welch_psd` is the one averaged-
  periodogram estimator; `synthesizer.segment_average` is its rectangular-
  window, zero-overlap case.

Working memory is bounded by fixed-size chunks (`_CHUNK` samples or bins):
`sde_simulate` draws and filters each quadrature chunk by chunk, carrying
the filter state `zi` across chunks and writing straight into the complex
record, so it holds one record plus two chunks; `quadrature_series` holds
its real result plus one chunk; `welch_psd` transforms blocks of segments of
about one chunk into two reused buffer pairs; `propagate_spectra` solves the
grid slice by slice, as flat arrays of the inverse's entries, into
preallocated outputs.

Two loops use a second core through `_second_core`, one worker thread that
each call creates and joins: `sde_simulate` filters chunk k on it while the
calling thread draws chunk k + 1, and `welch_psd`, for segments of `_CHUNK`
samples or more, tapers and transforms every other segment on it while the
calling thread transforms the one before and sums the periodograms in
segment order.  Every draw and every sum stays on the calling thread, in
serial order.  No thread outlives a call, and `propagate_spectra` stays
serial.  Neither chunking nor threading changes a bit of any result.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import POSITIVE, DerivedRates, SystemParams, check_value
from .data import SpectrumData
from .errors import GridError

_CONDITION_WARN_THRESHOLD = 1e6
# samples (or grid bins) per chunk of the chunked loops below: their working
# memory beyond the result is a few arrays of this length
_CHUNK = 1 << 14


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

    def _off_diagonal(self) -> tuple[complex, complex]:
        half = self.gamma_par / 2
        return half * np.exp(1j * self.phi), half * np.exp(-1j * self.phi)

    def matrix(self, grid) -> np.ndarray:
        d = np.asarray(grid, dtype=float)
        m = np.empty(d.shape + (2, 2), dtype=complex)
        m[..., 0, 0] = -1j * d + self.gamma_eff / 2
        m[..., 1, 1] = -1j * d + self.gamma_eff / 2
        m[..., 0, 1], m[..., 1, 0] = self._off_diagonal()
        return m

    def _diagonal_and_determinant(self, grid) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal entry a of each bin and the determinant a a - m01 m10,
        as arrays of the grid's shape."""
        a = -1j * np.asarray(grid, dtype=float) + self.gamma_eff / 2
        o01, o10 = self._off_diagonal()
        # numpy's array loop forms m01 m10 as it does on stacked entries; the
        # scalar product rounds differently (no fused multiply-add)
        return a, a * a - np.multiply([o01], [o10])[0]

    def determinant(self, grid) -> np.ndarray:
        return self._diagonal_and_determinant(grid)[1]

    def _solve(self, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries (diagonal, upper, lower) of the inverse at each bin: the
        adjugate over the determinant, both formed from the matrix entries.
        The diagonal entry sits at [0, 0] and [1, 1].  Raises LinAlgError where
        a determinant is zero or not finite, as `np.linalg.inv` does for a
        singular matrix."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            a, det = self._diagonal_and_determinant(grid)
        if not np.all(np.isfinite(det) & (det != 0)):
            raise np.linalg.LinAlgError("singular transfer matrix")
        o01, o10 = self._off_diagonal()
        return a / det, -o01 / det, -o10 / det

    def inverse(self, grid) -> np.ndarray:
        """Inverse of the stacked 2x2 systems, shape grid.shape + (2, 2); see
        `_solve`."""
        diagonal, upper, lower = self._solve(grid)
        inv = np.empty(diagonal.shape + (2, 2), dtype=complex)
        inv[..., 0, 0] = inv[..., 1, 1] = diagonal
        inv[..., 0, 1] = upper
        inv[..., 1, 0] = lower
        return inv

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

    stokes: np.ndarray
    antistokes: np.ndarray
    quadratures: dict
    max_condition: float


@dataclass(frozen=True, eq=False)
class EnvelopeTrace:
    """Complex rotating-frame envelope samples at fixed step dt."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=complex))
        check_value("dt", self.dt, POSITIVE)


@contextlib.contextmanager
def _second_core():
    """Yield submit(fn, *args), which starts fn(*args) on the one worker
    thread of a pool that the `with` block creates and joins, and returns a
    function that waits for its result and returns it.  The caller computes
    while fn runs, and no thread outlives the block."""
    # imported here: the package import stays free of concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        yield lambda fn, *args: pool.submit(fn, *args).result


def _contract(left, right, corr: np.ndarray) -> np.ndarray:
    """sum_ij left[i] right[j] M_ij for solution rows given as pairs of arrays."""
    total = np.zeros(left[0].shape, dtype=complex)
    for i in range(2):
        for j in range(2):
            total += left[i] * right[j] * corr[i, j]
    return total


def propagate_spectra(
    rates: DerivedRates,
    correlators: NoiseCorrelators,
    grid,
    thetas: tuple[float, ...] = (),
) -> PropagatedSpectra:
    """Sideband and quadrature spectra by frequency-domain covariance propagation.

    At each offset the 2x2 system is solved (adjugate over determinant, see
    `TransferMatrix.inverse`) and the solution rows are contracted with the
    correlator matrix: T(-dW)[left, :] M T(+dW)[right, :]; quadrature rows are
    (e^{i th} T[0,:] + e^{-i th} T[1,:]) / 2.  Outputs are symmetrized over
    +/- offsets (see module docstring).  The solve runs over slices of the
    grid into preallocated outputs; the condition numbers, and the warning
    on them, cover the whole grid.  |s| < 1 holds: DerivedRates checks it.
    """
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

    def symmetrized(left_pos, right_pos, left_neg, right_neg):
        """Real part of left(-dW) M right(+dW), averaged with the same at dW -> -dW."""
        plus = _contract(left_neg, right_pos, corr).real
        minus = _contract(left_pos, right_neg, corr).real
        return 0.5 * (plus + minus)

    def inverse_rows(offsets):
        """Rows (T[0, :], T[1, :]) of the inverse, each a pair of arrays."""
        diagonal, upper, lower = tm._solve(offsets)
        return (diagonal, upper), (lower, diagonal)

    def quadrature_row(rows, phase):
        return tuple((phase * r0 + np.conj(phase) * r1) / 2 for r0, r1 in zip(*rows))

    stokes, antistokes = np.empty(grid.size), np.empty(grid.size)
    quadratures = {th: np.empty(grid.size) for th in thetas}
    for lo in range(0, grid.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        rows_pos, rows_neg = inverse_rows(grid[part]), inverse_rows(-grid[part])
        for th, quad in quadratures.items():
            phase = np.exp(1j * th)
            v_pos, v_neg = quadrature_row(rows_pos, phase), quadrature_row(rows_neg, phase)
            quad[part] = symmetrized(v_pos, v_pos, v_neg, v_neg)
        stokes[part] = symmetrized(*rows_pos, *rows_neg)
        antistokes[part] = symmetrized(*rows_pos[::-1], *rows_neg[::-1])
    return PropagatedSpectra(
        stokes=stokes,
        antistokes=antistokes,
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
    seed.  |s| < 1 holds (DerivedRates checks it), so both widths are positive.

    Each recurrence runs in chunks: the noise of a chunk is drawn into one of
    two reused buffers and filtered with the state `zi` carried from the
    previous chunk, and the result is written into the real or imaginary part
    of the record.  Every draw happens on the calling thread, in the order of
    one whole-record draw per quadrature (x0 and noise of u, then of v), so
    the samples are bit-identical to it; one worker thread (`_second_core`,
    one for both quadratures) filters chunk k while chunk k + 1 is drawn.
    The working memory is one record plus two chunks.
    """
    # The oracle is the package's only scipy user.  Importing scipy.signal takes
    # 0.87-1.15 s with numpy already loaded (5 runs of -X importtime, 2 cores),
    # so it is imported here and only the oracle's callers pay for it.
    from scipy.signal import lfilter
    if dt * rates.gamma_plus >= 0.1:
        raise ValueError("dt * gamma_plus must stay below 0.1")
    if duration * rates.gamma_minus <= 50:
        raise ValueError("duration must cover > 50 correlation times of the slow quadrature")
    n = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    diffusion = rates.gamma_eff * (2 * n_bar + 1) / 4  # per real quadrature
    beta = np.empty(n, dtype=complex)
    buffers = (np.empty(min(_CHUNK, n)), np.empty(min(_CHUNK, n)))

    def ou_chain(gamma: float, out: np.ndarray, submit) -> None:
        a = 1.0 - gamma * dt / 2
        var_stat = diffusion * dt / (1 - a * a)
        out[0] = x0 = math.sqrt(var_stat) * rng.standard_normal()

        def filtered(lo: int, noise: np.ndarray, zi: np.ndarray) -> np.ndarray:
            out[lo : lo + noise.size], zi = lfilter([1.0], [1.0, -a], noise, zi=zi)
            return zi

        zi, pending = np.array([a * x0]), None
        for k, lo in enumerate(range(1, n, _CHUNK)):
            noise = buffers[k % 2][: min(_CHUNK, n - lo)]
            rng.standard_normal(out=noise)  # while chunk k - 1 is filtered
            noise *= math.sqrt(diffusion * dt)
            if pending is not None:
                zi = pending()
            pending = submit(filtered, lo, noise, zi)
        if pending is not None:
            pending()

    with _second_core() as submit:
        ou_chain(rates.gamma_plus, beta.real, submit)  # squeezed quadrature, width Gamma_+
        ou_chain(rates.gamma_minus, beta.imag, submit)  # amplified quadrature, width Gamma_-
    # the scalar stays on the left, which keeps the samples bit-identical to
    # exp(i phi/2) * (u + i v)
    np.multiply(np.exp(1j * rates.phi / 2), beta, out=beta)
    return EnvelopeTrace(samples=beta, dt=dt)


def quadrature_series(trace: EnvelopeTrace, theta: float) -> np.ndarray:
    """Real quadrature X_theta(t) = Re(e^{i theta} beta(t)) of a trace.

    The complex product is formed one chunk at a time, so the working memory
    beyond the real result is one chunk.
    """
    samples = trace.samples
    c = np.exp(1j * theta)
    out = np.empty(samples.size)
    tmp = np.empty(min(_CHUNK, samples.size), dtype=complex)
    for lo in range(0, samples.size, _CHUNK):
        part = tmp[: min(_CHUNK, samples.size - lo)]
        # the complex multiply of (c * samples).real, scalar on the left; the
        # real form c.real*re - c.imag*im rounds differently (fused multiply-add)
        np.multiply(c, samples[lo : lo + part.size], out=part)
        out[lo : lo + part.size] = part.real
    return out


def welch_psd(
    samples,
    segment_length: int,
    overlap_fraction: float = 0.5,
    window: str = "hann",
    *,
    dt: float,
) -> SpectrumData:
    """Averaged-periodogram PSD estimate (density scaling) of samples at step dt.

    Real samples give a one-sided spectrum (real FFT, every bin but DC and
    Nyquist doubled), complex samples a two-sided one on an ascending grid;
    pass `trace.samples, dt=trace.dt` for an EnvelopeTrace.
    Resolution is 1/(segment duration); n_avg records the number of
    (overlapping) segments averaged.  Segments are tapered and transformed in
    blocks of about `_CHUNK` samples (at least one segment) into two reused
    buffer pairs; segments of `_CHUNK` samples or more alternate between a
    worker thread (`_second_core`) and the calling thread.  The calling
    thread sums the periodograms in segment order, so the result is
    bit-identical to summing one segment at a time, and the working memory
    beyond the output is two blocks and their transforms.
    """
    samples = np.asarray(samples)
    n = samples.size
    segment_length = int(segment_length)
    if segment_length < 2:
        raise GridError("segment_length must be at least 2 samples")
    if segment_length > n:
        raise GridError("segment_length exceeds trace length")
    if not 0 <= overlap_fraction < 1:
        raise ValueError("overlap_fraction must lie in [0, 1)")
    step = max(1, int(round(segment_length * (1 - overlap_fraction))))
    n_seg = 1 + (n - segment_length) // step
    if n_seg < 2:
        raise GridError("need at least 2 averaging segments")

    from scipy.signal import get_window  # here, for sde_simulate's reason
    is_complex = np.iscomplexobj(samples)
    transform = np.fft.fft if is_complex else np.fft.rfft
    taper = get_window(window, segment_length, fftbins=True)
    psd = np.zeros(segment_length if is_complex else segment_length // 2 + 1)
    segments = np.lib.stride_tricks.sliding_window_view(samples, segment_length)[::step]
    per_block = min(n_seg, max(1, _CHUNK // segment_length))  # segments per block
    buffers = [
        (
            np.empty((per_block, segment_length), dtype=np.result_type(samples, taper)),
            np.empty((per_block, psd.size), dtype=complex),
        )
        for _ in range(2)
    ]

    def transformed(first: int) -> np.ndarray:
        """(r)fft of taper x segment for the block of segments from `first`."""
        block = segments[first : first + per_block]
        tapered, spec = (buf[: len(block)] for buf in buffers[first // per_block % 2])
        np.multiply(block, taper, out=tapered)
        return transform(tapered, out=spec)

    def spectra():
        """Block transforms in segment order.  A block of segments shorter than
        `_CHUNK` transforms in about the time a hand-off to the worker takes,
        so those run on the calling thread; otherwise each odd block runs on
        the worker while the caller transforms and yields the even block
        before it."""
        if segment_length < _CHUNK:
            for first in range(0, n_seg, per_block):
                yield transformed(first)
            return
        with _second_core() as submit:
            for first in range(0, n_seg, 2 * per_block):
                second = first + per_block
                odd = submit(transformed, second) if second < n_seg else None
                yield transformed(first)
                if odd is not None:
                    yield odd()

    # squares into one reused array (np.square is the kernel x**2 runs), so the
    # sum allocates nothing while the worker runs
    power = np.empty(psd.size)
    for spec in spectra():
        for row in spec:
            psd += np.square(row.real, out=power)
            psd += np.square(row.imag, out=power)
    psd /= n_seg * np.sum(taper**2) / dt  # density scaling, mean over segments
    if is_complex:
        freq = np.fft.fftshift(np.fft.fftfreq(segment_length, d=dt))
        psd = np.fft.fftshift(psd)
    else:
        freq = np.fft.rfftfreq(segment_length, d=dt)
        nyquist = segment_length % 2 == 0
        psd[1 : psd.size - nyquist] *= 2  # fold in the negative frequencies
    return SpectrumData(
        freq_hz=freq,
        psd=psd,
        n_avg=n_seg,
        meta={"window": window, "overlap": overlap_fraction},
    )
