"""Correctness checks on the benchmark's outputs.

Each check returns a list of problems; an empty list means correct.  The
fixed bounds are the acceptance criteria's (tests/test_acceptance.py),
unchanged; the synthesizer's noise check uses standard errors instead.
"""

from __future__ import annotations

import math

import numpy as np

BIAS_MEAN = (0.005, 0.03)  # criterion 6
BIAS_STD = (0.01, 0.04)  # criterion 6
ORACLE_RTOL = 1e-9  # criterion 1
SDE_WIDTH_RTOL = 0.05  # criterion 9
# a replay of the same trials agrees to rounding, not bit for bit: the same
# seed gives fits that differ in the last digits with earlier BLAS work
REPLAY_RTOL = 1e-9
PARSEVAL_RTOL = 1e-9


def bias_report(report) -> list[str]:
    problems = []
    if not report.valid:
        problems.append(f"bias: {report.n_failed}/{report.n_trials} trials failed")
    if not BIAS_MEAN[0] <= report.mean_s <= BIAS_MEAN[1]:
        problems.append(f"bias: mean_s {report.mean_s:.5f} outside {BIAS_MEAN}")
    if not BIAS_STD[0] <= report.std_s <= BIAS_STD[1]:
        problems.append(f"bias: std_s {report.std_s:.5f} outside {BIAS_STD}")
    if not report.skewness_s > 0:
        problems.append(f"bias: skewness {report.skewness_s:.3f} is not positive")
    return problems


def periodogram_noise(label: str, psd, expected, n_avg: int, n_sigma: float = 6.0) -> list[str]:
    """psd / expected over all bins is Gamma(n_avg, 1/n_avg) noise: its mean is
    1 and its variance 1/n_avg, each within n_sigma standard errors."""
    ratio = np.asarray(psd, dtype=float) / np.asarray(expected, dtype=float)
    n, k = ratio.size, float(n_avg)
    mean, var = float(ratio.mean()), float(ratio.var(ddof=1))
    mean_tol = n_sigma / math.sqrt(k * n)
    var_tol = n_sigma * math.sqrt((2 * k + 6) / (k**3 * n))  # from the 4th central moment
    problems = []
    if not abs(mean - 1) <= mean_tol:
        problems.append(f"{label}: mean psd/model {mean:.5f} not within {mean_tol:.5f} of 1")
    if not abs(var - 1 / k) <= var_tol:
        problems.append(f"{label}: variance of psd/model {var:.5f} not within {var_tol:.5f} of 1/{n_avg}")
    return problems


def same_arrays(label: str, got: dict, expected: dict) -> list[str]:
    """Exact equality of {name: array} maps."""
    if sorted(got) != sorted(expected):
        return [f"{label}: arrays {sorted(got)} != {sorted(expected)}"]
    return [
        f"{label}: {name} differs"
        for name in sorted(got)
        if not np.array_equal(got[name], expected[name])
    ]


def same_values(label: str, got, expected, rtol: float = REPLAY_RTOL) -> list[str]:
    got, expected = list(got), list(expected)
    if len(got) != len(expected):
        return [f"{label}: {len(got)} values, expected {len(expected)}"]
    for i, (a, b) in enumerate(zip(got, expected)):
        if not math.isclose(a, b, rel_tol=rtol, abs_tol=0.0):
            return [f"{label}: value {i} is {a!r}, expected {b!r} (rtol {rtol})"]
    return []


def identical_files(label: str, got: dict, expected: dict) -> list[str]:
    """Byte equality of {file name: bytes} maps."""
    if sorted(got) != sorted(expected):
        return [f"{label}: files {sorted(got)} != {sorted(expected)}"]
    return [f"{label}: {name} differs" for name in sorted(got) if got[name] != expected[name]]


def closed_forms(pairs) -> list[str]:
    """(label, numeric, closed form) triples agree to criterion 1's tolerance."""
    problems = []
    for label, numeric, closed in pairs:
        worst = float(np.max(np.abs(numeric - closed) / np.abs(closed)))
        if not worst < ORACLE_RTOL:
            problems.append(f"oracle: {label} deviates by {worst:.2e} (>= {ORACLE_RTOL})")
    return problems


def sde_widths(fitted: dict, expected: dict) -> list[str]:
    """Mean fitted width per quadrature within criterion 9's 5 %."""
    problems = []
    for label, widths in fitted.items():
        mean = float(np.mean(widths))
        if not abs(mean / expected[label] - 1) <= SDE_WIDTH_RTOL:
            problems.append(
                f"oracle: {label} width {mean:.2f} Hz vs {expected[label]:.2f} Hz "
                f"over {len(widths)} traces (> {SDE_WIDTH_RTOL:.0%})"
            )
    return problems


def squeezed(var_squeezed: float, var_amplified: float) -> list[str]:
    if not var_squeezed < var_amplified:
        return [
            f"oracle: lock-in squeezed variance {var_squeezed:.4g} not below "
            f"amplified {var_amplified:.4g}"
        ]
    return []


def parseval(power_from_psd: float, mean_square: float) -> list[str]:
    if not math.isclose(power_from_psd, mean_square, rel_tol=PARSEVAL_RTOL):
        return [
            f"oracle: segment-average power {power_from_psd!r} != mean square "
            f"{mean_square!r}"
        ]
    return []
