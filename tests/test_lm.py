"""The Levenberg-Marquardt loop against MINPACK's lmder as scipy runs it."""

import math

import numpy as np
import pytest
from scipy.optimize import least_squares

from conftest import PAPER_CONFIG, TWO_PI
from sqzband import fitter
from sqzband.cli import _truth_from_config
from sqzband.config import load_config
from sqzband.fitter import ExperimentTruth, fit_pair_two_stage
from sqzband.lm import LMResult, levenberg_marquardt
from sqzband.seeding import task_seed
from sqzband.synthesizer import DetectionConfig, synth_onoff_from_rates

TOLS = dict(ftol=1e-9, xtol=1e-12, gtol=1e-10)


class Decay:
    """r(x) = x0 exp(-x1 t) + x2 - y on a noisy decay curve."""

    def __init__(self, nan_above=math.inf):
        self.t = np.linspace(0.0, 4.0, 200)
        noise = 0.01 * np.random.default_rng(5).standard_normal(self.t.size)
        self.y = 2.0 * np.exp(-1.3 * self.t) + 0.5 + noise
        self.nan_above = nan_above

    def residual(self, x):
        self.x, self.e = x, np.exp(-x[1] * self.t)
        r = x[0] * self.e + x[2] - self.y
        return r if x[1] <= self.nan_above else r * np.nan

    def jacobian(self):
        return np.array([self.e, -self.x[0] * self.t * self.e, np.ones_like(self.t)])


def scipy_lm(problem, x, *, max_nfev, **_):
    """least_squares(method="lm") on the same problem, as an LMResult."""

    def jac(theta):
        problem.residual(theta)
        return problem.jacobian().T

    res = least_squares(
        problem.residual, x, jac=jac, method="lm", x_scale="jac", max_nfev=max_nfev, **TOLS
    )
    return LMResult(res.x, problem.residual(res.x), res.nfev, bool(res.success))


class TestAgainstMinpack:
    @pytest.mark.parametrize("x0", [(1.0, 1.0, 0.0), (0.5, 3.0, 0.0), (1.0, 3.0, -2.0)])
    def test_same_path_as_lmder(self, x0):
        # the far starts take damped (par > 0) steps
        ours = levenberg_marquardt(Decay(), np.array(x0), max_nfev=500, **TOLS)
        ref = scipy_lm(Decay(), np.array(x0), max_nfev=500)
        assert ours.converged and ref.converged
        assert ours.nfev == ref.nfev
        np.testing.assert_allclose(ours.x, ref.x, rtol=1e-9)

    def test_budget_exhausted_is_not_converged(self):
        ours = levenberg_marquardt(Decay(), np.array([1.0, 3.0, -2.0]), max_nfev=3, **TOLS)
        ref = scipy_lm(Decay(), np.array([1.0, 3.0, -2.0]), max_nfev=3)
        assert ours.nfev == ref.nfev == 3
        assert not ours.converged and not ref.converged
        np.testing.assert_allclose(ours.x, ref.x, rtol=1e-9)

    def test_non_finite_trial_is_rejected(self):
        # the optimum (x1 = 1.3) lies beyond the region with a finite residual
        result = levenberg_marquardt(
            Decay(nan_above=1.0), np.array([1.0, 0.5, 0.0]), max_nfev=500, **TOLS
        )
        assert result.converged
        assert result.x[1] <= 1.0 and np.isfinite(result.resid).all()

    def test_non_finite_start_is_not_converged(self):
        result = levenberg_marquardt(
            Decay(nan_above=1.0), np.array([1.0, 2.0, 0.0]), max_nfev=500, **TOLS
        )
        assert not result.converged and result.nfev == 1


def _truth(name):
    if name == "paper.ini":
        return _truth_from_config(load_config(PAPER_CONFIG))
    det = DetectionConfig(delta_lo_hz=1.1e3, band_halfwidth_hz=300.0, snr=30.0, n_avg=10)
    return ExperimentTruth(
        gamma_eff=TWO_PI * 100.0, s=0.53, n_bar=5.8, center_hz=530e3, detection=det
    )


@pytest.mark.parametrize("name", ["paper.ini", "criterion 7"])
def test_fits_match_scipy_least_squares(monkeypatch, name):
    # the two-stage fit with scipy's lmder in place of the loop, on the same
    # reduced residual and Kaufman Jacobian
    truth = _truth(name)
    rates_on, rates_off = truth.rates_pair()
    pairs = [
        synth_onoff_from_rates(
            rates_on, rates_off, truth.n_bar, truth.detection, seed=task_seed(2024, i)
        )
        for i in range(20)
    ]
    ours = [fit_pair_two_stage(pair.drive_off, pair.drive_on) for pair in pairs]
    monkeypatch.setattr(fitter, "levenberg_marquardt", scipy_lm)
    for (off, on), pair in zip(ours, pairs):
        ref_off, ref_on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
        assert off.converged and on.converged and ref_off.converged and ref_on.converged
        assert "s_at_lower_bound" not in on.flags
        assert on.params["s"] == pytest.approx(ref_on.params["s"], abs=1e-6)
        gamma, ref_gamma = off.params["gamma_eff_hz"], ref_off.params["gamma_eff_hz"]
        assert gamma == pytest.approx(ref_gamma, rel=1e-6)
        assert (off.n_iter, on.n_iter) == (ref_off.n_iter, ref_on.n_iter)



@pytest.mark.parametrize("n_bar, trial, converged", [(5.8, 290, True), (0.05, 681, False)])
def test_subnormal_gram_entry_ends_the_fit_typed(n_bar, trial, converged):
    # s = 0 truth at n_avg 10, seed 1234: as s walks to 0 the q column falls to
    # about 1e-158 and its Gram entry goes subnormal.  In trial 290 lmpar's
    # lower bound parl is not finite, which must not make the LM parameter NaN;
    # in trial 681 a damped solve fails, which ends the pass unconverged
    det = DetectionConfig(n_avg=10)
    truth = ExperimentTruth(gamma_eff=TWO_PI * 100.0, s=0.0, n_bar=n_bar, detection=det)
    pair = truth.synth_pair(task_seed(1234, trial))
    off, on = fit_pair_two_stage(pair.drive_off, pair.drive_on)
    assert off.converged and on.converged == converged
    assert on.params["s"] < 1e-100 and "s_at_lower_bound" in on.flags
