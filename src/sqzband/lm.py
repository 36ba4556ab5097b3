"""Levenberg-Marquardt for least-squares problems with a few parameters.

Moré's scaled trust-region algorithm as MINPACK's lmder implements it
(Moré, "The Levenberg-Marquardt algorithm: implementation and theory",
LNM 630 (1978) 105): the scaling D is the largest column norms of J seen so
far, the step bound and the LM parameter follow lmder's update rules, and
the ftol / xtol / gtol tests and the evaluation budget are lmder's.

Where lmder factors the m x n Jacobian by QR, this solver works on the
n x n normal equations J^T J and J^T r, which is cheap when n is a handful
and m is thousands.  Each linear solve goes through the unit-diagonal
scaling of its matrix, so columns of very different size (a parameter
pinned at a boundary) cost no accuracy.  Nearly collinear columns do: the
normal equations square the condition number, and there the path departs
from lmder's.  So does a column below about 1e-154: its Gram entry is
subnormal, a non-finite bound parl on the LM parameter is taken as 0
(lmpar's no-bound value), and an unsolvable damped system ends the pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_FACTOR = 100.0  # first step bound over |D x0|, lmder's default
_DWARF = np.finfo(float).tiny


class LMResult(NamedTuple):
    x: np.ndarray
    resid: np.ndarray  # at x
    nfev: int
    converged: bool


def _norm(v) -> float:
    return math.sqrt(v @ v)


def scaled_inverse(m, live) -> np.ndarray:
    """Inverse of the symmetric matrix m over its `live` rows and columns, through
    their unit-diagonal scaling, and 0 in the other entries; LinAlgError if singular."""
    norm = np.where(live, np.sqrt(np.diag(m)), 1.0)
    scale, keep = norm[:, None] * norm, live[:, None] & live
    inv = np.linalg.inv(np.where(keep, m / scale, np.eye(norm.size)))
    return np.where(keep, inv / scale, 0.0)


def _damped_solve(a, g, d2, par):
    """(a + par diag(d2))^-1 g and that inverse, or (None, None) if singular."""
    m = a + par * np.diag(d2)
    live = np.diag(m) > 0
    if not live.all():
        return None, None
    try:
        inv = scaled_inverse(m, live)
    except np.linalg.LinAlgError:
        return None, None
    return inv @ g, inv


def _lm_parameter(a, g, diag, delta, par):
    """lmpar on the normal equations: (par, step) with (a + par D^2) step = -g
    and |D step| within 10 % of delta, or the Gauss-Newton step (par = 0)
    when that is no longer.  Newton's iteration on |D step(par)| = delta,
    safeguarded by the bounds [parl, paru], at most 10 solves (None if one fails)."""
    d2 = diag * diag
    gnorm = _norm(g / diag)
    paru = gnorm / delta or _DWARF / min(delta, 0.1)
    x, inv = _damped_solve(a, g, d2, 0.0)
    parl, dxnorm, fp = 0.0, math.inf, math.inf
    if x is not None:
        dxnorm = _norm(diag * x)
        fp = dxnorm - delta
        if fp <= 0.1 * delta:
            return 0.0, -x
        w = d2 * x / dxnorm
        parl = fp / delta / (w @ inv @ w)
        parl = parl if math.isfinite(parl) else 0.0  # a subnormal Gram entry: no bound
    par = min(max(par, parl), paru) or gnorm / dxnorm
    for count in range(1, 11):
        if par == 0:
            par = max(_DWARF, 0.001 * paru)
        x, inv = _damped_solve(a, g, d2, par)
        if x is None:  # par is not finite, or the damped matrix singular
            return par, None
        dxnorm = _norm(diag * x)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0 and fp <= previous < 0) or count == 10:
            break
        w = d2 * x / dxnorm
        correction = fp / delta / (w @ inv @ w)
        if fp > 0:
            parl = max(parl, par)
        elif fp < 0:
            paru = min(paru, par)
        par = max(parl, par + correction)
    return par, -x


def levenberg_marquardt(problem, x, *, ftol, xtol, gtol, max_nfev) -> LMResult:
    """Minimise |r(x)|^2 from x.

    ``problem.residual(x)`` returns r(x) and ``problem.jacobian()`` the
    Jacobian, one row per parameter, at the x of the last residual.  Each
    trial step costs one residual, an accepted one also the Jacobian.  The
    loop reads each Jacobian before its next call to the problem and does
    not keep it, so the problem may return the same buffer every time.  It
    keeps the accepted residual while it tries the next step, so each
    residual must be an array that no later call overwrites.

    Converged means one of lmder's tests passed: actual and predicted
    relative reductions of the cost both <= ftol (info 1), a step bound
    <= xtol |D x| (info 2), or every gradient cosine |(J^T r)_j| / (|J_j| |r|)
    <= gtol (info 4).  Not converged means max_nfev residuals were spent
    (info 5), the start or its normal equations are not finite, or a damped
    step cannot be solved for.  A non-finite trial residual is a rejected step.
    """
    resid = problem.residual(x)
    fnorm, nfev, first = _norm(resid), 1, True
    while True:
        jac = problem.jacobian()
        a, g = jac @ jac.T, jac @ resid
        if not math.isfinite(fnorm + a.sum() + g.sum()):
            return LMResult(x, resid, nfev, False)
        colnorm = np.sqrt(np.diag(a))
        if first:
            diag = np.where(colnorm > 0, colnorm, 1.0)
            xnorm = _norm(diag * x)
            delta, par = _FACTOR * xnorm or _FACTOR, 0.0
        live = colnorm > 0
        if not fnorm or np.all(np.abs(g[live]) <= gtol * fnorm * colnorm[live]):
            return LMResult(x, resid, nfev, True)
        diag = np.maximum(diag, colnorm)
        while True:
            par, step = _lm_parameter(a, g, diag, delta, par)
            if step is None:
                return LMResult(x, resid, nfev, False)
            trial = x + step
            pnorm = _norm(diag * step)
            if first:
                delta = min(delta, pnorm)
            trial_resid = problem.residual(trial)
            nfev += 1
            fnorm1 = _norm(trial_resid)
            if not math.isfinite(fnorm1):
                fnorm1 = math.inf
            actred = 1 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            along = (step @ a @ step) / fnorm**2  # |J step|^2 / |r|^2
            damping = par * pnorm**2 / fnorm**2
            prered, dirder = along + 2 * damping, -(along + damping)
            ratio = actred / prered if prered else 0.0
            if ratio <= 0.25:
                shrink = 0.5 if actred >= 0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or shrink < 0.1:
                    shrink = 0.1
                delta = shrink * min(delta, pnorm / 0.1)
                par /= shrink
            elif par == 0 or ratio >= 0.75:
                delta, par = 2 * pnorm, 0.5 * par
            accepted = ratio >= 1e-4
            if accepted:
                x, resid, fnorm, first = trial, trial_resid, fnorm1, False
                xnorm = _norm(diag * x)
            converged = abs(actred) <= ftol and prered <= ftol and ratio <= 2
            converged = converged or delta <= xtol * xnorm
            if converged or nfev >= max_nfev:
                return LMResult(x, resid, nfev, bool(converged))
            if accepted:
                break
