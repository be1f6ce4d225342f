"""Optimality certification for the trend-filter objective, plus an independent
slow-but-sure solver.

Stationarity of 0.5*||y - mu||^2 + lam*||D mu||_1 (D = second-difference
operator) reads ``y - mu = lam * D' g`` with g a subgradient of the l1 term.
Because D' has full column rank, g is recovered uniquely from the residual:
the double cumulative sum of ``y - mu`` equals ``lam * g`` on its first n-2
entries, and the stationarity defect is the affine component left over: the
moments sum (n - t) r_t and sum (n - 1 - t) r_t (t = 1..n) of r = y - mu,
read in closed form. That recovery is O(n) and avoids forming the
ill-conditioned normal equations of D'.

The same pass yields the residual sum of squares, ||D mu||_1 and the kink
count, so :func:`certified_path`, through which both certified routes emit
their paths, takes each entry's certificate, objective and selection score
from one call. A single fit on either route is the one-level path at its
lambda, solved from the affine fit. One :func:`level` loop runs every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (KINK_TOL, LambdaPath, PathEntry, TrendFit, as_array, finite_array, kink_mask,
                   validate_grid)
from .design import second_diff, second_diff_adjoint
from .selection import score_of

# An active coordinate's subgradient must sit at +-1; allow this much slack
# before calling it a mismatch (solver output is never exactly stationary).
SIGN_SLACK = 0.01

ORACLE_MAX_ITER = 5_000_000

ROUNDS_PER_POINT = 10  # a level stops, unconverged, after this times n rounds


def level(key, step, n: int) -> bool:
    """The rounds of one level, on either certified route. The state
    ``key()`` is hashed before each round (64 bits: a false repeat needs a
    collision); rounds are deterministic, so a held state would cycle forever,
    and the level ends there unstepped. ``step()`` makes one round and says
    whether the route's own rule ended the level. True on either exit, False
    after ``ROUNDS_PER_POINT * n`` rounds."""
    seen = set()
    for _ in range(ROUNDS_PER_POINT * n):
        state = hash(key())
        if state in seen or step():
            return True
        seen.add(state)
    return False


class OracleBudgetError(RuntimeError):
    def __init__(self, gap: float, tol: float, iters: int):
        super().__init__(f"duality gap {gap:.3e} > tol {tol:.3e} after {iters} iterations")
        self.gap = gap
        self.tol = tol
        self.iters = iters


@dataclass(frozen=True)
class KktReport:
    """Margins and verdict, and the rss, ||D mu||_1 and kinks (at tol_kink) read on the way."""

    max_inactive_ratio: float
    active_sign_mismatches: int
    stationarity_residual: float
    passed: bool
    rss: float
    dmu_l1: float
    k_hat: int


def subgradient_times_lambda(resid: np.ndarray) -> np.ndarray:
    """First n-2 entries of the double cumulative sum of the residual."""
    return resid.cumsum().cumsum()[:-2]


def check_kkt(y, mu, lam: float, tol: float = 1e-6, tol_kink: float = KINK_TOL) -> KktReport:
    """Certify that mu minimizes the trend-filter objective at penalty lam.

    At lam = 0 optimality degenerates to mu == y and is checked directly.
    The inactive ratio is max |lam g| divided by lam once: division by lam > 0
    is monotone. Rejects a negative or non-finite lam before any work.
    """
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    yv = as_array(y)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != yv.shape:
        raise ValueError(f"length mismatch: {yv.shape} vs {mu.shape}")
    n = yv.size
    resid = yv - mu
    rss = float(resid @ resid)
    b, active = kink_mask(mu, tol_kink)
    dmu_l1 = float(np.abs(b).sum())
    k = int(np.count_nonzero(active))
    ymax = float(np.abs(yv).max())
    if lam == 0.0:
        defect = float(np.max(np.abs(resid)))
        return KktReport(0.0, 0, defect, defect <= tol * (1.0 + ymax), rss, dmu_l1, k)
    lam_g = subgradient_times_lambda(resid)
    w = np.arange(n - 1, -1, -1.0)  # resid - lam D'g is 0 but for w'r and (w - 1)'r
    defect = max(abs(float(w @ resid)), abs(float((w - 1.0) @ resid)))
    off_sign = np.abs(lam_g[active] / lam - np.sign(b[active])) > SIGN_SLACK
    mismatches = int(np.count_nonzero(off_sign))
    inactive_ratio = float(np.abs(lam_g[~active]).max()) / lam if k < active.size else 0.0
    passed = (
        inactive_ratio <= 1.0 + tol
        and mismatches == 0
        and defect <= tol * (1.0 + ymax)
    )
    return KktReport(inactive_ratio, mismatches, defect, passed, rss, dmu_l1, k)


def affine_fit(y) -> np.ndarray:
    """Ordinary least-squares fit of y on (1, t), returned as a length-n vector."""
    yv = as_array(y)
    n = yv.size
    if n < 2:
        raise ValueError("need n >= 2")
    t = np.arange(1.0, n + 1)
    tbar = t.mean()
    ybar = yv.mean()
    stt = float(((t - tbar) ** 2).sum())
    slope = float(((t - tbar) * (yv - ybar)).sum()) / stt
    return (ybar - slope * tbar) + slope * t


def lambda_max(y) -> float:
    """Smallest penalty at which the affine least-squares fit is optimal.

    Equals the sup-norm of the double cumulative sum of the affine-fit
    residual: for lam at or above it the affine fit's subgradient fits in the
    unit box, below it some coordinate must activate. Rejects a non-finite y.
    """
    yv = finite_array(y)
    resid = yv - affine_fit(yv)
    g = subgradient_times_lambda(resid)
    return float(np.max(np.abs(g))) if g.size else 0.0


def certified_path(y, lambda_grid, solve, solver: str) -> LambdaPath:
    """Fit every lambda on a strictly increasing grid, from its largest lambda
    down (the pathwise scheme of Friedman, Hastie, Hoefling & Tibshirani 2007).

    ``solve(lam)`` returns ``(mu, ok)``, warm-started from the rung above,
    with ``ok`` the verdict of its :func:`level`; it is never called at
    lam = 0, where the fit is y itself. Each entry takes one
    :func:`check_kkt` pass: its certificate, its objective 0.5 rss + lam
    ||D mu||_1 (the float operations of ``core.objective_value``) and its
    ``selection.SelectionScore`` at ``KINK_TOL``, which ``select`` reuses for
    this y. An entry is flagged converged only when ``ok`` holds and the
    certificate passed. Entries come back in ascending order; the path keeps
    a reference to y.
    """
    yv = as_array(y)
    entries = []
    warm = False
    for lam in reversed(validate_grid(lambda_grid)):
        if lam == 0.0:  # the interpolant, not a warm start
            mu, ok, warm = yv.copy(), True, False
        else:
            mu, ok = solve(lam)
        report = check_kkt(yv, mu, lam)
        fit = TrendFit(lam, mu, 0.5 * report.rss + lam * report.dmu_l1, ok and report.passed,
                       solver)
        entries.append(PathEntry(lam, fit, warm, report,
                                 score_of(lam, report.rss, report.k_hat, yv.size)))
        warm = True
    return LambdaPath(entries=tuple(reversed(entries)), y=yv)


def oracle_solve(y, lam: float, tol: float | None = None,
                 max_iter: int = ORACLE_MAX_ITER, g0: np.ndarray | None = None) -> np.ndarray:
    """Reference solver: projected-gradient on the dual box with momentum.

    Maximizes the dual of the trend-filter problem over ||g||_inf <= 1 by
    accelerated projected gradient with adaptive restart, recovering
    mu = y - lam * D' g. Runs until the duality gap
    lam * (||D mu||_1 - (D mu)' g) drops below ``tol``
    (default 1e-10 * (1 + ||y||^2)). Structurally unrelated to the production
    solvers; intended for certification and ground truth, not speed.
    """
    yv = finite_array(y)
    n = yv.size
    if not np.isfinite(lam) or lam < 0:
        raise ValueError("lam must be finite and >= 0")
    if lam == 0.0:
        return yv.copy()
    if tol is None:
        tol = 1e-10 * (1.0 + float(yv @ yv))
    g = np.zeros(n - 2) if g0 is None else np.clip(np.asarray(g0, dtype=float), -1.0, 1.0)
    extrap = g.copy()
    theta = 1.0
    step = 1.0 / (16.0 * lam * lam)  # ||D D'|| <= 16
    gap = np.inf
    it = 0
    while it < max_iter:
        mu = yv - lam * second_diff_adjoint(extrap, n)
        grad = -lam * second_diff(mu)
        g_next = np.clip(extrap - step * grad, -1.0, 1.0)
        if float(grad @ (g_next - g)) > 0.0:
            # momentum points uphill: restart from the last iterate
            theta = 1.0
            extrap = g
            mu = yv - lam * second_diff_adjoint(extrap, n)
            grad = -lam * second_diff(mu)
            g_next = np.clip(extrap - step * grad, -1.0, 1.0)
        theta_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        extrap = g_next + ((theta - 1.0) / theta_next) * (g_next - g)
        g, theta = g_next, theta_next
        it += 1
        if it % 40 == 0:
            mu = yv - lam * second_diff_adjoint(g, n)
            dmu = second_diff(mu)
            gap = lam * (float(np.sum(np.abs(dmu))) - float(dmu @ g))
            if gap <= tol:
                return mu
    raise OracleBudgetError(gap, tol, it)
