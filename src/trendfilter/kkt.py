"""Optimality certification for the trend-filter objective, plus an independent
slow-but-sure solver.

Stationarity of 0.5*||y - mu||^2 + lam*||D mu||_1 (D = second-difference
operator) reads ``y - mu = lam * D' g`` with g a subgradient of the l1 term.
Because D' has full column rank, g is recovered uniquely from the residual:
the double cumulative sum of ``y - mu`` equals ``lam * g`` on its first n-2
entries, and the stationarity defect is exactly the affine component left
over. That recovery is O(n) and avoids forming the ill-conditioned normal
equations of D'.

Both certified routes emit their paths through :func:`certified_path`, and
their single fits descend the ladder of :func:`fit_ladder`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import KINK_TOL, LambdaPath, PathEntry, TimeSeries, TrendFit, validate_grid
from .design import second_diff, second_diff_adjoint

# An active coordinate's subgradient must sit at +-1; allow this much slack
# before calling it a mismatch (solver output is never exactly stationary).
SIGN_SLACK = 0.01

ORACLE_MAX_ITER = 5_000_000

LADDER_RATIO = 2.5  # a single fit's ladder grows by this factor per rung


class OracleBudgetError(RuntimeError):
    def __init__(self, gap: float, tol: float, iters: int):
        super().__init__(f"duality gap {gap:.3e} > tol {tol:.3e} after {iters} iterations")
        self.gap = gap
        self.tol = tol
        self.iters = iters


@dataclass(frozen=True)
class KktReport:
    max_inactive_ratio: float
    active_sign_mismatches: int
    stationarity_residual: float
    passed: bool


def _as_y(y) -> np.ndarray:
    return y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)


def subgradient_times_lambda(resid: np.ndarray) -> np.ndarray:
    """First n-2 entries of the double cumulative sum of the residual."""
    return np.cumsum(np.cumsum(resid))[:-2]


def check_kkt(y, mu, lam: float, tol: float = 1e-6, tol_kink: float = KINK_TOL) -> KktReport:
    """Certify that mu minimizes the trend-filter objective at penalty lam.

    At lam = 0 optimality degenerates to mu == y and is checked directly.
    """
    yv = _as_y(y)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != yv.shape:
        raise ValueError(f"length mismatch: {yv.shape} vs {mu.shape}")
    n = yv.size
    resid = yv - mu
    ymax = float(np.max(np.abs(yv)))
    if lam == 0.0:
        defect = float(np.max(np.abs(resid)))
        ok = defect <= tol * (1.0 + ymax)
        return KktReport(0.0, 0, defect, ok)
    g = subgradient_times_lambda(resid) / lam
    defect = float(np.max(np.abs(resid - lam * second_diff_adjoint(g, n))))
    b = second_diff(mu)
    scale = max(1.0, float(np.max(np.abs(mu))))
    active = np.abs(b) > tol_kink * scale
    mismatches = int(np.sum(np.abs(g[active] - np.sign(b[active])) > SIGN_SLACK))
    inactive_ratio = float(np.max(np.abs(g[~active]))) if not active.all() else 0.0
    passed = (
        inactive_ratio <= 1.0 + tol
        and mismatches == 0
        and defect <= tol * (1.0 + ymax)
    )
    return KktReport(inactive_ratio, mismatches, defect, passed)


def affine_fit(y) -> np.ndarray:
    """Ordinary least-squares fit of y on (1, t), returned as a length-n vector."""
    yv = _as_y(y)
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
    unit box, below it some coordinate must activate.
    """
    yv = _as_y(y)
    resid = yv - affine_fit(yv)
    g = subgradient_times_lambda(resid)
    return float(np.max(np.abs(g))) if g.size else 0.0


def fit_ladder(lam: float, lmax: float) -> list[float]:
    """The grid of a single fit at lam: lam, 2.5 lam, ... (each below lmax),
    then lmax, so the solve descends from the affine fit. For lam <= 0 or
    lam >= lmax the ladder is lam alone."""
    ladder = [lam]
    if 0 < lam < lmax:
        while ladder[-1] * LADDER_RATIO < lmax:
            ladder.append(ladder[-1] * LADDER_RATIO)
        ladder.append(lmax)
    return ladder


def certified_path(y, lambda_grid, solve, solver: str) -> LambdaPath:
    """Fit every lambda on a strictly increasing grid, from its largest lambda
    down (the pathwise scheme of Friedman, Hastie, Hoefling & Tibshirani 2007).

    ``solve(lam)`` returns ``(mu, ok)``, warm-started from the rung above,
    with ``ok`` its own stopping rule's verdict; it is never called at
    lam = 0, where the fit is y itself. Every entry carries its KKT
    certificate and is flagged converged only when ``ok`` holds and the
    certificate passed. Entries come back in ascending order.
    """
    yv = _as_y(y)
    entries = []
    warm = False
    for lam in reversed(validate_grid(lambda_grid)):
        if lam == 0.0:  # the interpolant, not a warm start
            mu, ok, warm = yv.copy(), True, False
        else:
            mu, ok = solve(lam)
        report = check_kkt(yv, mu, lam)
        fit = TrendFit.from_mu(yv, mu, lam, converged=ok and report.passed, solver=solver)
        entries.append(PathEntry(lam=lam, fit=fit, warm_start=warm, kkt=report))
        warm = True
    return LambdaPath(entries=tuple(reversed(entries)))


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
    yv = _as_y(y)
    n = yv.size
    if lam < 0:
        raise ValueError("lam must be >= 0")
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
