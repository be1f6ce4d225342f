"""Lasso route: coordinate descent on the slope-change coordinates.

The trend-filter objective in beta-coordinates (beta_1 = mu_1,
beta_2 = mu_2 - mu_1, beta_t = second difference) is a lasso with the
reconstruction design Z and the l1 penalty on columns 3..n only:

    0.5 * ||y - Z beta||^2 + lam * sum_{j>=3} |beta_j|

The route is matrix-free, in O(n) memory and with no size cap: a coordinate
step reads column j as a contiguous ramp, ``Z beta`` and ``Z'y`` are double
cumulative sums, and the active-set solve takes its Gram block in closed form.

``cd_fit`` is plain cyclic coordinate descent: the unpenalized pair (1, 2) by
an exact least-squares step, each penalized coordinate by soft-thresholding at
lam / ||z_j||^2. ``active_set_polish`` refines a fit by solving the
sign-restricted subproblem on the nonzero set exactly (with zero-crossing
line searches), then a full admission sweep, repeating until no coordinate
enters; adjacent Z columns are so collinear that plain cyclic descent cannot
reach tight tolerances on its own at realistic n, so the polish is where
production accuracy comes from. mu_hat = Z beta_hat either way, and every fit
can be certified by the independent KKT oracle.
"""

from __future__ import annotations

import numpy as np

from .core import LambdaPath, PathEntry, TimeSeries, TrendFit, validate_grid
from .design import DesignZ
from .kkt import check_kkt, lambda_max

LADDER_POINTS = 8  # rungs of a single fit's homotopy, lam to lambda_max inclusive


class LassoProblem:
    """Problem description with the O(n) pieces every sweep reuses: the column
    norms, the Gram block of the unpenalized pair, and the ramp 0, 1, ..., n-1."""

    def __init__(self, y, lam: float):
        yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
        if lam < 0:
            raise ValueError("lam must be >= 0")
        self.y = yv
        self.lam = float(lam)
        self.Z = DesignZ(yv.size)
        self._norms = self.Z.column_norms_sq()
        self._G2 = self.Z.gram([0, 1])
        self._t = np.arange(yv.size, dtype=float)

    @property
    def n(self) -> int:
        return self.y.size


def _sparse_encode(Z: DesignZ, mu: np.ndarray) -> np.ndarray:
    """beta = Z^-1 mu with numerically-zero slope changes set to exact zeros."""
    beta = Z.encode(mu)
    beta[2:][np.abs(beta[2:]) < 1e-12 * (1.0 + float(np.max(np.abs(beta))))] = 0.0
    return beta


def _block_ls_step(prob, beta, r):
    """Exact least-squares update of the unpenalized pair (columns 1-2)."""
    t, G2 = prob._t, prob._G2
    rhs = np.array([r.sum(), t @ r]) + G2 @ beta[:2]
    sol = np.linalg.solve(G2, rhs)
    d = sol - beta[:2]
    if np.any(d != 0.0):
        r -= d[0] + d[1] * t
        beta[:2] = sol
        return float(np.max(np.abs(d) / (1.0 + np.abs(sol))))
    return 0.0


def _cd_pass(prob, beta, r):
    """One cyclic sweep: block step on (1,2), soft-thresholding on 3..n.

    Returns (max relative change, number of coordinates entering the support).
    """
    nrm, lam, t = prob._norms, prob.lam, prob._t
    n = prob.n
    maxrel = _block_ls_step(prob, beta, r)
    admitted = 0
    for j in range(2, n):
        zj = t[1:n - j + 1]  # column j below its leading zeros: 1, 2, ..., n-j
        bj = beta[j]
        rho = zj @ r[j:] + nrm[j] * bj
        bnew = float(np.sign(rho)) * max(abs(rho) - lam, 0.0) / nrm[j]
        d = bnew - bj
        if d != 0.0:
            if bj == 0.0 and bnew != 0.0:
                admitted += 1
            r[j:] -= zj * d
            beta[j] = bnew
            maxrel = max(maxrel, abs(d) / (1.0 + abs(bnew)))
    return maxrel, admitted


def cd_fit(prob: LassoProblem, beta_init: np.ndarray | None = None,
           tol: float = 1e-8, max_iter: int = 100_000) -> TrendFit:
    """Cyclic coordinate descent to the stated tolerance.

    Converged when no coordinate moves more than tol * (1 + |beta_j|) within a
    full sweep; exceeding ``max_iter`` sweeps flags the fit instead of raising.
    At lam = 0 the default start is the exact interpolant encoding, which the
    first sweep simply confirms.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if beta_init is not None:
        beta = np.asarray(beta_init, dtype=float).copy()
    elif prob.lam == 0.0:
        beta = prob.Z.encode(prob.y)
    else:
        beta = np.zeros(prob.n)
    r = prob.y - prob.Z.matvec(beta)
    converged = False
    for _ in range(max_iter):
        maxrel, _ = _cd_pass(prob, beta, r)
        if maxrel <= tol:
            converged = True
            break
    return TrendFit.from_mu(prob.y, prob.Z.matvec(beta), prob.lam, converged=converged,
                            solver="lasso")


def _converge_active(Z, beta, act, Zty, lam):
    """Exactly solve the sign-restricted problem on the active set, walking
    zero crossings (each drops a coordinate, with its Gram row and column).
    Mutates beta, which must be zero off the affine pair and nonzero on ``act``."""
    idx = np.concatenate(([0, 1], act)).astype(np.intp)
    G = Z.gram(idx)
    for _ in range(4 * (len(act) + 4)):
        b0 = beta[idx[2:]]
        signs = np.sign(b0)
        rhs = Zty[idx]
        rhs[2:] -= lam * signs
        sol = np.linalg.solve(G, rhs)
        sol += np.linalg.solve(G, rhs - G @ sol)  # one refinement pass
        cross = np.flatnonzero(np.sign(sol[2:]) != signs)
        tc = -b0[cross] / (sol[2:][cross] - b0[cross])  # step at which each one reaches zero
        if not tc.size or tc.min() >= 1.0:
            beta[idx] += sol - beta[idx]
            return
        k = int(np.argmin(tc))  # the first crossing; ties go to the lowest column
        beta[idx] += tc[k] * (sol - beta[idx])
        beta[idx[2 + cross[k]]] = 0.0
        keep = beta[idx] != 0.0
        keep[:2] = True
        idx = idx[keep]
        G = G[np.ix_(keep, keep)]


def active_set_polish(prob: LassoProblem, fit: TrendFit,
                      tol: float = 1e-10, max_rounds: int = 200) -> TrendFit:
    """Converge on the current nonzero set, then one full sweep to admit
    violators; repeat until nothing is admitted. The restricted subproblem is
    solved exactly rather than by inner coordinate cycling, which the column
    collinearity would stall; the admission sweeps are plain soft-threshold
    passes. The objective never increases, and an already-optimal fit comes
    back unchanged. ``converged`` is this polish's own verdict: the fit it
    starts from only seeds it."""
    lam = prob.lam
    if lam == 0.0:
        return fit
    Z = prob.Z
    beta = _sparse_encode(Z, fit.mu_hat)
    Zty = Z.rmatvec(prob.y)
    converged = False
    for _ in range(max_rounds):
        _converge_active(Z, beta, np.flatnonzero(beta[2:]) + 2, Zty, lam)
        r = prob.y - Z.matvec(beta)
        maxrel, admitted = _cd_pass(prob, beta, r)
        if admitted == 0 and maxrel <= tol:
            converged = True
            break
    return TrendFit.from_mu(prob.y, Z.matvec(beta), lam, converged=converged, solver="lasso")


def fit(y, lam: float, tol: float = 1e-9) -> TrendFit:
    """The lam entry of :func:`fit_path` on an 8-point geometric ladder from
    lam up to lambda_max, so the solve is warm-started down from the affine fit."""
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    lmax = lambda_max(yv)
    grid = np.geomspace(lam, lmax, LADDER_POINTS) if 0.0 < lam < lmax else [lam]
    return fit_path(yv, grid, tol=min(tol, 1e-9)).entries[0].fit


def budget_path(y, lambda_grid, sweeps_per_rung: int = 15, tol: float = 1e-6) -> LambdaPath:
    """Fixed-budget practical route: ascend the grid from the exact interpolant
    encoding, running at most ``sweeps_per_rung`` cyclic sweeps per rung.

    Warm-starting upward from the dense lam = 0 encoding leaves many small
    slope-change coefficients clustered around the true kinks at every rung --
    the characteristic smearing of coordinate descent on this design and the
    behaviour the benchmark's route contrast measures. Fits are marked
    converged when the rung completed its budget with finite values (the budget
    is this route's contract); per-entry KKT certificates are still recorded
    and will generally not pass. Use :func:`fit_path` for certified fits.
    """
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    grid = validate_grid(lambda_grid)
    beta = DesignZ(yv.size).encode(yv)
    entries = []
    warm = False
    for lam in grid:
        prob = LassoProblem(yv, lam)
        if lam == 0.0:
            fit_l = cd_fit(prob, tol=tol)
        else:
            r = yv - prob.Z.matvec(beta)
            for _ in range(sweeps_per_rung):
                maxrel, _ = _cd_pass(prob, beta, r)
                if maxrel <= tol:
                    break
            ok = bool(np.all(np.isfinite(beta)))
            fit_l = TrendFit.from_mu(yv, prob.Z.matvec(beta), lam, converged=ok,
                                     solver="lasso-budget")
        report = check_kkt(yv, fit_l.mu_hat, lam)
        entries.append(PathEntry(lam=lam, fit=fit_l, warm_start=warm, kkt=report))
        warm = True
    return LambdaPath(entries=tuple(entries))


def fit_path(y, lambda_grid, tol: float = 1e-9) -> LambdaPath:
    """Fits for an increasing grid; solved internally in descending order with
    warm starts (standard homotopy efficiency), reversed on output. The
    minimizer at each lambda is unique, so ordering is a speed detail only."""
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    grid = validate_grid(lambda_grid)
    fits: dict[float, tuple[TrendFit, bool]] = {}
    beta = np.zeros(yv.size)
    first = True
    for lam in reversed(grid):
        prob = LassoProblem(yv, lam)
        if lam == 0.0:
            fits[lam] = (cd_fit(prob, tol=tol), False)  # exact encoding start, not a warm start
            continue
        seed = TrendFit.from_mu(yv, prob.Z.matvec(beta), lam, solver="lasso")
        fit_l = active_set_polish(prob, seed, tol=tol)
        fits[lam] = (fit_l, not first)
        beta = _sparse_encode(prob.Z, fit_l.mu_hat)
        first = False
    entries = []
    for lam in grid:
        fit_l, warm = fits[lam]
        report = check_kkt(yv, fit_l.mu_hat, lam)
        entries.append(PathEntry(lam=lam, fit=fit_l, warm_start=warm, kkt=report))
    return LambdaPath(entries=tuple(entries))
