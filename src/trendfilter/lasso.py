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
lam / ||z_j||^2. A sweep is O(n): one ``Z'r``, one scalar loop that updates
each coordinate's inner product in closed form from the moves made before it
in the sweep, and one ``Z d`` that applies all the moves (the pathwise
coordinate descent of Friedman, Hastie, Hoefling & Tibshirani 2007).
``budget_path`` runs a fixed budget of these sweeps for the smearing they
leave; ``cd_fit`` runs them to a tolerance, as the reference the polish is
tested against.

``active_set_polish``, behind ``fit_path`` and ``fit``, alternates an exact
solve of the sign-restricted subproblem on the nonzero set (with zero-crossing
line searches) with an admission step: one ``Z'r`` finds the inactive
coordinates that violate |z_j'r| <= lam, and only those are re-tested, largest
violation first, and stepped in, so a round is O(n) plus O(n) per candidate
(the screen-then-check working set of glmnet and the strong rules). Adjacent Z
columns are so collinear that plain cyclic descent cannot reach tight
tolerances on its own at realistic n, so the polish is where production
accuracy comes from. mu_hat = Z beta_hat either way. ``fit_path`` emits
its fits through ``kkt.certified_path``, which certifies each one and flags
it converged only when the polish converged and the certificate passed.
"""

from __future__ import annotations

import numpy as np

from .core import LambdaPath, PathEntry, TimeSeries, TrendFit, validate_grid
from .design import DesignZ
from .kkt import affine_fit, certified_path, check_kkt, fit_ladder, lambda_max

# A coordinate caught in an admission cycle re-enters only when |z_j'r| exceeds
# lam by this relative margin, so a subgradient that sits at its bound to within
# round-off cannot be admitted and dropped again round after round. It is well
# inside the certificate's 1e-6 and above the round-off of the restricted solve.
ADMIT_MARGIN = 1e-7


class LassoProblem:
    """Problem description with the O(n) pieces every sweep reuses: the column
    norms, the Gram block of the unpenalized pair, the ramp 0, 1, ..., n-1, and
    the ramp sums S1(n - j) that couple column j to the columns before it."""

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
        L = yv.size - self._t  # n - j: the length of column j's ramp
        self._s1 = L * (L + 1) / 2.0

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
    """One cyclic sweep: block step on (1,2), then soft-thresholding on 3..n in
    order, in O(n). g = Z'r is taken once, after the block step. By the turn of
    coordinate j the columns i < j have moved by d_i, and z_j'z_i = S2(L) +
    (j - i) S1(L) with L = n - j, so

        z_j'r = g_j - S2(L) D0 - S1(L) (j D0 - D1),  D0 = sum d_i, D1 = sum i d_i,

    where S1 and S2 are the sums of 1..L and of their squares (S2(L) is
    ||z_j||^2). One matvec then applies every move to r. Returns the max
    relative change."""
    lam, n = prob.lam, prob.n
    maxrel = _block_ls_step(prob, beta, r)
    g = prob.Z.rmatvec(r).tolist()
    b = beta.tolist()
    d = [0.0] * n
    D0 = D1 = 0.0
    for j, s2, s1 in zip(range(2, n), prob._norms[2:].tolist(), prob._s1[2:].tolist()):
        bj = b[j]
        rho = g[j] - s2 * D0 - s1 * (j * D0 - D1) + s2 * bj
        if rho > lam:
            bnew = (rho - lam) / s2
        elif rho < -lam:
            bnew = (rho + lam) / s2
        else:
            bnew = 0.0
        dj = bnew - bj
        if dj != 0.0:
            b[j] = bnew
            d[j] = dj
            D0 += dj
            D1 += dj * j
            rel = abs(dj) / (1.0 + abs(bnew))
            if rel > maxrel:
                maxrel = rel
    beta[2:] = b[2:]
    r -= prob.Z.matvec(np.array(d))
    return maxrel


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
        maxrel = _cd_pass(prob, beta, r)
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


def _admit(prob, beta, r, bound):
    """Admit every inactive coordinate j >= 3 with |z_j'r| > bound[j]: one
    ``rmatvec`` finds the candidates in O(n), then each, largest violation
    first, is re-tested on its O(n - j) tail against the residual the earlier
    admissions left, and enters by a soft-threshold step from zero. Violators
    come in bands of collinear neighbours, and stepping in a band's peak first
    clears most of the rest, which the restricted solve would otherwise have to
    drop again one zero crossing at a time. Mutates beta and r; returns the
    admitted columns in the order they entered."""
    lam, nrm, t, n = prob.lam, prob._norms, prob._t, prob.n
    g = prob.Z.rmatvec(r)
    admitted = []
    cand = np.flatnonzero((np.abs(g[2:]) > bound[2:]) & (beta[2:] == 0.0)) + 2
    for j in cand[np.argsort(-np.abs(g[cand]), kind="stable")]:
        zj = t[1:n - j + 1]  # column j below its leading zeros: 1, 2, ..., n-j
        rho = float(zj @ r[j:])
        if abs(rho) > bound[j]:
            beta[j] = np.sign(rho) * (abs(rho) - lam) / nrm[j]
            r[j:] -= zj * beta[j]
            admitted.append(j)
    return np.array(admitted, dtype=np.intp)


def active_set_polish(prob: LassoProblem, mu: np.ndarray,
                      max_rounds: int = 200) -> tuple[np.ndarray, bool]:
    """Solve the sign-restricted subproblem on the nonzero set exactly, then
    admit the KKT violators among the other coordinates; repeat until none is
    admitted. The exact restricted solve replaces inner coordinate cycling,
    which the column collinearity would stall, and leaves the KKT test on the
    inactive coordinates as the only job of an admission round, so a round
    costs O(n) plus O(n) per candidate. The objective never increases, and an
    already-optimal fit comes back unchanged. A round that lands on a signed
    support reached before is therefore a cycle among ties at the bound: the
    coordinates admitted last need ``ADMIT_MARGIN`` to enter from then on.
    The fit ends with an exact O(n) least-squares refit of the unpenalised
    affine pair, which the dense restricted solve leaves off its optimum at
    large n. Takes a seed mu and returns ``(mu, converged)``, where
    ``converged`` is this polish's own verdict. At lam = 0 the answer is y."""
    lam = prob.lam
    if lam == 0.0:
        return prob.y.copy(), True
    Z = prob.Z
    beta = _sparse_encode(Z, mu)
    Zty = Z.rmatvec(prob.y)
    tied = np.zeros(prob.n, dtype=bool)
    seen = set()  # signed supports the restricted solve has landed on
    admitted = np.empty(0, dtype=np.intp)
    converged = False
    for _ in range(max_rounds):
        _converge_active(Z, beta, np.flatnonzero(beta[2:]) + 2, Zty, lam)
        state = np.sign(beta).astype(np.int8).tobytes()
        if state in seen:  # a cycle: the last admissions were ties at the bound
            tied[admitted] = True
        seen.add(state)
        admitted = _admit(prob, beta, prob.y - Z.matvec(beta), lam * (1.0 + ADMIT_MARGIN * tied))
        if not admitted.size:
            converged = True
            break
    mu = Z.matvec(beta)
    mu += affine_fit(prob.y - mu)  # the unpenalised pair, refit exactly in O(n)
    return mu, converged


def fit(y, lam: float) -> TrendFit:
    """The lam entry of :func:`fit_path` on ``kkt.fit_ladder(lam, lambda_max(y))``,
    so the solve is warm-started down from the affine fit."""
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    return fit_path(yv, fit_ladder(lam, lambda_max(yv))).entries[0].fit


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
        if lam == 0.0:  # the interpolant: residual exactly 0, so selection excludes it
            fit_l = TrendFit.from_mu(yv, yv.copy(), 0.0, solver="lasso-budget")
        else:
            r = yv - prob.Z.matvec(beta)
            for _ in range(sweeps_per_rung):
                maxrel = _cd_pass(prob, beta, r)
                if maxrel <= tol:
                    break
            ok = bool(np.all(np.isfinite(beta)))
            fit_l = TrendFit.from_mu(yv, prob.Z.matvec(beta), lam, converged=ok,
                                     solver="lasso-budget")
        report = check_kkt(yv, fit_l.mu_hat, lam)
        entries.append(PathEntry(lam=lam, fit=fit_l, warm_start=warm, kkt=report))
        warm = True
    return LambdaPath(entries=tuple(entries))


def fit_path(y, lambda_grid) -> LambdaPath:
    """Certified fits for an increasing grid through ``kkt.certified_path``:
    each level is polished from the sparse encoding of the fit above it, so
    the descent starts from beta = 0. The minimizer at each lambda is unique,
    so the order is a speed detail only."""
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    beta = np.zeros(yv.size)

    def solve(lam):
        nonlocal beta
        prob = LassoProblem(yv, lam)
        mu, ok = active_set_polish(prob, prob.Z.matvec(beta))
        beta = _sparse_encode(prob.Z, mu)
        return mu, ok

    return certified_path(yv, lambda_grid, solve, "lasso")
