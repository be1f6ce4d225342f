"""Lasso route: coordinate descent on the slope-change coordinates.

The trend-filter objective in beta-coordinates (beta_1 = mu_1,
beta_2 = mu_2 - mu_1, beta_t = second difference) is a lasso with the
reconstruction design Z and the l1 penalty on columns 3..n only:

    0.5 * ||y - Z beta||^2 + lam * sum_{j>=3} |beta_j|

The route is matrix-free, in O(n) memory and with no size cap: a coordinate
step reads column j as a contiguous ramp, and ``Z beta`` and ``Z'r`` are double
cumulative sums.

``_cd_pass`` is one sweep of plain cyclic coordinate descent: the
unpenalized pair (1, 2) by an exact least-squares step, each penalized
coordinate by soft-thresholding at lam / ||z_j||^2 (the pathwise coordinate
descent of Friedman, Hastie, Hoefling & Tibshirani 2007). A sweep is O(n):
the 2x2 solve of the pair, one ``Z'r``, one scalar loop on Python floats that
carries only the closed-form update of each coordinate's inner product from
the moves before it, then a fixed handful of numpy calls: the moves
d = beta_new - beta_old, one double prefix sum of d that applies them to r,
and their largest relative size. ``budget_path`` runs a fixed budget of these
sweeps for the smearing they leave. A path builds one ``LassoProblem`` and
sets its ``lam`` per level.

``active_set_polish``, behind ``fit_path`` and ``fit``, alternates an exact
solve of the sign-restricted subproblem on the active list (the pathwise
polish's run-value problem with knots at the active columns, walked by its
``pathwise._walk``: one O(k) scalar pass per zero-crossing step) with an
admission step: one ``Z'r`` finds the inactive coordinates that violate
|z_j'r| <= lam, which are re-tested, largest violation first, and stepped in
until ``ADMIT_CAP`` have entered, so a round is O(n) plus O(n) per re-test
(the screen-then-check of the strong rules, in bounded batches like Celer's
working sets). In ``kkt.level``, as on the pathwise route, a level ends once a
round admits nothing, or on a beta it has held. Adjacent Z columns are so
collinear that plain cyclic descent cannot reach tight tolerances on its own
at realistic n, so the polish is where production accuracy comes from.
mu_hat = Z beta_hat either way. ``fit_path`` carries one beta and its active
list down the grid and emits its fits through ``kkt.certified_path``, which
flags a fit converged only when its level converged and its certificate
passed; ``fit`` is the one-level path, from beta = 0.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .core import LambdaPath, PathEntry, TrendFit, as_array, finite_array, validate_grid
from .design import DesignZ
from .kkt import affine_fit, certified_path, check_kkt, level
from .pathwise import _prefix_sums, _walk

ADMIT_CAP = 4  # a round's cap on admissions
SWEEPS_PER_RUNG = 15  # budget_path's sweeps per rung; fewer once one moves under BUDGET_TOL
BUDGET_TOL = 1e-6


class LassoProblem:
    """One per path, with ``lam`` set per level, and the lambda-free O(n) pieces
    every level rereads: y's least-squares line (level, slope) and the prefix
    sums of y less it, the column norms, the Gram block of the unpenalized
    pair, the ramp 0, 1, ..., n-1 (and 1..n centred, for ``affine_fit``), and the
    lists over j >= 2 that the sweep loop zips over: the positions j as floats,
    S2(n - j) = ||z_j||^2 and the ramp sums S1(n - j)."""

    def __init__(self, y, lam: float):
        yv = as_array(y)
        if not np.isfinite(lam) or lam < 0:
            raise ValueError("lam must be finite and >= 0")
        self.y = yv
        self.lam = float(lam)
        self.Z = DesignZ(yv.size)
        line = affine_fit(yv)
        self._line = np.array([line[0], line[1] - line[0]])
        self._sums = _prefix_sums(yv - line)  # centred, so a level offset stays out of the sums
        self._norms = self.Z.column_norms_sq()
        self._G2 = self.Z.gram([0, 1])
        self._t = self.Z.ramp
        self._tbar = (self._t + 1.0).mean()  # exact, so is the centred ramp
        self._tc = self._t + (1.0 - self._tbar)
        self._stt = float((self._tc ** 2).sum())
        L = yv.size - self._t[2:]  # n - j: the length of column j's ramp
        self._pos = self._t[2:].tolist()
        self._s2 = self._norms[2:].tolist()
        self._s1 = (L * (L + 1) / 2.0).tolist()

    @property
    def n(self) -> int:
        return self.y.size


def _block_ls_step(prob, beta, r):
    """Exact least-squares update of the unpenalized pair (columns 1-2): the
    2x2 normal equations in numpy, the move and its relative size on two
    Python floats. Returns that size, 0.0 when the pair does not move."""
    t, G2 = prob._t, prob._G2
    rhs = np.array([r.sum(), t @ r]) + G2 @ beta[:2]
    sol = np.linalg.solve(G2, rhs)
    (s0, s1), (b0, b1) = sol.tolist(), beta[:2].tolist()
    d0, d1 = s0 - b0, s1 - b1
    if d0 == 0.0 and d1 == 0.0:
        return 0.0
    r -= d0 + d1 * t
    beta[0], beta[1] = s0, s1
    return max(abs(d0) / (1.0 + abs(s0)), abs(d1) / (1.0 + abs(s1)))


def _cd_pass(prob, beta, r):
    """One cyclic sweep: block step on (1,2), then soft-thresholding on 3..n in
    order, in O(n). g = Z'r is taken once, after the block step, as suffix
    sums of suffix sums of r. By the turn of coordinate j the columns i < j
    have moved by d_i, and z_j'z_i = S2(L) + (j - i) S1(L) with L = n - j, so

        z_j'r = g_j - S2(L) D0 - S1(L) (j D0 - D1),  D0 = sum d_i, D1 = sum i d_i,

    where S1 and S2 are the sums of 1..L and of their squares (S2(L) is
    ||z_j||^2). The scalar loop carries only this recurrence, on Python
    floats: j is read as a float from ``prob._pos`` for the products (the
    same bits as the int) and as an int only to index. After it, a fixed
    handful of numpy calls take the moves d = beta_new - beta_old, apply them
    to r and take their largest relative size. The block step has already
    moved the affine pair, so d is zero there and r needs only the double
    prefix sum of d[2:]. That gives the bits of r - Z d: a coordinate that
    does not move keeps its value, so its d is x - x = +0.0, and sums of
    terms none of which is -0.0 are never -0.0. Returns the max relative
    change."""
    lam, n = prob.lam, prob.n
    maxrel = _block_ls_step(prob, beta, r)
    g = prob.Z.rmatvec(r).tolist()  # g[j] = z_j'r
    b = beta.tolist()
    nlam = -lam
    D0 = D1 = 0.0
    for j, x, s2, s1 in zip(range(2, n), prob._pos, prob._s2, prob._s1):
        bj = b[j]
        rho = g[j] - s2 * D0 - s1 * (x * D0 - D1) + s2 * bj
        if rho > lam:
            bnew = (rho - lam) / s2
        elif rho < nlam:
            bnew = (rho + lam) / s2
        else:
            bnew = 0.0
        dj = bnew - bj
        if dj != 0.0:
            b[j] = bnew
            D0 += dj
            D1 += dj * x
    new = np.fromiter(b, float, n)
    d = new - beta
    beta[:] = new
    r[2:] -= np.cumsum(np.cumsum(d[2:]))
    return float(np.max(np.abs(d) / (1.0 + np.abs(new)), initial=maxrel))


def _converge_active(prob, beta, act):
    """Exactly solve the sign-restricted problem on the ascending active list
    with ``pathwise._walk``, whose crossings drop columns: runs start at 0, 1
    and each active column, on y less its line (l_0, l_1), so the run values
    alpha are beta_0 - l_0, beta_1 - l_1, then running sums of beta on
    ``act``, and beta = (alpha_0 + l_0, alpha_1 + l_1, diff(alpha)[1:]).
    Mutates beta, zero off the affine pair and the columns the walk keeps;
    returns the nonzero ones, the next active list."""
    (l0, l1), (b0, b1), b = prob._line.tolist(), beta[:2].tolist(), beta[act].tolist()
    alpha = [b0 - l0, *accumulate(b, initial=b1 - l1)]
    signs = [0.0] + [1.0 if v > 0.0 else -1.0 for v in b]  # beta is nonzero on act
    a, alpha = _walk([0, 1, *act], alpha, signs, prob._sums, prob.lam, prob.n)
    beta[act] = 0.0
    beta[a] = [alpha[0] + l0, alpha[1] + l1] + [v - u for u, v in zip(alpha[1:], alpha[2:])]
    return [j for j in a[2:] if beta[j] != 0.0]


def _admit(prob, beta, r, act):
    """Admit up to ``ADMIT_CAP`` coordinates j >= 3 off the active list with
    |z_j'r| > lam: one double suffix sum of r finds the candidates in O(n);
    each, largest violation first, is re-tested on its O(n - j) tail against
    the residual earlier admissions left and enters by a soft-threshold step
    from zero. Violators come in bands of collinear neighbours; a band's peak,
    stepped in first, clears most of the rest, which the restricted solve
    would drop again one crossing at a time. Returns the admitted columns in
    entry order; mutates beta and r."""
    lam, s2, t, n = prob.lam, prob._s2, prob._t, prob.n
    ga = abs(prob.Z.rmatvec(r))  # |z_j'r|
    ga[[0, 1, *act]] = 0.0
    cand = (ga > lam).nonzero()[0]
    admitted = []
    for j in cand[(-ga[cand]).argsort(kind="stable")].tolist():
        zj = t[1:n - j + 1]  # column j below its leading zeros: 1, 2, ..., n-j
        rho = float(zj @ r[j:])
        if abs(rho) > lam:
            beta[j] = b = (rho - lam if rho > 0.0 else rho + lam) / s2[j - 2]
            r[j:] -= zj * b
            admitted.append(j)
            if len(admitted) == ADMIT_CAP:
                break
    return admitted


def active_set_polish(prob: LassoProblem, beta: np.ndarray, act: list):
    """Solve the sign-restricted subproblem on the active list ``act`` (the
    ascending nonzero columns of beta past the affine pair) exactly; then, in
    ``kkt.level``, admit up to ``ADMIT_CAP`` KKT violators off it and solve
    again, until none is admitted. The exact restricted solve replaces inner
    coordinate cycling, which the column collinearity would stall. The level's
    state is act and beta on the pair and act, after each solve. An exact O(n)
    least-squares refit of the affine pair on the last residual closes it, as
    the round-off of the prefix sums and of Z beta leaves the pair off its
    optimum at large n. Moves a seed beta, zero off ``act``, to the fit at
    lam > 0; returns the level's verdict and the fit's active list."""
    act = _converge_active(prob, beta, act)
    r = prob.y - prob.Z.matvec(beta)

    def step():
        nonlocal act, r
        if not (new := _admit(prob, beta, r, act)):
            return True
        act = _converge_active(prob, beta, sorted(act + new))
        r = prob.y - prob.Z.matvec(beta)
        return False

    converged = level(lambda: (*act, beta[[0, 1, *act]].tobytes()), step, prob.n)
    rbar = r.mean()  # affine_fit(r) on the cached ramp: the pair, refit exactly in O(n)
    slope = float((prob._tc * (r - rbar)).sum()) / prob._stt
    c = rbar - slope * prob._tbar
    beta[:2] += c + slope, (c + slope * 2.0) - (c + slope)
    return converged, act


def fit(y, lam: float) -> TrendFit:
    """Solve at a single penalty: one level of :func:`fit_path`, from beta = 0."""
    return fit_path(y, [lam]).entries[0].fit


def budget_path(y, lambda_grid) -> LambdaPath:
    """Fixed-budget practical route: ascend the grid from the exact interpolant
    encoding, running at most ``SWEEPS_PER_RUNG`` cyclic sweeps per rung.

    Warm-starting upward from the dense lam = 0 encoding leaves many small
    slope-change coefficients clustered around the true kinks at every rung --
    the characteristic smearing of coordinate descent on this design and the
    behaviour the benchmark's route contrast measures. Fits are marked
    converged when the rung completed its budget with finite values (the budget
    is this route's contract); per-entry KKT certificates are still recorded
    and will generally not pass. Use :func:`fit_path` for certified fits.
    """
    yv = finite_array(y)
    grid = validate_grid(lambda_grid)
    prob = LassoProblem(yv, 0.0)
    beta = prob.Z.encode(yv)
    entries = []
    for i, lam in enumerate(grid):
        prob.lam = lam
        if lam == 0.0:  # the interpolant: residual exactly 0, so selection excludes it
            mu, ok = yv.copy(), True
        else:
            r = yv - prob.Z.matvec(beta)
            for _ in range(SWEEPS_PER_RUNG):
                if _cd_pass(prob, beta, r) <= BUDGET_TOL:
                    break
            mu, ok = prob.Z.matvec(beta), bool(np.all(np.isfinite(beta)))
        report = check_kkt(yv, mu, lam)  # the fit's objective is read off it
        fit_l = TrendFit(lam, mu, 0.5 * report.rss + lam * report.dmu_l1, ok, "lasso-budget")
        entries.append(PathEntry(lam=lam, fit=fit_l, warm_start=i > 0, kkt=report))
    return LambdaPath(entries=tuple(entries))


def fit_path(y, lambda_grid) -> LambdaPath:
    """Certified fits for an increasing grid through ``kkt.certified_path``:
    one beta is polished level by level from the fit above it, so the descent
    starts from beta = 0, and each level emits Z beta once. The minimizer at
    each lambda is unique, so the order is a speed detail only."""
    yv = finite_array(y)
    prob = LassoProblem(yv, 0.0)
    beta = np.zeros(yv.size)
    act = []  # the active list each level leaves for the next

    def solve(lam):
        nonlocal act
        prob.lam = lam
        ok, act = active_set_polish(prob, beta, act)
        return prob.Z.matvec(beta), ok

    return certified_path(yv, lambda_grid, solve, "lasso")
