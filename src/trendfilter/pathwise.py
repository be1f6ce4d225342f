"""Pathwise fused-run solver on the slope vector.

Works on nu (nu_1 = mu_1, nu_t = mu_t - mu_{t-1}), where the objective is

    f(nu) = 0.5 * ||y - X nu||^2 + lam * sum_{t=3..n} |nu_t - nu_{t-1}|

with X the cumulative-sum design. The solver follows a penalty continuation
down from lambda_max: start from the affine least-squares fit, exact at and
above lambda_max (nu = [mu_1, slope, slope, ...]), and descend the lambda
ladder, warm-starting each level from the one above, so runs open by splits
as the penalty falls. At each level it repeats two moves, a fused-run
active-set method in the manner of Hoefling 2010, until a round moves nothing
and opens no split:

* a structure polish that solves every run value jointly and exactly for the
  current pattern of equal-slope runs with frozen boundary signs (one
  tridiagonal solve, O(G) for G runs), walking sign collisions one solve per
  collision, each merging two runs; the step is kept only if f does not rise;
* a split scan that opens every run whose subgradient bound is violated
  strictly inside it, at the run's peak, by an exact sub-run joint move.

A round costs O(n) numpy work and scalar work in proportion to the runs.
The grid loop, the lam = 0 entry and the KKT certificate are
``kkt.certified_path``'s, and a single fit is the lowest entry of a path on
``kkt.fit_ladder``; ``converged`` means the level met its stopping rule and
the certificate passed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LambdaPath, TimeSeries, TrendFit
from .kkt import affine_fit, certified_path, fit_ladder, lambda_max
from .kkt import check_kkt  # noqa: F401  bench/spans.py patches the name here

# A structure polish whose step is below this relative size is not taken:
# such a step is floating-point jitter, and skipping it leaves a converged
# fit unchanged to the bit.
DEADBAND = 1e-15

# The split scan opens a run where |g| > lam * (1 + SPLIT_SLACK). The margin
# sets how closely this route agrees with the lasso route: on 39 benchmark
# series (default grid, n = 500 and 1000), a margin of 1e-7 left the two up to
# 7.2e-4 * (1 + max|y|) apart and 1e-9 up to 4.3e-6, against the benchmark's
# bound of 1e-6; 1e-11 agrees to 1.8e-9.
SPLIT_SLACK = 1e-11

_ACCEPT_SLACK = 1e-12  # relative slack when testing "objective does not increase"

ROUNDS_PER_POINT = 10  # a level's round cap is this times n


@dataclass
class PathwiseOptions:
    sweep_tol: float = 1e-10


def _runs_of(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends (inclusive) of the maximal runs of exactly equal values."""
    cut = np.flatnonzero(nu[1:] != nu[:-1])
    return np.concatenate(([0], cut + 1)), np.concatenate((cut, [nu.size - 1]))


def _pwq_min(w2: float, c: float, lam: float, b1, b2, prefer: float) -> float:
    """Minimize 0.5*w2*v^2 - c*v + lam*(|v-b1| + |v-b2|); breakpoints may be None.

    Tries the stationary point of each interval between the sorted breakpoints
    (the hinge subgradient is constant there); if none lands in its own
    interval the minimum sits at a breakpoint, and exact ties go to ``prefer``.
    """
    if b1 is None or b2 is None:
        b = b2 if b1 is None else b1
        if b is None:
            return c / w2
        v = (c + lam) / w2
        if v <= b:
            return v
        v = (c - lam) / w2
        if v > b:
            return v
        return b
    lo, hi = (b2, b1) if b2 < b1 else (b1, b2)
    v = (c + 2.0 * lam) / w2
    if v <= lo:
        return v
    v = c / w2
    if lo < v <= hi:
        return v
    v = (c - 2.0 * lam) / w2
    if v > hi:
        return v
    if lo == hi:
        return lo
    gap = lam * (hi - lo)  # the hinge pair's value at either breakpoint
    p0 = 0.5 * w2 * lo * lo - c * lo + gap
    p1 = 0.5 * w2 * hi * hi - c * hi + gap
    if abs(p0 - p1) <= 1e-15 * (1.0 + abs(p0)):
        return prefer
    return lo if p0 < p1 else hi


def _try_fuse(y, nu, r, lam, s, e):
    """Joint move of coordinates s..e onto one value. Returns (accepted, rel_change, alpha)."""
    n = y.size
    width = e - s + 1
    w = np.minimum(np.arange(1, n - s + 1, dtype=float), float(width))
    seg = nu[s:e + 1]
    cum = np.cumsum(seg)
    cvals = np.empty(n - s)
    cvals[:width] = cum
    cvals[width:] = cum[-1]
    rt = r[s:]
    w2 = float(w @ w)
    c_lin = float(w @ rt) + float(w @ cvals)
    b1 = nu[s - 1] if s >= 2 else None
    b2 = nu[e + 1] if e + 1 < n else None
    prefer = nu[e + 1] if e + 1 < n else nu[e]
    alpha = _pwq_min(w2, c_lin, lam, b1, b2, prefer)
    if np.all(seg == alpha):
        return False, 0.0, alpha
    dmu = alpha * w - cvals
    dquad = -float(rt @ dmu) + 0.5 * float(dmu @ dmu)
    lo = max(2, s)
    hi = min(n, e + 2)
    pen_before = float(np.sum(np.abs(np.diff(nu[lo - 1:hi]))))
    old = seg.copy()
    nu[s:e + 1] = alpha
    pen_after = float(np.sum(np.abs(np.diff(nu[lo - 1:hi]))))
    df = dquad + lam * (pen_after - pen_before)
    if df <= _ACCEPT_SLACK * (1.0 + abs(dquad) + lam * pen_before):
        r[s:] -= dmu
        rel = float(np.max(np.abs(alpha - old))) / (1.0 + abs(alpha))
        return True, rel, alpha
    nu[s:e + 1] = old
    return False, 0.0, None


def _tridiag_solve(off, diag, rhs):
    """Thomas algorithm for a symmetric tridiagonal system; off[k] couples
    unknowns k and k + 1. Stable here: the matrix is diagonally dominant."""
    off, diag, rhs = off.tolist(), diag.tolist(), rhs.tolist()
    G = len(diag)
    cp, dp = [0.0] * G, [0.0] * G
    m = diag[0]
    dp[0] = rhs[0] / m
    for i in range(1, G):
        cp[i - 1] = off[i - 1] / m
        m = diag[i] - off[i - 1] * cp[i - 1]
        dp[i] = (rhs[i] - off[i - 1] * dp[i - 1]) / m
    x = dp
    for i in range(G - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return np.array(x)


def _run_values(a, b, cs_y, cs_ty, h, lam):
    """Run values minimising the objective for runs [a_g, b_g] with the
    boundary subgradients h frozen.

    Solved in knot form: on run g, mu interpolates linearly from v_{g-1} (0
    before the first run) to v_g, its value at the run's end, so the normal
    equations in v are tridiagonal, O(G) in time and memory, and well
    conditioned, where those in the run values themselves are dense."""
    L = (b - a + 1).astype(float)
    sy = cs_y[b + 1] - cs_y[a]
    wy = (cs_ty[b + 1] - cs_ty[a] - a * sy) / L  # sum of y_t (t - a + 1) / L over the run
    # with weights w = k / L (k = 1..L) on each run: v_g gathers sum w^2 over
    # run g and sum (1 - w)^2 over run g + 1, and v_g, v_{g+1} share sum w (1 - w)
    diag = (L + 1) * (2 * L + 1) / (6 * L)
    diag[:-1] += (L[1:] - 1) * (2 * L[1:] - 1) / (6 * L[1:])
    hl = lam * h / L  # the penalty's gradient in v: alpha_g = (v_g - v_{g-1}) / L_g
    rhs = wy - hl
    rhs[:-1] += sy[1:] - wy[1:] + hl[1:]
    v = _tridiag_solve((L[1:] ** 2 - 1) / (6 * L[1:]), diag, rhs)
    return (v - np.concatenate(([0.0], v[:-1]))) / L


def _prefix_sums(y):
    """cumsum(y) and cumsum(t * y), t = 1..n, each with a leading 0: the run
    sums of every polish of a path."""
    cs_ty = np.cumsum(np.arange(1, y.size + 1) * y)
    return np.concatenate([[0.0], np.cumsum(y)]), np.concatenate([[0.0], cs_ty])


def _structure_polish(y, nu, r, lam, sums):
    """Exact run-value solve for the current fused pattern with frozen boundary
    signs; walks sign collisions (each merges two runs) until a full step fits.
    The assembled move is accepted only if the true objective does not increase.
    ``sums`` is ``_prefix_sums(y)``, taken once per path; each step of the
    walk is a few O(G) numpy operations and one tridiagonal solve.
    """
    a, b = _runs_of(nu)
    alpha = nu[a]
    cs_y, cs_ty = sums
    moved = False
    for _ in range(a.size + 8):
        # a run starting at a[g] >= 2 has a penalised boundary with the one before it
        diff0 = alpha[1:] - alpha[:-1]
        signs = np.where(a[1:] >= 2, np.sign(diff0), 0.0)
        h = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
        d = _run_values(a, b, cs_y, cs_ty, h, lam) - alpha
        if not np.all(np.isfinite(d)):
            break
        # the first boundary whose sign the full step would flip, at step tc < 1;
        # argmin takes the lowest such boundary on a tie
        ddiff = d[1:] - d[:-1]
        hit = np.flatnonzero((ddiff != 0.0) & (signs * (diff0 + ddiff) < 0))
        tc = -diff0[hit] / ddiff[hit]
        ok = (tc >= 0.0) & (tc < 1.0)
        theta, collide = 1.0, -1
        if np.any(ok):
            k = int(np.argmin(np.where(ok, tc, np.inf)))
            theta, collide = tc[k], int(hit[k]) + 1
        alpha = alpha + theta * d
        moved = True
        if collide < 0:
            break
        a = np.concatenate((a[:collide], a[collide + 1:]))
        b = np.concatenate((b[:collide - 1], b[collide:]))
        alpha = np.concatenate((alpha[:collide], alpha[collide + 1:]))
    if not moved:
        return 0.0
    nu_new = np.repeat(alpha, b - a + 1)
    mu_new = np.cumsum(nu_new)
    f_old = _objective(y, np.cumsum(nu), lam)
    f_new = _objective(y, mu_new, lam)
    if f_new > f_old + _ACCEPT_SLACK * (1.0 + abs(f_old)):
        return 0.0
    rel = float(np.max(np.abs(nu_new - nu) / (1.0 + np.abs(nu_new))))
    if rel <= DEADBAND:
        return 0.0
    nu[:] = nu_new
    r[:] = y - mu_new
    return rel


def _objective(y, mu, lam):
    resid = y - mu
    return 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(mu[2:] + mu[:-2] - 2.0 * mu[1:-1])))


def _split_scan(y, nu, r, lam):
    """Open a split in every run whose residual subgradient exceeds its unit
    bound strictly inside it (a violation at a run's first index is no split).
    Each such run splits at its peak |g|, in run order, by a sub-run joint
    move of its left part, else of its right part; the move may carry the
    sub-run onto its outer neighbour's value, which splits the run just the
    same. The peaks are read once, before any move. Returns the largest
    relative change and the number of splits made."""
    n = y.size
    if lam <= 0:
        return 0.0, 0
    gabs = np.abs(np.cumsum(np.cumsum(r))[:n - 2])
    pos = np.flatnonzero(gabs > lam * (1.0 + SPLIT_SLACK)) + 2
    if pos.size == 0:
        return 0.0, 0
    a, b = _runs_of(nu)
    g = np.searchsorted(a, pos, "right") - 1
    inner = pos > a[g]
    pos, g = pos[inner], g[inner]
    # the peak of each run: by run, then by falling |g|; the lowest position wins a tie
    order = np.lexsort((-gabs[pos - 2], g))
    pos, g = pos[order], g[order]
    first = g != np.concatenate(([-1], g[:-1]))
    maxrel, splits = 0.0, 0
    for p, s, e in zip(pos[first].tolist(), a[g[first]].tolist(), b[g[first]].tolist()):
        acc, rel, _ = _try_fuse(y, nu, r, lam, s, p - 1)
        if not acc:
            acc, rel, _ = _try_fuse(y, nu, r, lam, p, e)
        if acc:
            maxrel = max(maxrel, rel)
            splits += 1
    return maxrel, splits


def _solve_at(y, nu, r, lam, sums, sweep_tol, max_rounds):
    """Repeat rounds of structure polish and split scan at a fixed lambda until
    a round moves nothing beyond ``sweep_tol`` and opens no split; the polish
    merges runs and the scan splits them.

    A secondary exit catches numerical stationarity: when the objective has sat
    at its floating-point floor for several rounds and remaining moves are tiny
    structure flaps at a degenerate boundary, further rounds cannot improve the
    iterate even though the primary rule never fires.
    """
    f_prev = _objective(y, np.cumsum(nu), lam)
    stall = 0
    for rnd in range(max_rounds):
        m1 = _structure_polish(y, nu, r, lam, sums)
        m2, splits = _split_scan(y, nu, r, lam)
        moved = max(m1, m2)
        if moved <= sweep_tol and splits == 0:
            return rnd + 1, True
        f_now = _objective(y, np.cumsum(nu), lam)
        if f_prev - f_now <= 1e-14 * (1.0 + abs(f_now)) and moved <= 1e-6:
            stall += 1
            if stall >= 5:
                return rnd + 1, True
        else:
            stall = 0
        f_prev = f_now
    return max_rounds, False


def fit(y, lam: float, opts: PathwiseOptions | None = None) -> TrendFit:
    """Solve at a single penalty: the lowest entry of :func:`fit_path` on
    ``kkt.fit_ladder(lam, lambda_max(y))``, so the solve is warm-started down
    from the affine fit."""
    opts = opts or PathwiseOptions()
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    return fit_path(yv, fit_ladder(lam, lambda_max(yv)), opts.sweep_tol).entries[0].fit


def fit_path(y, lambda_grid, sweep_tol: float = 1e-10) -> LambdaPath:
    """Fit every lambda on a strictly increasing grid through
    ``kkt.certified_path``, starting from the affine least-squares fit (exact
    at and above lambda_max) and warm-starting each level from the next larger
    one. A level's own verdict is that it met the stopping rule within
    10 * n rounds; the path continues past a level that did not.
    """
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    line = affine_fit(yv)
    nu = np.full(yv.size, (line[-1] - line[0]) / (yv.size - 1))
    nu[0] = line[0]  # one run after index 0: the penalty of the affine fit is 0
    r = yv - np.cumsum(nu)
    sums = _prefix_sums(yv)

    def solve(lam):
        _, ok = _solve_at(yv, nu, r, lam, sums, sweep_tol, ROUNDS_PER_POINT * yv.size)
        return np.cumsum(nu), ok

    return certified_path(yv, lambda_grid, solve, "pathwise")
