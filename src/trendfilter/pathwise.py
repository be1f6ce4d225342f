"""Pathwise descent solver on the slope vector.

Works on nu (nu_1 = mu_1, nu_t = mu_t - mu_{t-1}), where the objective is

    f(nu) = 0.5 * ||y - X nu||^2 + lam * sum_{t=3..n} |nu_t - nu_{t-1}|

with X the cumulative-sum design. The solver follows a penalty continuation
down from lambda_max: start from the affine least-squares fit, exact at and
above lambda_max (nu = [mu_1, slope, slope, ...]), and descend the lambda
ladder, warm-starting each level from the one above, so runs open by splits
as the penalty falls. At each level it repeats three moves until a round
moves nothing:

* a descent cycle: exact 1-d minimization coordinate by coordinate, where the
  1-d profile is a quadratic plus at most two hinge terms at the neighbouring
  slope values (the coordinate-wise descent of Friedman, Hastie, Hoefling &
  Tibshirani 2007). A numpy test marks the coordinates inside a run that
  cannot move, and only the others run on Python floats, with the residual's
  suffix sums corrected in a scalar, and r is updated once;
* a structure polish that solves every run value jointly and exactly for the
  current pattern of equal-slope runs with frozen boundary signs (one
  tridiagonal solve, O(G) for G runs), walking sign collisions one solve per
  collision, each merging two runs; the signs and the first collision of a
  step are numpy scans, and the prefix sums of y are taken once per path.
  The assembled step is kept only if f does not rise;
* a split scan that reads the residual subgradient and attempts a sub-run
  joint move exactly where its unit bound is violated inside a run, visiting
  only those positions.

Away from the moving coordinates a round costs O(n) numpy work and scalar
work in proportion to the runs and the moves.

A single fit is the lowest entry of a path on its own ladder down from
lambda_max, so every emitted fit comes from the same loop and carries the KKT
certificate (kkt module); ``converged`` means the loop met its sweep rule and
the certificate passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import LambdaPath, PathEntry, TimeSeries, TrendFit, validate_grid
from .kkt import affine_fit, check_kkt, lambda_max

# Ignore coordinate moves below this relative size: they are floating-point
# jitter and would endlessly fragment fused runs.
DEADBAND = 1e-15

_ACCEPT_SLACK = 1e-12  # relative slack when testing "objective does not increase"

SWEEPS_PER_POINT = 10  # a level's round cap is this times n
LADDER_RATIO = 2.5     # a single fit's ladder grows by this factor per rung


@dataclass
class PathwiseOptions:
    sweep_tol: float = 1e-10


@dataclass
class FusedState:
    """Mutable solver state: slope vector, residual, and the implied run partition."""

    y: np.ndarray
    nu: np.ndarray
    resid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.resid is None:
            self.resid = self.y - np.cumsum(self.nu)

    def mu(self) -> np.ndarray:
        return np.cumsum(self.nu)


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


def _descent_sweep(y, nu, r, lam, reverse=False):
    """Full cyclic descent pass: the suffix sums of the residual are taken
    once and corrected in a scalar for the moves made so far, each move is
    written into nu, and r is updated once at the end.

    Only coordinates that can move run through the scalar code. A coordinate
    k inside a run (nu_{k-1} = nu_k = nu_{k+1}) stays put while its corrected
    suffix sum S_k = suf_k - shift keeps |S_k| < 2 lam; numpy marks those with
    |suf_k| + |shift| below 2 lam less a round-off slack. The shift is
    delta_tot * (n - k) forward and delta_tot in reverse, so the marks are
    redone after each move, which also releases the next coordinate."""
    n = y.size
    maxrel = 0.0
    sufa = np.cumsum(r[::-1])[::-1]
    w = np.arange(n, 0, -1.0)  # n - k
    room = 2.0 * lam - 1e-12 * (w * np.abs(nu) + np.abs(sufa) + 2.0 * lam) - np.abs(sufa)
    held = np.zeros(n, dtype=bool)
    held[2:n - 1] = (nu[1:n - 2] == nu[2:n - 1]) & (nu[2:n - 1] == nu[3:])
    # skip k while |delta_tot| < cap[k]; cap is kept in sweep order
    cap = np.where(held & (room > 0.0), room if reverse else room / w, -np.inf)
    if reverse:
        cap = cap[::-1].copy()
    suf = sufa.tolist()
    x = nu.tolist()
    deltas = np.zeros(n)
    delta_tot = 0.0  # forward: total of earlier deltas; reverse: sum of d*(n-j)
    start = 0
    while start < n:
        todo = np.flatnonzero(cap[start:] <= abs(delta_tot)) + start
        start = n
        for p in todo.tolist():
            k = n - 1 - p if reverse else p
            S = suf[k] - (delta_tot if reverse else delta_tot * (n - k))
            w2 = float(n - k)
            xk = x[k]
            nxt = x[k + 1] if k + 1 < n else None
            v = _pwq_min(w2, w2 * xk + S, lam, x[k - 1] if k >= 2 else None,
                         nxt if k >= 1 else None, xk if nxt is None else nxt)
            d = v - xk
            if d != 0.0 and abs(d) > DEADBAND * (1.0 + abs(v)):
                x[k] = nu[k] = v
                deltas[k] = d
                delta_tot += d * (n - k) if reverse else d
                rel = abs(d) / (1.0 + abs(v))
                if rel > maxrel:
                    maxrel = rel
                start = p + 1
                if start < n:
                    cap[start] = -np.inf
                break
    if maxrel > 0.0:
        r -= np.cumsum(deltas)
    return maxrel


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


def _split_scan(y, nu, r, lam, slack=1e-7):
    """Attempt one sub-run joint move where the residual subgradient exceeds
    its unit bound strictly inside a run (the structure must split there).
    The move may carry the sub-run onto its outer neighbour's value, which
    splits the run just the same. Only the violated positions are visited,
    in ascending order; a violation at a run's first index is no split.

    The trigger margin stays an order of magnitude inside the default
    certificate tolerance; a tighter margin would chase sub-certificate
    boundary noise, and the structure polish would merge each such split
    again on the next round."""
    n = y.size
    if lam <= 0:
        return 0.0, 0
    graw = np.cumsum(np.cumsum(r))[:n - 2]
    viol = np.abs(graw) > lam * (1.0 + slack)
    if not np.any(viol):
        return 0.0, 0
    # the violated positions p strictly inside their run, in ascending order
    a, b = _runs_of(nu)
    pos = np.flatnonzero(viol) + 2
    g = np.searchsorted(a, pos, "right") - 1
    inner = pos > a[g]
    for p, s, e in zip(pos[inner].tolist(), a[g[inner]].tolist(), b[g[inner]].tolist()):
        acc, rel, _ = _try_fuse(y, nu, r, lam, s, p - 1)
        if not acc:
            acc, rel, _ = _try_fuse(y, nu, r, lam, p, e)
        if acc:
            return rel, 1
    return 0.0, 0


def _solve_at(y, nu, r, lam, sums, sweep_tol, max_sweeps):
    """Repeat rounds of descent, structure polish and split scan at a fixed
    lambda until a full round moves nothing beyond tolerance and opens no split.

    A secondary exit catches numerical stationarity: when the objective has sat
    at its floating-point floor for several rounds and remaining moves are tiny
    structure flaps at a degenerate boundary, further rounds cannot improve the
    iterate even though the primary rule never fires.
    """
    f_prev = _objective(y, np.cumsum(nu), lam)
    stall = 0
    for sweep in range(max_sweeps):
        m1 = _descent_sweep(y, nu, r, lam, reverse=(sweep % 2 == 1))
        m2 = _structure_polish(y, nu, r, lam, sums)
        m3, splits = _split_scan(y, nu, r, lam)
        moved = max(m1, m2, m3)
        if moved <= sweep_tol and splits == 0:
            return sweep + 1, True
        f_now = _objective(y, np.cumsum(nu), lam)
        if f_prev - f_now <= 1e-14 * (1.0 + abs(f_now)) and moved <= 1e-6:
            stall += 1
            if stall >= 5:
                return sweep + 1, True
        else:
            stall = 0
        f_prev = f_now
    return max_sweeps, False


def fit(y, lam: float, opts: PathwiseOptions | None = None) -> TrendFit:
    """Solve at a single penalty: the lowest entry of :func:`fit_path` on the
    ladder lam, 2.5 lam, ... (each below lambda_max), then lambda_max, so the
    solve is warm-started down from the affine fit. For lam <= 0 or
    lam >= lambda_max the ladder is lam alone."""
    opts = opts or PathwiseOptions()
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    lmax = lambda_max(yv)
    ladder = [lam]
    if 0 < lam < lmax:
        while ladder[-1] * LADDER_RATIO < lmax:
            ladder.append(ladder[-1] * LADDER_RATIO)
        ladder.append(lmax)
    return fit_path(yv, ladder, opts.sweep_tol).entries[0].fit


def fit_path(y, lambda_grid, sweep_tol: float = 1e-10) -> LambdaPath:
    """Fit every lambda on a strictly increasing grid. The grid is solved from
    its largest lambda down, starting from the affine least-squares fit (exact
    at and above lambda_max) and warm-starting each entry from the next larger
    one; entries come back in ascending order. Every emitted fit carries its
    KKT certificate, and a fit is flagged converged only when its rung met the
    sweep rule within 10 * n rounds and the certificate passed; the path
    continues past a flagged rung. At lam = 0 the fit is y itself.
    """
    yv = y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)
    grid = validate_grid(lambda_grid)
    line = affine_fit(yv)
    nu = np.full(yv.size, (line[-1] - line[0]) / (yv.size - 1))
    nu[0] = line[0]  # one run after index 0: the penalty of the affine fit is 0
    state = FusedState(y=yv, nu=nu)
    sums = _prefix_sums(yv)
    entries = []
    warm = False
    for lam in reversed(grid):
        if lam == 0.0:  # the interpolant, not a warm start
            mu, ok, warm = yv.copy(), True, False
        else:
            _, ok = _solve_at(yv, state.nu, state.resid, lam, sums, sweep_tol,
                              SWEEPS_PER_POINT * yv.size)
            mu = state.mu()
        report = check_kkt(yv, mu, lam)
        fit_l = TrendFit.from_mu(yv, mu, lam, converged=ok and report.passed, solver="pathwise")
        entries.append(PathEntry(lam=lam, fit=fit_l, warm_start=warm, kkt=report))
        warm = True
    return LambdaPath(entries=tuple(reversed(entries)))
