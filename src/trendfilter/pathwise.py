"""Pathwise fused-run solver on the slope vector.

Works on nu (nu_1 = mu_1, nu_t = mu_t - mu_{t-1}), where the objective is

    f(nu) = 0.5 * ||y - X nu||^2 + lam * sum_{t=3..n} |nu_t - nu_{t-1}|

with X the cumulative-sum design. A path starts from the affine
least-squares fit, exact at and above lambda_max (nu = [mu_1, slope, slope,
...]), and descends its grid, warm-starting each level from the one above,
so runs open by splits as the penalty falls. A single fit is one level, from
the affine fit. At each level the solver repeats two moves, a fused-run
active-set method in the manner of Hoefling 2010:

* a split scan that makes one cut in each band of consecutive positions
  whose subgradient breaks its bound, at the band's peak, with the sign of
  the subgradient there; it moves nothing;
* a structure polish that adds those cuts as run boundaries with their
  signs frozen and solves every run value jointly and exactly for the
  pattern of equal-slope runs (one tridiagonal solve, O(G) for G runs),
  walking sign collisions one solve per collision step, where every boundary
  that closes merges. A split is a cut the polish keeps; a cut whose step
  goes against its sign closes at step 0. The walk, ``_walk``, runs on
  Python floats and is the lasso route's restricted solve too.

A level holds nu as its runs: the starts S (0, then each position where the
slope changes) and slopes V, Python lists, with mu = cumsum(nu). The polish is
exact, so no round evaluates the objective. In ``kkt.level``, as on the lasso
route, a level ends on runs it has held, or once a scan after a polish at its
lambda cuts nothing, as the state is then exact and no subgradient breaks its
bound. A round's O(n) numpy work is the scan's double cumulative sum and the
polish's mu; the rest is scalar work in proportion to the runs and the
violations. The double cumulative sum depends on mu alone, so a level that
ends on its rule hands the one its last scan took to the next level's first
scan, which reads the same mu. The grid loop, the lam = 0 entry and the KKT
certificate are ``kkt.certified_path``'s.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import LambdaPath, TrendFit, finite_array
from .kkt import affine_fit, certified_path, level, subgradient_times_lambda
from .kkt import check_kkt, lambda_max  # noqa: F401  bench/spans.py patches these names here

# The split scan cuts where |g| > lam * (1 + SPLIT_SLACK). The margin
# sets how closely this route agrees with the lasso route: on 39 benchmark
# series (default grid, n = 500 and 1000), a margin of 1e-7 left the two up to
# 7.2e-4 * (1 + max|y|) apart and 1e-9 up to 4.3e-6, against the benchmark's
# bound of 1e-6; 1e-11 agrees to 1.8e-9.
SPLIT_SLACK = 1e-11


@dataclass
class PathwiseOptions:
    """Accepted by :func:`fit` and read by nothing: ``sweep_tol`` changes no fit."""
    sweep_tol: float = 1e-10


def _runs(a, alpha, n):
    """(S, V, mu): the runs of slopes alpha on starts a, less each start whose
    slope equals the one before. Slopes are never -0.0 (sums whose first term
    is not), so equal slopes have equal bytes and (S, V) is nu exactly."""
    S, V = a[:1], alpha[:1]
    for p, v in zip(a[1:], alpha[1:]):
        if v != V[-1]:
            S.append(p)
            V.append(v)
    return S, V, np.repeat(V, [q - p for p, q in zip(S, [*S[1:], n])]).cumsum()


def _run_values(a, signs, cs_y, cs_ty, lam, n):
    """Slopes minimising the objective for the runs starting at a (a[0] = 0;
    run g ends where run g + 1 starts, the last at n - 1) with the boundary
    before run g + 1 frozen at signs[g], so run g's penalty gradient is
    h_g = s_{g-1} - s_g (s_{-1} = s_{G-1} = 0).

    Solved in knot form: on run g, mu interpolates linearly from v_{g-1} (0
    before the first run) to v_g, its value at the run's end, so the normal
    equations in v are tridiagonal, O(G) in time and memory, and well
    conditioned, where those in the run values themselves are dense. One
    scalar pass on Python floats forms each run's end and h_g, reads its
    sums and eliminates its row as the next run completes it (the Thomas
    algorithm, stable here as the matrix is diagonally dominant); the back
    substitution gives v and emits each slope (v_g - v_{g-1}) / L_g as it
    goes. Takes and returns lists."""
    # with weights w = k / L (k = 1..L) on each run: v_g gathers sum w^2 over
    # run g and sum (1 - w)^2 over run g + 1, and v_g, v_{g+1} share sum w (1 - w)
    Ls, cp, dp = [], [], []
    off = p = q = 0.0  # the row eliminated last: its coupling to the next, pivot ratio, reduced rhs
    first = True
    for ag, end, s0, s1 in zip(a, [*a[1:], n], [0.0, *signs], [*signs, 0.0]):
        L = float(end - ag)
        sy = cs_y[end] - cs_y[ag]
        wy = (cs_ty[end] - cs_ty[ag] - ag * sy) / L  # sum of y_t (t - a + 1) / L over the run
        hl = lam * (s0 - s1) / L  # the penalty's gradient in v: alpha_g = (v_g - v_{g-1}) / L_g
        L2, L6 = 2 * L, 6 * L
        Ls.append(L)
        if first:
            first = False
        else:  # this run completes the row before it, which is then eliminated
            m = diag + (L - 1) * (L2 - 1) / L6 - off * p
            q = (rhs + (sy - wy + hl) - off * q) / m
            dp.append(q)
            off = (L * L - 1) / L6
            p = off / m
            cp.append(p)
        diag = (L + 1) * (L2 + 1) / L6
        rhs = wy - hl
    v = (rhs - off * q) / (diag - off * p)
    alpha = []
    for c, d, L in zip(cp[::-1], dp[::-1], Ls[:0:-1]):
        u = d - c * v
        alpha.append((v - u) / L)
        v = u
    return [v / Ls[0], *alpha[::-1]]


def _prefix_sums(y):
    """cumsum(y) and cumsum(t * y), t = 1..n, each with a leading 0: the run
    sums of every polish of a path, as lists, which ``_run_values`` indexes
    as Python floats."""
    cs_ty = np.cumsum(np.arange(1, y.size + 1) * y)
    return [0.0, *np.cumsum(y).tolist()], [0.0, *cs_ty.tolist()]


def _split_scan(y, mu, S, lam, g=None):
    """Choose where the runs split: one cut in every maximal band of
    consecutive positions whose subgradient breaks its bound (|g| > lam *
    (1 + ``SPLIT_SLACK``)), at the band's peak |g| (the lowest position on a
    tie), with the sign of g there as the new boundary's sign. A band whose
    peak is in S, a run start, gets no cut: the polish re-solves that boundary
    anyway. A loop over the bands finds the peaks. A given ``g`` (it depends
    on mu alone) is the one the level above took on this mu. Moves nothing;
    returns (positions, signs), ascending lists, and g."""
    if g is None:
        g = subgradient_times_lambda(y - mu)  # g[p - 2] is lam times the subgradient at p
    gabs = abs(g)
    over = (gabs > lam * (1.0 + SPLIT_SLACK)).nonzero()[0]
    m = gabs[over].tolist()
    ends = ((over[1:] - over[:-1]) != 1).nonzero()[0].tolist() + [len(m) - 1] if m else []
    peaks, s = [], 0  # band over[s..e] peaks at the first of its largest |g|
    for e in ends:
        peaks.append(int(over[m.index(max(m[s:e + 1]), s)]) + 2)
        s = e + 1
    cuts = [p for p in peaks if S[bisect_right(S, p) - 1] != p]
    return cuts, [1.0 if g[p - 2] > 0 else -1.0 for p in cuts], g


def _walk(a, alpha, signs, sums, lam, n):
    """Exact solve of a sign-restricted run pattern: runs start at a (a[0] =
    0) with values alpha, and the boundary before run g + 1 carries signs[g]
    (0 if unpenalised). Each step solves the pattern (one ``_run_values``
    pass, which forms its run ends and boundary terms itself) and moves
    alpha toward it by the least step at which a boundary whose sign the
    full step would flip reaches zero (0 for one already past it); every
    boundary closing at that step merges its two runs, so the walk ends on a
    full step within len(a) steps (an unpenalised boundary is never hit).
    Lists throughout (``sums`` is ``_prefix_sums`` of y); returns (a, alpha)."""
    cs_y, cs_ty = sums
    while True:
        sol = _run_values(a, signs, cs_y, cs_ty, lam, n)
        d = [v - u for v, u in zip(sol, alpha)]
        theta, hit = 1.0, []  # hit: (boundary, step) where the full step flips the sign
        for k, (s, u0, u1, e0, e1) in enumerate(zip(signs, alpha, alpha[1:], d, d[1:])):
            ddiff = e1 - e0
            if s * (u1 - u0 + ddiff) < 0 and ddiff != 0.0:
                tc = max(0.0, (u0 - u1) / ddiff)
                hit.append((k, tc))
                if tc < theta:
                    theta = tc
        if theta == 1.0:
            return a, [u + v for u, v in zip(alpha, d)]
        alpha = [u + theta * v for u, v in zip(alpha, d)]
        closed = {k + 1 for k, tc in hit if tc == theta}
        keep = [g for g in range(len(a)) if g not in closed]
        signs = [signs[g - 1] for g in keep[1:]]
        a, alpha = [a[g] for g in keep], [alpha[g] for g in keep]


def _structure_polish(y, S, V, lam, sums, cuts, cut_signs):
    """Exact run-value solve by ``_walk`` for the runs S, V split at index 1 and
    every cut (one O(G + cuts) merge), under frozen boundary signs: a cut's own,
    else the sign of the slope step. A cut takes the slope of its run; one whose
    step goes against its sign closes at step 0. No cut is made at the
    unpenalised index 1, so a run fused across it would stay fused. The move is
    taken untested. Returns ``_runs`` of the result, the exact solve of its
    pattern; ``sums`` is ``_prefix_sums(y)``, taken once per path."""
    a = [0, *sorted({1, *S[1:], *cuts})]
    alpha = [V[bisect_right(S, p) - 1] for p in a]
    frozen = dict(zip(cuts, cut_signs))
    signs = [frozen.get(p, 0.0 if p < 2 or u1 == u0 else 1.0 if u1 > u0 else -1.0)
             for p, u0, u1 in zip(a[1:], alpha, alpha[1:])]
    return _runs(*_walk(a, alpha, signs, sums, lam, y.size), y.size)


def _solve_at(y, S, V, mu, lam, sums, g=None):
    """One level at a fixed lambda from the runs S, V and their mu, in
    ``kkt.level``, whose state is the runs, slopes by their bytes (the float
    hash equates -0.0 and 0.0). A round's split scan chooses cuts; the level
    ends if a polish has run at this lambda and the scan chose none, else a
    structure polish splits the runs at them, solves every run value and
    merges runs. Returns the runs, mu, the level's verdict and, if it ended on
    its rule, its last scan's g, taken on that mu, to seed the next level's
    first scan; else None."""
    polished = False

    def step():
        nonlocal S, V, mu, g, polished
        cuts, cut_signs, g = _split_scan(y, mu, S, lam, g)
        if polished and not cuts:
            return True
        S, V, mu = _structure_polish(y, S, V, lam, sums, cuts, cut_signs)
        g, polished = None, True
        return False

    ok = level(lambda: (*S, np.array(V).tobytes()), step, y.size)
    return S, V, mu, ok, g


def fit(y, lam: float, opts: PathwiseOptions | None = None) -> TrendFit:
    """Solve at a single penalty: one level of :func:`fit_path`, from the affine fit."""
    return fit_path(y, [lam]).entries[0].fit


def fit_path(y, lambda_grid) -> LambdaPath:
    """Fit every lambda on a strictly increasing grid through
    ``kkt.certified_path``, starting from the affine least-squares fit (exact
    at and above lambda_max) and warm-starting each level from the next larger
    one. A level's own verdict is ``kkt.level``'s, as on the lasso route; the
    path continues past a level that stopped at its round cap.
    """
    yv = finite_array(y)
    line = affine_fit(yv)
    # one run after index 0: the penalty of the affine fit is 0
    S, V, mu = _runs([0, 1], [float(line[0]), float((line[-1] - line[0]) / (yv.size - 1))], yv.size)
    sums = _prefix_sums(yv)
    g = None  # the scan seed the level above leaves for the next

    def solve(lam):
        nonlocal S, V, mu, g
        S, V, mu, ok, g = _solve_at(yv, S, V, mu, lam, sums, g)
        return mu, ok

    return certified_path(yv, lambda_grid, solve, "pathwise")
