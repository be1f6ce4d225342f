from dataclasses import dataclass, field

import numpy as np
import pytest

from trendfilter import kkt, pathwise
from trendfilter.core import extract_kinks, objective_value
from trendfilter.kkt import KktReport, affine_fit, check_kkt, lambda_max, oracle_solve
from trendfilter.pathwise import (
    DEADBAND,
    fit,
    fit_path,
    _prefix_sums,
    _pwq_min,
    _run_values,
    _runs_of,
    _solve_at,
    _split_scan,
    _structure_polish,
    _try_fuse,
)
from trendfilter.selection import default_grid
from trendfilter.simulate import (
    NoiseSpec, PiecewiseLinearSpec, add_noise, example1, example2, gen_trend,
)
from tests.conftest import random_walk


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


def descent_update(state: FusedState, k: int, lam: float) -> float | None:
    """Exact single-coordinate minimization at 0-based coordinate k.

    Returns the new value when the coordinate moves, None on no-change. The
    hinge breakpoints are the current neighbouring slopes: none for k = 0,
    only the right one for k = 1 (the first penalized difference is
    nu_3 - nu_2), only the left one for k = n-1.
    """
    nu, r = state.nu, state.resid
    n = nu.size
    if not 0 <= k < n:
        raise IndexError(k)
    w2 = float(n - k)
    c = w2 * nu[k] + float(r[k:].sum())
    b1 = nu[k - 1] if k >= 2 else None
    b2 = nu[k + 1] if (k >= 1 and k + 1 < n) else None
    prefer = nu[k + 1] if k + 1 < n else nu[k]
    v = _pwq_min(w2, c, lam, b1, b2, prefer)
    d = v - nu[k]
    if d == 0.0 or abs(d) <= DEADBAND * (1.0 + abs(v)):
        return None
    nu[k] = v
    r[k:] -= d
    return v


def fusion_update(state: FusedState, k: int, m: int, lam: float) -> tuple[bool, float | None]:
    """Propose nu[k-m..k] = alpha (0-based, 1 <= m <= k), the exact minimiser
    of the joint move, which may sit at a neighbour's value, and accept if the
    objective does not increase. Returns (accepted, alpha)."""
    n = state.nu.size
    if not (1 <= m <= k) or k >= n:
        raise IndexError((k, m))
    acc, _, alpha = _try_fuse(state.y, state.nu, state.resid, lam, k - m, k)
    return acc, (alpha if acc else None)


def groups(state: FusedState) -> list[tuple[int, int]]:
    """Maximal runs of exactly equal slope values, as (start, end) inclusive, 0-based."""
    return list(zip(*(x.tolist() for x in _runs_of(state.nu))))


def brute_1d_min(y, nu, k, lam, halfwidth=3.0, points=20001):
    """Numeric 1-d oracle for a single coordinate move."""
    grid = np.linspace(nu[k] - halfwidth, nu[k] + halfwidth, points)
    trial = nu.copy()
    best_v, best_f = nu[k], np.inf
    for v in grid:
        trial[k] = v
        f = objective_value(y, np.cumsum(trial), lam)
        if f < best_f:
            best_f, best_v = f, v
    return best_v


def _reference_pwq_min(w2, c, lam, b1, b2, prefer):
    """The loop form of the 1-d minimiser: one stationary candidate per
    interval between the sorted breakpoints, then the breakpoint tie rule."""
    bps = [b for b in (b1, b2) if b is not None]
    if not bps:
        return c / w2, True
    bps.sort()
    k = len(bps)
    lo = -np.inf
    for i in range(k + 1):
        hi = bps[i] if i < k else np.inf
        v = (c - lam * (2 * i - k)) / w2
        if (v > lo or i == 0) and v <= hi:
            return v, True
        lo = hi
    if k == 1 or bps[0] == bps[1]:
        return bps[0], False

    def psi(v):
        return 0.5 * w2 * v * v - c * v + lam * (abs(v - bps[0]) + abs(v - bps[1]))

    p0, p1 = psi(bps[0]), psi(bps[1])
    if abs(p0 - p1) <= 1e-15 * (1.0 + abs(p0)):
        return prefer, False
    return (bps[0] if p0 < p1 else bps[1]), False


def _loop_runs(nu):
    """Maximal runs of exactly equal values, (start, end) inclusive, in a loop."""
    runs = []
    s = 0
    for i in range(1, nu.size):
        if nu[i] != nu[s]:
            runs.append((s, i - 1))
            s = i
    runs.append((s, nu.size - 1))
    return runs


def _reference_split_scan(y, nu, r, lam):
    """The split scan as a loop over every coordinate of every run, with the
    subgradient and the runs read before any move: each run with a violated
    position strictly inside it splits at its largest violation (the first on
    a tie) by its left, else its right, sub-run move, in run order."""
    n = y.size
    if lam <= 0:
        return 0.0, 0
    gabs = np.abs(np.cumsum(np.cumsum(r))[:n - 2])
    bound = lam * (1.0 + pathwise.SPLIT_SLACK)
    maxrel, splits = 0.0, 0
    for a, b in _loop_runs(nu):
        peak = None
        for p in range(max(a + 1, 2), b + 1):
            if gabs[p - 2] > bound and (peak is None or gabs[p - 2] > gabs[peak - 2]):
                peak = p
        if peak is None:
            continue
        acc, rel, _ = _try_fuse(y, nu, r, lam, a, peak - 1)
        if not acc:
            acc, rel, _ = _try_fuse(y, nu, r, lam, peak, b)
        if acc:
            maxrel = max(maxrel, rel)
            splits += 1
    return maxrel, splits


def _reference_polish(y, nu, r, lam):
    """The structure polish with its runs, boundary signs and collision scan
    in Python loops; the first collision wins a tie (strict <)."""
    n = y.size
    runs = _loop_runs(nu)
    a = np.array([s for s, _ in runs])
    b = np.array([e for _, e in runs])
    alpha = nu[a]
    cs_y = np.concatenate([[0.0], np.cumsum(y)])
    cs_ty = np.concatenate([[0.0], np.cumsum(np.arange(1, n + 1) * y)])
    moved = False
    for _ in range(len(runs) + 8):
        G = a.size
        pb = [g for g in range(1, G) if a[g] >= 2]
        signs = np.array([np.sign(alpha[g] - alpha[g - 1]) for g in pb])
        h = np.zeros(G)
        for g, sg in zip(pb, signs):
            h[g] += sg
            h[g - 1] -= sg
        d = pathwise._run_values(a, b, cs_y, cs_ty, h, lam) - alpha
        if not np.all(np.isfinite(d)):
            break
        theta = 1.0
        collide = -1
        for g, sg in zip(pb, signs):
            diff0 = alpha[g] - alpha[g - 1]
            ddiff = d[g] - d[g - 1]
            if ddiff != 0.0 and sg * (diff0 + ddiff) < 0:
                tc = -diff0 / ddiff
                if 0.0 <= tc < theta:
                    theta = tc
                    collide = g
        alpha = alpha + theta * d
        moved = True
        if collide < 0:
            break
        a = np.delete(a, collide)
        b = np.delete(b, collide - 1)
        alpha = np.delete(alpha, collide)
    if not moved:
        return 0.0
    nu_new = np.repeat(alpha, b - a + 1)
    mu_new = np.cumsum(nu_new)
    f_old = pathwise._objective(y, np.cumsum(nu), lam)
    f_new = pathwise._objective(y, mu_new, lam)
    if f_new > f_old + pathwise._ACCEPT_SLACK * (1.0 + abs(f_old)):
        return 0.0
    rel = float(np.max(np.abs(nu_new - nu) / (1.0 + np.abs(nu_new))))
    if rel <= pathwise.DEADBAND:
        return 0.0
    nu[:] = nu_new
    r[:] = y - mu_new
    return rel


def _interpolation(y):
    """Exact lam = 0 state: mu = y."""
    nu = np.empty_like(y)
    nu[0] = y[0]
    nu[1:] = np.diff(y)
    return FusedState(y=y, nu=nu, resid=np.zeros_like(y))


def _affine_start(y):
    """The first state of fit_path: the affine least-squares fit, one run
    after index 0."""
    line = affine_fit(y)
    nu = np.full(y.size, (line[-1] - line[0]) / (y.size - 1))
    nu[0] = line[0]
    return FusedState(y=y, nu=nu)


def _fused_states(y, fracs):
    """(y, nu, r, lam): the affine start to be solved at fracs[0] * lambda_max,
    then the solver's state at each frac down the path, to be solved at the
    next one."""
    lmax, sums = lambda_max(y), _prefix_sums(y)
    state = _affine_start(y)
    out = [(y, state.nu.copy(), state.resid.copy(), fracs[0] * lmax)]
    for frac, nxt in zip(fracs, fracs[1:]):
        _solve_at(y, state.nu, state.resid, frac * lmax, sums, 1e-10, 10 * y.size)
        out.append((y, state.nu.copy(), state.resid.copy(), nxt * lmax))
    return out


def _same_bits(x, z):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(z, dtype=float).tobytes()


class TestReferenceEquivalence:
    """The 1-d minimiser, the batched split scan and the numpy collision walk
    against their loop forms, bit for bit."""

    def test_pwq_min_matches_reference(self, rng):
        cases = [(3.0, 3000.0, 1.0, 1000.0, 1000.0 + 1e-5, 1000.0 + 1e-5)]  # the tie branch
        for _ in range(4000):
            w2 = float(rng.integers(1, 50))
            lam = float(rng.choice([0.0, rng.exponential()]))
            pts = np.round(rng.normal(size=3), int(rng.integers(0, 3)))  # rounding makes ties
            b1, b2 = [None if rng.random() < 0.2 else float(v) for v in pts[:2]]
            cases.append((w2, w2 * pts[2], lam, b1, b2, float(rng.normal())))
        assert _reference_pwq_min(*cases[0]) == (cases[0][5], False)
        for args in cases:
            v_ref, _ = _reference_pwq_min(*args)
            assert _same_bits(_pwq_min(*args), v_ref), args

    def test_split_scan_matches_reference(self, rng):
        # random run patterns with violations in several runs, at single-point
        # runs, and at a run's first index (which is no split and is skipped)
        seen = {"several runs": 0, "single-point run": 0, "run start first": 0, "several splits": 0}
        slack = pathwise.SPLIT_SLACK
        for trial in range(400):
            lengths = rng.integers(1, 7, size=int(rng.integers(2, 10)))
            n = int(lengths.sum())
            if n < 4:
                continue
            nu = np.repeat(rng.normal(size=lengths.size), lengths)
            y = np.cumsum(nu) + rng.normal(0.0, 0.5, n)
            r = y - np.cumsum(nu)
            graw = np.abs(np.cumsum(np.cumsum(r))[:n - 2])
            lam = float(np.quantile(graw, rng.choice([0.1, 0.5, 0.8, 0.95]))) / (1.0 + slack)
            viol = np.flatnonzero(graw > lam * (1.0 + slack)) + 2
            starts = {a for a, _ in _loop_runs(nu)}
            run_of = {p: a for a, b in _loop_runs(nu) for p in range(a, b + 1)}
            inner = [p for p in viol if p not in starts]
            seen["several runs"] += len({run_of[p] for p in inner}) >= 2
            seen["single-point run"] += any(p in starts and p + 1 in starts for p in viol)
            seen["run start first"] += bool(inner) and viol[0] in starts
            state = FusedState(y=y, nu=nu.copy(), resid=r.copy())
            ref = FusedState(y=y, nu=nu.copy(), resid=r.copy())
            got = _split_scan(y, state.nu, state.resid, lam)
            want = _reference_split_scan(y, ref.nu, ref.resid, lam)
            assert got == want, trial
            assert _same_bits(state.nu, ref.nu) and _same_bits(state.resid, ref.resid), trial
            seen["several splits"] += got[1] >= 2
        assert min(seen.values()) > 0, seen
        y = random_walk(rng, 30)
        state = FusedState(y=y, nu=np.full(30, 0.1))
        assert _split_scan(y, state.nu, state.resid, 0.0) == _reference_split_scan(
            y, state.nu, state.resid, 0.0) == (0.0, 0)

    @pytest.mark.parametrize("case", ["random-walk", "rounded", "example2"])
    def test_polish_matches_reference(self, rng, case):
        # from the interpolant, where the walk merges many runs, and from the
        # solver's states down a path, each followed by split scans that open
        # new runs for the next polish
        if case == "random-walk":
            y = random_walk(rng, 150)
        elif case == "rounded":
            y = np.round(random_walk(rng, 150, scale=20.0) / 5.0) * 5.0
        else:
            y = add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=400.0, seed=3)).y
        start = _interpolation(y)
        states = [(y, start.nu, start.resid, 0.02 * lambda_max(y))]
        states += _fused_states(y, (0.5, 0.2, 0.02, 0.002))
        moved = 0
        for k, (y, nu0, r0, lam) in enumerate(states):
            state = FusedState(y=y, nu=nu0.copy(), resid=r0.copy())
            for rnd in range(3):
                nu, r = state.nu.copy(), state.resid.copy()
                got = _structure_polish(y, state.nu, state.resid, lam, _prefix_sums(y))
                want = _reference_polish(y, nu, r, lam)
                assert got == want, (k, rnd)
                assert _same_bits(state.nu, nu) and _same_bits(state.resid, r), (k, rnd)
                moved += got > 0.0
                _split_scan(y, state.nu, state.resid, lam)
        assert moved >= len(states)

    def test_collision_walk_ties_go_to_the_first_boundary(self, monkeypatch):
        # runs start at a = 0, 1, 3, 5, 7, 9. The full step flips the penalised
        # boundaries 2 and 4 both at tc = 0.5, so the walk merges boundary 2
        # first. Boundary 1 (a_1 = 1) is unpenalised: its sign would flip at
        # tc = 0.25, but it carries no sign and must not collide.
        nu = np.repeat([5.0, 0.0, 1.0, 2.0, 3.0, 4.0], [1, 2, 2, 2, 2, 3])
        target = np.zeros(nu.size)
        target[[0, 1, 3, 5, 7, 9]] = [5.0, 20.0, 19.0, 20.0, 19.0, 20.0]
        y = np.cumsum(nu) + np.linspace(-1.0, 1.0, nu.size)
        calls = []

        def run_values(a, b, cs_y, cs_ty, h, lam):
            calls.append((a.tolist(), b.tolist(), h.tolist()))
            return target[a]

        monkeypatch.setattr(pathwise, "_run_values", run_values)
        state = FusedState(y=y, nu=nu.copy())
        got = _structure_polish(y, state.nu, state.resid, 0.1, _prefix_sums(y))
        walk, calls[:] = list(calls), []
        ref = FusedState(y=y, nu=nu.copy())
        want = _reference_polish(y, ref.nu, ref.resid, 0.1)
        assert walk == calls
        assert [a for a, _, _ in walk] == [[0, 1, 3, 5, 7, 9], [0, 1, 5, 7, 9]]
        assert got == want
        assert _same_bits(state.nu, ref.nu) and _same_bits(state.resid, ref.resid)


class TestDescentUpdate:
    def test_exact_coordinate_minimizer_at_lambda_zero(self, rng):
        # the accepted value must do at least as well as a dense 1-d scan
        y = random_walk(rng, 9)
        nu = rng.normal(size=9)
        for k in (0, 3, 8):
            state = FusedState(y=y, nu=nu.copy())
            descent_update(state, k, 0.0)
            trial = nu.copy()
            trial[k] = brute_1d_min(y, nu, k, 0.0, halfwidth=6.0)
            f_update = objective_value(y, state.mu(), 0.0)
            f_scan = objective_value(y, np.cumsum(trial), 0.0)
            assert f_update <= f_scan + 1e-9 * (1 + abs(f_scan))

    def test_matches_brute_force_with_penalty(self, rng):
        y = random_walk(rng, 8)
        nu = rng.normal(size=8)
        for k in range(8):
            state = FusedState(y=y, nu=nu.copy())
            descent_update(state, k, 0.7)
            trial = nu.copy()
            trial[k] = brute_1d_min(y, nu, k, 0.7, halfwidth=6.0)
            f_update = objective_value(y, state.mu(), 0.7)
            f_scan = objective_value(y, np.cumsum(trial), 0.7)
            assert f_update <= f_scan + 1e-9 * (1 + abs(f_scan))

    def test_global_minimum_is_fixed_point(self):
        # y generated from a constant slope: lam = 0 optimum, and the penalty is
        # already zero, so no coordinate moves at any lam
        nu_star = np.full(7, 1.3)
        y = np.cumsum(nu_star)
        for lam in (0.0, 2.0):
            state = FusedState(y=y, nu=nu_star.copy())
            for k in range(7):
                assert descent_update(state, k, lam) is None

    def test_objective_never_increases(self, rng):
        y = random_walk(rng, 12)
        state = FusedState(y=y, nu=rng.normal(size=12))
        lam = 0.4
        f = objective_value(y, state.mu(), lam)
        for _ in range(200):
            k = int(rng.integers(0, 12))
            descent_update(state, k, lam)
            f_new = objective_value(y, state.mu(), lam)
            assert f_new <= f + 1e-12 * (1 + abs(f))
            f = f_new

    def test_random_start_sweeps_reach_oracle_objective(self, rng):
        # rounds of polish and split scan from a random start, no continuation
        y = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        lam = 0.5
        mu_star = oracle_solve(y, lam, tol=1e-14 * (1 + y @ y))
        f_star = objective_value(y, mu_star, lam)
        for trial in range(5):
            state = FusedState(y=y, nu=rng.normal(size=6))
            _solve_at(y, state.nu, state.resid, lam, _prefix_sums(y), 1e-12, 600)
            f = objective_value(y, state.mu(), lam)
            assert f == pytest.approx(f_star, rel=1e-6)


class TestFusionUpdate:
    def test_idempotent_on_optimal_run(self, rng):
        # solve once, pick a fused run of the solution, re-propose it
        y = random_walk(rng, 20)
        lam = 0.5 * lambda_max(y)
        res = fit(y, lam)
        state = FusedState(y=y, nu=res.nu_hat.copy())
        runs = groups(state)
        run = max(runs, key=lambda ab: ab[1] - ab[0])
        a, b = run
        if b > a:
            f_before = objective_value(y, state.mu(), lam)
            accepted, alpha = fusion_update(state, b, b - a, lam)
            f_after = objective_value(y, state.mu(), lam)
            assert f_after <= f_before + 1e-10 * (1 + abs(f_before))
            if accepted:
                assert np.all(state.nu[a:b + 1] == alpha)

    def test_fusion_merges_bitwise(self, rng):
        y = random_walk(rng, 15)
        state = FusedState(y=y, nu=rng.normal(size=15))
        lam = 5.0 * lambda_max(y)
        accepted, alpha = fusion_update(state, 7, 4, lam)
        if accepted:
            assert np.all(state.nu[3:8] == alpha)

    def test_large_lambda_collapses_to_affine(self, rng):
        y = random_walk(rng, 25)
        lam = 2.0 * lambda_max(y)
        res = fit(y, lam)
        assert np.max(np.abs(res.mu_hat - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))
        # nu constant from index 2 on: one slope group plus the free first entry
        assert np.max(np.abs(np.diff(res.nu_hat[1:]))) == 0.0

    def test_single_kink_two_groups(self):
        # noiseless one-kink trend at n=8: the fit fuses into exactly two slope
        # groups split at the true kink; the oracle's slope runs agree
        spec = PiecewiseLinearSpec(n=8, r=(0.5,), b=(1.0, -1.0))
        y = gen_trend(spec)
        res = fit(y, 1e-4)
        mu_star = oracle_solve(y, 1e-4, tol=1e-16 * (1 + y @ y))
        assert np.max(np.abs(res.mu_hat - mu_star)) < 1e-7
        assert extract_kinks(res).indices == (5,)          # one split, at the true kink
        assert extract_kinks(mu_star, tol_kink=1e-7).indices == (5,)


class TestFitPath:
    def test_lambda_zero_interpolates(self, rng):
        y = random_walk(rng, 30)
        path = fit_path(y, [0.0])
        assert np.array_equal(path.entries[0].fit.mu_hat, y)
        assert not path.entries[0].warm_start

    def test_beyond_lambda_max_is_affine(self, rng):
        y = random_walk(rng, 30)
        path = fit_path(y, [2.0 * lambda_max(y)])
        mu = path.entries[0].fit.mu_hat
        assert np.max(np.abs(mu - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))

    def test_objectives_match_oracle_along_grid(self, rng):
        spec = PiecewiseLinearSpec(n=50, r=(0.3, 0.7), b=(-30.0, 0.0, 30.0))
        y = gen_trend(spec) + rng.normal(0, 0.02, 50)
        lmax = lambda_max(y)
        grid = list(lmax * np.logspace(-4, 0, 30))
        path = fit_path(y, grid)
        for entry in path.entries:
            mu_star = oracle_solve(y, entry.lam)
            f_star = objective_value(y, mu_star, entry.lam)
            assert abs(entry.fit.objective - f_star) <= 1e-6 * (1 + abs(f_star))

    def test_every_entry_certified(self, rng):
        y = random_walk(rng, 40)
        grid = list(lambda_max(y) * np.logspace(-3, 0, 10))
        path = fit_path(y, grid)
        for entry in path.entries:
            assert entry.kkt is not None and entry.kkt.passed
            assert entry.fit.converged

    def test_warm_start_flags(self, rng):
        y = random_walk(rng, 20)
        grid = [0.0] + list(lambda_max(y) * np.array([0.1, 0.5]))
        path = fit_path(y, grid)
        assert [e.warm_start for e in path.entries] == [False, True, False]

    def test_group_count_mostly_decreasing(self, rng):
        y = random_walk(rng, 60)
        grid = list(lambda_max(y) * np.logspace(-4, 0, 25))
        path = fit_path(y, grid)
        counts = [len(groups(FusedState(y=y, nu=e.fit.nu_hat.copy()))) for e in path.entries]
        drops = sum(1 for a, b in zip(counts, counts[1:]) if b <= a)
        assert drops >= 0.95 * (len(counts) - 1)

    def test_monotone_descent_validated(self, rng, monkeypatch):
        # record the objective after each of a round's two moves: within a
        # lambda level no move may raise it
        y = random_walk(rng, 25)
        trace = []

        def recording(move):
            def wrapped(y, nu, r, lam, *args, **kwargs):
                out = move(y, nu, r, lam, *args, **kwargs)
                trace.append((lam, pathwise._objective(y, np.cumsum(nu), lam)))
                return out
            return wrapped

        for name in ("_structure_polish", "_split_scan"):
            monkeypatch.setattr(pathwise, name, recording(getattr(pathwise, name)))
        lam = 0.4 * lambda_max(y)
        fit(y, lam)
        assert sum(1 for level, _ in trace if level == lam) >= 4  # two rounds or more
        for (l0, f0), (l1, f1) in zip(trace, trace[1:]):
            if l0 == l1:
                assert f1 <= f0 + 1e-9 * (1.0 + abs(f0))

    def test_low_noise_path_certified(self):
        # small splits the split scan opens must survive the structure polish:
        # bridging them shut left entry 3 here at a defect of 1.1e-4, flagged converged
        y = add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=1e4, seed=1)).y
        path = fit_path(y, default_grid(lambda_max(y)))
        for i, entry in enumerate(path.entries):
            assert check_kkt(y, entry.fit.mu_hat, entry.lam).passed, i
            assert entry.fit.converged, i

    @pytest.mark.parametrize("case", ["step", "spike", "split-at-neighbour", "micro-units"])
    def test_path_certified_at_every_entry(self, case):
        # climbing the grid up from the interpolant left entry 60 (lambda_max)
        # of the step and entry 34 of the spike uncertified. At entry 13 of the
        # third path the subgradient breaks its bound inside the run 678..681,
        # whose right part must join the runs after it: each sub-run move has
        # its minimum at a neighbour's value, and a split scan that took only
        # interior minima left the entry uncertified. In micro units each round
        # lowers the objective by less than the stall exit's absolute floor of
        # 1e-14, so a rung stops after five rounds that open splits: a scan
        # that opened one split per round left 35 entries uncertified
        first = 0
        if case == "step":
            y = np.r_[np.zeros(100), np.ones(100)]
        elif case == "spike":
            y = np.zeros(201)
            y[100] = 50.0
        elif case == "split-at-neighbour":
            y = add_noise(gen_trend(example2(n=800)), NoiseSpec(snr=25.0, seed=1)).y
            first = 13
        else:
            y = add_noise(gen_trend(example2(n=400)), NoiseSpec(snr=400.0, seed=(5, 0, 0))).y * 1e-6
        path = fit_path(y, default_grid(lambda_max(y))[first:])
        for i, entry in enumerate(path.entries):
            assert entry.kkt.passed, i
            assert entry.fit.converged, i

    def test_polish_walks_few_collisions(self, monkeypatch):
        # warm-started down from lambda_max, each polish starts near its
        # optimal run pattern; collapsing the interpolant's runs instead took
        # 215 solves in one polish of this fit
        y = add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=400.0, seed=3)).y
        solves, per_polish = [0], []
        run_values, polish = pathwise._run_values, pathwise._structure_polish

        def counting_run_values(*args):
            solves[0] += 1
            return run_values(*args)

        def counting_polish(*args):
            solves[0] = 0
            out = polish(*args)
            per_polish.append(solves[0])
            return out

        monkeypatch.setattr(pathwise, "_run_values", counting_run_values)
        monkeypatch.setattr(pathwise, "_structure_polish", counting_polish)
        assert fit(y, lambda_max(y) / 100).converged
        assert per_polish and max(per_polish) <= 20

    def test_failed_certificate_is_not_converged(self, rng, monkeypatch):
        y = random_walk(rng, 30)
        failing = KktReport(max_inactive_ratio=2.0, active_sign_mismatches=0,
                            stationarity_residual=0.0, passed=False)
        monkeypatch.setattr(kkt, "check_kkt", lambda *args, **kwargs: failing)
        path = fit_path(y, [0.1 * lambda_max(y)])
        assert not path.entries[0].fit.converged
        assert not fit(y, 0.1 * lambda_max(y)).converged

    def test_grid_validation(self, rng):
        y = random_walk(rng, 10)
        with pytest.raises(ValueError):
            fit_path(y, [])
        with pytest.raises(ValueError):
            fit_path(y, [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_path(y, [-1.0, 2.0])


class TestRunValues:
    def test_knot_form_matches_dense_normal_equations(self, rng):
        # the polish's tridiagonal knot-form solve against the run-value normal
        # equations W'W alpha = W'y - lam h, W the prefix sums of run indicators
        for _ in range(200):
            n = int(rng.integers(3, 40))
            cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, n - 1)),
                                      replace=False))
            a = np.array([0, *cuts])
            b = np.array([*(cuts - 1), n - 1])
            y = rng.normal(size=n)
            h = rng.choice([-1.0, 0.0, 1.0], size=a.size)
            lam = float(rng.uniform(0.0, 2.0))
            W = np.cumsum((np.arange(n)[:, None] >= a) & (np.arange(n)[:, None] <= b), axis=0)
            dense = np.linalg.solve(W.T @ W, W.T @ y - lam * h)
            cs_y = np.concatenate([[0.0], np.cumsum(y)])
            cs_ty = np.concatenate([[0.0], np.cumsum(np.arange(1, n + 1) * y)])
            got = _run_values(a, b, cs_y, cs_ty, h, lam)
            assert np.allclose(got, dense, rtol=1e-8, atol=1e-8)


class TestSolverAgreement:
    @pytest.mark.parametrize("n", [20, 50, 120])
    def test_pathwise_matches_lasso(self, rng, n):
        from trendfilter import lasso
        y = random_walk(rng, n)
        lmax = lambda_max(y)
        for frac in (0.05, 0.4, 1.0):
            lam = frac * lmax
            mu_p = fit(y, lam).mu_hat
            mu_l = lasso.fit(y, lam).mu_hat
            assert np.max(np.abs(mu_p - mu_l)) <= 1e-5 * (1 + np.max(np.abs(y)))

    def test_paths_agree_on_a_low_noise_series(self):
        # with a split margin of 1e-7 this path strays from the lasso route by
        # more than the bound (by 4.0e-5 at entry 53 with a descent sweep)
        from trendfilter import lasso
        y = add_noise(gen_trend(example1(n=500)), NoiseSpec(snr=1e4, seed=(1, 0, 0))).y
        grid = default_grid(lambda_max(y))
        scale = 1 + np.max(np.abs(y))
        for i, (p, l) in enumerate(zip(fit_path(y, grid).entries, lasso.fit_path(y, grid).entries)):
            assert np.max(np.abs(p.fit.mu_hat - l.fit.mu_hat)) <= 1e-6 * scale, i
