import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from trendfilter import kkt, lasso, pathwise
from trendfilter.core import extract_kinks, objective_value
from trendfilter.kkt import KktReport, affine_fit, check_kkt, lambda_max, oracle_solve
from trendfilter.pathwise import (
    fit,
    fit_path,
    _prefix_sums,
    _run_values,
    _solve_at,
    _split_scan,
    _structure_polish,
    _walk,
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


def _runs_of(nu):
    """Starts of the maximal runs of exactly equal values."""
    return np.flatnonzero(np.concatenate(([True], nu[1:] != nu[:-1])))


def _level(nu):
    """The runs (S, V) and mu of the slope vector nu, as a level holds them."""
    S = _runs_of(nu).tolist()
    return S, nu[S].tolist(), np.cumsum(nu)


def _nu(S, V, n):
    """The slope vector of the runs S, V."""
    return np.repeat(V, np.diff(S + [n]))


def groups(state: FusedState) -> list[tuple[int, int]]:
    """Maximal runs of exactly equal slope values, as (start, end) inclusive, 0-based."""
    starts = _runs_of(state.nu).tolist()
    return list(zip(starts, [s - 1 for s in starts[1:]] + [state.nu.size - 1]))


def _loop_runs(nu):
    """Starts of the maximal runs of exactly equal values, in a loop."""
    starts = [0]
    for i in range(1, nu.size):
        if nu[i] != nu[starts[-1]]:
            starts.append(i)
    return starts


def _reference_split_scan(y, nu, r, lam):
    """The split scan as a loop over the positions: walk each maximal band of
    consecutive violations, keep its largest |g| (the first on a tie), and
    cut there with the sign of g unless the peak already starts a run."""
    n = y.size
    g = np.cumsum(np.cumsum(r))[:n - 2]
    bound = lam * (1.0 + pathwise.SPLIT_SLACK)
    cuts, signs = [], []
    p = 2
    while p < n:
        if abs(g[p - 2]) <= bound:
            p += 1
            continue
        peak = p
        while p < n and abs(g[p - 2]) > bound:
            if abs(g[p - 2]) > abs(g[peak - 2]):
                peak = p
            p += 1
        if nu[peak] == nu[peak - 1]:
            cuts.append(peak)
            signs.append(np.sign(g[peak - 2]))
    return np.array(cuts, dtype=int), np.array(signs, dtype=float)


def _reference_polish(y, nu, r, lam, cuts, cut_signs):
    """The structure polish with its runs, boundary signs and collision scan
    in Python loops: index 1 and the cuts start runs, the cuts with their own
    signs, and every boundary that closes at the first collision step merges
    in that step. Returns whether the walk ended on a full step."""
    n = y.size
    frozen = dict(zip(np.asarray(cuts).tolist(), np.asarray(cut_signs).tolist()))
    a = np.array(sorted(set(_loop_runs(nu)) | {1} | set(frozen)))
    alpha = nu[a]
    signs = [0.0 if a[g] < 2 else frozen.get(int(a[g]), np.sign(alpha[g] - alpha[g - 1]))
             for g in range(1, a.size)]
    cs_y = np.concatenate([[0.0], np.cumsum(y)])
    cs_ty = np.concatenate([[0.0], np.cumsum(np.arange(1, n + 1) * y)])
    finished = False
    for _ in range(a.size + 8):
        G = a.size
        d = np.asarray(pathwise._run_values(a.tolist(), list(signs), cs_y, cs_ty, lam, n)) - alpha
        steps = {}
        for g in range(1, G):
            diff0 = alpha[g] - alpha[g - 1]
            ddiff = d[g] - d[g - 1]
            if ddiff != 0.0 and signs[g - 1] * (diff0 + ddiff) < 0:
                tc = max(-diff0 / ddiff, 0.0)
                if tc < 1.0:
                    steps[g] = tc
        if not steps:
            alpha = alpha + d
            finished = True
            break
        theta = min(steps.values())
        alpha = alpha + theta * d
        closing = [g for g, tc in steps.items() if tc == theta]
        a = np.delete(a, closing)
        alpha = np.delete(alpha, closing)
        signs = [sg for g, sg in enumerate(signs, start=1) if g not in closing]
    nu[:] = np.repeat(alpha, np.diff(a, append=n))
    r[:] = y - np.cumsum(nu)
    return finished


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
    S, V, mu = _level(state.nu)
    for frac, nxt in zip(fracs, fracs[1:]):
        S, V, mu, _, _ = _solve_at(y, S, V, mu, frac * lmax, sums)
        nu = _nu(S, V, y.size)
        out.append((y, nu, y - np.cumsum(nu), nxt * lmax))
    return out


def _case_series(rng, case):
    """The polish tests' series: a random walk, the same rounded to steps of 5
    (ties in y), and a noisy example2 trend."""
    if case == "random-walk":
        return random_walk(rng, 150)
    if case == "rounded":
        return np.round(random_walk(rng, 150, scale=20.0) / 5.0) * 5.0
    return add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=400.0, seed=3)).y


def _same_bits(x, z):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(z, dtype=float).tobytes()


class TestReferenceEquivalence:
    """The band split scan and the structure polish against their loop forms,
    bit for bit."""

    def test_split_scan_matches_reference(self, rng):
        # random run patterns whose violations form bands that cross runs,
        # peak at a run start (no cut) and come several to a scan
        seen = {"band over runs": 0, "peak at run start": 0, "several bands": 0}
        slack = pathwise.SPLIT_SLACK
        for trial in range(400):
            lengths = rng.integers(1, 7, size=int(rng.integers(2, 10)))
            n = int(lengths.sum())
            if n < 4:
                continue
            nu = np.repeat(rng.normal(size=lengths.size), lengths)
            y = np.cumsum(nu) + rng.normal(0.0, 0.5, n)
            r = y - np.cumsum(nu)
            gabs = np.abs(np.cumsum(np.cumsum(r))[:n - 2])
            lam = float(np.quantile(gabs, rng.choice([0.1, 0.5, 0.8, 0.95]))) / (1.0 + slack)
            viol = (np.flatnonzero(gabs > lam * (1.0 + slack)) + 2).tolist()
            bands = [[p] for p in viol[:1]]
            for q, p in zip(viol, viol[1:]):
                if p == q + 1:
                    bands[-1].append(p)
                else:
                    bands.append([p])
            starts = set(_loop_runs(nu))
            peaks = [max(band, key=lambda p: (gabs[p - 2], -p)) for band in bands]
            seen["band over runs"] += any(set(band[1:]) & starts for band in bands)
            seen["peak at run start"] += any(p in starts for p in peaks)
            seen["several bands"] += len(bands) >= 2
            got = _split_scan(y, np.cumsum(nu), _runs_of(nu).tolist(), lam)
            want = _reference_split_scan(y, nu, r, lam)
            assert got[0] == want[0].tolist(), trial
            assert _same_bits(got[1], want[1]), trial
            assert got[0] == [p for p in peaks if p not in starts], trial
        assert min(seen.values()) > 0, seen

    def test_split_scan_tie_goes_to_the_lowest_position(self):
        # |g| = 1 on two bands of three positions, g = 1 on 3..5 and -1 on
        # 9..11: each band ties at every position and cuts at its first
        y = np.array([0.0, 1.0, -1.0, 0.0, -1.0, 1.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0])
        mu = np.zeros(y.size)
        assert _split_scan(y, mu, [0], 0.5)[:2] == ([3, 9], [1.0, -1.0])
        assert _split_scan(y, mu, [0, 3], 0.5)[:2] == ([9], [-1.0])
        cuts, signs = _array_split_scan(y, mu, y - mu, 0.5)
        assert cuts.tolist() == [3, 9] and signs.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("case", ["random-walk", "rounded", "example2"])
    def test_polish_matches_reference(self, rng, case):
        # from the interpolant, where the walk merges many runs, and from the
        # solver's states down a path, each polish given the cuts of a split
        # scan of its state
        y = _case_series(rng, case)
        start = _interpolation(y)
        states = [(y, start.nu, start.resid, 0.02 * lambda_max(y))]
        states += _fused_states(y, (0.5, 0.2, 0.02, 0.002))
        moved = cut = 0
        for k, (y, nu0, _, lam) in enumerate(states):
            S, V, mu = _level(nu0)
            for rnd in range(3):
                cuts, signs, _ = _split_scan(y, mu, S, lam)
                nu, r = _nu(S, V, y.size), y - mu
                S, V, mu = _structure_polish(y, S, V, lam, _prefix_sums(y), cuts, signs)
                moved += not _same_bits(_nu(S, V, y.size), nu)
                assert _reference_polish(y, nu, r, lam, cuts, signs) is True, (k, rnd)
                assert S == _runs_of(nu).tolist() and _same_bits(V, nu[S]), (k, rnd)
                assert _same_bits(mu, np.cumsum(nu)) and _same_bits(y - mu, r), (k, rnd)
                cut += len(cuts) > 0
        assert moved >= len(states) and cut >= len(states)

    def test_collision_walk_merges_tied_boundaries_at_once(self, monkeypatch):
        # runs start at a = 0, 1, 3, 5, 7, 9. The full step flips the penalised
        # boundaries at a = 3 and a = 7 both at tc = 0.5, so the walk merges
        # both in its first step. Boundary a = 1 is unpenalised: its sign would
        # flip at tc = 0.25, but it carries no sign and must not collide.
        nu = np.repeat([5.0, 0.0, 1.0, 2.0, 3.0, 4.0], [1, 2, 2, 2, 2, 3])
        target = np.zeros(nu.size)
        target[[0, 1, 3, 5, 7, 9]] = [5.0, 20.0, 19.0, 20.0, 19.0, 20.0]
        y = np.cumsum(nu) + np.linspace(-1.0, 1.0, nu.size)
        calls = []

        def run_values(a, signs, cs_y, cs_ty, lam, n):
            calls.append((list(a), list(signs)))
            return target[a].tolist()

        monkeypatch.setattr(pathwise, "_run_values", run_values)
        S, V, _ = _level(nu)
        S, V, mu = _structure_polish(y, S, V, 0.1, _prefix_sums(y), [], [])
        walk, calls[:] = list(calls), []
        ref = FusedState(y=y, nu=nu.copy())
        assert _reference_polish(y, ref.nu, ref.resid, 0.1, [], []) is True
        assert walk == calls
        assert [a for a, _ in walk] == [[0, 1, 3, 5, 7, 9], [0, 1, 5, 9]]
        assert _same_bits(_nu(S, V, y.size), ref.nu) and _same_bits(y - mu, ref.resid)


def _array_split_scan(y, nu, r, lam):
    """The split scan on the n-vector nu: band peaks by ``np.lexsort``, and a
    peak starts a run where nu steps there."""
    g = np.cumsum(np.cumsum(r))[:y.size - 2]
    gabs = np.abs(g)
    over = np.flatnonzero(gabs > lam * (1.0 + pathwise.SPLIT_SLACK))
    if over.size == 0:
        return over, g[over]
    band = np.cumsum(np.concatenate(([True], over[1:] != over[:-1] + 1)))
    order = np.lexsort((-gabs[over], band))
    band = band[order]
    peaks = over[order[np.concatenate(([True], band[1:] != band[:-1]))]] + 2
    cuts = peaks[nu[peaks] == nu[peaks - 1]]
    return cuts, np.sign(g[cuts - 2])


def _array_polish(y, nu, r, lam, sums, cuts, cut_signs):
    """The structure polish on the n-vector nu: the run starts, index 1 and
    the cuts merged through a boolean start mask, then ``_walk``; nu and r
    are written in place; the walk ends on a full step."""
    n = y.size
    start = np.zeros(n, dtype=bool)
    start[_runs_of(nu)] = True
    start[1] = True
    start[cuts] = True
    a = np.flatnonzero(start)
    alpha = nu[a]
    signs = np.where(a[1:] >= 2, np.sign(alpha[1:] - alpha[:-1]), 0.0)
    signs[np.searchsorted(a, cuts) - 1] = cut_signs
    a, alpha = _walk(a.tolist(), alpha.tolist(), signs.tolist(), sums, lam, n)
    nu[:] = np.repeat(alpha, np.diff(a, append=n))
    r[:] = y - np.cumsum(nu)


def _array_fit_path(y, grid, scans, repeats):
    """``fit_path`` with a level held as the n-vector nu and its residual, and
    its repeats told by a hash of nu's bytes. Appends each level's scan count
    to ``scans`` and whether it ended on a repeat to ``repeats``."""
    line = affine_fit(y)
    nu = np.full(y.size, (line[-1] - line[0]) / (y.size - 1))
    nu[0] = line[0]
    r = y - np.cumsum(nu)
    sums = _prefix_sums(y)

    def level(lam):
        seen, polished = set(), False
        scans.append(0)
        repeats.append(False)
        for _ in range(kkt.ROUNDS_PER_POINT * y.size):
            state = hash(nu.tobytes())
            if state in seen:
                repeats[-1] = True
                return np.cumsum(nu), True
            seen.add(state)
            cuts, cut_signs = _array_split_scan(y, nu, r, lam)
            scans[-1] += 1
            if polished and cuts.size == 0:
                return np.cumsum(nu), True
            _array_polish(y, nu, r, lam, sums, cuts, cut_signs)
            polished = True
        return np.cumsum(nu), False

    return kkt.certified_path(y, grid, level, "pathwise")


def _bench_module(monkeypatch, name):
    """A module of the benchmark's input generators (``bench`` is no package)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return __import__(name)


def _exactness_series(monkeypatch, case):
    """(y, grid) pairs; a grid of None is the default grid."""
    inputs = _bench_module(monkeypatch, "inputs")
    if case == "fixed":
        workloads = _bench_module(monkeypatch, "workloads")
        return [(inputs.noisy_series(*spec), None) for spec in workloads.PATHWISE_FIXED]
    if case == "lasso-series-1":
        return [(y, None) for y in _bench_module(monkeypatch, "workloads").lasso_series(1)]
    if case.startswith("short-round"):
        return [(s.y, [s.lam]) for s in inputs.short_round(1, int(case[-1]))]
    base = inputs.noisy_series("example2", 400, 400.0, (5, 0, 0))
    if case == "offset-level":
        return [(base + 1e6, None)]
    if case == "offset-slope":
        return [(base + 1e4 * np.arange(1.0, 401.0), None)]
    spec = PiecewiseLinearSpec(n=1000, r=tuple(k / 9 for k in range(1, 9)),
                               b=(-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0))
    return [(np.round(add_noise(gen_trend(spec), NoiseSpec(25.0, seed=(4, 2, 3))).y), None)]


class TestArrayFormLevel:
    """The level held as its runs against the same level held as the n-vector
    nu, bit for bit, with the same rounds."""

    @pytest.mark.parametrize("case", ["fixed", "lasso-series-1", "short-round-0",
                                      "short-round-1", "offset-level", "offset-slope",
                                      "rounded"])
    def test_fit_path_matches_the_array_form_level(self, monkeypatch, case):
        # on base + 1e6 and the rounded series levels end on a repeated
        # state, so the runs' digest must end the same levels as the digest of
        # nu's bytes (base + 1e4 t ends none on a repeat). A level's first scan
        # seeded with the g its predecessor left must equal a fresh scan
        scans, split_scan, solve_at = [], pathwise._split_scan, pathwise._solve_at
        seeded = [0]

        def counting_scan(y, mu, S, lam, g=None):
            scans[-1] += 1
            out = split_scan(y, mu, S, lam, g)
            if g is not None:
                fresh = split_scan(y, mu, S, lam)
                assert out[:2] == fresh[:2] and out[2].tobytes() == fresh[2].tobytes()
                seeded[0] += 1
            return out

        def counting_solve(*args):
            scans.append(0)
            return solve_at(*args)

        monkeypatch.setattr(pathwise, "_split_scan", counting_scan)
        monkeypatch.setattr(pathwise, "_solve_at", counting_solve)
        repeats = []
        for y, grid in _exactness_series(monkeypatch, case):
            grid = default_grid(lambda_max(y)) if grid is None else grid
            scans.clear()
            got = fit_path(y, grid).entries
            want_scans, want_repeats = [], []
            want = _array_fit_path(y, grid, want_scans, want_repeats).entries
            assert [e.fit.mu_hat.tobytes() for e in got] == [e.fit.mu_hat.tobytes() for e in want]
            assert ([(e.fit.converged, e.kkt) for e in got]
                    == [(e.fit.converged, e.kkt) for e in want])
            assert scans == want_scans
            repeats += want_repeats
        assert any(repeats) == (case in ("offset-level", "rounded"))
        assert seeded[0] > 0 or case.startswith("short-round")


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

    def test_random_start_sweeps_reach_oracle_objective(self, rng):
        # rounds of polish and split scan from a random start, no continuation
        y = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        lam = 0.5
        mu_star = oracle_solve(y, lam, tol=1e-14 * (1 + y @ y))
        f_star = objective_value(y, mu_star, lam)
        for trial in range(5):
            mu = _solve_at(y, *_level(rng.normal(size=6)), lam, _prefix_sums(y))[2]
            f = objective_value(y, mu, lam)
            assert f == pytest.approx(f_star, rel=1e-6)

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

    @pytest.mark.parametrize("case", ["random-walk", "rounded", "example2"])
    def test_monotone_descent_validated(self, rng, monkeypatch, case):
        # the solver takes the polish's moves without reading the objective:
        # record it after each of a round's two moves, and within a lambda
        # level no move may raise it
        y = _case_series(rng, case)
        trace = []
        split_scan, polish = pathwise._split_scan, pathwise._structure_polish

        def scan(y, mu, S, lam, g=None):  # moves nothing: the state it leaves is the one it read
            trace.append((lam, objective_value(y, mu, lam)))
            return split_scan(y, mu, S, lam, g)

        def recording_polish(y, S, V, lam, *args):
            out = polish(y, S, V, lam, *args)
            trace.append((lam, objective_value(y, out[2], lam)))
            return out

        monkeypatch.setattr(pathwise, "_split_scan", scan)
        monkeypatch.setattr(pathwise, "_structure_polish", recording_polish)
        fit(y, 0.02 * lambda_max(y))
        levels = [lam for lam, _ in trace]
        assert max(levels.count(lam) for lam in set(levels)) >= 4  # two rounds or more
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

    @pytest.mark.parametrize("case", ["step", "spike", "split-at-neighbour", "micro-units",
                                      "rounded"])
    def test_path_certified_at_every_entry(self, case):
        # climbing the grid up from the interpolant left entry 60 (lambda_max)
        # of the step and entry 34 of the spike uncertified. At entry 13 of the
        # third path the subgradient breaks its bound inside the run 678..681,
        # whose right part must join the runs after it: a former sub-run move
        # had each minimum at a neighbour's value, and a split scan that took
        # only interior minima left the entry uncertified. In micro units each round
        # lowered the objective by less than a former stall exit's absolute
        # floor of 1e-14, so a rung stopped after five rounds that open splits:
        # a scan that opened one split per round left 35 entries uncertified.
        # Rounded to steps of 5, entry 5 enters an exact cycle of period 17 and
        # eight more entries cycles of period 2 to 4; an exit on period 1 alone
        # ran them to the round cap and left 9 entries unconverged
        first = 0
        if case == "step":
            y = np.r_[np.zeros(100), np.ones(100)]
        elif case == "spike":
            y = np.zeros(201)
            y[100] = 50.0
        elif case == "split-at-neighbour":
            y = add_noise(gen_trend(example2(n=800)), NoiseSpec(snr=25.0, seed=1)).y
            first = 13
        elif case == "micro-units":
            y = add_noise(gen_trend(example2(n=400)), NoiseSpec(snr=400.0, seed=(5, 0, 0))).y * 1e-6
        else:
            y = add_noise(gen_trend(example2(n=400)), NoiseSpec(snr=400.0, seed=(5, 0, 0))).y
            y = np.round(y / 5.0) * 5.0
        path = fit_path(y, default_grid(lambda_max(y))[first:])
        for i, entry in enumerate(path.entries):
            assert entry.kkt.passed, i
            assert entry.fit.converged, i

    def test_exact_cycle_ends_at_its_first_repeat(self, monkeypatch):
        # with a level offset of 1e6, every round at lambda_max from the first
        # on merges a split in the polish that the scan reopens and ends on the
        # same bytes; a stall exit on the objective took 5 rounds here
        y = add_noise(gen_trend(example2(n=400)), NoiseSpec(400.0, seed=(5, 0, 0))).y + 1e6
        scans, split_scan = [0], pathwise._split_scan

        def counting_scan(*args):
            scans[0] += 1
            return split_scan(*args)

        monkeypatch.setattr(pathwise, "_split_scan", counting_scan)
        entry = fit_path(y, [lambda_max(y)]).entries[0]
        assert scans[0] <= 2
        assert entry.kkt.passed and entry.fit.converged

    @staticmethod
    def _record_levels(monkeypatch):
        """Patch the level's moves to log, per level, ("scan", (run starts, mu
        bytes), cut count) and ("polish",), and each level's (lam, S, V, mu) at
        exit."""
        levels, exits = [], []
        split_scan, polish, solve_at = (pathwise._split_scan, pathwise._structure_polish,
                                        pathwise._solve_at)

        def scan(y, mu, S, lam, g=None):
            cuts, signs, g = split_scan(y, mu, S, lam, g)
            levels[-1].append(("scan", (tuple(S), mu.tobytes()), len(cuts)))
            return cuts, signs, g

        def logged_polish(*args):
            levels[-1].append(("polish",))
            return polish(*args)

        def solve(y, S, V, mu, lam, *args):
            levels.append([])
            out = solve_at(y, S, V, mu, lam, *args)
            exits.append((lam, *out[:3]))
            return out

        monkeypatch.setattr(pathwise, "_split_scan", scan)
        monkeypatch.setattr(pathwise, "_structure_polish", logged_polish)
        monkeypatch.setattr(pathwise, "_solve_at", solve)
        return levels, exits

    def test_levels_end_on_the_scan_after_a_finished_polish(self, monkeypatch):
        # a polish's walk ends on a full step, the exact solve of its run
        # pattern, so a scan that then chooses no cut ends the level; one more
        # polish of that pattern used to end every level, and moved nothing
        # beyond round-off
        y = add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=400.0, seed=3)).y
        levels, exits = self._record_levels(monkeypatch)
        path = fit_path(y, default_grid(lambda_max(y)))
        by_rule = [k for k, ev in enumerate(levels)
                   if ev[-1][0] == "scan" and ev[-1][2] == 0 and ev[-2] == ("polish",)]
        assert len(levels) == 60 and len(by_rule) >= 55, by_rule
        scale = 1 + np.max(np.abs(y))
        for k in by_rule:
            kinds = [e[0] for e in levels[k]]
            assert kinds.count("scan") == kinds.count("polish") + 1, k
            lam, S, V, mu = exits[k]
            *_, again = _structure_polish(y, S, V, lam, _prefix_sums(y), [], [])
            assert np.max(np.abs(again - mu)) <= 1e-14 * scale, k
        for i, entry in enumerate(path.entries):
            assert entry.kkt.passed and entry.fit.converged, i

    def test_rounded_series_levels_end_in_few_scans(self, monkeypatch):
        # rounded to whole units, levels of this path walked up to 183 rounds
        # of round-off-sized sub-run moves before a state repeated
        spec = PiecewiseLinearSpec(n=1000, r=tuple(k / 9 for k in range(1, 9)),
                                   b=(-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0))
        y = np.round(add_noise(gen_trend(spec), NoiseSpec(25.0, seed=(4, 2, 3))).y)
        scans, per_level = [0], []
        split_scan, solve_at = pathwise._split_scan, pathwise._solve_at

        def counting_scan(*args):
            scans[0] += 1
            return split_scan(*args)

        def counting_solve(*args):
            scans[0] = 0
            out = solve_at(*args)
            per_level.append(scans[0])
            return out

        monkeypatch.setattr(pathwise, "_split_scan", counting_scan)
        monkeypatch.setattr(pathwise, "_solve_at", counting_solve)
        path = fit_path(y, default_grid(lambda_max(y)))
        assert len(per_level) == 60 and max(per_level) <= 20, max(per_level)
        for i, entry in enumerate(path.entries):
            assert entry.kkt.passed and entry.fit.converged, i

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
                            stationarity_residual=0.0, passed=False, rss=0.0, dmu_l1=0.0,
                            k_hat=0)
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


def _planted_series(rng, n=150, lam=1.6, kinks=(40, 90, 120)):
    """y = mu* + lam D'g for a piecewise-linear mu* and a dual certificate g
    (g = the kink's sign at each kink, |g| < 1 elsewhere), so mu* is the
    minimiser at lam: the form of the planted short series."""
    t = np.arange(1.0, n + 1)
    mu = rng.uniform(-10.0, 10.0) + rng.uniform(-0.1, 0.1) * t
    signs = rng.choice([-1.0, 1.0], size=len(kinks))
    for tau, s in zip(kinks, signs):
        mu = mu + s * rng.uniform(0.02, 0.2) * np.maximum(t - tau, 0.0)
    base = np.interp(np.arange(n - 2), [0, *(k - 2 for k in kinks), n - 3], [0.0, *signs, 0.0])
    g = np.clip(0.9 * base + 0.08 * rng.uniform(-1.0, 1.0, n - 2), -0.98, 0.98)
    g[np.array(kinks) - 2] = signs
    return mu + lam * np.diff(np.concatenate(([0.0, 0.0], g, [0.0, 0.0])), 2)


def _single_fit_series(case):
    if case == "planted":
        return _planted_series(np.random.default_rng([1, 2, 0]))
    if case == "step":
        return np.r_[np.zeros(100), np.ones(100)]
    if case == "spike":
        y = np.zeros(201)
        y[100] = 50.0
        return y
    if case == "rounded":
        y = add_noise(gen_trend(example2(n=400)), NoiseSpec(snr=400.0, seed=(5, 0, 0))).y
        return np.round(y / 5.0) * 5.0
    return np.random.default_rng(7).normal(size=300)


def _ladder(lam, lmax):
    """The continuation grid a single fit used to descend, as the reference:
    lam, 2.5 lam, 6.25 lam, ... below lmax, then lmax."""
    grid = [lam]
    while grid[-1] * 2.5 < lmax:
        grid.append(grid[-1] * 2.5)
    return grid + [lmax]


class TestSingleFit:
    route, level = pathwise, "_solve_at"  # a route's module and the name of its level solve

    def test_one_level_and_one_certificate(self, monkeypatch):
        # a single fit solves at its lambda from the affine fit; it used to
        # descend a continuation ladder and solve and certify every rung
        y = _planted_series(np.random.default_rng([1, 2, 0]))
        calls = {"solve": 0, "kkt": 0}
        solve, check = getattr(self.route, self.level), kkt.check_kkt

        def counting_solve(*args):
            calls["solve"] += 1
            return solve(*args)

        def counting_check(*args, **kwargs):
            calls["kkt"] += 1
            return check(*args, **kwargs)

        monkeypatch.setattr(self.route, self.level, counting_solve)
        monkeypatch.setattr(kkt, "check_kkt", counting_check)
        lam = 1e-2 * lambda_max(y)
        assert len(_ladder(lam, lambda_max(y))) > 1
        assert self.route.fit(y, lam).converged
        assert calls == {"solve": 1, "kkt": 1}

    @pytest.mark.parametrize("case", ["planted", "step", "spike", "rounded", "white-noise"])
    def test_matches_the_ladder_fit(self, case):
        # the direct solve lands on the fit the continuation ladder reaches
        y = _single_fit_series(case)
        lmax = lambda_max(y)
        for rel in (1e-6, 1e-4, 1e-2):
            lam = rel * lmax
            got = self.route.fit(y, lam)
            want = self.route.fit_path(y, _ladder(lam, lmax)).entries[0].fit
            assert np.max(np.abs(got.mu_hat - want.mu_hat)) <= 1e-12 * (1 + np.max(np.abs(y))), rel
            assert got.converged == want.converged, rel


class TestLassoSingleFit(TestSingleFit):
    route, level = lasso, "active_set_polish"


def _tridiag_solve(off, diag, rhs):
    """Thomas algorithm for a symmetric tridiagonal system; off[k] couples
    unknowns k and k + 1."""
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


def _numpy_run_values(a, signs, cs_y, cs_ty, lam, n):
    """The run-value kernel with its run ends, boundary subgradient sums h,
    run sums, diagonal, off-diagonal and right-hand side built as numpy
    arrays, then a Thomas solve. The scalar kernel must match it bit for bit.
    Takes lists or arrays."""
    a, signs = np.asarray(a), np.asarray(signs, dtype=float)
    b = np.concatenate((a[1:], [n])) - 1
    h = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
    cs_y, cs_ty = np.asarray(cs_y), np.asarray(cs_ty)
    L = (b - a + 1).astype(float)
    sy = cs_y[b + 1] - cs_y[a]
    wy = (cs_ty[b + 1] - cs_ty[a] - a * sy) / L
    diag = (L + 1) * (2 * L + 1) / (6 * L)
    diag[:-1] += (L[1:] - 1) * (2 * L[1:] - 1) / (6 * L[1:])
    hl = lam * h / L
    rhs = wy - hl
    rhs[:-1] += sy[1:] - wy[1:] + hl[1:]
    v = _tridiag_solve((L[1:] ** 2 - 1) / (6 * L[1:]), diag, rhs)
    return (v - np.concatenate(([0.0], v[:-1]))) / L


def _run_pattern(rng, G):
    """A random problem for the kernel: G runs over n >= G points, a series
    with a random scale and level, its prefix sums as arrays, and boundary
    signs in {-1, 0, 1}, so the boundary subgradient sums are in {-2, ..., 2}."""
    n = int(rng.integers(G, 4 * G + 40))
    a = np.sort(np.concatenate(([0], rng.choice(np.arange(1, n), size=G - 1, replace=False))))
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 4) + rng.choice([0.0, 1e6])
    cs = (np.concatenate([[0.0], np.cumsum(y)]),
          np.concatenate([[0.0], np.cumsum(np.arange(1, n + 1) * y)]))
    return y, a, cs, rng.integers(-1, 2, size=G - 1).astype(float)


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
            signs = rng.choice([-1.0, 0.0, 1.0], size=a.size - 1)
            h = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
            lam = float(rng.uniform(0.0, 2.0))
            W = np.cumsum((np.arange(n)[:, None] >= a) & (np.arange(n)[:, None] <= b), axis=0)
            dense = np.linalg.solve(W.T @ W, W.T @ y - lam * h)
            cs_y = np.concatenate([[0.0], np.cumsum(y)])
            cs_ty = np.concatenate([[0.0], np.cumsum(np.arange(1, n + 1) * y)])
            got = _run_values(a.tolist(), signs.tolist(), cs_y.tolist(), cs_ty.tolist(), lam, n)
            assert np.allclose(got, dense, rtol=1e-8, atol=1e-8)

    @pytest.mark.parametrize("G", [2, 3, 7, 20, 100, 800, 1200])
    def test_bitwise_equal_to_the_numpy_kernel(self, G):
        # the scalar pass makes the numpy kernel's float operations in its
        # order, so every output bit agrees
        rng = np.random.default_rng(G)
        for case in range(12):
            y, a, cs, signs = _run_pattern(rng, G)
            lam = float(rng.uniform(0.0, 2.0) * 10.0 ** rng.integers(-2, 4)) if case % 4 else 0.0
            want = _numpy_run_values(a, signs, *cs, lam, y.size).tobytes()
            got = _run_values(a.tolist(), signs.tolist(), *_prefix_sums(y), lam, y.size)
            assert type(got) is list and np.array(got).tobytes() == want

    @pytest.mark.parametrize("y", [
        # two of the benchmark's fixed pathwise series (shape, n, SNR, seed)
        pytest.param(add_noise(gen_trend(example2(n=500)), NoiseSpec(snr=25.0, seed=1)).y,
                     id="example2-500-25"),
        pytest.param(add_noise(gen_trend(PiecewiseLinearSpec(
            n=500, r=tuple(k / 9 for k in range(1, 9)),
            b=(-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0))),
            NoiseSpec(snr=400.0, seed=2)).y, id="custom-500-400"),
    ])
    def test_path_bitwise_equal_with_the_numpy_kernel(self, monkeypatch, y):
        grid = default_grid(lambda_max(y))
        fast = fit_path(y, grid).entries
        monkeypatch.setattr(pathwise, "_run_values", _numpy_run_values)
        slow = fit_path(y, grid).entries
        assert [e.fit.mu_hat.tobytes() for e in fast] == [e.fit.mu_hat.tobytes() for e in slow]
        assert [(e.fit.converged, e.kkt) for e in fast] == [(e.fit.converged, e.kkt) for e in slow]


def _numpy_walk(a, alpha, signs, sums, lam, n):
    """The collision walk on numpy arrays, as the structure polish ran it
    before the walk was shared with the lasso route: the crossings, the
    partial step and the merges are array operations. ``_walk`` must match it
    bit for bit. Calls ``pathwise._run_values``, so a stub of the kernel
    serves both."""
    a, alpha, signs = np.asarray(a), np.asarray(alpha, dtype=float), np.asarray(signs, dtype=float)
    for _ in range(a.size + 8):
        d = np.asarray(pathwise._run_values(a.tolist(), signs.tolist(), *sums, lam, n)) - alpha
        diff0 = alpha[1:] - alpha[:-1]
        ddiff = d[1:] - d[:-1]
        hit = np.flatnonzero((ddiff != 0.0) & (signs * (diff0 + ddiff) < 0))
        tc = np.maximum(-diff0[hit] / ddiff[hit], 0.0)
        theta = tc.min(initial=1.0)
        alpha = alpha + theta * d
        if theta == 1.0:
            break
        keep = np.ones(a.size, dtype=bool)
        keep[hit[tc == theta] + 1] = False
        a, alpha, signs = a[keep], alpha[keep], signs[keep[1:]]
    return a, alpha, bool(theta == 1.0)


def _walk_pattern(rng, G):
    """A random walk problem: the runs of ``_run_pattern``, boundary signs
    with the first boundary unpenalised on half the draws, and a start near
    the exact solve at those signs, each boundary carrying the sign of its
    own step, so the full step flips some of them."""
    y, a, _, _ = _run_pattern(rng, G)
    sums = _prefix_sums(y)
    lam = float(rng.uniform(0.0, 2.0) * 10.0 ** rng.integers(-2, 4))
    signs = rng.choice([-1.0, 1.0], G - 1)
    signs[0] *= rng.integers(0, 2)
    sol = np.array(_run_values(a.tolist(), signs.tolist(), *sums, lam, y.size))
    alpha = sol + rng.normal(size=G) * np.std(sol) * 10.0 ** rng.uniform(-4, -1)
    steps = np.sign(np.diff(alpha))
    signs = np.where((signs == 0.0) | (steps == 0.0), signs, steps)
    return a.tolist(), alpha.tolist(), signs.tolist(), sums, lam, y.size


class TestWalk:
    """The sign-restricted walk both routes share, against the numpy walk.
    A partial step closes the boundary that set it, so a walk ends on a full
    step within len(a) kernel calls."""

    @staticmethod
    def _same(got, want):
        return (want[2] is True and list(got[0]) == want[0].tolist()
                and np.array(got[1]).tobytes() == want[1].tobytes())

    @pytest.mark.parametrize("G", [2, 3, 7, 20, 100, 800, 1200])
    def test_bitwise_equal_to_the_numpy_walk(self, monkeypatch, G):
        rng = np.random.default_rng(G)
        calls, run_values = [0], pathwise._run_values

        def counting_run_values(*args):
            calls[0] += 1
            return run_values(*args)

        merged = 0
        for case in range(12 if G < 800 else 3):
            args = _walk_pattern(rng, G)
            monkeypatch.setattr(pathwise, "_run_values", counting_run_values)
            calls[0] = 0
            got = _walk(*args)
            monkeypatch.setattr(pathwise, "_run_values", run_values)
            assert self._same(got, _numpy_walk(*args)), case
            assert 1 <= calls[0] <= G and type(got[1]) is list, case
            merged += len(got[0]) < G
        assert G < 7 or merged >= 2

    @pytest.mark.parametrize("G", [2, 7, 100, 1200])
    def test_tied_crossings_bitwise_equal(self, monkeypatch, G):
        # a stub kernel with small-integer run values: the crossing steps are
        # ratios of small integers, so many tie exactly, and every boundary
        # closing at a step's theta merges in that step
        rng = np.random.default_rng(G)
        sizes = []

        def run_values(a, signs, cs_y, cs_ty, lam, n):
            sizes.append(len(a))
            return target[a].tolist()

        monkeypatch.setattr(pathwise, "_run_values", run_values)
        tied = 0
        for case in range(12 if G < 1200 else 3):
            n = G + int(rng.integers(0, 2 * G + 2))
            a = np.sort(np.concatenate(([0], rng.choice(np.arange(1, n), G - 1, replace=False))))
            target = rng.integers(-4, 5, size=n).astype(float)
            alpha = rng.integers(-4, 5, size=G).astype(float)
            signs = np.sign(np.diff(alpha))
            signs[signs == 0.0] = rng.choice([-1.0, 1.0], np.count_nonzero(signs == 0.0))
            signs[:1] *= rng.integers(0, 2)
            args = (a.tolist(), alpha.tolist(), signs.tolist(), ([0.0], [0.0]), 1.0, n)
            sizes.clear()
            got = _walk(*args)
            walk, sizes[:] = list(sizes), []
            assert self._same(got, _numpy_walk(*args)) and walk == sizes, case
            assert len(walk) <= G, case
            tied += any(q - p >= 2 for q, p in zip(walk, walk[1:]))
        assert G < 7 or tied >= 1


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("entry", ["fit_path", "fit"])
    def test_rejected_before_solving(self, monkeypatch, rng, bad, entry):
        # a NaN or inf in y used to give NaN fits and RuntimeWarnings
        y = random_walk(rng, 50)
        y[20] = bad

        def no_solve(*args):
            raise AssertionError("solved a non-finite series")

        monkeypatch.setattr(pathwise, "_solve_at", no_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                if entry == "fit":
                    fit(y, 1.0)
                else:
                    fit_path(y, [0.0, 0.5, 1.0])


class TestSolverAgreement:
    @pytest.mark.parametrize("n", [20, 50, 120])
    def test_pathwise_matches_lasso(self, rng, n):
        y = random_walk(rng, n)
        lmax = lambda_max(y)
        for frac in (0.05, 0.4, 1.0):
            lam = frac * lmax
            mu_p = fit(y, lam).mu_hat
            mu_l = lasso.fit(y, lam).mu_hat
            assert np.max(np.abs(mu_p - mu_l)) <= 1e-5 * (1 + np.max(np.abs(y)))

    def test_level_and_first_slope_stay_apart(self):
        # the affine fit of this y is t itself, so the start has nu[0] == nu[1];
        # a polish that fused the unpenalised boundary at index 1 into one run
        # solved under a false constraint: at 0.05 of lambda_max the fit
        # failed its certificate with a ratio of 189
        y = np.arange(1.0, 21.0)
        y[:3] += [1.0, -2.0, 1.0]
        lmax = lambda_max(y)
        for frac in (0.5, 0.05, 1e-3):
            got = fit(y, frac * lmax)
            assert got.converged, frac
            want = lasso.fit(y, frac * lmax).mu_hat
            assert np.max(np.abs(got.mu_hat - want)) <= 1e-9 * (1 + np.max(np.abs(y))), frac

    def test_paths_agree_on_a_low_noise_series(self):
        # with a split margin of 1e-7 this path strays from the lasso route by
        # more than the bound (by 4.0e-5 at entry 53 with a descent sweep)
        y = add_noise(gen_trend(example1(n=500)), NoiseSpec(snr=1e4, seed=(1, 0, 0))).y
        grid = default_grid(lambda_max(y))
        scale = 1 + np.max(np.abs(y))
        for i, (p, l) in enumerate(zip(fit_path(y, grid).entries, lasso.fit_path(y, grid).entries)):
            assert np.max(np.abs(p.fit.mu_hat - l.fit.mu_hat)) <= 1e-6 * scale, i
