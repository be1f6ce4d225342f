import numpy as np
import pytest

from trendfilter import pathwise
from trendfilter.core import extract_kinks, objective_value
from trendfilter.kkt import KktReport, affine_fit, check_kkt, lambda_max, oracle_solve
from trendfilter.pathwise import (
    FusedState,
    PathwiseOptions,
    descent_update,
    fit,
    fit_path,
    fusion_update,
    _run_values,
    _solve_at,
)
from trendfilter.selection import default_grid
from trendfilter.simulate import NoiseSpec, PiecewiseLinearSpec, add_noise, example2, gen_trend
from tests.conftest import random_walk


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
        # rounds of descent, polish and split scan from a random start, no continuation
        y = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        lam = 0.5
        mu_star = oracle_solve(y, lam, tol=1e-14 * (1 + y @ y))
        f_star = objective_value(y, mu_star, lam)
        for trial in range(5):
            state = FusedState(y=y, nu=rng.normal(size=6))
            _solve_at(y, state.nu, state.resid, lam, 1e-12, 600)
            f = objective_value(y, state.mu(), lam)
            assert f == pytest.approx(f_star, rel=1e-6)


class TestFusionUpdate:
    def test_idempotent_on_optimal_run(self, rng):
        # solve once, pick a fused run of the solution, re-propose it
        y = random_walk(rng, 20)
        lam = 0.5 * lambda_max(y)
        res = fit(y, lam)
        state = FusedState(y=y, nu=res.nu_hat.copy())
        runs = state.groups()
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
        assert [e.warm_start for e in path.entries] == [False, True, True]

    def test_group_count_mostly_decreasing(self, rng):
        y = random_walk(rng, 60)
        grid = list(lambda_max(y) * np.logspace(-4, 0, 25))
        path = fit_path(y, grid)
        counts = [len(FusedState(y=y, nu=e.fit.nu_hat.copy()).groups()) for e in path.entries]
        drops = sum(1 for a, b in zip(counts, counts[1:]) if b <= a)
        assert drops >= 0.95 * (len(counts) - 1)

    def test_monotone_descent_validated(self, rng):
        # validate=True asserts the objective never increases across cycles
        y = random_walk(rng, 25)
        fit(y, 0.4 * lambda_max(y), PathwiseOptions(validate=True))

    def test_low_noise_path_certified(self):
        # small splits the split scan opens must survive the structure polish:
        # bridging them shut left entry 3 here at a defect of 1.1e-4, flagged converged
        y = add_noise(gen_trend(example2(n=300)), NoiseSpec(snr=1e4, seed=1)).y
        path = fit_path(y, default_grid(lambda_max(y)))
        for i, entry in enumerate(path.entries):
            assert check_kkt(y, entry.fit.mu_hat, entry.lam).passed, i
            assert entry.fit.converged, i

    def test_failed_certificate_is_not_converged(self, rng, monkeypatch):
        y = random_walk(rng, 30)
        failing = KktReport(max_inactive_ratio=2.0, active_sign_mismatches=0,
                            stationarity_residual=0.0, passed=False)
        monkeypatch.setattr(pathwise, "check_kkt", lambda *args, **kwargs: failing)
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
