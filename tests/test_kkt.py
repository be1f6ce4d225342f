import numpy as np
import pytest

from trendfilter.core import TimeSeries
from trendfilter.kkt import (
    affine_fit,
    certified_path,
    check_kkt,
    fit_ladder,
    lambda_max,
    oracle_solve,
)
from tests.conftest import random_walk


class TestAffineFit:
    def test_already_affine(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(affine_fit(y), y)

    def test_constant(self):
        y = np.ones(5)
        assert np.allclose(affine_fit(y), y)

    def test_symmetric_spike(self):
        # symmetric design: slope 0, intercept = mean = 0.6
        y = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        assert np.allclose(affine_fit(y), 0.6)

    def test_is_least_squares(self, rng):
        y = rng.normal(size=31)
        fit = affine_fit(y)
        t = np.arange(1.0, 32.0)
        resid = y - fit
        assert abs(resid.sum()) < 1e-9
        assert abs((t * resid).sum()) < 1e-8


class TestLambdaMax:
    def test_affine_input_gives_zero(self):
        assert lambda_max(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 0.0

    def test_homogeneity(self, rng):
        y = random_walk(rng, 40)
        c = -2.5
        assert lambda_max(c * y) == pytest.approx(abs(c) * lambda_max(y), rel=1e-12)

    def test_bisection_consistency(self):
        # lambda_max is the KKT-pass threshold of the affine fit, located
        # independently by bisection on check_kkt
        y = np.array([0.0, 0.0, 3.0, 0.0, 0.0])
        lmax = lambda_max(y)
        af = affine_fit(y)
        lo, hi = 1e-12, 10 * lmax
        assert not check_kkt(y, af, lo, tol=1e-10).passed
        assert check_kkt(y, af, hi, tol=1e-10).passed
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if check_kkt(y, af, mid, tol=1e-10).passed:
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(lmax, rel=3e-9)

    def test_boundary_behavior(self, rng):
        y = random_walk(rng, 30)
        lmax = lambda_max(y)
        af = affine_fit(y)
        assert check_kkt(y, af, lmax * (1 + 1e-8), tol=1e-9).passed
        assert not check_kkt(y, af, lmax * (1 - 1e-3), tol=1e-9).passed


class TestCheckKkt:
    def test_affine_fit_passes_beyond_lambda_max(self, rng):
        y = random_walk(rng, 25)
        lam = 1.5 * lambda_max(y)
        assert check_kkt(y, affine_fit(y), lam, tol=1e-8).passed

    def test_perturbed_point_rejected(self, rng):
        y = random_walk(rng, 25)
        lam = 0.3 * lambda_max(y)
        mu = y.copy()
        mu[12] += 1.0
        report = check_kkt(y, mu, lam, tol=1e-6)
        assert not report.passed

    def test_oracle_solution_self_certifies(self, rng):
        y = random_walk(rng, 40)
        lam = lambda_max(y) / 3
        mu = oracle_solve(y, lam, tol=1e-12 * (1 + y @ y))
        assert check_kkt(y, mu, lam, tol=1e-6).passed

    def test_lambda_zero_degenerate(self, rng):
        y = random_walk(rng, 10)
        assert check_kkt(y, y.copy(), 0.0).passed
        assert not check_kkt(y, y + 0.5, 0.0).passed

    def test_accepts_timeseries(self, rng):
        y = random_walk(rng, 12)
        ts = TimeSeries(y)
        assert check_kkt(ts, y.copy(), 0.0).passed


class TestCertifiedPath:
    def test_converged_needs_the_rung_verdict_and_the_certificate(self, rng):
        # the affine fit is optimal above lambda_max and fails well below it
        y = random_walk(rng, 20)
        lmax = lambda_max(y)
        grid = [0.0, 0.1 * lmax, 1.5 * lmax, 2.0 * lmax]
        calls = []

        def solve(lam):
            calls.append(lam)
            return affine_fit(y), lam != grid[2]

        path = certified_path(y, grid, solve, "stub")
        assert calls == grid[:0:-1]  # descending, never at lam = 0
        assert [e.kkt.passed for e in path.entries] == [True, False, True, True]
        assert [e.fit.converged for e in path.entries] == [True, False, False, True]
        assert [e.warm_start for e in path.entries] == [False, True, True, False]
        assert np.array_equal(path.entries[0].fit.mu_hat, y)
        assert {e.fit.solver for e in path.entries} == {"stub"}


class TestFitLadder:
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 10.0, 12.0])
    def test_lam_alone_outside_the_open_range(self, lam):
        assert fit_ladder(lam, 10.0) == [lam]

    def test_rungs_grow_by_the_ratio_up_to_lmax(self):
        assert fit_ladder(1.0, 10.0) == [1.0, 2.5, 6.25, 10.0]
        assert fit_ladder(4.0, 10.0) == [4.0, 10.0]  # 4 * 2.5 is not below lmax


class TestOracle:
    def test_lambda_zero_returns_input(self, rng):
        y = random_walk(rng, 15)
        assert np.array_equal(oracle_solve(y, 0.0), y)

    def test_collapse_to_affine(self, rng):
        # beyond lambda_max the dual optimum is interior, so accuracy is gap-limited;
        # exact collapse at 1e-8 is asserted for the production solvers instead
        y = random_walk(rng, 30)
        lam = 2.0 * lambda_max(y)
        mu = oracle_solve(y, lam, tol=1e-11 * (1 + y @ y))
        assert np.max(np.abs(mu - affine_fit(y))) < 1e-4 * (1 + np.max(np.abs(y)))

    def test_homogeneity(self, rng):
        y = random_walk(rng, 24)
        lam = 0.2 * lambda_max(y)
        c = -3.0
        tol = 1e-12 * (1 + y @ y)
        mu1 = oracle_solve(y, lam, tol=tol)
        mu2 = oracle_solve(c * y, abs(c) * lam, tol=c * c * tol)
        assert np.allclose(mu2, c * mu1, atol=1e-6 * (1 + np.max(np.abs(y))))

    def test_warm_start_path(self, rng):
        # ascending lambdas reuse the previous dual point
        y = random_walk(rng, 30)
        lmax = lambda_max(y)
        g = None
        from trendfilter.kkt import subgradient_times_lambda
        for frac in (0.05, 0.2, 0.5):
            lam = frac * lmax
            mu = oracle_solve(y, lam, g0=g)
            assert check_kkt(y, mu, lam, tol=1e-5).passed
            g = subgradient_times_lambda(y - mu) / lam
