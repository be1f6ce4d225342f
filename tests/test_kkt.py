import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trendfilter import lasso, pathwise
from trendfilter.core import TimeSeries, extract_kinks, objective_value
from trendfilter.design import second_diff, second_diff_adjoint
from trendfilter.kkt import (
    SIGN_SLACK,
    affine_fit,
    certified_path,
    check_kkt,
    fit_ladder,
    lambda_max,
    oracle_solve,
    subgradient_times_lambda,
)
from trendfilter.selection import default_grid, score
from tests.conftest import random_walk


def _bits(obj):
    """A dataclass's fields, or one number, with each float as its hex form,
    so equal tuples are equal bits."""
    vals = dataclasses.astuple(obj) if dataclasses.is_dataclass(obj) else (obj,)
    return tuple(float(v).hex() if isinstance(v, float) else v for v in vals)


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_series_rejected(self, rng, bad):
        # it used to return NaN, which default_grid turned into a NaN grid
        y = random_walk(rng, 50)
        y[20] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lambda_max(y)


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

    def test_defect_matches_the_full_adjoint(self):
        # the closed-form defect against max|resid - lam D'g| over all n entries
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = int(rng.integers(3, 3001))
            lam = float(rng.uniform(0.1, 100.0))
            y = rng.normal(0.0, 10.0, n)
            mu = y - rng.standard_normal(n) * float(rng.choice([1e-6, 1.0, 1e3]))
            resid = y - mu
            g = subgradient_times_lambda(resid) / lam
            ref = float(np.max(np.abs(resid - lam * second_diff_adjoint(g, n))))
            got = check_kkt(y, mu, lam).stationarity_residual
            assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("shift", ["level", "line"])
    def test_affine_error_rejected_by_the_defect(self, rng, shift):
        y = random_walk(rng, 200)
        lam = lambda_max(y) / 10
        mu = pathwise.fit(y, lam).mu_hat.copy()
        assert check_kkt(y, mu, lam).passed
        mu += 1e-3 * (1.0 if shift == "level" else np.arange(200.0) / 200)
        report = check_kkt(y, mu, lam)
        assert not report.passed
        assert report.stationarity_residual > 1e-6 * (1 + np.max(np.abs(y)))

    def test_lambda_zero_degenerate(self, rng):
        y = random_walk(rng, 10)
        assert check_kkt(y, y.copy(), 0.0).passed
        assert not check_kkt(y, y + 0.5, 0.0).passed

    def test_accepts_timeseries(self, rng):
        y = random_walk(rng, 12)
        ts = TimeSeries(y)
        assert check_kkt(ts, y.copy(), 0.0).passed

    @pytest.mark.parametrize("lam", [-1.0, -2.0, float("nan"), float("inf"), -float("inf")],
                             ids=["-lmax", "-2lmax", "nan", "inf", "-inf"])
    def test_bad_lambda_rejected(self, rng, lam):
        # the affine fit passed its certificate at -lambda_max and -2 lambda_max
        y = random_walk(rng, 30)
        if lam in (-1.0, -2.0):
            lam *= lambda_max(y)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            check_kkt(y, affine_fit(y), lam)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            check_kkt(y, np.zeros(7), lam)  # before any other check

    def test_report_carries_rss_penalty_and_kinks(self, rng):
        y = random_walk(rng, 40)
        mu = pathwise.fit(y, lambda_max(y) / 5).mu_hat
        for lam in (0.0, lambda_max(y) / 5):
            for tol_kink in (1e-8, 1e-4):
                r = check_kkt(y, mu, lam, tol_kink=tol_kink)
                assert r.rss == float((y - mu) @ (y - mu))
                assert r.dmu_l1 == float(np.sum(np.abs(second_diff(mu))))
                assert r.k_hat == len(extract_kinks(mu, tol_kink))


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


@st.composite
def _shifted_series(draw):
    """A random walk of 3 to 200 points, scaled, offset and given an added
    line."""
    n = draw(st.integers(3, 200))
    y = random_walk(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    y = y * draw(st.sampled_from([1e-6, 1.0, 1e6]))
    y = y + draw(st.sampled_from([0.0, -3.5, 1e6]))
    return y + draw(st.sampled_from([0.0, 0.25, -1e4])) * np.arange(1.0, n + 1)


class TestOnePassPerEntry:
    @settings(max_examples=60, deadline=None)
    @given(_shifted_series())
    def test_stored_quantities_equal_the_separate_calls(self, y):
        # each entry's objective, certificate and score come from one
        # check_kkt pass; recomputed apart they must agree bit for bit
        grid = default_grid(lambda_max(y))
        for route in (lasso, pathwise):
            path = route.fit_path(y, grid)
            assert path.entries[0].lam == 0.0 and path.y is y
            for e in path.entries:
                mu = e.fit.mu_hat
                assert _bits(e.fit.objective) == _bits(objective_value(y, mu, e.lam))
                assert _bits(e.kkt) == _bits(check_kkt(y, mu, e.lam))
                assert _bits(e.score) == _bits(score(y, e.fit))


class TestFitLadder:
    @pytest.mark.parametrize("lam", [-1.0, 0.0, 10.0, 12.0])
    def test_lam_alone_outside_the_open_range(self, lam):
        assert fit_ladder(lam, 10.0) == [lam]

    def test_rungs_grow_by_the_ratio_up_to_lmax(self):
        assert fit_ladder(1.0, 10.0) == [1.0, 2.5, 6.25, 10.0]
        assert fit_ladder(4.0, 10.0) == [4.0, 10.0]  # 4 * 2.5 is not below lmax


class TestOracle:
    @pytest.mark.parametrize("bad", ["nan-y", "inf-y", "nan-lam", "inf-lam"])
    def test_non_finite_input_rejected_at_once(self, rng, bad):
        # it used to run the whole iteration budget on a NaN gap (51 s at
        # n = 50 with the default budget), then raise OracleBudgetError
        y, lam = random_walk(rng, 50), 1.0
        if bad.endswith("-y"):
            y[20] = float(bad[:3])
        else:
            lam = float(bad[:3])
        with pytest.raises(ValueError, match="finite"):
            oracle_solve(y, lam, max_iter=10)

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


class TestActiveSet:
    @pytest.mark.parametrize("route", ["pathwise", "lasso"])
    def test_active_set_is_the_kink_set(self, rng, route):
        """The certificate's active set is the kink set ``extract_kinks`` reports:
        its margins, recomputed over that set, are the report's, bit for bit."""
        module = {"pathwise": pathwise, "lasso": lasso}[route]
        y = random_walk(rng, 120)
        path = module.fit_path(y, default_grid(lambda_max(y), size=12))
        for e in path.entries[1:]:
            mu = e.fit.mu_hat
            b = second_diff(mu)
            g = subgradient_times_lambda(y - mu) / e.lam
            for tol_kink in (1e-8, 1e-4):
                report = check_kkt(y, mu, e.lam, tol_kink=tol_kink)
                active = np.zeros(b.size, dtype=bool)
                active[np.array(extract_kinks(e.fit, tol_kink).indices, dtype=int) - 2] = True
                mismatches = int(np.sum(np.abs(g[active] - np.sign(b[active])) > SIGN_SLACK))
                ratio = float(np.max(np.abs(g[~active]))) if not active.all() else 0.0
                assert report.active_sign_mismatches == mismatches
                assert report.max_inactive_ratio == ratio
            assert e.kkt == check_kkt(y, mu, e.lam)


_ENTRIES = {
    "pathwise.fit": lambda y: pathwise.fit(y, 1.0),
    "pathwise.fit_path": lambda y: pathwise.fit_path(y, [0.0, 1.0]),
    "lasso.fit": lambda y: lasso.fit(y, 1.0),
    "lasso.fit_path": lambda y: lasso.fit_path(y, [0.0, 1.0]),
    "lasso.budget_path": lambda y: lasso.budget_path(y, [0.0, 1.0]),
    "kkt.lambda_max": lambda_max,
    "oracle_solve": lambda y: oracle_solve(y, 1.0),
}


class TestShortSeries:
    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("entry", list(_ENTRIES))
    def test_rejected_at_every_solver_entry(self, monkeypatch, entry, n):
        # n = 2 used to solve a level and fail in second_diff, n = 1 failed in
        # affine_fit, oracle_solve of one value in numpy, and lambda_max of two
        # values returned 0.0
        def no_solve(*args):
            raise AssertionError("solved a series shorter than 3")

        monkeypatch.setattr(pathwise, "_solve_at", no_solve)
        monkeypatch.setattr(lasso, "LassoProblem", no_solve)
        with pytest.raises(ValueError, match=rf"^series length must be >= 3, got {n}$"):
            _ENTRIES[entry](np.arange(float(n)))

    @pytest.mark.parametrize("entry", list(_ENTRIES))
    def test_three_values_solve(self, entry):
        assert _ENTRIES[entry](np.array([0.0, 2.0, 1.0])) is not None
