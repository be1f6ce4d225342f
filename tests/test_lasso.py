import warnings

import numpy as np
import pytest

from trendfilter.core import extract_kinks, objective_value
from trendfilter.design import DesignZ, InvalidDimensionError, second_diff
from trendfilter.kkt import affine_fit, check_kkt, lambda_max, oracle_solve
from trendfilter import lasso
from trendfilter.lasso import (LassoProblem, _admit, _block_ls_step, _cd_pass, active_set_polish,
                               budget_path, cd_fit, fit, fit_path)
from trendfilter.selection import default_grid, select
from trendfilter.simulate import PRESETS, NoiseSpec, add_noise, gen_trend
from tests.conftest import random_walk


def _noisy(shape, n, snr, seed):
    return add_noise(gen_trend(PRESETS[shape](n=n)), NoiseSpec(snr=snr, seed=seed)).y


def _reference_pass(prob, beta, r):
    """The O(n^2) sweep: each coordinate reads its inner product off its own
    tail of r and writes its move straight back into that tail."""
    nrm, lam, t = prob._norms, prob.lam, prob._t
    n = prob.n
    maxrel = _block_ls_step(prob, beta, r)
    for j in range(2, n):
        zj = t[1:n - j + 1]  # column j below its leading zeros: 1, 2, ..., n-j
        bj = beta[j]
        rho = zj @ r[j:] + nrm[j] * bj
        bnew = float(np.sign(rho)) * max(abs(rho) - lam, 0.0) / nrm[j]
        d = bnew - bj
        if d != 0.0:
            r[j:] -= zj * d
            beta[j] = bnew
            maxrel = max(maxrel, abs(d) / (1.0 + abs(bnew)))
    return maxrel


# the level-offset and added-line series of the robustness probes
_BASE = _noisy("example2", 400, 400.0, (5, 0, 0))


class TestCdFit:
    def test_lambda_zero_interpolates(self, rng):
        y = random_walk(rng, 12)
        res = cd_fit(LassoProblem(y, 0.0))
        assert res.converged
        assert np.max(np.abs(res.mu_hat - y)) < 1e-10 * (1 + np.max(np.abs(y)))

    def test_beyond_lambda_max_affine(self, rng):
        y = random_walk(rng, 20)
        res = cd_fit(LassoProblem(y, 1.2 * lambda_max(y)), tol=1e-12)
        assert np.max(np.abs(res.mu_hat - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))
        assert np.all(res.beta_tail == np.where(np.abs(res.beta_tail) < 1e-12, res.beta_tail, 0.0))

    def test_objective_matches_oracle_small(self, rng):
        y = random_walk(rng, 50)
        lam = lambda_max(y) / 10
        res = fit(y, lam)
        mu_star = oracle_solve(y, lam, tol=1e-13 * (1 + y @ y))
        f_star = objective_value(y, mu_star, lam)
        assert res.objective == pytest.approx(f_star, rel=1e-6)

    def test_bad_tol_rejected(self, rng):
        with pytest.raises(ValueError):
            cd_fit(LassoProblem(random_walk(rng, 10), 1.0), tol=0.0)

    def test_nonconvergence_flagged_not_raised(self, rng):
        y = random_walk(rng, 40)
        res = cd_fit(LassoProblem(y, lambda_max(y) / 20), tol=1e-14, max_iter=2)
        assert not res.converged


class TestCdPass:
    @pytest.mark.parametrize("y", [
        pytest.param(random_walk(np.random.default_rng(7), 300), id="random-walk"),
        pytest.param(_BASE + 1e6, id="offset"),
        pytest.param(_BASE + 1e4 * np.arange(_BASE.size), id="added-line"),
        pytest.param(_noisy("example2", 2000, 400.0, (1, 0, 0)), id="n2000"),
    ])
    @pytest.mark.parametrize("start", ["interpolant", "zero"])
    def test_matches_the_quadratic_sweep(self, y, start):
        # the closed-form inner products reproduce the tail-by-tail sweep
        prob = LassoProblem(y, lambda_max(y) / 100)
        beta = prob.Z.encode(y) if start == "interpolant" else np.zeros(y.size)
        b_ref, b_new = beta.copy(), beta.copy()
        r_ref = y - prob.Z.matvec(beta)
        r_new = r_ref.copy()
        tol = 1e-12 * (1 + np.max(np.abs(y)))
        for sweep in range(5):
            m_ref = _reference_pass(prob, b_ref, r_ref)
            m_new = _cd_pass(prob, b_new, r_new)
            if sweep in (0, 4):
                assert np.max(np.abs(b_new - b_ref)) <= tol
                assert np.max(np.abs(r_new - r_ref)) <= tol
                assert abs(m_new - m_ref) <= tol

    def test_budget_path_kinks_match_the_quadratic_sweep(self, monkeypatch):
        y = _noisy("example2", 500, 400.0, (1, 0, 0))
        grid = default_grid(lambda_max(y))
        fast = [len(extract_kinks(e.fit)) for e in budget_path(y, grid).entries]
        monkeypatch.setattr(lasso, "_cd_pass", _reference_pass)
        slow = [len(extract_kinks(e.fit)) for e in budget_path(y, grid).entries]
        assert fast == slow

    def test_budget_interpolant_is_never_selected(self):
        # a lam = 0 fit of y plus round-off has a tiny positive rss, and SIC
        # would pick it with n - 2 kinks
        y = _noisy("example2", 200, 400.0, 7)
        path = budget_path(y, default_grid(lambda_max(y)))
        e = path.entries[0]
        assert np.array_equal(e.fit.mu_hat, y) and e.fit.solver == "lasso-budget"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the lam = 0 entry interpolates
            lam, _, _ = select(path, y, criterion="sic")
        assert lam > 0


class TestKktAtConvergence:
    def test_coordinatewise_conditions(self, rng):
        # soft-threshold stationarity per coordinate, straight from the columns
        y = random_walk(rng, 35)
        lam = lambda_max(y) / 5
        res = fit(y, lam)
        beta = DesignZ(35).encode(res.mu_hat)
        Zd = DesignZ(35).dense()
        grad = Zd.T @ (y - Zd @ beta)
        slack = 1e-6 * max(1.0, lam)
        for j in range(2):
            assert abs(grad[j]) <= slack
        for j in range(2, 35):
            if abs(beta[j]) > 1e-10:
                assert grad[j] == pytest.approx(lam * np.sign(beta[j]), abs=slack)
            else:
                assert abs(grad[j]) <= lam + slack

    def test_certified_by_oracle_check(self, rng):
        y = random_walk(rng, 60)
        for frac in (0.03, 0.3, 1.0):
            lam = frac * lambda_max(y)
            res = fit(y, lam)
            assert check_kkt(y, res.mu_hat, lam, tol=1e-6).passed

    def test_reconstruction_identity(self, rng):
        y = random_walk(rng, 45)
        res = fit(y, lambda_max(y) / 7)
        assert np.allclose(second_diff(res.mu_hat), res.beta_tail, atol=1e-10)


class TestActiveSetPolish:
    def test_optimal_fit_unchanged(self, rng):
        y = random_walk(rng, 30)
        lam = lambda_max(y) / 4
        prob = LassoProblem(y, lam)
        res = fit(y, lam)
        polished, _ = active_set_polish(prob, res.mu_hat)
        assert np.max(np.abs(polished - res.mu_hat)) < 1e-9 * (1 + np.max(np.abs(y)))

    def test_beyond_lambda_max_affine_support(self, rng):
        y = random_walk(rng, 25)
        lam = 1.5 * lambda_max(y)
        prob = LassoProblem(y, lam)
        mu, _ = active_set_polish(prob, cd_fit(prob, tol=1e-4, max_iter=5).mu_hat)
        beta = prob.Z.encode(mu)
        assert np.max(np.abs(beta[2:])) < 1e-10 * (1 + np.max(np.abs(beta)))
        assert np.max(np.abs(mu - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))

    def test_matches_tightly_converged_cd(self):
        # noiseless two-kink trend: polish lands where slow plain descent lands
        from trendfilter.simulate import PiecewiseLinearSpec, gen_trend
        spec = PiecewiseLinearSpec(n=100, r=(0.35, 0.7), b=(2.0, -1.0, 1.5))
        y = gen_trend(spec)
        lam = lambda_max(y) / 50
        prob = LassoProblem(y, lam)
        seeded = cd_fit(prob, tol=1e-4, max_iter=40)
        polished, _ = active_set_polish(prob, seeded.mu_hat)
        slow = cd_fit(prob, beta_init=prob.Z.encode(polished), tol=1e-14, max_iter=200)
        assert np.max(np.abs(polished - slow.mu_hat)) <= 1e-8 * (1 + np.max(np.abs(y)))

    def test_fit_reports_the_polish_verdict(self, rng):
        y = random_walk(rng, 60)
        lam = lambda_max(y) / 10
        res = fit(y, lam)
        assert res.converged
        assert check_kkt(y, res.mu_hat, lam).passed


class TestLassoPath:
    def test_path_certified_and_warm_flags(self, rng):
        y = random_walk(rng, 50)
        lmax = lambda_max(y)
        grid = [0.0] + list(lmax * np.logspace(-3, 0, 12))
        path = fit_path(y, grid)
        assert len(path) == 13
        assert np.max(np.abs(path.entries[0].fit.mu_hat - y)) <= 1e-10 * (1 + np.max(np.abs(y)))
        assert not path.entries[0].warm_start
        assert not path.entries[-1].warm_start  # largest lambda is the cold start
        assert all(e.warm_start for e in path.entries[1:-1])
        for e in path.entries:
            assert e.kkt.passed

    def test_lambda_zero_is_y(self, rng):
        y = random_walk(rng, 30)
        e = fit_path(y, [0.0, lambda_max(y) / 10]).entries[0]
        assert np.array_equal(e.fit.mu_hat, y)
        assert e.fit.converged and e.kkt.passed and not e.warm_start

    def test_converged_means_certified(self):
        # a level offset of 1e6: entries whose certificate fails are not flagged converged
        y = _BASE + 1e6
        path = fit_path(y, default_grid(lambda_max(y)))
        assert [e.fit.converged for e in path.entries] == [e.kkt.passed for e in path.entries]

    def test_large_n_affine_pair_is_refit(self):
        # at n = 16000 the dense restricted solve leaves the affine pair off its
        # least-squares optimum: 46 of 61 entries failed their certificate
        y = _noisy("example2", 16000, 400.0, 1)
        path = fit_path(y, default_grid(lambda_max(y)))
        assert [i for i, e in enumerate(path.entries) if not e.kkt.passed] == []
        assert [i for i, e in enumerate(path.entries) if not e.fit.converged] == []

    def test_beyond_the_dense_limit(self):
        # the route is matrix-free: a series longer than the dense cap is fit and certified
        from trendfilter.simulate import NoiseSpec, add_noise, example2, gen_trend
        n = 2050
        y = add_noise(gen_trend(example2(n=n)), NoiseSpec(snr=400.0, seed=1)).y
        with pytest.raises(InvalidDimensionError):
            DesignZ(n).dense()
        lmax = lambda_max(y)
        path = fit_path(y, [lmax * f for f in (0.3, 0.5, 0.7, 1.0)])
        assert all(e.kkt.passed for e in path.entries)

    @pytest.mark.parametrize("y", [
        # rounded to multiples of 5: exact ties at the subgradient bound abound
        pytest.param(np.round(_noisy("example2", 400, 400.0, (5, 0, 0)) / 5.0) * 5.0, id="rounded"),
        pytest.param(_noisy("example2", 500, 25.0, (1, 1, 2)), id="snr25"),
        # large n: the lambda_max entry used to cycle for the whole round budget
        pytest.param(_noisy("example2", 4000, 400.0, (1, 0, 0)), id="n4000"),
    ])
    def test_ties_at_the_bound_do_not_cycle(self, y):
        path = fit_path(y, default_grid(lambda_max(y)))
        assert [i for i, e in enumerate(path.entries) if not e.kkt.passed] == []
        assert [i for i, e in enumerate(path.entries) if not e.fit.converged] == []

    def test_admission_steps_in_violators_only(self, rng):
        # one rmatvec screen, checked against the dense KKT test of each column
        y = random_walk(rng, 40)
        prob = LassoProblem(y, lambda_max(y) / 8)
        Zd = prob.Z.dense()
        beta = np.zeros(40)
        beta[:2] = np.linalg.lstsq(Zd[:, :2], y, rcond=None)[0]
        r = y - Zd @ beta
        g = Zd.T @ r
        violators = [j for j in range(2, 40) if abs(g[j]) > prob.lam]
        admitted = list(_admit(prob, beta, r, np.full(40, prob.lam)))
        peak = max(violators, key=lambda j: abs(g[j]))
        assert admitted[0] == peak and set(admitted) <= set(violators)
        assert np.flatnonzero(beta[2:]).tolist() == sorted(j - 2 for j in admitted)
        assert np.allclose(r, y - Zd @ beta, atol=1e-9 * (1 + np.max(np.abs(y))))
        # a coordinate held to a higher bound is passed over
        beta[2:] = 0.0
        bound = np.full(40, prob.lam)
        bound[peak] = 2.0 * abs(g[peak])
        assert peak not in _admit(prob, beta, y - Zd @ beta, bound)

    def test_optimum_admits_nothing(self, rng):
        y = random_walk(rng, 40)
        lam = lambda_max(y) / 8
        prob = LassoProblem(y, lam)
        beta = prob.Z.encode(fit(y, lam).mu_hat)
        beta[2:][np.abs(beta[2:]) < 1e-12 * np.max(np.abs(beta))] = 0.0
        r = y - prob.Z.matvec(beta)
        assert _admit(prob, beta, r, np.full(40, lam * (1 + 1e-7))).size == 0

    def test_grid_validation(self, rng):
        y = random_walk(rng, 10)
        with pytest.raises(ValueError):
            fit_path(y, [3.0, 2.0])
