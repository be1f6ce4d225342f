from itertools import accumulate

import numpy as np
import pytest

import warnings

from trendfilter.core import TrendFit, extract_kinks, objective_value
from trendfilter.design import DesignZ, InvalidDimensionError, second_diff
from trendfilter.kkt import affine_fit, certified_path, check_kkt, lambda_max, oracle_solve
from trendfilter import kkt, lasso, pathwise
from trendfilter.lasso import (LassoProblem, _admit, _block_ls_step, _cd_pass, _converge_active,
                               active_set_polish, budget_path, fit, fit_path)
from trendfilter.selection import default_grid, select
from trendfilter.simulate import PRESETS, NoiseSpec, PiecewiseLinearSpec, add_noise, gen_trend
from tests.conftest import random_walk
from tests.test_pathwise import _bench_module, _numpy_walk


def _noisy(shape, n, snr, seed):
    return add_noise(gen_trend(PRESETS[shape](n=n)), NoiseSpec(snr=snr, seed=seed)).y


def cd_fit(prob: LassoProblem, beta_init: np.ndarray | None = None,
           tol: float = 1e-8, max_iter: int = 100_000) -> TrendFit:
    """Cyclic coordinate descent to the stated tolerance: the sweep of
    ``budget_path`` run until no coordinate moves more than
    tol * (1 + |beta_j|), the reference the polish is tested against.
    Exceeding ``max_iter`` sweeps flags the fit instead of raising. At lam = 0
    the default start is the exact interpolant encoding, which the first
    sweep simply confirms."""
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if beta_init is not None:
        beta = np.asarray(beta_init, dtype=float).copy()
    elif prob.lam == 0.0:
        beta = prob.Z.encode(prob.y)
    else:
        beta = np.zeros(prob.n)
    r = prob.y - prob.Z.matvec(beta)
    converged = False
    for _ in range(max_iter):
        maxrel = _cd_pass(prob, beta, r)
        if maxrel <= tol:
            converged = True
            break
    return TrendFit.from_mu(prob.y, prob.Z.matvec(beta), prob.lam, converged=converged,
                            solver="lasso")


def _numpy_block_ls_step(prob, beta, r):
    """The block step with its move on numpy arrays: ``_block_ls_step`` must
    match it bit for bit."""
    t, G2 = prob._t, prob._G2
    rhs = np.array([r.sum(), t @ r]) + G2 @ beta[:2]
    sol = np.linalg.solve(G2, rhs)
    d = sol - beta[:2]
    if np.any(d != 0.0):
        r -= d[0] + d[1] * t
        beta[:2] = sol
        return float(np.max(np.abs(d) / (1.0 + np.abs(sol))))
    return 0.0


def _numpy_pass(prob, beta, r):
    """The O(n) sweep with one full ``Z d`` for all the moves, on the numpy
    block step: ``_cd_pass`` must match it bit for bit."""
    lam, n = prob.lam, prob.n
    maxrel = _numpy_block_ls_step(prob, beta, r)
    g = prob.Z.rmatvec(r).tolist()
    b = beta.tolist()
    D0 = D1 = 0.0
    for j, s2, s1 in zip(range(2, n), prob._s2, prob._s1):
        bj = b[j]
        rho = g[j] - s2 * D0 - s1 * (j * D0 - D1) + s2 * bj
        if rho > lam:
            bnew = (rho - lam) / s2
        elif rho < -lam:
            bnew = (rho + lam) / s2
        else:
            bnew = 0.0
        dj = bnew - bj
        if dj != 0.0:
            b[j] = bnew
            D0 += dj
            D1 += dj * j
    new = np.array(b)
    d = new - beta
    beta[:] = new
    r -= prob.Z.matvec(d)
    return float(np.max(np.abs(d) / (1.0 + np.abs(new)), initial=maxrel))


def _reference_pass(prob, beta, r):
    """The O(n^2) sweep: each coordinate reads its inner product off its own
    tail of r and writes its move straight back into that tail."""
    nrm, lam, t = prob._norms, prob.lam, prob._t
    n = prob.n
    maxrel = _numpy_block_ls_step(prob, beta, r)
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


def _listed_pass(prob, beta, r):
    """The O(n) sweep with its moves kept inside the loop: each coordinate's
    move goes into a list d, its relative size is tracked as it is made, and
    r is updated from ``np.array(d)``. The sweep under test must match it bit
    for bit."""
    lam, n = prob.lam, prob.n
    maxrel = _numpy_block_ls_step(prob, beta, r)
    g = prob.Z.rmatvec(r).tolist()
    b = beta.tolist()
    d = [0.0] * n
    D0 = D1 = 0.0
    L = n - prob._t
    s1s = L * (L + 1) / 2.0
    for j, s2, s1 in zip(range(2, n), prob._norms[2:].tolist(), s1s[2:].tolist()):
        bj = b[j]
        rho = g[j] - s2 * D0 - s1 * (j * D0 - D1) + s2 * bj
        if rho > lam:
            bnew = (rho - lam) / s2
        elif rho < -lam:
            bnew = (rho + lam) / s2
        else:
            bnew = 0.0
        dj = bnew - bj
        if dj != 0.0:
            b[j] = bnew
            d[j] = dj
            D0 += dj
            D1 += dj * j
            rel = abs(dj) / (1.0 + abs(bnew))
            if rel > maxrel:
                maxrel = rel
    beta[2:] = b[2:]
    r -= prob.Z.matvec(np.array(d))
    return maxrel


# the level-offset and added-line series of the robustness probes
_BASE = _noisy("example2", 400, 400.0, (5, 0, 0))

_SWEEP_SERIES = [
    pytest.param(random_walk(np.random.default_rng(7), 300), id="random-walk"),
    pytest.param(_BASE + 1e6, id="offset"),
    pytest.param(_BASE + 1e4 * np.arange(_BASE.size), id="added-line"),
    pytest.param(_noisy("example2", 2000, 400.0, (1, 0, 0)), id="n2000"),
]


def _sweep_start(prob, y, start):
    beta = prob.Z.encode(y) if start == "interpolant" else np.zeros(y.size)
    return beta, y - prob.Z.matvec(beta)


def _assert_bitwise_equal_steps(y, start, reference, step, times):
    """Run both steps ``times`` times from the same start; after each, beta,
    r and the returned relative move must have the same bytes."""
    prob = LassoProblem(y, lambda_max(y) / 100)
    beta, r_ref = _sweep_start(prob, y, start)
    b_ref, b_new = beta.copy(), beta.copy()
    r_new = r_ref.copy()
    for _ in range(times):
        m_ref = reference(prob, b_ref, r_ref)
        m_new = step(prob, b_new, r_new)
        assert b_new.tobytes() == b_ref.tobytes()
        assert r_new.tobytes() == r_ref.tobytes()
        assert np.float64(m_new).tobytes() == np.float64(m_ref).tobytes()


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
    @pytest.mark.parametrize("y", _SWEEP_SERIES)
    @pytest.mark.parametrize("start", ["interpolant", "zero"])
    def test_matches_the_quadratic_sweep(self, y, start):
        # the closed-form inner products reproduce the tail-by-tail sweep
        prob = LassoProblem(y, lambda_max(y) / 100)
        beta, r_ref = _sweep_start(prob, y, start)
        b_ref, b_new = beta.copy(), beta.copy()
        r_new = r_ref.copy()
        tol = 1e-12 * (1 + np.max(np.abs(y)))
        for sweep in range(5):
            m_ref = _reference_pass(prob, b_ref, r_ref)
            m_new = _cd_pass(prob, b_new, r_new)
            if sweep in (0, 4):
                assert np.max(np.abs(b_new - b_ref)) <= tol
                assert np.max(np.abs(r_new - r_ref)) <= tol
                assert abs(m_new - m_ref) <= tol

    @pytest.mark.parametrize("y", _SWEEP_SERIES)
    @pytest.mark.parametrize("start", ["interpolant", "zero"])
    def test_bitwise_equal_to_the_listed_sweep(self, y, start):
        _assert_bitwise_equal_steps(y, start, _listed_pass, _cd_pass, 5)

    @pytest.mark.parametrize("y", _SWEEP_SERIES)
    @pytest.mark.parametrize("start", ["interpolant", "zero"])
    def test_bitwise_equal_to_the_numpy_sweep(self, y, start):
        _assert_bitwise_equal_steps(y, start, _numpy_pass, _cd_pass, 5)

    @pytest.mark.parametrize("y", _SWEEP_SERIES)
    @pytest.mark.parametrize("start", ["interpolant", "zero"])
    def test_block_step_bitwise_equal_to_the_numpy_step(self, y, start):
        # from the start, and again from a pair the step has already set
        _assert_bitwise_equal_steps(y, start, _numpy_block_ls_step, _block_ls_step, 2)

    @pytest.mark.parametrize("snr", [1e4, 400.0, 25.0])
    def test_budget_path_bitwise_equal_with_the_numpy_sweep(self, monkeypatch, snr):
        # the simulate workload's settings: example2 at n = 500
        y = _noisy("example2", 500, snr, (1, 0))
        grid = default_grid(lambda_max(y))
        fast = budget_path(y, grid).entries
        monkeypatch.setattr(lasso, "_cd_pass", _numpy_pass)
        slow = budget_path(y, grid).entries
        assert [e.fit.mu_hat.tobytes() for e in fast] == [e.fit.mu_hat.tobytes() for e in slow]
        assert [(e.fit.converged, e.kkt) for e in fast] == [(e.fit.converged, e.kkt) for e in slow]

    @pytest.mark.parametrize("y", [
        pytest.param(_noisy("example2", 500, 400.0, (1, 0, 0)), id="example2"),
        pytest.param(_BASE + 1e6, id="offset"),
    ])
    def test_budget_path_bitwise_equal_with_the_listed_sweep(self, monkeypatch, y):
        grid = default_grid(lambda_max(y))
        fast = budget_path(y, grid).entries
        monkeypatch.setattr(lasso, "_cd_pass", _listed_pass)
        slow = budget_path(y, grid).entries
        assert [e.fit.mu_hat.tobytes() for e in fast] == [e.fit.mu_hat.tobytes() for e in slow]
        assert [(e.fit.converged, e.kkt) for e in fast] == [(e.fit.converged, e.kkt) for e in slow]

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


def _dense_converge_active(prob, beta, act):
    """The restricted solve on a dense Gram block: a solve and one refinement
    pass per zero-crossing step, and a row and a column dropped per crossing.
    The knot-form solve must land where this one lands."""
    Z, lam = prob.Z, prob.lam
    Zty = Z.rmatvec(prob.y)
    idx = np.concatenate(([0, 1], act)).astype(np.intp)
    G = Z.gram(idx)
    for _ in range(4 * (len(act) + 4)):
        b0 = beta[idx[2:]]
        signs = np.sign(b0)
        rhs = Zty[idx]
        rhs[2:] -= lam * signs
        sol = np.linalg.solve(G, rhs)
        sol += np.linalg.solve(G, rhs - G @ sol)
        cross = np.flatnonzero(np.sign(sol[2:]) != signs)
        tc = -b0[cross] / (sol[2:][cross] - b0[cross])
        if not tc.size or tc.min() >= 1.0:
            beta[idx] = sol
            return
        k = int(np.argmin(tc))
        beta[idx] += tc[k] * (sol - beta[idx])
        beta[idx[2 + cross[k]]] = 0.0
        keep = beta[idx] != 0.0
        keep[:2] = True
        idx = idx[keep]
        G = G[np.ix_(keep, keep)]


def _numpy_converge_active(prob, beta, act):
    """The restricted solve on numpy arrays, with the numpy walk: beta on
    [0, 1, *act] as centred run values (np.cumsum is a running sum), the
    walk, and beta written back from the run values; returns the nonzero
    columns past the affine pair, read off beta. ``_converge_active`` must
    match it bit for bit."""
    a = np.concatenate(([0, 1], act)).astype(np.intp)
    alpha = np.concatenate(([beta[0] - prob._line[0]],
                            np.cumsum(np.concatenate(([beta[1] - prob._line[1]], beta[act])))))
    signs = np.concatenate(([0.0], np.sign(beta[act])))
    a, alpha, _ = _numpy_walk(a, alpha, signs, prob._sums, prob.lam, prob.n)
    beta[act] = 0.0
    beta[a] = np.concatenate((alpha[:2] + prob._line, np.diff(alpha)[1:]))
    return (np.flatnonzero(beta[2:]) + 2).tolist()


def _walk_case(rng, k):
    """A restricted problem with k active columns and random signs and sizes."""
    n = int(rng.integers(k + 10, 4 * k + 60))
    y = random_walk(rng, n) + float(rng.normal(0.0, 100.0))
    act = np.sort(rng.choice(np.arange(2, n), size=k, replace=False))
    prob = LassoProblem(y, float(rng.uniform(1e-3, 1.0)) * lambda_max(y))
    beta = rng.normal(size=n)  # the affine pair; zero past it, off the active set
    beta[2:] = 0.0
    beta[act] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.01, 1.0, k)
    return prob, beta, act


class TestConvergeActive:
    def test_matches_the_dense_gram_solve(self):
        rng = np.random.default_rng(11)
        crossed = uncrossed = 0
        for case in range(80):
            n = int(rng.integers(40, 400))
            y = random_walk(rng, n) + float(rng.normal(0.0, 100.0))
            k = int(rng.integers(0, 31))
            act = np.sort(rng.choice(np.arange(2, n), size=k, replace=False))
            prob = LassoProblem(y, float(rng.uniform(1e-3, 1.0)) * lambda_max(y))
            beta = np.zeros(n)
            beta[act] = rng.choice([-1.0, 1.0], k) * rng.uniform(0.01, 1.0, k)
            if case % 2:  # the signs of the restricted optimum: no zero crossing
                _dense_converge_active(prob, beta, act)
                act = np.flatnonzero(beta[2:]) + 2
                beta[:2] = 0.0
                beta[act] = np.sign(beta[act]) * rng.uniform(0.01, 1.0, act.size)
            ref, got = beta.copy(), beta.copy()
            _dense_converge_active(prob, ref, act)
            _converge_active(prob, got, act)
            assert np.array_equal(np.flatnonzero(got[2:]), np.flatnonzero(ref[2:]))
            err = np.max(np.abs(prob.Z.matvec(got) - prob.Z.matvec(ref)))
            assert err <= 1e-11 * (1 + np.max(np.abs(y)))
            if np.count_nonzero(ref[2:]) < act.size:
                crossed += 1
            else:
                uncrossed += 1
        assert crossed >= 10 and uncrossed >= 40

    @pytest.mark.parametrize("k", [0, 1, 3, 10, 30, 80, 200])
    def test_bitwise_equal_to_the_numpy_walk(self, k):
        rng = np.random.default_rng(100 + k)
        crossed = 0
        for case in range(8):
            prob, beta, act = _walk_case(rng, k)
            if case % 2:  # the signs of the restricted optimum: no zero crossing
                _numpy_converge_active(prob, beta, act)
                act = np.flatnonzero(beta[2:]) + 2
                beta[act] = np.sign(beta[act]) * rng.uniform(0.01, 1.0, act.size)
            ref, got = beta.copy(), beta.copy()
            _numpy_converge_active(prob, ref, act)
            _converge_active(prob, got, act)
            assert got.tobytes() == ref.tobytes()
            crossed += np.count_nonzero(ref[2:]) < act.size
        assert k < 10 or crossed >= 2

    def test_tied_columns_close_in_one_step(self, monkeypatch):
        # a stub kernel gives the run values of each pattern. The full step
        # flips the columns 10 and 20, both at the step 1/3, and round-off
        # leaves column 20's gap off zero there: both close in that one step,
        # and the next solve, without them, is a full step. Columns 5 and 15
        # keep their signs
        prob = LassoProblem(random_walk(np.random.default_rng(5), 30), 1.0)
        act = np.array([5, 10, 15, 20])
        beta = np.zeros(prob.n)
        beta[:2] = prob._line  # run values 0 for the affine pair, so the sums are exact
        beta[act] = [1.0, 1.0, 1.0, 0.3]
        c = 2.0 - 2.0 * ((3.0 + 0.3) - 3.0)  # column 20's step: about -2 times its gap
        target = {0: 0.0, 1: 0.0, 5: 1.0, 10: -1.0, 15: 2.0, 20: c}
        # the walk's crossing steps of columns 10 and 20 tie, and 20 lands off zero
        alpha = dict(zip(act.tolist(), accumulate(beta[act].tolist())))
        d = {j: target[j] - v for j, v in alpha.items()}
        tc = [max(0.0, -(alpha[j] - alpha[i]) / (d[j] - d[i])) for i, j in ((5, 10), (15, 20))]
        assert tc[0] == tc[1] == max(0.0, -1.0 / -3.0)
        assert (alpha[20] + tc[1] * d[20]) - (alpha[15] + tc[1] * d[15]) != 0.0
        calls = []

        def run_values(a, signs, cs_y, cs_ty, lam, n):
            calls.append(list(a))
            return [target[j] for j in a]

        monkeypatch.setattr(pathwise, "_run_values", run_values)
        _converge_active(prob, beta, act)
        assert calls == [[0, 1, 5, 10, 15, 20], [0, 1, 5, 15]]
        assert np.flatnonzero(beta[2:]).tolist() == [3, 13]
        assert beta[5] == 1.0 and abs(beta[15] - 1.0) <= 1e-15


def _seed(prob, mu):
    """A polish seed from a fit: beta = Z^-1 mu with round-off-sized slope
    changes set to exact zeros, so only the fit's kinks start active."""
    beta = prob.Z.encode(mu)
    beta[2:][np.abs(beta[2:]) < 1e-12 * (1.0 + np.max(np.abs(beta)))] = 0.0
    return beta


def _active(beta):
    """The active list of a seed: its nonzero columns past the affine pair."""
    return (np.flatnonzero(beta[2:]) + 2).tolist()


class TestActiveSetPolish:
    def test_optimal_fit_unchanged(self, rng):
        y = random_walk(rng, 30)
        lam = lambda_max(y) / 4
        prob = LassoProblem(y, lam)
        res = fit(y, lam)
        beta = _seed(prob, res.mu_hat)
        ok, _ = active_set_polish(prob, beta, _active(beta))
        assert ok
        polished = prob.Z.matvec(beta)
        assert np.max(np.abs(polished - res.mu_hat)) < 1e-9 * (1 + np.max(np.abs(y)))

    def test_beyond_lambda_max_affine_support(self, rng):
        y = random_walk(rng, 25)
        lam = 1.5 * lambda_max(y)
        prob = LassoProblem(y, lam)
        beta = _seed(prob, cd_fit(prob, tol=1e-4, max_iter=5).mu_hat)
        active_set_polish(prob, beta, _active(beta))
        mu = prob.Z.matvec(beta)
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
        beta = _seed(prob, seeded.mu_hat)
        active_set_polish(prob, beta, _active(beta))
        polished = prob.Z.matvec(beta)
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_routes_agree_entry_by_entry(self, seed):
        # the benchmark's custom shape at n = 1000, SNR 25: with a dense
        # restricted solve the routes differed by up to 1.8e-9 (1 + max|y|)
        spec = PiecewiseLinearSpec(n=1000, r=tuple(k / 9 for k in range(1, 9)),
                                   b=(-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0))
        y = add_noise(gen_trend(spec), NoiseSpec(snr=25.0, seed=(seed, 2, 3))).y
        grid = default_grid(lambda_max(y))
        pairs = zip(fit_path(y, grid).entries, pathwise.fit_path(y, grid).entries)
        worst = max(np.max(np.abs(a.fit.mu_hat - b.fit.mu_hat)) for a, b in pairs)
        assert worst <= 1e-10 * (1 + np.max(np.abs(y)))

    @pytest.mark.parametrize("y", [
        # two of the benchmark's lasso series: shape, n, SNR and noise seed
        pytest.param(_noisy("example1", 500, 1e4, (1, 0, 0)), id="example1-500-1e4"),
        pytest.param(add_noise(gen_trend(PiecewiseLinearSpec(
            n=1000, r=tuple(k / 9 for k in range(1, 9)),
            b=(-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0))),
            NoiseSpec(snr=25.0, seed=(1, 2, 3))).y, id="custom-1000-25"),
    ])
    def test_path_bitwise_equal_with_the_numpy_walk(self, monkeypatch, y):
        grid = default_grid(lambda_max(y))
        fast = fit_path(y, grid).entries
        monkeypatch.setattr(lasso, "_converge_active", _numpy_converge_active)
        slow = fit_path(y, grid).entries
        assert [e.fit.mu_hat.tobytes() for e in fast] == [e.fit.mu_hat.tobytes() for e in slow]
        assert [(e.fit.converged, e.kkt) for e in fast] == [(e.fit.converged, e.kkt) for e in slow]

    def test_converged_means_certified(self):
        # a level offset of 1e6: entries whose certificate fails are not flagged converged
        y = _BASE + 1e6
        path = fit_path(y, default_grid(lambda_max(y)))
        assert [e.fit.converged for e in path.entries] == [e.kkt.passed for e in path.entries]

    @pytest.mark.parametrize("n", [16000, 32000])
    def test_large_n_affine_pair_is_refit(self, n):
        # round-off leaves the affine pair off its least-squares optimum at large
        # n: without the closing refit 60 of 61 entries fail their certificate at
        # either size; at n = 32000 entry 2 once ran to the round cap, cycling
        # among ties at the bound
        y = _noisy("example2", n, 400.0, 1)
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
        admitted = _admit(prob, beta, r, [])
        peak = max(violators, key=lambda j: abs(g[j]))
        assert admitted[0] == peak and set(admitted) <= set(violators)
        assert np.flatnonzero(beta[2:]).tolist() == sorted(j - 2 for j in admitted)
        assert np.allclose(r, y - Zd @ beta, atol=1e-9 * (1 + np.max(np.abs(y))))

    def test_optimum_admits_nothing(self, rng):
        y = random_walk(rng, 40)
        lam = lambda_max(y) / 8
        prob = LassoProblem(y, lam * (1 + 1e-7))
        beta = prob.Z.encode(fit(y, lam).mu_hat)
        beta[2:][np.abs(beta[2:]) < 1e-12 * np.max(np.abs(beta))] = 0.0
        r = y - prob.Z.matvec(beta)
        assert _admit(prob, beta, r, _active(beta)) == []

    def test_grid_validation(self, rng):
        y = random_walk(rng, 10)
        with pytest.raises(ValueError):
            fit_path(y, [3.0, 2.0])


def _uncapped_admit(prob, beta, r):
    """The admission round with no cap, candidates screened off beta: every
    inactive violator, largest first, re-tested on its tail and stepped in
    on numpy scalars. Returns the admitted columns as an array."""
    lam, nrm, t, n = prob.lam, prob._norms, prob._t, prob.n
    g = prob.Z.rmatvec(r)
    admitted = []
    cand = np.flatnonzero((np.abs(g[2:]) > lam) & (beta[2:] == 0.0)) + 2
    for j in cand[np.argsort(-np.abs(g[cand]), kind="stable")]:
        zj = t[1:n - j + 1]
        rho = float(zj @ r[j:])
        if abs(rho) > lam:
            beta[j] = np.sign(rho) * (abs(rho) - lam) / nrm[j]
            r[j:] -= zj * beta[j]
            admitted.append(j)
    return np.array(admitted, dtype=np.intp)


def _vector_polish(prob, beta):
    """The polish with its level held as the n-vector beta: the active set
    read off beta each round, the repeat digest over all n bytes, Z beta by
    ``DesignZ.matvec``, ``_uncapped_admit`` and the closing refit by
    ``affine_fit``. Returns its verdict."""
    if prob.lam == 0.0:
        beta[:] = prob.Z.encode(prob.y)
        return True
    seen = set()
    converged = False
    for _ in range(kkt.ROUNDS_PER_POINT * prob.n):
        _converge_active(prob, beta, np.flatnonzero(beta[2:]) + 2)
        state = hash(beta.tobytes())
        r = prob.y - prob.Z.matvec(beta)
        if state in seen or not _uncapped_admit(prob, beta, r).size:
            converged = True
            break
        seen.add(state)
    line = affine_fit(r)
    beta[:2] += line[0], line[1] - line[0]
    return converged


def _vector_fit_path(y, grid):
    """``fit_path`` on ``_vector_polish``."""
    prob = LassoProblem(y, 0.0)
    beta = np.zeros(y.size)

    def solve(lam):
        prob.lam = lam
        ok = _vector_polish(prob, beta)
        return prob.Z.matvec(beta), ok

    return certified_path(y, grid, solve, "lasso")


def _entry_records(path):
    return [(e.fit.mu_hat.tobytes(), e.fit.objective.hex(), e.fit.converged, e.warm_start,
             repr(e.kkt), repr(e.score)) for e in path.entries]


class TestBoundedAdmission:
    """A round admits at most ``ADMIT_CAP`` columns, and the level is held as
    its active list."""

    @pytest.mark.parametrize("case", ["lasso-series-1", "offset-level", "rounded"])
    def test_uncapped_path_bitwise_equal_to_the_vector_level(self, monkeypatch, case):
        # with the cap past n, the active list, its digest, the cached ramp
        # and the stored refit sums change no bit of any entry
        if case == "lasso-series-1":
            series = _bench_module(monkeypatch, "workloads").lasso_series(1)
        else:
            base = _bench_module(monkeypatch, "inputs").noisy_series("example2", 400, 400.0,
                                                                     (5, 0, 0))
            series = [base + 1e6 if case == "offset-level" else np.round(base / 5.0) * 5.0]
        monkeypatch.setattr(lasso, "ADMIT_CAP", max(y.size for y in series) + 1)
        for y in series:
            grid = default_grid(lambda_max(y))
            assert _entry_records(fit_path(y, grid)) == _entry_records(_vector_fit_path(y, grid))

    def test_capped_path_bitwise_equal_on_the_benchmark_series(self, monkeypatch):
        # on these series the cap moves no fit: the benchmark's figures stay put
        for y in _bench_module(monkeypatch, "workloads").lasso_series(1):
            grid = default_grid(lambda_max(y))
            assert _entry_records(fit_path(y, grid)) == _entry_records(_vector_fit_path(y, grid))

    @pytest.mark.parametrize("cap", [1, lasso.ADMIT_CAP])
    def test_admits_at_most_the_cap_largest_violation_first(self, monkeypatch, cap):
        # from the affine fit at a small lambda the uncapped round admits many
        # columns; the capped round admits the first cap of them, in order
        y = _noisy("example2", 500, 400.0, (1, 0, 0))
        prob = LassoProblem(y, lambda_max(y) / 1000)
        beta = np.zeros(y.size)
        beta[:2] = prob._line
        r = y - prob.Z.matvec(beta)
        b_ref, r_ref = beta.copy(), r.copy()
        uncapped = _uncapped_admit(prob, b_ref, r_ref).tolist()
        assert len(uncapped) > lasso.ADMIT_CAP
        g = np.abs(prob.Z.rmatvec(r))
        monkeypatch.setattr(lasso, "ADMIT_CAP", cap)
        admitted = _admit(prob, beta, r, [])
        assert admitted == uncapped[:cap]
        assert admitted[0] == 2 + int(np.argmax(g[2:]))
        assert all(g[i] >= g[j] for i, j in zip(admitted, admitted[1:]))
        assert np.flatnonzero(beta[2:]).tolist() == sorted(j - 2 for j in admitted)
        assert np.allclose(r, y - prob.Z.matvec(beta), atol=1e-9 * (1 + np.max(np.abs(y))))

    def test_round_skips_the_active_list(self):
        # a column on the active list is never a candidate, whatever its |z_j'r|
        y = _noisy("example2", 300, 400.0, (1, 0, 0))
        prob = LassoProblem(y, lambda_max(y) / 100)
        beta = np.zeros(y.size)
        beta[:2] = prob._line
        r = y - prob.Z.matvec(beta)
        first = _admit(prob, beta.copy(), r.copy(), [])
        again = _admit(prob, beta.copy(), r.copy(), first)
        assert first and not set(first) & set(again)

    def test_polish_returns_the_active_list(self):
        y = _noisy("example2", 300, 400.0, (1, 0, 0))
        prob = LassoProblem(y, lambda_max(y) / 100)
        beta = np.zeros(y.size)
        ok, act = active_set_polish(prob, beta, [])
        assert ok and act == _active(beta)

    def test_budget_path_never_calls_from_mu(self, monkeypatch):
        # each entry's fit is read off its one certificate pass
        y = _noisy("example2", 500, 400.0, (1, 0))
        grid = default_grid(lambda_max(y))

        def no_from_mu(*args, **kwargs):
            raise AssertionError("budget_path called TrendFit.from_mu")

        monkeypatch.setattr(TrendFit, "from_mu", no_from_mu)
        path = budget_path(y, grid)
        assert len(path) == 61
        for e in path.entries:
            assert e.fit.objective.hex() == objective_value(y, e.fit.mu_hat, e.lam).hex()
            assert e.fit.solver == "lasso-budget" and e.fit.converged


class TestRoundCap:
    """A level stops after ``kkt.ROUNDS_PER_POINT * n`` rounds, as on the
    pathwise route. A fixed cap of 200 rounds of at most ``ADMIT_CAP``
    admissions let a level admit at most 800 columns, and these one-level
    fits near interpolation stopped there, unconverged."""

    def test_white_noise_level_near_interpolation_is_certified(self):
        y = np.random.default_rng(7).normal(size=1000)
        e = fit_path(y, [1e-6 * lambda_max(y)]).entries[0]
        assert e.fit.converged and e.kkt.passed

    def test_noisy_example2_single_fit_is_certified(self):
        y = _noisy("example2", 3000, 25.0, 1)
        lam = 1e-6 * lambda_max(y)
        res = fit(y, lam)
        assert res.converged and check_kkt(y, res.mu_hat, lam).passed


class TestNonFiniteSeries:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("entry", ["fit_path", "budget_path", "fit"])
    def test_rejected_before_solving(self, monkeypatch, rng, bad, entry):
        # a NaN or inf in y used to give NaN fits and RuntimeWarnings, and
        # budget_path flagged its lam = 0 entry converged
        y = random_walk(rng, 50)
        y[20] = bad

        def no_problem(*args):
            raise AssertionError("built a problem on a non-finite series")

        monkeypatch.setattr(lasso, "LassoProblem", no_problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                if entry == "fit":
                    fit(y, 1.0)
                else:
                    getattr(lasso, entry)(y, [0.0, 0.5, 1.0])


class TestLassoProblem:
    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0])
    def test_bad_lambda_rejected(self, rng, lam):
        with pytest.raises(ValueError):
            LassoProblem(random_walk(rng, 10), lam)

    @pytest.mark.parametrize("route", ["budget_path", "fit_path"])
    def test_one_problem_per_path(self, monkeypatch, route):
        # a path builds its problem once and sets lam per level
        y = _noisy("example2", 300, 400.0, 3)
        built = []

        def counting(*args):
            built.append(args)
            return LassoProblem(*args)

        monkeypatch.setattr(lasso, "LassoProblem", counting)
        path = getattr(lasso, route)(y, default_grid(lambda_max(y)))
        assert len(path) == 61 and len(built) == 1
