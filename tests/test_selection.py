import math
import warnings

import numpy as np
import pytest

import dataclasses

from trendfilter import selection
from trendfilter.core import KINK_TOL, LambdaPath, PathEntry, TimeSeries, TrendFit, extract_kinks
from trendfilter.kkt import lambda_max
from trendfilter.pathwise import fit_path
from trendfilter.selection import (
    NoSelectableModelError,
    default_grid,
    score,
    select,
)
from tests.conftest import random_walk


def _fit_for(y, mu, lam):
    return TrendFit.from_mu(y, np.asarray(mu, dtype=float), lam)


def _bits(s):
    return tuple(float(v).hex() if isinstance(v, float) else v for v in dataclasses.astuple(s))


def _counting_score(monkeypatch):
    """Patch ``selection.score`` to count its calls; returns the count list
    and the real function."""
    calls, real = [], selection.score

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(selection, "score", counting)
    return calls, real


def _path(y, fits):
    entries = [PathEntry(lam=f.lam, fit=f, warm_start=i > 0) for i, f in enumerate(fits)]
    return LambdaPath(entries=tuple(entries))


class TestScore:
    def test_formula_values(self):
        # n=100, rss=100, k=2: sic = log(1) + 4*log(100)/100, mc = 6*log(100)/100
        n, rss, k = 100, 100.0, 2
        sic = math.log(rss / n) + (k + 2) * math.log(n) / n
        mc = math.log(rss / n) + k * (k + 1) * math.log(n) / n
        assert round(sic, 6) == 0.184207
        assert round(mc, 6) == 0.276310

    def test_score_matches_formula_on_fit(self, rng):
        y = random_walk(rng, 40)
        mu = y + rng.normal(0, 0.1, 40)
        fit = _fit_for(y, mu, 0.5)
        s = score(y, fit)
        n = 40
        assert s.rss == pytest.approx(float(np.sum((y - mu) ** 2)))
        assert s.sic == pytest.approx(math.log(s.rss / n) + (s.k_hat + 2) * math.log(n) / n)
        assert s.mc == pytest.approx(math.log(s.rss / n) + s.k_hat * (s.k_hat + 1) * math.log(n) / n)

    def test_k_hat_counts_the_reported_kinks(self, rng):
        y = random_walk(rng, 80)
        path = fit_path(y, default_grid(lambda_max(y), size=12))
        for e in path.entries:
            for tol_kink in (0.0, 1e-8, 1e-4):
                assert score(y, e.fit, tol_kink).k_hat == len(extract_kinks(e.fit, tol_kink))

    def test_zero_kinks_mc_is_plain_log(self, rng):
        y = random_walk(rng, 30)
        mu = np.full(30, y.mean())  # constant: no kinks
        s = score(y, _fit_for(y, mu, 1.0))
        assert s.k_hat == 0
        assert s.mc == pytest.approx(math.log(s.rss / 30))

    def test_interpolation_scores_minus_inf(self, rng):
        y = random_walk(rng, 20)
        s = score(y, _fit_for(y, y.copy(), 0.0))
        assert s.sic == -math.inf and s.mc == -math.inf

    def test_monotone_in_k_for_fixed_rss(self):
        n, rss = 50, 3.0
        for k in range(6):
            a_sic = math.log(rss / n) + (k + 2) * math.log(n) / n
            b_sic = math.log(rss / n) + (k + 3) * math.log(n) / n
            a_mc = math.log(rss / n) + k * (k + 1) * math.log(n) / n
            b_mc = math.log(rss / n) + (k + 1) * (k + 2) * math.log(n) / n
            assert b_sic > a_sic
            assert b_mc > a_mc


class TestSelect:
    def test_singleton(self, rng):
        y = random_walk(rng, 20)
        fit = _fit_for(y, y * 0.9, 1.0)
        lam, chosen, scores = select(_path(y, [fit]), y, "sic")
        assert lam == 1.0 and chosen is fit and len(scores) == 1

    def test_tie_breaks_toward_larger_lambda(self, rng):
        y = random_walk(rng, 20)
        mu = y * 0.9
        f1 = _fit_for(y, mu, 1.0)
        f2 = _fit_for(y, mu.copy(), 2.0)  # identical scores, larger lambda
        lam, chosen, _ = select(_path(y, [f1, f2]), y, "mc")
        assert lam == 2.0

    def test_interpolating_entries_excluded(self, rng):
        y = random_walk(rng, 20)
        f0 = _fit_for(y, y.copy(), 0.0)      # rss = 0: excluded
        f1 = _fit_for(y, y * 0.95, 1.0)
        lam, chosen, _ = select(_path(y, [f0, f1]), y, "mc")
        assert lam == 1.0

    def test_all_infinite_raises(self, rng):
        y = random_walk(rng, 20)
        f0 = _fit_for(y, y.copy(), 0.0)
        with pytest.raises(NoSelectableModelError):
            select(_path(y, [f0]), y, "mc")

    def test_default_grid_path_selects_without_warning(self, rng):
        # every default grid leads with lam = 0, whose interpolant is left out
        # of selection as a matter of course, not as a warning
        y = random_walk(rng, 40)
        path = fit_path(y, default_grid(lambda_max(y)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam, _, scores = select(path, y, "mc")
        assert caught == []
        assert scores[0].mc == -math.inf and lam > 0

    def test_reorder_invariance(self, rng):
        y = random_walk(rng, 30)
        lmax = lambda_max(y)
        grid = list(lmax * np.logspace(-2, 0, 8))
        path = fit_path(y, grid)
        lam1, _, scores = select(path, y, "mc")
        # scoring is a pure argmin of per-entry values
        vals = [s.mc for s in scores]
        assert lam1 == grid[max(range(len(vals)), key=lambda i: (-vals[i], grid[i]))]

    def test_scaling_shifts_but_preserves_argmin(self, rng):
        y = random_walk(rng, 40)
        lmax = lambda_max(y)
        grid = list(lmax * np.logspace(-3, 0, 10))
        path1 = fit_path(y, grid)
        lam1, _, scores1 = select(path1, y, "mc")
        c = 4.0
        path2 = fit_path(c * y, [c * g for g in grid])  # homogeneity: same fits scaled
        lam2, _, scores2 = select(path2, c * y, "mc")
        assert lam2 == pytest.approx(c * lam1, rel=1e-9)
        for s1, s2 in zip(scores1, scores2):
            assert s2.mc - s1.mc == pytest.approx(2 * math.log(c), abs=1e-6)
            assert s2.sic - s1.sic == pytest.approx(2 * math.log(c), abs=1e-6)

    @pytest.mark.parametrize("as_series", [False, True])
    def test_stored_scores_reused_on_the_certified_y(self, rng, monkeypatch, as_series):
        # the path scored every entry as it certified it; select used to
        # score each entry again
        y = random_walk(rng, 60)
        y = TimeSeries(y) if as_series else y
        path = fit_path(y, default_grid(lambda_max(y), size=12))
        calls, real = _counting_score(monkeypatch)
        _, _, scores = select(path, y)
        assert calls == []
        assert [_bits(s) for s in scores] == [_bits(real(y, e.fit)) for e in path.entries]

    @pytest.mark.parametrize("case", ["copy-of-y", "other-y", "tol-kink"])
    def test_scored_from_scratch_otherwise(self, rng, monkeypatch, case):
        y = random_walk(rng, 60)
        path = fit_path(y, default_grid(lambda_max(y), size=12))
        yq, tol = {"copy-of-y": (y.copy(), KINK_TOL),
                   "other-y": (y + rng.normal(0.0, 1.0, 60), KINK_TOL),
                   "tol-kink": (y, 1e-4)}[case]
        calls, real = _counting_score(monkeypatch)
        _, _, scores = select(path, yq, tol_kink=tol)
        assert len(calls) == len(path)
        assert [_bits(s) for s in scores] == [_bits(real(yq, e.fit, tol)) for e in path.entries]

    def test_bad_criterion(self, rng):
        y = random_walk(rng, 20)
        path = fit_path(y, [1.0])
        with pytest.raises(ValueError):
            select(path, y, "aic")


class TestDefaultGrid:
    def test_shape_and_endpoints(self):
        g = default_grid(100.0, size=60, min_rel=1e-4)
        assert len(g) == 61
        assert g[0] == 0.0
        assert g[1] == pytest.approx(1e-2)
        assert g[-1] == pytest.approx(100.0)

    def test_zero_lambda_max(self):
        assert default_grid(0.0) == [0.0]

    @pytest.mark.parametrize("kwargs", [
        # min_rel 0 and -1 used to fail with ZeroDivisionError and TypeError, a
        # lam_max of NaN or inf to give a grid of NaNs, and size 0 at lam_max 0
        # to pass
        pytest.param({"min_rel": 0.0}, id="min-rel-0"),
        pytest.param({"min_rel": -1.0}, id="min-rel-neg"),
        pytest.param({"min_rel": 2.0}, id="min-rel-2"),
        pytest.param({"min_rel": math.nan}, id="min-rel-nan"),
        pytest.param({"lam_max": math.nan}, id="lam-max-nan"),
        pytest.param({"lam_max": math.inf}, id="lam-max-inf"),
        pytest.param({"lam_max": 0.0, "size": 0}, id="size-0-at-lam-max-0"),
    ])
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            default_grid(**{"lam_max": 100.0, **kwargs})
