import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendfilter.core import (
    KinkSet,
    TimeSeries,
    TrendFit,
    extract_kinks,
    objective_value,
    validate_grid,
)
from trendfilter.design import InvalidDimensionError, second_diff
from trendfilter.simulate import example1, gen_trend


class TestTimeSeries:
    def test_minimum_length(self):
        with pytest.raises(InvalidDimensionError):
            TimeSeries(np.zeros(4))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, 2.0, np.nan, 4.0, 5.0]))

    def test_n(self):
        assert TimeSeries(np.zeros(7)).n == 7


class TestObjective:
    def test_zero_at_interpolation_of_affine(self):
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert objective_value(y, y, 17.3) == 0.0

    def test_pure_quadratic(self):
        y = np.zeros(5)
        assert objective_value(y, np.ones(5), 3.0) == pytest.approx(2.5)

    def test_quadratic_plus_penalty(self):
        # second diffs of (0,0,1,0,0) are (1, -2, 1): 0.5 + 1*(1+2+1) = 4.5
        y = np.zeros(5)
        mu = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert objective_value(y, mu, 1.0) == pytest.approx(4.5)

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            objective_value(np.zeros(5), np.zeros(6), 1.0)

    @given(st.floats(0, 100), st.floats(0, 100))
    def test_monotone_in_lambda(self, l1, l2):
        y = np.array([0.0, 1.0, -1.0, 2.0, 0.5])
        mu = np.array([0.1, 0.7, -0.5, 1.4, 0.6])
        lo, hi = min(l1, l2), max(l1, l2)
        assert objective_value(y, mu, lo) <= objective_value(y, mu, hi) + 1e-12

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        # a NaN lambda passed the old lam < 0 test and gave a NaN objective
        y = np.zeros(5)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            objective_value(y, y, lam)
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            TrendFit.from_mu(y, y, lam)

    def test_lambda_zero_is_half_rss(self, rng):
        y = rng.normal(size=9)
        mu = rng.normal(size=9)
        assert objective_value(y, mu, 0.0) == pytest.approx(0.5 * np.sum((y - mu) ** 2))


class TestTrendFit:
    def test_roundtrip_views(self, rng):
        y = rng.normal(size=20)
        mu = rng.normal(size=20)
        fit = TrendFit.from_mu(y, mu, 0.3)
        nu = np.empty(20)
        nu[0] = mu[0]
        nu[1:] = np.diff(mu)
        assert np.array_equal(fit.nu_hat, nu)
        assert np.array_equal(fit.beta_tail, second_diff(mu))
        assert fit.objective == pytest.approx(objective_value(y, mu, 0.3))

    @pytest.mark.parametrize("mu", [
        np.array([-0.0, 0.0, -0.0, 5e-324, 1e150, -1e150]),
        np.array([1.0, 4.0, 9.0, 16.0, 25.0, 2.0**60]),
        np.array([-0.0, -0.0, -0.0, -0.0, -0.0]),
    ], ids=["signed-zero-and-extremes", "integer-valued", "negative-zeros"])
    def test_views_are_bitwise_diffs(self, mu):
        fit = TrendFit.from_mu(mu, mu, 1.0)
        nu = np.concatenate([[mu[0]], np.diff(mu)])
        for view, want in ((fit.nu_hat, nu), (fit.beta_tail, second_diff(mu))):
            assert view.tobytes() == want.tobytes()

    def test_stores_the_mean_vector_only(self):
        names = [f.name for f in dataclasses.fields(TrendFit)]
        assert names == ["lam", "mu_hat", "objective", "converged", "solver"]


class TestKinkSet:
    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            KinkSet(indices=(5, 3), signs={5: 1, 3: 1})

    def test_requires_signs(self):
        with pytest.raises(ValueError):
            KinkSet(indices=(3,), signs={})


class TestExtractKinks:
    def test_affine_is_kink_free(self):
        mu = 2.0 + 3.0 * np.arange(1, 11)
        assert len(extract_kinks(mu)) == 0

    def test_single_constructed_kink(self):
        ks = extract_kinks(np.array([0.0, 0.0, 1.0, 2.0, 3.0]), tol_kink=1e-8)
        assert ks.indices == (2,)
        assert ks.signs[2] == 1

    def test_noiseless_generator_kinks(self):
        # generator truth for the symmetric-V benchmark shape at n=500
        mu0 = gen_trend(example1(n=500))
        ks = extract_kinks(mu0)
        assert ks.indices == (151, 351)
        assert ks.sign_vector() == [1, 1]

    @pytest.mark.parametrize("case", ["random", "affine", "every-point"])
    def test_matches_per_kink_loop(self, rng, case):
        # the sign dict is built in one pass; a loop over the second
        # differences, one np.sign call per kink, is the reference
        def reference(mu, tol_kink):
            b, scale = second_diff(mu), max(1.0, float(np.max(np.abs(mu))))
            hits = [k for k in range(b.size) if abs(b[k]) > tol_kink * scale]
            return tuple(k + 2 for k in hits), {k + 2: int(np.sign(b[k])) for k in hits}

        for trial in range(50):
            n = int(rng.integers(3, 60))
            t = np.arange(1.0, n + 1)
            if case == "random":
                mu = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
            elif case == "affine":
                mu = rng.normal() + rng.normal() * t
            else:
                mu = (-1.0) ** t * rng.uniform(1.0, 2.0, n)  # |second diff| >= 4, |mu| <= 2
            tol_kink = float(rng.choice([1e-8, 1e-3, 0.1]))
            ks = extract_kinks(mu, tol_kink)
            assert (ks.indices, ks.signs) == reference(mu, tol_kink), trial
            assert all(type(s) is int for s in ks.signs.values()), trial
            if case == "affine":
                assert len(ks) == 0, trial
            elif case == "every-point":
                assert ks.indices == tuple(range(2, n)), trial

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_affine_shift_invariance(self, c, d):
        # second differences are affine-invariant; kink magnitudes here dwarf
        # the relative threshold at every shifted scale, so detection is identical
        mu = np.array([0.0, 0.1, 0.5, 0.2, -0.3, -0.1, 0.4, 0.9])
        t = np.arange(1, 9, dtype=float)
        base = extract_kinks(mu, tol_kink=1e-6)
        shifted = extract_kinks(mu + c + d * t, tol_kink=1e-6)
        assert shifted.indices == base.indices
        assert shifted.sign_vector() == base.sign_vector()


class TestValidateGrid:
    @pytest.mark.parametrize("grid", [[float("nan")], [0.0, float("inf")], [0.0, 1.0, float("nan")]])
    def test_non_finite_rejected(self, grid):
        with pytest.raises(ValueError, match="finite"):
            validate_grid(grid)

    def test_valid_grid_as_floats(self):
        assert validate_grid([0, 1, 2.5]) == [0.0, 1.0, 2.5]
