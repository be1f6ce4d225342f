from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendfilter.core import extract_kinks
from trendfilter.design import (
    DENSE_LIMIT,
    DesignZ,
    InvalidDimensionError,
    InvalidIndexError,
    irrepresentable_holds,
    irrepresentable_vectors,
    second_diff,
    spectral_check,
)
from trendfilter.simulate import example1, example2, gen_trend

finite_floats = st.floats(-1e6, 1e6, allow_nan=False)


class TestDesignZ:
    def test_n3_rows(self):
        Z = DesignZ(3).dense()
        assert np.array_equal(Z, [[1, 0, 0], [1, 1, 0], [1, 2, 1]])

    def test_affine_reconstruction(self):
        Z = DesignZ(4)
        mu = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(Z.matvec([1.0, 1.0, 0.0, 0.0]), mu)

    def test_last_row_n10(self):
        Z = DesignZ(10).dense()
        assert np.array_equal(Z[9], [1, 9, 8, 7, 6, 5, 4, 3, 2, 1])

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidDimensionError):
            DesignZ(0)

    def test_products_match_dense(self, rng):
        Z = DesignZ(23)
        v = rng.normal(size=23)
        D = Z.dense()
        assert np.allclose(Z.matvec(v), D @ v)
        assert np.allclose(Z.rmatvec(v), D.T @ v)

    def test_column_norms_closed_form(self):
        Z = DesignZ(15)
        D = Z.dense()
        assert np.allclose(Z.column_norms_sq(), (D * D).sum(axis=0))

    @pytest.mark.parametrize("n", [3, 10, 37])
    def test_gram_blocks_closed_form(self, n, rng):
        Z = DesignZ(n)
        D = Z.dense()
        full = D.T @ D
        assert np.array_equal(Z.gram(np.arange(n)), full)
        assert np.array_equal(np.diag(Z.gram(np.arange(n))), Z.column_norms_sq())
        for _ in range(5):
            cols = np.concatenate(([0, 1], rng.choice(np.arange(2, n), size=n // 3, replace=False)))
            rng.shuffle(cols)
            assert np.array_equal(Z.gram(cols), full[np.ix_(cols, cols)])
            # rectangular blocks Z_R' Z_S: rows and columns differ in set and size
            rows = rng.choice(np.arange(n), size=1 + n // 2, replace=False)
            assert np.array_equal(Z.gram(cols, rows=rows), full[np.ix_(rows, cols)])
            assert np.array_equal(Z.gram(rows, rows=cols), full[np.ix_(cols, rows)])
        assert np.array_equal(Z.gram([n - 1], rows=[0]), full[:1, -1:])

    def test_matvec_exact_at_a_large_level(self, rng):
        # Z b for the encoding b of a series at level 1e6, against the exact
        # rational value: the level must not pass through the cumulative sums
        # of the slope changes, where it would cost about 1e-12 relative
        n = 1000
        t = np.arange(n, dtype=float)
        mu = 1e6 + 0.5 * t - 2e-3 * np.maximum(t - 400, 0.0) + rng.normal(0.0, 1.0, n)
        Z = DesignZ(n)
        b = Z.encode(mu)
        q = [Fraction(float(v)) for v in b]
        ramps = [Fraction(0), Fraction(0)] + list(accumulate(accumulate(q[2:])))
        exact = np.array([float(q[0] + q[1] * k + ramps[k]) for k in range(n)])
        assert np.max(np.abs(Z.matvec(b) - exact)) <= 1e-14 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n", [1, 2, 3, 50, 1001])
    def test_matvec_on_the_cached_ramp_bitwise_equal(self, rng, n):
        # the slope column is taken once per design, with the bits of a
        # fresh integer ramp in every product
        Z = DesignZ(n)
        for level in (0.0, 1e6, -3.5e-9):
            b = rng.normal(size=n) * 10.0 ** rng.integers(-6, 7, n)
            b[0] += level
            ref = np.full(n, b[0])
            if n >= 2:
                ref += b[1] * np.arange(n)
                ref[2:] += np.cumsum(np.cumsum(b[2:]))
            assert Z.matvec(b).tobytes() == ref.tobytes()
        assert Z.ramp is Z.ramp and Z.ramp.tolist() == list(range(n))

    @given(st.lists(finite_floats, min_size=3, max_size=40))
    def test_encode_decode_roundtrip(self, mu):
        mu = np.array(mu)
        Z = DesignZ(mu.size)
        back = Z.matvec(Z.encode(mu))
        assert np.allclose(back, mu, rtol=0, atol=1e-8 * (1 + np.max(np.abs(mu))))


class TestSecondDiff:
    def test_affine_annihilation(self):
        assert np.array_equal(second_diff([0.0, 1.0, 2.0, 3.0]), [0.0, 0.0])

    def test_single_unit_kink(self):
        assert np.array_equal(second_diff([0.0, 0.0, 1.0, 2.0]), [1.0, 0.0])

    def test_squares(self):
        # direct evaluation of mu_t + mu_{t-2} - 2 mu_{t-1} on squares
        assert np.array_equal(second_diff([1.0, 4.0, 9.0, 16.0, 25.0]), [2.0, 2.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(InvalidDimensionError):
            second_diff([1.0, 2.0])

    @given(st.lists(finite_floats, min_size=3, max_size=30))
    def test_links_slope_diffs(self, nu):
        # second differences of prefix sums are the adjacent slope differences
        nu = np.array(nu)
        assert np.allclose(second_diff(np.cumsum(nu)), np.diff(nu)[1:],
                           rtol=0, atol=1e-7 * (1 + np.max(np.abs(nu))))


class TestSpectral:
    @pytest.mark.parametrize("n", [5, 10, 25, 50])
    def test_smallest_eigenvalue_bound(self, n):
        rho1, _ = spectral_check(n)
        assert rho1 < 1.0 / (4 * n)

    @pytest.mark.parametrize("n", [10, 25, 50, 100])
    def test_row_energy_bound(self, n):
        _, mre = spectral_check(n)
        assert mre >= n * n / 4.0

    def test_row_energy_n2(self):
        _, mre = spectral_check(2)
        assert mre == pytest.approx(1.0)  # row (1, 1)

    def test_row_energy_small_n_edge(self):
        # the n^2/4 bound does not yet hold at n = 5: max row energy is 31/5
        _, mre = spectral_check(5)
        assert mre == pytest.approx(31.0 / 5.0)
        assert mre < 25.0 / 4.0

    @pytest.mark.parametrize("n", [2, 7, 40, 300])
    def test_matches_dense_reference(self, n):
        Z = DesignZ(n).dense()
        rho1, mre = spectral_check(n)
        assert rho1 == float(np.linalg.eigvalsh(Z.T @ Z / n)[0])
        assert mre == float(np.max(np.einsum("ij,ij->i", Z, Z)) / n)

    def test_cap_names_spectral_check(self):
        with pytest.raises(InvalidDimensionError, match="spectral_check"):
            spectral_check(DENSE_LIMIT + 1)


# reference 3-vectors for n=10 with the retained kink column 5 (4 decimals)
REFERENCE_ROWS = {
    3: (-0.3255, 0.7383, 0.2872),
    4: (-0.2383, 0.3574, 0.6809),
    6: (0.1277, -0.1915, 1.0638),
    7: (0.1702, -0.2553, 0.9422),
    8: (0.1532, -0.2298, 0.7052),
    9: (0.1021, -0.1532, 0.4225),
    10: (0.0426, -0.0638, 0.1641),
}


class TestIrrepresentable:
    def test_reference_vectors(self):
        system = irrepresentable_vectors(10, [5])
        assert system.z1_columns == (1, 2, 5)
        assert system.z2_columns == tuple(sorted(REFERENCE_ROWS))
        for row, col in zip(system.M, system.z2_columns):
            assert np.allclose(np.round(row, 4), REFERENCE_ROWS[col])

    def test_normal_equation_residual(self):
        system = irrepresentable_vectors(10, [5])
        Z = DesignZ(10).dense()
        Z1 = Z[:, [c - 1 for c in system.z1_columns]]
        Z2 = Z[:, [c - 1 for c in system.z2_columns]]
        resid = system.M @ (Z1.T @ Z1) - Z2.T @ Z1
        assert np.max(np.abs(resid)) < 1e-8

    def test_normal_equations_past_the_dense_size(self):
        # n = 2500 is above DENSE_LIMIT: M Z1'Z1 = Z2'Z1 with both blocks from gram
        n = 2500
        assert n > DENSE_LIMIT
        system = irrepresentable_vectors(n, [100, 200])
        assert system.M.shape == (n - 4, 4)
        Z = DesignZ(n)
        c1 = np.array(system.z1_columns) - 1
        c2 = np.array(system.z2_columns) - 1
        G12 = Z.gram(c1, rows=c2)
        resid = system.M @ Z.gram(c1) - G12
        assert np.max(np.abs(resid)) <= 1e-12 * np.max(np.abs(G12))

    def test_too_small_n_rejected(self):
        with pytest.raises(InvalidDimensionError, match="n must be >= 2"):
            irrepresentable_vectors(1, [])

    @pytest.mark.parametrize("s1,violating_cols", [
        ((1, 1, 1), [6]),            # |a_3' s| = 1 exactly: strictness makes it fail
        ((1, -1, 1), [6, 7, 8]),     # a_3, a_4, a_5
        ((1, 1, -1), [6, 7]),
        ((-1, 1, 1), [3, 4]),        # a_1, a_2
    ])
    def test_sign_cases(self, s1, violating_cols):
        system = irrepresentable_vectors(10, [5])
        holds, violations = irrepresentable_holds(system.M, s1)
        assert not holds
        assert [system.z2_columns[i] for i, _ in violations] == violating_cols

    @pytest.mark.parametrize("make,n,largest", [(example1, 500, 1.3636), (example2, 1000, 1.0366)])
    def test_unpenalised_affine_pair(self, make, n, largest):
        # s1 = [0, 0, s]: the condition of the objective the solvers minimise,
        # whose largest |value| is criterion 5's true-structure KKT ratio
        kinks = extract_kinks(gen_trend(make(n=n)))
        system = irrepresentable_vectors(n, [k + 1 for k in kinks.indices])
        holds, violations = irrepresentable_holds(system.M, [0, 0, *(kinks.signs[k] for k in kinks.indices)])
        assert not holds
        assert max(abs(v) for _, v in violations) == pytest.approx(largest, abs=1e-4)

    @pytest.mark.parametrize("s1", [(1, 1, 0), (0, 0, 0), (2, 1, 1), (1, 0.5, -1)])
    def test_rejects_bad_signs(self, s1):
        with pytest.raises(ValueError):
            irrepresentable_holds(np.zeros((4, 3)), s1)

    def test_zero_matrix_holds(self):
        holds, violations = irrepresentable_holds(np.zeros((4, 3)), (1, -1, 1))
        assert holds and violations == []

    def test_length_mismatch(self):
        with pytest.raises(InvalidDimensionError):
            irrepresentable_holds(np.zeros((4, 3)), (1, 1))

    def test_kink_column_out_of_range(self):
        with pytest.raises(InvalidIndexError):
            irrepresentable_vectors(10, [2])
        with pytest.raises(InvalidIndexError):
            irrepresentable_vectors(10, [11])

    def test_no_kink_baseline(self):
        system = irrepresentable_vectors(10, [])
        assert system.z1_columns == (1, 2)
        assert system.M.shape == (8, 2)
