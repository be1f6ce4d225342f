"""The slope-change design of the lasso route and design-matrix diagnostics.

``DesignZ`` -- column 1 is all ones; column j >= 2 ramps 1, 2, 3, ...
starting at row j. ``Z @ b`` reconstructs the mean vector from (level, first
slope, slope changes).

It exposes matrix-free products in O(n) and gives any block of its Gram matrix
in closed form: all the lasso route's sweeps and the irrepresentable-condition
report need. Dense materialization is for reference tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

DENSE_LIMIT = 2000


class InvalidDimensionError(ValueError):
    pass


class SingularDesignError(np.linalg.LinAlgError):
    pass


class InvalidIndexError(IndexError):
    pass


def second_diff(mu: np.ndarray) -> np.ndarray:
    """Second differences mu[t] - 2*mu[t-1] + mu[t-2], one per t in {3..n} (1-based).

    Entry k (0-based) is the slope change located at time k+2 (1-based);
    affine inputs map to exactly zero.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size < 3:
        raise InvalidDimensionError(f"need a 1-d vector of length >= 3, got shape {mu.shape}")
    return mu[2:] + mu[:-2] - 2.0 * mu[1:-1]


def second_diff_adjoint(g: np.ndarray, n: int) -> np.ndarray:
    """Adjoint of :func:`second_diff`: maps length n-2 to length n."""
    g = np.asarray(g, dtype=float)
    if g.size != n - 2:
        raise InvalidDimensionError(f"expected length {n - 2}, got {g.size}")
    out = np.zeros(n)
    out[:-2] += g
    out[1:-1] -= 2.0 * g
    out[2:] += g
    return out


@dataclass(frozen=True)
class DesignZ:
    """Reconstruction operator: z_t1 = 1; z_tj = t - j + 1 for 2 <= j <= t; else 0."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidDimensionError("n must be >= 1")

    @cached_property
    def ramp(self) -> np.ndarray:
        """0, 1, ..., n-1 as floats, taken once: the slope column of every product."""
        return np.arange(self.n, dtype=float)

    def matvec(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.size != self.n:
            raise InvalidDimensionError(f"expected length {self.n}, got {b.size}")
        # mu_t = b_1 + (t-1) b_2 + a double prefix sum of the slope changes alone,
        # so a large level b_1 never enters (and cancels in) a cumulative sum.
        out = np.full(self.n, b[0])
        if self.n >= 2:
            out += b[1] * self.ramp
            out[2:] += np.cumsum(np.cumsum(b[2:]))
        return out

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.size != self.n:
            raise InvalidDimensionError(f"expected length {self.n}, got {v.size}")
        suf = np.cumsum(v[::-1])[::-1]
        out = np.cumsum(suf[::-1])[::-1]
        out[0] = suf[0]
        return out

    def encode(self, mu: np.ndarray) -> np.ndarray:
        """Exact inverse of :meth:`matvec`: (mu_1, mu_2 - mu_1, second differences)."""
        mu = np.asarray(mu, dtype=float)
        if mu.size != self.n:
            raise InvalidDimensionError(f"expected length {self.n}, got {mu.size}")
        b = np.empty(self.n)
        b[0] = mu[0]
        if self.n >= 2:
            b[1] = mu[1] - mu[0]
        if self.n >= 3:
            b[2:] = second_diff(mu)
        return b

    def column_norms_sq(self) -> np.ndarray:
        """||z_j||^2 in closed form: n for j=1, sum of 1..(n-j+1) squares for j>=2."""
        n = self.n
        out = np.empty(n)
        out[0] = float(n)
        m = np.arange(n - 1, 0, -1, dtype=float)  # n-j+1 for j=2..n
        out[1:] = m * (m + 1) * (2 * m + 1) / 6.0
        return out

    def gram(self, cols, rows=None) -> np.ndarray:
        """Z_R' Z_S in closed form for 0-based columns S and R (R = S by
        default); the diagonal of Z_S' Z_S is :meth:`column_norms_sq`. Column
        j >= 1 is the ramp 1..L_j (L_j = n - j) from row j, so
        z_i'z_j = sum_{a<=L_j} a (a + j - i) for i <= j, and the ones column
        meets ramp j in L_j (L_j + 1) / 2."""
        c = np.asarray(cols, dtype=float)
        r = c if rows is None else np.asarray(rows, dtype=float)
        lo, hi = np.minimum.outer(r, c), np.maximum.outer(r, c)
        const = lo == 0  # the ones column meets a ramp
        corner = const & (hi == 0)
        # in place, in three block-sized arrays: with L = n - hi and
        # s1 = L (L + 1) / 2, G = L (L + 1) (2 L + 1) / 6 + (hi - lo) s1
        width, L = np.subtract(hi, lo, out=lo), np.subtract(self.n, hi, out=hi)
        s1 = L + 1
        s1 *= L
        G = np.multiply(L, 2, out=L)
        G += 1
        G *= s1
        G /= 6.0
        s1 /= 2.0
        width *= s1
        G += width
        G[const] = s1[const]
        G[corner] = float(self.n)
        return G

    def dense(self) -> np.ndarray:
        if self.n > DENSE_LIMIT:
            raise InvalidDimensionError(f"dense Z capped at n={DENSE_LIMIT}")
        n = self.n
        Z = np.zeros((n, n))
        Z[:, 0] = 1.0
        for j in range(2, n + 1):
            Z[j - 1:, j - 1] = np.arange(1, n - j + 2)
        return Z


def spectral_check(n: int) -> tuple[float, float]:
    """(smallest eigenvalue of Z'Z/n, max row energy z_t'z_t/n).

    Z'Z is the closed-form Gram matrix, but its symmetric eigensolve is dense
    and O(n^2) in memory, so n is capped at ``DENSE_LIMIT``. The largest row
    energy is the last row's, (1, n-1, n-2, ..., 1).
    """
    if n < 2:
        raise InvalidDimensionError("n must be >= 2")
    if n > DENSE_LIMIT:
        raise InvalidDimensionError(f"spectral_check capped at n={DENSE_LIMIT} (dense eigensolve)")
    rho1 = float(np.linalg.eigvalsh(DesignZ(n).gram(range(n)) / n)[0])
    max_row_energy = (1 + (n - 1) * n * (2 * n - 1) // 6) / n
    return rho1, max_row_energy


@dataclass(frozen=True)
class IrrepSystem:
    """Rows of M = Z2' Z1 (Z1'Z1)^-1, one per excluded column of Z."""

    n: int
    z1_columns: tuple[int, ...]  # 1-based: (1, 2) + kink columns
    z2_columns: tuple[int, ...]  # 1-based, ascending
    M: np.ndarray


def irrepresentable_vectors(n: int, kink_columns) -> IrrepSystem:
    """Cross-correlation rows used by the componentwise sign-recovery condition.

    ``kink_columns`` are 1-based column indices of Z in {3..n}; columns 1 and 2
    (the affine part) always belong to the retained block Z1. Both Gram
    blocks are closed-form, so memory is O(n k) for k kinks.
    """
    if n < 2:
        raise InvalidDimensionError("n must be >= 2")
    kinks = sorted(int(c) for c in kink_columns)
    for c in kinks:
        if not 3 <= c <= n:
            raise InvalidIndexError(f"kink column {c} outside 3..{n}")
    if len(set(kinks)) != len(kinks):
        raise InvalidIndexError("duplicate kink columns")
    z1 = [1, 2] + kinks
    retained = set(z1)
    z2 = [j for j in range(1, n + 1) if j not in retained]
    Z = DesignZ(n)
    c1, c2 = np.subtract(z1, 1), np.subtract(z2, 1)
    try:
        M = np.linalg.solve(Z.gram(c1), Z.gram(c2, rows=c1)).T
    except np.linalg.LinAlgError as e:
        raise SingularDesignError(str(e)) from e
    return IrrepSystem(n=n, z1_columns=tuple(z1), z2_columns=tuple(z2), M=M)


def irrepresentable_holds(M: np.ndarray, s1) -> tuple[bool, list[tuple[int, float]]]:
    """Strict componentwise test |M @ s1| < 1.

    s1 holds one sign per retained column: the affine pair first, then the
    kinks. The affine pair may also take 0, its sign in the objective the
    solvers minimise, where that pair is unpenalised; every kink entry is -1
    or +1. Returns (holds, violations); each violation is (0-based row of M,
    value). Equality |value| = 1 counts as a violation.
    """
    M = np.asarray(M, dtype=float)
    s1 = np.asarray(s1, dtype=float)
    if s1.ndim != 1 or M.ndim != 2 or M.shape[1] != s1.size:
        raise InvalidDimensionError(f"shape mismatch: M {M.shape} vs s1 {s1.shape}")
    if not (np.all(np.isin(s1[:2], (-1.0, 0.0, 1.0))) and np.all(np.isin(s1[2:], (-1.0, 1.0)))):
        raise ValueError("s1 entries must be -1 or +1 (or 0 for the affine pair)")
    v = M @ s1
    bad = [(int(i), float(v[i])) for i in np.flatnonzero(np.abs(v) >= 1.0 - 1e-12)]
    return (len(bad) == 0), bad
