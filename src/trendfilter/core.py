"""Central value types: series, fitted trends, kink sets, and lambda paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import InvalidDimensionError, second_diff

MIN_SERIES_LEN = 5

# Relative threshold separating a genuine slope change from numerical zero.
# Both solvers produce exact ties (fused runs) or near-machine-zero second
# differences off the active set, so anything in between is ambiguous and the
# scale guard keeps the rule magnitude-independent.
KINK_TOL = 1e-8


@dataclass(frozen=True)
class TimeSeries:
    """Observation vector y_1..y_n, unit-spaced."""

    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 1:
            raise InvalidDimensionError("series must be 1-d")
        if y.size < MIN_SERIES_LEN:
            raise InvalidDimensionError(f"series length must be >= {MIN_SERIES_LEN}, got {y.size}")
        if not np.all(np.isfinite(y)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.size


def as_array(y) -> np.ndarray:
    """The observations of a TimeSeries, or y itself as a float array."""
    return y.y if isinstance(y, TimeSeries) else np.asarray(y, dtype=float)


def finite_array(y) -> np.ndarray:
    """``as_array(y)``, rejected with a ValueError unless it holds at least 3
    values, all finite: what the solvers' entry points take."""
    yv = as_array(y)
    if yv.size < 3:
        raise ValueError(f"series length must be >= 3, got {yv.size}")
    if not np.all(np.isfinite(yv)):
        raise ValueError("series contains non-finite values")
    return yv


def objective_value(y, mu, lam: float) -> float:
    """0.5 * sum (y_t - mu_t)^2 + lam * sum_{t=3..n} |mu_t - 2 mu_{t-1} + mu_{t-2}|."""
    yv = as_array(y)
    mu = np.asarray(mu, dtype=float)
    if mu.shape != yv.shape:
        raise InvalidDimensionError(f"length mismatch: y {yv.shape} vs mu {mu.shape}")
    if not 0 <= lam < np.inf:
        raise ValueError("lam must be finite and >= 0")
    resid = yv - mu
    return 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(second_diff(mu))))


@dataclass(frozen=True)
class TrendFit:
    """A fitted mean vector at one penalty level.

    ``mu_hat`` is the one stored vector; the slope views are derived from it
    on every read. ``nu_hat`` is (mu_1, first differences); ``beta_tail`` the
    second differences, i.e. the slope changes, indexed so that entry k
    (0-based) sits at time k+2 (1-based).
    """

    lam: float
    mu_hat: np.ndarray
    objective: float
    converged: bool = True
    solver: str = ""

    @classmethod
    def from_mu(cls, y, mu: np.ndarray, lam: float, converged: bool = True,
                solver: str = "") -> "TrendFit":
        mu = np.asarray(mu, dtype=float)
        return cls(float(lam), mu, objective_value(y, mu, lam), converged, solver)

    @property
    def nu_hat(self) -> np.ndarray:
        return np.diff(self.mu_hat, prepend=0.0)

    @property
    def beta_tail(self) -> np.ndarray:
        return second_diff(self.mu_hat)

    @property
    def n(self) -> int:
        return self.mu_hat.size


@dataclass(frozen=True)
class KinkSet:
    """Sorted interior time locations (1-based, in {2..n-1}) with slope-change signs."""

    indices: tuple[int, ...]
    signs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise ValueError("indices must be strictly increasing")
        if set(self.signs) != set(idx):
            raise ValueError("every index needs a sign")
        if any(s not in (-1, 1) for s in self.signs.values()):
            raise ValueError("signs must be -1 or +1")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def sign_vector(self) -> list[int]:
        return [self.signs[i] for i in self.indices]


def kink_mask(mu: np.ndarray, tol_kink: float) -> tuple[np.ndarray, np.ndarray]:
    """The second differences of mu and the mask of those that are kinks:
    |mu_{i+1} - 2 mu_i + mu_{i-1}| > tol_kink * max(1, max |mu|)."""
    b = second_diff(mu)
    return b, np.abs(b) > tol_kink * max(1.0, float(np.abs(mu).max()))


def extract_kinks(fit_or_mu, tol_kink: float = KINK_TOL) -> KinkSet:
    """Interior times where the fitted slope changes by more than a relative threshold.

    Time i (1-based) is a kink iff ``kink_mask`` marks its second difference;
    its sign is the sign of that second difference.
    """
    mu = fit_or_mu.mu_hat if isinstance(fit_or_mu, TrendFit) else np.asarray(fit_or_mu, dtype=float)
    b, mask = kink_mask(mu, tol_kink)
    hits = np.flatnonzero(mask)
    indices = (hits + 2).tolist()  # second-diff entry k sits at time k+3; change is at k+2
    signs = dict(zip(indices, np.sign(b[hits]).astype(int).tolist()))
    return KinkSet(indices=tuple(indices), signs=signs)


def validate_grid(lambda_grid) -> list[float]:
    """The grid as floats, checked to be non-empty, finite, strictly increasing and >= 0."""
    grid = [float(l) for l in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if not np.all(np.isfinite(grid)):
        raise ValueError("lambda values must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be strictly increasing")
    if grid[0] < 0:
        raise ValueError("lambda values must be >= 0")
    return grid


@dataclass(frozen=True)
class PathEntry:
    lam: float
    fit: TrendFit
    warm_start: bool
    kkt: "object | None" = None  # KktReport; typed loosely to avoid an import cycle
    score: "object | None" = None  # SelectionScore at KINK_TOL, on the path's y


@dataclass(frozen=True)
class LambdaPath:
    """Fits along a strictly increasing lambda grid; ``y``, when set, is the
    very array the entries' scores were taken on."""

    entries: tuple[PathEntry, ...]
    y: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        lams = [e.lam for e in self.entries]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("lambda values must be strictly increasing")
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)
