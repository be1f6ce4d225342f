"""Synthetic joint piecewise-linear benchmarks: generators, metrics, and
replicated experiments with deterministic seeding.

Trends are continuous piecewise-linear sequences mu_t = a_j + b_j * (t/n)
(slopes act on normalized time by default; a ``raw`` switch uses t instead).
Kink times are t_j = round(n * r_j) + 1, and intercepts after the first are
forced by continuity at the shared kink, so adjacent segments meet exactly.

Example presets:

* example 1 -- symmetric V with a flat middle: r = (0.3, 0.7), b = (-30, 0, 30)
* example 2 -- wiggly slopes: r = (0.2, 0.4, 0.6, 0.8), b = (-6, 40, -5, 35, -3)

The noise scale maps a signal-to-noise ratio to sigma = mean(|mu0|) / snr;
the signed-mean convention sum(mu0) / (n * sigma) is available behind a switch
for positive trends. Replication r of an experiment draws from
PCG64(SeedSequence((base_seed, r))), so results are reproducible bit-for-bit
regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lasso, pathwise
from .core import KINK_TOL, KinkSet, TimeSeries, TrendFit, extract_kinks, kink_mask
from .kkt import lambda_max
from .selection import check_grid, default_grid, select

RNG_IDENTITY = "numpy PCG64, SeedSequence((base_seed, replication))"

NEAR_KINK_WINDOW = 5
NEAR_KINK_SMALL_FRAC = 0.1


@dataclass(frozen=True)
class PiecewiseLinearSpec:
    """Ground-truth generator: k segments joined continuously at interior kinks."""

    n: int
    r: tuple[float, ...]          # kink fractions, strictly increasing, in (0,1)
    b: tuple[float, ...]          # one slope per segment, len(r) + 1
    a1: float = 0.0
    time_scale: str = "normalized"  # "normalized": slope * t/n; "raw": slope * t

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if self.n < 5:
            raise ValueError("n must be >= 5")
        if len(self.b) != len(self.r) + 1:
            raise ValueError("need exactly one slope per segment (len(b) = len(r) + 1)")
        if any(not 0.0 < x < 1.0 for x in self.r):
            raise ValueError("kink fractions must lie in (0, 1)")
        if any(y <= x for x, y in zip(self.r, self.r[1:])):
            raise ValueError("kink fractions must be strictly increasing")
        kt = self.kink_times()
        if any(y <= x for x, y in zip(kt, kt[1:])) or (kt and (kt[0] < 2 or kt[-1] > self.n - 1)):
            raise ValueError(f"kink times {kt} must be strictly increasing and interior")
        if self.time_scale not in ("normalized", "raw"):
            raise ValueError("time_scale must be 'normalized' or 'raw'")

    def kink_times(self) -> tuple[int, ...]:
        # round-half-up; n*r_j is intended to be integral
        return tuple(int(math.floor(self.n * rj + 0.5)) + 1 for rj in self.r)

    def kink_signs(self) -> tuple[int, ...]:
        return tuple(int(np.sign(b2 - b1)) for b1, b2 in zip(self.b, self.b[1:]))

    def min_slope_change(self) -> float:
        """Smallest second difference at a kink (the detectability margin)."""
        scale = self.n if self.time_scale == "normalized" else 1.0
        return min(abs(b2 - b1) for b1, b2 in zip(self.b, self.b[1:])) / scale

    def min_segment_len(self) -> int:
        kt = self.kink_times()
        bounds = (1,) + kt + (self.n + 1,)
        return min(b - a for a, b in zip(bounds, bounds[1:]))

    def true_kinks(self) -> KinkSet:
        times = self.kink_times()
        signs = dict(zip(times, self.kink_signs()))
        return KinkSet(indices=times, signs=signs)


def gen_trend(spec: PiecewiseLinearSpec) -> np.ndarray:
    """Evaluate the trend; continuity at each kink holds exactly by construction."""
    n = spec.n
    kt = spec.kink_times()
    bounds = (1,) + kt + (n + 1,)
    scale = float(n) if spec.time_scale == "normalized" else 1.0
    a = [spec.a1]
    for j in range(1, len(spec.b)):
        a.append(a[j - 1] + (spec.b[j - 1] - spec.b[j]) * (kt[j - 1] / scale))
    t = np.arange(1, n + 1, dtype=float)
    mu = np.empty(n)
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        seg = slice(lo - 1, hi - 1)
        mu[seg] = a[j] + spec.b[j] * (t[seg] / scale)
    return mu


def check_snr(snr: float) -> None:
    """A signal-to-noise ratio is positive, or math.inf; NaN is neither."""
    if not snr > 0:
        raise ValueError("snr must be positive (use math.inf for noiseless)")


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian white noise pinned to a signal-to-noise ratio.

    ``snr = math.inf`` is the noiseless sentinel. The default sigma map is
    mean(|mu0|) / snr; convention "signed_mean" uses sum(mu0) / (n * snr) and
    requires a positive-mean trend.
    """

    snr: float
    seed: object = 0  # int or tuple of ints, fed to SeedSequence
    convention: str = "abs_mean"

    def __post_init__(self):
        check_snr(self.snr)
        if self.convention not in ("abs_mean", "signed_mean"):
            raise ValueError("convention must be 'abs_mean' or 'signed_mean'")

    def sigma(self, mu0: np.ndarray) -> float:
        if math.isinf(self.snr):
            return 0.0
        if self.convention == "abs_mean":
            scale = float(np.mean(np.abs(mu0)))
        else:
            scale = float(np.mean(mu0))
            if scale <= 0:
                raise ValueError("signed_mean convention needs a positive-mean trend")
        if scale == 0.0:
            raise ValueError("zero trend cannot carry a finite signal-to-noise ratio")
        return scale / self.snr


def add_noise(mu0: np.ndarray, noise: NoiseSpec) -> TimeSeries:
    """mu0 plus seeded Gaussian noise; bitwise reproducible for a given seed."""
    mu0 = np.asarray(mu0, dtype=float)
    sigma = noise.sigma(mu0)
    if sigma == 0.0:
        return TimeSeries(mu0.copy())
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(noise.seed)))
    return TimeSeries(mu0 + rng.normal(0.0, sigma, mu0.size))


# ---------------------------------------------------------------- metrics

def relative_error(mu_hat, mu0) -> float:
    """sum (mu_hat - mu0)^2 / sum mu_hat^2."""
    mu_hat = np.asarray(mu_hat, dtype=float)
    mu0 = np.asarray(mu0, dtype=float)
    denom = float(mu_hat @ mu_hat)
    if denom == 0.0:
        raise ValueError("relative error undefined for an identically zero estimate")
    d = mu_hat - mu0
    return float(d @ d) / denom


def hausdorff(a, b, n: int | None = None) -> tuple[float, float, float]:
    """Directed deviations and their max for two finite index sets.

    e_ab = sup_{j in b} dist(j, a), e_ba = sup_{i in a} dist(i, b),
    hd = max(e_ab, e_ba). Both sets empty gives zeros; exactly one empty uses
    the maximal penalty n (which must then be supplied).
    """
    A = sorted(a)
    B = sorted(b)
    if not A and not B:
        return 0.0, 0.0, 0.0
    if not A or not B:
        if n is None:
            raise ValueError("one set is empty: supply n for the maximal-penalty convention")
        return float(n), float(n), float(n)
    av = np.array(A, dtype=float)
    bv = np.array(B, dtype=float)
    dist = np.abs(av[:, None] - bv[None, :])
    e_ab = float(np.max(np.min(dist, axis=0)))  # worst b, nearest a
    e_ba = float(np.max(np.min(dist, axis=1)))  # worst a, nearest b
    return e_ab, e_ba, max(e_ab, e_ba)


def detection_consistent(fit_kinks: KinkSet, true_kinks: KinkSet) -> bool:
    """Location recovery only: the index sets are equal."""
    return fit_kinks.indices == true_kinks.indices


def sign_consistency(fit_kinks: KinkSet, true_kinks: KinkSet) -> bool:
    """Locations and slope-change directions both recovered."""
    return (
        fit_kinks.indices == true_kinks.indices
        and all(fit_kinks.signs[i] == true_kinks.signs[i] for i in fit_kinks.indices)
    )


def near_kink_small_count(fit: TrendFit, true_kinks: KinkSet, window: int = NEAR_KINK_WINDOW,
                          small_frac: float = NEAR_KINK_SMALL_FRAC,
                          tol_kink: float = KINK_TOL) -> int:
    """Detected slope changes near true kinks that are individually small.

    Counts times within ``window`` of a true kink whose fitted slope change
    is a kink by ``kink_mask`` yet stays at or below ``small_frac`` of the
    largest fitted slope change: the smeared-out halo the lasso route leaves
    around kink points, which the pathwise route does not.
    """
    beta, detected = kink_mask(fit.mu_hat, tol_kink)
    size = np.abs(beta)
    times = np.flatnonzero(detected & (size <= small_frac * float(np.max(size)))) + 2
    near = np.abs(times[:, None] - np.asarray(true_kinks.indices, dtype=int)) <= window
    return int(np.count_nonzero(near.any(axis=1)))


# ---------------------------------------------------------------- experiments

@dataclass(frozen=True)
class ExperimentConfig:
    example: str                   # label echoed in outputs ("example1", "example2", "custom")
    spec: PiecewiseLinearSpec
    snr: float
    replications: int
    criterion: str = "mc"          # "sic" | "mc"
    solver: str = "pathwise"       # "pathwise" | "lasso"
    grid_size: int = 60
    grid_min_rel: float = 1e-4
    base_seed: int = 20240901
    tol_kink: float = KINK_TOL
    snr_convention: str = "abs_mean"

    def __post_init__(self):
        check_snr(self.snr)  # before any replication draws its noise
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.criterion.lower() not in ("sic", "mc"):
            raise ValueError("criterion must be 'sic' or 'mc'")
        if self.solver not in ("pathwise", "lasso"):
            raise ValueError("solver must be 'pathwise' or 'lasso'")
        check_grid(self.grid_size, self.grid_min_rel)
        if not 0 <= self.tol_kink < math.inf:
            raise ValueError("tol_kink must be finite and >= 0")


def example1(n: int = 500, **kw) -> PiecewiseLinearSpec:
    return PiecewiseLinearSpec(n=n, r=(0.3, 0.7), b=(-30.0, 0.0, 30.0), **kw)


def example2(n: int = 1000, **kw) -> PiecewiseLinearSpec:
    return PiecewiseLinearSpec(n=n, r=(0.2, 0.4, 0.6, 0.8), b=(-6.0, 40.0, -5.0, 35.0, -3.0), **kw)


PRESETS = {"example1": example1, "example2": example2}


def noise_label(snr: float) -> str:
    if math.isinf(snr):
        return "none"
    return {1e4: "low", 400.0: "medium", 25.0: "high"}.get(float(snr), f"snr={snr:g}")


@dataclass(frozen=True)
class MetricsRow:
    rep: int
    lam: float
    re: float
    e_ab: float                    # E(fitted || true) / n
    e_ba: float                    # E(true || fitted) / n
    hd: float
    j_count: int
    sign_consistent: bool
    detection_consistent: bool
    near_kink_small: int
    converged: bool


def _fit_path_for(config: ExperimentConfig, y: TimeSeries):
    lmax = lambda_max(y)
    grid = default_grid(lmax, size=config.grid_size, min_rel=config.grid_min_rel)
    if config.solver == "pathwise":
        return pathwise.fit_path(y, grid)
    # benchmark lasso route: the practical fixed-budget ascent (see lasso.budget_path);
    # its smeared coefficients around kinks are exactly what the route contrast measures
    return lasso.budget_path(y, grid)


def run_replication(config: ExperimentConfig, rep: int) -> MetricsRow:
    """Generate, fit the path, select, and measure one replication."""
    mu0 = gen_trend(config.spec)
    noise = NoiseSpec(snr=config.snr, seed=(config.base_seed, rep),
                      convention=config.snr_convention)
    y = add_noise(mu0, noise)
    path = _fit_path_for(config, y)
    lam_opt, fit, _scores = select(path, y, criterion=config.criterion, tol_kink=config.tol_kink)
    truth = config.spec.true_kinks()
    found = extract_kinks(fit, config.tol_kink)
    e_ab, e_ba, hd = hausdorff(found.indices, truth.indices, n=config.spec.n)
    n = config.spec.n
    return MetricsRow(
        rep=rep,
        lam=lam_opt,
        re=relative_error(fit.mu_hat, mu0),
        e_ab=e_ab / n,
        e_ba=e_ba / n,
        hd=hd / n,
        j_count=len(found),
        sign_consistent=sign_consistency(found, truth),
        detection_consistent=detection_consistent(found, truth),
        # the halo counts coefficients that are nonzero beyond solver precision;
        # it keeps the numerical-zero threshold even when kink COUNTING uses a
        # coarser reporting threshold
        near_kink_small=near_kink_small_count(fit, truth, tol_kink=KINK_TOL),
        converged=fit.converged,
    )


def _mean_sd(values) -> tuple[float, float]:
    v = np.asarray(list(values), dtype=float)
    if v.size == 0:
        return float("nan"), float("nan")
    if v.size == 1:
        return float(v[0]), 0.0
    return float(v.mean()), float(v.std(ddof=1))


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[MetricsRow, ...]   # every replication, in replication order
    flagged: int                   # non-converged replications (excluded from aggregates)
    aggregate: dict = field(default_factory=dict)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """All replications, aggregated. Output is independent of ``workers``:
    replications are seeded individually and aggregated in replication order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    reps = list(range(config.replications))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_replication, [config] * len(reps), reps))
    else:
        rows = [run_replication(config, r) for r in reps]
    rows.sort(key=lambda m: m.rep)
    used = [m for m in rows if m.converged]
    flagged = len(rows) - len(used)
    agg: dict[str, float] = {}
    for name in ("re", "e_ab", "e_ba", "hd", "j_count", "near_kink_small"):
        mean, sd = _mean_sd(getattr(m, name) for m in used)
        agg[f"{name}_mean"] = mean
        agg[f"{name}_sd"] = sd
    agg["sn_freq"] = float(np.mean([m.sign_consistent for m in used])) if used else float("nan")
    agg["s1n_freq"] = float(np.mean([m.detection_consistent for m in used])) if used else float("nan")
    return ExperimentResult(config=config, rows=tuple(rows), flagged=flagged, aggregate=agg)
