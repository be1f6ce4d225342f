"""Seeded input generation for the benchmark workloads.

Every series is a function of the seed it is given, so two runs with the
same workload seed see the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from trendfilter import simulate

from checks import lambda_max_of

SNR_LEVELS = (1e4, 400.0, 25.0)  # the paper's low, medium and high noise

# A custom shape with eight kinks of both signs: many more fused runs than the
# two presets, which is what drives the route costs up.
CUSTOM_R = tuple(k / 9 for k in range(1, 9))
CUSTOM_B = (-20.0, 15.0, -10.0, 25.0, -15.0, 10.0, -25.0, 20.0, -5.0)


def shape_spec(shape: str, n: int) -> simulate.PiecewiseLinearSpec:
    if shape == "custom":
        return simulate.PiecewiseLinearSpec(n=n, r=CUSTOM_R, b=CUSTOM_B)
    return simulate.PRESETS[shape](n=n)


def noisy_series(shape: str, n: int, snr: float, seed) -> np.ndarray:
    mu0 = simulate.gen_trend(shape_spec(shape, n))
    return simulate.add_noise(mu0, simulate.NoiseSpec(snr=snr, seed=seed)).y


@dataclass(frozen=True)
class ShortSeries:
    """One planted short-cli input: y, the penalty and the known minimiser."""

    name: str
    y: np.ndarray
    lam: float
    lam_rel: float | None  # set when the fit passes the penalty as --lambda-rel
    mu_star: np.ndarray


def _kink_times(rng, n: int, k: int) -> list[int]:
    """k distinct 1-based interior kink times at least 5 apart, in 3..n-2."""
    while True:
        t = sorted(int(v) for v in rng.choice(np.arange(3, n - 1), size=k, replace=False))
        if all(b - a >= 5 for a, b in zip(t, t[1:])):
            return t


def _trend(rng, n: int, kinks: list[int]) -> tuple[np.ndarray, list[int]]:
    """Continuous piecewise-linear trend with a slope change at each kink time."""
    t = np.arange(1.0, n + 1)
    mu = rng.uniform(-10.0, 10.0) + rng.uniform(-0.1, 0.1) * t
    signs = []
    for tau in kinks:
        s = 1 if rng.random() < 0.5 else -1
        mu = mu + s * rng.uniform(0.02, 0.2) * np.maximum(t - tau, 0.0)
        signs.append(s)
    return mu, signs


def planted_dual(rng, n: int, kinks: list[int], signs: list[int]) -> np.ndarray:
    """A dual vector g (length n-2) with g = sign at the kinks, |g| < 1 elsewhere.

    Entry k of g pairs with the second difference centred at time k + 2.
    """
    knots_x = [0] + [tau - 2 for tau in kinks] + [n - 3]
    knots_y = [0.0] + [float(s) for s in signs] + [0.0]
    base = np.interp(np.arange(n - 2), knots_x, knots_y)
    g = np.clip(0.9 * base + 0.08 * rng.uniform(-1.0, 1.0, n - 2), -0.98, 0.98)
    for tau, s in zip(kinks, signs):
        g[tau - 2] = s
    return g


def dual_adjoint(g: np.ndarray) -> np.ndarray:
    """D'g: the adjoint second difference, length len(g) + 2."""
    return np.diff(np.concatenate(([0.0, 0.0], g, [0.0, 0.0])), 2)


# Sizes grow geometrically from 50 to 400, so most calls are short ones, where
# fixed per-call costs weigh most.
CLI_SIZES = (50, 60, 72, 86, 104, 124, 149, 179, 215, 258, 310, 372)


PLANTED_LAMS = (0.5, 1.6, 5.0)


def short_round(seed: int, r: int) -> list[ShortSeries]:
    """Round ``r`` of the short-cli workload: one planted series per size in
    CLI_SIZES. Slot i has i % 5 kinks and penalty PLANTED_LAMS[i % 3]; the
    seed draws kink times, slopes, signs and the dual vector.

    y = mu* + lam * D'g with mu* piecewise linear and g a dual certificate for
    it, so mu* is the unique minimiser at lam. Every other series passes its
    penalty as a share of lambda_max(y) instead of as a value.
    """
    rng = np.random.default_rng([seed, 2, r])
    out = []
    for i, n in enumerate(CLI_SIZES):
        kinks = _kink_times(rng, n, i % 5)
        mu, signs = _trend(rng, n, kinks)
        lam = PLANTED_LAMS[i % 3]
        y = mu + lam * dual_adjoint(planted_dual(rng, n, kinks, signs))
        rel = lam / lambda_max_of(y) if (i + r) % 2 else None
        out.append(ShortSeries(f"r{r:03d}n{n:03d}", y, lam, rel, mu))
    return out
