"""Tuning-parameter selection: SIC and MC criteria over a fitted lambda path.

Both score a fit through its residual sum of squares and its kink count k:

    sic = log(rss / n) + (k + 2) * log(n) / n
    mc  = log(rss / n) + k * (k + 1) * log(n) / n

The +2 in the SIC degrees of freedom is the affine part of the fit. An exact
interpolation (rss = 0, the lam = 0 endpoint of every default grid) has no
finite score: it scores -inf and is left out of selection, silently, since
every path over a default grid has one. A path with no other entry raises
``NoSelectableModelError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import KINK_TOL, LambdaPath, TrendFit, as_array, kink_mask
from .core import extract_kinks  # noqa: F401  bench/spans.py patches selection.extract_kinks


class NoSelectableModelError(ValueError):
    pass


@dataclass(frozen=True)
class SelectionScore:
    lam: float
    rss: float
    k_hat: int
    sic: float
    mc: float


def score(y, fit: TrendFit, tol_kink: float = KINK_TOL) -> SelectionScore:
    yv = as_array(y)
    resid = yv - fit.mu_hat
    k = int(np.count_nonzero(kink_mask(fit.mu_hat, tol_kink)[1]))
    return score_of(fit.lam, float(resid @ resid), k, len(yv))


def score_of(lam: float, rss: float, k: int, n: int) -> SelectionScore:
    """The scores of a fit at lam with k kinks and residual sum of squares rss on n points."""
    if rss <= 0.0:
        return SelectionScore(lam, rss, k, float("-inf"), float("-inf"))
    logn = math.log(n)
    base = math.log(rss / n)
    return SelectionScore(lam, rss, k, base + (k + 2) * logn / n, base + k * (k + 1) * logn / n)


def select(path: LambdaPath, y, criterion: str = "mc",
           tol_kink: float = KINK_TOL) -> tuple[float, TrendFit, list[SelectionScore]]:
    """Entry minimizing the chosen criterion; ties go to the larger lambda.

    Returns (lambda_opt, fit, all scores). An entry's stored score is reused
    when tol_kink is ``KINK_TOL`` and y is the very array the path was
    certified on; otherwise the entry is scored here. Raises if no entry has
    a finite score (e.g. a single-entry path that interpolates).
    """
    crit = criterion.lower()
    if crit not in ("sic", "mc"):
        raise ValueError(f"criterion must be 'sic' or 'mc', got {criterion!r}")
    yv = as_array(y)
    stored = tol_kink == KINK_TOL and yv is path.y
    scores = [e.score if stored and e.score is not None else score(yv, e.fit, tol_kink)
              for e in path.entries]
    best = None
    best_val = math.inf
    for e, s in zip(path.entries, scores):
        v = s.sic if crit == "sic" else s.mc
        if math.isfinite(v) and v <= best_val:  # <= so later (larger) lambda wins ties
            best = e
            best_val = v
    if best is None:
        raise NoSelectableModelError("no path entry has a finite selection score")
    return best.lam, best.fit, scores


def check_grid(size: int, min_rel: float) -> None:
    """Raise ValueError, naming the parameter, unless size >= 1 and 0 < min_rel <= 1."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if not 0 < min_rel <= 1:
        raise ValueError("min_rel must be finite and in (0, 1]")


def default_grid(lam_max: float, size: int = 60, min_rel: float = 1e-4) -> list[float]:
    """0, then a log-spaced grid from lam_max * min_rel to lam_max ([0.0] for
    lam_max <= 0). Needs check_grid(size, min_rel) to pass and a finite lam_max."""
    check_grid(size, min_rel)
    if not math.isfinite(lam_max):
        raise ValueError("lam_max must be finite")
    if lam_max <= 0:
        return [0.0]
    if size == 1:
        grid = [lam_max]
    else:
        ratio = (1.0 / min_rel) ** (1.0 / (size - 1))
        grid = [lam_max * min_rel * ratio ** i for i in range(size - 1)] + [lam_max]
    return [0.0] + grid
