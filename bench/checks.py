"""Output checks made apart from the program.

Nothing here imports ``trendfilter``: each test is a few lines of numpy that
restate what a minimiser of

    0.5 * ||y - mu||^2 + lam * sum_t |mu_t - 2 mu_{t-1} + mu_{t-2}|

must satisfy, so a fault shared by the program's own certificate and its
solvers cannot hide from them.
"""

from __future__ import annotations

import csv
import math

import numpy as np

KKT_TOL = 1e-6        # subgradient slack, sign slack and affine-defect scale
KINK_REL = 1e-8       # |second difference| above KINK_REL * max(1, max|mu|) is a kink
AGREE_TOL = 1e-6      # route agreement, scaled by 1 + max|y|
PLANTED_TOL = 1e-8    # planted-solution match, scaled by 1 + max|y|
EXACT_TOL = 1e-9      # lambda = 0 entry against y, scaled by 1 + max|y|
LINE_TOL = 1e-8       # lambda_max entry against the least-squares line, scaled by 1 + max|y|


def scale_of(y) -> float:
    return 1.0 + float(np.max(np.abs(y)))


def kinks_of(mu) -> np.ndarray:
    """Boolean mask over the n-2 second differences of mu that count as kinks."""
    mu = np.asarray(mu, dtype=float)
    b = np.diff(mu, 2)
    return np.abs(b) > KINK_REL * max(1.0, float(np.max(np.abs(mu))))


def kkt_ok(y, mu, lam: float, tol: float = KKT_TOL) -> bool:
    """Stationarity test of mu at penalty lam.

    The double cumulative sum of the residual gives lam * g on its first n-2
    entries. Then |g| <= 1 off the kinks, g = sign of the slope change at the
    kinks, and the residual left after removing lam * D'g (its affine part)
    is zero, each to ``tol``.
    """
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if y.shape != mu.shape or y.ndim != 1 or y.size < 3:
        return False
    r = y - mu
    if lam == 0.0:
        return float(np.max(np.abs(r))) <= tol * scale_of(y)
    g = np.cumsum(np.cumsum(r))[:-2] / lam
    dtg = np.diff(np.concatenate(([0.0, 0.0], g, [0.0, 0.0])), 2)
    defect = float(np.max(np.abs(r - lam * dtg)))
    act = kinks_of(mu)
    signs = np.sign(np.diff(mu, 2)[act])
    inactive_ok = not (~act).any() or float(np.max(np.abs(g[~act]))) <= 1.0 + tol
    active_ok = not act.any() or float(np.max(np.abs(g[act] - signs))) <= tol
    return inactive_ok and active_ok and defect <= tol * scale_of(y)


def lambda_max_of(y) -> float:
    """Smallest penalty at which the least-squares line is the minimiser."""
    y = np.asarray(y, dtype=float)
    t = np.arange(1.0, y.size + 1)
    r = y - np.polyval(np.polyfit(t, y, 1), t)
    return float(np.max(np.abs(np.cumsum(np.cumsum(r))[:-2])))


def ls_line(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    t = np.arange(1.0, y.size + 1)
    return np.polyval(np.polyfit(t, y, 1), t)


def close(a, b, tol: float, y) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol * scale_of(y)


def mc_argmin(y, lams, mus) -> float:
    """Lambda minimising MC = log(rss/n) + k(k+1) log(n)/n; ties go to the larger lambda.

    Entries with rss = 0 (exact interpolation) have no finite score and are skipped.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    best, best_val = None, math.inf
    for lam, mu in zip(lams, mus):
        r = y - mu
        rss = float(r @ r)
        if rss <= 0.0:
            continue
        k = int(np.count_nonzero(kinks_of(mu)))
        val = math.log(rss / n) + k * (k + 1) * math.log(n) / n
        if val <= best_val:
            best, best_val = lam, val
    return best


def mean_sd(values) -> tuple[float, float]:
    v = [float(x) for x in values]
    if len(v) == 1:
        return v[0], 0.0
    m = math.fsum(v) / len(v)
    return m, math.sqrt(math.fsum((x - m) ** 2 for x in v) / (len(v) - 1))


def read_fit_csv(path) -> np.ndarray:
    """mu_hat column of the fit table a ``trendfilter fit`` call writes."""
    mu = []
    col = None
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                if col is not None and not row:
                    break
                continue
            if col is None:
                col = row.index("mu_hat")
                continue
            mu.append(float(row[col]))
    return np.array(mu)


def perturb_fit_csv(src, dst, index: int, delta: float) -> None:
    """Copy a fit CSV, adding ``delta`` to mu_hat at data row ``index``."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    col = None
    k = 0
    for row in rows:
        if not row or row[0].startswith("#"):
            if col is not None and not row:
                break
            continue
        if col is None:
            col = row.index("mu_hat")
            continue
        if k == index:
            row[col] = repr(float(row[col]) + delta)
            break
        k += 1
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
