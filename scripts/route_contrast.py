#!/usr/bin/env python3
"""Emit the fitted slope vectors of the two solver routes for one simulated
series, as CSV for external plotting.

The pathwise route gives piecewise-constant slopes with abrupt changes; the
budgeted lasso route changes gradually around the true kink points. Columns:
t, y, slope_true, slope_pathwise, slope_lasso_budget.
"""

import argparse
import csv
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from trendfilter import lasso, pathwise
from trendfilter.kkt import lambda_max
from trendfilter.selection import default_grid, select
from trendfilter.simulate import NoiseSpec, add_noise, example2, gen_trend


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--snr", type=float, default=400.0)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--output", default="route_contrast.csv")
    args = ap.parse_args()

    spec = example2(n=args.n)
    mu0 = gen_trend(spec)
    y = add_noise(mu0, NoiseSpec(snr=args.snr, seed=args.seed))
    grid = default_grid(lambda_max(y))
    _, fit_p, _ = select(pathwise.fit_path(y, grid), y, "mc")
    _, fit_l, _ = select(lasso.budget_path(y, grid), y, "mc")

    nu0 = np.concatenate([[mu0[0]], np.diff(mu0)])
    nu_p, nu_l = fit_p.nu_hat, fit_l.nu_hat  # each read derives the view anew
    with open(args.output, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "y", "slope_true", "slope_pathwise", "slope_lasso_budget"])
        for t in range(args.n):
            w.writerow([t + 1, f"{y.y[t]:.10g}", f"{nu0[t]:.10g}",
                        f"{nu_p[t]:.10g}", f"{nu_l[t]:.10g}"])
    print(f"true kinks {spec.kink_times()} -> {args.output}")


if __name__ == "__main__":
    main()
