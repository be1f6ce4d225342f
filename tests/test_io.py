import csv
import io as _io

import numpy as np
import pytest

from trendfilter import __version__, io
from trendfilter.core import TimeSeries, TrendFit, extract_kinks
from trendfilter.simulate import ExperimentConfig, ExperimentResult, example2


def _reference_fit_csv(y, fit, kinks, args_echo):
    """The fit table written a row at a time, each float formatted on its own."""
    buf = _io.StringIO()
    buf.write(f"# generator=trendfilter {__version__}\r\n# args={args_echo}\r\n")
    w = csv.writer(buf)
    w.writerow(["t", "y", "mu_hat", "nu_hat", "beta"])
    for i in range(y.n):
        beta = format(float(fit.beta_tail[i - 2]), ".12g") if i >= 2 else ""
        w.writerow([i + 1, format(float(y.y[i]), ".12g"), format(float(fit.mu_hat[i]), ".12g"),
                    format(float(fit.nu_hat[i]), ".12g"), beta])
    w.writerow([])
    w.writerow(["kink_time", "sign", "magnitude"])
    for t in kinks.indices:
        w.writerow([t, kinks.signs[t], format(float(abs(fit.beta_tail[t - 2])), ".12g")])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", ["signed-zero", "subnormal", "huge", "integer-valued", "affine"])
def test_fit_csv_matches_the_row_writer(tmp_path, case):
    if case == "signed-zero":
        y = np.array([-0.0, 0.0, -0.0, 1.0, -0.0, 2.0])
        mu = np.array([-0.0, -0.0, 0.0, 0.5, -0.0, -0.0])
    elif case == "subnormal":
        y = np.array([5e-324, 0.0, 1e-310, -2.5e-320, 3.0, 1e-300])
        mu = np.array([5e-324, -5e-324, 1e-310, 0.0, 2.2250738585072014e-308, 1.0])
    elif case == "huge":
        y = np.array([1e300, -1e300, 1.7e300, 0.0, 1e-300, 3.5e299])
        mu = y.copy()  # a zero residual keeps the objective finite
    elif case == "integer-valued":
        y = np.array([1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 2.0**60])
        mu = np.array([1.0, 3.0, 7.0, 15.0, 25.0, 35.0, 2.0**60])
    else:
        y = np.array([0.1, 0.25, 0.2, 0.45, 0.5, 0.55])
        mu = 0.1 * np.arange(1.0, 7.0)  # no kinks
    series = TimeSeries(y)
    fit = TrendFit.from_mu(y, mu, 0.5)
    kinks = extract_kinks(fit)
    assert (len(kinks) == 0) == (case == "affine")
    path = tmp_path / "fit.csv"
    io.write_fit_csv(path, series, fit, kinks, args_echo="fit --lambda 0.5")
    assert path.read_bytes() == _reference_fit_csv(series, fit, kinks, "fit --lambda 0.5")


def test_fmt_prints_special_floats():
    cells = [io._fmt(x) for x in (float("nan"), float("inf"), float("-inf"), -0.0, True, 3)]
    assert cells == ["nan", "inf", "-inf", "-0", "1", "3"]


def test_experiment_csv_row_follows_the_header(tmp_path):
    """The aggregate cells are the header's names, in its order."""
    names = ["re_mean", "re_sd", "j_count_mean", "j_count_sd",
             "e_ab_mean", "e_ab_sd", "e_ba_mean", "e_ba_sd", "hd_mean", "hd_sd",
             "sn_freq", "s1n_freq", "near_kink_small_mean", "near_kink_small_sd"]
    agg = {name: 0.1 * (i + 1) / 3 for i, name in enumerate(names)}
    agg["hd_sd"] = float("nan")
    config = ExperimentConfig(example="example2", spec=example2(n=60), snr=400.0,
                              replications=3, criterion="MC", solver="lasso")
    path = tmp_path / "experiment.csv"
    io.write_experiment_csv(path, ExperimentResult(config, (), 1, agg), args_echo="simulate")
    want = (f"# generator=trendfilter {__version__}\r\n# args=simulate\r\n"
            + ",".join(io.EXPERIMENT_COLUMNS) + "\r\n"
            + ",".join(["example2", "60", "medium", "mc", "lasso", "3", "1"]
                       + [format(agg[name], ".12g") for name in names]) + "\r\n")
    assert path.read_bytes() == want.encode("utf-8")
