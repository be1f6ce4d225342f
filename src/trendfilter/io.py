"""CSV interchange: series input, fit/score/experiment output.

Series input is one numeric column, or two columns (index, value) of which the
second is used; blank and ``#`` lines are skipped, and a non-numeric first row
after them is a header. All output is RFC-4180-style CSV, UTF-8, decimal point,
preceded by ``#``-prefixed metadata lines (tool version and argument echo) so
every artifact is self-describing.
Floats are written to 12 significant digits (``.12g``) for byte-stable reruns.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import stat
from dataclasses import asdict

from . import __version__
from .core import KinkSet, TimeSeries, TrendFit
from .selection import SelectionScore
from .simulate import RNG_IDENTITY, ExperimentResult, noise_label


class SeriesParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def read_series(path) -> TimeSeries:
    """Parse a one- or two-column CSV into a TimeSeries."""
    values, rows = [], 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells or cells[0].startswith("#"):
                continue
            if len(cells) > 2:
                raise SeriesParseError(f"expected 1 or 2 columns, got {len(cells)}", lineno)
            cell = cells[-1]
            rows += 1
            try:
                values.append(float(cell))
            except ValueError:
                if rows == 1:
                    continue  # header row: the first one that is neither blank nor a comment
                raise SeriesParseError(f"not a number: {cell!r}", lineno) from None
    if not values:
        raise SeriesParseError("no numeric rows found", 1)
    return TimeSeries(values)  # type: ignore[arg-type]


def _metadata_lines(args_echo: str) -> list[str]:
    return [f"# generator=trendfilter {__version__}", f"# args={args_echo}"]


def write_fit_csv(path, y: TimeSeries, fit: TrendFit, kinks: KinkSet, args_echo: str = "") -> None:
    """Fit table (t, y, mu_hat, nu_hat, beta; beta blank for t <= 2) followed by
    a blank line and a kink-report section (time, sign, magnitude)."""
    buf = _io.StringIO()
    for line in _metadata_lines(args_echo):
        buf.write(line + "\r\n")
    w = csv.writer(buf)
    w.writerow(["t", "y", "mu_hat", "nu_hat", "beta"])
    y_s, mu_s, nu_s, beta_s = ([format(v, ".12g") for v in a.tolist()]
                               for a in (y.y, fit.mu_hat, fit.nu_hat, fit.beta_tail))
    w.writerows(zip(range(1, y.n + 1), y_s, mu_s, nu_s, ["", ""] + beta_s))
    w.writerow([])
    w.writerow(["kink_time", "sign", "magnitude"])
    beta = fit.beta_tail
    for t in kinks.indices:
        w.writerow([t, kinks.signs[t], _fmt(float(abs(beta[t - 2])))])
    _write_text(path, buf.getvalue())


def write_scores_csv(path, scores: list[SelectionScore], selected: dict, args_echo: str = "") -> None:
    buf = _io.StringIO()
    for line in _metadata_lines(args_echo):
        buf.write(line + "\r\n")
    for key, val in sorted(selected.items()):
        buf.write(f"# selected_{key}={_fmt(val)}\r\n")
    w = csv.writer(buf)
    w.writerow(["lambda", "rss", "k_hat", "sic", "mc"])
    for s in scores:
        w.writerow([_fmt(s.lam), _fmt(s.rss), s.k_hat, _fmt(s.sic), _fmt(s.mc)])
    _write_text(path, buf.getvalue())


def write_kkt_csv(path, report, lam: float, args_echo: str = "") -> None:
    buf = _io.StringIO()
    for line in _metadata_lines(args_echo):
        buf.write(line + "\r\n")
    w = csv.writer(buf)
    w.writerow(["lambda", "max_inactive_ratio", "active_sign_mismatches",
                "stationarity_residual", "passed"])
    w.writerow([_fmt(lam), _fmt(report.max_inactive_ratio), report.active_sign_mismatches,
                _fmt(report.stationarity_residual), _fmt(report.passed)])
    _write_text(path, buf.getvalue())


EXPERIMENT_COLUMNS = [
    "example", "n", "noise", "criterion", "solver", "replications", "flagged",
    "re_mean", "re_sd", "j_count_mean", "j_count_sd",
    "e_ab_mean", "e_ab_sd", "e_ba_mean", "e_ba_sd", "hd_mean", "hd_sd",
    "sn_freq", "s1n_freq", "near_kink_small_mean", "near_kink_small_sd",
]


def write_experiment_csv(path, result: ExperimentResult, args_echo: str = "") -> None:
    """One aggregate row in the benchmark-table shape."""
    cfg = result.config
    agg = result.aggregate
    buf = _io.StringIO()
    for line in _metadata_lines(args_echo):
        buf.write(line + "\r\n")
    w = csv.writer(buf)
    w.writerow(EXPERIMENT_COLUMNS)
    w.writerow([
        cfg.example, cfg.spec.n, noise_label(cfg.snr), cfg.criterion.lower(), cfg.solver,
        cfg.replications, result.flagged,
    ] + [_fmt(agg[name]) for name in EXPERIMENT_COLUMNS[7:]])
    _write_text(path, buf.getvalue())


def write_experiment_metadata(path, result: ExperimentResult, args_echo: str = "") -> None:
    """JSON sidecar: config echo, tool version, RNG identity, per-rep rows."""
    cfg = result.config
    payload = {
        "tool": f"trendfilter {__version__}",
        "args": args_echo,
        "rng": RNG_IDENTITY,
        "config": {
            "example": cfg.example,
            "n": cfg.spec.n,
            "r": list(cfg.spec.r),
            "b": list(cfg.spec.b),
            "a1": cfg.spec.a1,
            "time_scale": cfg.spec.time_scale,
            "true_kinks": list(cfg.spec.kink_times()),
            "true_signs": list(cfg.spec.kink_signs()),
            "snr": "inf" if math.isinf(cfg.snr) else cfg.snr,
            "snr_convention": cfg.snr_convention,
            "replications": cfg.replications,
            "criterion": cfg.criterion,
            "solver": cfg.solver,
            "grid_size": cfg.grid_size,
            "grid_min_rel": cfg.grid_min_rel,
            "base_seed": cfg.base_seed,
            "tol_kink": cfg.tol_kink,
        },
        "flagged": result.flagged,
        "aggregate": {k: (None if isinstance(v, float) and math.isnan(v) else v)
                      for k, v in sorted(result.aggregate.items())},
        "rows": [asdict(m) for m in result.rows],
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n")


def _write_text(path, text: str) -> None:
    # Overwrite in place and cut the tail, rather than open with O_TRUNC: on
    # ext4, truncating a non-empty file to zero and rewriting it makes close()
    # start writeback of the new data, a disk round trip per output file.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()
