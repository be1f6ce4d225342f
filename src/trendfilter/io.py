"""CSV interchange: series input, fit/score/experiment output.

A CSV input is read whole and split into rows once. Text is split into lines
with ``str.splitlines`` and each line at its commas, which gives the rows
``csv.reader`` gives unless the text holds a ``"`` or a line break other than
``\r\n``, ``\r`` and ``\n``; such text goes through ``csv.reader``, the one
reader of quoted cells. A cell holds at most ``csv.field_size_limit()``
(131072) characters, quoted or not. Numbers take ``float()`` syntax and are
converted in one numpy call; a cell at a time only to name the line of a bad
one. Errors name the file and the line (the row's number: a quoted cell may
span lines).

Series input (``read_series``): blank rows, and rows whose first non-blank
cell starts with ``#``, are skipped; the first other row is a header when its
value is not a number; a row has 1 or 2 non-blank cells, of which the last is
the value, and every value is finite. Fit input (``read_fit_mu``): the
``mu_hat`` column of a fit CSV's first section, which ends at its first blank
row; ``#`` rows are skipped and every cell must be a finite number.

All output is RFC-4180-style CSV, UTF-8, decimal point, preceded by
``#``-prefixed metadata lines (tool version and argument echo) so every
artifact is self-describing. Floats are written to 12 significant digits
(``.12g``) for byte-stable reruns.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import stat
from dataclasses import asdict
from itertools import compress, repeat
from operator import itemgetter

import numpy as np

from . import __version__
from .core import KinkSet, TimeSeries, TrendFit
from .design import InvalidDimensionError
from .selection import SelectionScore
from .simulate import RNG_IDENTITY, ExperimentResult, noise_label

# text holding one of these goes through csv.reader: a quote, or a line break
# of str.splitlines at which csv.reader does not end a row
_CSV_READER_ONLY = '"\v\f\x1c\x1d\x1e\x85\u2028\u2029'


class CsvParseError(ValueError):
    def __init__(self, message: str, line: int, path):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _rows(path) -> list[list[str]]:
    """The file's rows as ``csv.reader`` reads them, an empty row as ``[""]``;
    a cell over the csv module's field size limit is an error."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not any(c in text for c in _CSV_READER_ONLY):
        lines = text.splitlines()
        limit = csv.field_size_limit()
        if len(text) > limit and max(map(len, lines)) > limit:
            for i, line in enumerate(lines):
                if max(map(len, line.split(","))) > limit:
                    raise CsvParseError(f"field larger than field limit ({limit})", i + 1, path)
        return list(map(str.split, lines, repeat(",")))
    rows = []
    try:
        for row in csv.reader(_io.StringIO(text, newline="")):
            rows.append(row or [""])
    except csv.Error as e:  # a cell over the csv module's field size limit
        raise CsvParseError(str(e), len(rows) + 1, path) from None
    return rows


def _where(items: list, value) -> list[int]:
    """Indices of ``value`` in ``items``, found by list.index between hits."""
    out, i = [], -1
    try:
        while True:
            i = items.index(value, i + 1)
            out.append(i)
    except ValueError:
        return out


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def read_series(path) -> TimeSeries:
    """Parse a one- or two-column CSV into a TimeSeries."""
    rows = _rows(path)
    firsts = list(map(str.strip, map(itemgetter(0), rows)))
    lasts = list(map(str.strip, map(itemgetter(-1), rows)))
    # a row of one or two cells, its first and last non-blank, that is no
    # comment is a data row whose value is its last cell; any other row is
    # read a cell at a time
    odd = {*_where(firsts, ""), *_where(lasts, ""),
           *_where(list(map(itemgetter(slice(0, 1)), firsts)), "#"),
           *(i for i, width in enumerate(map(len, rows)) if width > 2)}
    values, lines, wide = lasts, None, None
    if odd:
        values, keep = lasts.copy(), [True] * len(rows)
        for i in sorted(odd):
            cells = [c.strip() for c in rows[i] if c.strip() != ""]
            if not cells or cells[0].startswith("#"):
                keep[i] = False
            elif len(cells) > 2:
                wide = (i + 1, len(cells))  # rows after it are never read
                del keep[i:], values[i:]
                break
            else:
                values[i] = cells[-1]
        lines = list(compress(range(1, len(keep) + 1), keep))
        values = list(compress(values, keep))
    # the first row is a header when its value is not a number
    skip = 1 if values and not _is_number(values[0]) else 0
    try:
        y = np.array(values[skip:], dtype=float)
    except ValueError:
        k = next(k for k in range(skip, len(values)) if not _is_number(values[k]))
        raise CsvParseError(f"not a number: {values[k]!r}", lines[k] if lines else k + 1,
                            path) from None
    if wide is not None:
        raise CsvParseError(f"expected 1 or 2 columns, got {wide[1]}", wide[0], path)
    if not y.size:
        raise CsvParseError("no numeric rows found", 1, path)
    try:
        return TimeSeries(y)
    except InvalidDimensionError:
        raise
    except ValueError:  # a non-finite value: name its line, as read_fit_mu does
        k = skip + int(np.argmin(np.isfinite(y)))
        raise CsvParseError(f"value must be finite, got {values[k]!r}",
                            lines[k] if lines else k + 1, path) from None


def read_fit_mu(path) -> np.ndarray:
    """mu_hat column of a fit CSV (first section only), every cell finite."""
    rows = _rows(path)
    blank = list(map(str.strip, map("".join, rows)))  # "" for a row of blank cells
    h = 0
    while h < len(rows) and (blank[h] == "" or rows[h][0].startswith("#")):
        h += 1
    if h == len(rows) or "mu_hat" not in rows[h]:
        raise CsvParseError("not a fit CSV (no header with a mu_hat column)", h + 1, path)
    col = rows[h].index("mu_hat")
    try:
        end = blank.index("", h + 1)
    except ValueError:
        end = len(rows)
    data, lines = rows[h + 1:end], range(h + 2, end + 1)
    comments = _where(list(map(itemgetter(slice(0, 1)), map(itemgetter(0), data))), "#")
    if comments:
        keep = [True] * len(data)
        for i in comments:
            keep[i] = False
        data, lines = list(compress(data, keep)), list(compress(lines, keep))
    try:
        mu = np.array(list(map(itemgetter(col), data)), dtype=float)
        finite = bool(np.isfinite(mu).all())
    except (IndexError, ValueError):
        finite = False
    if not finite:
        for row, line in zip(data, lines):
            if col >= len(row):
                raise CsvParseError(f"{len(row)} cells, no mu_hat (cell {col + 1})", line, path)
            if not _is_number(row[col]):
                raise CsvParseError(f"not a number: {row[col]!r}", line, path)
            if not math.isfinite(float(row[col])):
                raise CsvParseError(f"mu_hat must be finite, got {row[col]!r}", line, path)
    if not mu.size:
        raise CsvParseError("no fit rows", h + 2, path)
    return mu


def _metadata_lines(args_echo: str) -> list[str]:
    return [f"# generator=trendfilter {__version__}", f"# args={args_echo}"]


def write_fit_csv(path, y: TimeSeries, fit: TrendFit, kinks: KinkSet, args_echo: str = "") -> None:
    """Fit table (t, y, mu_hat, nu_hat, beta; beta blank for t <= 2) followed by
    a blank line and a kink-report section (time, sign, magnitude)."""
    t = np.arange(1.0, y.n + 1)
    mu, nu, beta = fit.mu_hat, fit.nu_hat, fit.beta_tail
    first = np.column_stack((t[:2], y.y[:2], mu[:2], nu[:2])).ravel().tolist()
    rest = np.column_stack((t[2:], y.y[2:], mu[2:], nu[2:], beta)).ravel().tolist()
    # one %-format call per table; %.12g formats as format(x, ".12g") does
    table = ("%d,%.12g,%.12g,%.12g,\r\n" * 2 + "%d,%.12g,%.12g,%.12g,%.12g\r\n" * (y.n - 2)) % (
        *first, *rest)
    kink_rows = [(k, kinks.signs[k], abs(float(beta[k - 2]))) for k in kinks.indices]
    kink_table = ("%d,%d,%.12g\r\n" * len(kink_rows)) % tuple(v for row in kink_rows for v in row)
    _write_text(path, "".join(line + "\r\n" for line in _metadata_lines(args_echo))
                + "t,y,mu_hat,nu_hat,beta\r\n" + table
                + "\r\nkink_time,sign,magnitude\r\n" + kink_table)


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
