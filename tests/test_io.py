import csv
import io as _io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trendfilter import __version__, io
from trendfilter.core import MIN_SERIES_LEN, TimeSeries, TrendFit, extract_kinks
from trendfilter.simulate import ExperimentConfig, ExperimentResult, example2


class _RefError(ValueError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _reference_read_series(path):
    """The series read a csv.reader row at a time, each cell through float();
    a series long enough for a TimeSeries with a non-finite value is an error
    at that value's line."""
    values, lines, rows = [], [], 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            cells = [c.strip() for c in row if c.strip() != ""]
            if not cells or cells[0].startswith("#"):
                continue
            if len(cells) > 2:
                raise _RefError(f"expected 1 or 2 columns, got {len(cells)}", lineno)
            cell = cells[-1]
            rows += 1
            try:
                values.append(float(cell))
            except ValueError:
                if rows == 1:
                    continue  # header row: the first one that is neither blank nor a comment
                raise _RefError(f"not a number: {cell!r}", lineno) from None
            lines.append(lineno)
    if not values:
        raise _RefError("no numeric rows found", 1)
    bad = [line for v, line in zip(values, lines) if not np.isfinite(v)]
    if bad and len(values) >= MIN_SERIES_LEN:
        raise _RefError("value must be finite", bad[0])
    return TimeSeries(values)


def _reference_read_fit_mu(path):
    """The mu_hat column read a csv.reader row at a time, with the row number
    of each value. An error carries the row that raised (None where no row
    did) and, as ``read``, the values and row numbers read before it."""
    mu, lines = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for line, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                if header is not None:
                    break  # end of the fit section
                continue
            if row[0].startswith("#"):
                continue
            if header is None:
                header = row
                if "mu_hat" not in header:
                    raise _RefError("not a fit CSV (no mu_hat column)", line)
                col = header.index("mu_hat")
                continue
            try:
                mu.append(float(row[col]))
            except (IndexError, ValueError) as e:
                err = _RefError(type(e).__name__, line)
                err.read = (np.array(mu), lines)
                raise err from None
            lines.append(line)
    if not mu:
        raise _RefError("no fit rows", None)
    return np.array(mu), lines


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


# ---------------------------------------------------------------- readers

_WORDS = ["value", "t", "y", "mu_hat", "#", "# note", "#1", "abc", "", " ", "\t", "1 2", "0x1",
          "nan", "inf", "-inf", "NaN", "1_0", "١٢", "+.5e3", " 1.5", "1.5 ",
          "1e400", "-0", "5.", "1.5\x0c", "1\x0c2", "3\x1e", "\u2028"]
_numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-99, 10**6).map(str))
# a series' number cells are now and then a non-finite token, so that series
# of 5 or more values holding one reach the reader's non-finite rule
_series_numbers = st.one_of(*[_numbers] * 30, st.sampled_from(
    ["nan", "inf", "-inf", "NaN", "-Infinity", "1e400", " -1e999"]))
_cells = st.one_of(_numbers, _numbers, _numbers, st.sampled_from(_WORDS))
_padded = st.tuples(st.sampled_from(["", "", "", " ", "\t"]), _cells,
                    st.sampled_from(["", "", "", " "])).map("".join)


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def _csv_text(draw, rows):
    """Rows joined by \n, \r\n or \r; with quotes allowed, some cells are
    quoted, and may hold a comma, a quote or a line break."""
    quotes = draw(st.booleans())
    lines = []
    for row in draw(rows):
        if quotes:
            row = [draw(st.sampled_from([c] * 40 + [_quoted(c)] * 17 + [
                _quoted(c + ",1"), _quoted("2\n" + c), _quoted('3"')])) for c in row]
        lines.append(",".join(row) + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


_any_rows = st.lists(st.lists(_padded, max_size=3), max_size=12)
_series_rows = st.tuples(
    st.lists(st.sampled_from([[""], [" "], ["# note"], [" ", "# x"], ["", ""], ["value"],
                              ["t", "value"]]), max_size=3),
    st.lists(st.one_of(*[st.lists(_series_numbers, min_size=1, max_size=2)] * 40,
                       *[st.lists(_series_numbers, min_size=1, max_size=2).flatmap(
                           lambda r: st.sampled_from([r + [""], [" "] + r, r + ["", " "]]))] * 4,
                       st.lists(_padded, max_size=3)), min_size=6, max_size=30),
).map(lambda parts: parts[0] + parts[1])
_fit_rows = st.tuples(
    st.lists(st.sampled_from([["# generator=x"], [""], [" , "], ["#", "mu_hat"]]), max_size=3),
    st.permutations(["t", "y", "mu_hat", "nu_hat", "beta"]).flatmap(
        lambda h: st.sampled_from([h, h, h, h[:2], [" mu_hat"]])),
    st.lists(st.one_of(*[st.lists(_numbers, min_size=5, max_size=5)] * 12,
                       st.lists(_padded, max_size=6),
                       st.sampled_from([[""], ["# x"], [" ", ""]])), max_size=20),
    st.lists(st.lists(_padded, max_size=3), max_size=3),
).map(lambda p: p[0] + [p[1]] + p[2] + [[""]] + p[3])


def _write(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "generated.csv"  # one file, rewritten per example
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=400, deadline=None)
@given(st.one_of(*[_csv_text(_series_rows)] * 3, _csv_text(_any_rows),
                 st.text(alphabet=',"#\r\n \t0123456789.e-+naif_x ', max_size=80)))
@example(text="value\n1\n2\nnan\n4\n5\n")
@example(text="1\n2\n3\n4\n-inf")
@example(text="t,value\n1,1e400\n2,2\n3,3\n4,4\n5,nan\n")
@example(text="1\nnan\n3\n4\n")
def test_read_series_matches_the_row_loop(tmp_path_factory, text):
    """Where the row loop returns a series the bulk reader returns the same
    bits; where it raises at a line, the bulk reader raises at that line."""
    path = _write(tmp_path_factory, text)
    try:
        want = _reference_read_series(path)
    except _RefError as e:
        with pytest.raises(io.CsvParseError) as got:
            io.read_series(path)
        assert got.value.line == e.line
        return
    except ValueError as e:  # a series the TimeSeries checks reject
        with pytest.raises(type(e), match=re.escape(str(e))):
            io.read_series(path)
        return
    assert io.read_series(path).y.tobytes() == want.y.tobytes()


@settings(max_examples=400, deadline=None)
@given(st.one_of(*[_csv_text(_fit_rows)] * 3, _csv_text(_any_rows)))
def test_read_fit_mu_matches_the_row_loop(tmp_path_factory, text):
    """The same comparison for the mu_hat column of a fit CSV. Where the row
    loop crashed on a short row (IndexError) or returned a non-finite value,
    the bulk reader raises at the first such row."""
    path = _write(tmp_path_factory, text)
    try:
        mu, lines = _reference_read_fit_mu(path)
        bad_line = None
    except _RefError as e:
        mu, lines = getattr(e, "read", (np.zeros(0), []))
        bad_line = e.line
        if str(e).endswith("no fit rows"):
            with pytest.raises(io.CsvParseError):
                io.read_fit_mu(path)
            return
    if bad_line is None and np.isfinite(mu).all():
        assert io.read_fit_mu(path).tobytes() == mu.tobytes()
        return
    if not np.isfinite(mu).all():
        bad_line = lines[int(np.flatnonzero(~np.isfinite(mu))[0])]
    with pytest.raises(io.CsvParseError) as got:
        io.read_fit_mu(path)
    assert got.value.line == bad_line, got.value


def test_read_series_oversized_quoted_field_names_its_line(tmp_path):
    # a cell over the csv module's field size limit raised _csv.Error
    path = tmp_path / "big.csv"
    path.write_text("value\n1.0\n\"" + "1" * 200_000 + "\"\n2.0\n")
    with pytest.raises(io.CsvParseError, match="line 3"):
        io.read_series(path)


@pytest.mark.parametrize("quote", ["", '"'])
def test_field_size_limit_holds_with_or_without_quotes(tmp_path, quote):
    # quoted or not, a cell may hold as many characters as csv.reader allows
    limit = csv.field_size_limit()
    path = tmp_path / "big.csv"
    path.write_text(f"value\n{quote}{' ' * (limit - 3)}1.5{quote}\n2.0\n3.0\n4.0\n5.0\n")
    assert io.read_series(path).y.tolist() == [1.5, 2.0, 3.0, 4.0, 5.0]
    path.write_text(f"value\n1.0\n{quote}{' ' * (limit - 2)}1.5{quote}\n2.0\n3.0\n")
    with pytest.raises(io.CsvParseError, match=re.escape(f"line 3: field larger than field limit ({limit})")):
        io.read_series(path)
    fit = tmp_path / "fit.csv"
    fit.write_text(f"t,mu_hat\n1,1.0\n2,{quote}{' ' * limit}1{quote}\n")
    with pytest.raises(io.CsvParseError, match="line 3"):
        io.read_fit_mu(fit)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("text, line", [
    pytest.param("value\n1\n2\n{}\n4\n5\n", 4, id="header"),
    pytest.param("# note\n\n1,1\n2,{}\n3,3\n4,4\n5,{}\n", 4, id="two-column-comment-blank"),
])
def test_read_series_names_a_non_finite_value(tmp_path, cell, text, line):
    # the TimeSeries check named neither the file nor the line
    path = tmp_path / "series.csv"
    path.write_text(text.format(cell, cell))
    with pytest.raises(io.CsvParseError, match=re.escape(f"{path}: line {line}: ") + f".*{cell}"):
        io.read_series(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "oops"])
def test_read_fit_mu_names_a_bad_cell(tmp_path, cell):
    path = tmp_path / "fit.csv"
    path.write_text("# generator=x\nt,y,mu_hat\n1,1.0,1.0\n2,2.0," + cell + "\n3,3.0,3.0\n")
    with pytest.raises(io.CsvParseError, match=re.escape(f"{path}: line 4: ") + f".*{cell}"):
        io.read_fit_mu(path)


_fit_arrays = st.integers(5, 40).flatmap(lambda n: st.tuples(*(st.lists(
    st.one_of(st.floats(-1e150, 1e150), st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0**60])),
    min_size=n, max_size=n) for _ in range(2))))


@settings(max_examples=100, deadline=None)
@given(_fit_arrays)
def test_fit_csv_matches_the_row_writer_on_any_fit(tmp_path_factory, arrays):
    y, mu = (np.array(a) for a in arrays)
    series, fit = TimeSeries(y), TrendFit.from_mu(y, mu, 0.5)
    kinks = extract_kinks(fit)
    path = tmp_path_factory.mktemp("fit") / "fit.csv"
    io.write_fit_csv(path, series, fit, kinks, args_echo="fit")
    assert path.read_bytes() == _reference_fit_csv(series, fit, kinks, "fit")
