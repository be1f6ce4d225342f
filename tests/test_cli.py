import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from trendfilter import simulate
from trendfilter.cli import main
from trendfilter.io import read_series
from trendfilter.kkt import affine_fit, check_kkt, lambda_max
from trendfilter.simulate import PiecewiseLinearSpec, gen_trend


def _write_series(path, y, two_col=False, header=False):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header:
            w.writerow(["t", "value"] if two_col else ["value"])
        for i, v in enumerate(y, start=1):
            w.writerow([i, repr(float(v))] if two_col else [repr(float(v))])


def _read_table(path):
    """First CSV section: header row plus data rows (metadata lines skipped)."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                if rows:
                    break
                continue
            rows.append(row)
    return rows[0], rows[1:]


def _read_kink_section(path):
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    idx = next(i for i, row in enumerate(lines) if row and row[0] == "kink_time")
    return lines[idx], lines[idx + 1:]


@pytest.fixture
def noisy_line(tmp_path):
    rng = np.random.default_rng(5)
    t = np.arange(1, 51, dtype=float)
    y = 0.5 + 0.3 * t + rng.normal(0, 0.2, 50)
    p = tmp_path / "line.csv"
    _write_series(p, y)
    return p, y


@pytest.fixture
def tent_series(tmp_path):
    spec = PiecewiseLinearSpec(n=40, r=(0.5,), b=(2.0, -2.0))
    y = gen_trend(spec)
    p = tmp_path / "tent.csv"
    _write_series(p, y, two_col=True, header=True)
    return p, y, spec


class TestFit:
    def test_lambda_zero_reproduces_series(self, tmp_path, noisy_line):
        p, y = noisy_line
        out = tmp_path / "fit.csv"
        code = main(["fit", "--input", str(p), "--lambda", "0", "--output", str(out)])
        assert code == 0
        header, rows = _read_table(out)
        mu = np.array([float(r[header.index("mu_hat")]) for r in rows])
        assert np.allclose(mu, y, atol=1e-12)
        assert rows[0][header.index("beta")] == ""
        assert rows[2][header.index("beta")] != ""

    def test_huge_lambda_gives_affine(self, tmp_path, noisy_line):
        p, y = noisy_line
        out = tmp_path / "fit.csv"
        code = main(["fit", "--input", str(p), "--lambda", "1e12", "--output", str(out)])
        assert code == 0
        header, rows = _read_table(out)
        mu = np.array([float(r[header.index("mu_hat")]) for r in rows])
        assert np.max(np.abs(mu - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--lambda", "1"])
        assert code == 2

    def test_lambda_rel(self, tmp_path, noisy_line):
        p, y = noisy_line
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(p), "--lambda-rel", "2.0",
                     "--output", str(out)]) == 0
        header, rows = _read_table(out)
        mu = np.array([float(r[header.index("mu_hat")]) for r in rows])
        assert np.max(np.abs(mu - affine_fit(y))) < 1e-8 * (1 + np.max(np.abs(y)))

    def test_conflicting_lambda_flags(self, noisy_line):
        p, _ = noisy_line
        assert main(["fit", "--input", str(p), "--lambda", "1",
                     "--lambda-rel", "0.5"]) == 2

    def test_lasso_solver(self, tmp_path, noisy_line):
        p, y = noisy_line
        out = tmp_path / "fit.csv"
        assert main(["fit", "--input", str(p), "--lambda-rel", "0.3",
                     "--solver", "lasso", "--output", str(out)]) == 0

    def test_lasso_fit_converges_and_certifies(self, tmp_path):
        # a noisy short series whose lasso fit used to be flagged non-converged (exit 3)
        from trendfilter.simulate import NoiseSpec, add_noise, example2
        y = add_noise(gen_trend(example2(n=60)), NoiseSpec(snr=25.0, seed=1)).y
        p = tmp_path / "noisy.csv"
        _write_series(p, y)
        out = tmp_path / "fit.csv"
        lam = 0.1 * lambda_max(y)
        assert main(["fit", "--input", str(p), "--lambda", repr(lam), "--solver", "lasso",
                     "--output", str(out)]) == 0
        assert main(["check", "--input", str(p), "--fit", str(out), "--lambda", repr(lam),
                     "--output", str(tmp_path / "kkt.csv")]) == 0

    @pytest.mark.parametrize("certified", [True, False])
    def test_exit3_names_its_cause(self, tmp_path, noisy_line, monkeypatch, capsys, certified):
        # an unconverged fit that fails its certificate says so, with the margin
        import dataclasses
        from trendfilter import cli
        from trendfilter.core import TrendFit
        real = cli.lasso.fit

        def stuck(y, lam):
            f = real(y, lam) if certified else TrendFit.from_mu(y, affine_fit(y.y), lam)
            return dataclasses.replace(f, converged=False)

        monkeypatch.setattr(cli.lasso, "fit", stuck)
        p, y = noisy_line
        lam = 0.01 * lambda_max(y)
        assert main(["fit", "--input", str(p), "--lambda", repr(lam), "--solver", "lasso",
                     "--output", str(tmp_path / "fit.csv")]) == 3
        err = capsys.readouterr().err
        if certified:
            assert "passed its KKT certificate, but the solver stopped at its round budget" in err
        else:
            report = check_kkt(y, affine_fit(y), lam)
            ratio = report.max_inactive_ratio
            assert f"failed its KKT certificate: max_inactive_ratio={ratio:.6g}" in err
            assert (f"mismatches={report.active_sign_mismatches} "
                    f"residual={report.stationarity_residual:.6g}") in err

    def test_header_after_metadata_lines(self, tmp_path, noisy_line):
        # the form the tool writes: '#' metadata lines, then a header row
        _, y = noisy_line
        p = tmp_path / "meta.csv"
        p.write_text("# generator=x\n# args=y\nvalue\n" + "".join(f"{float(v)!r}\n" for v in y))
        assert np.array_equal(read_series(p).y, y)
        assert main(["fit", "--input", str(p), "--lambda", "1",
                     "--output", str(tmp_path / "fit.csv")]) == 0

    def test_second_text_row_is_not_a_header(self, tmp_path, capsys):
        p = tmp_path / "two_headers.csv"
        p.write_text("# note\nvalue\nunits\n1.0\n2.0\n3.0\n4.0\n5.0\n")
        assert main(["fit", "--input", str(p), "--lambda", "1"]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_bad_row_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("1.0\n2.0\noops\n4.0\n5.0\n")
        assert main(["fit", "--input", str(p), "--lambda", "1"]) == 2
        assert "line 3" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["fit", "path", "select", "check"])
    def test_oversized_field_exits_2(self, tmp_path, noisy_line, command, capsys):
        # a cell over the csv module's field size limit raised _csv.Error: a
        # traceback and exit 1
        good, y = noisy_line
        p = tmp_path / "big.csv"
        p.write_text("value\n1.0\n\"" + "1" * 200_000 + "\"\n" + good.read_text())
        argv = [command, "--input", str(p), "--output", str(tmp_path / "out.csv")]
        if command in ("fit", "check"):
            argv += ["--lambda", "1"]
        if command == "check":
            argv += ["--fit", str(good)]
        assert main(argv) == 2
        assert f"{p}: line 3" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "path", "select", "check"])
    def test_input_directory_exits_2(self, tmp_path, noisy_line, command, capsys):
        # IsADirectoryError was not caught: a traceback and exit 1
        good, y = noisy_line
        d = tmp_path / "a-directory"
        d.mkdir()
        argv = [command, "--input", str(d), "--output", str(tmp_path / "out.csv")]
        if command in ("fit", "check"):
            argv += ["--lambda", "1"]
        if command == "check":
            argv += ["--fit", str(good)]
        assert main(argv) == 2
        assert str(d) in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("output", ["a-directory", "line.csv/out.csv"])
    def test_output_path_that_cannot_be_a_file_exits_2(self, tmp_path, noisy_line, output,
                                                       capsys):
        # a directory, or a path under a file: an OSError traceback and exit 1
        good, y = noisy_line
        (tmp_path / "a-directory").mkdir()
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / output
        assert main(["fit", "--input", str(good), "--lambda", "1", "--output", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, cell, capsys):
        # "series contains non-finite values" named neither file nor line
        p = tmp_path / "bad.csv"
        p.write_text(f"value\n1.0\n2.0\n{cell}\n4.0\n5.0\n")
        assert main(["fit", "--input", str(p), "--lambda", "1",
                     "--output", str(tmp_path / "out.csv")]) == 2
        assert f"{p}: line 4" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestPathAndSelect:
    def test_noiseless_tent_recovers_kink(self, tmp_path, tent_series):
        p, y, spec = tent_series
        out = tmp_path / "scores.csv"
        code = main(["path", "--input", str(p), "--criterion", "mc",
                     "--grid-size", "30", "--output", str(out)])
        assert code == 0
        fit_out = tmp_path / "scores.fit.csv"
        header, krows = _read_kink_section(fit_out)
        assert [int(r[0]) for r in krows] == list(spec.kink_times())
        assert [int(r[1]) for r in krows] == list(spec.kink_signs())

    def test_scores_table_has_both_criteria(self, tmp_path, noisy_line):
        p, _ = noisy_line
        out = tmp_path / "scores.csv"
        assert main(["path", "--input", str(p), "--grid-size", "8",
                     "--output", str(out)]) == 0
        header, rows = _read_table(out)
        assert header == ["lambda", "rss", "k_hat", "sic", "mc"]
        assert len(rows) == 9  # 8 positive rungs plus lambda = 0

    def test_single_rung_grid(self, tmp_path, noisy_line):
        p, _ = noisy_line
        out = tmp_path / "scores.csv"
        assert main(["path", "--input", str(p), "--grid-size", "1",
                     "--output", str(out)]) == 0
        header, rows = _read_table(out)
        assert len(rows) == 2  # lambda = 0 (excluded from selection) + lambda_max

    def test_identical_invocations_identical_bytes(self, tmp_path, noisy_line):
        p, _ = noisy_line
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["path", "--input", str(p), "--grid-size", "6", "--output", str(out1)])
        main(["path", "--input", str(p), "--grid-size", "6", "--output", str(out2)])
        b1 = out1.read_bytes().replace(b"a.csv", b"X.csv")
        b2 = out2.read_bytes().replace(b"b.csv", b"X.csv")
        assert b1 == b2

    def test_rewrite_cuts_longer_old_file(self, tmp_path, noisy_line):
        p, _ = noisy_line
        out = tmp_path / "fit.csv"
        argv = ["fit", "--input", str(p), "--lambda", "1.0", "--output", str(out)]
        main(argv)
        fresh = out.read_bytes()
        out.write_bytes(b"x" * (3 * len(fresh)))
        main(argv)
        assert out.read_bytes() == fresh

    def test_select_emits_fit(self, tmp_path, tent_series):
        p, y, spec = tent_series
        out = tmp_path / "sel.csv"
        assert main(["select", "--input", str(p), "--grid-size", "20",
                     "--output", str(out)]) == 0
        header, rows = _read_table(out)
        assert header[:3] == ["t", "y", "mu_hat"]
        assert len(rows) == 40

    @pytest.mark.parametrize("certified", [True, False])
    def test_select_exit3_names_its_cause(self, tmp_path, noisy_line, monkeypatch, capsys,
                                          certified):
        # select exits 3 on an unconverged selected fit and names the cause, as fit does
        import dataclasses
        from trendfilter import cli, kkt
        from trendfilter.kkt import KktReport
        real = cli.lasso.fit_path

        def stuck(y, grid):
            path = real(y, grid)
            return dataclasses.replace(path, entries=tuple(
                dataclasses.replace(e, fit=dataclasses.replace(e.fit, converged=False))
                for e in path.entries))

        monkeypatch.setattr(cli.lasso, "fit_path", stuck)
        if not certified:
            # select prints the selected entry's stored certificate, so the
            # failing one is what the path certifies every entry with
            failing = KktReport(max_inactive_ratio=1.25, active_sign_mismatches=0,
                                stationarity_residual=0.0, passed=False, rss=1.0, dmu_l1=0.0,
                                k_hat=0)
            monkeypatch.setattr(kkt, "check_kkt", lambda *args, **kwargs: failing)
        p, _ = noisy_line
        assert main(["select", "--input", str(p), "--solver", "lasso", "--grid-size", "8",
                     "--output", str(tmp_path / "sel.csv")]) == 3
        err = capsys.readouterr().err
        if certified:
            assert "passed its KKT certificate, but the solver stopped at its round budget" in err
        else:
            assert "failed its KKT certificate: max_inactive_ratio=1.25" in err

    def test_select_exit3_prints_the_stored_certificate(self, tmp_path, noisy_line, monkeypatch,
                                                        capsys):
        # select certifies each entry once, on the path; it used to run
        # check_kkt again on the selected fit to name the cause
        import dataclasses
        from trendfilter import cli, kkt
        real, calls, reports = kkt.check_kkt, [], {}

        def failing(y, mu, lam, *args, **kwargs):
            report = dataclasses.replace(real(y, mu, lam, *args, **kwargs), passed=False,
                                         max_inactive_ratio=2.0 + len(calls))
            calls.append(lam)
            reports[lam] = report
            return report

        monkeypatch.setattr(kkt, "check_kkt", failing)
        monkeypatch.setattr(cli, "check_kkt", failing)
        p, _ = noisy_line
        assert main(["select", "--input", str(p), "--grid-size", "8",
                     "--output", str(tmp_path / "sel.csv")]) == 3
        out, err = capsys.readouterr()
        assert len(calls) == 9 and len(set(calls)) == 9
        shown = out.split("selected lambda=")[1].split()[0]
        (report,) = [r for lam, r in reports.items() if f"{lam:.12g}" == shown]
        assert (f"failed its KKT certificate: max_inactive_ratio={report.max_inactive_ratio:.6g} "
                f"mismatches={report.active_sign_mismatches} "
                f"residual={report.stationarity_residual:.6g}") in err

    def test_nonconverged_entries_are_named(self, tmp_path, noisy_line, monkeypatch, capsys):
        # exit 3 names each unconverged entry with its lambda and certificate margin
        import dataclasses
        from trendfilter import cli
        real = cli.lasso.fit_path
        seen = {}

        def one_stuck(y, grid):
            path = real(y, grid)
            e = path.entries[3]
            seen["entry"] = e
            stuck = dataclasses.replace(e, fit=dataclasses.replace(e.fit, converged=False))
            return dataclasses.replace(path, entries=path.entries[:3] + (stuck,) + path.entries[4:])

        monkeypatch.setattr(cli.lasso, "fit_path", one_stuck)
        p, _ = noisy_line
        assert main(["path", "--input", str(p), "--solver", "lasso", "--grid-size", "8",
                     "--output", str(tmp_path / "scores.csv")]) == 3
        err = capsys.readouterr().err
        e = seen["entry"]
        assert (f"entry 3 lambda={e.lam:.6g} "
                f"max_inactive_ratio={e.kkt.max_inactive_ratio:.6g}") in err
        assert err.count("entry ") == 1
        # the entry passed its certificate, so the message blames the round budget
        assert e.kkt.passed and "certificate, but the solver stopped at its round budget" in err


class TestSimulate:
    def test_preset_smoke_and_metadata(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main(["simulate", "--preset", "example1", "--n", "60", "--snr", "inf",
                     "--reps", "2", "--grid-size", "10", "--output", str(out)])
        assert code == 0
        header, rows = _read_table(out)
        assert header[0] == "example"
        assert rows[0][0] == "example1"
        meta = json.loads((tmp_path / "exp.csv.meta.json").read_text())
        assert meta["config"]["true_kinks"] == [19, 43]
        assert meta["config"]["n"] == 60
        assert len(meta["rows"]) == 2

    def test_example2_metadata_kinks(self, tmp_path):
        out = tmp_path / "exp.csv"
        assert main(["simulate", "--preset", "example2", "--n", "100", "--snr", "inf",
                     "--reps", "1", "--grid-size", "8", "--output", str(out)]) == 0
        meta = json.loads((tmp_path / "exp.csv.meta.json").read_text())
        assert len(meta["config"]["true_kinks"]) == 4

    def test_zero_reps_exits_2(self, tmp_path):
        assert main(["simulate", "--preset", "example1", "--reps", "0",
                     "--output", str(tmp_path / "x.csv")]) == 2

    def test_config_file(self, tmp_path):
        cfg = {
            "example": "example1", "n": 60, "snr": 400.0, "replications": 2,
            "criterion": "mc", "solver": "pathwise", "grid_size": 10, "base_seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "exp.csv"
        assert main(["simulate", "--config", str(cfg_path), "--output", str(out)]) == 0

    def test_config_missing_field_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"example": "example1"}))
        assert main(["simulate", "--config", str(cfg_path),
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert "replications" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, value, name", [("--grid-min-rel", "0", "min_rel"),
                                                   ("--grid-size", "0", "size")])
    def test_bad_grid_names_its_parameter(self, tmp_path, flag, value, name, capsys):
        # both were answered with "bad grid parameters"
        assert main(["simulate", "--preset", "example1", "--n", "50", "--reps", "1", flag, value,
                     "--output", str(tmp_path / "x.csv")]) == 2
        assert f"{name} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_exit_2(self, tmp_path, workers, capsys):
        # both ran the replications serially and exited 0
        assert main(["simulate", "--preset", "example1", "--n", "50", "--reps", "1",
                     "--workers", workers, "--output", str(tmp_path / "x.csv")]) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("snr", ["nan", "0", "-5"])
    def test_bad_snr_rejected_before_any_replication(self, tmp_path, monkeypatch, snr, capsys):
        # nan was blamed on "series contains non-finite values"; 0 was caught
        # only inside the first replication
        def no_replication(*args):
            raise AssertionError("ran a replication")

        monkeypatch.setattr(simulate, "run_replication", no_replication)
        assert main(["simulate", "--preset", "example1", "--n", "50", "--reps", "2",
                     "--snr", snr, "--workers", "2", "--output", str(tmp_path / "x.csv")]) == 2
        assert "snr must be positive" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_importing_the_cli_leaves_the_process_pool_unloaded(self):
        code = ("import sys, trendfilter.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCheck:
    @staticmethod
    def _fit_csv(tmp_path, noisy_line):
        p, y = noisy_line
        lam = repr(0.2 * lambda_max(y))
        fit_out = tmp_path / "fit.csv"
        main(["fit", "--input", str(p), "--lambda", lam, "--output", str(fit_out)])
        return p, lam, fit_out, fit_out.read_text().split("\n")

    def _rejected(self, tmp_path, p, lam, fit_csv, capsys):
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(["check", "--input", str(p), "--fit", str(fit_csv), "--lambda", lam,
                     "--output", str(outdir / "kkt.csv")]) == 2
        assert list(outdir.iterdir()) == []
        return capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "oops"])
    def test_bad_mu_cell_rejected_before_output(self, tmp_path, noisy_line, cell, capsys):
        # nan and inf were certified into a kkt.csv of NaN (exit 4); a word
        # exited 2 naming neither the file nor the line
        p, lam, fit_out, lines = self._fit_csv(tmp_path, noisy_line)
        header = lines[2].split(",")
        row = lines[12].split(",")
        row[header.index("mu_hat")] = cell
        lines[12] = ",".join(row)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        err = self._rejected(tmp_path, p, lam, bad, capsys)
        assert f"{bad}: line 13" in err and cell in err

    def test_short_row_rejected_before_output(self, tmp_path, noisy_line, capsys):
        # a row without its mu_hat cell raised IndexError: a traceback, exit 1
        p, lam, fit_out, lines = self._fit_csv(tmp_path, noisy_line)
        lines[7] = "5,1.0"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        err = self._rejected(tmp_path, p, lam, bad, capsys)
        assert f"{bad}: line 8" in err

    def test_oversized_field_in_the_fit_exits_2(self, tmp_path, noisy_line, capsys):
        # a cell over the csv module's field size limit raised _csv.Error
        p, lam, fit_out, lines = self._fit_csv(tmp_path, noisy_line)
        lines[5] = '"' + "1" * 200_000 + '",1,1,1,1'
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines))
        err = self._rejected(tmp_path, p, lam, bad, capsys)
        assert f"{bad}: line 6" in err

    def test_certified_fit_passes(self, tmp_path, noisy_line):
        p, y = noisy_line
        fit_out = tmp_path / "fit.csv"
        lam = 0.2 * lambda_max(y)
        main(["fit", "--input", str(p), "--lambda", repr(lam), "--output", str(fit_out)])
        assert main(["check", "--input", str(p), "--fit", str(fit_out),
                     "--lambda", repr(lam), "--output", str(tmp_path / "kkt.csv")]) == 0

    def test_corrupted_fit_fails(self, tmp_path, noisy_line):
        p, y = noisy_line
        fit_out = tmp_path / "fit.csv"
        lam = 0.2 * lambda_max(y)
        main(["fit", "--input", str(p), "--lambda", repr(lam), "--output", str(fit_out)])
        text = fit_out.read_text()
        header, rows = _read_table(fit_out)
        col = header.index("mu_hat")
        bad = rows[10][col]
        text = text.replace(bad, repr(float(bad) + 1.0), 1)
        corrupted = tmp_path / "bad.csv"
        corrupted.write_text(text)
        assert main(["check", "--input", str(p), "--fit", str(corrupted),
                     "--lambda", repr(lam), "--output", str(tmp_path / "kkt.csv")]) == 4

    def test_tol_kink_reaches_the_certificate(self, tmp_path, noisy_line):
        # at --tol-kink 0 the round-off second differences of the written fit
        # count as kinks, and their subgradients are not at +-1
        p, y = noisy_line
        fit_out = tmp_path / "fit.csv"
        lam = 0.2 * lambda_max(y)
        main(["fit", "--input", str(p), "--lambda", repr(lam), "--output", str(fit_out)])
        kkt_out = tmp_path / "kkt.csv"
        assert main(["check", "--input", str(p), "--fit", str(fit_out), "--lambda", repr(lam),
                     "--tol-kink", "0", "--output", str(kkt_out)]) == 4
        header, rows = _read_table(kkt_out)
        assert int(rows[0][header.index("active_sign_mismatches")]) > 0

    def test_lambda_mismatch_fails(self, tmp_path, noisy_line):
        p, y = noisy_line
        fit_out = tmp_path / "fit.csv"
        lam = 0.2 * lambda_max(y)
        main(["fit", "--input", str(p), "--lambda", repr(lam), "--output", str(fit_out)])
        assert main(["check", "--input", str(p), "--fit", str(fit_out),
                     "--lambda", repr(3.0 * lam), "--output", str(tmp_path / "kkt.csv")]) == 4


class TestNonFiniteLambda:
    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--lambda", "nan"], id="fit-lambda-nan"),
        pytest.param(["fit", "--lambda", "inf"], id="fit-lambda-inf"),
        pytest.param(["fit", "--lambda-rel", "nan"], id="fit-lambda-rel-nan"),
        pytest.param(["fit", "--lambda-rel", "inf"], id="fit-lambda-rel-inf"),
        pytest.param(["fit", "--solver", "lasso", "--lambda", "nan"], id="fit-lasso-lambda-nan"),
        pytest.param(["path", "--grid-min-rel", "nan"], id="path-grid-min-rel-nan"),
        pytest.param(["select", "--grid-min-rel", "nan"], id="select-grid-min-rel-nan"),
        # outside (0, 1]: 0 and -1 crashed with a traceback, 2 blamed the grid's order
        *(pytest.param([cmd, "--grid-min-rel", v], id=f"{cmd}-grid-min-rel-{v}")
          for cmd in ("path", "select") for v in ("0", "-1", "2")),
        pytest.param(["check", "--lambda", "nan"], id="check-lambda-nan"),
        pytest.param(["check", "--lambda", "inf"], id="check-lambda-inf"),
    ])
    def test_rejected_before_output(self, tmp_path, noisy_line, argv, capsys):
        p, y = noisy_line
        if argv[0] == "check":
            fit_out = tmp_path / "fit.csv"
            main(["fit", "--input", str(p), "--lambda", repr(0.2 * lambda_max(y)),
                  "--output", str(fit_out)])
            argv = argv + ["--fit", str(fit_out)]
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(argv + ["--input", str(p), "--output", str(outdir / "out.csv")]) == 2
        assert list(outdir.iterdir()) == []
        assert "finite" in capsys.readouterr().err


class TestBadTolerance:
    @pytest.mark.parametrize("command", ["fit", "path", "select", "check"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tol_kink_rejected_before_output(self, tmp_path, noisy_line, command, value, capsys):
        self._rejected(tmp_path, noisy_line, [command, "--tol-kink", value], capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_check_tol_rejected_before_output(self, tmp_path, noisy_line, value, capsys):
        self._rejected(tmp_path, noisy_line, ["check", "--tol", value], capsys)

    @staticmethod
    def _rejected(tmp_path, noisy_line, argv, capsys):
        p, y = noisy_line
        lam = repr(0.2 * lambda_max(y))
        if argv[0] == "check":
            fit_out = tmp_path / "fit.csv"
            main(["fit", "--input", str(p), "--lambda", lam, "--output", str(fit_out)])
            argv = argv + ["--fit", str(fit_out)]
        if argv[0] in ("fit", "check"):
            argv = argv + ["--lambda", lam]
        outdir = tmp_path / "out"
        outdir.mkdir()
        capsys.readouterr()
        assert main(argv + ["--input", str(p), "--output", str(outdir / "out.csv")]) == 2
        assert list(outdir.iterdir()) == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {argv[1]} must be finite and >= 0\n"


class TestIrrep:
    def test_reference_example_output(self, capsys):
        assert main(["irrep", "--paper-example"]) == 0
        out = capsys.readouterr().out
        assert "retained_columns=[1, 2, 5]" in out
        assert "s1=(1, -1, 1): holds=False violating_columns=[6, 7, 8]" in out
        assert "s1=(-1, 1, 1): holds=False violating_columns=[3, 4]" in out
        assert "s1=(1, 1, 1): holds=False violating_columns=[6]" in out

    def test_no_kink_baseline(self, capsys):
        assert main(["irrep", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "retained_columns=[1, 2]" in out

    def test_custom_signs(self, capsys):
        assert main(["irrep", "--n", "10", "--kinks", "5", "--signs", "1,-1,1"]) == 0
        assert "holds=False" in capsys.readouterr().out

    def test_unpenalised_affine_signs(self, capsys):
        assert main(["irrep", "--n", "10", "--kinks", "5", "--signs", "0,0,1"]) == 0
        assert "s1=(0, 0, 1): holds=False violating_columns=[6]" in capsys.readouterr().out
        assert main(["irrep", "--n", "10", "--kinks", "5", "--signs", "0,0,0"]) == 2

    def test_bad_signs_rejected_before_output(self, capsys):
        assert main(["irrep", "--n", "10", "--kinks", "5", "--signs", "0,0,0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "s1 entries must be -1 or +1" in err

    def test_out_of_range_kink_exits_2(self):
        assert main(["irrep", "--n", "10", "--kinks", "2"]) == 2

    def test_n_below_two_exits_2(self, capsys):
        assert main(["irrep", "--n", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: n must be >= 2\n"

    def test_no_size_cap(self, capsys):
        # the dense design used to cap this report at n = 2000
        assert main(["irrep", "--n", "2500", "--kinks", "100,200", "--signs", "0,0,1,-1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n=2500 retained_columns=[1, 2, 100, 200]\n")
        assert out.count("a[col") == 2496
        assert "s1=(0, 0, 1, -1): holds=" in out


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ["irrep", "--n", "10", "--output", "m.txt"],
        ["path", "--input", "y.csv", "--tol", "1e-6"],
        ["select", "--input", "y.csv", "--tol", "1e-6"],
        ["fit", "--input", "y.csv", "--lambda", "1", "--tol", "1e-6"],
    ], ids=["irrep-output", "path-tol", "select-tol", "fit-tol"])
    def test_unread_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err


class TestOutdirEnv:
    def test_env_default_dir(self, tmp_path, noisy_line, monkeypatch):
        p, _ = noisy_line
        monkeypatch.setenv("TRENDFILTER_OUTDIR", str(tmp_path))
        assert main(["fit", "--input", str(p), "--lambda", "0"]) == 0
        assert (tmp_path / "fit.csv").exists()


class TestLambdaFig2:
    def test_preset_derived_lambda(self, tmp_path):
        from trendfilter.simulate import example1, gen_trend
        y = gen_trend(example1(n=60))
        p = tmp_path / "ex1.csv"
        _write_series(p, y)
        out = tmp_path / "fit.csv"
        code = main(["fit", "--input", str(p), "--lambda-paper-fig2",
                     "--preset", "example1", "--output", str(out)])
        assert code == 0
        assert out.exists()

    def test_fig2_without_preset_exits_2(self, tmp_path):
        from trendfilter.simulate import example1, gen_trend
        p = tmp_path / "ex1.csv"
        _write_series(p, gen_trend(example1(n=60)))
        assert main(["fit", "--input", str(p), "--lambda-paper-fig2"]) == 2
