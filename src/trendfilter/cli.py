"""Command-line front end.

Subcommands: fit, path, select, simulate, check, irrep. fit, path and select
run one of the two certified routes, looked up by ``--solver`` in ``ROUTES``;
a route's own stopping rules are not options. All outputs are CSV with a
metadata header; simulate also writes a JSON sidecar. Exit codes are a
stable contract: 0 success, 2 input/validation problem, 3 solver
non-convergence (partial output still written), 4 certification failure.

The default output directory can be set with the TRENDFILTER_OUTDIR
environment variable; --output paths override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, io, lasso, pathwise, simulate
from .core import TimeSeries, extract_kinks
from .design import irrepresentable_holds, irrepresentable_vectors
from .kkt import check_kkt, lambda_max
from .selection import default_grid, select

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_CERT_FAILED = 4

# the certified routes, by their --solver name
ROUTES = {"pathwise": pathwise, "lasso": lasso}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _outpath(args, default_name: str) -> str:
    if args.output:
        return args.output
    outdir = os.environ.get("TRENDFILTER_OUTDIR", ".")
    return os.path.join(outdir, default_name)


def _args_echo(args) -> str:
    # output path and worker count are run-placement details that do not affect
    # content; excluding them keeps outputs byte-identical across pool sizes
    skip = {"func", "output", "workers"}
    pairs = [f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip]
    return " ".join(pairs)


def _check_tolerances(args) -> None:
    """--tol-kink and --tol, where the subcommand has them, are finite and >= 0."""
    for name in ("tol_kink", "tol"):
        value = getattr(args, name, None)
        if value is not None and not 0 <= value < math.inf:
            raise CliError(f"--{name.replace('_', '-')} must be finite and >= 0")


def _resolve_lambda(args, y: TimeSeries) -> float:
    given = [args.lam is not None, args.lambda_rel is not None,
             getattr(args, "lambda_paper_fig2", False)]
    if sum(given) != 1:
        raise CliError("pass exactly one of --lambda, --lambda-rel, --lambda-paper-fig2")
    if args.lam is not None:
        if not 0 <= args.lam < math.inf:
            raise CliError("--lambda must be finite and >= 0")
        return float(args.lam)
    if args.lambda_rel is not None:
        if not 0 <= args.lambda_rel < math.inf:
            raise CliError("--lambda-rel must be finite and >= 0")
        return float(args.lambda_rel) * lambda_max(y)
    if not args.preset:
        raise CliError("--lambda-paper-fig2 needs --preset to supply the ground truth")
    spec = simulate.PRESETS[args.preset](n=y.n)
    return 20.0 * spec.min_slope_change() * spec.min_segment_len()


def _cause(report) -> str:
    """Why a fit is flagged unconverged, from its certificate: the solver ran
    out of rounds on a fit that passes, or the certificate failed, with the
    three margins ``check`` prints."""
    if report.passed:
        return (f"max_inactive_ratio={report.max_inactive_ratio:.6g} passed its KKT "
                "certificate, but the solver stopped at its round budget")
    return (f"failed its KKT certificate: max_inactive_ratio={report.max_inactive_ratio:.6g} "
            f"mismatches={report.active_sign_mismatches} "
            f"residual={report.stationarity_residual:.6g}")


def _unconverged(report) -> int:
    """Name the cause of an unconverged fit, from its certificate, on stderr;
    returns exit code 3."""
    print(f"warning: fit did not converge: {_cause(report)}", file=sys.stderr)
    return EXIT_NONCONVERGED


def cmd_fit(args) -> int:
    y = io.read_series(args.input)
    lam = _resolve_lambda(args, y)
    fit = ROUTES[args.solver].fit(y, lam)
    kinks = extract_kinks(fit, args.tol_kink)
    out = _outpath(args, "fit.csv")
    io.write_fit_csv(out, y, fit, kinks, args_echo=_args_echo(args))
    print(f"lambda={lam:.12g} objective={fit.objective:.12g} kinks={len(kinks)} -> {out}")
    return EXIT_OK if fit.converged else _unconverged(check_kkt(y, fit.mu_hat, lam))


def _path_for(args, y: TimeSeries):
    lmax = lambda_max(y)
    grid = default_grid(lmax, size=args.grid_size, min_rel=args.grid_min_rel)
    return ROUTES[args.solver].fit_path(y, grid)


def cmd_path(args) -> int:
    y = io.read_series(args.input)
    path = _path_for(args, y)
    lam_opt, fit, scores = select(path, y, criterion=args.criterion, tol_kink=args.tol_kink)
    out = _outpath(args, "scores.csv")
    io.write_scores_csv(out, scores,
                        {"lambda": lam_opt, "criterion": args.criterion},
                        args_echo=_args_echo(args))
    fit_out = out + ".fit.csv" if not out.endswith(".csv") else out[:-4] + ".fit.csv"
    io.write_fit_csv(fit_out, y, fit, extract_kinks(fit, args.tol_kink),
                     args_echo=_args_echo(args))
    print(f"selected lambda={lam_opt:.12g} ({args.criterion}) -> {out}, {fit_out}")
    stuck = [(i, e) for i, e in enumerate(path.entries) if not e.fit.converged]
    if stuck:
        print("warning: some path entries did not converge: " + "; ".join(
            f"entry {i} lambda={e.lam:.6g} {_cause(e.kkt)}" for i, e in stuck), file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def cmd_select(args) -> int:
    y = io.read_series(args.input)
    path = _path_for(args, y)
    lam_opt, fit, _scores = select(path, y, criterion=args.criterion, tol_kink=args.tol_kink)
    out = _outpath(args, "selected.csv")
    io.write_fit_csv(out, y, fit, extract_kinks(fit, args.tol_kink), args_echo=_args_echo(args))
    print(f"selected lambda={lam_opt:.12g} ({args.criterion}) -> {out}")
    if fit.converged:
        return EXIT_OK
    return _unconverged(next(e.kkt for e in path.entries if e.fit is fit))


def _config_from_args(args) -> simulate.ExperimentConfig:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise CliError(f"config: {e}") from e
        return _config_from_dict(raw)
    if not args.preset:
        raise CliError("simulate needs --preset or --config")
    if args.reps < 1:
        raise CliError("--reps must be >= 1")
    spec_kw = {}
    if args.n:
        spec_kw["n"] = args.n
    spec = simulate.PRESETS[args.preset](**spec_kw)
    return simulate.ExperimentConfig(
        example=args.preset,
        spec=spec,
        snr=math.inf if args.snr in (None, "inf") else float(args.snr),
        replications=args.reps,
        criterion=args.criterion,
        solver=args.solver,
        grid_size=args.grid_size,
        grid_min_rel=args.grid_min_rel,
        base_seed=args.seed,
    )


def _config_from_dict(raw: dict) -> simulate.ExperimentConfig:
    def need(key, ctx="config"):
        if key not in raw:
            raise CliError(f"{ctx}.{key}: missing")
        return raw[key]

    try:
        seg = raw.get("segments")
        if seg is not None:
            spec = simulate.PiecewiseLinearSpec(
                n=int(need("n")),
                r=tuple(seg["r"]),
                b=tuple(seg["b"]),
                a1=float(seg.get("a1", 0.0)),
                time_scale=seg.get("time_scale", "normalized"),
            )
            example = raw.get("example", "custom")
        else:
            example = need("example")
            if example not in simulate.PRESETS:
                raise CliError(f"config.example: unknown preset {example!r}")
            kw = {"n": int(raw["n"])} if "n" in raw else {}
            spec = simulate.PRESETS[example](**kw)
        snr = raw.get("snr", "inf")
        return simulate.ExperimentConfig(
            example=example,
            spec=spec,
            snr=math.inf if snr in ("inf", None) else float(snr),
            replications=int(need("replications")),
            criterion=raw.get("criterion", "mc"),
            solver=raw.get("solver", "pathwise"),
            grid_size=int(raw.get("grid_size", 60)),
            grid_min_rel=float(raw.get("grid_min_rel", 1e-4)),
            base_seed=int(raw.get("base_seed", 20240901)),
            snr_convention=raw.get("snr_convention", "abs_mean"),
        )
    except CliError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(f"config: {e}") from e


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    result = simulate.run_experiment(config, workers=args.workers)
    out = _outpath(args, "experiment.csv")
    echo = _args_echo(args)
    io.write_experiment_csv(out, result, args_echo=echo)
    io.write_experiment_metadata(out + ".meta.json", result, args_echo=echo)
    print(f"{config.example}: {config.replications} reps, {result.flagged} flagged -> {out}")
    return EXIT_OK


def cmd_check(args) -> int:
    y = io.read_series(args.input)
    mu = io.read_fit_mu(args.fit)
    if mu.size != y.n:
        raise CliError(f"fit length {mu.size} does not match series length {y.n}")
    if not 0 < args.lam < math.inf:
        raise CliError("--lambda must be finite and > 0 for certification")
    report = check_kkt(y, mu, args.lam, tol=args.tol, tol_kink=args.tol_kink)
    out = _outpath(args, "kkt.csv")
    io.write_kkt_csv(out, report, args.lam, args_echo=_args_echo(args))
    print(f"passed={report.passed} max_inactive_ratio={report.max_inactive_ratio:.6g} "
          f"mismatches={report.active_sign_mismatches} "
          f"residual={report.stationarity_residual:.6g}")
    return EXIT_OK if report.passed else EXIT_CERT_FAILED


_PAPER_SIGN_CASES = [(1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 1, 1)]


def cmd_irrep(args) -> int:
    if args.paper_example:
        n, kinks = 10, [5]
        sign_cases = _PAPER_SIGN_CASES
    else:
        if args.n is None:
            raise CliError("--n is required without --paper-example")
        n = args.n
        kinks = [int(s) for s in args.kinks.split(",")] if args.kinks else []
        sign_cases = []
        if args.signs:
            s = tuple(int(v) for v in args.signs.split(","))
            if len(s) != 2 + len(kinks):
                raise CliError(f"--signs needs {2 + len(kinks)} entries (affine pair + kinks)")
            sign_cases = [s]
    try:
        system = irrepresentable_vectors(n, kinks)
    except Exception as e:
        raise CliError(str(e)) from e
    verdicts = [irrepresentable_holds(system.M, s) for s in sign_cases]  # rejects bad signs
    print(f"n={n} retained_columns={list(system.z1_columns)}")
    for row, col in zip(system.M, system.z2_columns):
        print(f"a[col {col:3d}]: " + " ".join(f"{v: .4f}" for v in row))
    for s, (holds, violations) in zip(sign_cases, verdicts):
        cols = [system.z2_columns[i] for i, _ in violations]
        vals = " ".join(f"{abs(system.M @ np.array(s, float))[i]:.4f}" for i, _ in violations)
        print(f"s1={s}: holds={holds} violating_columns={cols} |values|={vals}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    p = argparse.ArgumentParser(prog="trendfilter",
                                description="L1 trend filtering: fit, tune, simulate, certify.")
    p.add_argument("--version", action="version", version=f"trendfilter {__version__}")
    # no prefix matching of flags, so `path --tol` cannot pass as --tol-kink
    sub = p.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))

    def add_common(sp):
        sp.add_argument("--input", required=True, help="series CSV (1 or 2 columns)")
        sp.add_argument("--output", default=None, help="output path (default: TRENDFILTER_OUTDIR)")
        sp.add_argument("--tol-kink", type=float, default=1e-8, dest="tol_kink",
                        help="relative threshold for calling a slope change a kink")

    sp = sub.add_parser("fit", help="fit one penalty level")
    add_common(sp)
    sp.add_argument("--lambda", type=float, default=None, dest="lam")
    sp.add_argument("--lambda-rel", type=float, default=None, dest="lambda_rel",
                    help="lambda as a fraction of lambda_max(y)")
    sp.add_argument("--lambda-paper-fig2", action="store_true", dest="lambda_paper_fig2",
                    help="20 * (min slope change) * (min segment length); needs --preset")
    sp.add_argument("--preset", choices=sorted(simulate.PRESETS), default=None)
    sp.add_argument("--solver", choices=list(ROUTES), default="pathwise")
    sp.set_defaults(func=cmd_fit)

    for name, fn in (("path", cmd_path), ("select", cmd_select)):
        sp = sub.add_parser(name, help=f"{name} over a lambda grid")
        add_common(sp)
        sp.add_argument("--grid-size", type=int, default=60, dest="grid_size")
        sp.add_argument("--grid-min-rel", type=float, default=1e-4, dest="grid_min_rel")
        sp.add_argument("--solver", choices=list(ROUTES), default="pathwise")
        sp.add_argument("--criterion", choices=["sic", "mc"], default="mc")
        sp.set_defaults(func=fn)

    sp = sub.add_parser("simulate", help="replicated synthetic benchmark")
    sp.add_argument("--config", default=None, help="JSON experiment config")
    sp.add_argument("--preset", choices=sorted(simulate.PRESETS), default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--snr", default=None, help="signal-to-noise ratio, or 'inf'")
    sp.add_argument("--reps", type=int, default=100)
    sp.add_argument("--criterion", choices=["sic", "mc"], default="mc")
    sp.add_argument("--solver", choices=["pathwise", "lasso"], default="pathwise")
    sp.add_argument("--grid-size", type=int, default=60, dest="grid_size")
    sp.add_argument("--grid-min-rel", type=float, default=1e-4, dest="grid_min_rel")
    sp.add_argument("--seed", type=int, default=20240901)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--output", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("check", help="certify a fit CSV against the KKT conditions")
    add_common(sp)
    sp.add_argument("--tol", type=float, default=1e-6, help="tolerance of the KKT certificate")
    sp.add_argument("--fit", required=True, help="fit CSV from the fit subcommand")
    sp.add_argument("--lambda", type=float, default=None, dest="lam", required=True)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("irrep", help="irrepresentable-condition report")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--kinks", default=None, help="comma-separated kink columns in 3..n")
    sp.add_argument("--signs", default=None, help="comma-separated signs (+-1) for Z1 columns; "
                    "0 allowed for the affine pair (the first two)")
    sp.add_argument("--paper-example", action="store_true", dest="paper_example",
                    help="built-in n=10, kink column 5, all four sign cases")
    sp.set_defaults(func=cmd_irrep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tolerances(args)
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError) as e:
        # the OSErrors name the path; io.CsvParseError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
