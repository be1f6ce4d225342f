"""The benchmark workloads: path-lasso, path-pathwise, short-cli,
short-cli-check and simulate.

Each workload is one closed loop in this process: an operation starts when
the previous one returns. Inputs are made at set-up from the seed; a run
repeats whole rounds of operations on them until the measured time reaches
the requested seconds, so every run attempts the same operations in the same
proportions. Outputs are checked outside the timed
calls, against ``checks`` (which does not use the program).
"""

from __future__ import annotations

import contextlib
import math
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from trendfilter import cli, core, io, kkt, lasso, pathwise, selection, simulate

import checks
import inputs

WORKERS = 2  # pool size of the simulate workload: nproc of the reference machine


@dataclass
class Tally:
    """Operation counts and timings of one measured loop."""

    attempted: int = 0
    failed: int = 0
    unexpected: int = 0          # failures other than the one known fault
    busy_s: float = 0.0          # time inside timed calls
    by_kind: dict = field(default_factory=dict)  # seconds of each kind of operation
    problems: dict = field(default_factory=dict)  # failed check -> operations

    def time(self, kind: str, seconds: float) -> None:
        self.busy_s += seconds
        self.by_kind.setdefault(kind, []).append(seconds)

    def count(self, problems, known=None) -> None:
        """One operation; ``problems`` names the checks it failed, and
        ``known`` the exact failures of the one recorded fault, if any."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected += unexpected(problems, known)
            for p in problems:
                self.problems[p] = self.problems.get(p, 0) + 1


def unexpected(problems, known=None) -> bool:
    """Whether failed checks are anything but exactly the recorded fault."""
    return bool(problems) and set(problems) != known


def timed(tally, kind, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with its time added to ``tally`` under ``kind``.

    Returns the result and the set of failed checks so far: empty, or the
    exception the call raised, which counts the operation as failed.
    """
    t0 = time.perf_counter()
    try:
        out, problems = fn(*args, **kwargs), set()
    except Exception as exc:  # an operation that raises has failed
        out, problems = None, {f"raised {type(exc).__name__}: {exc}"}
    tally.time(kind, time.perf_counter() - t0)
    return out, problems


# ---------------------------------------------------------------- path

PATH_SHAPES = ("example1", "example2", "custom")
PATH_SMALL_N = 500
PATH_LARGE_N = 1000

# The pathwise route emits uncertified entries on some seeded series and not
# on others, so it cannot run on seeded inputs without failing on some seeds.
# It runs on these fixed series instead (shape, n, SNR, noise seed). On the
# first, its entry at grid index 1 (lambda = 1e-4 lambda_max) fails the KKT
# test and differs from the lasso route every time: the run counts that
# failure, and any other problem of the operation counts as unexpected.
PATHWISE_FIXED = (("example2", 500, 25.0, 1), ("custom", 500, 400.0, 2),
                  ("custom", 500, 1e4, 1))
PATHWISE_KNOWN = {0: {"entry 1: KKT", "entry 1: routes disagree"}}


def lasso_series(seed: int) -> list[np.ndarray]:
    """One series per shape and SNR level at n = 500, and one per shape at
    n = 1000 with the SNR levels spread over the shapes (example1 at 1e4,
    example2 at 400, custom at 25)."""
    out = []
    for i, shape in enumerate(PATH_SHAPES):
        for j, snr in enumerate(inputs.SNR_LEVELS):
            out.append(inputs.noisy_series(shape, PATH_SMALL_N, snr, (seed, i, j)))
        out.append(inputs.noisy_series(shape, PATH_LARGE_N, inputs.SNR_LEVELS[i], (seed, i, 3)))
    return out


def route_op(route, y):
    """One route on one series: lambda_max, the default 61-point grid, the
    certified path, MC selection and the selected fit's kinks."""
    grid = selection.default_grid(kkt.lambda_max(y))
    path = route.fit_path(y, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the lam = 0 entry interpolates
        lam, fit, _ = selection.select(path, y, criterion="mc")
    return grid, path, lam, core.extract_kinks(fit)


def path_problems(y, grid, path, lam, kinks, reference=None) -> set[str]:
    """Every check of one route's output on y that fails; empty if all pass.

    Each entry is tested on its own, so a known failing entry does not hide
    the others.
    """
    mus = [e.fit.mu_hat for e in path.entries]
    lams = [e.lam for e in path.entries]
    if lams != [float(g) for g in grid] or lams[0] != 0.0:
        return {"grid"}
    bad = {f"entry {i}: KKT" for i, (l, mu) in enumerate(zip(lams, mus))
           if not checks.kkt_ok(y, mu, l)}
    if not checks.close(mus[0], y, checks.EXACT_TOL, y):
        bad.add("lambda = 0 entry is not y")
    if not checks.close(mus[-1], checks.ls_line(y), checks.LINE_TOL, y):
        bad.add("lambda_max entry is not the least-squares line")
    if lam != checks.mc_argmin(y, lams, mus):
        bad.add("selected lambda is not the MC argmin")
    else:
        chosen = mus[lams.index(lam)]
        b = np.diff(chosen, 2)
        at = np.flatnonzero(checks.kinks_of(chosen))
        if (list(kinks.indices) != [int(k) + 2 for k in at]
                or [kinks.signs[int(k) + 2] for k in at] != [int(np.sign(b[k])) for k in at]):
            bad.add("kinks of the selected fit")
    if reference is not None:
        bad |= {f"entry {i}: routes disagree"
                for i, (mu, other) in enumerate(zip(mus, reference.entries))
                if not checks.close(mu, other.fit.mu_hat, checks.AGREE_TOL, y)}
    return bad


class PathWorkload:
    """The certified path of one route; the other route is its no-change control."""

    def __init__(self, name, route):
        self.name = name
        self.route = route

    def series(self, seed):
        if self.route is lasso:
            return lasso_series(seed)
        return [inputs.noisy_series(*spec) for spec in PATHWISE_FIXED]

    def setup(self, seed, workdir):
        route_op(self.route, inputs.noisy_series("example1", 60, 400.0, 99))  # warm-up
        return {"series": self.series(seed)}

    def run(self, state, seconds, tracer):
        series = state["series"]
        refs = [None] * len(series)
        if self.route is pathwise:  # held to the lasso route entry by entry, untimed
            refs = [route_op(lasso, y)[1] for y in series]
        if tracer is not None:
            tracer.install()
        tally = Tally()
        r = 0
        while tally.busy_s < seconds:
            for k, (y, ref) in enumerate(zip(series, refs)):
                if tracer is not None:
                    tracer.op += 1
                out, problems = timed(tally, f"n={y.size}", route_op, self.route, y)
                if not problems:
                    problems = path_problems(y, *out, reference=ref)
                tally.count(problems, PATHWISE_KNOWN.get(k) if self.route is pathwise else None)
            r += 1
        return tally, {"traced_rounds": r}


# ---------------------------------------------------------------- short-cli

PERTURB = 1e-3  # one-point change of a fit CSV, times 1 + max|y|
CHECK_ROUNDS = 4  # rounds of planted series the check workload cycles through


def write_series(path, y) -> None:
    """One-column series CSV with a header row, every value at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\n" + "".join(f"{float(v)!r}\n" for v in y))


def cli_quiet(main, argv, sink):
    """``main(argv)`` with the program's own console output sent to ``sink``."""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def write_inputs(workdir, seed, r):
    """Round r of the planted short series, each written as a one-column CSV."""
    items = []
    for s in inputs.short_round(seed, r):
        base = os.path.join(workdir, s.name)
        write_series(base + ".csv", s.y)
        items.append((s, base))
    return items


def run_cli(tally, tracer, main, argv, want, sink) -> set[str]:
    """One timed ``cli.main`` call; returns its failed checks (exit code)."""
    if tracer is not None:
        tracer.op += 1
    code, problems = timed(tally, argv[0], cli_quiet, main, argv, sink)
    if not problems and code != want:
        problems = {f"{argv[0]} exited {code}, not {want}"}
    return problems


class ShortCliWorkload:
    """``trendfilter fit`` on planted short series, default pathwise route."""

    name = "short-cli"

    def setup(self, seed, workdir):
        items = write_inputs(workdir, seed, 0)
        s, base = items[0]
        with open(os.devnull, "w", encoding="utf-8") as sink:
            cli_quiet(cli.main, ["fit", "--input", base + ".csv", "--lambda", repr(s.lam),
                                 "--output", base + ".fit.csv"], sink)
        return {"items": items}

    def run(self, state, seconds, tracer):
        main = cli.main if tracer is None else tracer.cli_main
        if tracer is not None:
            tracer.install()
        tally = Tally()
        r = 0
        with open(os.devnull, "w", encoding="utf-8") as sink:
            while tally.busy_s < seconds:
                for s, base in state["items"]:
                    if s.lam_rel is None:
                        how = ["--lambda", repr(s.lam)]
                    else:
                        how = ["--lambda-rel", repr(s.lam_rel)]
                    argv = ["fit", "--input", base + ".csv", "--output", base + ".fit.csv"] + how
                    problems = run_cli(tally, tracer, main, argv, 0, sink)
                    if not problems:
                        mu = checks.read_fit_csv(base + ".fit.csv")
                        if not (mu.shape == s.y.shape
                                and checks.close(mu, s.mu_star, checks.PLANTED_TOL, s.y)):
                            problems = {"fit is not the planted minimiser"}
                    tally.count(problems)
                r += 1
        return tally, {"traced_rounds": r}


class ShortCliCheckWorkload:
    """``trendfilter check`` on planted short series: reading, certifying and
    writing with no solver. Each fit CSV holds the planted minimiser, written
    by the program's own fit writer; its perturbed copy must be rejected."""

    name = "short-cli-check"

    def setup(self, seed, workdir):
        items = []
        for r in range(CHECK_ROUNDS):
            for s, base in write_inputs(workdir, seed, r):
                ts = core.TimeSeries(s.y)
                fit = core.TrendFit.from_mu(ts, s.mu_star, s.lam)
                io.write_fit_csv(base + ".fit.csv", ts, fit, core.extract_kinks(fit))
                checks.perturb_fit_csv(base + ".fit.csv", base + ".bad.csv", s.y.size // 2,
                                       PERTURB * checks.scale_of(s.y))
                items.append((s, base))
        return {"items": items}

    def run(self, state, seconds, tracer):
        main = cli.main if tracer is None else tracer.cli_main
        if tracer is not None:
            tracer.install()
        tally = Tally()
        r = 0
        with open(os.devnull, "w", encoding="utf-8") as sink:
            while tally.busy_s < seconds:
                for s, base in state["items"]:
                    for fit_csv, want in ((".fit.csv", 0), (".bad.csv", 4)):
                        argv = ["check", "--input", base + ".csv", "--fit", base + fit_csv,
                                "--lambda", repr(s.lam), "--output", base + ".kkt.csv"]
                        tally.count(run_cli(tally, tracer, main, argv, want, sink))
                r += 1
        return tally, {"traced_rounds": r}


# ---------------------------------------------------------------- simulate

SIM_N = 500
SIM_REPS = 4  # replications per run_experiment call, two per worker
SIM_TOL_KINK = 1e-4  # the kink-reporting threshold scripts/run_benchmarks.py uses


def sim_config(seed: int, k: int) -> simulate.ExperimentConfig:
    return simulate.ExperimentConfig(
        example="example2", spec=simulate.example2(n=SIM_N), snr=inputs.SNR_LEVELS[k],
        replications=SIM_REPS, criterion="mc", solver="lasso",
        base_seed=seed * len(inputs.SNR_LEVELS) + k, tol_kink=SIM_TOL_KINK)


def experiment_ok(config, result) -> bool:
    rows = result.rows
    if [m.rep for m in rows] != list(range(config.replications)):
        return False
    used = [m for m in rows if m.converged]
    if not used or result.flagged != len(rows) - len(used):
        return False
    agg = result.aggregate
    for name in ("re", "e_ab", "e_ba", "hd", "j_count", "near_kink_small"):
        mean, sd = checks.mean_sd(getattr(m, name) for m in used)
        if not (math.isclose(agg[f"{name}_mean"], mean, rel_tol=1e-12, abs_tol=1e-300)
                and math.isclose(agg[f"{name}_sd"], sd, rel_tol=1e-9, abs_tol=1e-15)):
            return False
    for key, attr in (("sn_freq", "sign_consistent"), ("s1n_freq", "detection_consistent")):
        if not math.isclose(agg[key], sum(getattr(m, attr) for m in used) / len(used),
                            rel_tol=1e-12):
            return False
    return True


class SimulateWorkload:
    name = "simulate"

    def setup(self, seed, workdir):
        warm = simulate.ExperimentConfig(
            example="example2", spec=simulate.example2(n=60), snr=400.0, replications=1,
            criterion="mc", solver="lasso", base_seed=seed)
        simulate.run_experiment(warm, workers=1)
        return {"seed": seed}

    def run(self, state, seconds, tracer):
        seed = state["seed"]
        rng = np.random.default_rng([seed, 3])
        configs = [sim_config(seed, k) for k in range(len(inputs.SNR_LEVELS))]
        tally = Tally()
        pool_wall_s = 0.0
        r = 0
        while tally.busy_s < seconds:
            for config in configs:
                t0 = tally.busy_s
                result, problems = timed(tally, "run_experiment", simulate.run_experiment,
                                         config, workers=WORKERS)
                if not problems and not experiment_ok(config, result):
                    problems = {"rows or aggregates"}
                if r == 0:  # later rounds repeat the same settings
                    pool_wall_s += tally.busy_s - t0
                    if not problems and not self._serial_rerun(config, result, rng, tracer):
                        problems = {"serial rerun differs"}
                for _ in range(config.replications):
                    tally.count(problems)
            r += 1
        # the traced serial pass covers round 0 only
        return tally, {"pool_wall_s": pool_wall_s, "traced_rounds": 1}

    @staticmethod
    def _serial_rerun(config, result, rng, tracer) -> bool:
        """Rerun round-0 replications in this process: the rows must be identical.

        Untraced, one sampled replication per setting; traced, the whole
        setting, as the serial pass the per-layer figures come from (the pool
        workers' calls cannot be traced from here).
        """
        if tracer is None:
            rep = int(rng.integers(0, config.replications))
            return simulate.run_replication(config, rep) == result.rows[rep]
        tracer.install()
        try:
            tracer.op += 1
            return simulate.run_experiment(config, workers=1).rows == result.rows
        finally:
            tracer.uninstall()


WORKLOADS = {w.name: w for w in (PathWorkload("path-lasso", lasso),
                                  PathWorkload("path-pathwise", pathwise),
                                  ShortCliWorkload(), ShortCliCheckWorkload(),
                                  SimulateWorkload())}
