#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload W --seed N --seconds S --trace {0,1}

W is one of path-lasso, path-pathwise, short-cli, short-cli-check and
simulate.

Run from the root of a checkout; the program is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Spans of a traced run
are written to ``.bench_out/``. Without ``src/`` the run exits with code 2 and
prints no result.
"""

import os
import sys

# One BLAS thread in this process and its pool workers: the two workers of
# the simulate workload would otherwise oversubscribe the cores with BLAS
# threads. Set before numpy loads, so both commits of a comparison share it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import time  # noqa: E402
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3

sys.path.insert(0, os.path.join(ROOT, "src"))
try:
    import trendfilter  # noqa: E402
except ImportError as exc:
    print(f"error: cannot import the program from src/: {exc}", file=sys.stderr)
    sys.exit(2)
if not os.path.abspath(trendfilter.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    print(f"error: trendfilter was imported from {trendfilter.__file__}, not from src/",
          file=sys.stderr)
    sys.exit(2)

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import trendfilter.cli; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
}


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest peak of any worker it started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer(tracer, extra) -> dict:
    """Per-layer figures of a traced run, per round of the workload."""
    incl, self_s, calls = tracer.totals()
    c = tracer.counts
    rounds = extra.get("traced_rounds", 1) or 1
    pw_entries = c["pathwise.fit_path.entries"]
    la_entries = c["lasso.fit_path.entries"]
    serial_s = incl["simulate.run_replication"]
    pool_wall = workloads.WORKERS * extra.get("pool_wall_s", 0.0)
    per_round = {
        "pathwise.fit_path.self_s": (self_s["pathwise.fit_path"], "s"),
        "pathwise.fit.self_s": (self_s["pathwise.fit"], "s"),
        "pathwise.fit.calls": (calls["pathwise.fit"], "count"),
        "pathwise.nonconverged": (c["pathwise.nonconverged"], "count"),
        "lasso.fit_path.self_s": (self_s["lasso.fit_path"], "s"),
        "lasso.budget_path.self_s": (self_s["lasso.budget_path"], "s"),
        "lasso.budget_path.calls": (calls["lasso.budget_path"], "count"),
        "design.DesignZ.dense.s": (incl["design.DesignZ.dense"], "s"),
        "design.DesignZ.dense.calls": (calls["design.DesignZ.dense"], "count"),
        "design.dense_mib": (c["design.dense_mib"], "MiB"),
        "kkt.check_kkt.s": (incl["kkt.check_kkt"], "s"),
        "kkt.check_kkt.calls": (calls["kkt.check_kkt"], "count"),
        "kkt.check_kkt.rejected": (c["kkt.check_kkt.rejected"], "count"),
        "kkt.lambda_max.s": (incl["kkt.lambda_max"], "s"),
        "selection.select.s": (incl["selection.select"], "s"),
        "selection.score.calls": (calls["selection.score"], "count"),
        "core.TrendFit.from_mu.s": (incl["core.TrendFit.from_mu"], "s"),
        "core.TrendFit.from_mu.calls": (calls["core.TrendFit.from_mu"], "count"),
        "core.extract_kinks.s": (incl["core.extract_kinks"], "s"),
        "simulate.run_experiment.s": (incl["simulate.run_experiment"], "s"),
        "simulate.run_replication.s": (serial_s, "s"),
        "simulate.gen_s": (incl["simulate.gen"], "s"),
        "simulate.metrics_s": (incl["simulate.metrics"], "s"),
        "simulate.pool_serial_s": (serial_s, "s"),
        "simulate.pool_wall_s": (pool_wall, "s"),
        "io.read_series.s": (incl["io.read_series"], "s"),
        "io.write_fit_csv.s": (incl["io.write_fit_csv"], "s"),
        "io.write_kkt_csv.s": (incl["io.write_kkt_csv"], "s"),
        "io.bytes_read": (c["io.bytes_read"], "bytes"),
        "io.bytes_written": (c["io.bytes_written"], "bytes"),
        "cli.fit.self_s": (self_s["cli.fit"], "s"),
        "cli.check.self_s": (self_s["cli.check"], "s"),
    }
    m = {k: (v / rounds, u) for k, (v, u) in per_round.items()}
    m["pathwise.entry_s"] = (self_s["pathwise.fit_path"] / pw_entries if pw_entries else 0.0, "s")
    m["lasso.entry_s"] = (self_s["lasso.fit_path"] / la_entries if la_entries else 0.0, "s")
    m["simulate.pool_efficiency"] = (serial_s / pool_wall if pool_wall else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        tally, extra = wl.run(state, args.seconds, tracer)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        # peak RSS first: the import probes are children of this process too
        values = {"peak_rss_mib": peak_rss_mib()}
        values["setup_s"] = import_seconds() + statistics.median(setups)
        values["ops_per_s"] = tally.attempted / tally.busy_s
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in per_layer(tracer, extra).items()}
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
    print(f"{args.workload}: {tally.attempted} operations, {tally.failed} failed "
          f"({tally.unexpected} unexpected), {tally.busy_s:.3f} s in timed calls, "
          f"{wall_s:.3f} s wall", file=sys.stderr)
    for problem, ops in sorted(tally.problems.items()):
        print(f"  failed check: {problem} ({ops} x)", file=sys.stderr)
    for kind, secs in sorted(tally.by_kind.items()):
        print(f"  {kind}: {len(secs)} x, {sum(secs):.3f} s, median {statistics.median(secs):.4f} s",
              file=sys.stderr)
    print(json.dumps({"correct": tally.unexpected == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
