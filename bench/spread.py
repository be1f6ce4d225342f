#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload path --seeds 1-10 [--seconds 20] [--trace 0]

For every metric: the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, which is the distance between the quartiles as a share of the
median. Run from the root of a checkout. Each run's stderr summary and JSON
line are echoed as they finish.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        sys.stdout.write(out.stderr)
        line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        print(f"seed {seed}: exit {out.returncode} in {wall:.1f} s {line}", flush=True)
        if out.returncode != 0 or not line:
            return 1
        results.append(json.loads(line))
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload}: all correct={all(r['correct'] for r in results)}, "
          f"failed shares={sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:28s} median {med:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
