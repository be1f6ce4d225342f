#!/usr/bin/env python3
"""Show that each of the benchmark's output checks can fail.

    python3 bench/selftest.py

Every check is run twice: on an output the program produced, which it must
accept, and on the same output made wrong in the smallest way the check is
meant to catch, which it must reject. Exits 1 if any check accepts a wrong
output or rejects a right one.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from trendfilter import lasso, pathwise  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402


def with_entry(path, i, mu, y):
    """``path`` with entry i's fit replaced by ``mu``."""
    return type(path)(tuple(
        type(e)(e.lam, type(e.fit).from_mu(y, mu, e.lam), e.warm_start, e.kkt) if k == i else e
        for k, e in enumerate(path.entries)))


def shifted(path, source):
    """``path`` with each entry's fit taken from the next rung of ``source``."""
    last = len(source.entries) - 1
    return type(path)(tuple(
        type(e)(e.lam, source.entries[min(k + 1, last)].fit, e.warm_start, e.kkt)
        for k, e in enumerate(path.entries)))


def main() -> int:
    results = []

    def expect(name, accepted, rejected):
        ok = bool(accepted) and not rejected
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: right output "
              f"{'accepted' if accepted else 'REJECTED'}, wrong output "
              f"{'ACCEPTED' if rejected else 'rejected'}")

    def passes(y, out, reference=None):
        return not workloads.path_problems(y, *out, reference=reference)

    y = inputs.noisy_series("example2", 120, 400.0, (7, 0))
    grid, path, lam, kinks = out = workloads.route_op(lasso, y)
    mus = [e.fit.mu_hat for e in path.entries]
    scale = checks.scale_of(y)
    mid = len(mus) // 2

    # KKT test: one entry with one point moved by 1e-6 * (1 + max|y|)
    bent = mus[mid].copy()
    bent[y.size // 2] += 1e-6 * scale
    expect("KKT test, one point moved",
           checks.kkt_ok(y, mus[mid], grid[mid]), checks.kkt_ok(y, bent, grid[mid]))

    # the whole-path check sees the same change through its KKT step
    expect("path check, one entry moved at one point",
           passes(y, out), passes(y, (grid, with_entry(path, mid, bent, y), lam, kinks)))

    # selection: the neighbouring entry is not the MC argmin
    i = [e.lam for e in path.entries].index(lam)
    neighbour = grid[i + 1] if i + 1 < len(grid) else grid[i - 1]
    expect("MC selection, neighbouring entry claimed",
           passes(y, out), passes(y, (grid, path, neighbour, kinks)))

    # route agreement: the other route's path shifted by one rung
    other = workloads.route_op(pathwise, y)[1]
    expect("route agreement, reference one rung away",
           passes(y, out, reference=other), passes(y, out, reference=shifted(other, path)))

    # the pathwise operation on its fixed series may fail only by the recorded
    # fault; any other wrong output counts as unexpected
    known = workloads.PATHWISE_KNOWN[0]
    fy = inputs.noisy_series(*workloads.PATHWISE_FIXED[0])
    ref = workloads.route_op(lasso, fy)[1]
    fgrid, fpath, flam, fkinks = fout = workloads.route_op(pathwise, fy)
    fbent = fpath.entries[30].fit.mu_hat.copy()
    fbent[fy.size // 2] += 1e-6 * checks.scale_of(fy)
    for what, wrong in (
            ("one other entry moved at one point",
             (fgrid, with_entry(fpath, 30, fbent, fy), flam, fkinks)),
            ("lasso path one rung away in its place", (fgrid, shifted(fpath, ref), flam, fkinks))):
        expect(f"pathwise fixed series, {what}",
               not workloads.unexpected(workloads.path_problems(fy, *fout, reference=ref), known),
               not workloads.unexpected(workloads.path_problems(fy, *wrong, reference=ref), known))

    # planted minimiser: mu* shifted by 1e-6 * (1 + max|y|)
    s = inputs.short_round(7, 0)[2]
    fit = pathwise.fit(s.y, s.lam, pathwise.PathwiseOptions(sweep_tol=1e-9))
    moved = s.mu_star + 1e-6 * checks.scale_of(s.y)
    expect("planted minimiser, mu* shifted",
           checks.close(fit.mu_hat, s.mu_star, checks.PLANTED_TOL, s.y),
           checks.close(fit.mu_hat, moved, checks.PLANTED_TOL, s.y))

    # simulate aggregates: one replication's row changed
    config = workloads.sim_config(7, 1)
    result = workloads.simulate.run_experiment(config, workers=1)
    rows = list(result.rows)
    rows[0] = type(rows[0])(**{**rows[0].__dict__, "re": rows[0].re * (1 + 1e-9)})
    changed = type(result)(result.config, tuple(rows), result.flagged, result.aggregate)
    expect("simulate aggregates, one row changed",
           workloads.experiment_ok(config, result), workloads.experiment_ok(config, changed))

    print(f"{sum(results)} of {len(results)} checks accept right and reject wrong outputs")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
