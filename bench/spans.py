"""In-memory span tracing from outside the program.

A traced run replaces, for its duration, the names each ``trendfilter``
module binds from another (``check_kkt`` as ``pathwise``, ``lasso`` and
``cli`` see it; ``io.read_series`` as ``cli`` calls it; ``DesignZ.dense`` on
the class) with wrappers that record one span per call: name, start, end,
parent span and the operation it belongs to. Spans stay in memory until the
run writes them out. Self time is a span's duration minus the time its
direct children cover; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from trendfilter import cli, core, design, io, kkt, lasso, pathwise, selection, simulate


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return traced

    def patch(self, owner, attr, name, on_result=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            # bound to the class here; the wrapper is stored as a plain static callable
            setattr(owner, attr, staticmethod(self.wrap(name, getattr(owner, attr), on_result)))
        else:
            setattr(owner, attr, self.wrap(name, raw, on_result))

    def install(self):
        """Wrap every layer boundary the workloads cross."""
        for mod in (kkt, pathwise, lasso, cli):
            self.patch(mod, "check_kkt", "kkt.check_kkt", _count_rejected)
        for mod in (kkt, pathwise, cli, simulate):
            self.patch(mod, "lambda_max", "kkt.lambda_max")
        self.patch(pathwise, "fit", "pathwise.fit", _count_nonconverged_fit)
        self.patch(pathwise, "fit_path", "pathwise.fit_path", _count_nonconverged_path)
        self.patch(lasso, "fit_path", "lasso.fit_path", _count_lasso_path)
        self.patch(lasso, "budget_path", "lasso.budget_path")
        self.patch(design.DesignZ, "dense", "design.DesignZ.dense", _count_dense)
        self.patch(core.TrendFit, "from_mu", "core.TrendFit.from_mu")
        for mod in (core, selection, cli, simulate):
            self.patch(mod, "extract_kinks", "core.extract_kinks")
        for mod in (selection, cli, simulate):
            self.patch(mod, "select", "selection.select")
        self.patch(selection, "score", "selection.score")
        self.patch(io, "read_series", "io.read_series", _count_read)
        self.patch(io, "write_fit_csv", "io.write_fit_csv", _count_written)
        self.patch(io, "write_kkt_csv", "io.write_kkt_csv", _count_written)
        self.patch(simulate, "run_experiment", "simulate.run_experiment")
        self.patch(simulate, "run_replication", "simulate.run_replication")
        for fn in ("gen_trend", "add_noise"):
            self.patch(simulate, fn, "simulate.gen")
        for fn in ("relative_error", "hausdorff", "sign_consistency", "near_kink_small_count"):
            self.patch(simulate, fn, "simulate.metrics")

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def cli_main(self, argv):
        """``cli.main`` inside a span named after its subcommand."""
        return self.wrap(f"cli.{argv[0]}", cli.main)(argv)

    # -- reduction

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            calls[name] += 1
        return incl, self_s, calls

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _count_rejected(counts, args, kwargs, report):
    counts["kkt.check_kkt.rejected"] += not report.passed


def _count_nonconverged_fit(counts, args, kwargs, fit):
    counts["pathwise.nonconverged"] += not fit.converged
    counts["pathwise.fit.entries"] += 1


def _count_nonconverged_path(counts, args, kwargs, path):
    counts["pathwise.nonconverged"] += sum(not e.fit.converged for e in path.entries)
    counts["pathwise.fit_path.entries"] += len(path)


def _count_lasso_path(counts, args, kwargs, path):
    counts["lasso.fit_path.entries"] += len(path)


def _count_dense(counts, args, kwargs, z):
    counts["design.dense_mib"] += z.shape[0] * z.shape[1] * 8 / 2**20


def _count_read(counts, args, kwargs, series):
    counts["io.bytes_read"] += os.path.getsize(args[0])


def _count_written(counts, args, kwargs, result):
    counts["io.bytes_written"] += os.path.getsize(args[0])
