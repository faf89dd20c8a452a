"""Timing and count wrappers on dynbatch's public functions.

Installed only for the traced run.  Each wrapper adds the wall time spent
inside the call to a busy total and counts the call; a few also count the
work the call did (rows, edges, samples, bytes).  The package itself is not
changed: the wrappers replace module attributes and one class attribute
and are removed again by ``uninstall``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

from dynbatch import adversary, io_csv, offline, online, sim
from dynbatch.online import FixedDelay, FixedSize, Wta

_POLICY_LAYER = {Wta: "online.wta", FixedSize: "online.fixed_size", FixedDelay: "online.fixed_delay"}

#: Unit of every per-layer metric, in the order they are reported.
LAYER_UNITS = {
    "sim.gen_poisson.calls": "count",
    "sim.gen_poisson.busy_s": "s",
    "sim.parallel_efficiency": "ratio",
    "offline.optimal_schedule.calls": "count",
    "offline.optimal_schedule.busy_s": "s",
    "offline.rows": "count",
    "offline.edges_relaxed": "count",
    "offline.row.busy_s": "s",
    "offline.sweep.self_s": "s",
    "cost.value_calls": "count",
    "cost.value.busy_s": "s",
    "online.run_policy.calls": "count",
    "online.wta.busy_s": "s",
    "online.fixed_size.busy_s": "s",
    "online.fixed_delay.busy_s": "s",
    "instance.cost_of.calls": "count",
    "instance.cost_of.samples": "count",
    "instance.cost_of.busy_s": "s",
    "adversary.replays": "count",
    "adversary.replayed_samples": "count",
    "adversary.replay.busy_s": "s",
    "io_csv.load_arrivals.busy_s": "s",
    "io_csv.load_arrivals.bytes": "bytes",
    "io_csv.write_results.busy_s": "s",
    "io_csv.write_results.bytes": "bytes",
    "tracing.untraced_wall_s": "s",
    "tracing.overhead_s": "s",
}


class Tracer:
    """Busy seconds and counts per layer boundary, kept in memory."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, extra=None):
        """``fn`` timed under ``name``; ``extra(args, result)`` adds work counts."""
        busy, counts, perf = self.busy, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                busy[name] += perf() - t0
                counts[name] += 1
            if extra is not None:
                extra(args, out)
            return out
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, set_function_class) -> None:
        """Wrap the package's public entry points and the ``__call__`` of
        the benchmark's own set-function class."""
        counts = self.counts

        def add_edges(args, row):
            counts["offline.edges_relaxed"] += len(row)

        def add_cost_of_samples(args, out):
            counts["instance.cost_of.samples"] += args[0].n

        def add_replayed(args, out):
            counts["adversary.replayed_samples"] += args[0].n

        def add_bytes(name, path_arg):
            def extra(args, out):
                counts[name] += os.path.getsize(args[path_arg])
            return extra

        run_policy = online.run_policy
        busy, perf = self.busy, time.perf_counter

        def traced_run_policy(inst, f, policy):
            t0 = perf()
            try:
                return run_policy(inst, f, policy)
            finally:
                busy[_POLICY_LAYER[type(policy)]] += perf() - t0
                counts["online.run_policy"] += 1

        solve = self._wrap(offline.optimal_schedule, "offline.optimal_schedule")
        for module in (offline, sim, adversary):
            self._patch(module, "optimal_schedule", solve)
        for module in (online, sim):
            self._patch(module, "run_policy", traced_run_policy)
        self._patch(adversary, "run_policy",
                    self._wrap(traced_run_policy, "adversary.replay", add_replayed))
        self._patch(sim, "gen_poisson", self._wrap(sim.gen_poisson, "sim.gen_poisson"))
        self._patch(offline.EdgeWeightOracle, "row",
                    self._wrap(offline.EdgeWeightOracle.row, "offline.row", add_edges))
        for module, name in ((offline, "offline.cost_of"), (online, "online.cost_of")):
            self._patch(module, "cost_of", self._wrap(module.cost_of, name, add_cost_of_samples))
        self._patch(io_csv, "load_arrivals",
                    self._wrap(io_csv.load_arrivals, "io_csv.load_arrivals",
                               add_bytes("io_csv.load_arrivals.bytes", 0)))
        self._patch(io_csv, "write_results",
                    self._wrap(io_csv.write_results, "io_csv.write_results",
                               add_bytes("io_csv.write_results.bytes", 1)))
        self._patch(set_function_class, "__call__",
                    self._wrap(set_function_class.__call__, "cost.value"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the parallel efficiency and the
        ``tracing.*`` ones, which the caller measures around the passes."""
        b, c = self.busy, self.counts
        return {
            "sim.gen_poisson.calls": c["sim.gen_poisson"],
            "sim.gen_poisson.busy_s": b["sim.gen_poisson"],
            "offline.optimal_schedule.calls": c["offline.optimal_schedule"],
            "offline.optimal_schedule.busy_s": b["offline.optimal_schedule"],
            "offline.rows": c["offline.row"],
            "offline.edges_relaxed": c["offline.edges_relaxed"],
            "offline.row.busy_s": b["offline.row"],
            # Rows and cost_of are the only timed calls made inside the solve.
            "offline.sweep.self_s": (b["offline.optimal_schedule"] - b["offline.row"]
                                     - b["offline.cost_of"]),
            "cost.value_calls": c["cost.value"],
            "cost.value.busy_s": b["cost.value"],
            "online.run_policy.calls": c["online.run_policy"],
            "online.wta.busy_s": b["online.wta"],
            "online.fixed_size.busy_s": b["online.fixed_size"],
            "online.fixed_delay.busy_s": b["online.fixed_delay"],
            "instance.cost_of.calls": c["offline.cost_of"] + c["online.cost_of"],
            "instance.cost_of.samples": c["instance.cost_of.samples"],
            "instance.cost_of.busy_s": b["offline.cost_of"] + b["online.cost_of"],
            "adversary.replays": c["adversary.replay"],
            "adversary.replayed_samples": c["adversary.replayed_samples"],
            "adversary.replay.busy_s": b["adversary.replay"],
            "io_csv.load_arrivals.busy_s": b["io_csv.load_arrivals"],
            "io_csv.load_arrivals.bytes": c["io_csv.load_arrivals.bytes"],
            "io_csv.write_results.busy_s": b["io_csv.write_results"],
            "io_csv.write_results.bytes": c["io_csv.write_results.bytes"],
        }
