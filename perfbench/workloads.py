"""The benchmark's workloads: how each makes its inputs from the seed, what
one measured operation is, and how its outputs are checked.

Each workload is built on a package object: the dynbatch under test, or the
frozen copy of it that serves as the timing reference.  An operation that
raises is a failed op; an output that a check rejects is a failed op and
makes the run incorrect.  Each op's output is checked and reduced to a small
digest right after it is timed, so memory does not grow with the number of
ops; checks against a reference that is expensive to compute run once, after
the timed loop.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

GOLDEN_SHA256 = Path(__file__).resolve().parent / "golden_study.sha256"

REL_TOL = 1e-9


@dataclass
class Op:
    kind: str
    seconds: float
    result: object = None
    #: The exception the operation raised, if any.
    error: str | None = None
    #: Why a check rejected the output, if it did.
    wrong: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None

    def outcome(self) -> tuple:
        """What must be identical between the traced and untraced runs."""
        return self.kind, self.result, self.error


def timed(kind: str, fn, *args, reduce=None) -> Op:
    """Run ``fn(*args)`` as one op; outside the timing, ``reduce(result)``
    returns the digest to keep and the reason the output is wrong, if any."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # the benchmark counts a failing op and goes on
        return Op(kind, time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    op = Op(kind, time.perf_counter() - t0, result)
    if reduce is not None:
        op.result, op.wrong = reduce(result)
    return op


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


class Workload:
    """Base: ``setup`` makes the inputs, ``calls(k)`` are the timed calls
    of operation k, ``check`` marks wrong outputs and returns any extra
    checked ops."""

    #: Op kinds timed for ``speed_vs_baseline``; together they make one unit
    #: of the raw ops-per-second rate printed on the log line.
    timed_kinds: tuple[str, ...] = ()
    #: Operations in the traced run, which does a fixed amount of work.
    traced_ops = 1
    #: Worker processes for the parallel pass of the traced run and for the
    #: checks that compare parallel with serial results; 1 if none.
    parallel_workers = 1

    def __init__(self, pkg, seed: int, workdir: Path, smoke: bool) -> None:
        #: The package the ops call: ``dynbatch`` or its frozen copy.
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        #: Worker processes the ops use: 1 except in the parallel pass.
        self.workers = 1

    def setup(self) -> None:
        raise NotImplementedError

    def calls(self, k: int) -> list:
        """Operation k's calls, each a function of no arguments returning an Op."""
        raise NotImplementedError

    def op(self, k: int) -> list[Op]:
        return [call() for call in self.calls(k)]

    def check(self, ops: list[Op]) -> list[Op]:
        return []

    def describe(self, ops: list[Op]) -> str:
        """The figures named in the workload's design, for the log."""
        raise NotImplementedError


def _median_seconds(ops: list[Op], kind: str) -> float:
    return statistics.median(op.seconds for op in ops if op.kind == kind and op.error is None)


POLICY_SPECS = ("wta:0.5", "wta:0.707107", "fixed-size:4", "fixed-delay:0.5")
N_VALUES = (25, 50, 100)
#: The fixed study whose results CSV must hash to GOLDEN_SHA256.
GOLDEN_TRIALS = 100
GOLDEN_SEED = 1


class Study(Workload):
    """run_study on the criterion-4 grid, then write_results."""

    timed_kinds = ("study",)
    traced_ops = 10

    def __init__(self, pkg, seed, workdir, smoke):
        super().__init__(pkg, seed, workdir, smoke)
        # Short ops: the frozen reference then runs close in time to each op.
        self.trials = 5 if smoke else 50
        self.parallel_workers = min(2, os.cpu_count() or 1)

    def setup(self):
        pkg = self.pkg
        self.cost = pkg.SqrtCount()
        self.rates = (pkg.ConstantRate(2.0),)
        self.policies = tuple(pkg.parse_policy_spec(s) for s in POLICY_SPECS)
        gamma = pkg.curvature(self.cost)
        self.bounds = {p.spec_string(): pkg.competitive_ratio_bound(p.alpha, gamma)
                       for p in self.policies if isinstance(p, pkg.Wta)}

    def _study(self, master_seed, trials, workers, path):
        records = self.pkg.sim.run_study(
            rates=self.rates, policies=self.policies, cost_fn=self.cost, trials=trials,
            seed=master_seed, n_values=N_VALUES, parallelism=workers)
        self.pkg.io_csv.write_results(records, path)
        return records

    def _timed_study(self, kind, master_seed, trials, workers):
        path = self.workdir / f"{kind}.csv"

        def reduce(records):
            return hashlib.sha256(path.read_bytes()).hexdigest(), self._wrong_record(records)
        return timed(kind, self._study, master_seed, trials, workers, path, reduce=reduce)

    def _master_seed(self, k):
        return 1000 * self.seed + k

    def calls(self, k):
        return [partial(self._timed_study, "study", self._master_seed(k), self.trials,
                        self.workers)]

    def _wrong_record(self, records) -> str | None:
        for r in records:
            if math.isnan(r.ratio):
                return f"{r.trial} {r.policy}: NaN record"
            # J_opt and J are separate float sums of the same kind of terms.
            if r.J_opt > r.J * (1 + 1e-12):
                return f"{r.trial} {r.policy}: J_opt {r.J_opt!r} > J {r.J!r}"
            bound = self.bounds.get(r.policy)
            if bound is not None and r.ratio > bound * (1 + REL_TOL):
                return f"{r.trial} {r.policy}: ratio {r.ratio!r} > bound {bound!r}"
        return None

    def check(self, ops):
        first = ops[0]
        if self.parallel_workers > 1 and not first.failed:
            parallel = self._timed_study("parallel", self._master_seed(0), self.trials,
                                         self.parallel_workers)
            if parallel.result != first.result:
                first.wrong = "serial and parallel results CSVs differ"
        # Recorded from a serial run; made here at the parallel worker count.
        golden = self._timed_study("golden", GOLDEN_SEED, GOLDEN_TRIALS, self.parallel_workers)
        want = GOLDEN_SHA256.read_text().strip()
        if not golden.failed and golden.result != want:
            golden.wrong = f"golden results CSV sha256 {golden.result} != recorded {want}"
        return [golden]

    def describe(self, ops):
        times = [op.seconds for op in ops if op.kind == "study" and op.error is None]
        trials = len(N_VALUES) * self.trials
        return f"study_trials_per_s {trials * len(times) / sum(times):.1f} ({trials} per study)"


SETCOST_FEATURES = 8


class DistinctPlusSqrt:
    """f(X) = (number of distinct features in X) + sqrt(|X|)."""

    def __call__(self, x) -> float:
        return len(x.counts) + math.sqrt(len(x))


def _schedule_digest(result):
    sched, cost = result
    return (cost.total, hash(sched)), None


def _setcost_digest(result):
    opt, wta, delay = result
    wrong = f"wta:0.5 ratio {wta.total / opt.total!r} > 3" if wta.total > 3 * opt.total else None
    return (opt.total, wta.total, delay.total), wrong


def _day_trace(sim, n, seed):
    return sim.gen_poisson(sim.SinusoidRate(2.0, 1.5, 86400.0), n, seed)


def _epoch_scale_gap(pkg) -> str | None:
    """The optimum of a day trace at epoch-scale timestamps must equal the
    dual recursion's lambda_1; the prefix sums of ~1.7e9 s timestamps lose
    the digits that decide it."""
    day = _day_trace(pkg.sim, 2000, 1).shifted(1.7e9)
    _, cost = pkg.offline.optimal_schedule(day, pkg.SqrtCount())
    lam1 = pkg.offline.dual_recursion(day, pkg.SqrtCount()).lambdas[0]
    if _rel_close(cost.total, lam1):
        return None
    return (f"optimum {cost.total!r} != dual lambda_1 {lam1!r} "
            f"(relative gap {abs(cost.total - lam1) / cost.total:.3g})")


def _short_table(pkg) -> str | None:
    """A count table shorter than the trace, sqrt(0..64), although no
    optimal batch comes near 64 samples: the full-row solver rejects it."""
    table = pkg.CountTable(tuple(math.sqrt(k) for k in range(65)))
    try:
        pkg.offline.optimal_schedule(_day_trace(pkg.sim, 2000, 1), table)
    except ValueError as exc:
        return f"CountTable(sqrt(0..64)) solve raises ValueError: {exc}"
    return None


#: Probes of defects that the workloads leave out, because a workload's
#: operations must not fail; each returns what is wrong, or None once fixed.
DEFECT_PROBES = {"epoch_scale_trace": _epoch_scale_gap, "short_cost_table": _short_table}


def known_defects(pkg) -> dict[str, str]:
    """The probed defects still present in ``pkg``."""
    found = {name: probe(pkg) for name, probe in DEFECT_PROBES.items()}
    return {name: problem for name, problem in found.items() if problem is not None}


class TraceSetCost(Workload):
    """Offline solves: one day-scale trace from CSV file to optimal schedule
    under sqrt, then one trial under a feature-dependent set-function cost."""

    timed_kinds = ("sqrt", "trial")
    traced_ops = 2

    def __init__(self, pkg, seed, workdir, smoke):
        super().__init__(pkg, seed, workdir, smoke)
        self.n_trace = 1000 if smoke else 20000
        self.n_setcost = 60 if smoke else 400
        self.pool_size = 4
        self.path = workdir / "trace.csv"
        self.sqrt = pkg.SqrtCount()
        self.f = pkg.CustomSetFunction(DistinctPlusSqrt(), SETCOST_FEATURES, name="distinct+sqrt")
        self.wta, self.delay = pkg.Wta(0.5), pkg.FixedDelay(0.5)

    def setup(self):
        sim = self.pkg.sim
        self.pkg.io_csv.save_arrivals(_day_trace(sim, self.n_trace, self.seed), self.path)
        self.validation = self.pkg.validate_assumption1(self.f, universe_size=SETCOST_FEATURES)
        sample = lambda rng, t: int(rng.integers(SETCOST_FEATURES))
        self.pool = [sim.gen_poisson(sim.ConstantRate(20.0), self.n_setcost, 1000 * self.seed + i,
                                     feature_sampler=sample)
                     for i in range(self.pool_size)]

    def _solve(self, f):
        return self.pkg.offline.optimal_schedule(self.pkg.io_csv.load_arrivals(self.path), f)

    def _trial(self, inst):
        offline, online = self.pkg.offline, self.pkg.online
        _, opt = offline.optimal_schedule(inst, self.f)
        _, wta = online.run_policy(inst, self.f, self.wta)
        _, delay = online.run_policy(inst, self.f, self.delay)
        return opt, wta, delay

    def calls(self, k):
        return [partial(timed, "sqrt", self._solve, self.sqrt, reduce=_schedule_digest),
                partial(timed, "trial", self._trial, self.pool[k % self.pool_size],
                        reduce=_setcost_digest)]

    def check(self, ops):
        for name, problem in known_defects(self.pkg).items():
            print(f"KNOWN DEFECT {name}: {problem}")
        offline = self.pkg.offline
        day = self.pkg.io_csv.load_arrivals(self.path)
        day_lam1 = offline.dual_recursion(day, self.sqrt).lambdas[0]
        _, day_wta = self.pkg.online.run_policy(day, self.sqrt, self.wta)
        trials = [op for op in ops if op.kind == "trial"]
        used = {k % self.pool_size for k in range(len(trials))}
        pool_lam1 = {i: offline.dual_recursion(self.pool[i], self.f).lambdas[0] for i in used}
        for op in ops:
            if op.kind == "sqrt" and not op.failed:
                total = op.result[0]
                if not _rel_close(total, day_lam1):
                    op.wrong = (f"optimum {total!r} != dual lambda_1 {day_lam1!r} "
                                f"(relative gap {abs(total - day_lam1) / total:.3g})")
                elif day_wta.total > 3 * total:
                    op.wrong = f"wta:0.5 ratio {day_wta.total / total!r} > 3"
        for k, op in enumerate(trials):
            lam1 = pool_lam1[k % self.pool_size]
            if op.failed:
                continue
            if not self.validation.ok:
                op.wrong = f"cost violates Assumption 1: {self.validation.violations[0]}"
            elif not _rel_close(op.result[0], lam1):
                op.wrong = f"optimum {op.result[0]!r} != dual lambda_1 {lam1!r}"
        return []

    def describe(self, ops):
        return (f"trace_solve_s {_median_seconds(ops, 'sqrt'):.4f} (n={self.n_trace}), "
                f"setcost_trials_per_s {1 / _median_seconds(ops, 'trial'):.3f} "
                f"(n={self.n_setcost})")


class Adversary(Workload):
    """run_adversary(wta:0.5, const:1) with 1+1 groups.  The construction
    is deterministic: the seed does not change it."""

    timed_kinds = ("adversary",)
    traced_ops = 2

    def __init__(self, pkg, seed, workdir, smoke):
        super().__init__(pkg, seed, workdir, smoke)
        self.rounds = 40 if smoke else 400

    def setup(self):
        pkg = self.pkg
        one = pkg.FeatureMultiset.of_size(1)
        self.cfg = pkg.AdversaryConfig(x1=one, x2=one, rounds=self.rounds, epsilon=1e-6)
        self.policy, self.cost = pkg.Wta(0.5), pkg.ConstantCost(1.0)

    def _digest(self, report):
        want = 2.0 * 2.0 / (2.0 + 1.0 / self.rounds) - 1e-3
        wrong = None if report.ratio_vs_avg >= want else (
            f"adversary ratio {report.ratio_vs_avg!r} < {want!r}")
        return (report.ratio_vs_avg, report.opt_exact, hash(report.schedule)), wrong

    def calls(self, k):
        return [partial(timed, "adversary", self.pkg.adversary.run_adversary, self.policy,
                        self.cost, self.cfg, reduce=self._digest)]

    def describe(self, ops):
        return f"adversary_s {_median_seconds(ops, 'adversary'):.4f} ({self.rounds} rounds)"


WORKLOADS = {
    "study": Study,
    "trace-setcost": TraceSetCost,
    "adversary": Adversary,
}
