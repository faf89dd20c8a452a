"""Problem instances, batching schedules, and objective evaluation.

An instance is a time-sorted sequence of samples, each carrying a feature
id.  A schedule partitions the samples, in arrival order, into consecutive
batches processed at strictly increasing times, no earlier than the last
arrival of each batch.  The objective is the per-sample average waiting
time plus the per-sample average batch processing cost.

``chunk_costs`` is the one pricer: it prices the schedules of many
equal-size instances at once, and ``cost_of`` runs its summation for one.

All types are immutable after construction; the operations are pure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .cost import CostFunction

__all__ = [
    "ProblemInstance",
    "Batch",
    "Schedule",
    "ScheduleCost",
    "StepCurve",
    "InfeasibleScheduleError",
    "cost_of",
    "chunk_costs",
    "pending_count_curve",
    "positive_excess_integral",
]


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule does not validly cover its instance."""


@dataclass(frozen=True)
class ProblemInstance:
    """Samples (arrival time, feature id), sorted by arrival time.

    Sample indices are 1-based throughout the package, matching the node
    numbering of the offline shortest-path graph.
    """

    times: tuple[float, ...]
    features: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.times) == 0:
            raise ValueError("empty instance")
        if len(self.times) != len(self.features):
            raise ValueError("times and features must have equal length")
        prev = 0.0
        for t in self.times:
            if not math.isfinite(t) or t < 0:
                raise ValueError(f"arrival times must be finite and non-negative, got {t!r}")
            if t < prev:
                raise ValueError("arrival times must be non-decreasing")
            prev = t
        if any(v < 0 for v in self.features):
            raise ValueError("feature ids must be non-negative")

    @staticmethod
    def from_times(times, feature: int = 0) -> "ProblemInstance":
        times = tuple(float(t) for t in times)
        return ProblemInstance(times, (feature,) * len(times))

    @property
    def n(self) -> int:
        return len(self.times)

    @cached_property
    def times_array(self) -> np.ndarray:
        return np.asarray(self.times, dtype=float)

    def shifted(self, delta: float) -> "ProblemInstance":
        return ProblemInstance(tuple(t + delta for t in self.times), self.features)


@dataclass(frozen=True)
class Batch:
    """Samples lo..hi (1-based, inclusive) processed together at ``time``."""

    lo: int
    hi: int
    time: float


@dataclass(frozen=True)
class Schedule:
    batches: tuple[Batch, ...]

    def validate_for(self, inst: ProblemInstance) -> None:
        """Raise InfeasibleScheduleError unless this schedule covers ``inst``.

        Valid schedules partition 1..n into consecutive ranges, use strictly
        increasing processing times, and never process a sample before it
        arrives.
        """
        if not self.batches:
            raise InfeasibleScheduleError("infeasible schedule: no batches")
        times = inst.times
        n = len(times)
        expect_lo = 1
        prev_time = -math.inf
        for b in self.batches:
            if b.lo != expect_lo or not b.lo <= b.hi <= n:
                raise InfeasibleScheduleError(
                    f"infeasible schedule: batches must partition 1..{n} consecutively "
                    f"(got [{b.lo}, {b.hi}], expected lo={expect_lo})")
            if not b.time > prev_time:
                raise InfeasibleScheduleError(
                    "infeasible schedule: processing times must be strictly increasing")
            if b.time < times[b.hi - 1]:
                raise InfeasibleScheduleError(
                    f"infeasible schedule: batch [{b.lo}, {b.hi}] processed at {b.time!r} "
                    f"before its last arrival {times[b.hi - 1]!r}")
            expect_lo = b.hi + 1
            prev_time = b.time
        if expect_lo != n + 1:
            raise InfeasibleScheduleError(
                f"infeasible schedule: covers 1..{expect_lo - 1} but instance has n={n}")

    @staticmethod
    def from_ends(ends: Sequence[int], stamps: Sequence[float]) -> "Schedule":
        """The schedule whose k-th batch ends at sample ends[k] (1-based) and
        is processed at stamps[k], with batches processed at one instant
        merged into one."""
        return Schedule(merge_coincident(
            [Batch(lo + 1, hi, t) for lo, hi, t in zip([0, *ends], ends, stamps)]))

    @property
    def m(self) -> int:
        return len(self.batches)


def merge_coincident(batches: list[Batch]) -> tuple[Batch, ...]:
    """Merge consecutive batches that share a processing time.

    Policies built from per-arrival rules can emit several batches at one
    instant when arrivals coincide; the schedule model requires strictly
    increasing times, so such batches are one batch.
    """
    merged: list[Batch] = []
    for b in batches:
        if merged and b.time == merged[-1].time:
            merged[-1] = Batch(merged[-1].lo, b.hi, b.time)
        else:
            merged.append(b)
    return tuple(merged)


@dataclass(frozen=True)
class ScheduleCost:
    """Decomposed objective: per-sample waiting, processing, and their sum."""

    waiting: float
    processing: float
    total: float


def cost_of(inst: ProblemInstance, sched: Schedule, f: CostFunction) -> ScheduleCost:
    """Objective value of ``sched`` on ``inst`` under cost function ``f``:
    one row of ``chunk_costs``, without its checks once ``validate_for``
    has passed."""
    sched.validate_for(inst)
    t = np.array([b.time for b in sched.batches], dtype=float)
    sizes = np.array([b.hi - b.lo + 1 for b in sched.batches])
    return _row_costs(inst.times_array[None], [inst.features], t, sizes, [sched.m], f)[0]


def chunk_costs(a: np.ndarray, features: Sequence[Sequence[int]], ends: Sequence[Sequence[int]],
                stamps: Sequence[Sequence[float]], f: CostFunction) -> list[ScheduleCost]:
    """The objective of T schedules, one on each row of the (T, n) arrival
    times ``a``, whose samples carry the feature ids features[t].

    Row t's k-th batch ends at sample ends[t][k] (1-based) and is processed
    at stamps[t][k]; batches processed at one instant are merged first, as
    by ``Schedule.from_ends``.  An invalid schedule raises the error of
    ``Schedule.validate_for``.
    """
    T, n = a.shape
    counts = [len(e) for e in ends]
    hi = np.fromiter(chain.from_iterable(ends), np.intp, sum(counts))
    t = np.fromiter(chain.from_iterable(stamps), float, len(hi))
    row = np.repeat(np.arange(T), counts)
    keep = np.append((t[1:] != t[:-1]) | (row[1:] != row[:-1]), True)
    hi, t, row = hi[keep], t[keep], row[keep]
    end = hi + n * row  # 1-based positions in a.ravel()
    sizes = np.diff(end, prepend=0)
    # Rising ends, none past n and one at n per row: each row's batches
    # partition 1..n, and ``sizes`` are their sizes.  Then the times must
    # rise within each row and no batch may precede its last arrival.
    valid = (np.count_nonzero(hi == n) == T and hi.max() <= n and sizes.min() >= 1
             and ((t[1:] > t[:-1]) | (row[1:] != row[:-1])).all()
             and (t >= a.ravel()[end - 1]).all())
    if not valid:
        for times, e, s in zip(a.tolist(), ends, stamps):
            Schedule.from_ends(e, s).validate_for(ProblemInstance.from_times(times))
    return _row_costs(a, features, t, sizes, (np.flatnonzero(hi == n) + 1).tolist(), f)


def _row_costs(a: np.ndarray, features: Sequence[Sequence[int]], t: np.ndarray,
               sizes: np.ndarray, tops: list[int], f: CostFunction) -> list[ScheduleCost]:
    """The pricing of ``chunk_costs``: each batch's processing time ``t``
    and size, row after row, with row r's last batch at tops[r] - 1.  Each
    row's waits and batch prices are summed exactly by ``math.fsum``, so a
    row's cost does not depend on the rows priced with it."""
    n = a.shape[1]
    # Memoryviews hand fsum the floats one at a time, without a list.
    waits = memoryview(np.repeat(t, sizes) - a.ravel())
    prices = memoryview(f.batch_costs(features, sizes))
    costs = []
    for first, lo, top in zip(range(0, a.size, n), [0, *tops], tops):
        waiting = math.fsum(waits[first:first + n]) / n
        processing = math.fsum(prices[lo:top]) / n
        costs.append(ScheduleCost(waiting, processing, waiting + processing))
    return costs


@dataclass(frozen=True)
class StepCurve:
    """Right-continuous step function: value ``counts[k]`` on
    [``times[k]``, ``times[k+1]``), and 0 outside [times[0], times[-1]).

    ``times`` is strictly increasing; ``counts`` has one fewer entry than
    ``times`` (the function returns to 0 at the final breakpoint).
    """

    times: tuple[float, ...]
    counts: tuple[int, ...]

    def integral(self) -> float:
        return math.fsum(
            c * (self.times[k + 1] - self.times[k]) for k, c in enumerate(self.counts))

    def integral_between(self, a: float, b: float) -> float:
        """Exact integral over [a, b] (piecewise-constant, no quadrature)."""
        if b <= a:
            return 0.0
        terms = []
        for k, c in enumerate(self.counts):
            lo = max(a, self.times[k])
            hi = min(b, self.times[k + 1])
            if hi > lo and c:
                terms.append(c * (hi - lo))
        return math.fsum(terms)

    def value_at(self, t: float) -> int:
        if not self.times or t < self.times[0] or t >= self.times[-1]:
            return 0
        k = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return self.counts[k] if k < len(self.counts) else 0


def pending_count_curve(inst: ProblemInstance, sched: Schedule) -> StepCurve:
    """Number of samples arrived but not yet processed, as a step function.

    The curve jumps up at each arrival and down at its batch's processing
    time; samples processed at their arrival instant never appear.  Its
    total integral equals n times the schedule's average waiting time.
    """
    sched.validate_for(inst)
    deltas: dict[float, int] = {}
    for b in sched.batches:
        d = float(b.time)
        for a_i in inst.times[b.lo - 1:b.hi]:
            if d > a_i:
                deltas[a_i] = deltas.get(a_i, 0) + 1
                deltas[d] = deltas.get(d, 0) - 1
    if not deltas:
        return StepCurve((), ())
    times = sorted(deltas)
    counts = []
    level = 0
    for t in times[:-1]:
        level += deltas[t]
        counts.append(level)
    return StepCurve(tuple(times), tuple(counts))


def positive_excess_integral(a: StepCurve, b: StepCurve) -> float:
    """Integral of max(a(t) - b(t), 0) over all time, exactly.

    Both curves are piecewise constant, so the integrand is piecewise
    constant on the merged breakpoints.
    """
    breaks = sorted(set(a.times) | set(b.times))
    terms = []
    for k in range(len(breaks) - 1):
        lo, hi = breaks[k], breaks[k + 1]
        excess = a.value_at(lo) - b.value_at(lo)
        if excess > 0:
            terms.append(excess * (hi - lo))
    return math.fsum(terms)
