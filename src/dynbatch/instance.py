"""Problem instances, batching schedules, and objective evaluation.

An instance is a time-sorted sequence of samples, each carrying a feature
id.  It checks its times in one array pass and keeps that array,
read-only, as ``times_array``: the loader and the generators hand in the
array they already hold, and the solvers and ``cost_of`` read it.  A
schedule partitions the samples, in arrival order, into consecutive
batches processed at strictly increasing times, no earlier than the last
arrival of each batch.  The objective is the per-sample average waiting
time plus the per-sample average batch processing cost.

A ``Schedule`` is two tuples: each batch's last sample and its time.
``chunk_costs`` is the one validator and pricer, in array operations over
the schedules of many equal-size instances, given as flat arrays of batch
ends, stamps and rows; ``cost_of`` and ``Schedule.validate_for`` run it on
one.  ``path_nodes`` follows a table of pointers, such as each batch's
successor, along every row at once, so that the schedules of many
instances come out in that flat form.

All types are immutable after construction; the operations are pure.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import compress
from operator import ne

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
    "path_nodes",
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

    The times are checked in one array pass, and that array is kept as
    ``times_array``: read-only, C-contiguous, and the one that every solver
    and ``cost_of`` reads.  It takes no part in equality, hashing or
    the repr.  A bad time raises the error of the first fault met reading
    the times in order.
    """

    times: tuple[float, ...]
    features: tuple[int, ...]
    times_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check(None)

    @classmethod
    def _of_array(cls, a: np.ndarray, features: tuple[int, ...]) -> "ProblemInstance":
        """The instance of the float array ``a``, checked as the constructor
        checks its times and kept as ``times_array``.  ``a`` must own its
        data: it is made read-only, not copied."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "times", tuple(a.tolist()))
        object.__setattr__(inst, "features", features)
        inst._check(a)
        return inst

    def _check(self, a: np.ndarray | None) -> None:
        """Validate the instance, with its times as the array ``a`` if given,
        and keep that array."""
        times = self.times
        if len(times) == 0:
            raise ValueError("empty instance")
        if len(times) != len(self.features):
            raise ValueError("times and features must have equal length")
        error = None
        if a is None:
            try:
                a = np.frombuffer(array("d", times))
            except (TypeError, OverflowError) as exc:
                # A time that is no real number: the times before it come first.
                error, reals = exc, array("d")
                with suppress(TypeError, OverflowError):
                    reals.extend(times)
                a = np.frombuffer(reals)
        _check_times(times, a)
        if error is not None:
            raise error
        if min(self.features) < 0:
            raise ValueError("feature ids must be non-negative")
        a.flags.writeable = False
        object.__setattr__(self, "times_array", a)

    def __reduce__(self):
        # Rebuilt by the constructor, so a copy's array is checked and read-only.
        return ProblemInstance, (self.times, self.features)

    @staticmethod
    def from_times(times, feature: int = 0) -> "ProblemInstance":
        times = tuple(float(t) for t in times)
        return ProblemInstance(times, (feature,) * len(times))

    @property
    def n(self) -> int:
        return len(self.times)

    def shifted(self, delta: float) -> "ProblemInstance":
        return ProblemInstance._of_array(self.times_array + delta, self.features)


def _check_times(times: Sequence[float], a: np.ndarray) -> None:
    """Raise unless the float array ``a`` of ``times`` is finite,
    non-negative and non-decreasing, with the error of the first of
    ``times`` that is not: a scan in order that compares each time with
    the one before it, the first with 0."""
    # Each time lies between the first and the last, and NaN fails every
    # comparison, so three comparisons cover all four conditions.
    if a.size and not (a[0] >= 0 and a[-1] < math.inf and (a[1:] >= a[:-1]).all()):
        bad = ~(a >= 0) | (a == math.inf)
        bad[1:] |= a[1:] < a[:-1]
        t = times[bad.argmax()]
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"arrival times must be finite and non-negative, got {t!r}")
        raise ValueError("arrival times must be non-decreasing")


@dataclass(frozen=True)
class Batch:
    """Samples lo..hi (1-based, inclusive) processed together at ``time``."""

    lo: int
    hi: int
    time: float


@dataclass(frozen=True)
class Schedule:
    """Consecutive batches: the k-th ends at sample ends[k] (1-based), starts
    after the one before it, and is processed at stamps[k].  Tuples keep a
    schedule hashable; ``validate_for`` checks it against an instance."""

    ends: tuple[int, ...]
    stamps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.ends) != len(self.stamps):
            raise ValueError("ends and stamps must have equal length")

    def validate_for(self, inst: ProblemInstance) -> None:
        """Raise InfeasibleScheduleError unless this schedule covers ``inst``.

        Valid schedules partition 1..n into consecutive ranges, use strictly
        increasing processing times, and never process a sample before it
        arrives.
        """
        _checked(inst.times_array[None], *self._arrays(), 0)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The ends and stamps as the arrays ``_checked`` reads."""
        m = len(self.ends)
        return np.fromiter(self.ends, np.intp, m), np.fromiter(self.stamps, float, m)

    @staticmethod
    def from_ends(ends: Sequence[int], stamps: Sequence[float]) -> "Schedule":
        """The schedule whose k-th batch ends at sample ends[k] (1-based) and
        is processed at stamps[k], with batches processed at one instant
        merged into one, as the schedule model requires strictly increasing
        times: policies emit several when arrivals coincide."""
        keep = [*map(ne, stamps, stamps[1:]), True]
        return Schedule(tuple(compress(ends, keep)), tuple(compress(stamps, keep)))

    @property
    def m(self) -> int:
        return len(self.ends)

    @property
    def batches(self) -> tuple[Batch, ...]:
        """The batches one by one, for printing and for tests."""
        return tuple(Batch(lo + 1, hi, t)
                     for lo, hi, t in zip((0, *self.ends), self.ends, self.stamps))


@dataclass(frozen=True)
class ScheduleCost:
    """Decomposed objective: per-sample waiting, processing, and their sum."""

    waiting: float
    processing: float
    total: float


def cost_of(inst: ProblemInstance, sched: Schedule, f: CostFunction) -> ScheduleCost:
    """Objective value of ``sched`` on ``inst`` under cost function ``f``:
    one row of ``chunk_costs``, with the batches taken as given, unmerged."""
    return _row_cost(inst, *sched._arrays(), f)


def _row_cost(inst: ProblemInstance, hi: np.ndarray, t: np.ndarray,
              f: CostFunction) -> ScheduleCost:
    """``cost_of`` the batches of ``inst`` that end at samples hi[k]
    (1-based) and are processed at t[k], given as arrays."""
    a = inst.times_array[None]
    sizes, waits = _checked(a, hi, t, 0)
    (waiting,), (processing,) = _row_costs(a, [inst.features], waits, sizes, [len(sizes)], f)
    return ScheduleCost(waiting, processing, waiting + processing)


def chunk_costs(a: np.ndarray, features: Sequence[Sequence[int]], ends: np.ndarray,
                stamps: np.ndarray, rows: np.ndarray,
                f: CostFunction) -> tuple[list[float], list[float]]:
    """The per-sample waiting and processing costs of T schedules, one on
    each row of the (T, n) arrival times ``a``, whose samples carry the
    feature ids features[t]; a row's objective is their sum.

    The schedules' batches come as three flat arrays, rows ascending: batch
    k ends at sample ends[k] (1-based) of row rows[k] and is processed at
    stamps[k].  Batches processed at one instant are merged first, as by
    ``Schedule.from_ends``.  An invalid schedule raises the error of
    ``Schedule.validate_for``.
    """
    n = a.shape[1]
    keep = (stamps != np.roll(stamps, -1)) | (np.diff(rows, append=len(a)) != 0)
    hi = ends[keep]
    sizes, waits = _checked(a, hi, stamps[keep], rows[keep])
    return _row_costs(a, features, waits, sizes, (np.flatnonzero(hi == n) + 1).tolist(), f)


def path_nodes(nxt: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes that the pointer table ``nxt`` reaches from ``root`` in
    each of its rows, as (rows, nodes) in row-major order: row r's node u
    points to nxt[r, u], and the path ends at the one node that points to
    itself, which is left out.

    Pointer doubling: a node's first 2^(j+1) successors are its first 2^j
    successors and the 2^j-th successors of those, so about log2 of the
    longest path's length steps, each over the whole table, mark every
    node on it.
    """
    T, m = nxt.shape
    # Flat indices throughout: row r's node u is r * m + u.
    jump = (nxt + np.arange(0, T * m, m)[:, None]).ravel()
    fixed = jump == np.arange(T * m)
    roots = np.arange(root, T * m, m)
    # jump[u] is the 2^j-th successor of u, and ``seen`` holds each root's
    # first 2^j nodes, until the root's 2^j-th successor ends the path.
    seen = roots
    while not fixed[jump[roots]].all():
        seen = np.concatenate((seen, jump[seen]))
        jump = jump[jump]
    on = np.zeros(T * m, dtype=bool)
    on[seen] = True
    on &= ~fixed
    return np.divmod(np.flatnonzero(on), m)


def _checked(a: np.ndarray, hi: np.ndarray, t: np.ndarray,
             row: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """The size of each batch on the rows of the (T, n) arrival times ``a``,
    and each sample's wait, row after row.  Batch k ends at sample hi[k]
    (1-based) of row row[k], rows ascending, or of row ``row`` if it is an
    int, and is processed at t[k].  Raises the InfeasibleScheduleError of
    the first row whose batches are not a valid schedule."""
    T, n = a.shape
    end = hi + n * row  # 1-based positions in a.ravel()
    sizes = end.copy()
    sizes[1:] -= end[:-1]
    last = hi == n
    rise = t[1:] > t[:-1]
    rise |= last[:-1]
    # Rising ends, none past n and one at n per row: each row's batches
    # partition 1..n and end at ``last``; then times rise within each row.
    # (x[x.argmin()] and count_nonzero stand for x.min() and x.all(), whose
    # Python wrappers cost more than a small instance's whole check.)
    if (np.count_nonzero(last) == T and hi[hi.argmax()] <= n and sizes[sizes.argmin()] >= 1
            and np.count_nonzero(rise) == rise.size):
        waits = t.repeat(sizes) - a.ravel()
        # Arrivals rise within a batch: no wait is negative or NaN unless
        # a batch precedes its last arrival.
        if waits[waits.argmin()] >= 0:
            return sizes, waits
    raise _first_fault(a, hi, t, row)


def _first_fault(a: np.ndarray, hi: np.ndarray, t: np.ndarray,
                 row: np.ndarray | int) -> InfeasibleScheduleError:
    """The error of the first fault met reading the rows, and each row's
    batches, in order: a row with no batches, or a batch outside the
    partition, not after the batch before it, before its last arrival, or
    last in a row that ends before n."""
    T, n = a.shape
    row = np.broadcast_to(row, hi.shape)
    first = np.diff(row, prepend=-1) != 0
    lo = np.where(first, 1, np.roll(hi, 1) + 1)
    arrival = a[row, np.clip(hi, 1, n) - 1]
    # One line per fault, in the order each batch is checked.
    faults = np.array([(hi < lo) | (hi > n), ~(t > np.where(first, -math.inf, np.roll(t, 1))),
                       t < arrival, (np.diff(row, append=T) != 0) & (hi != n)])
    bad = np.flatnonzero(faults.any(axis=0))
    empty = np.setdiff1d(np.arange(T), row)
    if empty.size and (not bad.size or empty[0] < row[bad[0]]):
        return InfeasibleScheduleError("infeasible schedule: no batches")
    k = bad[0]
    b_lo, b_hi, b_t, b_a = (x[k].item() for x in (lo, hi, t, arrival))
    return InfeasibleScheduleError("infeasible schedule: " + [
        f"batches must partition 1..{n} consecutively (got [{b_lo}, {b_hi}], expected lo={b_lo})",
        "processing times must be strictly increasing",
        f"batch [{b_lo}, {b_hi}] processed at {b_t!r} before its last arrival {b_a!r}",
        f"covers 1..{b_hi} but instance has n={n}",
    ][faults[:, k].argmax()])


def _row_costs(a: np.ndarray, features: Sequence[Sequence[int]], waits: np.ndarray,
               sizes: np.ndarray, tops: list[int],
               f: CostFunction) -> tuple[list[float], list[float]]:
    """The pricing of ``chunk_costs``: each sample's wait and each batch's
    size, row after row, with row r's last batch at tops[r] - 1.  Each
    row's waits and batch prices are summed exactly by ``math.fsum``, so a
    row's cost does not depend on the rows priced with it."""
    n = a.shape[1]
    # Memoryviews hand fsum the floats one at a time, without a list.
    waits = memoryview(waits)
    prices = memoryview(f.batch_costs(features, sizes))
    fsum = math.fsum
    return ([fsum(waits[first:first + n]) / n for first in range(0, a.size, n)],
            [fsum(prices[lo:top]) / n for lo, top in zip([0, *tops], tops)])


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
