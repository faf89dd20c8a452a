"""Problem instances, batching schedules, and objective evaluation.

An instance is a time-sorted sequence of samples, each carrying a feature
id.  Its times are one read-only float array, checked in one array pass,
which the solvers and ``cost_of`` read.  A schedule partitions the
samples, in arrival order, into consecutive batches processed at strictly
increasing times, no earlier than the last arrival of each batch.  The
objective is the per-sample average waiting time plus the per-sample
average batch processing cost.

A ``Schedule`` is two read-only arrays: each batch's last sample and its
time.  Equality, hashing and the repr of both read their arrays as the
tuples of their values.  Many instances are flat rows: all arrival times,
row after row, in one array, and each row's length.  ``chunk_costs`` is
the one validator and pricer, in array operations over the schedules of
flat rows, given as flat arrays of batch ends, stamps and rows;
``cost_of`` and ``Schedule.validate_for`` run it on one.  ``path_nodes``
follows a table of pointers, such as each batch's successor, along every
row at once, so that the schedules come out in that flat form.

All types are immutable after construction; the operations are pure.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from contextlib import suppress
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .cost import CostFunction

__all__ = [
    "ProblemInstance",
    "Schedule",
    "ScheduleCost",
    "InfeasibleScheduleError",
    "cost_of",
    "chunk_costs",
    "path_nodes",
    "searchsorted_rows",
]


class InfeasibleScheduleError(ValueError):
    """Raised when a schedule does not validly cover its instance."""


class _Tuples:
    """Equality, hashing, the repr and copies of a frozen dataclass whose
    array fields read as the tuples of their values (``tolist()``): objects
    are equal, and hash alike, when those tuples are, and an object equals
    itself even holding NaN, as a tuple does.  Equality compares the arrays
    element by element, as the tuples would, and the hash, of the tuples,
    is taken once.  A copy is rebuilt by the constructor, so its arrays are
    its own and read-only."""

    def _keep(self, name: str, a: np.ndarray) -> None:
        a.flags.writeable = False
        object.__setattr__(self, name, a)

    def _values(self) -> tuple:
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return other is self or all(
            len(a) == len(b) and bool((a == b).all()) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs)

    def __hash__(self) -> int:
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash(self._values()))
        return self._hash

    def __repr__(self) -> str:
        args = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(self), self._values()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False, repr=False)
class ProblemInstance(_Tuples):
    """Samples (arrival time, feature id), sorted by arrival time.

    Sample indices are 1-based throughout the package, matching the node
    numbering of the offline shortest-path graph.

    ``times`` is the read-only, C-contiguous float array of the arrival
    times, a copy of those given, checked in one array pass; a bad time
    raises the error of the first fault met reading the times in order.
    """

    times: np.ndarray
    features: tuple[int, ...]

    def __post_init__(self) -> None:
        times, features = self.times, self.features
        if len(times) == 0:
            raise ValueError("empty instance")
        if len(times) != len(features):
            raise ValueError("times and features must have equal length")
        error = None
        try:
            a = (np.array(times, dtype=float) if isinstance(times, np.ndarray)
                 else np.frombuffer(array("d", times)))
        except (TypeError, OverflowError) as exc:
            # A time that is no real number: the times before it come first.
            error, reals = exc, array("d")
            with suppress(TypeError, OverflowError):
                reals.extend(times)
            a = np.frombuffer(reals)
        _check_times(times, a)
        if error is not None:
            raise error
        if min(features) < 0:
            raise ValueError("feature ids must be non-negative")
        self._keep("times", a)

    @staticmethod
    def from_times(times) -> "ProblemInstance":
        """The instance of ``times``, every sample with feature 0."""
        times = [float(t) for t in times]
        return ProblemInstance(times, (0,) * len(times))

    @property
    def n(self) -> int:
        return len(self.times)

    def shifted(self, delta: float) -> "ProblemInstance":
        return ProblemInstance(self.times + delta, self.features)


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
        k = bad.argmax()
        t = a[k].item() if isinstance(times, np.ndarray) else times[k]
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"arrival times must be finite and non-negative, got {t!r}")
        raise ValueError("arrival times must be non-decreasing")


@dataclass(frozen=True, eq=False, repr=False)
class Schedule(_Tuples):
    """Consecutive batches: the k-th ends at sample ends[k] (1-based), starts
    after the one before it, and is processed at stamps[k].  ``ends`` and
    ``stamps`` are read-only integer and float arrays, copies of those
    given; ``validate_for`` checks a schedule against an instance."""

    ends: np.ndarray
    stamps: np.ndarray

    def __post_init__(self) -> None:
        if len(self.ends) != len(self.stamps):
            raise ValueError("ends and stamps must have equal length")
        self._keep("ends", np.array(self.ends, dtype=np.intp))
        self._keep("stamps", np.array(self.stamps, dtype=float))

    def validate_for(self, inst: ProblemInstance) -> None:
        """Raise InfeasibleScheduleError unless this schedule covers ``inst``.

        Valid schedules partition 1..n into consecutive ranges, use strictly
        increasing processing times, and never process a sample before it
        arrives.
        """
        _checked(inst.times, [inst.n], self.ends, self.stamps, 0)

    @staticmethod
    def from_ends(ends: Sequence[int], stamps: Sequence[float]) -> "Schedule":
        """The schedule whose k-th batch ends at sample ends[k] (1-based) and
        is processed at stamps[k], with batches processed at one instant
        merged into one, as the schedule model requires strictly increasing
        times: policies emit several when arrivals coincide."""
        sched = Schedule(ends, stamps)
        t = sched.stamps
        keep = t != np.append(t[1:], math.nan)
        return sched if keep.all() else Schedule(sched.ends[keep], t[keep])


@dataclass(frozen=True)
class ScheduleCost:
    """Decomposed objective: per-sample waiting, processing, and their sum."""

    waiting: float
    processing: float
    total: float


def cost_of(inst: ProblemInstance, sched: Schedule, f: CostFunction) -> ScheduleCost:
    """Objective value of ``sched`` on ``inst`` under cost function ``f``:
    one row of ``chunk_costs``, with the batches taken as given, unmerged."""
    sizes, waits, _ = _checked(inst.times, [inst.n], sched.ends, sched.stamps, 0)
    (waiting,), (processing,) = _row_costs([inst.n], [inst.features], waits, sizes, [len(sizes)],
                                           f)
    return ScheduleCost(waiting, processing, waiting + processing)


def chunk_costs(a: np.ndarray, lengths: np.ndarray, features: Sequence[Sequence[int]] | None,
                ends: np.ndarray, stamps: np.ndarray, rows: np.ndarray,
                f: CostFunction) -> tuple[list[float], list[float]]:
    """The per-sample waiting and processing costs of T schedules, one on
    each of the flat rows ``a`` of ``lengths``, whose samples carry the
    feature ids features[t] (None for a count cost, which reads none); a
    row's objective is their sum.

    The schedules' batches come as three flat arrays, rows ascending: batch
    k ends at sample ends[k] (1-based) of row rows[k] and is processed at
    stamps[k].  Batches processed at one instant are merged first, as by
    ``Schedule.from_ends``.  An invalid schedule raises the error of
    ``Schedule.validate_for``.
    """
    keep = (stamps != np.roll(stamps, -1)) | (np.diff(rows, append=len(lengths)) != 0)
    sizes, waits, last = _checked(a, lengths, ends[keep], stamps[keep], rows[keep])
    return _row_costs(lengths.tolist(), features, waits, sizes,
                      (np.flatnonzero(last) + 1).tolist(), f)


def path_nodes(nxt: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """The nodes that the pointer table ``nxt`` reaches from each of
    ``roots``, ascending: node u points to nxt[u], and a path ends at the
    first node that points to itself, which is on it.

    Pointer doubling: a node's first 2^(j+1) successors are its first 2^j
    successors and the 2^j-th successors of those, so about log2 of the
    longest path's length steps, each over the whole table, mark every
    node on it.
    """
    fixed = nxt == np.arange(len(nxt))
    # jump[u] is the 2^j-th successor of u, and ``seen`` holds each root's
    # first 2^j nodes, until the root's 2^j-th successor ends the path.
    jump, seen = nxt, roots
    while not fixed[jump[roots]].all():
        seen = np.concatenate((seen, jump[seen]))
        jump = jump[jump]
    on = np.zeros(len(nxt), dtype=bool)
    on[seen] = True
    on[jump[roots]] = True
    return np.flatnonzero(on)


#: Rows of at most this many samples on average are searched at once.
#: Searched at once and row by row, 150 rows of about 60 samples took 0.37
#: and 0.50 ms, rows of 100 tied, and 250 rows of 1000 took 21 and 6.5 ms;
#: one row of 20000 took 1.2 ms at once and 0.5 ms alone (2-vCPU host,
#: numpy 2.4).
_JOINT_SEARCH_MEAN = 100


def searchsorted_rows(a: np.ndarray, lengths: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(row, x[k], side="right")`` in the row of each flat
    sample k of the sorted flat rows ``a`` of ``lengths``, as a flat index.
    A NaN x[k] lies past its row, as numpy sorts it.  Several short rows
    are searched at once, as the keys row + 1j * a, which numpy orders by
    row, then by time, exactly; one row, or long ones, row by row."""
    if len(lengths) == 1:
        return np.searchsorted(a, x, side="right")
    if len(a) > _JOINT_SEARCH_MEAN * len(lengths):
        ends = np.cumsum(lengths).tolist()
        return np.concatenate([np.searchsorted(a[lo:hi], x[lo:hi], side="right") + lo
                               for lo, hi in zip([0, *ends], ends)])
    keys = np.empty((2, len(a)), dtype=complex)
    keys.real = np.repeat(np.arange(len(lengths)), lengths)
    keys[0].imag = a
    # A NaN part would sort past every row; inf stays in the row.
    keys[1].imag = np.where(np.isnan(x), math.inf, x)
    return np.searchsorted(keys[0], keys[1], side="right")


def _checked(a: np.ndarray, lengths, hi: np.ndarray, t: np.ndarray,
             row: np.ndarray | int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size of each batch on the flat rows of arrival times ``a`` of
    ``lengths``, each sample's wait, row after row, and whether each batch
    is the last of its row.  Batch k ends at sample hi[k] (1-based) of row
    row[k], rows ascending, or of the one row if ``row`` is 0 (``lengths``
    then a list), and is processed at t[k].  Raises the
    InfeasibleScheduleError of the first row whose batches are not a valid
    schedule."""
    n = lengths[row]
    # 1-based positions in a
    end = hi if isinstance(row, int) else hi + (np.cumsum(lengths) - lengths)[row]
    sizes = end.copy()
    sizes[1:] -= end[:-1]
    last = hi == n
    rise = t[1:] > t[:-1]
    rise |= last[:-1]
    # Rising ends, none past its row's end and one at it per row: each
    # row's batches partition 1..n and end at ``last``; then times rise
    # within each row.  (x[x.argmin()] and count_nonzero stand for x.min()
    # and x.all(), whose Python wrappers cost more than a small instance's
    # whole check.)
    if (np.count_nonzero(last) == len(lengths) and not np.count_nonzero(hi > n)
            and sizes[sizes.argmin()] >= 1 and np.count_nonzero(rise) == rise.size):
        waits = t.repeat(sizes) - a
        # Arrivals rise within a batch: no wait is negative or NaN unless
        # a batch precedes its last arrival.
        if waits[waits.argmin()] >= 0:
            return sizes, waits, last
    raise _first_fault(a, lengths, hi, t, row)


def _first_fault(a: np.ndarray, lengths: np.ndarray, hi: np.ndarray, t: np.ndarray,
                 row: np.ndarray | int) -> InfeasibleScheduleError:
    """The error of the first fault met reading the rows, and each row's
    batches, in order: a row with no batches, or a batch outside the
    partition, not after the batch before it, before its last arrival, or
    last in a row that ends before its length."""
    T, lengths = len(lengths), np.asarray(lengths)
    row = np.broadcast_to(row, hi.shape)
    n = lengths[row]
    first = np.diff(row, prepend=-1) != 0
    lo = np.where(first, 1, np.roll(hi, 1) + 1)
    arrival = a[(np.cumsum(lengths) - lengths)[row] + np.clip(hi, 1, n) - 1]
    # One line per fault, in the order each batch is checked.
    faults = np.array([(hi < lo) | (hi > n), ~(t > np.where(first, -math.inf, np.roll(t, 1))),
                       t < arrival, (np.diff(row, append=T) != 0) & (hi != n)])
    bad = np.flatnonzero(faults.any(axis=0))
    empty = np.setdiff1d(np.arange(T), row)
    if empty.size and (not bad.size or empty[0] < row[bad[0]]):
        return InfeasibleScheduleError("infeasible schedule: no batches")
    k = bad[0]
    b_lo, b_hi, b_t, b_a, b_n = (x[k].item() for x in (lo, hi, t, arrival, n))
    return InfeasibleScheduleError("infeasible schedule: " + [
        f"batches must partition 1..{b_n} consecutively (got [{b_lo}, {b_hi}], expected lo={b_lo})",
        "processing times must be strictly increasing",
        f"batch [{b_lo}, {b_hi}] processed at {b_t!r} before its last arrival {b_a!r}",
        f"covers 1..{b_hi} but instance has n={b_n}",
    ][faults[:, k].argmax()])


def _row_costs(lengths: list[int], features: Sequence[Sequence[int]] | None,
               waits: np.ndarray, sizes: np.ndarray, tops: list[int],
               f: CostFunction) -> tuple[list[float], list[float]]:
    """The pricing of ``chunk_costs``: each sample's wait and each batch's
    size, row after row, rows of ``lengths`` samples, with row r's last
    batch at tops[r] - 1.  Each row's waits and batch prices are summed
    exactly by ``math.fsum``, so a row's cost does not depend on the rows
    priced with it; a sum past the float range is a ValueError."""
    firsts = [0, *accumulate(lengths)]
    # Memoryviews hand fsum the floats one at a time, without a list.
    waits = memoryview(waits)
    prices = memoryview(f.batch_costs(features, sizes))
    fsum = math.fsum
    try:
        return ([fsum(waits[lo:hi]) / n for lo, hi, n in zip(firsts, firsts[1:], lengths)],
                [fsum(prices[lo:top]) / n for lo, top, n in zip([0, *tops], tops, lengths)])
    except OverflowError:
        raise ValueError("schedule cost overflows the float range") from None
