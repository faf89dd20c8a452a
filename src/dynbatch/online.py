"""Online batching policies, run as exact event-driven simulations.

A policy's rule closes a batch: the samples lo..hi-1 (0-based) waiting
from ``lo`` on are processed together at ``t``.  The rule reads only
arrivals at or before ``t``, so every decision is online by construction.
The one exception is the end of the instance: ``FixedSize`` processes a
trailing partial batch at the last arrival, a batch that more arrivals
would have extended.  So a batch processed after its last arrival is
final, and only one processed at its own last arrival may change when
arrivals are appended; the adversary closes such a batch again.

Each fixed rule, ``FixedSize`` and ``FixedDelay``, is stated once, as
``close_all(a, lengths, f)``: the batch from every start of every row of
the flat rows ``a`` of ``lengths`` (see ``instance``).  ``flushes_all(a,
lengths, f)`` follows each row's batches from sample 0 with
``instance.path_nodes``, as the flat arrays that the study's lockstep
chunks price.  The scalar entry points derive from them, and take the
times as an array, such as an instance's, or as a sequence of floats:
``close(times, features, f, lo) -> (hi, t)`` is ``close_all`` of the
samples from ``lo`` on, at its first start, and ``flushes(times,
features, f)``, each batch's last sample and time as two lists, is
``flushes_all`` of one row.  ``run_policy`` merges those into a
``Schedule`` with ``Schedule.from_ends`` and prices it.

``Wta`` holds the only scalar rule and driver: its ``close`` serves set
functions and the adversary, and its ``flushes`` loop serves
``run_policy``, where ``close_all``, for a count cost, would cost the sum
of the batch sizes from every start.  It flushes all pending samples the
instant their accumulated waiting equals alpha times the cost of
processing them together.  Between arrivals the waiting grows linearly
with slope equal to the pending count while the target is constant, so
the trigger instant is solved in closed form per inter-event interval,
and the flush identity holds to machine precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cost import (CostFunction, FeatureMultiset, check_real, check_whole, spec_number,
                   spec_values)
from .instance import (ProblemInstance, Schedule, ScheduleCost, cost_of, path_nodes,
                       searchsorted_rows)

__all__ = [
    "Wta",
    "FixedSize",
    "FixedDelay",
    "PolicyConfig",
    "parse_policy_spec",
    "run_policy",
    "competitive_ratio_bound",
]


class _Policy:
    """The drivers over a policy's ``close_all`` rule, for the flat rows of
    many instances at once and, for a fixed rule, for one."""

    def close(self, times: Sequence[float], features: Sequence[int], f: CostFunction,
              lo: int) -> tuple[int, float]:
        """The batch that waits from sample ``lo`` (0-based): ``close_all``
        of the samples from ``lo`` on, at its first start."""
        a = np.asarray(times[lo:], dtype=float)
        hi, t = self.close_all(a, np.array([len(a)]), f)
        return lo + int(hi[0]), float(t[0])

    def flushes(self, times: Sequence[float], features: Sequence[int],
                f: CostFunction) -> tuple[list[int], list[float]]:
        """``flushes_all`` of one row: the last sample (1-based) of each
        batch, and its time."""
        ends, stamps, _ = self.flushes_all(np.asarray(times, dtype=float), np.array([len(times)]),
                                           f)
        return ends.tolist(), stamps.tolist()

    def flushes_all(self, a: np.ndarray, lengths: np.ndarray,
                    f: CostFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``flushes`` of every row of the flat rows ``a`` of ``lengths`` at
        once, for a count cost ``f``, as the flat (ends, stamps, rows) that
        ``chunk_costs`` reads: ``close_all`` from every start, then the
        starts that ``path_nodes`` reaches from sample 0, where each start's
        batch points to the next."""
        hi, t = self.close_all(a, lengths, f)
        row = np.repeat(np.arange(len(lengths)), lengths)
        first = np.cumsum(lengths) - lengths
        # The start of each row's last batch points to itself.
        k = path_nodes(np.where(hi < (first + lengths)[row], hi, np.arange(len(a))), first)
        rows = row[k]
        return hi[k] - first[rows], t[k], rows


@dataclass(frozen=True)
class Wta(_Policy):
    """Flush all pending samples once their accumulated waiting time
    reaches ``alpha`` times the cost of processing them together."""

    alpha: float

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha, True)

    def spec_string(self) -> str:
        return f"wta:{spec_number(self.alpha)}"

    def flushes(self, times: Sequence[float], features: Sequence[int],
                f: CostFunction) -> tuple[list[int], list[float]]:
        """Close batches from the first sample on until every sample is in
        one: the last sample (1-based) of each batch, and its time."""
        # ``close`` indexes Python floats, converted once per run, about
        # twice as fast as an array.
        times = np.asarray(times, dtype=float).tolist()
        close, n = self.close, len(times)
        ends, stamps, hi = [], [], 0
        while hi < n:
            hi, t = close(times, features, f, hi)
            ends.append(hi)
            stamps.append(t)
        return ends, stamps

    def close(self, times: Sequence[float], features: Sequence[int], f: CostFunction,
              lo: int) -> tuple[int, float]:
        """Exact simulation of one flush cycle with balance factor ``alpha``.

        Arrivals sharing a time instant are absorbed as one event.  An arrival
        landing exactly on a candidate flush instant is absorbed first (pending
        covers the half-open interval since the last flush, inclusive of "now"),
        after which the flush instant is re-solved against the enlarged target.
        If the pending batch costs 0 under a degenerate cost function the
        target is met immediately and the batch is flushed at the arrival
        itself.  The flush time is a Python float, times array or not.
        """
        alpha = self.alpha
        count_based = f.count_based
        n = len(times)
        # pending was empty, so waiting starts accruing at the first arrival
        i = lo
        t = times[i]
        while i < n and times[i] == t:
            i += 1
        accrued = 0.0
        # A count cost needs only the pending count.  A set function prices
        # the pending multiset, features[lo:priced], grown by each event.
        batch = None if count_based else FeatureMultiset.empty()
        priced = lo
        while True:
            pending = i - lo
            if count_based:
                target = alpha * f.count_value(pending)
            else:
                for k in range(priced, i):
                    batch = batch.plus(features[k])
                priced = i
                price = f.value(batch)
                if price != price:
                    raise ValueError(f"the batch of {pending} samples from sample {lo + 1} costs "
                                     "nan: the waiting policy has no flush time")
                target = alpha * price
            if target <= accrued:
                return i, float(t)
            t_star = t + (target - accrued) / pending
            if i < n and t_star >= times[i]:
                t_next = times[i]
                accrued += pending * (t_next - t)
                t = t_next
                while i < n and times[i] == t:
                    i += 1
                continue
            return i, float(t_star)

    def close_all(self, a: np.ndarray, lengths: np.ndarray,
                  f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """``close`` from every start k of every row of the flat rows ``a``
        of ``lengths``, for a count cost ``f``: the flat index hi[k] after
        the batch's last sample, and its time t[k].

        For finite arrival times.  Steps the pending count p = 1, 2, ...
        over the starts whose batch is still open, with ``close``'s own
        float operations and tests, so every batch is the same bit for bit.
        Inside a group of coincident arrivals the accrued waiting grows by
        0.  Where a group ends, a met target closes the batch at the
        group's time; otherwise it closes at ``t_star`` unless ``t_star``
        is at or after the next arrival, and at the last sample in any
        case.  The work is the sum of the batch sizes over all starts.
        """
        alpha = self.alpha
        N = len(a)
        # Flat sample k of row r at k + r; the inf after each row ends its
        # last group, where every batch still open closes.
        start = np.arange(N)
        after = start + np.repeat(np.arange(len(lengths)), lengths) + 1  # the sample after
        times = np.full(N + len(lengths), math.inf)
        times[after - 1] = a
        last = times == math.inf
        size = np.empty(N, dtype=np.intp)
        stamp = np.empty(N)
        x = a
        accrued = np.zeros(N)
        p = 1
        while start.size:
            nxt = times[after]
            target = alpha * f.count_value(p)
            met = target <= accrued
            t_star = x + (target - accrued) / p
            closing = ((nxt != x) & (met | ~(t_star >= nxt))) | last[after]
            done = np.flatnonzero(closing)
            closed = start[done]
            size[closed] = p
            stamp[closed] = np.where(met, x, t_star)[done]
            going = np.flatnonzero(~closing)
            accrued += p * (nxt - x)
            start, after, accrued, x = start[going], after[going] + 1, accrued[going], nxt[going]
            p += 1
        return np.arange(N) + size, stamp


@dataclass(frozen=True)
class FixedSize(_Policy):
    """Process every k-th arrival together with the k-1 before it."""

    k: int

    def __post_init__(self) -> None:
        check_whole("batch size", self.k, 1)

    def spec_string(self) -> str:
        return f"fixed-size:{self.k}"

    def close_all(self, a: np.ndarray, lengths: np.ndarray,
                  f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """From every start, the next ``k`` arrivals at the k-th one's time;
        a final partial batch is processed at the last arrival."""
        hi = np.minimum(np.arange(self.k, len(a) + self.k), np.repeat(np.cumsum(lengths), lengths))
        return hi, a[hi - 1]


@dataclass(frozen=True)
class FixedDelay(_Policy):
    """Flush all pending samples when the oldest has waited ``delay``."""

    delay: float

    def __post_init__(self) -> None:
        check_real("delay", self.delay, False)

    def spec_string(self) -> str:
        return f"fixed-delay:{spec_number(self.delay)}"

    def close_all(self, a: np.ndarray, lengths: np.ndarray,
                  f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """From every start, every sample of its row arrived by the time the
        first has waited ``delay`` (``searchsorted_rows``); with delay 0,
        each arrival instant's samples at once."""
        with np.errstate(over="ignore"):  # an inf flush takes every later sample
            flush = a + self.delay
        return searchsorted_rows(a, lengths, flush), flush


PolicyConfig = Wta | FixedSize | FixedDelay


def parse_policy_spec(spec: str) -> PolicyConfig:
    """Parse a policy spec string.

    Accepted forms: ``wta:<alpha>``, ``wte`` (alias for ``wta:1``),
    ``fixed-size:<k>``, ``fixed-delay:<d>``.
    """
    spec = spec.strip()
    if spec == "wte":
        return Wta(1.0)
    if spec.startswith("wta:"):
        return Wta(*spec_values("policy", spec, "wta:", float))
    if spec.startswith("fixed-size:"):
        return FixedSize(*spec_values("policy", spec, "fixed-size:", int))
    if spec.startswith("fixed-delay:"):
        return FixedDelay(*spec_values("policy", spec, "fixed-delay:", float))
    raise ValueError(f"unknown policy spec {spec!r}")


def run_policy(
    inst: ProblemInstance, f: CostFunction, policy: PolicyConfig
) -> tuple[Schedule, ScheduleCost]:
    """Run ``policy`` on ``inst`` and price the schedule it emits under ``f``.

    Batches processed at the same instant are merged into one.
    """
    sched = Schedule.from_ends(*policy.flushes(inst.times, inst.features, f))
    return sched, cost_of(inst, sched, f)


def competitive_ratio_bound(alpha: float, gamma: float) -> float:
    """Worst-case guarantee of the waiting policy: (1 + 1/alpha) * max(1, alpha/gamma).

    With alpha = 1/2 this is 3 for every admissible cost function; with
    alpha equal to the curvature it is 1 + 1/gamma.
    """
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    if not (0.5 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [1/2, 1]")
    return (1.0 + 1.0 / alpha) * max(1.0, alpha / gamma)
