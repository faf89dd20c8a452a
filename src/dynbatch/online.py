"""Online batching policies, run as exact event-driven simulations.

Each policy is a frozen dataclass with one rule,
``close(times, features, f, lo) -> (hi, t)``: the samples lo..hi-1
(0-based) waiting from ``lo`` on are processed together at ``t``.  The
rule reads only arrivals at or before ``t``, so every decision is online
by construction.  The one exception is the end of the instance:
``FixedSize`` processes a trailing partial batch at the last arrival, a
batch that more arrivals would have extended.  So a batch processed
after its last arrival is final: arrivals appended later than ``t`` leave
it as it is.  Only a batch processed at its own last arrival may change
when arrivals are appended, and the adversary closes such a batch again.
``flushes(times, features, f)`` is the one driver: it closes a batch,
starts the next at the first sample left out, and so on to the end, and
returns the batches as two lists, their last samples and their times.
``run_policy`` turns those into a ``Schedule`` with ``Schedule.from_ends``,
which merges batches processed at one instant, and prices it; no per-batch
object is built.

For a count cost, ``close_all(a, f)`` applies ``close`` from every start
of every row of a (T, n) array of arrival times at once, and
``flushes_all(a, f)`` follows each row's batches from sample 0 with
``instance.path_nodes``: the study runner's lockstep chunks get every
trial's ``flushes`` as three flat arrays, the same bit for bit.

The waiting policy ("wta") accumulates the waiting time of pending samples
and flushes them all as one batch the instant that accumulated waiting
equals alpha times the cost of processing them together.  Between arrivals
the accumulated waiting grows linearly with slope equal to the pending
count while the flush target is constant, so the trigger instant is solved
in closed form per inter-event interval; no time stepping is involved and
the flush identity holds to machine precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, FeatureMultiset
from .instance import ProblemInstance, Schedule, ScheduleCost, cost_of, path_nodes

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
    """The simulation drivers over a policy's ``close`` rule: ``flushes``
    for one instance, and ``flushes_all``, over the policy's ``close_all``,
    for many of one size at once."""

    def flushes(self, times: Sequence[float], features: Sequence[int],
                f: CostFunction) -> tuple[list[int], list[float]]:
        """Close batches from the first sample on until every sample is in
        one: the last sample (1-based) of each batch, and its time."""
        close = self.close
        n = len(times)
        ends, stamps = [], []
        hi = 0
        while hi < n:
            hi, t = close(times, features, f, hi)
            ends.append(hi)
            stamps.append(t)
        return ends, stamps

    def flushes_all(self, a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray,
                                                                     np.ndarray]:
        """``flushes`` of every row of the (T, n) arrival times ``a`` at once,
        for a count cost ``f``, as the flat (ends, stamps, rows) that
        ``chunk_costs`` reads: ``close_all`` from every start, then the
        starts that ``path_nodes`` reaches from sample 0, where each start's
        batch points to the next."""
        T, n = a.shape
        hi, t = self.close_all(a, f)
        rows, lo = path_nodes(np.concatenate((hi, np.full((T, 1), n)), axis=1), 0)
        return hi[rows, lo], t[rows, lo], rows


@dataclass(frozen=True)
class Wta(_Policy):
    """Flush all pending samples once their accumulated waiting time
    reaches ``alpha`` times the cost of processing them together."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")

    def spec_string(self) -> str:
        return f"wta:{self.alpha:g}"

    def close(self, times: Sequence[float], features: Sequence[int], f: CostFunction,
              lo: int) -> tuple[int, float]:
        """Exact simulation of one flush cycle with balance factor ``alpha``.

        Arrivals sharing a time instant are absorbed as one event.  An arrival
        landing exactly on a candidate flush instant is absorbed first (pending
        covers the half-open interval since the last flush, inclusive of "now"),
        after which the flush instant is re-solved against the enlarged target.
        If the pending batch costs 0 under a degenerate cost function the
        target is met immediately and the batch is flushed at the arrival
        itself.
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
                target = alpha * f.value(batch)
            if target <= accrued:
                return i, t
            t_star = t + (target - accrued) / pending
            if i < n and t_star >= times[i]:
                t_next = times[i]
                accrued += pending * (t_next - t)
                t = t_next
                while i < n and times[i] == t:
                    i += 1
                continue
            return i, t_star

    def close_all(self, a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """``close`` from every start lo of every row of the (T, n) arrival
        times ``a``, for a count cost ``f``: hi[r, lo] and t[r, lo].

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
        T, n = a.shape
        # Row r's sample j at r * (n + 1) + j; the inf after each row ends
        # its last group, where every batch still open closes.
        times = np.concatenate((a, np.full((T, 1), math.inf)), axis=1).ravel()
        last = np.arange(T * (n + 1)) % (n + 1) == n
        size = np.empty(T * n, dtype=np.intp)
        stamp = np.empty(T * n)
        start = np.arange(T * n)
        after = start + start // n + 1  # the sample after each open batch
        x = times[after - 1]
        accrued = np.zeros(T * n)
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
        return np.arange(n) + size.reshape(T, n), stamp.reshape(T, n)


@dataclass(frozen=True)
class FixedSize(_Policy):
    """Process every k-th arrival together with the k-1 before it."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("batch size must be at least 1")

    def spec_string(self) -> str:
        return f"fixed-size:{self.k}"

    def close(self, times: Sequence[float], features: Sequence[int], f: CostFunction,
              lo: int) -> tuple[int, float]:
        """The next ``k`` arrivals, at the k-th arrival's time; a final
        partial batch is processed at the last arrival."""
        hi = min(lo + self.k, len(times))
        return hi, times[hi - 1]

    def close_all(self, a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """``close`` from every start of every row of ``a``, in closed form."""
        hi = np.minimum(np.arange(self.k, a.shape[1] + self.k), a.shape[1])
        return np.broadcast_to(hi, a.shape), a[:, hi - 1]


@dataclass(frozen=True)
class FixedDelay(_Policy):
    """Flush all pending samples when the oldest has waited ``delay``."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0 or not math.isfinite(self.delay):
            raise ValueError("delay must be non-negative and finite")

    def spec_string(self) -> str:
        return f"fixed-delay:{self.delay:g}"

    def close(self, times: Sequence[float], features: Sequence[int], f: CostFunction,
              lo: int) -> tuple[int, float]:
        """Flush once the oldest pending sample has waited ``delay``.

        Every sample that has arrived by the flush instant joins the batch.
        With ``delay`` 0 this degenerates to processing each arrival instant's
        samples immediately.
        """
        flush = times[lo] + self.delay
        n = len(times)
        hi = lo + 1
        while hi < n and times[hi] <= flush:
            hi += 1
        return hi, flush

    def close_all(self, a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray]:
        """``close`` from every start of every row of ``a``: the samples up
        to each flush instant, found by one ``searchsorted`` per row."""
        flush = a + self.delay
        return np.array([np.searchsorted(r, fl, side="right") for r, fl in zip(a, flush)]), flush


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
        return Wta(float(spec[len("wta:"):]))
    if spec.startswith("fixed-size:"):
        return FixedSize(int(spec[len("fixed-size:"):]))
    if spec.startswith("fixed-delay:"):
        return FixedDelay(float(spec[len("fixed-delay:"):]))
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
