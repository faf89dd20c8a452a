"""Online batching policies, run as exact event-driven simulations.

The waiting policy ("wta") accumulates the waiting time of pending samples
and flushes them all as one batch the instant that accumulated waiting
equals alpha times the cost of processing them together.  Between arrivals
the accumulated waiting grows linearly with slope equal to the pending
count while the flush target is constant, so the trigger instant is solved
in closed form per inter-event interval; no time stepping is involved and
the flush identity holds to machine precision.

Every policy is a frozen dataclass with one method,
``batches(inst, f) -> list[Batch]``, that simulates it on an instance;
``run_policy`` is the one runner that merges coincident batches and prices
the resulting schedule.  All policies consult only arrivals at or before
the current simulation time, so their decisions are online: truncating the
future leaves past decisions unchanged.  The one exception is the end of
the instance: ``FixedSize`` processes a trailing partial batch at the last
arrival, a batch that more arrivals would have extended.  No policy keeps
state across a batch boundary, so a run started at a batch's first sample
emits the rest of the schedule unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cost import CostFunction
from .instance import Batch, ProblemInstance, Schedule, ScheduleCost, cost_of, merge_coincident

__all__ = [
    "Wta",
    "FixedSize",
    "FixedDelay",
    "PolicyConfig",
    "parse_policy_spec",
    "run_policy",
    "competitive_ratio_bound",
]


@dataclass(frozen=True)
class Wta:
    """Flush all pending samples once their accumulated waiting time
    reaches ``alpha`` times the cost of processing them together."""

    alpha: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")

    def spec_string(self) -> str:
        return f"wta:{self.alpha:g}"

    def batches(self, inst: ProblemInstance, f: CostFunction) -> list[Batch]:
        """Exact simulation of the waiting policy with balance factor ``alpha``.

        Arrivals sharing a time instant are absorbed as one event.  An arrival
        landing exactly on a candidate flush instant is absorbed first (pending
        covers the half-open interval since the last flush, inclusive of "now"),
        after which the flush instant is re-solved against the enlarged target.
        If the pending batch costs 0 under a degenerate cost function the
        target is met immediately and the batch is flushed at the arrival
        itself.
        """
        alpha = self.alpha
        times, features = inst.times, inst.features
        n = inst.n
        batches: list[Batch] = []
        i = 0  # next unarrived sample, 0-based
        while i < n:
            # new cycle: pending was empty, so waiting starts accruing at the
            # next arrival instant
            lo = i
            t = times[i]
            while i < n and times[i] == t:
                i += 1
            accrued = 0.0
            while True:
                pending = i - lo
                target = alpha * f.batch_cost(features[lo:i])
                if target <= accrued:
                    batches.append(Batch(lo + 1, i, t))
                    break
                t_star = t + (target - accrued) / pending
                if i < n and t_star >= times[i]:
                    t_next = times[i]
                    accrued += pending * (t_next - t)
                    t = t_next
                    while i < n and times[i] == t:
                        i += 1
                    continue
                batches.append(Batch(lo + 1, i, t_star))
                break
        return batches


@dataclass(frozen=True)
class FixedSize:
    """Process every k-th arrival together with the k-1 before it."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("batch size must be at least 1")

    def spec_string(self) -> str:
        return f"fixed-size:{self.k}"

    def batches(self, inst: ProblemInstance, f: CostFunction) -> list[Batch]:
        """Process every ``k`` consecutive arrivals at the k-th arrival's time;
        a final partial batch is processed at the last arrival."""
        n = inst.n
        batches = []
        lo = 1
        while lo <= n:
            hi = min(lo + self.k - 1, n)
            batches.append(Batch(lo, hi, inst.times[hi - 1]))
            lo = hi + 1
        return batches


@dataclass(frozen=True)
class FixedDelay:
    """Flush all pending samples when the oldest has waited ``delay``."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0 or not math.isfinite(self.delay):
            raise ValueError("delay must be non-negative and finite")

    def spec_string(self) -> str:
        return f"fixed-delay:{self.delay:g}"

    def batches(self, inst: ProblemInstance, f: CostFunction) -> list[Batch]:
        """Flush all pending samples once the oldest has waited ``delay``.

        Every sample that has arrived by the flush instant joins the batch.
        With ``delay`` 0 this degenerates to processing each arrival instant's
        samples immediately.
        """
        n = inst.n
        batches = []
        lo = 1
        while lo <= n:
            flush = inst.times[lo - 1] + self.delay
            hi = lo
            while hi < n and inst.times[hi] <= flush:
                hi += 1
            batches.append(Batch(lo, hi, flush))
            lo = hi + 1
        return batches


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
    sched = Schedule(merge_coincident(policy.batches(inst, f)))
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
