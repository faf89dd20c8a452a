"""Adaptive worst-case instance construction against online policies.

The harness alternates two arrival groups: it releases the first group,
waits for the policy to flush everything pending, releases the second
group an epsilon after that flush, and repeats.  The policy therefore
never gets to amortize a flush over a future arrival.  Two fixed benchmark
schedules on the realized instance, one processing at the odd-numbered
release instants and one at the even-numbered ones, cost little because
each merges every adjacent release pair into one batch; their average
upper-bounds the offline optimum, which pins the policy's competitive
ratio from below.

Only deterministic policies are meaningful here: the construction observes
the policy's flush times as they happen, through its ``close`` rule.
After each release it closes batches from the first sample of the open
batch until one holds the release.  These closes are the policy's
schedule on the realized instance, the one the report prices: a batch
processed after its last arrival is final (see ``online``), since every
rule reads only arrivals at or before its processing time and the next
release comes strictly later.  Only an open batch processed at its own
last arrival is closed again after a release: ``FixedSize`` processes a
trailing partial batch there only because the arrivals end there, while a
``FixedDelay(0)`` batch or a zero-cost ``Wta`` batch closes to itself
again.  Every other sample is closed over once, so the construction's
work grows linearly with the rounds as long as the policy keeps flushing.
A release gap that rounds to zero against the last flush time is an
input error: the release would join the flushed batch instead of
following it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, FeatureMultiset, batch_pairs, pair_ratios
from .instance import ProblemInstance, Schedule, ScheduleCost, cost_of
from .offline import optimal_schedule
# run_policy is not called here, but perfbench/tracing.py wraps
# ``adversary.run_policy`` by name and fails if the name is missing.
from .online import PolicyConfig, run_policy  # noqa: F401

__all__ = [
    "AdversaryConfig",
    "AdversaryReport",
    "run_adversary",
    "worst_pair_search",
    "finite_rounds_bound",
]


@dataclass(frozen=True)
class AdversaryConfig:
    """Alternating arrival groups, round count, and release gap.

    With ``epsilon`` unset, the gap defaults to 1e-6 times the policy's
    first flush delay, probed with a dry run of the first group; the gap
    then stays small relative to the gaps the construction realizes.
    """

    x1: FeatureMultiset
    x2: FeatureMultiset
    rounds: int
    epsilon: float | None = None
    #: Abort if the policy takes longer than this (simulated seconds) to
    #: flush a release.
    timeout: float = 1e12

    def __post_init__(self) -> None:
        if len(self.x1) == 0 or len(self.x2) == 0:
            raise ValueError("arrival groups must be non-empty")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.epsilon is not None and not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")


@dataclass(frozen=True)
class AdversaryReport:
    instance: ProblemInstance
    schedule: Schedule
    alg_cost: ScheduleCost
    #: The release gap actually used (resolved when the config left it auto).
    epsilon: float
    #: Unnormalized costs of the two benchmark schedules.
    odd_cost: float
    even_cost: float
    #: Their average per sample: an upper bound on the offline optimum.
    opt_upper: float
    #: Exact offline optimum on the realized instance, per sample.
    opt_exact: float
    ratio_vs_avg: float
    ratio_vs_exact: float
    #: (f(x1) + f(x2)) / f(x1 u x2): the ratio approached as rounds grow.
    limit_bound: float
    #: Number of releases the policy split across several batches (the
    #: benchmark accounting assumes whole-release flushes).
    split_waves: int


def finite_rounds_bound(f1: float, f2: float, f12: float, rounds: int) -> float:
    """Ratio guaranteed after finitely many rounds, before the release gap
    correction: 2 (f1 + f2) / (2 f12 + (f1 + f2 - f12) / rounds)."""
    return 2.0 * (f1 + f2) / (2.0 * f12 + (f1 + f2 - f12) / rounds)


def run_adversary(
    policy: PolicyConfig, f: CostFunction, cfg: AdversaryConfig
) -> AdversaryReport:
    """Drive ``policy`` through the alternating construction and report the
    realized instance with its cost ratios.

    Release j happens epsilon after the policy finished flushing release
    j-1 (the first at epsilon); flush times are read off the batches the
    policy closes, which is all an adversary may observe, and those
    batches are the reported schedule.
    """
    epsilon = cfg.epsilon if cfg.epsilon is not None else _auto_epsilon(policy, f, cfg.x1)
    times, feats, wave_last_index, flush_times, ends, stamps = _realize_waves(
        policy, f, cfg, epsilon)

    inst = ProblemInstance(tuple(times), tuple(feats))
    sched = Schedule.from_ends(ends, stamps)
    alg_cost = cost_of(inst, sched, f)
    split_waves = _count_split_waves(sched, wave_last_index)

    f1 = f.value(cfg.x1)
    f2 = f.value(cfg.x2)
    f12 = f.value(cfg.x1.union(cfg.x2))
    if f12 == 0.0:
        raise ValueError("adversary needs f(x1 u x2) > 0")
    s = cfg.rounds
    n1, n2 = len(cfg.x1), len(cfg.x2)
    t = [0.0] + flush_times  # t[0] = 0, t[j] = flush of release j

    # Benchmark processing at the odd release instants (each also absorbs
    # the preceding even release), with the trailing group cleared at
    # t[2s] + epsilon.
    odd_cost = f1 + f2 + (s - 1) * f12 + math.fsum(
        n2 * (t[2 * k] - t[2 * k - 1]) for k in range(1, s + 1))
    # Benchmark processing at the even release instants: s merged batches.
    even_cost = s * f12 + math.fsum(
        n1 * (t[2 * k - 1] - t[2 * k - 2]) for k in range(1, s + 1))

    n = inst.n
    opt_upper = (odd_cost + even_cost) / (2 * n)
    _, opt = optimal_schedule(inst, f)
    return AdversaryReport(
        instance=inst,
        schedule=sched,
        alg_cost=alg_cost,
        epsilon=epsilon,
        odd_cost=odd_cost,
        even_cost=even_cost,
        opt_upper=opt_upper,
        opt_exact=opt.total,
        ratio_vs_avg=alg_cost.total / opt_upper,
        ratio_vs_exact=alg_cost.total / opt.total,
        limit_bound=(f1 + f2) / f12,
        split_waves=split_waves,
    )


def _realize_waves(
    policy: PolicyConfig, f: CostFunction, cfg: AdversaryConfig, epsilon: float
) -> tuple[list[float], list[int], list[int], list[float], list[int], list[float]]:
    """Release the alternating groups, each ``epsilon`` after the policy
    flushed the previous one.

    Returns the arrival times and feature ids, the 1-based index of each
    release's last sample, each release's flush time, and the policy's
    batches as ``flushes`` returns them: their last samples and times.
    """
    close = policy.close
    groups = (_ids(cfg.x1), _ids(cfg.x2))
    times: list[float] = []
    feats: list[int] = []
    wave_last_index: list[int] = []
    flush_times: list[float] = []
    ends: list[int] = []
    stamps: list[float] = []
    lo = hi = 0  # the open batch: samples lo..hi-1 (0-based)
    t = 0.0
    for wave in range(2 * cfg.rounds):
        ids = groups[wave % 2]
        release = t + epsilon
        if release == t:
            raise ValueError(f"epsilon {epsilon!r} rounds to zero after the flush at t={t!r}")
        times.extend([release] * len(ids))
        feats.extend(ids)
        n = len(times)
        wave_last_index.append(n)
        if ends and t == times[hi - 1]:
            # Processed at its own last arrival, the open batch may take
            # the release: close it again.
            del ends[-1], stamps[-1]
            hi = lo
        while hi < n:
            lo = hi
            hi, t = close(times, feats, f, lo)
            ends.append(hi)
            stamps.append(t)
        if t - release > cfg.timeout:
            raise RuntimeError("non-terminating policy: flush exceeded the timeout horizon")
        flush_times.append(t)
    return times, feats, wave_last_index, flush_times, ends, stamps


def _auto_epsilon(policy: PolicyConfig, f: CostFunction, x1: FeatureMultiset) -> float:
    """1e-6 times the policy's flush delay on a lone first group."""
    feats = _ids(x1)
    # The group arrives at one instant, so every batch is processed at
    # the time of the first.
    _, gap = policy.close([0.0] * len(feats), feats, f, 0)
    return 1e-6 * gap if gap > 0 else 1e-6


def _ids(group: FeatureMultiset) -> list[int]:
    """The feature id of every sample of ``group``, feature by feature."""
    return [fid for fid, mult in group.counts for _ in range(mult)]


def _count_split_waves(sched: Schedule, wave_last_index: list[int]) -> int:
    """Releases whose samples ``sched`` spreads over more than one batch:
    those with a batch ending before their last sample."""
    lasts = np.array(wave_last_index)
    firsts = np.concatenate(([1], lasts[:-1] + 1))
    ends = np.array(sched.ends)
    return int(np.count_nonzero(np.searchsorted(ends, firsts) != np.searchsorted(ends, lasts)))


def worst_pair_search(
    f: CostFunction, max_size: int, samples: int = 2000, seed: int = 0
) -> tuple[FeatureMultiset, FeatureMultiset, float]:
    """Group pair maximizing (f(x1) + f(x2)) / f(x1 u x2) within a size cap.

    For count-based costs the scan over size pairs is exhaustive (a
    ``CountTable`` is scanned over the sizes it covers); for set functions
    random pairs are sampled from the function's feature universe.  The
    returned value is the limiting ratio the adversary approaches with this
    pair.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    pairs = batch_pairs(f, max_size, samples, seed)
    xs, ys, fx, fy, fu = pairs
    if f.count_based and not xs:  # only a CountTable clamps the range below two sizes
        raise ValueError(f"no size pair: the cost table covers only sizes 0..{len(f.values) - 1}")
    nonempty = np.array([bool(x.counts and y.counts) for x, y in zip(xs, ys)], dtype=bool)
    admissible = np.flatnonzero(nonempty & (fu != 0.0))
    if admissible.size == 0:
        raise ValueError("no admissible pair: cost is zero on every size in range" if f.count_based
                         else "no admissible pair found by sampling")
    ratios = pair_ratios(pairs, fx + fy, fu, admissible, "worst-pair ratio")
    k = int(np.argmax(ratios))  # the first maximum, as in a scan with strict >
    pair = admissible[k]
    return xs[pair], ys[pair], float(ratios[k])
