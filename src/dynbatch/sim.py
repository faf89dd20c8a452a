"""Arrival-process generation and the Monte-Carlo study runner.

Arrivals are drawn from homogeneous or inhomogeneous Poisson processes;
inhomogeneous rates are simulated by thinning against the rate's finite
upper bound.  Studies sweep a grid of (sample count, rate) points, run a
set of policies on each generated instance, compare every run against the
exact offline optimum, and emit one flat record per (trial, policy).

Trial t of grid point g has the seed that ``SeedSequence((master, g, t))``
gives as one uint64, and its stream is ``default_rng(seed)``'s, so records
are bit-identical for a given configuration at any worker count, and the
``seed`` field regenerates the instance through ``gen_poisson``.  A chunk
derives all of its seeds, then all of its PCG64 states, in one uint32 pass
each over its trials: the hash of numpy's ``SeedSequence`` on columns of
entropy words, then PCG64's two seeding steps on 128-bit ints.

Trials run in chunks of up to 250 per grid point.  In ``n_values`` mode
under a count cost, every instance of a chunk has the same n, so the chunk
runs in lockstep, as arrays from the seeds to the records: the chunk's
arrival times are the rows of one (T, n) array, ``offline.lockstep_ends``
solves all of its optima in one vector sweep, each policy's
``flushes_all`` finds every trial's batches at once, and
``instance.chunk_costs`` prices the optima, then each policy's batches, in
one pass each.  No ``ProblemInstance`` is built.  Set-function costs,
``horizon`` mode and any chunk in which a trial fails take the per-trial
path, so a failed trial gets its NaN records and its stderr line exactly
as before.  Both paths price with the summation of ``chunk_costs``, which
``cost_of`` runs per trial, so their records are the same bit for bit.  A
trial whose optimum costs 0 has no ratio: on either path it fails, with
NaN records and one stderr line.
"""

from __future__ import annotations

import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from .cost import CostFunction
from .instance import ProblemInstance, ScheduleCost, chunk_costs
from .offline import lockstep_ends, optimal_schedule
from .online import PolicyConfig, run_policy

__all__ = [
    "RateFunction",
    "ConstantRate",
    "SinusoidRate",
    "TableRate",
    "TrialRecord",
    "SummaryRow",
    "gen_poisson",
    "gen_poisson_horizon",
    "run_study",
    "summarize",
    "parse_rate_spec",
]


class RateFunction:
    """Base for arrival-rate functions; must expose a finite maximum."""

    def value(self, t: float) -> float:
        raise NotImplementedError

    def max_rate(self) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantRate(RateFunction):
    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("rate must be positive and finite")

    def value(self, t: float) -> float:
        return self.rate

    def max_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class SinusoidRate(RateFunction):
    """rate(t) = base + amplitude * sin(2 pi t / period)."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self) -> None:
        if self.base < abs(self.amplitude):
            raise ValueError("base must be at least |amplitude| so the rate stays non-negative")
        if not (self.period > 0):
            raise ValueError("period must be positive")

    def value(self, t: float) -> float:
        return self.base + self.amplitude * math.sin(2 * math.pi * t / self.period)

    def max_rate(self) -> float:
        return self.base + abs(self.amplitude)


@dataclass(frozen=True)
class TableRate(RateFunction):
    """Piecewise-constant rate: ``rates[k]`` on [breaks[k], breaks[k+1]),
    with the final rate extending forever."""

    breaks: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.breaks) != len(self.rates) or not self.breaks:
            raise ValueError("breaks and rates must be equal-length and non-empty")
        if self.breaks[0] != 0.0 or any(b >= c for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must start at 0 and strictly increase")
        if any(r < 0 or not math.isfinite(r) for r in self.rates):
            raise ValueError("rates must be non-negative and finite")

    def value(self, t: float) -> float:
        k = int(np.searchsorted(np.asarray(self.breaks), t, side="right")) - 1
        return self.rates[max(k, 0)]

    def max_rate(self) -> float:
        return max(self.rates)


def parse_rate_spec(spec: str) -> RateFunction:
    """``<lambda>`` for a constant rate or ``sin:<base>,<amp>,<period>``."""
    spec = spec.strip()
    if spec.startswith("sin:"):
        parts = spec[len("sin:"):].split(",")
        if len(parts) != 3:
            raise ValueError(f"bad rate spec {spec!r}: expected sin:<base>,<amp>,<period>")
        return SinusoidRate(float(parts[0]), float(parts[1]), float(parts[2]))
    try:
        rate = float(spec)
    except ValueError:
        raise ValueError(f"unknown rate spec {spec!r}") from None
    return ConstantRate(rate)


def _thinned_arrivals(
    rate: RateFunction, rng: np.random.Generator,
    horizon: float = math.inf, budget: float = math.inf,
) -> Iterator[float]:
    """Arrival times under ``rate`` on [0, horizon), in order, by thinning
    Poisson proposals at the rate's maximum; raises after ``budget``
    proposals."""
    lam_max = rate.max_rate()
    if lam_max <= 0:
        raise ValueError("rate is identically zero")
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t >= horizon:
            return
        accepted = rng.random() * lam_max < rate.value(t)
        budget -= 1
        if budget <= 0:
            raise RuntimeError("thinning budget exhausted; rate is (nearly) zero almost everywhere")
        if accepted:
            yield t


def _instance(
    times: Sequence[float], rng: np.random.Generator, feature: int,
    feature_sampler: Callable[[np.random.Generator, float], int] | None,
) -> ProblemInstance:
    """``times`` with ``feature`` on every sample, or features drawn by the
    sampler in arrival order from the same generator."""
    a = np.asarray(times, dtype=float)
    feats = ((feature,) * len(a) if feature_sampler is None
             else tuple(int(feature_sampler(rng, t)) for t in a.tolist()))
    return ProblemInstance._of_array(a, feats)


def _poisson_times(rate: RateFunction, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly ``n`` Poisson arrival times under ``rate``, drawn from ``rng``.

    Constant rates use i.i.d. exponential gaps directly; time-varying rates
    are thinned against their maximum until ``n`` proposals are accepted.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(rate, ConstantRate):
        return np.cumsum(rng.exponential(1.0 / rate.rate, size=n))
    return np.fromiter(islice(_thinned_arrivals(rate, rng, budget=100_000 * n + 100_000), n),
                       float, n)


def gen_poisson(
    rate: RateFunction,
    n: int,
    seed: int,
    feature: int = 0,
    feature_sampler: Callable[[np.random.Generator, float], int] | None = None,
) -> ProblemInstance:
    """Generate exactly ``n`` Poisson arrivals under ``rate``, as
    ``_poisson_times`` draws them.

    Deterministic for a given seed.  All samples carry ``feature`` unless a
    sampler is supplied.
    """
    rng = np.random.default_rng(seed)
    return _instance(_poisson_times(rate, n, rng), rng, feature, feature_sampler)


def gen_poisson_horizon(
    rate: RateFunction,
    horizon: float,
    seed: int,
    feature: int = 0,
    feature_sampler: Callable[[np.random.Generator, float], int] | None = None,
) -> ProblemInstance:
    """Generate all Poisson arrivals on [0, horizon); the count varies.

    Raises if the window happens to contain no arrivals.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError("horizon must be positive and finite")
    rng = np.random.default_rng(seed)
    times = list(_thinned_arrivals(rate, rng, horizon=horizon))
    if not times:
        raise ValueError(f"no arrivals in horizon {horizon!r}")
    return _instance(times, rng, feature, feature_sampler)


@dataclass(frozen=True)
class TrialRecord:
    """One policy run on one generated instance.

    ``trial`` is "g<grid index>.t<trial index>"; ``seed`` regenerates the
    instance via gen_poisson.  Failed trials carry NaN metrics.
    """

    trial: str
    seed: int
    n: int
    policy: str
    alpha: float | None
    J: float
    W: float
    F: float
    J_opt: float
    ratio: float


# numpy's SeedSequence hash (bit_generator.pyx) on a pool of 4 words, and
# PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_PCG_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hashmix(v: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    h2 = h * mult & 0xFFFFFFFF
    v = (v ^ np.uint32(h)) * np.uint32(h2)
    return v ^ v >> _SHIFT, h2


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ r >> _SHIFT


def _seed_state(entropy: list[np.ndarray], words: int) -> list[np.ndarray]:
    """``SeedSequence(e).generate_state(words, np.uint32)`` for every row's
    entropy words e, where entropy[k] is the uint32 column of words k."""
    h, pool = _INIT_A, []
    for w in entropy[:4] + [np.zeros_like(entropy[0])] * (4 - len(entropy)):
        w, h = _hashmix(w, h, _MULT_A)
        pool.append(w)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                w, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], w)
    for w0 in entropy[4:]:
        for dst in range(4):
            w, h = _hashmix(w0, h, _MULT_A)
            pool[dst] = _mix(pool[dst], w)
    h, state = _INIT_B, []
    for k in range(words):
        w, h = _hashmix(pool[k % 4], h, _MULT_B)
        state.append(w)
    return state


def _uint64(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)


def _chunk_seeds(master_seed: int, grid_index: int, trials: range) -> np.ndarray:
    """Each trial's seed, ``SeedSequence((master_seed, grid_index, trial))
    .generate_state(1, np.uint64)[0]``, as a uint64 column."""
    t = np.arange(trials.start, trials.stop, dtype=np.uint32)
    # SeedSequence reads an int as its 32-bit words, low first; 0 is one word.
    words, x = [], master_seed
    while x or not words:
        words.append(x & 0xFFFFFFFF)
        x >>= 32
    return _uint64(*_seed_state([np.full_like(t, w) for w in (*words, grid_index)] + [t], 2))


def _streams(seeds: np.ndarray) -> list[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` for each uint64
    seed.  A seed below 2^32 is one entropy word, which SeedSequence pads
    with a zero word, as its zero high word here."""
    w = _seed_state([seeds.astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)], 8)
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(_uint64(*w[k:k + 2]).tolist() for k in range(0, 8, 2))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _record(trial: str, seed: int, n: int, label: tuple[str, float | None],
            cost: ScheduleCost | None = None, opt: float = math.nan) -> TrialRecord:
    """One policy run's record; a failed run (``cost`` None) has NaN metrics."""
    if cost is None:
        return TrialRecord(trial, seed, n, *label, math.nan, math.nan, math.nan, math.nan,
                           math.nan)
    return TrialRecord(trial, seed, n, *label, cost.total, cost.waiting, cost.processing, opt,
                       cost.total / opt)


#: Failures that make a trial a NaN record; anything else is a bug and propagates.
_TRIAL_ERRORS = (ValueError, ArithmeticError, RuntimeError)
#: Why a trial whose optimum costs 0 fails: no policy has a ratio to it.
_ZERO_OPTIMUM = "ratio undefined: the optimal cost is 0"


def _run_chunk(args) -> list[TrialRecord]:
    (grid_index, n, rate, policies, cost_fn, trial_lo, trial_hi, master_seed, horizon) = args
    trials = range(trial_lo, trial_hi)
    seeds = _chunk_seeds(master_seed, grid_index, trials)
    # Each policy's policy and alpha fields, once for all its records.
    labels = [(p.spec_string(), getattr(p, "alpha", None)) for p in policies]
    if horizon is None and cost_fn.count_based:
        try:
            return _lockstep_chunk(grid_index, n, rate, policies, labels, cost_fn, trials, seeds)
        except _TRIAL_ERRORS:
            pass  # trial by trial below, for each failure's own record and line
    records: list[TrialRecord] = []
    for ti, seed in zip(trials, seeds.tolist()):
        trial = f"g{grid_index}.t{ti}"
        try:
            if horizon is None:
                inst = gen_poisson(rate, n, seed)
            else:
                inst = gen_poisson_horizon(rate, horizon, seed)
            _, opt = optimal_schedule(inst, cost_fn)
            if opt.total == 0:
                raise ZeroDivisionError(_ZERO_OPTIMUM)
        except _TRIAL_ERRORS as exc:
            print(f"trial {trial}: {exc}", file=sys.stderr)
            records.extend(_record(trial, seed, n or 0, label) for label in labels)
            continue
        for policy, label in zip(policies, labels):
            try:
                _, c = run_policy(inst, cost_fn, policy)
            except _TRIAL_ERRORS as exc:
                print(f"trial {trial} policy {label[0]}: {exc}", file=sys.stderr)
                records.append(_record(trial, seed, inst.n, label))
                continue
            records.append(_record(trial, seed, inst.n, label, c, opt.total))
    return records


def _lockstep_chunk(grid_index, n, rate, policies, labels, cost_fn, trials,
                    seeds) -> list[TrialRecord]:
    """The chunk's records, as the per-trial loop makes them when no trial
    fails, in array operations from the seeds on: the arrival times of
    every trial as the rows of one array, one lockstep sweep for the
    optima, each policy's batches from every start at once, and one
    ``chunk_costs`` pass for the optima and for each policy."""
    a = np.empty((len(seeds), n))
    rng = np.random.default_rng()  # each row sets its trial's state
    for row, state in zip(a, _streams(seeds)):
        rng.bit_generator.state = state
        row[:] = _poisson_times(rate, n, rng)
    if not np.isfinite(a).all():
        # gen_poisson's ProblemInstance rejects the trial: its own record below
        raise ValueError("arrival times must be finite")
    # The samples all carry feature 0, which a count cost does not read.
    features = [(0,) * n] * len(a)
    opt = chunk_costs(a, features, *lockstep_ends(a, cost_fn), cost_fn)
    costs = [(*label, *chunk_costs(a, features, *p.flushes_all(a, cost_fn), cost_fn))
             for p, label in zip(policies, labels)]
    records: list[TrialRecord] = []
    for k, (ti, seed, W_opt, F_opt) in enumerate(zip(trials, seeds.tolist(), *opt)):
        trial, J_opt = f"g{grid_index}.t{ti}", W_opt + F_opt
        if J_opt == 0:
            print(f"trial {trial}: {_ZERO_OPTIMUM}", file=sys.stderr)
            records.extend(_record(trial, seed, n, label) for label in labels)
            continue
        for policy, alpha, W, F in costs:
            J = W[k] + F[k]
            records.append(TrialRecord(trial, seed, n, policy, alpha, J, W[k], F[k], J_opt,
                                       J / J_opt))
    return records


_CHUNK = 250


def _check_whole(name: str, value, least: int) -> None:
    """Raise a one-line ValueError unless ``value`` is an integer, not a
    bool, of at least ``least`` (0 or 1)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def check_study_args(n_values: Sequence[int] | None, trials: int, seed: int) -> None:
    """Raise ``run_study``'s one-line ValueError unless ``trials`` and every
    sample count in ``n_values`` (if given) is a positive integer and the
    master ``seed`` a non-negative one."""
    _check_whole("trials", trials, 1)
    for n in () if n_values is None else n_values:
        _check_whole("n", n, 1)
    _check_whole("seed", seed, 0)


def run_study(
    *,
    rates: Sequence[RateFunction],
    policies: Sequence[PolicyConfig],
    cost_fn: CostFunction,
    trials: int,
    seed: int,
    n_values: Sequence[int] | None = None,
    horizon: float | None = None,
    parallelism: int = 1,
    progress: bool = False,
) -> list[TrialRecord]:
    """Run every policy on ``trials`` instances per (n, rate) grid point.

    Exactly one of ``n_values`` (fixed arrival counts) or ``horizon``
    (fixed time window, variable count) selects the generation mode.
    Records come back in grid-then-trial-then-policy order and are
    bit-identical for a given configuration regardless of ``parallelism``.
    A failing trial contributes NaN records (reported on stderr) without
    aborting the study.  A sample count, trial count or master seed that
    is not a whole number in range raises a one-line ValueError before
    any trial runs.
    """
    check_study_args(n_values, trials, seed)
    if (horizon is None) == (n_values is None):
        raise ValueError("give exactly one of n_values or horizon")
    grid = [(n, rate) for n in (n_values if horizon is None else [None])
            for rate in rates]
    if not grid or not policies:
        raise ValueError("need at least one grid point and one policy")
    tasks = []
    for gi, (n, rate) in enumerate(grid):
        for lo in range(0, trials, _CHUNK):
            tasks.append((gi, n, rate, tuple(policies), cost_fn,
                          lo, min(lo + _CHUNK, trials), int(seed), horizon))
    parallel = parallelism > 1 and len(tasks) > 1
    records: list[TrialRecord] = []
    with (ProcessPoolExecutor(max_workers=parallelism) if parallel else nullcontext()) as pool:
        chunks = pool.map(_run_chunk, tasks, chunksize=1) if parallel else map(_run_chunk, tasks)
        # Both maps yield the chunks in task order without waiting for the rest.
        for k, chunk in enumerate(chunks):
            records.extend(chunk)
            if progress:
                print(f"chunk {k + 1}/{len(tasks)} done", file=sys.stderr)
    return records


@dataclass(frozen=True)
class SummaryRow:
    group: str
    policy: str
    n: int
    count: int
    min: float
    q25: float
    median: float
    q75: float
    max: float


_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


def summarize(records: Sequence[TrialRecord]) -> list[SummaryRow]:
    """Ratio distribution per (grid point, policy).

    Quantiles use linear interpolation; min and max are the sorted ends,
    equal neighbours interpolate to their value and a neighbour of inf to
    inf.  NaN (failed) records are excluded; groups appear in first-seen
    record order.
    """
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, str], list[TrialRecord]] = {}
    for r in records:
        if math.isnan(r.ratio):
            continue
        groups.setdefault((r.trial.split(".")[0], r.policy), []).append(r)
    if not groups:
        raise ValueError("all records failed; nothing to summarize")
    rows = []
    for (group, policy), rs in groups.items():
        ratios = np.sort([r.ratio for r in rs])
        with np.errstate(invalid="ignore"):
            q = np.quantile(ratios, _QUANTILES, method="linear")
        # numpy interpolates next to inf through inf - inf, a NaN.
        pos = np.multiply(_QUANTILES, len(ratios) - 1)
        below, above = ratios[np.floor(pos).astype(int)], ratios[np.ceil(pos).astype(int)]
        q = np.where(below == above, below, np.where(np.isnan(q), above, q))
        rows.append(SummaryRow(group, policy, rs[0].n, len(rs),
                               float(q[0]), float(q[1]), float(q[2]), float(q[3]), float(q[4])))
    return rows
