"""Arrival-process generation and the Monte-Carlo study runner.

Arrivals are drawn from homogeneous or inhomogeneous Poisson processes.
Each rate draws its own rows: ``fill(a, rngs)`` fills each row of a
(T, n) array from its own generator, by exponential gaps for a constant
rate and by thinning against the finite upper bound for any other.
Studies sweep a grid of (sample count, rate) points, run a set of
policies on each generated instance, compare every run against the exact
offline optimum, and emit one flat record per (trial, policy).

Trial t of grid point g has the seed that ``SeedSequence((master, g, t))``
gives as one uint64, and its stream is ``default_rng(seed)``'s, so records
are bit-identical for a given configuration at any worker count, and the
``seed`` field regenerates the instance through ``gen_poisson``.  A chunk
derives all of its seeds, then all of its PCG64 states, in one uint32 pass
each over its rows: the hash of numpy's ``SeedSequence`` on columns of
entropy words, then PCG64's two seeding steps on 128-bit ints.

A study's trials run in chunks of up to 250 consecutive rows, grid point
after grid point, so a chunk may span several grid points of any sizes
and rates.  The process pool is imported and started only when a study
runs on more than one worker, so a serial study never loads it.  Under a
count cost a chunk runs as arrays, from the seeds to the records, in
``n_values`` and ``horizon`` mode alike: its arrival times are flat rows
(see ``instance``), each grid point's rows drawn in place by its rate's
``fill``, or each horizon trial's by ``_thinned_arrivals`` from its
stream; ``offline.lockstep_ends`` solves all of its optima in one vector
sweep, each policy's ``flushes_all`` finds every trial's batches at once,
and ``instance.chunk_costs`` prices the optima, then each policy's
batches, in one pass each.  No ``ProblemInstance`` is built.  Only
set-function costs and chunks in which a trial fails run trial by trial,
so a failed trial gets its NaN records and its stderr line exactly as
before.  Both paths price with the summation of ``chunk_costs``, which
``cost_of`` runs per trial, and no row's floats depend on the rows beside
it, so their records are the same bit for bit.  On either path a trial
fails only on a ``ValueError``, bad input such as an overflowing cost or a
zero optimum (which leaves no ratio), and then gets NaN records and one
stderr line.  Any other error is a bug and propagates.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .cost import CostFunction, check_real, check_whole, spec_values
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

    def fill(self, a: np.ndarray, rngs: Iterable[np.random.Generator]) -> None:
        """Fill each row of the (T, n) array ``a`` with n Poisson arrival
        times, row k drawn from the k-th generator of ``rngs``: proposals at
        the maximum rate are thinned, row by row, until n are accepted."""
        n = a.shape[1]
        for row, rng in zip(a, rngs):
            row[:] = np.fromiter(islice(_thinned_arrivals(self, rng, budget=100_000 * n + 100_000),
                                        n), float, n)


@dataclass(frozen=True)
class ConstantRate(RateFunction):
    rate: float

    def __post_init__(self) -> None:
        check_real("rate", self.rate, True)

    def value(self, t: float) -> float:
        return self.rate

    def max_rate(self) -> float:
        return self.rate

    def fill(self, a: np.ndarray, rngs: Iterable[np.random.Generator]) -> None:
        """I.i.d. exponential gaps: each row's standard exponentials in
        place, one scaling of the array and one running sum per row, the
        floats of ``np.cumsum(rng.exponential(1 / rate, n))``, as numpy
        draws exponential(scale) as scale * standard_exponential()."""
        for row, rng in zip(a, rngs):
            rng.standard_exponential(out=row)
        # numpy's scaling of its draws overflows to inf without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            a *= 1.0 / self.rate
        np.cumsum(a, axis=1, out=a)


@dataclass(frozen=True)
class SinusoidRate(RateFunction):
    """rate(t) = base + amplitude * sin(2 pi t / period)."""

    base: float
    amplitude: float
    period: float

    def __post_init__(self) -> None:
        # a NaN or inf base or amplitude would leave thinning accepting nothing
        if not (math.isfinite(self.base) and math.isfinite(self.amplitude)):
            raise ValueError("base and amplitude must be finite")
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
        if self.breaks[0] != 0.0 or any(not (b < c) for b, c in zip(self.breaks, self.breaks[1:])):
            raise ValueError("breaks must start at 0 and strictly increase")
        for r in self.rates:
            check_real("rates", r, False)

    def value(self, t: float) -> float:
        return self.rates[max(bisect_right(self.breaks, t) - 1, 0)]

    def max_rate(self) -> float:
        return max(self.rates)


def parse_rate_spec(spec: str) -> RateFunction:
    """``<lambda>`` for a constant rate or ``sin:<base>,<amp>,<period>``."""
    spec = spec.strip()
    if spec.startswith("sin:"):
        return SinusoidRate(*spec_values("rate", spec, "sin:", float, float, float))
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
            raise ValueError("thinning budget exhausted; rate is (nearly) zero almost everywhere")
        if accepted:
            yield t


def _instance(
    times: Sequence[float], rng: np.random.Generator,
    feature_sampler: Callable[[np.random.Generator, float], int] | None,
) -> ProblemInstance:
    """``times`` with feature 0 on every sample, or features drawn by the
    sampler in arrival order from the same generator."""
    feats = ((0,) * len(times) if feature_sampler is None
             else tuple(int(feature_sampler(rng, t)) for t in np.asarray(times).tolist()))
    return ProblemInstance(times, feats)


def gen_poisson(
    rate: RateFunction,
    n: int,
    seed: int,
    feature_sampler: Callable[[np.random.Generator, float], int] | None = None,
) -> ProblemInstance:
    """Generate exactly ``n`` Poisson arrivals under ``rate``, as
    ``rate.fill`` draws one row.

    Deterministic for a given seed.  All samples carry feature 0 unless
    ``feature_sampler`` draws each one's.
    """
    check_whole("n", n, 1)
    rng = np.random.default_rng(seed)
    times = np.empty(n)
    rate.fill(times[None], (rng,))
    return _instance(times, rng, feature_sampler)


def gen_poisson_horizon(
    rate: RateFunction,
    horizon: float,
    seed: int,
    feature_sampler: Callable[[np.random.Generator, float], int] | None = None,
) -> ProblemInstance:
    """Generate all Poisson arrivals on [0, horizon); the count varies.

    Raises if the window happens to contain no arrivals.
    """
    check_real("horizon", horizon, True)
    rng = np.random.default_rng(seed)
    times = list(_thinned_arrivals(rate, rng, horizon=horizon))
    if not times:
        raise ValueError(f"no arrivals in horizon {horizon!r}")
    return _instance(times, rng, feature_sampler)


class TrialRecord(NamedTuple):
    """One policy run on one generated instance, as the tuple of its fields
    in results-CSV column order.

    ``trial`` is "g<grid index>.t<trial index>"; ``seed`` regenerates the
    instance via gen_poisson.  Failed trials carry NaN metrics and their
    instance's ``n``, 0 for a horizon trial that drew no arrivals.
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


def _chunk_seeds(master_seed: int, grid_index: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """Each row's seed, ``SeedSequence((master_seed, grid_index[k],
    trials[k])).generate_state(1, np.uint64)[0]``, as a uint64 column."""
    t = trials.astype(np.uint32)
    # SeedSequence reads an int as its 32-bit words, low first; 0 is one word.
    words, x = [], master_seed
    while x or not words:
        words.append(x & 0xFFFFFFFF)
        x >>= 32
    return _uint64(*_seed_state([np.full_like(t, w) for w in words]
                                + [grid_index.astype(np.uint32), t], 2))


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


def _each_state(rng: np.random.Generator,
                states: Iterable[dict]) -> Iterator[np.random.Generator]:
    """``rng`` once per state, with that state set."""
    for state in states:
        rng.bit_generator.state = state
        yield rng


def _record(trial: str, seed: int, n: int, label: tuple[str, float | None],
            cost: ScheduleCost | None = None, opt: float = math.nan) -> TrialRecord:
    """One policy run's record; a failed run (``cost`` None) has NaN metrics."""
    if cost is None:
        return TrialRecord(trial, seed, n, *label, math.nan, math.nan, math.nan, math.nan,
                           math.nan)
    return TrialRecord(trial, seed, n, *label, cost.total, cost.waiting, cost.processing, opt,
                       cost.total / opt)


#: Why a trial whose optimum costs 0 fails: no policy has a ratio to it.
_ZERO_OPTIMUM = "ratio undefined: the optimal cost is 0"


def _run_chunk(args) -> list[TrialRecord]:
    """The records of rows lo..hi-1 of the study, where row g * trials + t
    is trial t of grid point g."""
    (grid, lo, hi, trials, policies, cost_fn, master_seed, horizon) = args
    points = np.arange(lo, hi) // trials
    seeds = _chunk_seeds(master_seed, points, np.arange(lo, hi) % trials)
    names = [f"g{row // trials}.t{row % trials}" for row in range(lo, hi)]
    # Each policy's policy and alpha fields, once for all its records; alpha
    # as a float, whose repr a results CSV writes and reads back.
    alphas = [getattr(p, "alpha", None) for p in policies]
    labels = [(p.spec_string(), a if a is None else float(a)) for p, a in zip(policies, alphas)]
    if cost_fn.count_based:
        try:
            return _lockstep_chunk(grid, points, names, policies, labels, cost_fn, seeds, horizon)
        except ValueError:
            pass  # trial by trial below, for each failure's own record and line
    records: list[TrialRecord] = []
    for trial, g, seed in zip(names, points.tolist(), seeds.tolist()):
        n, rate = grid[g]
        size = n or 0  # a horizon trial's size is 0 until it is drawn
        try:
            if horizon is None:
                inst = gen_poisson(rate, n, seed)
            else:
                inst = gen_poisson_horizon(rate, horizon, seed)
            size = inst.n
            _, opt = optimal_schedule(inst, cost_fn)
            if opt.total == 0:
                raise ValueError(_ZERO_OPTIMUM)
        except ValueError as exc:
            print(f"trial {trial}: {exc}", file=sys.stderr)
            records.extend(_record(trial, seed, size, label) for label in labels)
            continue
        for policy, label in zip(policies, labels):
            try:
                _, c = run_policy(inst, cost_fn, policy)
            except ValueError as exc:
                print(f"trial {trial} policy {label[0]}: {exc}", file=sys.stderr)
                records.append(_record(trial, seed, inst.n, label))
                continue
            records.append(_record(trial, seed, inst.n, label, c, opt.total))
    return records


def _draw_rows(grid, points: np.ndarray, seeds: np.ndarray,
               horizon: float | None) -> tuple[np.ndarray, np.ndarray]:
    """The arrival times of the trials of the grid ``points`` with the
    ``seeds`` as flat rows, as ``gen_poisson`` or ``gen_poisson_horizon``
    draws each: in ``n_values`` mode by each grid point's rate's ``fill``
    on its rows in place, in ``horizon`` mode by ``_thinned_arrivals``."""
    states = _each_state(np.random.default_rng(), _streams(seeds))
    if horizon is not None:
        rows = [np.fromiter(_thinned_arrivals(grid[g][1], rng, horizon), float)
                for g, rng in zip(points.tolist(), states)]
        return np.concatenate(rows), np.array([len(row) for row in rows])
    lengths = np.array([grid[g][0] for g in points.tolist()])
    a = np.empty(lengths.sum())
    at = 0
    for g, count in zip(*(x.tolist() for x in np.unique(points, return_counts=True))):
        n, rate = grid[g]
        rate.fill(a[at:at + count * n].reshape(count, n), islice(states, count))
        at += count * n
    return a, lengths


def _lockstep_chunk(grid, points, names, policies, labels, cost_fn, seeds,
                    horizon) -> list[TrialRecord]:
    """The chunk's records, as the per-trial loop makes them when no trial
    fails, in array operations from the seeds on: the arrival times of
    every trial as flat rows, one lockstep sweep for the optima, each
    policy's batches from every start at once, and one ``chunk_costs``
    pass for the optima and for each policy."""
    a, lengths = _draw_rows(grid, points, seeds, horizon)
    if not (lengths.all() and np.isfinite(a).all()):
        # the per-trial generators reject the trial: its own record below
        raise ValueError("arrival times must be finite, and a trial's arrivals not empty")
    # The samples all carry feature 0, which a count cost does not read.
    opt = chunk_costs(a, lengths, None, *lockstep_ends(a, lengths, cost_fn), cost_fn)
    costs = [(*label, *chunk_costs(a, lengths, None, *p.flushes_all(a, lengths, cost_fn),
                                   cost_fn))
             for p, label in zip(policies, labels)]
    records: list[TrialRecord] = []
    new = tuple.__new__  # a TrialRecord without the call of its __new__
    for k, (trial, seed, n, W_opt, F_opt) in enumerate(zip(names, seeds.tolist(),
                                                          lengths.tolist(), *opt)):
        J_opt = W_opt + F_opt
        if J_opt == 0:
            print(f"trial {trial}: {_ZERO_OPTIMUM}", file=sys.stderr)
            records.extend(_record(trial, seed, n, label) for label in labels)
            continue
        for policy, alpha, W, F in costs:
            J = W[k] + F[k]
            records.append(new(TrialRecord, (trial, seed, n, policy, alpha, J, W[k], F[k], J_opt,
                                             J / J_opt)))
    return records


_CHUNK = 250


def check_study_args(n_values: Sequence[int] | None, horizon: float | None,
                     rates: Sequence[RateFunction], policies: Sequence,
                     trials: int, seed: int, parallelism: int) -> None:
    """Raise ``run_study``'s one-line ValueError unless ``trials``,
    ``parallelism`` and every sample count in ``n_values`` (if given) is a
    positive integer, the master ``seed`` a non-negative one, exactly one
    of ``n_values`` and ``horizon`` is given, a horizon is positive and
    finite, the grid and ``policies`` are not empty, and no two policies
    share a label, under which their records would pool."""
    check_whole("trials", trials, 1)
    check_whole("parallelism", parallelism, 1)
    for n in () if n_values is None else n_values:
        check_whole("n", n, 1)
    check_whole("seed", seed, 0)
    if (horizon is None) == (n_values is None):
        raise ValueError("give exactly one of n or horizon")
    if horizon is not None:
        check_real("horizon", horizon, True)
    if not (len(rates) and len(policies) and (horizon is not None or len(n_values))):
        raise ValueError("need at least one grid point and one policy")
    labels = [p.spec_string() for p in policies]
    if len(set(labels)) < len(labels):
        raise ValueError(f"two policies share the label {max(labels, key=labels.count)!r}")


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
    A trial that raises a ValueError gives NaN records (reported on
    stderr); any other error propagates.  Arguments out of range
    (``check_study_args``) raise a one-line ValueError before any trial runs.
    """
    check_study_args(n_values, horizon, rates, policies, trials, seed, parallelism)
    grid = [(n, rate) for n in (n_values if horizon is None else [None])
            for rate in rates]
    # Chunk k holds rows 250 k.. of the study, grid point after grid point.
    tasks = [(grid, lo, min(lo + _CHUNK, len(grid) * trials), trials, tuple(policies), cost_fn,
              int(seed), horizon) for lo in range(0, len(grid) * trials, _CHUNK)]
    parallel = parallelism > 1 and len(tasks) > 1
    records: list[TrialRecord] = []
    if parallel:
        # Imported only here, so a serial study never loads the pool.
        from concurrent.futures import ProcessPoolExecutor
    # The fork start method starts every worker at the first submit.
    workers = min(parallelism, len(tasks))
    with (ProcessPoolExecutor(max_workers=workers) if parallel else nullcontext()) as pool:
        chunks = pool.map(_run_chunk, tasks, chunksize=1) if parallel else map(_run_chunk, tasks)
        # Both maps yield the chunks in task order without waiting for the rest.
        for k, chunk in enumerate(chunks):
            records.extend(chunk)
            if progress:
                print(f"chunk {k + 1}/{len(tasks)} done", file=sys.stderr)
    return records


@dataclass(frozen=True)
class SummaryRow:
    """One (grid point, policy) group's ratio quantiles; ``n`` is the
    records' common sample count, None when it varies (horizon mode)."""

    group: str
    policy: str
    n: int | None
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
        n = rs[0].n if all(r.n == rs[0].n for r in rs) else None
        rows.append(SummaryRow(group, policy, n, len(rs),
                               float(q[0]), float(q[1]), float(q[2]), float(q[3]), float(q[4])))
    return rows
