"""Proof-only helpers: checks of the package's results that only tests run.

The pending-count step curves integrate a schedule's waiting exactly, the
flow certificate checks a schedule against the path integer program, and
``edge_weight`` and ``batch_cost_table`` price batches by direct
summation, independently of the solvers' windowed rows and of
``EdgeWeightOracle.row``, so they can serve as oracles against both.
``batch_cost`` prices one batch by ``f.value``, and ``batches`` lists a
schedule's batches one by one.
``bitmask_optimum`` keeps brute force's earlier enumeration over bit masks
as the reference for its tie and NaN rules.  ``fixed_size_close`` and
``fixed_delay_close`` keep the fixed rules' earlier scalar forms, one
batch from one start, as references for the package's ``close_all``, and
``reference_flushes`` drives a scalar rule through one instance.
``static_set_windows`` keeps the set-function static windows as the
solvers once built them, every batch priced into one flat array and
checked for monotonicity there.  Over those prices, ``static_set_ends``
keeps the set-function sweep that relaxed every batch of the static
windows, the reference for the sweep that stops each row at its distance
reach, and ``static_set_dual`` the dual recursion that read them, the
reference for ``setsweep._set_dual``, which keeps no prices.
``eager_set_row_loop`` keeps that sweep as it was when it priced every
prefix it walked, the reference for the sweep that prices only the
batches that can still relax their node.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from dynbatch import (
    CostFunction,
    DualSolution,
    FeatureMultiset,
    FixedDelay,
    FixedSize,
    ProblemInstance,
    Schedule,
    cost_of,
)
from dynbatch import offline
from dynbatch.cost import _set_counts, _set_size
from dynbatch.offline import _WINDOW_SLACK, EdgeWeightOracle, _warn_drop


def batch_cost(f: CostFunction, features) -> float:
    """f of the batch of samples with these feature ids."""
    return f.value(FeatureMultiset.from_features(features))


def fixed_size_close(policy: FixedSize, times, features, f: CostFunction,
                     lo: int) -> tuple[int, float]:
    """The next ``k`` arrivals, at the k-th arrival's time; a final
    partial batch is processed at the last arrival."""
    hi = min(lo + policy.k, len(times))
    return hi, times[hi - 1]


def fixed_delay_close(policy: FixedDelay, times, features, f: CostFunction,
                      lo: int) -> tuple[int, float]:
    """Flush once the oldest pending sample has waited ``delay``.

    Every sample that has arrived by the flush instant joins the batch.
    With ``delay`` 0 this degenerates to processing each arrival instant's
    samples immediately.
    """
    flush = times[lo] + policy.delay
    n = len(times)
    hi = lo + 1
    while hi < n and times[hi] <= flush:
        hi += 1
    return hi, flush


def reference_close(policy, times, features, f: CostFunction, lo: int) -> tuple[int, float]:
    """The batch from ``lo`` by a scalar rule: the oracle rule of a fixed
    policy, and ``Wta.close``, the package's own, for the waiting policy."""
    rule = {FixedSize: fixed_size_close, FixedDelay: fixed_delay_close}.get(type(policy))
    return (rule or type(policy).close)(policy, times, features, f, lo)


def reference_flushes(policy, times, features, f: CostFunction) -> tuple[list[int], list[float]]:
    """``reference_close`` from the first sample on until every sample is
    in a batch: the last sample (1-based) of each batch, and its time."""
    ends, stamps = [], []
    hi = 0
    while hi < len(times):
        hi, t = reference_close(policy, times, features, f, hi)
        ends.append(hi)
        stamps.append(t)
    return ends, stamps


def batches(sched: Schedule) -> tuple[tuple[int, int, float], ...]:
    """(lo, hi, time) of each batch of ``sched``: samples lo..hi (1-based,
    inclusive) processed together at ``time``."""
    ends, stamps = sched.ends.tolist(), sched.stamps.tolist()
    return tuple((lo + 1, hi, t) for lo, hi, t in zip((0, *ends), ends, stamps))


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
    arrivals = inst.times.tolist()
    for lo, hi, t in batches(sched):
        d = float(t)
        for a_i in arrivals[lo - 1:hi]:
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


def edge_weight(inst: ProblemInstance, f: CostFunction, i: int, j: int) -> float:
    """e(i, j) for 1 <= i < j <= n+1: f of samples i..j-1 plus their waits
    until a_{j-1}, summed by ``math.fsum`` from offsets relative to a_i.
    Prices the one batch only, so a ``CountTable`` need cover only its size."""
    if not (1 <= i < j <= inst.n + 1):
        raise ValueError(f"edge ({i}, {j}) outside 1 <= i < j <= n+1")
    a = inst.times.tolist()
    spans = [a[k] - a[i - 1] for k in range(i - 1, j - 1)]
    cost = batch_cost(f, inst.features[i - 1:j - 1])
    return cost + ((j - i) * spans[-1] - math.fsum(spans))


def batch_cost_table(inst: ProblemInstance, f: CostFunction) -> list[list[float]]:
    """e[lo][hi]: unnormalized cost of batching samples lo..hi at a_hi, by
    direct per-sample summation over every (lo, hi) pair."""
    n = inst.n
    a = inst.times.tolist()
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            wait = sum(a[hi - 1] - a[k - 1] for k in range(lo, hi + 1))
            table[lo][hi] = batch_cost(f, inst.features[lo - 1:hi]) + wait
    return table


def table_optimum(inst: ProblemInstance, f: CostFunction) -> Schedule:
    """The consecutive partition that ``brute_force_optimum``'s rule picks
    over ``batch_cost_table``: least total, summed batch by batch from the
    left, then fewest batches, then the earliest split positions."""
    n = inst.n
    e = batch_cost_table(inst, f)

    def key(splits):
        total = 0.0
        for lo, hi in zip((0, *splits), (*splits, n)):
            total += e[lo + 1][hi]
        return total, len(splits), splits

    best = min((s for r in range(n) for s in combinations(range(1, n), r)), key=key)
    ends = [*best, n]
    return Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends])


def bitmask_optimum(inst: ProblemInstance, f: CostFunction) -> tuple[Schedule, float]:
    """The schedule and total of the split set that brute force picks, by
    its earlier enumeration: every bit mask of the n - 1 split positions,
    its splits rebuilt bit by bit, each batch priced from the
    ``EdgeWeightOracle`` rows and summed from the left, and the least
    (total, number of splits, splits) key kept."""
    n = inst.n
    e = [EdgeWeightOracle(inst, f).row(lo).tolist() for lo in range(1, n + 1)]
    best_key = None
    for mask in range(1 << (n - 1)):
        splits = tuple(k for k in range(1, n) if mask >> (k - 1) & 1)
        total = 0.0
        lo = 1
        for k in splits:
            total += e[lo - 1][k - lo]
            lo = k + 1
        total += e[lo - 1][n - lo]
        key = (total, len(splits), splits)
        if best_key is None or key < best_key:
            best_key = key
    total, _, splits = best_key
    ends = [*splits, n]
    return Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends]), total


def static_set_windows(a: np.ndarray, f: CostFunction, features) -> tuple[np.ndarray, np.ndarray]:
    """The static window widths of the one row of arrival times ``a`` with
    feature ids ``features`` under the set function ``f``, and the flat
    prices of their batches: f(v_{i+1}..v_{i+1+d}) at prices[o_i + d] for
    d < w[i], o_i the sum of the widths before row i.

    Row i grows its prefix multiset one sample at a time and prices each
    prefix once.  It stops at the first arrival past its reach, the least
    term a_k + f(first m) / m so far, with k = i + m - 1 and the slack and
    margin of ``_WINDOW_SLACK``.  Its first sample is always in.  Then it
    warns, once, of the first price in flat order that is NaN or less, by
    more than _WINDOW_SLACK relative, than the one before it in its row,
    or a row's first than the empty batch's 0.
    """
    times = a.tolist()
    margins = (4 * np.spacing(a)).tolist()
    n, scale, empty = len(times), 1 + _WINDOW_SLACK, FeatureMultiset(())
    widths, prices = [], array("d")
    for i in range(n):
        x, reach, k = empty, math.inf, i
        while k < n and not times[k] > reach:
            x = x.plus(features[k])
            price = f.value(x)
            prices.append(price)
            term = times[k] + price / (k + 1 - i) * scale + margins[k]
            if term < reach or k == i:
                reach = term
            k += 1
        widths.append(k - i)
    widths, prices = np.array(widths), np.frombuffer(prices)
    first = np.cumsum(widths) - widths
    prev = np.concatenate(([-np.inf], prices[:-1]))
    prev[first] = 0.0
    with np.errstate(invalid="ignore"):
        drop = ~(prices >= prev - _WINDOW_SLACK * np.abs(prev)) & (prices != prev)
    if drop.any():
        k = int(drop.argmax())
        i = int(np.searchsorted(first, k, side="right")) - 1
        _warn_drop(i, k - int(first[i]) + 1, float(prices[k]), float(prev[k]))
    return widths, prices


def _static_set_rows(a: np.ndarray, f: CostFunction, features) -> tuple[np.ndarray, list]:
    """The static window widths of ``static_set_windows`` and each row's
    batch weights e(i, i+1..i+w) inside its window, as lists: the waits of
    ``offline._waits`` plus the prices."""
    widths, prices = static_set_windows(a, f, features)
    rows, o = [], 0
    for i, w in enumerate(widths.tolist()):
        waits = offline._waits((a[i:i + w] - a[i])[:, None])[:, 0]
        rows.append((waits + prices[o:o + w]).tolist())
        o += w
    return widths, rows


def static_set_ends(inst: ProblemInstance, f: CostFunction, starts=None) -> list[int]:
    """The batch ends of the optimum under the set function ``f`` by its
    earlier sweep: every batch of the static windows of
    ``static_set_windows``, priced once there, relaxed row by row with a
    strict ``<``, and distances from 0 at each node of ``starts``, by
    default the starts of the windows' ``offline._pieces``."""
    n = inst.n
    widths, rows = _static_set_rows(inst.times, f, inst.features)
    if starts is None:
        starts = offline._pieces(widths)[0].tolist()
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    for i, row in enumerate(rows):
        if i in starts:
            dist[i] = 0.0
        for j, e_ij in enumerate(row, i + 1):
            if dist[i] + e_ij < dist[j]:
                dist[j], pred[j] = dist[i] + e_ij, i
    ends = [n]
    while pred[ends[-1]]:
        ends.append(pred[ends[-1]])
    return ends[::-1]


def static_set_dual(inst: ProblemInstance, f: CostFunction) -> DualSolution:
    """``offline.dual_recursion`` under the set function ``f`` by its
    earlier route: the prices of ``static_set_windows``, then the backward
    recursion over each row's batches, lambda_i the least e(i, j) / n +
    lambda_j under a strict ``<``, so ties keep the smallest j."""
    n = inst.n
    rows = _static_set_rows(inst.times, f, inst.features)[1]
    lam = [0.0] * (n + 1)
    succ = [0] * n
    for i in range(n - 1, -1, -1):
        best, arg = math.inf, i + 1
        for j, e_ij in enumerate(rows[i], i + 1):
            val = e_ij / n + lam[j]
            if val < best:
                best, arg = val, j
        lam[i], succ[i] = best, arg + 1
    return DualSolution(tuple(lam), tuple(succ))


def eager_set_row_loop(t: np.ndarray, f: CostFunction,
                        features) -> tuple[list[int], list[int], list[int]]:
    """``setsweep._set_row_loop`` as it was before it priced only the
    batches that can relax their node: pred[k] of the one row of arrival
    times ``t`` with feature ids ``features`` under the set function
    ``f``, the nodes at which distances restart at 0, and the number of
    prefixes each row walks, every one of them priced.

    Row i grows its prefix multiset inline, as ``FeatureMultiset.plus``
    does, and relaxes each batch once priced, by the float operations of
    ``offline._waits`` and the row loop, so it finds the batches that
    ``offline._row_loop`` would in the windows of
    ``static_set_windows``.  It stops at the first arrival past their
    static reach or past its distance reach (see ``offline``), whose terms
    get the slack of ``_WINDOW_SLACK`` on the offset and on |D[i+m]| +
    |D[i]|, and 4 ulps of the arrival.  A NaN static reach leaves the row
    unbounded.  Distances restart only where the static windows' pieces
    start: at a node that no relaxed batch crosses, the rows stopped by
    their distance reach alone price on, latest first, until one's static
    window takes the node's sample.  Warns as ``static_set_windows`` does,
    of the prices read, each row's first against the empty batch's 0.
    """
    times = t.tolist()
    margins = (4 * np.spacing(t)).tolist()
    n, slack, scale = len(times), _WINDOW_SLACK, 1 + _WINDOW_SLACK
    value, new, multiset, set_counts, set_size = (f.value, object.__new__, FeatureMultiset,
                                                  _set_counts, _set_size)
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    starts, widths, stopped, drops = [], [], [], []
    # far: the end of the farthest batch relaxed so far.
    far = 0

    def takes(row: list, p: int) -> bool:
        """Whether the static window of the stopped ``row``, [i, k, x, reach,
        prev] with prices taken up to sample k, takes sample p >= k."""
        i, k, x, reach, prev = row
        while k < p and not times[k] > reach:
            x = x.plus(features[k])
            price = value(x)
            k += 1
            if not price >= prev - slack * abs(prev) and price != prev:
                drops.append((i, k - i, price, prev))
            reach = min(reach, times[k - 1] + price / (k - i) * scale + margins[k - 1])
            prev = price
        row[1:] = k, x, reach, prev
        widths[i] = k - i
        return k == p and not times[p] > reach

    for i in range(n):
        if far <= i:
            while stopped and not takes(stopped[-1], i):
                stopped.pop()
            if not stopped:
                dist[i] = 0.0
                starts.append(i)
        base, a_i = dist[i], times[i]
        base_slack = slack * abs(base)
        counts, prev, total, reach, bound, k = (), 0.0, 0.0, math.inf, math.inf, i
        while k < n:
            t_k = times[k]
            span = t_k - a_i
            if t_k > reach or (span > bound and reach == reach):
                break
            fid = features[k]
            j = bisect_left(counts, (fid,))
            if j < len(counts) and counts[j][0] == fid:
                grown = list(counts)
                grown[j] = (fid, counts[j][1] + 1)
                counts = tuple(grown)
            else:
                counts = counts[:j] + ((fid, 1),) + counts[j:]
            margin = margins[k]
            k += 1
            m = k - i
            x = new(multiset)
            set_counts(x, counts)
            set_size(x, m)
            price = value(x)
            if not price >= prev - slack * abs(prev) and price != prev:
                drops.append((i, m, price, prev))
            prev = price
            total += span
            cand = base + ((m * span - total) + price)
            d = dist[k]
            if cand < d:
                dist[k] = d = cand
                pred[k] = i
            term = t_k + price / m * scale + margin
            if term < reach or m == 1:
                reach = term
            term = ((d - base + total) * scale + slack * abs(d) + base_slack) / m + margin
            if term < bound:
                bound = term
        if k < n and not times[k] > reach:
            stopped.append([i, k, x, reach, prev])
        widths.append(k - i)
        far = max(far, k)
    if drops:
        _warn_drop(*min(drops))
    return pred, starts, widths


def schedule_from_dual(inst: ProblemInstance, dual: DualSolution) -> Schedule:
    """Schedule obtained by following the dual argmin successors from node 1."""
    ends = []
    i = 1
    while i <= inst.n:
        i = dual.successors[i - 1]
        ends.append(i - 1)
    return Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends])


class IlpConstraintViolation(ValueError):
    """A 0/1 batch assignment violates the path flow constraints."""

    def __init__(self, node: int, message: str):
        super().__init__(message)
        self.node = node


def check_ilp_assignment(n: int, x: dict[tuple[int, int], int]) -> None:
    """Verify the flow constraints of the path integer program.

    ``x`` maps edges (i, j), 1 <= i < j <= n+1, to 0/1; missing edges are 0.
    Exactly one unit must leave node 1, and flow must be conserved at every
    node 2..n.  Raises IlpConstraintViolation naming the failing node.
    """
    for (i, j), v in x.items():
        if v not in (0, 1):
            raise ValueError(f"assignment x[{i},{j}] = {v!r} is not binary")
        if not (1 <= i < j <= n + 1):
            raise ValueError(f"edge ({i}, {j}) outside 1 <= i < j <= n+1")
    out_flow = [0] * (n + 2)
    in_flow = [0] * (n + 2)
    for (i, j), v in x.items():
        out_flow[i] += v
        in_flow[j] += v
    if out_flow[1] != 1:
        raise IlpConstraintViolation(1, f"node 1 must emit exactly one batch, got {out_flow[1]}")
    for i in range(2, n + 1):
        if out_flow[i] != in_flow[i]:
            raise IlpConstraintViolation(
                i, f"flow conservation violated at node {i}: out {out_flow[i]} != in {in_flow[i]}")


def ilp_certificate(
    inst: ProblemInstance, f: CostFunction, sched: Schedule
) -> dict[tuple[int, int], int]:
    """0/1 edge assignment certifying ``sched`` as a valid flow of its cost.

    Returns x with x[(lo, hi+1)] = 1 for every batch [lo, hi]; verifies the
    flow constraints and that the assignment's objective matches the
    schedule's cost.
    """
    sched.validate_for(inst)
    ends = sched.ends.tolist()
    x = {(lo + 1, hi + 1): 1 for lo, hi in zip((0, *ends), ends)}
    check_ilp_assignment(inst.n, x)
    objective = math.fsum(edge_weight(inst, f, i, j) for (i, j), v in x.items() if v) / inst.n
    ref = cost_of(inst, sched, f).total
    if not math.isclose(objective, ref, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"assignment objective {objective!r} does not match schedule cost {ref!r}")
    return x


def finite_rounds_bound(f1: float, f2: float, f12: float, rounds: int) -> float:
    """Ratio guaranteed after finitely many rounds, before the release gap
    correction: 2 (f1 + f2) / (2 f12 + (f1 + f2 - f12) / rounds)."""
    return 2.0 * (f1 + f2) / (2.0 * f12 + (f1 + f2 - f12) / rounds)
