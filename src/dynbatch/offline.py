"""Exact offline optimum for the batching objective.

The offline problem reduces to a shortest path on a DAG with one node per
sample plus a terminal node: an edge (i, j) means "process samples
i..j-1 together at the last arrival a_{j-1}" and carries the unnormalized
waiting-plus-processing cost of that batch.  Nodes are numbered 1..n+1 and
(q_1, ..., q_{n+1}) is already a topological order, so the minimum-weight
path is found by a single forward sweep.

Almost all edges are dominated.  If the arrivals of batch i..j-1 span more
than the single-sample cost f({v_i}), processing sample i alone at a_i and
the rest at a_{j-1} is strictly cheaper, because f is monotone (Assumption
1).  The solvers therefore relax only each row's window: the edges whose
batch ends at an arrival within f({v_i}) of a_i.  On arrivals at rate r a
window holds about r * f({v}) + 1 samples, so a solve does O(n w) work for
the widest window w instead of O(n^2).

``lockstep_ends`` runs the same sweep on T instances of one size at once,
for a count cost: it relaxes row i of all T instances in one vector step,
over edge entries built by the same formulas as the per-instance rows,
follows every row's predecessors back at once with ``instance.path_nodes``,
and returns exactly the batches ``optimal_schedule`` finds, as flat
arrays.  The study runner uses it, because a study's instances are small
and a per-instance solve is then mostly per-call overhead.

Three independent routes to the optimum are provided and cross-checked in
the test suite: the windowed forward sweep, a windowed backward value
recursion equal to the dual of the path linear program, and a brute-force
enumeration of all consecutive partitions for small n, which prunes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cost import CostFunction
from .instance import ProblemInstance, Schedule, ScheduleCost, cost_of, path_nodes

__all__ = [
    "EdgeWeightOracle",
    "DualSolution",
    "IlpConstraintViolation",
    "optimal_schedule",
    "lockstep_ends",
    "brute_force_optimum",
    "dual_recursion",
    "schedule_from_dual",
    "ilp_certificate",
    "check_ilp_assignment",
]


class EdgeWeightOracle:
    """Edge weights e(i, j) for 1 <= i < j <= n+1, dominated or not.

    e(i, j) = f({v_i..v_{j-1}}) + sum_{k=i}^{j-1} (a_{j-1} - a_k): the
    processing cost plus the waiting of samples i..j-1 until the batch's
    last arrival.  Waits are summed from arrival offsets relative to a_i,
    so their precision does not depend on where the time axis starts.  The
    solvers build their own windowed rows; this is the unpruned reference
    that they are tested against, and it prices the edges of
    ``ilp_certificate``.
    """

    def __init__(self, inst: ProblemInstance, f: CostFunction):
        self.inst = inst
        self.f = f
        self.n = inst.n

    def row(self, i: int) -> np.ndarray:
        """Weights e(i, j) for j = i+1, ..., n+1, in order."""
        a = self.inst.times_array
        spans = a[i - 1:] - a[i - 1]
        sizes = np.arange(1, len(spans) + 1)
        waits = sizes * spans - np.cumsum(spans)
        return self.f.prefix_costs(self.inst.features[i - 1:]) + waits

    def weight(self, i: int, j: int) -> float:
        if not (1 <= i < j <= self.n + 1):
            raise ValueError(f"edge ({i}, {j}) outside 1 <= i < j <= n+1")
        a = self.inst.times
        spans = [a[k] - a[i - 1] for k in range(i - 1, j - 1)]
        cost = self.f.batch_cost(self.inst.features[i - 1:j - 1])
        return cost + ((j - i) * spans[-1] - math.fsum(spans))


#: Relative slack on each window's reach.  It only ever keeps extra edges,
#: and an edge beyond it is dominated by more than rounding can hide, so
#: pruning never decides a tie.
_WINDOW_SLACK = 1e-9
#: Entries (rows times widest window) of one block of edge rows, unless a
#: single row is wider.
_BLOCK_ENTRIES = 1 << 14


def _window_widths(a: np.ndarray, single) -> np.ndarray:
    """w[t, i]: the number of batches, of sizes 1..w[t, i], that start at
    sample i+1 (0-based i) of row t of the (T, n) arrival times ``a`` and
    end at an arrival within ``single`` = f({v_{i+1}}) of its own."""
    reach = a + single * (1 + _WINDOW_SLACK) + 4 * np.spacing(a)
    ends = np.array([np.searchsorted(row, r, side="right") for row, r in zip(a, reach)])
    # A negative single-sample cost, outside Assumption 1, must still leave
    # the singleton edge that keeps every node reachable.
    return np.maximum(ends - np.arange(a.shape[1]), 1)


def _block_bounds(widths: np.ndarray) -> list[int]:
    """Row indices 0 = b_0 < b_1 < ... = n splitting the rows into blocks of
    at most _BLOCK_ENTRIES entries each (rows times the block's widest
    ``widths``, a row's window times the trials), or of one row where that
    row alone is wider."""
    n = len(widths)
    bounds = [0]
    while bounds[-1] < n:
        lo = bounds[-1]
        head = widths[lo:lo + max(1, _BLOCK_ENTRIES // int(widths[lo]))]
        entries = np.maximum.accumulate(head) * np.arange(1, len(head) + 1)
        bounds.append(lo + max(1, int(np.searchsorted(entries, _BLOCK_ENTRIES, side="right"))))
    return bounds


def _wait_blocks(a: np.ndarray, widths: np.ndarray, reverse: bool = False):
    """Yield (lo, hi, waits) for blocks of rows lo..hi-1 of the (T, n)
    arrival times ``a``, in ascending order or descending if ``reverse``:
    waits[t, i-lo, d] is the waiting part of e(i+1, i+2+d) in row t, for d
    below the block's widest window in ``widths``.

    Each entry depends only on its own row's prefix, so padding a row to
    the block's widest window changes no value.  A block holds at most
    _BLOCK_ENTRIES entries, or one row, so memory stays O(T n +
    _BLOCK_ENTRIES).
    """
    T = len(a)
    row_widths = widths.max(axis=0)
    # Past the last sample, windows read copies of it; the callers cut
    # those entries off.
    padded = np.concatenate((a, np.repeat(a[:, -1:], int(row_widths.max()) - 1, axis=1)), axis=1)
    bounds = _block_bounds(T * row_widths)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    for lo, hi in reversed(blocks) if reverse else blocks:
        w = int(row_widths[lo:hi].max())
        spans = sliding_window_view(padded[:, lo:hi + w - 1], w, axis=1) - a[:, lo:hi, None]
        # (1..w) * spans - cumsum(spans), in two arrays of the block's size.
        waits = np.cumsum(spans, axis=2)
        spans *= np.arange(1, w + 1)
        yield lo, hi, np.subtract(spans, waits, out=waits)


def _edge_rows(inst: ProblemInstance, f: CostFunction, reverse: bool = False):
    """Yield (i, row) with row[d] = e(i+1, i+2+d) for every batch of samples
    i+1..i+1+d (0-based i) inside row i's window, in ascending i, or in
    descending i if ``reverse``.

    Rows are built a block at a time by ``_wait_blocks``.  A count cost is
    tabulated once, up to the widest window, instead of priced row by row
    with ``prefix_costs``.
    """
    a = inst.times_array[None]
    if f.count_based:
        single = f.count_value(1)
    else:
        by_feature = {v: f.batch_cost((v,)) for v in set(inst.features)}
        single = np.array([by_feature[v] for v in inst.features])
    widths = _window_widths(a, single)
    g = f.count_table(int(widths.max())) if f.count_based else None
    w_of = widths[0].tolist()
    for lo, hi, waits in _wait_blocks(a, widths, reverse):
        e = waits[0]
        w = e.shape[1]
        if g is not None:
            e += g[1:w + 1]
        else:
            costs = np.zeros((hi - lo, w))
            for i in range(lo, hi):
                costs[i - lo, :w_of[i]] = f.prefix_costs(inst.features[i:i + w_of[i]])
            e += costs
        rows = e.tolist()
        order = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        for i in order:
            yield i, rows[i - lo][:w_of[i]]


def _batch_ends(pred: list[int], n: int) -> list[int]:
    """The last sample (1-based) of each batch on the path that ``pred``
    traces back from node n, in order."""
    ends = [n]
    while pred[ends[-1]]:
        ends.append(pred[ends[-1]])
    ends.reverse()
    return ends


def optimal_schedule(inst: ProblemInstance, f: CostFunction) -> tuple[Schedule, ScheduleCost]:
    """Minimum-cost schedule, by shortest path on the batch DAG.

    Visits nodes q_1..q_{n+1} in the natural topological order and relaxes
    each node's outgoing edges inside its window (see the module docstring),
    which is exact for every f satisfying Assumption 1 (monotone): O(n w)
    work and cost evaluations for windows of at most w samples.  Ties keep
    the earliest-relaxed predecessor, so the result is deterministic.
    """
    n = inst.n
    # dist[k], pred[k]: cheapest cost of batching samples 1..k, and the
    # k' < k after which that cost's last batch starts.
    dist = [0.0] + [math.inf] * n
    pred = [0] * (n + 1)
    for i, row in _edge_rows(inst, f):
        base = dist[i]
        for j, e in enumerate(row, i + 1):
            cand = base + e
            if cand < dist[j]:
                dist[j] = cand
                pred[j] = i
    ends = _batch_ends(pred, n)
    sched = Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends])
    return sched, cost_of(inst, sched, f)


def lockstep_ends(a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``optimal_schedule`` of every row of the (T, n) arrival times ``a``
    at once, for a count cost ``f``, as the flat (ends, stamps, rows) that
    ``chunk_costs`` reads: batch k ends at sample ends[k] (1-based) of row
    rows[k], at that sample's arrival stamps[k], before coincident batches
    merge.

    The sweep relaxes row i of all T instances in one vector step.  Entries
    past a row's own window are inf, so they never win.  Within one row
    the target nodes are distinct, so a strict ``<`` mask keeps the scalar
    loop's tie rule, and every sum is the same float operation: the ends
    are those of ``optimal_schedule`` exactly.  ``path_nodes`` then follows
    every row's predecessors back from n at once.
    """
    T, n = a.shape
    widths = _window_widths(a, f.count_value(1))
    g = f.count_table(int(widths.max()))
    dist = np.full((T, n + 1), math.inf)
    dist[:, 0] = 0.0
    pred = np.zeros((T, n + 1), dtype=np.intp)
    for lo, hi, e in _wait_blocks(a, widths):
        w = e.shape[2]
        e += g[1:w + 1]
        np.copyto(e, math.inf, where=np.arange(w) >= widths[:, lo:hi, None])
        for i in range(lo, hi):
            m = min(w, n - i)
            cand = dist[:, i, None] + e[:, i - lo, :m]
            better = cand < dist[:, i + 1:i + 1 + m]
            np.copyto(dist[:, i + 1:i + 1 + m], cand, where=better)
            np.copyto(pred[:, i + 1:i + 1 + m], i, where=better)
    rows, ends = path_nodes(pred, n)
    return ends, a[rows, ends - 1], rows


def _batch_cost_table(inst: ProblemInstance, f: CostFunction) -> list[list[float]]:
    """e[lo][hi]: unnormalized cost of batching samples lo..hi at a_hi.

    Computed by direct per-sample summation over every (lo, hi) pair,
    independent of the solvers' windowed, blocked rows, so it can serve as
    an oracle against them.
    """
    n = inst.n
    a = inst.times
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            wait = sum(a[hi - 1] - a[k - 1] for k in range(lo, hi + 1))
            table[lo][hi] = f.batch_cost(inst.features[lo - 1:hi]) + wait
    return table


def brute_force_optimum(
    inst: ProblemInstance, f: CostFunction, max_n: int = 20
) -> tuple[Schedule, ScheduleCost]:
    """Exhaustive optimum over all 2^(n-1) consecutive partitions.

    Each batch is processed at its last arrival time.  Ties prefer fewer
    batches, then the lexicographically earliest split positions.  Only
    usable for small n; intended as an independent oracle.
    """
    n = inst.n
    if n > max_n:
        raise ValueError(f"oracle size limit: n={n} exceeds max_n={max_n}")
    e = _batch_cost_table(inst, f)
    best_key: tuple | None = None
    best_splits: tuple[int, ...] = ()
    for mask in range(1 << (n - 1)):
        splits = tuple(k for k in range(1, n) if mask >> (k - 1) & 1)
        total = 0.0
        lo = 1
        for k in splits:
            total += e[lo][k]
            lo = k + 1
        total += e[lo][n]
        key = (total, len(splits), splits)
        if best_key is None or key < best_key:
            best_key = key
            best_splits = splits
    ends = [*best_splits, n]
    sched = Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends])
    return sched, cost_of(inst, sched, f)


@dataclass(frozen=True)
class DualSolution:
    """Backward value recursion lambda_i = min_{j>i} (e(i,j)/n + lambda_j).

    ``lambdas`` holds lambda_1..lambda_{n+1} (the last is 0); ``successors``
    holds the argmin r_1..r_n, smallest index on ties.  lambda_1 equals the
    optimal per-sample objective, and following the successors from node 1
    reconstructs an optimal schedule.
    """

    lambdas: tuple[float, ...]
    successors: tuple[int, ...]


def dual_recursion(inst: ProblemInstance, f: CostFunction) -> DualSolution:
    """The backward recursion over the same windowed rows as
    ``optimal_schedule``; a dominated edge is never the argmin, so the
    values are those of the full recursion under Assumption 1."""
    n = inst.n
    # lam[k] = lambda_{k+1}; lam[n] = lambda_{n+1} = 0.
    lam = [0.0] * (n + 1)
    succ = [0] * n
    for i, row in _edge_rows(inst, f, reverse=True):
        best, arg = math.inf, i + 1
        for j, e in enumerate(row, i + 1):
            val = e / n + lam[j]
            if val < best:
                best, arg = val, j
        lam[i] = best
        succ[i] = arg + 1
    return DualSolution(tuple(lam), tuple(succ))


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
    x = {(lo + 1, hi + 1): 1 for lo, hi in zip((0, *sched.ends), sched.ends)}
    check_ilp_assignment(inst.n, x)
    oracle = EdgeWeightOracle(inst, f)
    objective = math.fsum(oracle.weight(i, j) for (i, j), v in x.items() if v) / inst.n
    ref = cost_of(inst, sched, f).total
    if not math.isclose(objective, ref, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"assignment objective {objective!r} does not match schedule cost {ref!r}")
    return x
