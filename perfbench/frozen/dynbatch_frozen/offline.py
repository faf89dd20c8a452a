"""Exact offline optimum for the batching objective.

The offline problem reduces to a shortest path on a DAG with one node per
sample plus a terminal node: an edge (i, j) means "process samples
i..j-1 together at the last arrival a_{j-1}" and carries the unnormalized
waiting-plus-processing cost of that batch.  Nodes are numbered 1..n+1 and
(q_1, ..., q_{n+1}) is already a topological order, so the minimum-weight
path is found by a single forward sweep.

Three independent routes to the optimum are provided and cross-checked in
the test suite: the forward sweep, a backward value recursion equal to the
dual of the path linear program, and a brute-force enumeration of all
consecutive partitions for small n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, FeatureMultiset
from .instance import Batch, ProblemInstance, Schedule, ScheduleCost, cost_of, merge_coincident

__all__ = [
    "EdgeWeightOracle",
    "DualSolution",
    "IlpConstraintViolation",
    "optimal_schedule",
    "brute_force_optimum",
    "dual_recursion",
    "schedule_from_dual",
    "ilp_certificate",
    "check_ilp_assignment",
]


class EdgeWeightOracle:
    """Lazy edge weights e(i, j) for 1 <= i < j <= n+1.

    e(i, j) = f({v_i..v_{j-1}}) + (j-i) a_{j-1} - (S_{j-1} - S_{i-1}) with
    S_k the prefix sum of arrival times; the second and third terms total
    the waiting incurred by samples i..j-1 until the batch's last arrival.
    Rows are materialized on demand so memory stays O(n).
    """

    def __init__(self, inst: ProblemInstance, f: CostFunction):
        self.inst = inst
        self.f = f
        a = inst.times_array
        self.prefix_sums = np.concatenate(([0.0], np.cumsum(a)))  # S_0..S_n
        self._a = a
        self.n = inst.n
        if f.count_based:
            self._g = f.count_values(np.arange(self.n + 1))
        else:
            self._g = None

    def row(self, i: int) -> np.ndarray:
        """Weights e(i, j) for j = i+1, ..., n+1, in order."""
        n, a, S = self.n, self._a, self.prefix_sums
        sizes = np.arange(1, n - i + 2)
        waits = sizes * a[i - 1:n] - (S[i:n + 1] - S[i - 1])
        if self._g is not None:
            return self._g[sizes] + waits
        costs = np.empty(n - i + 1)
        feats = Counter()
        for k in range(i, n + 1):
            feats[self.inst.features[k - 1]] += 1
            costs[k - i] = self.f.value(FeatureMultiset(tuple(sorted(feats.items()))))
        return costs + waits

    def weight(self, i: int, j: int) -> float:
        if not (1 <= i < j <= self.n + 1):
            raise ValueError(f"edge ({i}, {j}) outside 1 <= i < j <= n+1")
        return float(self.row(i)[j - i - 1])


def optimal_schedule(inst: ProblemInstance, f: CostFunction) -> tuple[Schedule, ScheduleCost]:
    """Minimum-cost schedule, by shortest path on the batch DAG.

    Visits nodes q_1..q_{n+1} in the natural topological order, relaxing
    each node's outgoing edges in one vectorized step: O(n^2) plus n cost
    evaluations per row.  Ties keep the earliest-relaxed predecessor, so
    the result is deterministic.
    """
    oracle = EdgeWeightOracle(inst, f)
    n = inst.n
    dist = np.full(n + 2, np.inf)
    dist[1] = 0.0
    pred = np.zeros(n + 2, dtype=np.int64)
    for i in range(1, n + 1):
        cand = dist[i] + oracle.row(i)
        seg = dist[i + 1:n + 2]
        better = cand < seg
        seg[better] = cand[better]
        pred[i + 1:n + 2][better] = i
    path = [n + 1]
    while path[-1] != 1:
        path.append(int(pred[path[-1]]))
    path.reverse()
    batches = [
        Batch(lo, hi - 1, inst.times[hi - 2])
        for lo, hi in zip(path[:-1], path[1:])
    ]
    sched = Schedule(merge_coincident(batches))
    return sched, cost_of(inst, sched, f)


def _batch_cost_table(inst: ProblemInstance, f: CostFunction) -> list[list[float]]:
    """e[lo][hi]: unnormalized cost of batching samples lo..hi at a_hi.

    Computed by direct per-sample summation, independent of the prefix-sum
    oracle, so it can serve as an oracle against it.
    """
    n = inst.n
    a = inst.times
    table = [[0.0] * (n + 1) for _ in range(n + 1)]
    for lo in range(1, n + 1):
        for hi in range(lo, n + 1):
            wait = sum(a[hi - 1] - a[k - 1] for k in range(lo, hi + 1))
            if f.count_based:
                proc = f.count_value(hi - lo + 1)
            else:
                proc = f.value(inst.multiset(lo, hi))
            table[lo][hi] = proc + wait
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
    batches = []
    lo = 1
    for k in (*best_splits, n):
        batches.append(Batch(lo, k, inst.times[k - 1]))
        lo = k + 1
    sched = Schedule(merge_coincident(batches))
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
    oracle = EdgeWeightOracle(inst, f)
    n = inst.n
    lam = np.zeros(n + 2)
    succ = np.zeros(n + 1, dtype=np.int64)
    for i in range(n, 0, -1):
        vals = oracle.row(i) / n + lam[i + 1:n + 2]
        k = int(np.argmin(vals))
        succ[i] = i + 1 + k
        lam[i] = vals[k]
    return DualSolution(tuple(float(v) for v in lam[1:n + 2]),
                        tuple(int(v) for v in succ[1:n + 1]))


def schedule_from_dual(inst: ProblemInstance, dual: DualSolution) -> Schedule:
    """Schedule obtained by following the dual argmin successors from node 1."""
    batches = []
    i = 1
    while i <= inst.n:
        j = dual.successors[i - 1]
        batches.append(Batch(i, j - 1, inst.times[j - 2]))
        i = j
    return Schedule(merge_coincident(batches))


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
    x = {(b.lo, b.hi + 1): 1 for b in sched.batches}
    check_ilp_assignment(inst.n, x)
    oracle = EdgeWeightOracle(inst, f)
    objective = math.fsum(oracle.weight(i, j) for (i, j), v in x.items() if v) / inst.n
    ref = cost_of(inst, sched, f).total
    if not math.isclose(objective, ref, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError(
            f"assignment objective {objective!r} does not match schedule cost {ref!r}")
    return x
