"""Exact offline optimum for the batching objective.

The offline problem reduces to a shortest path on a DAG with one node per
sample plus a terminal node: an edge (i, j) means "process samples
i..j-1 together at the last arrival a_{j-1}" and carries the unnormalized
waiting-plus-processing cost of that batch.  Nodes are numbered 1..n+1 and
(q_1, ..., q_{n+1}) is already a topological order, so the minimum-weight
path is found by a single forward sweep.

Almost all edges are dominated.  Split batch i..j-1, processed at
a = a_{j-1}, after its first m samples: processing those at a_{i+m-1}
saves m (a - a_{i+m-1}) of waiting and costs at most f(first m), because
f(rest) <= f(all) for a monotone f (Assumption 1).  So the batch is
strictly beaten once a passes row i's reach, the least over m of
a_{i+m-1} + f(first m) / m.  The solvers relax only each row's window:
the edges whose batch ends at an arrival within that reach.  A count cost
takes the m = 1 term, a_i + f(1), for every row at once.  A set function
grows each row's prefix multiset one sample at a time and stops the row
at the first arrival past the least term so far; the prices it takes on
the way are the edges' prices, so every batch inside a window is priced
exactly once, and both the sweep and the dual recursion read them.  On
arrivals at rate r a window holds about r * f({v}) + 1 samples, so a
solve does O(n w) work for the widest window w instead of O(n^2).

No batch crosses from a sample to the next where the windows of that
sample and of all before it end at it; under a count cost these are the
samples whose window holds only themselves.  Each instance falls apart
there into pieces, solved each on its own: distances restart at 0 at the
start of every piece.  One builder, ``_blocks``, prices the edges a
block at a time, and the sweep's two routes differ only in how they
relax them, in the same order within a piece, so they agree exactly.
The row loop relaxes one node at a time in Python.  The lockstep relaxes
node i of every piece longer than i in one vector step, over all the
pieces of all the instances it is given, so a group of pieces takes as
many steps as its longest piece; the groups keep its distance ring
within O(n) entries.  A count cost takes the lockstep unless the steps
of its longest piece would cost more than the rows of the row loop, as
where one piece is most of the rows; set functions take the row loop.
``optimal_schedule`` sweeps one instance, ``lockstep_ends`` T instances
of one size (a study chunk); both follow every row's predecessors back
at once with ``instance.path_nodes``, and ``lockstep_ends`` returns the
batches as flat arrays.

Three independent routes to the optimum are provided and cross-checked in
the test suite: the windowed forward sweep, a windowed backward value
recursion equal to the dual of the path linear program, and a brute-force
enumeration of all consecutive partitions for small n, which prunes nothing.
"""

from __future__ import annotations

import math
import warnings
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .cost import CostFunction, FeatureMultiset, _set_counts, _set_size
from .instance import ProblemInstance, Schedule, ScheduleCost, _row_cost, cost_of, path_nodes

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


#: Relative slack on each term a_{i+m-1} + f(first m) / m of a window's
#: reach, which also gets a margin of 4 ulps of a_{i+m-1}.  It only ever
#: keeps extra edges, and an edge beyond it is dominated by more than
#: rounding can hide, so pruning never decides a tie: under a cost that is
#: not negative, a run of coincident arrivals, on which a split saves no
#: waiting, is never cut.
_WINDOW_SLACK = 1e-9
#: Entries of one block of edge entries (rows of the row loop, or columns of
#: the lockstep, times the block's widest window), unless one row or one
#: lockstep step is wider; and of a lockstep distance ring, unless its
#: group's nodes take more (see ``_groups``).
_BLOCK_ENTRIES = 1 << 14
#: A lockstep step costs about as much as this many rows of the row loop.
#: On one piece of 800 samples with windows of 2, a step took 15 us and a
#: row 1.5 us (2-vCPU host, numpy 2.4).
_STEP_ROWS = 10


def _window_widths(a: np.ndarray, f: CostFunction) -> np.ndarray:
    """w[t, i]: the number of batches, of sizes 1..w[t, i], that start at
    sample i+1 (0-based i) of row t of the (T, n) arrival times ``a`` and
    end at an arrival within f(1) of its own, under the count cost ``f``."""
    reach = a + f.count_value(1) * (1 + _WINDOW_SLACK) + 4 * np.spacing(a)
    ends = np.array([np.searchsorted(row, r, side="right") for row, r in zip(a, reach)])
    # A negative single-sample cost, outside Assumption 1, must still leave
    # the singleton edge that keeps every node reachable.
    return np.maximum(ends - np.arange(a.shape[1]), 1)


def _set_windows(a: np.ndarray, f: CostFunction, features) -> tuple[np.ndarray, np.ndarray]:
    """The (1, n) window widths of the arrival times ``a`` with feature ids
    ``features`` under the set function ``f``, and the flat prices of their
    batches: f(v_{i+1}..v_{i+1+d}) at prices[o_i + d] for d < w[0, i], o_i
    the sum of the widths before row i.

    Row i grows its prefix multiset one sample at a time, inline, as
    ``FeatureMultiset.plus`` does, and prices each prefix once.  It stops
    at the first arrival past its reach, the least term a_k + f(first m) / m
    so far, with k = i + m - 1 and the slack and margin of
    ``_WINDOW_SLACK``.  Its first sample is always in, so every row keeps
    its singleton edge.  A NaN first term leaves the row unbounded, as a
    NaN f(1) leaves every row of ``_window_widths``; a NaN later term
    bounds nothing.
    """
    times = a.tolist()
    margins = (4 * np.spacing(a)).tolist()
    n, scale = len(times), 1 + _WINDOW_SLACK
    value, new, multiset, set_counts, set_size = (f.value, object.__new__, FeatureMultiset,
                                                  _set_counts, _set_size)
    # The prices as raw doubles: no float object is kept per price.
    widths, prices = [], array("d")
    for i in range(n):
        counts, reach, k = (), math.inf, i
        while k < n and not times[k] > reach:
            fid = features[k]
            j = bisect_left(counts, (fid,))
            if j < len(counts) and counts[j][0] == fid:
                grown = list(counts)
                grown[j] = (fid, counts[j][1] + 1)
                counts = tuple(grown)
            else:
                counts = counts[:j] + ((fid, 1),) + counts[j:]
            x = new(multiset)
            set_counts(x, counts)
            set_size(x, k + 1 - i)
            price = value(x)
            prices.append(price)
            term = times[k] + price / (k + 1 - i) * scale + margins[k]
            if term < reach or k == i:
                reach = term
            k += 1
        widths.append(k - i)
    return np.array([widths]), np.frombuffer(prices)


def _windows(a: np.ndarray, f: CostFunction, features=None):
    """The (T, n) window widths of the arrival times ``a`` under ``f``, and
    the prices that ``_blocks`` reads for a set function: ``_set_windows``
    of the one row's feature ids ``features``, or None for a count cost.
    Warns if ``f`` is not monotone on them (``_warn_unless_monotone``)."""
    if f.count_based:
        widths, prices = _window_widths(a, f), None
    else:
        widths, prices = _set_windows(a[0], f, features)
    _warn_unless_monotone(f, widths, prices)
    return widths, prices


def _warn_unless_monotone(f: CostFunction, widths: np.ndarray, prices) -> None:
    """Warn where a batch that the solve prices costs less, by more than
    _WINDOW_SLACK relative, than the batch of its first samples but one.
    Outside Assumption 1 the windows, not the cost, can then decide the
    schedule.  The prices checked are those the solve reads anyway: a set
    function's ``prices`` row by row, or a count cost's g(0..w) for the
    widest window w; the check calls ``f`` no more.  One warning per
    solve, for the first such batch, naming its first sample and size."""
    n = widths.shape[1]
    widths = widths.ravel()
    count = prices is None
    if count:
        prices = f.count_table(int(widths.max()))
        first = np.zeros(1, dtype=np.intp)
    else:
        first = np.cumsum(widths) - widths
    # drop[k]: prices[k + 1] is a batch one sample larger than prices[k].
    drop = prices[1:] < prices[:-1] - _WINDOW_SLACK * np.abs(prices[:-1])
    drop[first[1:] - 1] = False
    if not drop.any():
        return
    k = int(drop.argmax()) + 1
    if count:
        size, i = k, int(np.argmax(widths >= k)) % n
    else:
        i = int(np.searchsorted(first, k, side="right")) - 1
        size = k - int(first[i]) + 1
    warnings.warn(
        f"cost is not monotone: the batch of {size} samples from sample {i + 1} costs "
        f"{float(prices[k])!r}, less than the {float(prices[k - 1])!r} of its first {size - 1}; "
        "the solver's windows assume a monotone cost (Assumption 1), so the schedule may "
        "not be optimal", RuntimeWarning)


def _pieces(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of the rows of the (T, n) window ``widths``, as the flat
    (starts, lengths) of their samples in row-major order.  A row is cut
    after every sample that no window crosses, which under a count cost is
    every sample whose window holds only itself, and after its last
    sample, so no batch of an optimal schedule spans two pieces."""
    n = widths.shape[1]
    reach = np.maximum.accumulate(widths + np.arange(n), axis=1)
    ends = np.flatnonzero(reach == np.arange(1, n + 1)) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return starts, ends - starts


def _waits(spans: np.ndarray) -> np.ndarray:
    """The waiting parts of the batches whose arrival offsets from their
    first sample are spans[d], d = 0, 1, ...: (d+1) * spans[d] minus the sum
    of spans[0..d], added in order, in place of ``spans``.  Entry d reads
    only offsets 0..d, so the floats do not depend on how far an array is
    padded."""
    if 16 * len(spans) > spans[0].size:
        waits = np.cumsum(spans, axis=0)
    else:
        # numpy accumulates along axis 0 one column at a time, which is
        # slow for many short columns; add whole rows instead.
        waits = spans.copy()
        for d in range(1, len(waits)):
            waits[d] += waits[d - 1]
    spans *= np.arange(1, len(spans) + 1)[:, None]
    return np.subtract(spans, waits, out=waits)


def _blocks(t: np.ndarray, widths: np.ndarray, cols: np.ndarray, first: np.ndarray,
            f: CostFunction, prices=None, reverse: bool = False):
    """Yield (lo, hi, e) for runs of whole steps lo..hi-1, in ascending
    order or descending if ``reverse``.  Step s starts batches at the flat
    samples cols[first[s]:first[s + 1]] of the arrival times ``t``, and
    e[d, c] = e(k+1, k+2+d) for the batch of samples k..k+d, k the block's
    column c, priced by ``f``, or inf past k's window of ``widths``.  A set
    function's batches take their flat ``prices`` from ``_set_windows``.

    A block holds at most _BLOCK_ENTRIES entries (its columns times its
    steps' widest window), or one step where that step alone is wider, so
    memory stays O(n + _BLOCK_ENTRIES).  Past the last sample, entries
    read copies of it; no entry's floats depend on the block (``_waits``).
    """
    tops = np.maximum.reduceat(widths[cols], first[:-1])
    blocks = []
    lo = 0
    while lo < len(tops):
        head = np.maximum.accumulate(tops[lo:lo + max(1, _BLOCK_ENTRIES // int(tops[lo]))])
        entries = head * (first[lo + 1:lo + 1 + len(head)] - first[lo])
        k = max(1, int(np.searchsorted(entries, _BLOCK_ENTRIES, side="right")))
        blocks.append((lo, lo + k, int(head[k - 1])))
        lo += k
    d = np.arange(int(tops.max()))[:, None]
    if f.count_based:
        g = f.count_table(len(d))
    else:
        row_start = np.cumsum(widths) - widths
    for lo, hi, w in reversed(blocks) if reverse else blocks:
        c = cols[first[lo]:first[hi]]
        e = t.take(c + d[:w], mode="clip")
        e -= t[c]
        e = _waits(e)
        if f.count_based:
            e += g[1:w + 1, None]
        else:
            # Entries past a window read the next rows' prices: masked below.
            e += prices.take(row_start[c] + d[:w], mode="clip")
        np.putmask(e, d[:w] >= widths[c], math.inf)
        yield lo, hi, e


def _row_loop(t: np.ndarray, f: CostFunction, widths: np.ndarray, prices,
              starts: list[int]) -> list[int]:
    """pred[k] of the pieces that begin at flat samples ``starts`` of the
    arrival times ``t``: the node k' < k after which the last batch of
    the cheapest schedule up to node k starts.  Row i relaxes the batches
    of samples i+1..i+1+d (0-based i) inside its window of ``widths``,
    whose entries ``_blocks`` prices.  Distances start at 0 at the first
    node of each piece."""
    n = len(t)
    w_of = widths.tolist()
    first = set(starts)
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    steps = np.arange(n + 1)
    for lo, _, e in _blocks(t, widths, steps[:-1], steps, f, prices):
        i = lo
        for row in e.T.tolist():
            if i in first:
                # Every batch into node i has been relaxed: its pred is final.
                dist[i] = 0.0
            base = dist[i]
            j = i
            for e_ij in row[:w_of[i]]:
                j += 1
                cand = base + e_ij
                if cand < dist[j]:
                    dist[j] = cand
                    pred[j] = i
            i += 1
    return pred


def _relax(cand: np.ndarray, dist: np.ndarray, via: np.ndarray, i: int) -> None:
    """Lower ``dist`` to ``cand`` wherever that is strictly less and record
    step ``i`` in ``via`` there: the row loop's rule, for one lockstep
    step of every piece at once."""
    better = cand < dist
    np.copyto(dist, cand, where=better)
    np.copyto(via, i, where=better)


def _ring_span(top):
    """Rows of ``_lockstep``'s distance ring for windows of up to ``top``
    samples: top + 1 nodes in reach of a step, and room to move on about
    top / 2 steps between shifts."""
    return top + 1 + np.maximum(1, top // 2)


def _groups(lengths: np.ndarray, tops: np.ndarray) -> list[int]:
    """Piece indices 0 = b_0 < b_1 < ... = len(lengths) splitting pieces
    sorted longest first, with widest windows ``tops``, into groups that
    ``_lockstep`` sweeps one after another.  A piece joins the group while
    the group's ring span is at most twice its nodes (its length + 1), or
    while the ring holds at most _BLOCK_ENTRIES entries.  A window is no
    wider than its piece, so the first piece always fits, and a ring holds
    at most max(_BLOCK_ENTRIES, twice its group's nodes) entries.  Each
    group ends at a piece with fewer nodes than half its span, so spans
    shrink by about a quarter from group to group."""
    bounds = [0]
    while bounds[-1] < len(lengths):
        lo = bounds[-1]
        span = _ring_span(np.maximum.accumulate(tops[lo:]))
        fits = ((span <= 2 * (lengths[lo:] + 1))
                | (span * np.arange(1, len(span) + 1) <= _BLOCK_ENTRIES))
        bounds.append(len(lengths) if fits.all() else lo + int(np.argmin(fits)))
    return bounds


def _lockstep(t: np.ndarray, widths: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
              f: CostFunction, pred: np.ndarray) -> None:
    """Write pred[k + 1] for each flat sample k of the pieces (``starts``,
    ``lengths``), longest first, of the flat arrival times ``t`` and
    window ``widths``, under the count cost ``f``: the flat node after
    which the batch that ends at sample k starts.

    Step i relaxes node i of every piece longer than i, so the active
    pieces are a shrinking prefix and the loop runs as many steps as the
    longest piece.  The edge entries come from ``_blocks``, as those of
    the row loop do: the same floats, and the same strict ``<`` in the
    same order within a piece.  Distances live in a ring of ``_ring_span``
    nodes per piece, which ``_groups`` bounds.
    """
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    # Step i starts batches at sample cols[c] for c in first[i]..first[i+1]-1:
    # position i of each of the active[i] longest pieces.
    first = np.concatenate(([0], np.cumsum(active)))
    cols = (starts[np.arange(first[-1]) - np.repeat(first[:-1], active)]
            + np.repeat(np.arange(len(active)), active))
    top = int(widths[cols].max())
    m_of, c_of = active.tolist(), first.tolist()
    # dist[r, p] and via[r, p]: the distance to node off + r of piece p,
    # from 0 at its node 0, and the node of p that its last batch starts
    # after.  A step reads row i - off and writes the top rows after it.
    span = int(_ring_span(top))
    dist = np.full((span, len(lengths)), math.inf)
    dist[0] = 0.0
    via = np.zeros(dist.shape, dtype=np.int32)
    off = 0

    def settle(rows):
        """Write pred for the nodes off + rows of every piece that has them."""
        r, p = np.nonzero((off + rows[:, None] <= lengths) & (off + rows[:, None] >= 1))
        pred[starts[p] + off + rows[r]] = starts[p] + via[rows[r], p]

    for lo, hi, e in _blocks(t, widths, cols, first, f):
        w = len(e)
        for i in range(lo, hi):
            if i + top >= off + span:
                settle(np.arange(i - off))
                dist[:off + span - i] = dist[i - off:]
                dist[off + span - i:] = math.inf
                via[:off + span - i] = via[i - off:]
                off = i
            r, m, c = i - off, m_of[i], c_of[i] - c_of[lo]
            _relax(e[:, c:c + m] + dist[r, :m], dist[r + 1:r + 1 + w, :m],
                   via[r + 1:r + 1 + w, :m], i)
        del e  # free this block before ``_blocks`` builds the next
    settle(np.arange(len(m_of) + 1 - off))


def _sweep(a: np.ndarray, f: CostFunction, features=None) -> tuple[np.ndarray, np.ndarray]:
    """The optimum of every row of the (T, n) arrival times ``a``, as the
    flat (rows, ends) of its batches: batch k ends at sample ends[k]
    (1-based) of row rows[k], rows ascending, before coincident batches
    merge.  Ties keep the earliest-relaxed predecessor within a piece.  A
    set function reads the one row's feature ids.

    The rows are cut into ``_pieces``, each solved on its own, with
    distances from 0 at its start.  A count cost takes ``_lockstep``, one
    group of pieces at a time, unless the steps of its longest piece
    alone cost more than the rows of the row loop; a set function takes
    the row loop.  The two routes make the same float operations, so they
    find the same batches.
    """
    T, n = a.shape
    widths, prices = _windows(a, f, features)
    starts, lengths = _pieces(widths)
    t, widths = a.ravel(), widths.ravel()
    # pred[j]: the node after which the last batch into node j starts,
    # with nodes numbered flat: row t's node k is t * n + k.
    if f.count_based and _STEP_ROWS * lengths.max() <= T * n:
        order = np.argsort(-lengths, kind="stable")
        tops = np.maximum.reduceat(widths, starts)[order]
        starts, lengths = starts[order], lengths[order]
        pred = np.zeros(T * n + 1, dtype=np.intp)
        groups = _groups(lengths, tops)
        for lo, hi in zip(groups[:-1], groups[1:]):
            _lockstep(t, widths, starts[lo:hi], lengths[lo:hi], f, pred)
    else:
        pred = np.array(_row_loop(t, f, widths, prices, starts.tolist()), dtype=np.intp)
    # Row t's last node is the next row's first: give every row its own.
    pred = pred[1:].reshape(T, n) - np.arange(0, T * n, n)[:, None]
    return path_nodes(np.concatenate((np.zeros((T, 1), dtype=np.intp), pred), axis=1), n)


def optimal_schedule(inst: ProblemInstance, f: CostFunction) -> tuple[Schedule, ScheduleCost]:
    """Minimum-cost schedule, by shortest path on the batch DAG.

    Visits nodes q_1..q_{n+1} in the natural topological order and relaxes
    each node's outgoing edges inside its window (see the module docstring),
    which is exact for every f satisfying Assumption 1 (monotone): O(n w)
    work and cost evaluations for windows of at most w samples.  Ties keep
    the earliest-relaxed predecessor, so the result is deterministic.  The
    distances restart at 0 at each piece (see the module docstring), so a
    tie inside a piece breaks as if the piece stood alone, whatever the
    pieces before it cost; distances carried across pieces could round it
    the other way.
    """
    a = inst.times_array
    ends = _sweep(a[None], f, inst.features)[1]
    stamps = a[ends - 1]
    # Coincident batches merge, as by ``Schedule.from_ends``.
    keep = np.append(stamps[1:] != stamps[:-1], True)
    ends, stamps = ends[keep], stamps[keep]
    return Schedule(tuple(ends.tolist()), tuple(stamps.tolist())), _row_cost(inst, ends, stamps, f)


def lockstep_ends(a: np.ndarray, f: CostFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``optimal_schedule`` of every row of the (T, n) arrival times ``a``
    at once, for a count cost ``f``, as the flat (ends, stamps, rows) that
    ``chunk_costs`` reads: batch k ends at sample ends[k] (1-based) of row
    rows[k], at that sample's arrival stamps[k], before coincident batches
    merge.
    """
    rows, ends = _sweep(a, f)
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
    a = inst.times_array
    widths, prices = _windows(a[None], f, inst.features)
    # lam[k] = lambda_{k+1}; lam[n] = lambda_{n+1} = 0.
    lam = [0.0] * (n + 1)
    succ = [0] * n
    w_of = widths[0].tolist()
    steps = np.arange(n + 1)
    for lo, hi, e in _blocks(a, widths[0], steps[:-1], steps, f, prices, reverse=True):
        rows = e.T.tolist()
        for i in range(hi - 1, lo - 1, -1):
            best, arg = math.inf, i + 1
            j = i
            for e_ij in rows[i - lo][:w_of[i]]:
                j += 1
                val = e_ij / n + lam[j]
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
