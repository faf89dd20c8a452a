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
takes the m = 1 term, a_i + f(1), for every row at once.  Under a set
function each row of ``setsweep`` grows its prefix multiset one sample at
a time and stops at the first arrival past the least term so far: these
are the static windows, every batch of which the dual recursion prices
once.  The forward sweep stops each row sooner, at its distance reach: the
least over m of a_i + (D[i+m] - D[i] + S_m) / m, where D is the sweep's
label of a node and S_m the sum of the first m offsets a_k - a_i.  Past
it, the path to node i+m and then a batch of the rest beats the batch,
as f(rest) <= f(all).  As D[i+m] <= D[i] + e(i, i+m), that reach is never
past the window's.  The sweep prices a batch only where it can still
relax its node: priced at the row's last price read, which a monotone f
never undercuts, it must cost less than D[i+m].  So it prices about half
the batches that it walks.  On arrivals at rate r a window holds about
r * f({v}) + 1 samples, so a solve does O(n w) work for the widest
window w instead of O(n^2).

No batch crosses from a sample to the next where the windows of that
sample and of all before it end at it; under a count cost these are the
samples whose window holds only themselves.  Each instance falls apart
there into pieces, solved each on its own: distances restart at 0 at the
start of every piece, and only there, so where the distance reach ends
rows sooner the ties still break as the static windows decide.  Under a
count cost one builder, ``_blocks``, prices the edges a block at a time,
and the sweep's two routes differ only in how they relax them, in the
same order within a piece, so they agree exactly.  The row loop relaxes
one node at a time in Python.  The lockstep relaxes node i of every
piece longer than i in one vector step, over all the pieces of all the
instances it is given, so a group of pieces takes as many steps as its
longest piece; the groups keep its distance tables within O(n) entries.
A count cost takes the lockstep unless the steps of its longest piece
would cost more than the rows of the row loop, as where one piece is
most of the rows.  This module prices count costs only: a set function
takes the row loops of ``setsweep``, which price and relax each batch in
one pass, forward for the sweep and backward for the dual recursion.
``optimal_schedule`` sweeps one instance, ``lockstep_ends`` the flat rows
(see ``instance``) of many, of any sizes: a study chunk.  Windows, pieces
and paths stay inside their row.  Both follow every row's predecessors
back at once with ``instance.path_nodes``, and ``lockstep_ends`` returns
the batches as flat arrays.

Three independent routes to the optimum are provided and cross-checked in
the test suite: the windowed forward sweep, a windowed backward value
recursion equal to the dual of the path linear program, and a brute-force
enumeration of all consecutive partitions for small n, which prunes nothing
and reads every batch's price from the unpruned ``EdgeWeightOracle`` rows.
The flow certificate of the path integer program, which checks a schedule
against the rows, is a test helper and not part of this module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .cost import CostFunction, check_whole
from .instance import (ProblemInstance, Schedule, ScheduleCost, cost_of, path_nodes,
                       searchsorted_rows)

__all__ = [
    "EdgeWeightOracle",
    "DualSolution",
    "optimal_schedule",
    "lockstep_ends",
    "brute_force_optimum",
    "dual_recursion",
]


class EdgeWeightOracle:
    """Edge weights e(i, j) for 1 <= i < j <= n+1, dominated or not.

    e(i, j) = f({v_i..v_{j-1}}) + sum_{k=i}^{j-1} (a_{j-1} - a_k): the
    processing cost plus the waiting of samples i..j-1 until the batch's
    last arrival.  Waits are summed from arrival offsets relative to a_i,
    so their precision does not depend on where the time axis starts, and
    ``batch_costs`` prices a row's prefixes as consecutive batches.  These
    unpruned rows are the reference that ``brute_force_optimum`` reads.
    """

    def __init__(self, inst: ProblemInstance, f: CostFunction):
        self.inst = inst
        self.f = f

    def row(self, i: int) -> np.ndarray:
        """Weights e(i, j) for j = i+1, ..., n+1, in order."""
        a = self.inst.times
        spans = a[i - 1:] - a[i - 1]
        sizes = np.arange(1, len(spans) + 1)
        waits = sizes * spans - np.cumsum(spans)
        features = self.inst.features[i - 1:]
        prefixes = (features[:m] for m in sizes.tolist())
        return self.f.batch_costs(prefixes, sizes) + waits


#: Relative slack on each term a_{i+m-1} + f(first m) / m of a window's
#: reach, which also gets a margin of 4 ulps of a_{i+m-1}.  It only ever
#: keeps extra edges, and an edge beyond it is dominated by more than
#: rounding can hide, so pruning never decides a tie: under a cost that is
#: not negative, a run of coincident arrivals, on which a split saves no
#: waiting, is never cut.
_WINDOW_SLACK = 1e-9
#: Entries of one block of edge entries (rows of the row loop, or columns of
#: the lockstep, times the block's widest window), unless one row or one
#: lockstep step is wider; and of a lockstep distance table, unless twice
#: its group's nodes are more (see ``_groups``).
_BLOCK_ENTRIES = 1 << 14
#: A lockstep step costs about as much as this many rows of the row loop.
#: On one piece of 800 samples with windows of 2, a step took 15 us and a
#: row 1.5 us (2-vCPU host, numpy 2.4).
_STEP_ROWS = 10


def _window_widths(a: np.ndarray, lengths: np.ndarray, f: CostFunction) -> np.ndarray:
    """w[k]: the number of batches, of sizes 1..w[k], that start at flat
    sample k of the flat rows ``a`` of ``lengths`` and end at an arrival of
    its row within f(1) of its own, under the count cost ``f``."""
    reach = a + f.count_value(1) * (1 + _WINDOW_SLACK) + 4 * np.spacing(a)
    # A negative single-sample cost, outside Assumption 1, must still leave
    # the singleton edge that keeps every node reachable.
    return np.maximum(searchsorted_rows(a, lengths, reach) - np.arange(len(a)), 1)


def _warn_unless_monotone(f: CostFunction, widths: np.ndarray, lengths: np.ndarray) -> None:
    """Warn where the count cost ``f`` prices m samples, for m up to the
    widest window of ``widths``, at NaN, or less, by more than
    _WINDOW_SLACK relative, than m - 1.  Outside Assumption 1 the windows,
    not the cost, can then decide the schedule.  The prices checked,
    g(0..w), are those the solve reads anyway; the check calls ``f`` no
    more.  One warning per solve, for the least such m, naming the first
    sample of the first window with room for it, in its row of the flat
    rows of ``lengths``."""
    prices = f.count_table(int(widths.max()))
    # prev[m]: g(m - 1), and -inf below g(0), which only NaN fails.  After
    # inf, only a lower price drops.
    prev = np.concatenate(([-np.inf], prices[:-1]))
    with np.errstate(invalid="ignore"):
        drop = ~(prices >= prev - _WINDOW_SLACK * np.abs(prev)) & (prices != prev)
    if not drop.any():
        return
    size = int(drop.argmax())
    i = int(np.argmax(widths >= size))
    starts = np.cumsum(lengths) - lengths
    i -= int(starts[np.searchsorted(starts, i, side="right") - 1])
    _warn_drop(i, size, float(prices[size]), float(prev[size]))


def _warn_drop(i: int, size: int, price: float, prev: float, fewer: int | None = None) -> None:
    """The warning of a batch of ``size`` samples from 0-based sample ``i``
    of its row that costs ``price``: NaN, or less than the ``prev`` of its
    first ``fewer`` samples, by default all but one."""
    fewer = size - 1 if fewer is None else fewer
    less = f", less than the {prev!r} of its first {fewer}" if price == price else ""
    warnings.warn(
        f"cost is not monotone: the batch of {size} samples from sample {i + 1} costs "
        f"{price!r}{less}; the solver's windows assume a monotone cost (Assumption 1), so "
        "the schedule may not be optimal", RuntimeWarning)


def _pieces(widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pieces of flat rows with the window ``widths``, as the flat
    (starts, lengths) of their samples.  A row is cut after every sample
    that no window crosses, which under a count cost is every sample whose
    window holds only itself, and after its last sample (no window leaves
    its row), so no batch of an optimal schedule spans two pieces."""
    n = len(widths)
    reach = np.maximum.accumulate(widths + np.arange(n))
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
            f: CostFunction, reverse: bool = False):
    """Yield (lo, hi, e) for runs of whole steps lo..hi-1, in ascending
    order or descending if ``reverse``.  Step s starts batches at the flat
    samples cols[first[s]:first[s + 1]] of the arrival times ``t``, and
    e[d, c] = e(k+1, k+2+d) for the batch of samples k..k+d, k the block's
    column c, priced by the count cost ``f``, or inf past k's window of
    ``widths``.

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
    g = f.count_table(len(d))
    for lo, hi, w in reversed(blocks) if reverse else blocks:
        c = cols[first[lo]:first[hi]]
        e = t.take(c + d[:w], mode="clip")
        e -= t[c]
        e = _waits(e)
        e += g[1:w + 1, None]
        np.putmask(e, d[:w] >= widths[c], math.inf)
        yield lo, hi, e


def _row_loop(t: np.ndarray, f: CostFunction, widths: np.ndarray,
              starts: list[int]) -> list[int]:
    """pred[k] of the pieces that begin at flat samples ``starts`` of the
    arrival times ``t``: the node k' < k after which the last batch of
    the cheapest schedule up to node k starts.  Row i relaxes the batches
    of samples i+1..i+1+d (0-based i) inside its window of ``widths``,
    whose entries ``_blocks`` prices by the count cost ``f``.  Distances
    start at 0 at the first node of each piece."""
    n = len(t)
    w_of = widths.tolist()
    first = set(starts)
    dist = [math.inf] * (n + 1)
    pred = [0] * (n + 1)
    steps = np.arange(n + 1)
    for lo, _, e in _blocks(t, widths, steps[:-1], steps, f):
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


def _groups(lengths: np.ndarray) -> list[int]:
    """Piece indices 0 = b_0 < b_1 < ... = len(lengths) splitting pieces
    sorted longest first into groups that ``_lockstep`` sweeps one after
    another.  A piece joins the group while the group's longest piece has
    at most twice its nodes (its length + 1), or while the group's table of
    (longest + 1) x pieces holds at most _BLOCK_ENTRIES entries.  So the
    first piece always fits, and a table holds at most
    max(_BLOCK_ENTRIES, twice its group's nodes) entries."""
    bounds = [0]
    while bounds[-1] < len(lengths):
        lo = bounds[-1]
        nodes = int(lengths[lo]) + 1
        fits = ((nodes <= 2 * (lengths[lo:] + 1))
                | (nodes * np.arange(1, len(lengths) - lo + 1) <= _BLOCK_ENTRIES))
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
    same order within a piece.  Distances live in one table of every node
    of the longest piece by the group's pieces, which ``_groups`` bounds.
    """
    active = np.searchsorted(-lengths, -np.arange(lengths[0]), side="left")
    # Step i starts batches at sample cols[c] for c in first[i]..first[i+1]-1:
    # position i of each of the active[i] longest pieces.
    first = np.concatenate(([0], np.cumsum(active)))
    cols = (starts[np.arange(first[-1]) - np.repeat(first[:-1], active)]
            + np.repeat(np.arange(len(active)), active))
    m_of, c_of = active.tolist(), first.tolist()
    n = len(m_of)
    # dist[k, p] and via[k, p]: the distance to node k of piece p, from 0 at
    # its node 0, and the node of p that its last batch starts after.
    dist = np.full((n + 1, len(lengths)), math.inf)
    dist[0] = 0.0
    via = np.zeros(dist.shape, dtype=np.int32)
    for lo, hi, e in _blocks(t, widths, cols, first, f):
        for i in range(lo, hi):
            # Entries past the longest piece are past every window.
            w, m, c = min(len(e), n - i), m_of[i], c_of[i] - c_of[lo]
            _relax(e[:w, c:c + m] + dist[i, :m], dist[i + 1:i + 1 + w, :m],
                   via[i + 1:i + 1 + w, :m], i)
        del e  # free this block before ``_blocks`` builds the next
    # Node k + 1 of piece p, for each sample k of p.
    k, p = np.nonzero(np.arange(n)[:, None] < lengths)
    pred[starts[p] + k + 1] = starts[p] + via[k + 1, p]


def _sweep(a: np.ndarray, lengths: np.ndarray, f: CostFunction,
           features=None) -> tuple[np.ndarray, np.ndarray]:
    """The optimum of every row of the flat rows ``a`` of ``lengths``, as
    the flat (rows, ends) of its batches: batch k ends at sample ends[k]
    (1-based) of row rows[k], rows ascending, before coincident batches
    merge.  Ties keep the earliest-relaxed predecessor within a piece.  A
    set function reads the one row's feature ids.

    The rows are cut into ``_pieces``, each solved on its own, with
    distances from 0 at its start.  A count cost takes ``_lockstep``, one
    group of pieces at a time, unless the steps of its longest piece
    alone cost more than the rows of the row loop; the two routes make the
    same float operations, so they find the same batches.  A set function
    takes ``setsweep._set_row_loop``.
    """
    N = len(a)
    # pred[j]: the node after which the last batch into node j starts, with
    # nodes numbered flat: node j follows flat sample j - 1.
    if not f.count_based:
        from .setsweep import _set_row_loop
        pred = np.array(_set_row_loop(a, f, features)[0], dtype=np.intp)
    else:
        widths = _window_widths(a, lengths, f)
        _warn_unless_monotone(f, widths, lengths)
        starts, sizes = _pieces(widths)
        if _STEP_ROWS * sizes.max() <= N:
            order = np.argsort(-sizes, kind="stable")
            starts, sizes = starts[order], sizes[order]
            pred = np.zeros(N + 1, dtype=np.intp)
            groups = _groups(sizes)
            for lo, hi in zip(groups[:-1], groups[1:]):
                _lockstep(a, widths, starts[lo:hi], sizes[lo:hi], f, pred)
        else:
            pred = np.array(_row_loop(a, f, widths, starts.tolist()), dtype=np.intp)
    # Each batch's last sample points to the last of the batch before it in
    # its row, and a row's first batch's to itself.
    row = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    last = path_nodes(np.where(pred[1:] > first[row], pred[1:] - 1, np.arange(N)),
                      first + lengths - 1)
    rows = row[last]
    return rows, last + 1 - first[rows]


def optimal_schedule(inst: ProblemInstance, f: CostFunction) -> tuple[Schedule, ScheduleCost]:
    """Minimum-cost schedule, by shortest path on the batch DAG.

    Visits nodes q_1..q_{n+1} in the natural topological order and relaxes
    each node's outgoing edges inside its window, under a set function up
    to its distance reach (see the module docstring), which is exact for
    every f satisfying Assumption 1 (monotone): O(n w) work and cost
    evaluations for windows of at most w samples.  Ties keep
    the earliest-relaxed predecessor, so the result is deterministic.  The
    distances restart at 0 at each piece (see the module docstring), so a
    tie inside a piece breaks as if the piece stood alone, whatever the
    pieces before it cost; distances carried across pieces could round it
    the other way.
    """
    ends = _sweep(inst.times, np.array([inst.n]), f, inst.features)[1]
    sched = Schedule.from_ends(ends, inst.times[ends - 1])
    return sched, cost_of(inst, sched, f)


def lockstep_ends(a: np.ndarray, lengths: np.ndarray,
                  f: CostFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``optimal_schedule`` of every row of the flat rows ``a`` of
    ``lengths`` at once, for a count cost ``f``, as the flat (ends, stamps,
    rows) that ``chunk_costs`` reads: batch k ends at sample ends[k]
    (1-based) of row rows[k], at that sample's arrival stamps[k], before
    coincident batches merge.
    """
    rows, ends = _sweep(a, lengths, f)
    return ends, a[(np.cumsum(lengths) - lengths)[rows] + ends - 1], rows


def brute_force_optimum(
    inst: ProblemInstance, f: CostFunction, max_n: int = 20
) -> tuple[Schedule, ScheduleCost]:
    """Exhaustive optimum over all 2^(n-1) consecutive partitions.

    Each batch is processed at its last arrival time.  Ties prefer fewer
    batches, then the lexicographically earliest split positions: the split
    sets come by size, each size in lexicographic order, and only a
    strictly smaller total replaces the best, so a NaN total is never
    replaced and never replaces.  Only usable for small n; intended as an
    independent oracle: it prices every batch from the unpruned
    ``EdgeWeightOracle`` rows, not the windows.
    """
    check_whole("max_n", max_n, 1)
    n = inst.n
    if n > max_n:
        raise ValueError(f"oracle size limit: n={n} exceeds max_n={max_n}")
    oracle = EdgeWeightOracle(inst, f)
    # e[lo - 1][hi - lo]: the batch of samples lo..hi, processed at a_hi.
    e = [oracle.row(lo).tolist() for lo in range(1, n + 1)]
    best_total: float | None = None
    best_splits: tuple[int, ...] = ()
    for splits in chain.from_iterable(combinations(range(1, n), k) for k in range(n)):
        total = 0.0
        lo = 1
        for k in splits:
            total += e[lo - 1][k - lo]
            lo = k + 1
        total += e[lo - 1][n - lo]
        if best_total is None or total < best_total:
            best_total, best_splits = total, splits
    ends = np.array([*best_splits, n])
    sched = Schedule.from_ends(ends, inst.times[ends - 1])
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
    """The backward recursion over the static windows of
    ``optimal_schedule``; a dominated edge is never the argmin, so the
    values are those of the full recursion under Assumption 1.  A set
    function takes ``setsweep._set_dual``."""
    if not f.count_based:
        from .setsweep import _set_dual
        return _set_dual(inst.times, f, inst.features)
    n, a, lengths = inst.n, inst.times, np.array([inst.n])
    widths = _window_widths(a, lengths, f)
    _warn_unless_monotone(f, widths, lengths)
    # lam[k] = lambda_{k+1}; lam[n] = lambda_{n+1} = 0.
    lam = [0.0] * (n + 1)
    succ = [0] * n
    w_of = widths.tolist()
    steps = np.arange(n + 1)
    for lo, hi, e in _blocks(a, widths, steps[:-1], steps, f, reverse=True):
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
