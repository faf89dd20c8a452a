"""The offline solvers' rows under a set function, one prefix at a time.

A set function prices a batch by its multiset of feature ids, so each row
grows its prefix multiset one sample at a time and calls ``f.value`` at
most once per prefix.  ``_set_dual``, the dual recursion, walks the rows
backward and prices every prefix of their static windows, keeping no
prices.  ``_set_row_loop`` is the forward sweep that stops each row at
its distance reach (see ``offline``) and prices only the prefixes whose
batch can still relax its node, a lazy evaluation as in Minoux's
accelerated greedy; the two share no code.  ``offline`` prices count
costs only and loads this module on a set function's first solve, so a
process that solves under count costs only never compiles it.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .cost import CostFunction, FeatureMultiset, _set_counts, _set_size
from .offline import _WINDOW_SLACK, DualSolution, _warn_drop

#: Nothing public: ``offline`` calls the two row loops.
__all__: list[str] = []


def _set_dual(a: np.ndarray, f: CostFunction, features) -> DualSolution:
    """``offline.dual_recursion`` of the one row of arrival times ``a``
    with feature ids ``features`` under the set function ``f``.

    Rows run from the last to the first.  Row i grows its prefix multiset
    one sample at a time, prices each prefix once and relaxes lambda_i by
    the float operations of ``offline._waits`` under a strict ``<``.  It
    stops at the first arrival past its static reach, the least term
    a_k + f(first m) / m so far (k = i + m - 1), with the slack and margin
    of ``_WINDOW_SLACK``; a NaN first term leaves the row unbounded, as a
    NaN f(1) does in ``offline._window_widths``.  Warns once, of the first
    batch by row and size that costs NaN or less than one sample fewer, or
    for one sample less than the empty batch's 0.
    """
    times = a.tolist()
    margins = (4 * np.spacing(a)).tolist()
    n, slack, scale, empty = len(times), _WINDOW_SLACK, 1 + _WINDOW_SLACK, FeatureMultiset(())
    # lam[k] = lambda_{k+1}; lam[n] = lambda_{n+1} = 0.
    lam, succ, drops, value = [0.0] * (n + 1), [0] * n, [], f.value
    for i in range(n - 1, -1, -1):
        a_i = times[i]
        x, prev, total, reach, best, arg, k = empty, 0.0, 0.0, math.inf, math.inf, i + 1, i
        while k < n and not times[k] > reach:
            t_k = times[k]
            x = x.plus(features[k])
            price = value(x)
            k += 1
            m = k - i
            if not price >= prev - slack * abs(prev) and price != prev:
                drops.append((i, m, price, prev))
            prev, span = price, t_k - a_i
            total += span
            val = ((m * span - total) + price) / n + lam[k]
            if val < best:
                best, arg = val, k
            term = t_k + price / m * scale + margins[k - 1]
            if term < reach or m == 1:
                reach = term
        lam[i], succ[i] = best, arg + 1
    if drops:
        _warn_drop(*min(drops))
    return DualSolution(tuple(lam), tuple(succ))


def _set_row_loop(t: np.ndarray, f: CostFunction,
                  features) -> tuple[list[int], list[int], list[int]]:
    """pred[k] of the one row of arrival times ``t`` with feature ids
    ``features`` under the set function ``f``, the nodes at which
    distances restart at 0, and the number of prefixes each row walks.

    Row i relaxes the batch of each prefix it walks, by the float
    operations of ``offline._waits`` and the row loop, so it finds the
    batches that ``offline._row_loop`` would in the static windows that
    ``_set_dual`` walks.  It stops at the first arrival past their static
    reach or past its distance reach (see ``offline``), whose terms get
    the slack of ``_WINDOW_SLACK`` on the offset and on |D[i+m]| + |D[i]|,
    and 4 ulps of the arrival.  A NaN static reach leaves the row
    unbounded.

    A row prices its first prefix, and a later one only where the batch
    can relax the prefix's node: where, priced at P, the row's last price
    read, it would cost less than the node's distance.  Under a monotone
    f (Assumption 1) a skipped batch costs at least that, as its price is
    at least P and rounding keeps the order, so it fails the strict
    ``<``.  Taken at P, a skipped prefix's static term is a lower bound:
    where an arrival lies past such a bound but not past the static reach
    of the prices read, the row prices its skipped prefixes, in order,
    before it walks on, so it stops exactly where pricing every prefix
    would stop it.  After a NaN or infinite price, a row prices every
    prefix.  The multiset grows only up to the prefix priced last, as
    sorted ids and their (id, count) pairs.

    Distances restart only where the static windows' pieces start: at a
    node that no relaxed batch crosses, the rows stopped by their distance
    reach alone, latest first, price the prefixes they skipped, then price
    on, until one's static window takes the node's sample.  Warns as
    ``_set_dual`` does, of the prices read, each against a smaller prefix
    priced before it, or a row's first against the empty batch's 0.
    """
    times = t.tolist()
    margins = (4 * np.spacing(t)).tolist()
    n, slack, scale, inf = len(times), _WINDOW_SLACK, 1 + _WINDOW_SLACK, math.inf
    value, new, multiset, set_counts, set_size = (f.value, object.__new__, FeatureMultiset,
                                                  _set_counts, _set_size)
    dist = [inf] * (n + 1)
    pred = [0] * (n + 1)
    starts, widths, stopped, drops = [], [], [], []
    # far: the end of the farthest batch relaxed so far.
    far = 0

    def grow(ids: list, pairs: list, lo: int, hi: int, size: int) -> float:
        """Add the ids of samples lo..hi-1 to the sorted ``ids`` and their
        (id, count) ``pairs``, and price the multiset of ``size`` samples."""
        for fid in features[lo:hi]:
            j = bisect_left(ids, fid)
            if j < len(ids) and ids[j] == fid:
                pairs[j] = (fid, pairs[j][1] + 1)
            else:
                ids.insert(j, fid)
                pairs.insert(j, (fid, 1))
        x = new(multiset)
        set_counts(x, tuple(pairs))
        set_size(x, size)
        return value(x)

    def check(i: int, m: int, price: float, prev: float, prev_m: int) -> None:
        """Note a drop from the ``prev`` of the first prev_m samples of row
        i to the ``price`` of its first m."""
        if not price >= prev - slack * abs(prev) and price != prev:
            drops.append((i, m, price, prev, prev_m))

    def complete(i: int, skipped: list, reach: float, prev: float,
                 prev_m: int) -> tuple[float, float, int, bool]:
        """Price the ``skipped`` prefixes of row i, in order, each checked
        against the one priced before it or the empty batch, and return
        the row's static reach, its largest prefix priced and that one's
        size, and whether one of these prices is NaN or infinite."""
        ids, pairs, q, last_m, last, odd = [], [], i, 0, 0.0, False
        for m in skipped:
            price = grow(ids, pairs, q, i + m, m)
            q = i + m
            check(i, m, price, last, last_m)
            odd = odd or not -inf < price < inf
            reach = min(reach, times[q - 1] + price / m * scale + margins[q - 1])
            last_m, last = m, price
        skipped.clear()
        if last_m > prev_m:
            prev, prev_m = last, last_m
        return reach, prev, prev_m, odd

    def takes(row: list, p: int) -> bool:
        """Whether the static window of the stopped ``row`` [i, k, q, ids,
        pairs, reach, prev, prev_m, skipped], walked up to sample k with
        its multiset grown up to sample q, takes sample p >= k."""
        i, k, q, ids, pairs, reach, prev, prev_m, skipped = row
        if skipped:
            reach, prev, prev_m, _ = complete(i, skipped, reach, prev, prev_m)
        while k < p and not times[k] > reach:
            k += 1
            price = grow(ids, pairs, q, k, k - i)
            q = k
            check(i, k - i, price, prev, prev_m)
            reach = min(reach, times[k - 1] + price / (k - i) * scale + margins[k - 1])
            prev, prev_m = price, k - i
        row[1:] = k, q, ids, pairs, reach, prev, prev_m, skipped
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
        # The multiset holds samples i..q-1; prev prices the first prev_m,
        # the largest prefix read.  lo <= reach also takes the terms of the
        # skipped prefixes at their lower bound.
        ids, pairs, q, prev, prev_m, eager, skipped = [], [], i, 0.0, 0, False, []
        total, reach, lo, bound, k = 0.0, inf, inf, inf, i
        while k < n:
            t_k = times[k]
            span = t_k - a_i
            if t_k > reach or (span > bound and reach == reach):
                break
            if t_k > lo:
                reach, prev, prev_m, odd = complete(i, skipped, reach, prev, prev_m)
                eager, lo = eager or odd, reach
                if t_k > reach:
                    break
            margin = margins[k]
            k += 1
            m = k - i
            total += span
            wait = m * span - total
            d = dist[k]
            if m > 1 and not eager and not base + (wait + prev) < d:
                term = t_k + prev / m * scale + margin
                if term < reach:
                    skipped.append(m)
                    if term < lo:
                        lo = term
            else:
                # ``grow`` and ``check`` inline: this is the hot path.
                while q < k:
                    fid = features[q]
                    j = bisect_left(ids, fid)
                    if j < len(ids) and ids[j] == fid:
                        pairs[j] = (fid, pairs[j][1] + 1)
                    else:
                        ids.insert(j, fid)
                        pairs.insert(j, (fid, 1))
                    q += 1
                x = new(multiset)
                set_counts(x, tuple(pairs))
                set_size(x, m)
                price = value(x)
                if not price >= prev - slack * abs(prev) and price != prev:
                    drops.append((i, m, price, prev, prev_m))
                if not -inf < price < inf:
                    eager = True
                prev, prev_m = price, m
                cand = base + (wait + price)
                if cand < d:
                    dist[k] = d = cand
                    pred[k] = i
                term = t_k + price / m * scale + margin
                if term < reach or m == 1:
                    reach = term
                if term < lo or m == 1:
                    lo = term
            term = ((d - base + total) * scale + slack * abs(d) + base_slack) / m + margin
            if term < bound:
                bound = term
        if k < n and not times[k] > reach:
            stopped.append([i, k, q, ids, pairs, reach, prev, prev_m, skipped])
        widths.append(k - i)
        far = max(far, k)
    if drops:
        _warn_drop(*min(drops))
    return pred, starts, widths
