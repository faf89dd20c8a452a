"""The offline solvers' rows under a set function, one prefix at a time.

A set function prices a batch by its multiset of feature ids, so each row
grows its prefix multiset one sample at a time and calls ``f.value`` once
per prefix.  ``_set_windows`` finds the static windows that the dual
recursion relaxes, and ``_set_row_loop`` is the forward sweep that stops
each row at its distance reach (see ``offline``).  ``offline`` loads this
module on a set function's first solve, so a process that solves under
count costs only never compiles it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left

import numpy as np

from .cost import CostFunction, FeatureMultiset, _set_counts, _set_size
from .offline import _WINDOW_SLACK, _warn_drop

#: Nothing public: ``offline`` calls the two row builders.
__all__: list[str] = []


def _set_windows(a: np.ndarray, f: CostFunction, features) -> tuple[np.ndarray, np.ndarray]:
    """The window widths of the one row of arrival times ``a`` with feature
    ids ``features`` under the set function ``f``, and the flat prices of
    their batches, which the dual recursion reads: f(v_{i+1}..v_{i+1+d})
    at prices[o_i + d] for d < w[i], o_i the sum of the widths before row
    i.

    Row i grows its prefix multiset one sample at a time and prices each
    prefix once.  It stops at the first arrival past its reach, the least
    term a_k + f(first m) / m so far, with k = i + m - 1 and the slack and
    margin of ``_WINDOW_SLACK``.  Its first sample is always in, so every
    row keeps its singleton edge.  A NaN first term leaves the row
    unbounded, as a NaN f(1) leaves every row of
    ``offline._window_widths``; a NaN later term bounds nothing.
    """
    times = a.tolist()
    margins = (4 * np.spacing(a)).tolist()
    n, scale, empty = len(times), 1 + _WINDOW_SLACK, FeatureMultiset(())
    # The prices as raw doubles: no float object is kept per price.
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
    return np.array(widths), np.frombuffer(prices)


def _set_row_loop(t: np.ndarray, f: CostFunction,
                  features) -> tuple[list[int], list[int], list[int]]:
    """pred[k] of the one row of arrival times ``t`` with feature ids
    ``features`` under the set function ``f``, the nodes at which
    distances restart at 0, and the number of prefixes each row prices.

    Row i grows its prefix multiset inline, as ``FeatureMultiset.plus``
    does, and relaxes each batch once priced, by the float operations of
    ``offline._waits`` and the row loop, so it finds the batches that
    ``offline._row_loop`` would in the windows of ``_set_windows``.  It
    stops at the first arrival past their static reach or past its
    distance reach (see ``offline``), whose terms get the slack of
    ``_WINDOW_SLACK`` on the offset and on |D[i+m]| + |D[i]|, and 4 ulps of
    the arrival.  A NaN static reach leaves the row unbounded.  Distances
    restart only where the static windows' pieces start: at a node that no
    relaxed batch crosses, the rows stopped by their distance reach alone
    price on, latest first, until one's static window takes the node's
    sample.  Warns as ``offline._warn_unless_monotone`` does, of the prices
    read, each row's first against the empty batch's 0.
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
