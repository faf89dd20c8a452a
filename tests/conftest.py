"""Shared corpora of random problem instances, and the flat schedule form."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from dynbatch import ProblemInstance, ScheduleCost
from dynbatch.instance import chunk_costs


#: What pricing a schedule whose waits or batch prices sum past the float
#: range raises.
OVERFLOW = "schedule cost overflows the float range"


def random_instances(count: int, max_n: int = 14, seed: int = 0) -> list[ProblemInstance]:
    """Mixed corpus: uniform and Poisson arrival times, plus degenerate
    shapes (single sample, all-coincident, duplicated times)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        n = int(rng.integers(1, max_n + 1))
        if k % 2 == 0:
            times = np.sort(rng.uniform(0.0, n / 2.0, size=n))
        else:
            times = np.cumsum(rng.exponential(0.5, size=n))
        if k % 17 == 0 and n >= 3:
            times[n // 2] = times[n // 2 - 1]  # force a duplicate arrival time
        out.append(ProblemInstance.from_times(times))
    out.append(ProblemInstance.from_times([0.0]))
    out.append(ProblemInstance.from_times([0.0, 0.0, 0.0]))
    out.append(ProblemInstance.from_times([1.5] * 6))
    return out


def assert_times_array(inst: ProblemInstance, times=None) -> None:
    """``inst.times`` is a read-only, C-contiguous float array that holds no
    view of another array, and holds ``times`` if they are given."""
    a = inst.times
    assert isinstance(a, np.ndarray)
    assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
    assert not isinstance(a.base, np.ndarray)
    if times is not None:
        np.testing.assert_array_equal(a, np.asarray(times, dtype=float))


def ragged(rows):
    """Rows of arrival times, of any lengths, as the flat (times, lengths)
    that the array kernels read."""
    rows = [np.asarray(row, dtype=float) for row in rows]
    return np.concatenate(rows), np.array([len(row) for row in rows])


@st.composite
def ragged_rows(draw, max_rows: int = 6, max_n: int = 14) -> list[np.ndarray]:
    """1 to ``max_rows`` rows of arrival times, each of its own length up to
    ``max_n``: gaps are often 0, a first time may be -0.0, and some rows
    arrive all at once."""
    gap = st.sampled_from([-0.0, 0.0, 0.0, 0.1, 0.5, 1.0, 2.5, 12.0]) | st.floats(0.0, 4.0)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rows))):
        n = draw(st.integers(min_value=1, max_value=max_n))
        gaps = st.lists(gap, min_size=n, max_size=n) | st.just([1.5] + [0.0] * (n - 1))
        rows.append(np.cumsum(draw(gaps)))
    return rows


def flat(ends, stamps):
    """Per-row lists of batch ends and stamps as the flat (ends, stamps,
    rows) arrays that chunk_costs reads and flushes_all returns."""
    counts = [len(e) for e in ends]
    return (np.array([hi for e in ends for hi in e], dtype=np.intp),
            np.array([t for s in stamps for t in s], dtype=float),
            np.arange(len(counts)).repeat(counts))


def row_costs(*args):
    """chunk_costs(*args) as one ScheduleCost per row, as cost_of gives it."""
    return [ScheduleCost(w, p, w + p) for w, p in zip(*chunk_costs(*args))]


@pytest.fixture(scope="session")
def small_corpus() -> list[ProblemInstance]:
    return random_instances(120, max_n=12, seed=2024)
