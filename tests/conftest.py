"""Shared corpora of random problem instances, and the flat schedule form."""

from __future__ import annotations

import numpy as np
import pytest

from dynbatch import ProblemInstance, ScheduleCost
from dynbatch.instance import chunk_costs


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


def assert_times_array(inst: ProblemInstance) -> None:
    """``inst.times_array`` is the read-only, C-contiguous float array of its
    times, and holds no view of another array."""
    a = inst.times_array
    assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
    assert not isinstance(a.base, np.ndarray)
    np.testing.assert_array_equal(a, np.asarray(inst.times, dtype=float))


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
