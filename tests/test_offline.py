import math
import time
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbatch import (
    BUILTIN_COSTS,
    CappedLinear,
    ConstantCost,
    CountTable,
    CustomSetFunction,
    FeatureMultiset,
    Log1pCount,
    ProblemInstance,
    Schedule,
    SqrtCount,
    brute_force_optimum,
    cost_of,
    dual_recursion,
    gen_poisson,
    optimal_schedule,
)
from dynbatch import instance, offline, setsweep
from dynbatch.offline import EdgeWeightOracle
from dynbatch.sim import ConstantRate, SinusoidRate

from conftest import ragged, ragged_rows, row_costs
from oracles import (
    IlpConstraintViolation,
    batch_cost,
    batches,
    bitmask_optimum,
    check_ilp_assignment,
    eager_set_row_loop,
    edge_weight,
    ilp_certificate,
    schedule_from_dual,
    static_set_dual,
    static_set_ends,
    static_set_windows,
)

COSTS = [SqrtCount(), Log1pCount(), CappedLinear(3, 10), ConstantCost(1)]


def _partition(sched):
    return [(lo, hi) for lo, hi, _ in batches(sched)]


def _day_trace(n, seed=1):
    return gen_poisson(SinusoidRate(2.0, 1.5, 86400.0), n, seed)


class TestEdgeWeightOracle:
    def test_matches_direct_sum(self):
        inst = ProblemInstance.from_times([0.0, 0.3, 1.1, 1.1, 4.0])
        for i in range(1, 6):
            for j in range(i + 1, 7):
                direct = math.sqrt(j - i) + sum(
                    inst.times[j - 2] - inst.times[k - 1] for k in range(i, j))
                assert math.isclose(edge_weight(inst, SqrtCount(), i, j), direct,
                                    rel_tol=1e-12, abs_tol=1e-12)

    def test_non_negative(self, small_corpus):
        for inst in small_corpus[:25]:
            oracle = EdgeWeightOracle(inst, Log1pCount())
            for i in range(1, inst.n + 1):
                assert (oracle.row(i) >= 0.0).all()

    def test_rejects_bad_edge(self):
        inst = ProblemInstance.from_times([0.0])
        with pytest.raises(ValueError):
            edge_weight(inst, SqrtCount(), 1, 1)
        with pytest.raises(ValueError):
            edge_weight(inst, SqrtCount(), 0, 2)

    def test_feature_dependent_row(self):
        inst = ProblemInstance((0.0, 0.0, 0.0), (0, 0, 1))
        distinct = lambda x: float(len(x.counts))
        f = CustomSetFunction(distinct, universe_size=2)
        # batches {1}, {1,2} share one feature; {1,2,3} has two
        assert edge_weight(inst, f, 1, 2) == 1.0
        assert edge_weight(inst, f, 1, 3) == 1.0
        assert edge_weight(inst, f, 1, 4) == 2.0
        assert EdgeWeightOracle(inst, f).row(1).tolist() == [1.0, 1.0, 2.0]

    def test_epoch_scale_weights_are_exact(self):
        # Relative waits: no prefix sums of ~1.7e9 s timestamps.
        inst = _day_trace(2000).shifted(1.7e9)
        oracle = EdgeWeightOracle(inst, SqrtCount())
        a = inst.times
        for i, j in ((1, 2), (1, 9), (500, 507), (1990, 2001)):
            direct = math.sqrt(j - i) + math.fsum(a[j - 2] - a[k - 1] for k in range(i, j))
            assert math.isclose(edge_weight(inst, SqrtCount(), i, j), direct, rel_tol=1e-12)
            assert math.isclose(oracle.row(i)[j - i - 1], direct, rel_tol=1e-12)
        sched, _ = optimal_schedule(inst, SqrtCount())
        ilp_certificate(inst, SqrtCount(), sched)

    def test_weight_prices_one_edge(self):
        # A table shorter than n still prices every edge it covers.
        inst = gen_poisson(ConstantRate(2), 200, seed=1)
        table = CountTable(tuple(math.sqrt(k) for k in range(65)))
        assert edge_weight(inst, table, 1, 4) == edge_weight(inst, SqrtCount(), 1, 4)
        with pytest.raises(ValueError, match="cost table too short"):
            edge_weight(inst, table, 1, 100)


class TestOptimalSchedule:
    def test_single_sample(self):
        sched, cost = optimal_schedule(ProblemInstance.from_times([0.0]), SqrtCount())
        assert sched == Schedule((1,), (0.0,))
        assert cost.total == 1.0

    def test_far_apart_pair_stays_split(self):
        sched, cost = optimal_schedule(ProblemInstance.from_times([0.0, 100.0]), SqrtCount())
        assert len(sched.ends) == 2
        assert cost.total == 1.0

    def test_two_cluster_instance(self):
        inst = ProblemInstance.from_times([0.0, 0.1, 0.2, 5.0, 5.1])
        sched, cost = optimal_schedule(inst, SqrtCount())
        bf_sched, bf_cost = brute_force_optimum(inst, SqrtCount())
        assert math.isclose(cost.total, bf_cost.total, rel_tol=1e-9)
        assert sched == Schedule((3, 5), (0.2, 5.1))

    def test_batch_times_are_last_arrivals(self, small_corpus):
        for inst in small_corpus[:40]:
            sched, _ = optimal_schedule(inst, Log1pCount())
            assert sched.stamps.tolist() == inst.times[sched.ends - 1].tolist()

    def test_deterministic(self):
        inst = ProblemInstance.from_times([0.0, 0.0, 1.0, 1.0])
        a = optimal_schedule(inst, ConstantCost(1))
        b = optimal_schedule(inst, ConstantCost(1))
        assert a[0] == b[0] and a[1] == b[1]

    def test_all_coincident_arrivals_single_batch(self):
        inst = ProblemInstance.from_times([2.0] * 7)
        sched, cost = optimal_schedule(inst, SqrtCount())
        assert sched.ends.tolist() == [7]
        assert math.isclose(cost.total, math.sqrt(7) / 7, rel_tol=1e-12)

    def test_count_table_needs_only_the_window(self):
        inst = gen_poisson(ConstantRate(2), 200, seed=1)
        table = CountTable(tuple(math.sqrt(k) for k in range(65)))
        sched, cost = optimal_schedule(inst, table)
        ref_sched, ref_cost = optimal_schedule(inst, SqrtCount())
        assert sched == ref_sched
        assert cost == ref_cost

    def test_epoch_scale_trace(self):
        day = _day_trace(2000)
        shifted = day.shifted(1.7e9)
        sched, cost = optimal_schedule(shifted, SqrtCount())
        lam1 = dual_recursion(shifted, SqrtCount()).lambdas[0]
        assert math.isclose(cost.total, lam1, rel_tol=1e-9)
        assert _partition(sched) == _partition(optimal_schedule(day, SqrtCount())[0])

    def test_small_blocks_match_one_block(self, small_corpus, monkeypatch):
        # A coincident burst makes rows wider than a block: one row per block.
        burst = ProblemInstance.from_times([0.0, 0.5] + [1.0] * 20 + [1.2, 4.0, 4.1])
        cases = [(inst, f) for inst in small_corpus[:40] + [burst] for f in COSTS]
        # A set function prices each row from its own features; mixed ids
        # give the rows of one instance windows of their own.
        weighted = CustomSetFunction(_weighted_distinct_plus_sqrt, universe_size=3)
        rng = np.random.default_rng(7)
        cases += [(ProblemInstance(inst.times, tuple(rng.integers(0, 3, inst.n).tolist())), weighted)
                  for inst in [inst for inst in small_corpus if inst.n >= 8][:6] + [burst]]
        want = [(optimal_schedule(inst, f), dual_recursion(inst, f)) for inst, f in cases]
        monkeypatch.setattr(offline, "_BLOCK_ENTRIES", 8)
        assert [(optimal_schedule(inst, f), dual_recursion(inst, f)) for inst, f in cases] == want


class TestBruteForce:
    def test_single_sample(self):
        sched, cost = brute_force_optimum(ProblemInstance.from_times([3.0]), SqrtCount())
        assert sched == Schedule((1,), (3.0,))

    def test_coincident_triple_batches_together(self):
        sched, cost = brute_force_optimum(ProblemInstance.from_times([0.0, 0.0, 0.0]), SqrtCount())
        assert sched.ends.tolist() == [3]
        assert math.isclose(cost.total, math.sqrt(3) / 3, rel_tol=1e-12)

    def test_near_coincident_pair_constant_cost(self):
        eps = 1e-9
        sched, cost = brute_force_optimum(ProblemInstance.from_times([0.0, eps]), ConstantCost(1))
        assert sched.ends.tolist() == [2]
        assert math.isclose(cost.total, (eps + 1) / 2, rel_tol=1e-12)

    def test_size_limit(self):
        inst = ProblemInstance.from_times(np.linspace(0, 1, 21))
        with pytest.raises(ValueError, match="oracle size limit"):
            brute_force_optimum(inst, SqrtCount())

    @pytest.mark.parametrize("max_n", [2.5, 0])
    def test_max_n_must_be_a_positive_integer(self, max_n):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(ValueError) as exc:
            brute_force_optimum(inst, SqrtCount(), max_n=max_n)
        assert str(exc.value) == f"max_n must be a positive integer, got {max_n!r}"

    def test_tie_break_prefers_fewer_batches(self):
        # with f == 0 every partition costs the same on coincident arrivals
        from dynbatch import CountTable
        zero = CountTable((0.0,) * 8)
        sched, _ = brute_force_optimum(ProblemInstance.from_times([1.0, 1.0, 1.0]), zero)
        assert sched.ends.tolist() == [3]

    def test_split_sets_pick_the_bitmask_schedule(self):
        """Enumerating split sets by size keeps the bit-mask enumeration's
        choice for every n <= 12: its least total, then fewest batches, then
        earliest splits, and a first NaN total kept."""
        rng = np.random.default_rng(20)
        nan_pairs = CustomSetFunction(
            lambda x: math.nan if len(x) == 2 else math.sqrt(len(x)), 1)
        costs = [SqrtCount(), ConstantCost(1), ConstantCost(0), nan_pairs]
        cases = []
        for n in range(1, 13):
            uniform = np.sort(rng.uniform(0.0, n / 2.0, n))
            poisson = np.cumsum(rng.exponential(0.5, n))
            runs = np.repeat(poisson[: (n + 2) // 3], 3)[:n]  # coincident arrivals
            nan_whole = CustomSetFunction(
                lambda x, n=n: math.nan if len(x) == n else math.sqrt(len(x)), 1)
            # At unit spacing, sums are exact: under const:1, batch sizes
            # (2) and (1, 1) tie, and so do (1, 2) and (2, 1).
            for times in (uniform, poisson, runs, np.full(n, 1.5), np.arange(n, dtype=float)):
                inst = ProblemInstance.from_times(times)
                cases += [(inst, f) for f in (*costs, nan_whole)]
        nan_kept = 0
        for inst, f in cases:
            want, total = bitmask_optimum(inst, f)
            assert brute_force_optimum(inst, f)[0] == want, (inst.times, f.spec_string())
            nan_kept += math.isnan(total)
        assert nan_kept >= 60  # the whole batch of every instance under nan_whole


@pytest.mark.parametrize("f", COSTS, ids=lambda f: f.spec_string())
def test_osp_matches_brute_force(f, small_corpus):
    for inst in small_corpus:
        _, cost = optimal_schedule(inst, f)
        _, bf = brute_force_optimum(inst, f)
        assert math.isclose(cost.total, bf.total, rel_tol=1e-9, abs_tol=1e-12)


class TestDualRecursion:
    def test_single_sample(self):
        inst = ProblemInstance.from_times([0.0])
        dual = dual_recursion(inst, SqrtCount())
        assert dual.successors == (2,)
        assert math.isclose(dual.lambdas[0], 1.0)
        assert dual.lambdas[-1] == 0.0

    def test_pair_value(self):
        dual = dual_recursion(ProblemInstance.from_times([0.0, 100.0]), SqrtCount())
        assert math.isclose(dual.lambdas[0], 1.0, rel_tol=1e-12)

    def test_equals_osp_and_reconstructs(self, small_corpus):
        f = SqrtCount()
        for inst in small_corpus[:60]:
            _, cost = optimal_schedule(inst, f)
            dual = dual_recursion(inst, f)
            assert math.isclose(dual.lambdas[0], cost.total, rel_tol=1e-9, abs_tol=1e-12)
            sched = schedule_from_dual(inst, dual)
            assert math.isclose(cost_of(inst, sched, f).total, cost.total,
                                rel_tol=1e-9, abs_tol=1e-12)

    def test_dual_feasibility(self, small_corpus):
        f = CappedLinear(3, 10)
        for inst in small_corpus[:25]:
            dual = dual_recursion(inst, f)
            oracle = EdgeWeightOracle(inst, f)
            lam = dual.lambdas
            for i in range(1, inst.n + 1):
                row = oracle.row(i) / inst.n
                for k, j in enumerate(range(i + 1, inst.n + 2)):
                    assert lam[i - 1] <= row[k] + lam[j - 1] + 1e-12


class TestIlpCertificate:
    def test_two_singletons(self):
        inst = ProblemInstance.from_times([0.0, 5.0])
        sched = Schedule((1, 2), (0.0, 5.0))
        x = ilp_certificate(inst, SqrtCount(), sched)
        assert x == {(1, 2): 1, (2, 3): 1}

    def test_osp_output_verifies(self, small_corpus):
        for inst in small_corpus[:40]:
            sched, _ = optimal_schedule(inst, SqrtCount())
            ilp_certificate(inst, SqrtCount(), sched)

    def test_double_cover_violation_at_node_2(self):
        with pytest.raises(IlpConstraintViolation) as exc:
            check_ilp_assignment(2, {(1, 3): 1, (2, 3): 1})
        assert exc.value.node == 2

    def test_missing_source_flow(self):
        with pytest.raises(IlpConstraintViolation) as exc:
            check_ilp_assignment(2, {(2, 3): 1})
        assert exc.value.node == 1

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="not binary"):
            check_ilp_assignment(2, {(1, 3): 2})


def test_osp_runtime_scales_near_linearly():
    """The windowed sweep does O(n w) work for windows of w samples, so
    doubling n at a fixed rate should about double the edge entries it
    builds: at most 3x, where a full O(n^2) sweep reads about 4x.  The
    entries are counted as their waits are computed, not timed, so the
    ratio does not move with the host's speed.  n = 1e5 at rate 2 solves
    in under a second."""
    def solve_time(inst):
        t0 = time.perf_counter()
        optimal_schedule(inst, SqrtCount())
        return time.perf_counter() - t0

    def best_of(n, reps):
        inst = gen_poisson(ConstantRate(2), n, seed=5)
        return min(solve_time(inst) for _ in range(reps))

    def entries(n):
        inst = gen_poisson(ConstantRate(2), n, seed=5)
        with mock.patch.object(offline, "_waits", wraps=offline._waits) as waits:
            optimal_schedule(inst, SqrtCount())
        return sum(call.args[0].size for call in waits.call_args_list)

    ratio = entries(8192) / entries(4096)
    assert ratio <= 3.0, f"scaling ratio {ratio}"
    seconds = best_of(100_000, 2)
    assert seconds < 1.0, f"n = 1e5 took {seconds:.3f} s"


def _weighted_distinct_plus_sqrt(x):
    """Feature weights of the distinct features in x, plus sqrt(|x|):
    monotone and subadditive, with a different single-sample cost per
    feature, so each row's window has its own reach."""
    return sum((0.2, 1.0, 3.0)[fid] for fid, _ in x.counts) + math.sqrt(len(x))


PROPERTY_COSTS = [
    *COSTS,
    CountTable(tuple(min(k, 2 + 0.25 * k) for k in range(13))),
    CustomSetFunction(_weighted_distinct_plus_sqrt, universe_size=3, name="weighted+sqrt"),
]


@st.composite
def small_instances(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5])
                         | st.floats(min_value=0.0, max_value=4.0),
                         min_size=n, max_size=n))
    feats = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    return ProblemInstance(tuple(float(t) for t in np.cumsum(gaps)), tuple(feats))


@settings(max_examples=60, deadline=None)
@given(inst=small_instances())
def test_windowed_solvers_match_brute_force(inst):
    for f in PROPERTY_COSTS:
        _, bf = brute_force_optimum(inst, f)
        _, cost = optimal_schedule(inst, f)
        lam1 = dual_recursion(inst, f).lambdas[0]
        assert math.isclose(cost.total, bf.total, rel_tol=1e-9, abs_tol=1e-12), f
        assert math.isclose(lam1, bf.total, rel_tol=1e-9, abs_tol=1e-12), f


@st.composite
def shifted_instances(draw):
    """An instance on the 2^-10 grid below 4 and the same one shifted by an
    integer below 2^31: every shifted time is exact in a double."""
    ticks = sorted(draw(st.lists(st.integers(min_value=0, max_value=4 * 1024 - 1),
                                 min_size=1, max_size=12)))
    feats = tuple(draw(st.lists(st.integers(min_value=0, max_value=2),
                                min_size=len(ticks), max_size=len(ticks))))
    shift = draw(st.integers(min_value=0, max_value=2**31 - 1))
    times = tuple(k / 1024 for k in ticks)
    return (ProblemInstance(times, feats),
            ProblemInstance(tuple(t + shift for t in times), feats), shift)


@settings(max_examples=60, deadline=None)
@given(pair=shifted_instances())
def test_time_shift_leaves_the_optimum_unchanged(pair):
    inst, shifted, shift = pair
    for f in PROPERTY_COSTS:
        sched, cost = optimal_schedule(inst, f)
        shifted_sched, shifted_cost = optimal_schedule(shifted, f)
        assert _partition(shifted_sched) == _partition(sched), f
        assert list(shifted_sched.stamps) == [t + shift for t in sched.stamps]
        assert shifted_cost == cost, f
        dual, shifted_dual = dual_recursion(inst, f), dual_recursion(shifted, f)
        assert shifted_dual.lambdas == dual.lambdas, f
        assert shifted_dual.successors == dual.successors, f


LOCKSTEP_COSTS = [
    *BUILTIN_COSTS,
    ConstantCost(0),
    CappedLinear(0.5, 2),
    CountTable(tuple(min(k, 2 + 0.25 * k) for k in range(13))),
]


@st.composite
def equal_n_chunks(draw):
    """1 to 6 instances of one size n <= 12; an instance's gaps are often 0,
    and some instances arrive all at once."""
    n = draw(st.integers(min_value=1, max_value=12))
    gaps = st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5])
                    | st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n)
    chunk = draw(st.lists(gaps | st.just([1.5] + [0.0] * (n - 1)), min_size=1, max_size=6))
    return [ProblemInstance.from_times(np.cumsum(g)) for g in chunk]


@pytest.mark.parametrize("block_entries", [offline._BLOCK_ENTRIES, 8])
@settings(max_examples=60, deadline=None)
@given(chunk=equal_n_chunks())
def test_lockstep_sweep_matches_optimal_schedule(chunk, block_entries):
    # With 8 entries per block, a block of the chunk often holds one row
    # that is wider than the block on its own.
    with mock.patch.object(offline, "_BLOCK_ENTRIES", block_entries):
        a = np.array([inst.times for inst in chunk])
        for f in LOCKSTEP_COSTS:
            ends, stamps, rows = offline.lockstep_ends(*ragged(a), f)
            assert (np.diff(rows) >= 0).all(), f
            assert (stamps == a[rows, ends - 1]).all(), f
            costs = row_costs(*ragged(a), [inst.features for inst in chunk], ends, stamps, rows,
                              f)
            for r, (cost, inst) in enumerate(zip(costs, chunk)):
                sched = Schedule.from_ends(ends[rows == r].tolist(), stamps[rows == r].tolist())
                assert (sched, cost) == optimal_schedule(inst, f), f


@pytest.mark.parametrize("joint", [0, 10**9], ids=["row-by-row", "joint"])
@settings(max_examples=60, deadline=None)
@given(rows=ragged_rows())
def test_ragged_chunk_gives_each_row_what_it_gives_the_row_alone(rows, joint):
    # Windows, pieces and the optimum of rows of many sizes at once, row by
    # row, against each row solved on its own, whichever search finds the
    # windows.  A chunk fails only with the error of a row that fails.
    a, lengths = ragged(rows)
    first = (np.cumsum(lengths) - lengths).tolist()
    with mock.patch.object(instance, "_JOINT_SEARCH_MEAN", joint):
        for f in LOCKSTEP_COSTS:
            alone = [_outcome(lambda: offline.lockstep_ends(*ragged([row]), f)) for row in rows]
            chunk = _outcome(lambda: offline.lockstep_ends(a, lengths, f))
            if isinstance(chunk, str):
                assert chunk in alone, f
                continue
            widths = offline._window_widths(a, lengths, f)
            starts, sizes = offline._pieces(widths)
            for r, (row, lo, want) in enumerate(zip(rows, first, alone)):
                row_widths = offline._window_widths(*ragged([row]), f)
                assert widths[lo:lo + len(row)].tolist() == row_widths.tolist(), f
                inside = (starts >= lo) & (starts < lo + len(row))
                assert [(starts[inside] - lo).tolist(), sizes[inside].tolist()] == [
                    x.tolist() for x in offline._pieces(row_widths)], f
                ends, stamps, _ = (x[chunk[2] == r] for x in chunk)
                assert [ends.tolist(), stamps.tolist()] == [want[0].tolist(),
                                                            want[1].tolist()], f


def _global_distance_ends(times, f):
    """Batch ends of the optimum by the sweep as it stood before the rows
    were cut into pieces: one distance list over the whole instance, each
    row's entries built from the times by the waiting formula, then priced
    by the count table.  Kept as the reference for both routes.  Also
    returns whether a nonzero distance is carried into a later piece."""
    n = len(times)
    widths = offline._window_widths(*ragged([times]), f).tolist()
    g = f.count_table(max(widths))
    dist = [0.0] + [math.inf] * n
    pred = [0] * (n + 1)
    for i, w in enumerate(widths):
        spans = times[i:i + w] - times[i]
        waits = np.cumsum(spans)
        spans *= np.arange(1, w + 1)
        row = np.subtract(spans, waits, out=waits) + g[1:w + 1]
        for j, e in enumerate(row.tolist(), i + 1):
            cand = dist[i] + e
            if cand < dist[j]:
                dist[j], pred[j] = cand, i
    ends = [n]
    while pred[ends[-1]]:
        ends.append(pred[ends[-1]])
    # Node k starts a piece where no window of samples 1..k reaches past it.
    reach = np.maximum.accumulate(np.arange(n) + widths).tolist()
    return ends[::-1], any(dist[k] != 0 for k in range(1, n) if reach[k - 1] == k)


def _outcome(solve):
    """What ``solve()`` returns, or the message of the ValueError it raises."""
    try:
        return solve()
    except ValueError as exc:
        return str(exc)


#: Forces every piece through the lockstep (0) or through the row loop.
ROUTES = {"lockstep": 0, "row loop": 1 << 40}

ROUTE_COSTS = [
    *BUILTIN_COSTS,
    ConstantCost(0),
    # Covers windows of up to 12 samples: a wider coincident burst raises.
    CountTable(tuple(min(k, 2 + 0.25 * k) for k in range(13))),
    # Not monotone, outside Assumption 1: a batch past a window can be the
    # cheaper one, and the windows alone decide which batches are relaxed.
    CountTable((0.0, 1.0, 0.4, 1.5, 0.2) + (0.1,) * 12),
]


@st.composite
def piece_chunks(draw):
    """1 to 5 rows of one size n <= 16, each a mix of gaps, all arrivals at
    once, every sample its own piece (gaps wider than any g(1) here), or
    one long piece of gaps far below every g(1) but const:0's."""
    n = draw(st.integers(min_value=1, max_value=16))

    def rows(gap):
        return st.lists(gap, min_size=n, max_size=n)

    row = st.one_of(
        rows(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 2.5, 12.0]) | st.floats(0.0, 4.0)),
        st.just([1.5] + [0.0] * (n - 1)),
        rows(st.floats(11.0, 20.0)),
        rows(st.floats(0.0, 0.05)),
    )
    return np.cumsum(draw(st.lists(row, min_size=1, max_size=5)), axis=1)


def _schedule(times, ends):
    return Schedule.from_ends(list(ends), [times[hi - 1] for hi in ends])


def _reference(times, f):
    """The copied loop's schedule and whether it carries a nonzero distance
    into a later piece, or the message of the ValueError it raises."""
    try:
        ends, carried = _global_distance_ends(times, f)
    except ValueError as exc:
        return str(exc), False
    return _schedule(times, ends), carried


def _same_or_tied(got, want, carried, times, f):
    """The schedule ``got`` is ``want``.  Only where the copied loop carries
    a nonzero distance into a later piece may it instead price the same to
    rounding: a tie in exact arithmetic, which distances from 0 at each
    piece may break the other way."""
    if got == want:
        return True
    if not carried or isinstance(got, str) or isinstance(want, str):
        return False
    inst = ProblemInstance.from_times(times)
    return math.isclose(cost_of(inst, got, f).total, cost_of(inst, want, f).total,
                        rel_tol=1e-12, abs_tol=1e-15)


# The last of ROUTE_COSTS is not monotone: the solves warn of it.
@pytest.mark.filterwarnings("ignore:cost is not monotone:RuntimeWarning")
@pytest.mark.parametrize("block_entries", [offline._BLOCK_ENTRIES, 8])
@settings(max_examples=50, deadline=None)
@given(a=piece_chunks())
def test_both_routes_match_the_global_distance_sweep(a, block_entries):
    # With 8 entries per block, each lockstep step builds its own entries.
    for f in ROUTE_COSTS:
        want = [_reference(row, f) for row in a]
        by_route = []
        for step_rows in ROUTES.values():
            with mock.patch.object(offline, "_STEP_ROWS", step_rows), \
                    mock.patch.object(offline, "_BLOCK_ENTRIES", block_entries):
                solo = [_outcome(lambda: optimal_schedule(ProblemInstance.from_times(row), f)[0])
                        for row in a]
                chunk = _outcome(lambda: offline.lockstep_ends(*ragged(a), f))
            if isinstance(chunk, str):
                assert chunk in solo, f
            else:
                ends, stamps, rows = chunk
                assert [_schedule(row, ends[rows == r]) for r, row in enumerate(a)] == solo, f
            by_route.append(solo)
        assert by_route[0] == by_route[1], f
        assert all(_same_or_tied(got, *ref, row, f)
                   for got, ref, row in zip(by_route[0], want, a)), f


@pytest.mark.parametrize("block_entries, steps", [(offline._BLOCK_ENTRIES, 9), (1, 9 + 3)])
def test_lockstep_steps_as_often_as_the_longest_piece(block_entries, steps):
    """Clusters 0.1 apart, 10 apart from each other, under sqrt (g(1) = 1):
    every cluster is one piece, and the lockstep relaxes once per sample of
    the longest, across all rows at once.  With a one-entry block a piece
    joins a group while the group's longest has at most twice its nodes:
    9, 7, 5 and 4 (10 nodes), then 3 and the rest (4 nodes), and the steps
    are those of each group's longest."""
    def row(sizes):
        gaps = [g for size in sizes for g in [10.0] + [0.1] * (size - 1)]
        return np.cumsum(gaps)

    a = np.array([row([3, 7, 1, 5]), row([1] * 16), row([2, 9, 4, 1])])
    f = SqrtCount()
    with mock.patch.object(offline, "_STEP_ROWS", 0), \
            mock.patch.object(offline, "_BLOCK_ENTRIES", block_entries), \
            mock.patch.object(offline, "_relax", wraps=offline._relax) as relax:
        ends, _, rows = offline.lockstep_ends(*ragged(a), f)
    assert relax.call_count == steps
    with mock.patch.object(offline, "_STEP_ROWS", ROUTES["row loop"]):
        want = [optimal_schedule(ProblemInstance.from_times(row), f)[0] for row in a]
    assert [_schedule(row, ends[rows == r]) for r, row in enumerate(a)] == want


def test_lockstep_memory_stays_linear_among_many_short_pieces():
    """100 bursts of 60 samples 0.01 apart, then 10000 lone samples, under
    sqrt: 10100 pieces of up to 60 samples.  One distance table of 61 rows
    for every piece would take over 7 MB; grouped, most pieces of one sample
    share a table of 2 rows, and the solve's peak stays under 256 bytes a
    sample."""
    times = np.concatenate([10 * k + 0.01 * np.arange(60) for k in range(100)]
                           + [2000 + 10 * np.arange(10000)])
    inst, f = ProblemInstance.from_times(times), SqrtCount()
    with mock.patch.object(offline, "_lockstep", wraps=offline._lockstep) as lockstep:
        tracemalloc.start()
        try:
            got = optimal_schedule(inst, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert lockstep.call_count >= 2
    assert peak < 256 * inst.n
    with mock.patch.object(offline, "_STEP_ROWS", ROUTES["row loop"]):
        assert got == optimal_schedule(inst, f)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=60),
       st.sampled_from([1, 64, offline._BLOCK_ENTRIES]))
def test_groups_cover_the_pieces_in_tables_linear_in_their_nodes(lengths, block_entries):
    """Each group is a run of the pieces, longest first, whose table of
    (longest + 1) x pieces entries holds at most _BLOCK_ENTRIES or twice the
    group's nodes; and a group ends only at a piece that would break both."""
    lengths = np.array(sorted(lengths, reverse=True))
    with mock.patch.object(offline, "_BLOCK_ENTRIES", block_entries):
        bounds = offline._groups(lengths)
    assert bounds[0] == 0 and bounds[-1] == len(lengths)
    assert all(lo < hi for lo, hi in zip(bounds[:-1], bounds[1:]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        nodes = lengths[lo:hi] + 1
        table = int(nodes[0]) * (hi - lo)
        assert table <= max(block_entries, 2 * int(nodes.sum()))
        if hi < len(lengths):
            assert 2 * (lengths[hi] + 1) < nodes[0] and table + nodes[0] > block_entries


def test_lockstep_memory_stays_linear_on_dense_chunks():
    """50 rows of 400 samples at rate 200 under const:1: windows of up to
    about 240 samples, so each row is one piece and the chunk one group.
    The solve's traced peak, past a warm-up solve, stays under 96 bytes a
    sample."""
    a = np.concatenate([gen_poisson(ConstantRate(200.0), 400, seed).times for seed in range(50)])
    lengths, f = np.full(50, 400), ConstantCost(1)
    offline.lockstep_ends(a, lengths, f)
    with mock.patch.object(offline, "_lockstep", wraps=offline._lockstep) as lockstep:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            offline.lockstep_ends(a, lengths, f)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert lockstep.call_count == 1
    assert peak <= 96 * len(a)


def test_a_piece_breaks_its_ties_as_if_it_stood_alone():
    """Seven samples 0.1 apart price 3 + 4 and 4 + 3 the same, to the last
    bit here.  Distances start at 0 in each piece, so the tie goes to the
    earliest split whatever the pieces before cost; carried across the
    gap, they broke it the other way."""
    times = np.cumsum([10.0, 0.1, 0.1, 10.0] + [0.1] * 6)
    f = SqrtCount()
    sizes = lambda inst: np.diff(optimal_schedule(inst, f)[0].ends, prepend=0).tolist()
    assert sizes(ProblemInstance.from_times(times[3:])) == [3, 4]
    assert sizes(ProblemInstance.from_times(times)) == [3, 3, 4]


def test_lockstep_keeps_to_the_windows_outside_assumption_1():
    """Under a cost that is not monotone a batch past a window can be the
    cheaper one: four samples spanning 1.2 cost 0.1 + 1.8 as one batch,
    while the window of the first holds two.  The coincident row widens
    the lockstep's entries to four samples, and the ones past a window
    must still not be taken."""
    f = CountTable((0.0, 1.0, 5.0, 5.0, 0.1))
    a = np.array([[0.0, 0.6, 1.2, 1.2], [5.0] * 4])
    with mock.patch.object(offline, "_STEP_ROWS", ROUTES["row loop"]), \
            pytest.warns(RuntimeWarning, match="batch of 4 samples from sample 1 costs 0.1"):
        want = [optimal_schedule(ProblemInstance.from_times(row), f)[0] for row in a]
    with mock.patch.object(offline, "_STEP_ROWS", ROUTES["lockstep"]), \
            pytest.warns(RuntimeWarning, match="batch of 4 samples from sample 1 costs 0.1"):
        ends, _, rows = offline.lockstep_ends(*ragged(a), f)
    assert [_schedule(row, ends[rows == r]) for r, row in enumerate(a)] == want
    assert want[0].ends.tolist() != [4]


def _distinct_plus_sqrt(x):
    """Distinct features in x plus sqrt(|x|): monotone and subadditive."""
    return len(x.counts) + math.sqrt(len(x))


def _reach_widths(inst, f):
    """Each row's window by the min-over-m rule, one scalar at a time: row i
    takes sample k while a_k is within the least term so far of
    a_{i+m-1} + f(first m) / m, with the solver's slack and margin."""
    a, n = inst.times.tolist(), inst.n
    widths = []
    for i in range(n):
        reach, k = math.inf, i
        while k < n and a[k] <= reach:
            price = batch_cost(f, inst.features[i:k + 1])
            term = a[k] + price / (k + 1 - i) * (1 + offline._WINDOW_SLACK) + 4 * math.ulp(a[k])
            reach = min(reach, term)
            k += 1
        widths.append(k - i)
    return widths


def _single_sample_widths(inst, f):
    """Each row's window by the m = 1 rule alone, a_i + f({v_i})."""
    a = inst.times
    single = np.array([batch_cost(f, (v,)) for v in inst.features])
    reach = a + single * (1 + offline._WINDOW_SLACK) + 4 * np.spacing(a)
    return np.maximum(np.searchsorted(a, reach, side="right") - np.arange(inst.n), 1)


def _unpruned_optimum(inst, f):
    """The forward sweep over every edge of the full ``EdgeWeightOracle``
    rows, O(n^2), pruning nothing: the schedule and its path cost / n."""
    oracle = EdgeWeightOracle(inst, f)
    dist = [0.0] + [math.inf] * inst.n
    pred = [0] * (inst.n + 1)
    for i in range(inst.n):
        for j, e in enumerate(oracle.row(i + 1).tolist(), i + 1):
            if dist[i] + e < dist[j]:
                dist[j], pred[j] = dist[i] + e, i
    ends = [inst.n]
    while pred[ends[-1]]:
        ends.append(pred[ends[-1]])
    return _schedule(inst.times, ends[::-1]), dist[-1] / inst.n


class TestSetFunctionWindows:
    def test_rows_stop_at_the_least_reach_and_price_each_prefix_once(self):
        """The static windows stop each row at the least reach of its terms;
        the sweep stops sooner, at its distance reach: row i walks its first
        walked[i] prefixes, inside its static window, and prices some of
        them, each at most once.  The dual recursion prices every batch of
        the static windows once."""
        sample = lambda rng, t: int(rng.integers(8))
        inst = gen_poisson(ConstantRate(20.0), 120, seed=3, feature_sampler=sample)
        seen = []
        f = CustomSetFunction(lambda x: seen.append(x) or _distinct_plus_sqrt(x), universe_size=8)
        widths = static_set_windows(inst.times, f, inst.features)[0]
        assert widths.tolist() == _reach_widths(inst, f)
        seen.clear()
        walked = np.array(setsweep._set_row_loop(inst.times, f, inst.features)[2])
        sweep_calls = len(seen)
        prefixes = [FeatureMultiset.from_features(inst.features[i:i + m])
                    for i, w in enumerate(walked.tolist()) for m in range(1, w + 1)]
        assert sweep_calls < len(prefixes) == walked.sum()
        assert Counter(seen) <= Counter(prefixes)
        assert (walked >= 1).all() and (walked <= widths).all()
        assert walked.sum() < widths.sum()
        seen.clear()
        sched, cost = optimal_schedule(inst, f)
        solve_calls = len(seen)
        seen.clear()
        assert cost_of(inst, sched, f) == cost
        assert solve_calls == sweep_calls + len(seen)
        seen.clear()
        dual_recursion(inst, f)
        assert len(seen) == widths.sum()
        assert widths.sum() < _single_sample_widths(inst, f).sum()

    @pytest.mark.parametrize("shift", [0.0, 1.7e9])
    @pytest.mark.parametrize("n, seed", [(40, 1), (70, 2), (100, 3)])
    def test_windowed_solvers_match_the_unpruned_sweep(self, n, seed, shift):
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(0.05, n)
        gaps[rng.random(n) < 0.25] = 0.0  # runs of coincident arrivals
        times = tuple((np.cumsum(gaps) + shift).tolist())
        for f in (CustomSetFunction(_weighted_distinct_plus_sqrt, universe_size=3),
                  CustomSetFunction(_distinct_plus_sqrt, universe_size=8)):
            inst = ProblemInstance(times, tuple(rng.integers(0, f.universe_size, n).tolist()))
            want, total = _unpruned_optimum(inst, f)
            sched, cost = optimal_schedule(inst, f)
            assert sched == want
            assert math.isclose(cost.total, total, rel_tol=1e-9)
            assert math.isclose(cost_of(inst, want, f).total, total, rel_tol=1e-9)
            assert math.isclose(dual_recursion(inst, f).lambdas[0], total, rel_tol=1e-9)


#: Monotone set functions under which the tie corpus ties often: zero,
#: constant and feature weights price many splits alike.
TIE_COSTS = [
    CustomSetFunction(lambda x: 0.0, universe_size=3, name="zero"),
    CustomSetFunction(lambda x: 1.0, universe_size=3, name="const"),
    CustomSetFunction(lambda x: sum((0.2, 1.0, 3.0)[fid] for fid, _ in x.counts),
                      universe_size=3, name="weighted"),
    CustomSetFunction(_distinct_plus_sqrt, universe_size=3, name="distinct+sqrt"),
]


def _tie_corpus():
    """120 instances of 1 to 40 samples on a 0.1 s grid, a quarter of the
    gaps 0 (runs of coincident arrivals), every other one cut into
    several pieces by gaps of 5 to 20 s, every third shifted by 1.7e9."""
    rng = np.random.default_rng(32)
    for k in range(120):
        n = int(rng.integers(1, 41))
        gaps = rng.integers(0, 4, n) * 0.1
        if k % 2:
            gaps[rng.random(n) < 0.1] = rng.uniform(5.0, 20.0)
        times = np.cumsum(gaps) + (1.7e9 if k % 3 == 0 else 0.0)
        yield ProblemInstance(times, tuple(rng.integers(0, 3, n).tolist()))


def test_the_distance_reach_keeps_the_static_sweep_bit_for_bit():
    """The sweep that stops each row at its distance reach finds the
    batches, before coincident ones merge, of the sweep over every batch
    of the static windows, and restarts its distances at the starts of
    the static pieces, no more and no fewer, while it prices fewer
    batches."""
    pieces = instances = priced_total = static_total = 0
    for inst in _tie_corpus():
        for f in TIE_COSTS:
            widths = static_set_windows(inst.times, f, inst.features)[0]
            _, starts, priced = setsweep._set_row_loop(inst.times, f, inst.features)
            assert starts == offline._pieces(widths)[0].tolist(), f
            ends = offline._sweep(*ragged([inst.times]), f, inst.features)[1]
            assert ends.tolist() == static_set_ends(inst, f), f
            pieces, instances = pieces + len(starts), instances + 1
            priced_total, static_total = priced_total + sum(priced), static_total + widths.sum()
    assert pieces > 2 * instances
    assert priced_total < static_total


def test_distances_restart_only_at_the_static_pieces():
    """Fourteen arrivals on a 0.1 s grid, seven of them at 0.2, under a
    constant cost.  No batch that the sweep relaxes, or prices, holds
    both samples 8 and 9, but the static window of sample 6 does, so
    sample 9 starts no piece.  Carried on from sample 8, the distances
    split the last six samples 3 + 3; restarted at sample 9, they would
    split them 2 + 4, which waits as long in exact arithmetic: a tie that
    rounding breaks the other way."""
    inst = ProblemInstance.from_times(np.cumsum([0.1, 0.1] + [0.0] * 6 + [0.2] * 4 + [0.1] * 2))
    f = TIE_COSTS[1]
    widths = static_set_windows(inst.times, f, inst.features)[0]
    _, starts, priced = setsweep._set_row_loop(inst.times, f, inst.features)
    assert starts == [0]
    assert (np.arange(8) + priced[:8]).max() == 8
    assert (np.arange(8) + widths[:8]).max() > 8
    assert optimal_schedule(inst, f)[0].ends.tolist() == static_set_ends(inst, f) == [8, 11, 14]
    assert static_set_ends(inst, f, starts=[0, 8]) == [8, 10, 14]


#: Monotone set functions: the tie corpus's, and the square root of the size.
MONOTONE_SET_COSTS = [*TIE_COSTS, CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=3,
                                                    name="sqrt size")]


@st.composite
def set_instances(draw):
    """1 to 40 samples whose gaps are mostly 0 (runs of coincident
    arrivals) or 0.1 to 0.3 s, one in ten 12.5 s (which cuts pieces),
    shifted by 1.7e9 or not, with feature ids 0 to 2."""
    n = draw(st.integers(min_value=1, max_value=40))
    gap = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.1, 0.2, 0.3, 0.3, 0.3, 12.5])
    gaps = draw(st.lists(gap, min_size=n, max_size=n))
    features = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    return ProblemInstance(np.cumsum(gaps) + draw(st.sampled_from([0.0, 1.7e9])),
                           tuple(features))


@settings(max_examples=300, deadline=None)
@given(inst=set_instances(), f=st.sampled_from(MONOTONE_SET_COSTS))
def test_the_sweep_walks_as_pricing_every_prefix_does_and_prices_less(inst, f):
    """Under a monotone set function the sweep returns the predecessors,
    restart nodes and walked prefixes of the sweep that prices every
    prefix it walks, in at most as many cost calls, and prices no prefix
    more often than the rows walk it."""
    seen = []
    spy = CustomSetFunction(lambda x: seen.append(x) or f.value(x), universe_size=3)
    want = eager_set_row_loop(inst.times, spy, inst.features)
    calls = len(seen)
    seen.clear()
    got = setsweep._set_row_loop(inst.times, spy, inst.features)
    assert got == want
    assert len(seen) <= calls
    walked = Counter(FeatureMultiset.from_features(inst.features[i:i + m])
                     for i, w in enumerate(got[2]) for m in range(1, w + 1))
    assert Counter(seen) <= walked


@pytest.mark.parametrize("seed", [1000, 1001, 1002, 1003])
def test_the_sweep_prices_about_half_the_prefixes_it_walks(seed):
    """On 400 arrivals at rate 20 over 8 feature ids under distinct + sqrt,
    the sweep makes at most 55% of the cost calls of the sweep that prices
    every prefix it walks (about 50%): a count, which does not flake as a
    time would."""
    inst = gen_poisson(ConstantRate(20.0), 400, seed,
                       feature_sampler=lambda rng, t: int(rng.integers(8)))
    calls = []
    f = CustomSetFunction(lambda x: calls.append(x) or _distinct_plus_sqrt(x), universe_size=8)
    setsweep._set_row_loop(inst.times, f, inst.features)
    lazy = len(calls)
    calls.clear()
    eager_set_row_loop(inst.times, f, inst.features)
    assert lazy <= 0.55 * len(calls)


def test_rows_still_open_at_a_node_price_what_they_skipped_before_it_restarts():
    """Eight arrivals at epoch scale, the last three coincident, under the
    weighted cost.  Row 3 walks samples 3-5 but prices only its first
    prefix: its pair and its triple cannot relax their nodes.  No relaxed
    batch crosses from sample 5 to 6, and by its one price read row 3's
    static window would take sample 6; so row 3 prices its pair and its
    triple there, and its window ends before sample 6.  Distances restart
    at sample 6, as the static pieces do.  Carried on from sample 5, they
    would split the last three 1 + 2, which costs as much in exact
    arithmetic: a tie that rounding breaks the other way."""
    times = ([1700000004.565459, 1700000004.665459, 1700000004.9654589, 1700000005.165459,
              1700000005.265459] + [1700000007.1981885] * 3)
    inst = ProblemInstance(times, (2, 0, 2, 1, 0, 2, 0, 1))
    seen = []
    f = CustomSetFunction(lambda x: seen.append(x) or TIE_COSTS[2].value(x), universe_size=3)
    widths = static_set_windows(inst.times, f, inst.features)[0]
    seen.clear()
    _, starts, walked = setsweep._set_row_loop(inst.times, f, inst.features)
    assert starts == offline._pieces(widths)[0].tolist() == [0, 5]
    pair, triple = (FeatureMultiset.from_features(inst.features[2:k]) for k in (4, 5))
    # Row 3's two prices come after those of rows 4-5 and before the six of
    # rows 6-8, once each.
    assert walked[2] == 3 and sum(walked[5:]) == 6
    assert seen[-8:-6] == [pair, triple] and seen.count(pair) == 1
    assert optimal_schedule(inst, f)[0].ends.tolist() == static_set_ends(inst, f) == [3, 4, 5, 8]
    assert static_set_ends(inst, f, starts=[0]) == [3, 4, 5, 6, 8]


def test_a_row_prices_what_it_skipped_where_that_may_end_its_static_window():
    """Under a constant cost, row 3's pair ties with row 1's batch of four
    for node 4, so row 3 does not price it.  Its static term, 0.5 + 1/2
    with the slack and the margin, is the least of the row, and sample 5
    arrives just past it, within the row's distance reach: the row prices
    its pair before it walks on, and stops where pricing every prefix
    stops it."""
    term = 0.5 + 1 / 2 * (1 + offline._WINDOW_SLACK) + 4 * math.ulp(0.5)
    inst = ProblemInstance.from_times([0.0, 0.0, 0.5, 0.5, math.nextafter(term, math.inf)])
    seen = []
    f = CustomSetFunction(lambda x: seen.append(x) or 1.0, universe_size=1)
    got = setsweep._set_row_loop(inst.times, f, inst.features)
    # Every prefix walked is priced, the skipped pair too.
    assert len(seen) == sum(got[2]) == 9
    assert got == eager_set_row_loop(inst.times, f, inst.features)
    assert got[2] == [4, 1, 2, 1, 1]


def test_a_drop_in_a_prefix_that_the_sweep_skips_goes_unread():
    """Outside Assumption 1 the sweep no longer reads every price of its
    rows' walks.  Row 3's pair ties with row 1's batch of four for node 4
    at row 3's first price, so the sweep never prices it, and its drop to
    0.5 warns only where the dual recursion, which prices every batch of
    the static windows, reads it."""
    inst = ProblemInstance((0.0, 0.0, 0.5, 0.5), (0, 0, 1, 2))
    f = CustomSetFunction(lambda x: 0.5 if x.counts == ((1, 1), (2, 1)) else 1.0,
                          universe_size=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimal_schedule(inst, f)
    with pytest.warns(RuntimeWarning) as caught:
        dual_recursion(inst, f)
    assert [str(w.message) for w in caught] == [
        _monotone_warning(2, 3, "0.5, less than the 1.0 of its first 1")]


def test_a_drop_read_past_a_skipped_prefix_names_the_prefix_it_is_checked_against():
    """Row 3 prices its first sample, skips its pair and prices its triple
    at 0.5: the sweep checks that against its one sample's 1.0, the dual
    recursion, which prices every prefix, against the pair's."""
    inst = ProblemInstance((0.0, 0.0, 0.25, 0.5, 0.75), (0, 1, 2, 3, 4))
    f = CustomSetFunction(lambda x: 0.5 if x.counts == ((2, 1), (3, 1), (4, 1)) else 1.0,
                          universe_size=5)
    for solve, fewer in ((optimal_schedule, 1), (dual_recursion, 2)):
        with pytest.warns(RuntimeWarning) as caught:
            solve(inst, f)
        assert [str(w.message) for w in caught] == [
            _monotone_warning(3, 3, f"0.5, less than the 1.0 of its first {fewer}")]


#: Set functions outside Assumption 1, and on the instance below the batch
#: ends of their optimum and the successors of their dual recursion, as the
#: windows of the single-sample rule a_i + f({v_i}) gave them.
ODD_SET_FUNCTIONS = {
    "negative single feature 0": (
        lambda x: -1.0 if x.counts == ((0, 1),) else _distinct_plus_sqrt(x),
        (1, 2, 3, 5, 6, 7, 10, 11, 12), (2, 3, 4, 6, 6, 7, 8, 10, 10, 11, 12, 13)),
    "NaN single feature 1": (
        lambda x: math.nan if x.counts == ((1, 1),) else _distinct_plus_sqrt(x),
        (5, 7, 10, 12), (6, 6, 8, 6, 8, 8, 8, 11, 11, 11, 13, 13)),
    "NaN pairs": (
        lambda x: math.nan if len(x) == 2 else _distinct_plus_sqrt(x),
        (4, 7, 11, 12), (5, 8, 8, 5, 8, 7, 8, 12, 12, 11, 12, 13)),
    "negative pairs": (
        lambda x: -0.5 if len(x) == 2 else _distinct_plus_sqrt(x),
        (2, 4, 6, 8, 10, 12), (3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 13)),
}


#: The instance of ODD_SET_FUNCTIONS.
ODD_INSTANCE = ProblemInstance((0.0, 0.1, 0.3, 0.3, 0.6, 1.0, 1.1, 2.9, 3.0, 3.0, 3.2, 5.0),
                               (0, 1, 0, 2, 1, 0, 0, 1, 2, 0, 1, 1))


# Every one warns: of a NaN price, of a price below its prefix's, or of a
# single sample's price below the empty batch's 0.
@pytest.mark.filterwarnings("ignore:cost is not monotone:RuntimeWarning")
@pytest.mark.parametrize("name", ODD_SET_FUNCTIONS)
def test_negative_or_nan_prices_keep_every_row(name):
    fn, ends, successors = ODD_SET_FUNCTIONS[name]
    inst = ODD_INSTANCE
    f = CustomSetFunction(fn, universe_size=3)
    widths = static_set_windows(inst.times, f, inst.features)[0]
    assert (widths >= 1).all()
    # A row whose single-sample price is NaN has no reach, as under a count
    # cost whose f(1) is NaN.
    nan_rows = [i for i, v in enumerate(inst.features) if math.isnan(batch_cost(f, (v,)))]
    assert all(widths[i] == inst.n - i for i in nan_rows)
    assert optimal_schedule(inst, f)[0].ends.tolist() == list(ends)
    assert dual_recursion(inst, f).successors == successors


def _solved_with_warnings(solve, inst, f):
    """The repr of ``solve(inst, f)``, whose floats it gives bit for bit,
    the warnings that the solve made and the batches that it priced."""
    seen = []
    spy = CustomSetFunction(lambda x: seen.append(x) or f.value(x), universe_size=f.universe_size)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = solve(inst, spy)
    return repr(got), [(w.category, str(w.message)) for w in caught], Counter(seen)


def test_the_set_dual_walk_matches_the_recursion_over_the_static_prices():
    """Under a set function ``dual_recursion`` walks each row backward and
    keeps no prices; it gives the lambdas, successors and warning of the
    recursion over the flat prices of the static windows, float for
    float, and prices the same batches, each once: on the tie corpus, on
    the odd set functions, every one of which warns, on an epoch-scale
    trace and where only the window's slack takes an arrival."""
    epoch = gen_poisson(ConstantRate(20.0), 120, seed=3,
                        feature_sampler=lambda rng, t: int(rng.integers(3))).shifted(1.7e9)
    cases = [(inst, f) for inst in _tie_corpus() for f in TIE_COSTS]
    cases += [(ODD_INSTANCE, CustomSetFunction(fn, universe_size=3))
              for fn, _, _ in ODD_SET_FUNCTIONS.values()]
    cases.append((epoch, CustomSetFunction(_distinct_plus_sqrt, universe_size=3)))
    # The last arrival lies within the slack of row 3's pair's term only.
    cases.append((ProblemInstance.from_times([0.0, 0.0, 0.5, 0.5, 1.0 + 1e-10]), TIE_COSTS[1]))
    warned = 0
    for inst, f in cases:
        want = _solved_with_warnings(static_set_dual, inst, f)
        assert _solved_with_warnings(dual_recursion, inst, f) == want
        warned += len(want[1])
    assert warned == len(ODD_SET_FUNCTIONS)


def _monotone_warning(size: int, sample: int, price: str) -> str:
    return (f"cost is not monotone: the batch of {size} samples from sample {sample} costs "
            f"{price}; the solver's windows assume a monotone cost (Assumption 1), so the "
            "schedule may not be optimal")


@pytest.mark.parametrize("name,size,sample", [("NaN single feature 1", 1, 2), ("NaN pairs", 2, 1)])
def test_a_nan_price_warns_once_per_solve_naming_its_batch(name, size, sample):
    """Sample 2 is the first of feature 1, and samples 1-2 the first pair."""
    f = CustomSetFunction(ODD_SET_FUNCTIONS[name][0], universe_size=3)
    for solve in (optimal_schedule, dual_recursion):
        with pytest.warns(RuntimeWarning) as caught:
            solve(ODD_INSTANCE, f)
        assert [str(w.message) for w in caught] == [_monotone_warning(size, sample, "nan")]


def test_a_negative_single_sample_price_warns_against_the_empty_batch():
    """Sample 1 is feature 0, priced -1.0 alone: below the empty batch's 0,
    as a count cost's g(1) below its g(0) warns."""
    f = CustomSetFunction(ODD_SET_FUNCTIONS["negative single feature 0"][0], universe_size=3)
    for solve in (optimal_schedule, dual_recursion):
        with pytest.warns(RuntimeWarning) as caught:
            solve(ODD_INSTANCE, f)
        assert [str(w.message) for w in caught] == [
            _monotone_warning(1, 1, "-1.0, less than the 0.0 of its first 0")]


def test_an_infinite_price_warns_only_where_a_finite_one_follows_it():
    """inf after inf is no drop, and the floor below an infinite price,
    inf - inf, makes no numpy warning; a finite price after inf drops."""
    capped = CustomSetFunction(lambda x: math.inf if len(x) >= 2 else 1.0, universe_size=3)
    dropping = CustomSetFunction(lambda x: math.inf if len(x) == 2 else 1.0 + len(x),
                                 universe_size=3)
    for solve in (optimal_schedule, dual_recursion):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve(ODD_INSTANCE, capped)
        with pytest.warns(RuntimeWarning) as caught:
            solve(ODD_INSTANCE, dropping)
        assert [str(w.message) for w in caught] == [
            _monotone_warning(3, 1, "4.0, less than the inf of its first 2")]


@pytest.mark.parametrize("shift", [0.0, 1.7e9])
def test_coincident_runs_are_never_cut(shift):
    """A split of a coincident run saves no waiting, so no row inside a run
    stops before its end, under a zero cost too, whose terms are the
    arrivals themselves."""
    times = tuple(t + shift for t in [0.0] * 5 + [2.0] * 6 + [2.5, 9.0] + [9.0] * 4)
    feats = tuple(k % 3 for k in range(len(times)))
    inst = ProblemInstance(times, feats)
    run_end = [max(k for k, t in enumerate(times) if t == times[i]) + 1 for i in range(inst.n)]
    for fn in (_distinct_plus_sqrt, lambda x: 0.0):
        f = CustomSetFunction(fn, universe_size=3)
        widths = static_set_windows(inst.times, f, feats)[0]
        assert (np.arange(inst.n) + widths >= run_end).all()
        want, total = _unpruned_optimum(inst, f)
        sched, cost = optimal_schedule(inst, f)
        assert sched == want
        assert math.isclose(cost.total, total, rel_tol=1e-9, abs_tol=1e-12)


def test_set_function_single_sample():
    inst = ProblemInstance((1.7e9,), (2,))
    f = CustomSetFunction(_weighted_distinct_plus_sqrt, universe_size=3)
    widths, prices = static_set_windows(inst.times, f, inst.features)
    assert widths.tolist() == [1]
    assert prices.tolist() == [4.0]
    sched, cost = optimal_schedule(inst, f)
    assert sched.ends.tolist() == [1]
    assert cost.total == 4.0
    assert dual_recursion(inst, f).lambdas == (4.0, 0.0)


def _minus_3_from_4(x):
    """-3 on batches of 4 or more samples, distinct + sqrt below: a set
    function outside Assumption 1 whose prices turn negative."""
    return -3.0 if len(x) >= 4 else _distinct_plus_sqrt(x)


def _from_ends_and_cost_of(inst, f):
    """``optimal_schedule`` the long way: the sweep's ends as lists,
    ``Schedule.from_ends`` on their arrivals, then ``cost_of``."""
    ends = offline._sweep(*ragged([inst.times]), f, inst.features)[1].tolist()
    sched = Schedule.from_ends(ends, [inst.times[hi - 1] for hi in ends])
    return (sched, cost_of(inst, sched, f)), len(ends)


@pytest.mark.filterwarnings("ignore:cost is not monotone:RuntimeWarning")
def test_schedule_and_cost_come_from_the_sweep_arrays():
    """The arrays route of ``optimal_schedule`` equals ``from_ends`` and
    ``cost_of`` on the same ends, coincident batches merged, float for
    float; the negative pair prices cut coincident runs, so some do merge."""
    rng = np.random.default_rng(18)
    costs = [*COSTS, CountTable(tuple(min(k, 2 + 0.25 * k) for k in range(64))),
             CustomSetFunction(_distinct_plus_sqrt, universe_size=3),
             CustomSetFunction(ODD_SET_FUNCTIONS["negative pairs"][0], universe_size=3)]
    merged = 0
    for k in range(120):
        n = int(rng.integers(1, 40))
        gaps = rng.exponential(0.3, n)
        gaps[rng.random(n) < 0.4] = 0.0
        times = tuple((np.cumsum(gaps) + (1.7e9 if k % 3 == 0 else 0.0)).tolist())
        inst = ProblemInstance(times, tuple(rng.integers(0, 3, n).tolist()))
        for f in costs:
            (want, unmerged) = _from_ends_and_cost_of(inst, f)
            got = optimal_schedule(inst, f)
            assert got == want
            m = len(got[0].ends)
            assert (got[0].ends.dtype, got[0].stamps.dtype) == (np.intp, np.float64)
            merged += m < unmerged
    assert merged > 0


def test_a_price_drop_warns_once_per_solve_naming_row_and_size():
    """The FOUND's f: six coincident arrivals of one feature, then a lone
    one.  Row 1 prices 2, 1 + sqrt 2, 1 + sqrt 3, then -3 for four."""
    inst = ProblemInstance((0.0,) * 6 + (50.0,), (1,) * 7)
    f = CustomSetFunction(_minus_3_from_4, universe_size=3)
    message = (f"cost is not monotone: the batch of 4 samples from sample 1 costs -3.0, less "
               f"than the {1 + math.sqrt(3)!r} of its first 3; the solver's windows assume a "
               "monotone cost (Assumption 1), so the schedule may not be optimal")
    for solve in (optimal_schedule, dual_recursion):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve(inst, f)
        assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, message)]


def test_a_count_cost_drop_names_the_first_window_that_holds_it():
    """g(3) < g(2): samples 1-2 sit alone, so sample 3's window is the
    first with room for three samples."""
    f = CountTable((0.0, 1.0, 2.0, 1.5, 3.0))
    inst = ProblemInstance.from_times([0.0, 5.0, 10.0, 10.1, 10.2, 10.3])
    with pytest.warns(RuntimeWarning, match=r"batch of 3 samples from sample 3 costs 1\.5, "
                                            r"less than the 2\.0 of its first 2;"):
        optimal_schedule(inst, f)
    with pytest.warns(RuntimeWarning, match="batch of 3 samples from sample 3"):
        offline.lockstep_ends(*ragged([inst.times, inst.times]), f)
    # Behind a row of two lone samples, it is still sample 3 of its own row.
    with pytest.warns(RuntimeWarning, match="batch of 3 samples from sample 3"):
        offline.lockstep_ends(*ragged([[0.0, 9.0], inst.times]), f)


def test_a_drop_within_the_window_slack_does_not_warn():
    f = CustomSetFunction(lambda x: 1.0 - 0.5e-9 * (len(x) - 1), universe_size=1)
    inst = ProblemInstance.from_times([0.0, 0.1, 0.2, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        optimal_schedule(inst, f)
    steeper = CustomSetFunction(lambda x: 1.0 - 2e-9 * (len(x) - 1), universe_size=1)
    with pytest.warns(RuntimeWarning, match="batch of 2 samples from sample 1"):
        optimal_schedule(inst, steeper)


@pytest.mark.parametrize("f", [*BUILTIN_COSTS, ConstantCost(0),
                               CustomSetFunction(_distinct_plus_sqrt, universe_size=3)],
                         ids=lambda f: f.spec_string())
def test_no_builtin_cost_warns(f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, rate in enumerate((0.5, 2.0, 50.0)):
            inst = gen_poisson(ConstantRate(rate), 80, seed=k,
                               feature_sampler=lambda rng, t: int(rng.integers(3)))
            optimal_schedule(inst, f)
            dual_recursion(inst, f)
            if f.count_based:
                offline.lockstep_ends(*ragged([inst.times] * 3), f)
