import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbatch import (
    BUILTIN_COSTS,
    Batch,
    ConstantCost,
    CountTable,
    CustomSetFunction,
    FixedDelay,
    FixedSize,
    InfeasibleScheduleError,
    ProblemInstance,
    Schedule,
    ScheduleCost,
    SqrtCount,
    Wta,
    cost_of,
    optimal_schedule,
    parse_policy_spec,
    pending_count_curve,
    positive_excess_integral,
)
from dynbatch.instance import chunk_costs, merge_coincident


def singleton_batches(inst):
    return Schedule.from_ends(range(1, inst.n + 1), inst.times)


def reference_cost(inst, sched, f):
    """The objective batch by batch: the fsum of the per-sample waits and the
    fsum of the per-batch prices, each divided by n."""
    sched.validate_for(inst)
    waits = [b.time - inst.times[i] for b in sched.batches for i in range(b.lo - 1, b.hi)]
    waiting = math.fsum(waits) / inst.n
    processing = math.fsum(f.batch_cost(inst.features[b.lo - 1:b.hi])
                           for b in sched.batches) / inst.n
    return ScheduleCost(waiting, processing, waiting + processing)


class TestProblemInstance:
    def test_basic(self):
        inst = ProblemInstance((0.0, 1.0), (0, 1))
        assert inst.n == 2
        assert inst.features == (0, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty instance"):
            ProblemInstance((), ())

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            ProblemInstance.from_times([1.0, 0.5])

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            ProblemInstance.from_times([-1.0])
        with pytest.raises(ValueError):
            ProblemInstance.from_times([math.inf])

    def test_equal_times_permitted(self):
        inst = ProblemInstance.from_times([1.0, 1.0, 1.0])
        assert inst.n == 3


class TestCostOf:
    def test_single_sample(self):
        inst = ProblemInstance.from_times([0.0])
        c = cost_of(inst, Schedule((Batch(1, 1, 0.0),)), SqrtCount())
        assert (c.waiting, c.processing, c.total) == (0.0, 1.0, 1.0)

    def test_two_singletons_no_wait(self):
        inst = ProblemInstance.from_times([0.0, 100.0])
        c = cost_of(inst, Schedule((Batch(1, 1, 0.0), Batch(2, 2, 100.0))), SqrtCount())
        assert (c.waiting, c.processing, c.total) == (0.0, 1.0, 1.0)

    def test_merged_pair(self):
        # hand evaluation: waits (100, 0), one batch of two
        inst = ProblemInstance.from_times([0.0, 100.0])
        c = cost_of(inst, Schedule((Batch(1, 2, 100.0),)), SqrtCount())
        assert c.waiting == 50.0
        assert abs(c.processing - math.sqrt(2) / 2) <= 1e-15
        assert abs(c.total - 50.70710678118655) <= 1e-9
        assert c.total == c.waiting + c.processing

    def test_infeasible_gap_in_partition(self):
        inst = ProblemInstance.from_times([0.0, 1.0, 2.0])
        with pytest.raises(InfeasibleScheduleError, match="infeasible schedule"):
            cost_of(inst, Schedule((Batch(1, 1, 0.0), Batch(3, 3, 2.0))), SqrtCount())

    def test_infeasible_incomplete(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError):
            cost_of(inst, Schedule((Batch(1, 1, 0.0),)), SqrtCount())

    def test_infeasible_before_arrival(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError, match="before its last arrival"):
            cost_of(inst, Schedule((Batch(1, 2, 0.5),)), SqrtCount())

    def test_infeasible_non_increasing_times(self):
        inst = ProblemInstance.from_times([0.0, 0.0])
        with pytest.raises(InfeasibleScheduleError, match="strictly increasing"):
            cost_of(inst, Schedule((Batch(1, 1, 0.5), Batch(2, 2, 0.5))), SqrtCount())

    def test_infeasible_batch_past_n(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError, match=r"1\.\.2 consecutively \(got \[1, 5\]"):
            cost_of(inst, Schedule((Batch(1, 5, 9.0),)), SqrtCount())


class TestChunkCosts:
    """chunk_costs prices T schedules as the batch-by-batch reference prices
    each of them."""

    CHUNK = [[0.0, 0.0, 0.3, 0.3, 0.3, 2.0], [1.0] * 6, [0.1, 0.2, 0.4, 0.8, 1.6, 3.2],
             [0.0, 0.5, 0.5, 0.5, 0.6, 0.6]]

    @pytest.mark.parametrize("spec", ["wta:0.5", "wta:2", "fixed-size:4", "fixed-delay:0",
                                      "fixed-delay:0.4"])
    @pytest.mark.parametrize("f", [SqrtCount(), ConstantCost(0),
                                   CountTable((0, 1, 1.5, 2, 2.5, 3, 3.5))],
                             ids=lambda f: f.spec_string())
    def test_policy_schedules_match_cost_of(self, spec, f):
        # Coincident arrivals make the policies emit batches at one instant.
        policy = parse_policy_spec(spec)
        insts = [ProblemInstance.from_times(times) for times in self.CHUNK]
        ends, stamps = zip(*(policy.flushes(inst.times, inst.features, f) for inst in insts))
        scheds = [Schedule.from_ends(e, s) for e, s in zip(ends, stamps)]
        want = [reference_cost(inst, sched, f) for inst, sched in zip(insts, scheds)]
        assert [cost_of(inst, sched, f) for inst, sched in zip(insts, scheds)] == want
        features = [inst.features for inst in insts]
        assert chunk_costs(np.array(self.CHUNK), features, ends, stamps, f) == want

    @pytest.mark.parametrize("batches", [
        pytest.param([Batch(1, 1, 0.0)], id="incomplete"),
        pytest.param([Batch(1, 2, 0.5)], id="before-last-arrival"),
        pytest.param([Batch(1, 1, 0.5), Batch(2, 2, 0.4)], id="decreasing-times"),
        pytest.param([], id="no-batches"),
        pytest.param([Batch(1, 1, 0.0), Batch(3, 3, 1.0)], id="gap"),
        pytest.param([Batch(1, 1, 1.0), Batch(2, 2, 1.0)], id="one-instant"),
        pytest.param([Batch(1, 5, 9.0)], id="past-n"),
    ])
    def test_invalid_schedule_raises_validate_for_error(self, batches):
        inst = ProblemInstance.from_times([0.0, 1.0])
        sched = Schedule(tuple(batches))
        with pytest.raises(InfeasibleScheduleError) as want:
            sched.validate_for(inst)
        # cost_of takes the schedule as given: it merges no batches.
        with pytest.raises(InfeasibleScheduleError) as got:
            cost_of(inst, sched, SqrtCount())
        assert str(got.value) == str(want.value)
        # chunk_costs reads the batch ends and merges as Schedule.from_ends.
        ends, stamps = [b.hi for b in batches], [b.time for b in batches]
        merged = Schedule.from_ends(ends, stamps)
        args = (np.array([[0.0, 1.0], [0.0, 1.0]]), [inst.features] * 2,
                [[2], ends], [[1.0], stamps], SqrtCount())
        try:
            merged.validate_for(inst)
        except InfeasibleScheduleError as exc:
            with pytest.raises(InfeasibleScheduleError) as got:
                chunk_costs(*args)
            assert str(got.value) == str(exc)
        else:
            assert chunk_costs(*args)[1] == reference_cost(inst, merged, SqrtCount())


class TestMergeCoincident:
    def test_merges_equal_times(self):
        merged = merge_coincident([Batch(1, 1, 0.5), Batch(2, 3, 0.5), Batch(4, 4, 1.0)])
        assert merged == (Batch(1, 3, 0.5), Batch(4, 4, 1.0))

    def test_keeps_distinct(self):
        batches = [Batch(1, 1, 0.0), Batch(2, 2, 1.0)]
        assert merge_coincident(batches) == tuple(batches)


class TestPendingCountCurve:
    def test_single_sample(self):
        inst = ProblemInstance.from_times([0.0])
        curve = pending_count_curve(inst, Schedule((Batch(1, 1, 0.5),)))
        assert curve.times == (0.0, 0.5)
        assert curve.counts == (1,)
        assert curve.integral() == 0.5
        assert curve.value_at(0.25) == 1
        assert curve.value_at(0.5) == 0

    def test_wta_pair_example(self):
        # 1 pending on [0, 0.2), 2 pending until the flush; total integral
        # equals the flush target 0.5 * sqrt(2)
        inst = ProblemInstance.from_times([0.0, 0.2])
        t_star = 0.2 + (0.5 * math.sqrt(2) - 0.2) / 2
        curve = pending_count_curve(inst, Schedule((Batch(1, 2, t_star),)))
        assert abs(curve.integral() - 0.5 * math.sqrt(2)) <= 1e-12

    def test_zero_wait_support(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        curve = pending_count_curve(
            inst, Schedule((Batch(1, 1, 0.0), Batch(2, 2, 1.0))))
        assert curve.integral() == 0.0
        assert curve.times == ()

    def test_integral_between(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        curve = pending_count_curve(inst, Schedule((Batch(1, 2, 3.0),)))
        assert curve.integral_between(0.0, 1.0) == 1.0
        assert curve.integral_between(1.0, 3.0) == 4.0
        assert curve.integral_between(-5.0, 10.0) == 5.0
        assert curve.integral_between(2.0, 2.0) == 0.0


class TestPositiveExcess:
    def test_known_curves(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        late = pending_count_curve(inst, Schedule((Batch(1, 2, 3.0),)))
        early = pending_count_curve(inst, Schedule((Batch(1, 1, 0.5), Batch(2, 2, 1.0))))
        # late has 1 pending on [0,1) and 2 on [1,3); early has 1 on [0,0.5)
        assert positive_excess_integral(late, early) == 0.5 * 0 + 0.5 * 1 + 2 * 2
        assert positive_excess_integral(early, late) == 0.0

    def test_against_self(self):
        inst = ProblemInstance.from_times([0.0, 0.3, 0.9])
        curve = pending_count_curve(inst, Schedule((Batch(1, 3, 2.0),)))
        assert positive_excess_integral(curve, curve) == 0.0


@st.composite
def instance_and_schedule(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=n, max_size=n))
    times = []
    t = 0.0
    for g in gaps:
        t += g
        times.append(t)
    inst = ProblemInstance.from_times(times)
    # random consecutive partition, each batch at its last arrival plus a lag
    splits = sorted(draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1)),
                                 max_size=n - 1))) if n > 1 else []
    lags = draw(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                         min_size=len(splits) + 1, max_size=len(splits) + 1))
    batches = []
    lo = 1
    prev_time = -math.inf
    for idx, hi in enumerate([*splits, n]):
        t_b = max(times[hi - 1] + lags[idx], prev_time + 1e-6)
        batches.append(Batch(lo, hi, t_b))
        prev_time = t_b
        lo = hi + 1
    return inst, Schedule(tuple(batches))


@settings(max_examples=150, deadline=None)
@given(pair=instance_and_schedule())
def test_pending_integral_matches_total_wait(pair):
    inst, sched = pair
    cost = cost_of(inst, sched, ConstantCost(1))
    integral = pending_count_curve(inst, sched).integral()
    assert math.isclose(integral, inst.n * cost.waiting, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(pair=instance_and_schedule(),
       delta=st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_cost_invariant_under_time_translation(pair, delta):
    inst, sched = pair
    f = SqrtCount()
    base = cost_of(inst, sched, f)
    shifted_sched = Schedule(tuple(Batch(b.lo, b.hi, b.time + delta) for b in sched.batches))
    shifted = cost_of(inst.shifted(delta), shifted_sched, f)
    assert math.isclose(base.total, shifted.total, rel_tol=1e-9, abs_tol=1e-9)


@st.composite
def coincident_chunks(draw):
    """One to three instances of one size, with coincident arrivals and
    feature ids 0..2."""
    n = draw(st.integers(min_value=1, max_value=12))
    insts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.5, 1.0, 2.5]),
                             min_size=n, max_size=n))
        feats = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
        insts.append(ProblemInstance(tuple(np.cumsum(gaps).tolist()), tuple(feats)))
    return insts


PRICED_COSTS = [
    *BUILTIN_COSTS,
    ConstantCost(0),
    CountTable(tuple(math.sqrt(k) for k in range(16))),
    CustomSetFunction(lambda x: len(x.counts) + math.sqrt(len(x)), universe_size=3,
                      name="distinct+sqrt"),
]


@settings(max_examples=100, deadline=None)
@given(insts=coincident_chunks(), f=st.sampled_from(PRICED_COSTS))
def test_pricing_matches_batch_by_batch_reference(insts, f):
    # The optimum's schedules, then each policy's flushes, unmerged for
    # chunk_costs and merged by Schedule.from_ends for cost_of.
    a = np.array([inst.times for inst in insts])
    features = [inst.features for inst in insts]
    opt = [optimal_schedule(inst, f)[0] for inst in insts]
    runs = [([[b.hi for b in s.batches] for s in opt], [[b.time for b in s.batches] for s in opt])]
    for policy in [Wta(0.5), Wta(3.0), FixedSize(3), FixedDelay(0.0), FixedDelay(0.3)]:
        runs.append(tuple(zip(*(policy.flushes(inst.times, inst.features, f) for inst in insts))))
    for ends, stamps in runs:
        scheds = [Schedule.from_ends(e, s) for e, s in zip(ends, stamps)]
        want = [reference_cost(inst, sched, f) for inst, sched in zip(insts, scheds)]
        assert [cost_of(inst, sched, f) for inst, sched in zip(insts, scheds)] == want
        assert chunk_costs(a, features, ends, stamps, f) == want
