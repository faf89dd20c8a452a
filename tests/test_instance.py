import copy
import math
import pickle
import re

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
from dynbatch.instance import chunk_costs

from conftest import assert_times_array, flat, row_costs


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


def _reference_check(times, features):
    """The constructor's checks as a scan in order: the reference that the
    one-pass array check must match, error for error."""
    if len(times) == 0:
        raise ValueError("empty instance")
    if len(times) != len(features):
        raise ValueError("times and features must have equal length")
    prev = 0.0
    for t in times:
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"arrival times must be finite and non-negative, got {t!r}")
        if t < prev:
            raise ValueError("arrival times must be non-decreasing")
        prev = t
    if any(v < 0 for v in features):
        raise ValueError("feature ids must be non-negative")


def _outcome(fn, *args):
    """The exception type and message ``fn(*args)`` raises, or None."""
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _zeros(*times):
    """``times`` with feature 0 on every sample, as constructor arguments."""
    return times, (0,) * len(times)


BAD_INSTANCES = {
    "nan": _zeros(0.5, math.nan, 1.0),
    "nan-first": _zeros(math.nan, 1.0),
    "inf": _zeros(0.0, math.inf),
    "inf-then-less": _zeros(1.0, math.inf, 2.0),
    "minus-inf": _zeros(-math.inf, 1.0),
    "negative": _zeros(-1.0),
    "negative-later": _zeros(0.0, 2.0, -1.0),
    "decrease": _zeros(0.0, 2.0, 1.0),
    "decrease-then-nan": _zeros(2.0, 1.0, math.nan),
    "nan-after-decrease": _zeros(1.0, math.nan, 0.5),
    "negative-int": _zeros(-1, 2),
    "int-decrease": _zeros(3, 2),
    "numpy-nan": _zeros(np.float64(1.0), np.float64(math.nan)),
    "numpy-negative": _zeros(np.float32(-0.5)),
    "numpy-int-decrease": _zeros(np.int64(3), np.int64(-1)),
    "negative-zero-after-positive": _zeros(1.0, -0.0),
    "not-a-number": _zeros(0.0, "x"),
    "negative-before-not-a-number": _zeros(-1.0, "x"),
    "none": _zeros(None),
    "huge-int": _zeros(10**400),
    "length": ((1.0, 2.0), (0,)),
    "empty": ((), ()),
    "negative-feature": ((1.0,), (-1,)),
    "time-before-feature": ((2.0, 1.0), (-1, 0)),
}

GOOD_INSTANCES = {
    "negative-zero": _zeros(-0.0, 0.0, -0.0),
    "ints": _zeros(0, 1, 1, 5),
    "numpy-scalars": _zeros(np.float32(0.25), np.float64(0.5), np.int64(2)),
    "bool": _zeros(False, True),
    "coincident": _zeros(*(2.0,) * 4),
    "epoch-scale": _zeros(1.7e9, 1.7e9 + 1e-6),
    "subnormal": _zeros(0.0, 5e-324),
}


class TestProblemInstance:
    @pytest.mark.parametrize("case", [*BAD_INSTANCES, *GOOD_INSTANCES])
    def test_check_matches_the_scan_in_order(self, case):
        args = {**BAD_INSTANCES, **GOOD_INSTANCES}[case]
        want = _outcome(_reference_check, *args)
        assert _outcome(ProblemInstance, *args) == want
        assert (want is None) == (case in GOOD_INSTANCES)
        if want is None:
            assert_times_array(ProblemInstance(*args))

    @settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.one_of(
        st.floats(min_value=-2.0, max_value=1e300),
        st.integers(min_value=-3, max_value=10),
        st.sampled_from([0.0, -0.0, 1.0, 2.0, math.nan, math.inf, -math.inf])),
        min_size=1, max_size=12))
    def test_check_matches_the_scan_in_order_at_random(self, times):
        args = _zeros(*times)
        assert _outcome(ProblemInstance, *args) == _outcome(_reference_check, *args)

    def test_times_array_is_kept_read_only(self):
        inst = ProblemInstance((0.0, 0.5, 0.5, 2.0), (0, 1, 0, 2))
        assert_times_array(inst)
        with pytest.raises(ValueError, match="read-only"):
            inst.times_array[0] = 1.0
        assert inst == ProblemInstance((0.0, 0.5, 0.5, 2.0), (0, 1, 0, 2))
        assert "times_array" not in repr(inst)

    @pytest.mark.parametrize("delta", [0.0, 1.7e9, -0.5, math.nan])
    def test_shifted_keeps_an_array_of_its_own(self, delta):
        inst = ProblemInstance((0.5, 0.6, 2.0), (0, 1, 0))
        want = _outcome(_reference_check, tuple(t + delta for t in inst.times), inst.features)
        assert _outcome(inst.shifted, delta) == want
        if want is None:
            moved = inst.shifted(delta)
            assert moved == ProblemInstance(tuple(t + delta for t in inst.times), inst.features)
            assert_times_array(moved)

    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_copies_keep_a_read_only_array(self, how):
        inst = ProblemInstance((0.0, 0.5, 2.0), (0, 1, 0))
        twin = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
                "copy": copy.copy, "deepcopy": copy.deepcopy}[how](inst)
        assert twin == inst and hash(twin) == hash(inst)
        assert_times_array(twin)

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
        c = cost_of(inst, Schedule((1,), (0.0,)), SqrtCount())
        assert (c.waiting, c.processing, c.total) == (0.0, 1.0, 1.0)

    def test_two_singletons_no_wait(self):
        inst = ProblemInstance.from_times([0.0, 100.0])
        c = cost_of(inst, Schedule((1, 2), (0.0, 100.0)), SqrtCount())
        assert (c.waiting, c.processing, c.total) == (0.0, 1.0, 1.0)

    def test_merged_pair(self):
        # hand evaluation: waits (100, 0), one batch of two
        inst = ProblemInstance.from_times([0.0, 100.0])
        c = cost_of(inst, Schedule((2,), (100.0,)), SqrtCount())
        assert c.waiting == 50.0
        assert abs(c.processing - math.sqrt(2) / 2) <= 1e-15
        assert abs(c.total - 50.70710678118655) <= 1e-9
        assert c.total == c.waiting + c.processing

    def test_infeasible_gap_in_partition(self):
        # Each batch starts after the one before it, so a partition can break
        # only by ends that do not rise, or one past n.
        inst = ProblemInstance.from_times([0.0, 1.0, 2.0])
        with pytest.raises(InfeasibleScheduleError, match="infeasible schedule"):
            cost_of(inst, Schedule((2, 1, 3), (1.0, 1.5, 2.0)), SqrtCount())

    def test_infeasible_incomplete(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError):
            cost_of(inst, Schedule((1,), (0.0,)), SqrtCount())

    def test_infeasible_before_arrival(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError, match="before its last arrival"):
            cost_of(inst, Schedule((2,), (0.5,)), SqrtCount())

    def test_infeasible_non_increasing_times(self):
        inst = ProblemInstance.from_times([0.0, 0.0])
        with pytest.raises(InfeasibleScheduleError, match="strictly increasing"):
            cost_of(inst, Schedule((1, 2), (0.5, 0.5)), SqrtCount())

    def test_infeasible_batch_past_n(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        with pytest.raises(InfeasibleScheduleError, match=r"1\.\.2 consecutively \(got \[1, 5\]"):
            cost_of(inst, Schedule((5,), (9.0,)), SqrtCount())


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
        assert row_costs(np.array(self.CHUNK), features, *flat(ends, stamps), f) == want

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
        ends, stamps = [b.hi for b in batches], [b.time for b in batches]
        sched = Schedule(tuple(ends), tuple(stamps))
        with pytest.raises(InfeasibleScheduleError) as want:
            sched.validate_for(inst)
        # cost_of takes the schedule as given: it merges no batches.
        with pytest.raises(InfeasibleScheduleError) as got:
            cost_of(inst, sched, SqrtCount())
        assert str(got.value) == str(want.value)
        # chunk_costs merges as Schedule.from_ends.
        merged = Schedule.from_ends(ends, stamps)
        args = (np.array([[0.0, 1.0], [0.0, 1.0]]), [inst.features] * 2,
                *flat([[2], ends], [[1.0], stamps]), SqrtCount())
        try:
            merged.validate_for(inst)
        except InfeasibleScheduleError as exc:
            with pytest.raises(InfeasibleScheduleError) as got:
                chunk_costs(*args)
            assert str(got.value) == str(exc)
        else:
            assert row_costs(*args)[1] == reference_cost(inst, merged, SqrtCount())


    @pytest.mark.parametrize("order", [1, -1])
    def test_first_faulty_row_wins(self, order):
        # Row 0 has a batch before its last arrival, row 1 no batches: the
        # error is that of the earlier row.
        rows = [([2], [0.5]), ([], [])][::order]
        ends, stamps = zip(*rows)
        want = ("infeasible schedule: batch [1, 2] processed at 0.5 before its last arrival 1.0"
                if order == 1 else "infeasible schedule: no batches")
        with pytest.raises(InfeasibleScheduleError, match=re.escape(want)):
            chunk_costs(np.array([[0.0, 1.0]] * 2), [(0, 0)] * 2, *flat(ends, stamps), SqrtCount())


class TestMergeCoincident:
    """Schedule.from_ends merges batches processed at one instant."""

    def test_merges_equal_times(self):
        merged = Schedule.from_ends([1, 3, 4], [0.5, 0.5, 1.0])
        assert merged == Schedule((3, 4), (0.5, 1.0))
        assert merged.batches == (Batch(1, 3, 0.5), Batch(4, 4, 1.0))

    def test_keeps_distinct(self):
        batches = (Batch(1, 1, 0.0), Batch(2, 2, 1.0))
        assert Schedule.from_ends([1, 2], [0.0, 1.0]).batches == batches

    @pytest.mark.parametrize("ends, stamps, want", [
        ([], [], ((), ())),
        ([4], [2.0], ((4,), (2.0,))),
        ([1, 2, 3, 4], [1.0] * 4, ((4,), (1.0,))),
        ([1, 2, 3, 5, 6], [0.0, 0.0, 1.0, 2.0, 2.0], ((2, 3, 6), (0.0, 1.0, 2.0))),
        # Only neighbours merge, as the policies emit them.
        ([1, 2, 3], [1.0, 2.0, 1.0], ((1, 2, 3), (1.0, 2.0, 1.0))),
    ])
    def test_merge_table(self, ends, stamps, want):
        assert Schedule.from_ends(ends, stamps) == Schedule(*want)


class TestSchedule:
    def test_equal_schedules_hash_equal(self):
        a = Schedule.from_ends([1, 2, 4], [0.5, 0.5, 3.0])
        b = Schedule((2, 4), (0.5, 3.0))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Schedule((2, 4), (0.5, 3.5))}) == 2
        assert Schedule((2, 4), (0.5, 3.0)) != Schedule((1, 4), (0.5, 3.0))

    def test_batches_round_trip(self):
        sched = Schedule((2, 3, 7), (0.5, 1.0, 4.25))
        assert sched.batches == (Batch(1, 2, 0.5), Batch(3, 3, 1.0), Batch(4, 7, 4.25))
        assert sched.m == 3
        assert Schedule.from_ends([b.hi for b in sched.batches],
                                  [b.time for b in sched.batches]) == sched
        assert Schedule((), ()).batches == ()

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Schedule((1, 2), (0.0,))

    @pytest.mark.parametrize("ends, stamps, message", [
        ((), (), "no batches"),
        ((1,), (0.0,), "covers 1..1 but instance has n=3"),
        ((2, 1, 3), (1.0, 1.5, 2.0), r"batches must partition 1..3 consecutively \(got \[3, 1\], expected lo=3\)"),
        ((0, 3), (0.0, 2.0), r"batches must partition 1..3 consecutively \(got \[1, 0\], expected lo=1\)"),
        ((1, 4), (0.0, 9.0), r"batches must partition 1..3 consecutively \(got \[2, 4\], expected lo=2\)"),
        ((1, 3), (0.5, 0.5), "processing times must be strictly increasing"),
        ((1, 3), (float("nan"), 2.0), "processing times must be strictly increasing"),
        ((1, 3), (0.0, 1.5), r"batch \[2, 3\] processed at 1.5 before its last arrival 2.0"),
        # The first fault in batch order wins.
        ((2, 3, 1), (0.5, 2.0, 3.0), r"batch \[1, 2\] processed at 0.5 before its last arrival 1.0"),
    ])
    def test_validate_for_messages(self, ends, stamps, message):
        inst = ProblemInstance.from_times([0.0, 1.0, 2.0])
        with pytest.raises(InfeasibleScheduleError, match=f"^infeasible schedule: {message}$"):
            Schedule(ends, stamps).validate_for(inst)


class TestPendingCountCurve:
    def test_single_sample(self):
        inst = ProblemInstance.from_times([0.0])
        curve = pending_count_curve(inst, Schedule((1,), (0.5,)))
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
        curve = pending_count_curve(inst, Schedule((2,), (t_star,)))
        assert abs(curve.integral() - 0.5 * math.sqrt(2)) <= 1e-12

    def test_zero_wait_support(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        curve = pending_count_curve(
            inst, Schedule((1, 2), (0.0, 1.0)))
        assert curve.integral() == 0.0
        assert curve.times == ()

    def test_integral_between(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        curve = pending_count_curve(inst, Schedule((2,), (3.0,)))
        assert curve.integral_between(0.0, 1.0) == 1.0
        assert curve.integral_between(1.0, 3.0) == 4.0
        assert curve.integral_between(-5.0, 10.0) == 5.0
        assert curve.integral_between(2.0, 2.0) == 0.0


class TestPositiveExcess:
    def test_known_curves(self):
        inst = ProblemInstance.from_times([0.0, 1.0])
        late = pending_count_curve(inst, Schedule((2,), (3.0,)))
        early = pending_count_curve(inst, Schedule((1, 2), (0.5, 1.0)))
        # late has 1 pending on [0,1) and 2 on [1,3); early has 1 on [0,0.5)
        assert positive_excess_integral(late, early) == 0.5 * 0 + 0.5 * 1 + 2 * 2
        assert positive_excess_integral(early, late) == 0.0

    def test_against_self(self):
        inst = ProblemInstance.from_times([0.0, 0.3, 0.9])
        curve = pending_count_curve(inst, Schedule((3,), (2.0,)))
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
    ends = (*splits, n)
    stamps = []
    prev_time = -math.inf
    for idx, hi in enumerate(ends):
        prev_time = max(times[hi - 1] + lags[idx], prev_time + 1e-6)
        stamps.append(prev_time)
    return inst, Schedule(ends, tuple(stamps))


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
    shifted_sched = Schedule(sched.ends, tuple(t + delta for t in sched.stamps))
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
        assert row_costs(a, features, *flat(ends, stamps), f) == want


def _reference_fault(inst, ends, stamps):
    """The message of the first fault found by the batch-by-batch loop that
    the array check in ``Schedule.validate_for`` replaced, or None."""
    if not ends:
        return "infeasible schedule: no batches"
    times = inst.times
    n = len(times)
    lo, prev_time = 1, -math.inf
    for hi, t in zip(ends, stamps):
        if not lo <= hi <= n:
            return (f"infeasible schedule: batches must partition 1..{n} consecutively "
                    f"(got [{lo}, {hi}], expected lo={lo})")
        if not t > prev_time:
            return "infeasible schedule: processing times must be strictly increasing"
        if t < times[hi - 1]:
            return (f"infeasible schedule: batch [{lo}, {hi}] processed at {t!r} "
                    f"before its last arrival {times[hi - 1]!r}")
        lo, prev_time = hi + 1, t
    if lo != n + 1:
        return f"infeasible schedule: covers 1..{lo - 1} but instance has n={n}"
    return None


@st.composite
def schedule_arrays(draw):
    """An instance with coincident arrivals, and ends and stamps that are
    often invalid for it."""
    n = draw(st.integers(min_value=1, max_value=6))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    inst = ProblemInstance.from_times(np.cumsum(gaps).tolist())
    m = draw(st.integers(min_value=0, max_value=6))
    ends = draw(st.lists(st.integers(min_value=-1, max_value=n + 1), min_size=m, max_size=m))
    stamps = draw(st.lists(st.sampled_from([*inst.times, -1.0, 0.25, 9.0, math.nan, -math.inf]),
                           min_size=m, max_size=m))
    return inst, tuple(ends), tuple(stamps)


def _fault(fn, *args):
    try:
        fn(*args)
    except InfeasibleScheduleError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(case=schedule_arrays(), first=st.booleans())
def test_array_check_matches_batch_by_batch_reference(case, first):
    inst, ends, stamps = case
    sched = Schedule(ends, stamps)
    want = _reference_fault(inst, ends, stamps)
    assert _fault(sched.validate_for, inst) == want
    assert _fault(cost_of, inst, sched, SqrtCount()) == want
    # chunk_costs merges first, and reports the first faulty row, here
    # beside a valid one.
    merged = Schedule.from_ends(ends, stamps)
    rows = [(merged.ends, merged.stamps), ((inst.n,), (inst.times[-1],))]
    rows = rows if first else rows[::-1]
    args = (np.array([inst.times] * 2), [inst.features] * 2, *flat(*zip(*rows)), SqrtCount())
    assert _fault(chunk_costs, *args) == _reference_fault(inst, merged.ends, merged.stamps)
