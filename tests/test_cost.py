import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynbatch import (
    BUILTIN_COSTS,
    CappedLinear,
    ConstantCost,
    CostFunction,
    CountTable,
    CustomSetFunction,
    FeatureMultiset,
    Log1pCount,
    SqrtCount,
    curvature,
    curvature_info,
    ProblemInstance,
    parse_cost_spec,
    validate_assumption1,
    worst_pair_search,
)
from dynbatch.offline import EdgeWeightOracle
from dynbatch.cost import (
    CurvatureResult,
    ValidationReport,
    Violation,
    check_whole,
    random_multiset,
    size_pairs,
    spec_values,
)


def ms(*features):
    return FeatureMultiset.from_features(features)


class TestFeatureMultiset:
    def test_canonical_and_equal(self):
        assert ms(2, 1, 1) == ms(1, 2, 1)
        assert ms(2, 1, 1).counts == ((1, 2), (2, 1))
        assert len(ms(2, 1, 1)) == 3

    def test_union_adds_multiplicities(self):
        x = ms(0, 1)
        assert x.union(x) == ms(0, 0, 1, 1)
        assert x.union(x) != x
        assert len(x.union(ms(5))) == 3

    def test_of_size(self):
        assert len(FeatureMultiset.of_size(4)) == 4
        assert FeatureMultiset.of_size(0) == FeatureMultiset.empty()

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_keeps_size_and_equality(self, protocol):
        for x in (ms(3, 1, 3), FeatureMultiset.empty().plus(3).plus(1).plus(3),
                  FeatureMultiset.empty()):
            y = pickle.loads(pickle.dumps(x, protocol))
            assert y == x and hash(y) == hash(x)
            assert y.size == x.size == len(y)

    @pytest.mark.parametrize("how", ["copy", "deepcopy"])
    def test_copies_keep_size_and_equality(self, how):
        for x in (ms(3, 1, 3), FeatureMultiset.empty().plus(3).plus(1).plus(3),
                  FeatureMultiset.empty()):
            y = getattr(copy, how)(x)
            assert y == x and hash(y) == hash(x)
            assert y.size == x.size == len(y)

    def test_is_frozen_with_two_slots(self):
        x = ms(1, 0, 1)
        assert not hasattr(x, "__dict__")
        for attr, value in (("counts", ()), ("size", 0), ("other", 1)):
            with pytest.raises((AttributeError, TypeError)):
                setattr(x, attr, value)
        assert (x.counts, x.size) == (((0, 1), (1, 2)), 3)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 6), max_size=20))
    def test_plus_grows_the_canonical_multiset(self, fids):
        x = FeatureMultiset.empty()
        for k, fid in enumerate(fids):
            x = x.plus(fid)
            want = FeatureMultiset.from_features(fids[:k + 1])
            assert x == want and hash(x) == hash(want)
            assert (x.counts, x.size, repr(x)) == (want.counts, want.size, repr(want))

    def test_invalid(self):
        with pytest.raises(ValueError):
            FeatureMultiset(((1, 0),))
        with pytest.raises(ValueError):
            FeatureMultiset(((2, 1), (1, 1)))
        # a multiset grown one sample at a time checks each new id
        with pytest.raises(ValueError, match="non-negative"):
            FeatureMultiset.empty().plus(1).plus(0).plus(-1)


class TestEvaluate:
    def test_sqrt_of_four(self):
        assert SqrtCount().value(FeatureMultiset.of_size(4)) == 2.0

    def test_log1p_empty_is_zero(self):
        assert Log1pCount().value(FeatureMultiset.empty()) == 0.0

    def test_capped_linear(self):
        # min(3*4, 10)
        assert CappedLinear(3, 10).value(FeatureMultiset.of_size(4)) == 10.0

    def test_table_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            CountTable((0.0, 1.0)).value(FeatureMultiset.of_size(2))

    def test_custom_set_function(self):
        f = CustomSetFunction(lambda x: float(len(x.counts)), universe_size=4)
        assert f.value(ms(0, 0, 1)) == 2.0
        assert f.value(FeatureMultiset.empty()) == 0.0


COUNT_COSTS = (*BUILTIN_COSTS, CountTable(tuple(math.sqrt(k) for k in range(65))))
PRICED_COSTS = (
    *COUNT_COSTS,
    CustomSetFunction(lambda x: len(x.counts) + 0.25 * math.sqrt(len(x)), universe_size=3,
                      name="distinct+sqrt"),
)


@pytest.mark.parametrize("f", COUNT_COSTS, ids=lambda f: f.spec_string()[:16])
def test_count_values_is_count_value(f):
    # One formula per count cost: the table, and each pricing route that
    # reads it, must agree with it bit for bit (an array form of log1p once
    # differed by one ulp at sizes 2, 13 and 47).
    want = [f.count_value(k) for k in range(65)]
    assert f.count_table(64).tolist() == want
    # 64 coincident arrivals: every edge of row 1 is its prefix's price.
    row = EdgeWeightOracle(ProblemInstance.from_times([0.0] * 64), f).row(1)
    assert row.tolist() == want[1:]
    prefixes = [(0,) * k for k in range(1, 65)]
    assert f.batch_costs(prefixes, np.arange(1, 65)).tolist() == want[1:]
    assert size_pairs(f, 64)[2].tolist() == want


class _CountedSqrt(SqrtCount):
    """sqrt, recording each size that ``count_value`` prices."""

    def count_value(self, size):
        self.__dict__.setdefault("sizes", []).append(size)
        return super().count_value(size)


def test_count_table_is_kept_per_cost_object_and_grown():
    f = _CountedSqrt()
    rows = [[0] * 12]
    assert f.batch_costs(rows, np.array([3, 7, 2])).tolist() == [math.sqrt(k) for k in (3, 7, 2)]
    assert f.batch_costs(rows, np.array([5, 7])).tolist() == [math.sqrt(5), math.sqrt(7)]
    # One tabulation of the 8 sizes 0..7, then one of the 13 sizes 0..12.
    assert f.sizes == list(range(8))
    assert f.batch_costs(rows, np.array([12])).tolist() == [math.sqrt(12)]
    assert f.count_table(4).tolist() == [math.sqrt(k) for k in range(5)]
    assert f.sizes == list(range(8)) + list(range(13))
    with pytest.raises(ValueError, match="read-only"):
        f.count_table(4)[0] = 1.0
    # The table is no field: equality, hashing, repr and pickling ignore it.
    g = SqrtCount()
    g.count_table(9)
    assert (g, hash(g), repr(g)) == (SqrtCount(), hash(SqrtCount()), repr(SqrtCount()))
    assert pickle.loads(pickle.dumps(g)) == g
    # A table too short for a batch raises, and leaves the shorter table.
    table = CountTable((0.0, 1.0, 1.5))
    assert table.batch_costs(rows, np.array([1, 2])).tolist() == [1.0, 1.5]
    with pytest.raises(ValueError, match="cost table too short"):
        table.batch_costs(rows, np.array([3]))
    assert table.batch_costs(rows, np.array([2])).tolist() == [1.5]


@pytest.mark.parametrize("f", PRICED_COSTS, ids=lambda f: f.spec_string()[:16])
@settings(max_examples=60, deadline=None)
@given(features=st.lists(st.integers(min_value=0, max_value=4), max_size=40).map(tuple))
@example(features=(2, 0, 2, 1, 0, 0, 2, 1, 1, 2))
def test_batch_cost_and_prefix_costs_price_every_prefix(f, features):
    prefixes = [features[:k] for k in range(1, len(features) + 1)]
    fresh = [FeatureMultiset.from_features(p) for p in prefixes]
    want = [f.value(x) for x in fresh]
    # The multisets that a set function sees are the ones built from scratch.
    seen = []
    recorded = CustomSetFunction(lambda x: seen.append(x) or f.value(x), universe_size=5)
    if features:
        # Each prefix as one batch of a run of batches.  Coincident arrivals
        # wait 0, so the unpruned row 1 holds the same prices.
        sizes = np.arange(1, len(features) + 1)
        assert f.batch_costs(prefixes, sizes).tolist() == want
        inst = ProblemInstance((0.0,) * len(features), features)
        assert EdgeWeightOracle(inst, f).row(1).tolist() == want
        assert EdgeWeightOracle(inst, recorded).row(1).tolist() == want
    assert [x.counts for x in seen] == [x.counts for x in fresh]
    assert [len(x) for x in seen] == [len(x) for x in fresh]
    assert seen == fresh
    assert [hash(x) for x in seen] == [hash(x) for x in fresh]


class TestValidateAssumption1:
    def test_sqrt_clean(self):
        report = validate_assumption1(SqrtCount(), max_batch=64)
        assert report.ok and report.violations == ()

    def test_table_subadditivity_violation(self):
        # g(2) = 3 > g(1) + g(1) = 2
        report = validate_assumption1(CountTable((0.0, 1.0, 3.0)), max_batch=8)
        assert not report.ok
        assert any(v.condition == "subadditive" and v.sizes == (1, 1) for v in report.violations)

    def test_constant_clean(self):
        report = validate_assumption1(ConstantCost(5), max_batch=16)
        assert report.ok
        assert ConstantCost(5).value(FeatureMultiset.of_size(1)) == 5.0

    def test_nonzero_empty_flagged(self):
        f = CustomSetFunction(lambda x: 1.0, universe_size=2)
        report = validate_assumption1(f, universe_size=2, samples=10)
        assert any(v.condition == "empty-zero" for v in report.violations)

    def test_monotone_violation(self):
        report = validate_assumption1(CountTable((0.0, 2.0, 1.0)), max_batch=8)
        assert any(v.condition == "monotone" and v.sizes == (1, 2) for v in report.violations)

    def test_custom_set_function_sampled(self):
        f = CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=3)
        report = validate_assumption1(f, universe_size=3, max_batch=16, samples=200, seed=1)
        assert report.ok

    def test_nan_value_is_a_violation(self):
        # Every comparison with NaN is false, so a check written as
        # "value > bound" would let NaN through.
        f = CustomSetFunction(lambda x: math.nan if len(x) > 3 else math.sqrt(len(x)), 2)
        report = validate_assumption1(f)
        assert not report.ok
        assert {v.condition for v in report.violations} == {"subadditive", "monotone"}
        assert all("nan" in v.detail and "\n" not in v.detail for v in report.violations)

    @pytest.mark.parametrize("search", [curvature_info, worst_pair_search])
    def test_nan_ratio_raises_naming_the_pair(self, search):
        # np.min and argmax would return the NaN, and no range check sees it.
        f = CustomSetFunction(lambda x: math.nan if len(x) > 3 else math.sqrt(len(x)), 2)
        what = "curvature" if search is curvature_info else "worst-pair ratio"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{what} undefined: f\(X\)=") as err:
                search(f, 16)
        message = str(err.value)
        assert "\n" not in message
        x, y = message.split(" for X=")[1].split(", Y=")
        x, y = FeatureMultiset(eval(x)), FeatureMultiset(eval(y))
        assert math.isnan((f.value(x) + f.value(y)) / f.value(x.union(y)))

    def test_sampling_needs_a_universe(self):
        class Bare(CostFunction):
            def value(self, x):
                return math.sqrt(len(x))

        message = "^Bare is not count-based and has no universe_size to sample feature ids from$"
        for search in (curvature_info, worst_pair_search):
            with pytest.raises(ValueError, match=message):
                search(Bare(), 4)
        assert validate_assumption1(Bare(), universe_size=2, max_batch=4).ok

    def test_set_function_default_universe_is_its_own(self):
        # superadditive only in feature 1, so sampling feature 0 alone sees
        # a clean sqrt
        f = CustomSetFunction(lambda x: math.sqrt(dict(x.counts).get(0, 0))
                              + dict(x.counts).get(1, 0) ** 2, universe_size=2)
        report = validate_assumption1(f, max_batch=16)
        assert any(v.condition == "subadditive" for v in report.violations)
        assert report == validate_assumption1(f, universe_size=2, max_batch=16)
        assert validate_assumption1(f, universe_size=1, max_batch=16).ok


class TestPairScanPins:
    """Exact outputs of the exhaustive size-pair scans on count tables."""

    TABLE = CountTable((0, 1, 3, 3.5, 3.4, 5, 5, 9, 9))
    # concave, with no closed-form curvature
    CONCAVE = CountTable((0.0, 1.0, 1.8, 2.5, 3.0, 3.4, 3.7, 3.9, 4.0))

    @pytest.mark.parametrize("max_batch,checked", [(2, 4), (3, 6)])
    def test_validate_small_ranges(self, max_batch, checked):
        report = validate_assumption1(self.TABLE, max_batch=max_batch)
        assert report.violations == (
            Violation("subadditive", (1, 1), "g(2)=3.0 > g(1)+g(1)"),)
        assert report.checked_pairs == checked

    @pytest.mark.parametrize("max_batch", [8, 64])
    def test_validate_every_violation_in_order(self, max_batch):
        report = validate_assumption1(self.TABLE, max_batch=max_batch)
        assert report.violations == (
            Violation("monotone", (3, 4), "g(3)=3.5 > g(4)=3.4"),
            Violation("subadditive", (1, 1), "g(2)=3.0 > g(1)+g(1)"),
            Violation("subadditive", (1, 4), "g(5)=5.0 > g(1)+g(4)"),
            Violation("subadditive", (1, 6), "g(7)=9.0 > g(1)+g(6)"),
            Violation("subadditive", (2, 5), "g(7)=9.0 > g(2)+g(5)"),
            Violation("subadditive", (2, 6), "g(8)=9.0 > g(2)+g(6)"),
            Violation("subadditive", (3, 4), "g(7)=9.0 > g(3)+g(4)"),
            Violation("subadditive", (3, 5), "g(8)=9.0 > g(3)+g(5)"),
            Violation("subadditive", (4, 4), "g(8)=9.0 > g(4)+g(4)"),
        )
        assert report.checked_pairs == 25

    @pytest.mark.parametrize("max_batch,value", [
        (2, 0.9), (3, 0.8928571428571429), (8, 0.6666666666666666)])
    def test_curvature_search(self, max_batch, value):
        assert curvature_info(self.CONCAVE, max_batch=max_batch) == CurvatureResult(
            value, exact=False, upper_bound_only=True)

    def test_short_table_has_no_informative_pair(self):
        with pytest.raises(ValueError, match="no informative size pair"):
            curvature_info(CountTable((0.0, 1.0)), max_batch=8)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]),
                       min_size=2, max_size=14),
       max_batch=st.integers(min_value=2, max_value=16))
def test_pair_scans_match_loop_reference(values, max_batch):
    """The vectorised size-pair scans agree exactly with plain loops."""
    table = CountTable((0.0, *values))
    limit = min(max_batch, len(table.values) - 1)
    g = table.values
    pairs = [(a, b) for a in range(1, limit) for b in range(a, limit - a + 1)]

    report = validate_assumption1(table, max_batch=max_batch)
    assert [v.sizes for v in report.violations if v.condition == "subadditive"] == [
        (a, b) for a, b in pairs if g[a + b] > g[a] + g[b] + 1e-12]
    assert report.checked_pairs == 1 + limit + len(pairs)

    ratios = [g[a + b] / (g[a] + g[b]) for a, b in pairs if g[a] + g[b] != 0.0]
    if ratios and any(g[:limit + 1]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            value = curvature_info(table, max_batch=max_batch).value
        assert value == min(max(min(ratios), 0.5), 1.0)

    best = None
    for a, b in pairs:
        if g[a + b] != 0.0 and (best is None or (g[a] + g[b]) / g[a + b] > best[2]):
            best = (a, b, (g[a] + g[b]) / g[a + b])
    if best is not None and limit == max_batch:
        x1, x2, bound = worst_pair_search(table, max_batch)
        assert (len(x1), len(x2), bound) == best


def _reference_validate(f, max_batch, samples, seed):
    """The sampling loop ``validate_assumption1`` ran on set functions."""
    violations = []
    checked = 1
    empty_val = f.value(FeatureMultiset.empty())
    if empty_val != 0.0:
        violations.append(Violation("empty-zero", detail=f"f(empty) = {empty_val!r}"))
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = random_multiset(rng, f.universe_size, max_batch)
        y = random_multiset(rng, f.universe_size, max_batch)
        u = x.union(y)
        fx, fy, fu = f.value(x), f.value(y), f.value(u)
        checked += 2
        if fu > fx + fy + 1e-12 * max(1.0, fx + fy):
            violations.append(Violation("subadditive", sizes=(len(x), len(y)),
                                        detail=f"f({x.counts} u {y.counts}) = {fu!r} > {fx!r} + {fy!r}"))
        if fx > fu + 1e-12 * max(1.0, fu):
            violations.append(Violation("monotone", sizes=(len(x), len(u)),
                                        detail=f"f({x.counts}) = {fx!r} > f(union) = {fu!r}"))
    return ValidationReport(tuple(violations), checked)


def _reference_curvature(f, max_batch, samples, seed):
    """The sampling loop ``curvature_info`` ran on set functions."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(samples):
        x = random_multiset(rng, f.universe_size, max_batch)
        y = random_multiset(rng, f.universe_size, max_batch)
        if len(x) == 0 and len(y) == 0:
            continue
        denom = f.value(x) + f.value(y)
        if denom == 0.0:
            continue
        best = min(best, f.value(x.union(y)) / denom)
    if not math.isfinite(best):
        raise ValueError("curvature undefined: all sampled pairs were degenerate")
    return CurvatureResult(min(max(best, 0.5), 1.0), exact=False, upper_bound_only=True)


def _reference_worst_pair(f, max_size, samples, seed):
    """The sampling loop ``worst_pair_search`` ran on set functions."""
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(samples):
        x = random_multiset(rng, f.universe_size, max_size)
        y = random_multiset(rng, f.universe_size, max_size)
        if len(x) == 0 or len(y) == 0:
            continue
        denom = f.value(x.union(y))
        if denom == 0.0:
            continue
        ratio = (f.value(x) + f.value(y)) / denom
        if best is None or ratio > best[2]:
            best = (x, y, ratio)
    if best is None:
        raise ValueError("no admissible pair found by sampling")
    return best


def _outcome(fn, *args, **kwargs):
    """The return value, or the ValueError's message; warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            return f"ValueError: {exc}"


SET_FUNCTIONS = (
    CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=3, name="sqrt"),
    CustomSetFunction(lambda x: len(x.counts) + 0.25 * math.sqrt(len(x)), universe_size=3,
                      name="distinct+sqrt"),
    CustomSetFunction(lambda x: float(len(x)) ** 2, universe_size=3, name="square"),
    CustomSetFunction(lambda x: 0.0, universe_size=3, name="zero"),
    # f(empty) = 1: only a pair of empty batches reaches the ratio 1/2
    CustomSetFunction(lambda x: 1.0 + len(x), universe_size=3, name="affine"),
)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("max_size", [2, 3, 16])
@pytest.mark.parametrize("f", SET_FUNCTIONS, ids=lambda f: f.name)
def test_set_function_pair_scans_match_loop_reference(f, max_size, seed):
    """The vectorised scans over sampled pairs agree exactly with plain loops."""
    samples = 150
    assert _outcome(validate_assumption1, f, max_batch=max_size, samples=samples, seed=seed) == \
        _reference_validate(f, max_size, samples, seed)
    assert _outcome(curvature_info, f, max_batch=max_size, samples=samples, seed=seed) == \
        _outcome(_reference_curvature, f, max_size, samples, seed)
    assert _outcome(worst_pair_search, f, max_size, samples=samples, seed=seed) == \
        _outcome(_reference_worst_pair, f, max_size, samples, seed)


class TestCurvature:
    def test_sqrt_closed_form(self):
        assert abs(curvature(SqrtCount()) - math.sqrt(0.5)) <= 1e-12

    def test_constant_is_half(self):
        assert curvature(ConstantCost(1)) == 0.5
        assert curvature(ConstantCost(7.5)) == 0.5

    def test_log1p_is_limit_not_finite_min(self):
        # the finite-size ratio never reaches 1/2, so the stored value must
        # be the limit rather than any scan result
        assert curvature(Log1pCount()) == 0.5
        finite = min(
            math.log1p(a + b) / (math.log1p(a) + math.log1p(b))
            for a in range(1, 64) for b in range(1, 64 - a + 1))
        assert finite > 0.5

    def test_capped_linear_is_half(self):
        assert curvature(CappedLinear(3, 10)) == 0.5

    def test_count_table_numeric_search(self):
        table = CountTable(tuple(math.sqrt(k) for k in range(65)))
        info = curvature_info(table, max_batch=64)
        assert info.upper_bound_only
        assert abs(info.value - math.sqrt(0.5)) <= 1e-12

    def test_gamma_hint_short_circuits(self):
        table = CountTable((0.0, 1.0, 1.0), gamma_hint=0.5)
        assert curvature(table) == 0.5

    def test_custom_estimate_is_flagged_upper_bound(self):
        f = CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=3)
        info = curvature_info(f, max_batch=16, samples=500, seed=3)
        assert info.upper_bound_only and not info.exact
        assert math.sqrt(0.5) - 1e-9 <= info.value <= 1.0

    def test_max_batch_too_small(self):
        with pytest.raises(ValueError):
            curvature(SqrtCount(), max_batch=1)

    def test_all_zero_table_undefined(self):
        with pytest.raises(ValueError, match="undefined"):
            curvature(CountTable((0.0, 0.0, 0.0, 0.0)))
        with pytest.raises(ValueError, match="undefined"):
            curvature(ConstantCost(0))

    def test_scaling_invariance(self):
        base = tuple(math.log1p(k) for k in range(40))
        g1 = curvature(CountTable(base), max_batch=39)
        g2 = curvature(CountTable(tuple(17.3 * v for v in base)), max_batch=39)
        assert abs(g1 - g2) <= 1e-12

    def test_clamped_with_warning_on_bad_table(self):
        bad = CountTable((0.0, 1.0, 5.0))  # wildly superadditive
        with pytest.warns(UserWarning, match="outside"):
            value = curvature(bad, max_batch=2)
        assert value == 1.0


@st.composite
def multiset_pairs(draw):
    total = draw(st.integers(min_value=0, max_value=64))
    split = draw(st.integers(min_value=0, max_value=total))
    feats = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=total, max_size=total))
    x = FeatureMultiset.from_features(feats[:split])
    y = FeatureMultiset.from_features(feats[split:])
    return x, y


@settings(max_examples=200, deadline=None)
@given(pair=multiset_pairs(), fidx=st.integers(min_value=0, max_value=len(BUILTIN_COSTS) - 1))
def test_builtin_costs_monotone_and_subadditive(pair, fidx):
    x, y = pair
    f = BUILTIN_COSTS[fidx]
    fx, fy, fu = f.value(x), f.value(y), f.value(x.union(y))
    assert fu <= fx + fy + 1e-12
    assert fx <= fu + 1e-12
    assert fy <= fu + 1e-12


@pytest.mark.parametrize("f", BUILTIN_COSTS, ids=lambda f: f.spec_string())
def test_doubling_ratio_dominates_curvature(f):
    gamma = curvature(f)
    for a in range(1, 33):
        ga, g2a = f.count_value(a), f.count_value(2 * a)
        if ga == 0:
            continue
        assert g2a / (2 * ga) >= gamma - 1e-12


@pytest.mark.parametrize("f", BUILTIN_COSTS, ids=lambda f: f.spec_string())
def test_curvature_in_range(f):
    assert 0.5 - 1e-12 <= curvature(f) <= 1.0 + 1e-12


class TestParseCostSpec:
    @pytest.mark.parametrize("spec,kind", [
        ("sqrt", SqrtCount),
        ("log1p", Log1pCount),
        ("cap:3,10", CappedLinear),
        ("const:1", ConstantCost),
    ])
    def test_round_trip(self, spec, kind):
        f = parse_cost_spec(spec)
        assert isinstance(f, kind)
        assert parse_cost_spec(f.spec_string()) == f

    def test_cap_fields(self):
        f = parse_cost_spec("cap:2.5,7")
        assert f == CappedLinear(2.5, 7.0)

    def test_table_from_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n1\n1.4\n")
        assert parse_cost_spec(f"table:{path}") == CountTable((0.0, 1.0, 1.4))

    def test_table_with_byte_order_mark(self, tmp_path):
        # Spreadsheets' "CSV UTF-8" exports start with one.
        path = tmp_path / "g.txt"
        path.write_bytes(b"\xef\xbb\xbf0\n1\n1.4\n")
        assert parse_cost_spec(f"table:{path}") == CountTable((0.0, 1.0, 1.4))

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown cost spec"):
            parse_cost_spec("cubic")
        with pytest.raises(ValueError, match="cap"):
            parse_cost_spec("cap:3")

    def test_too_many_values_name_the_spec(self):
        with pytest.raises(ValueError) as exc:
            parse_cost_spec("cap:3,10,1")
        assert str(exc.value) == (
            "bad cost spec 'cap:3,10,1': expected 2 value(s) after 'cap:', got 3")

    def test_bad_table_entry_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n\n abc \n2\n")
        with pytest.raises(ValueError) as exc:
            parse_cost_spec(f"table:{path}")
        assert str(exc.value) == f"{path}: line 3: bad cost table entry ' abc '"

    @pytest.mark.parametrize("text,line,entry", [
        ("0\n1\x0c\nabc\n", 3, "abc"),
        ("0\n1\x0c2\nabc\n", 2, "1\x0c2"),
        ("0\r\n1\x1c\r2\n\x85abc", 2, "1\x1c"),
    ], ids=["form-feed-then-bad", "form-feed-inside", "separators"])
    def test_table_lines_end_at_line_breaks_only(self, text, line, entry, tmp_path):
        # Form feeds and other str.splitlines separators end no line.
        path = tmp_path / "bad.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            parse_cost_spec(f"table:{path}")
        assert str(exc.value) == f"{path}: line {line}: bad cost table entry {entry!r}"


class TestArgumentChecks:
    @pytest.mark.parametrize("value,least,message", [
        (-1, 0, "x must be a non-negative integer, got -1"),
        (0, 1, "x must be a positive integer, got 0"),
        (1, 2, "x must be an integer of at least 2, got 1"),
        (2.5, 1, "x must be a positive integer, got 2.5"),
        (True, 0, "x must be a non-negative integer, got True"),
        (3.0, 1, "x must be a positive integer, got 3.0"),
    ])
    def test_check_whole_rejects(self, value, least, message):
        with pytest.raises(ValueError) as exc:
            check_whole("x", value, least)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value,least", [(0, 0), (1, 1), (np.int64(2), 2), (10**30, 2)])
    def test_check_whole_accepts(self, value, least):
        check_whole("x", value, least)

    def test_spec_values_converts_each_value(self):
        assert spec_values("test", "p:1,2.5", "p:", int, float) == [1, 2.5]

    @pytest.mark.parametrize("size", [2.5, True])
    def test_validate_and_curvature_need_a_whole_max_batch(self, size):
        with pytest.raises(ValueError) as exc:
            validate_assumption1(SqrtCount(), max_batch=size)
        assert str(exc.value) == f"max_batch must be a positive integer, got {size!r}"
        with pytest.raises(ValueError) as exc:
            curvature_info(CountTable((0.0, 1.0, 1.5, 2.0)), max_batch=size)
        assert str(exc.value) == f"max_batch must be an integer of at least 2, got {size!r}"

    @pytest.mark.parametrize("universe_size", [1.5, 0])
    def test_universe_size_must_be_a_positive_integer(self, universe_size):
        with pytest.raises(ValueError) as exc:
            CustomSetFunction(lambda x: 1.0, universe_size)
        assert str(exc.value) == (f"universe_size must be a positive integer, "
                                  f"got {universe_size!r}")

    def test_of_size_needs_a_non_negative_integer(self):
        with pytest.raises(ValueError) as exc:
            FeatureMultiset.of_size(1.5)
        assert str(exc.value) == "size must be a non-negative integer, got 1.5"
