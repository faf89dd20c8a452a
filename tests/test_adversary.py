import hashlib
import itertools
import math
from bisect import bisect_left

import pytest

import dynbatch.adversary as adversary
from dynbatch import (
    AdversaryConfig,
    CappedLinear,
    ConstantCost,
    CountTable,
    CustomSetFunction,
    FeatureMultiset,
    FixedDelay,
    FixedSize,
    ProblemInstance,
    SqrtCount,
    Wta,
    cost_of,
    parse_cost_spec,
    parse_policy_spec,
    run_adversary,
    run_policy,
    worst_pair_search,
)

from conftest import nan_price
from oracles import finite_rounds_bound, reference_close

ONE = FeatureMultiset.of_size(1)


def config(rounds, x1=ONE, x2=ONE, epsilon=1e-6):
    return AdversaryConfig(x1=x1, x2=x2, rounds=rounds, epsilon=epsilon)


class TestRunAdversary:
    def test_constant_cost_ratio_approaches_two(self):
        rep = run_adversary(Wta(0.5), ConstantCost(1), config(200))
        assert rep.limit_bound == 2.0
        assert rep.ratio_vs_avg >= finite_rounds_bound(1, 1, 1, 200) - 1e-3
        assert rep.split_waves == 0

    def test_single_round_upper_bound_dominates_exact(self):
        for f in (ConstantCost(1), SqrtCount()):
            rep = run_adversary(Wta(0.5), f, config(1))
            assert rep.opt_exact <= rep.opt_upper + 1e-12
            assert rep.ratio_vs_exact >= rep.ratio_vs_avg - 1e-12

    def test_sqrt_singletons_limit(self):
        rep = run_adversary(Wta(0.5), SqrtCount(), config(10))
        assert math.isclose(rep.limit_bound, math.sqrt(2), rel_tol=1e-12)

    def test_realized_instance_is_valid_and_replays(self):
        rep = run_adversary(Wta(0.5), ConstantCost(1), config(25))
        inst = rep.instance
        assert inst.n == 50
        assert all(a <= b for a, b in zip(inst.times, inst.times[1:]))
        sched, cost = run_policy(inst, ConstantCost(1), Wta(0.5))
        assert sched == rep.schedule
        assert cost == rep.alg_cost

    def test_ratio_vs_exact_nondecreasing_in_rounds(self):
        ratios = [run_adversary(Wta(0.5), ConstantCost(1), config(s)).ratio_vs_exact
                  for s in (10, 50, 200)]
        assert ratios[0] <= ratios[1] + 1e-3
        assert ratios[1] <= ratios[2] + 1e-3

    @pytest.mark.parametrize("policy", [Wta(0.5), Wta(1.0), FixedDelay(0.25)],
                             ids=lambda p: p.spec_string())
    @pytest.mark.parametrize("f", [ConstantCost(1), SqrtCount(), CappedLinear(3, 10)],
                             ids=lambda f: f.spec_string())
    def test_finite_rounds_inequality(self, policy, f):
        """The realized ratio is never below the finite-round bound, after
        adding back the release-gap slack the instance construction spends.

        The per-sample slack is rounds * epsilon * (|x1| + |x2|) / n spread
        over the algorithm's waiting cost; dividing by the benchmark average
        converts it to ratio units."""
        cfg = config(40, x1=FeatureMultiset.of_size(2), x2=ONE, epsilon=1e-7)
        rep = run_adversary(policy, f, cfg)
        if rep.split_waves:
            pytest.skip("benchmark accounting assumes whole-release flushes")
        f1, f2 = f.value(cfg.x1), f.value(cfg.x2)
        f12 = f.value(cfg.x1.union(cfg.x2))
        bound = finite_rounds_bound(f1, f2, f12, cfg.rounds)
        slack = cfg.rounds * cfg.epsilon * (len(cfg.x1) + len(cfg.x2)) / rep.instance.n
        assert (rep.alg_cost.total + slack) / rep.opt_upper >= bound - 1e-9

    def test_benchmark_schedules_are_achievable(self):
        # the two benchmark costs must each be realizable by an actual valid
        # schedule on the realized instance, up to the trailing-batch slack
        # the odd benchmark is granted
        cfg = config(12)
        f = ConstantCost(1)
        rep = run_adversary(Wta(0.5), f, cfg)
        inst = rep.instance
        # even benchmark: merge release pairs (2k-1, 2k), processed at the
        # even release's arrival instant
        from dynbatch import Schedule
        ends = []
        for k in range(cfg.rounds):
            lo = 2 * k * len(cfg.x1) + 1
            ends.append(lo + len(cfg.x1) + len(cfg.x2) - 1)
        even = cost_of(inst, Schedule(tuple(ends), tuple(inst.times[hi - 1] for hi in ends)), f)
        assert math.isclose(even.total * inst.n, rep.even_cost, rel_tol=1e-9)
        assert rep.opt_exact <= rep.opt_upper + 1e-12

    def test_timeout_detection(self, monkeypatch):
        monkeypatch.setattr(adversary, "_TIMEOUT", 1e-3)
        cfg = AdversaryConfig(x1=ONE, x2=ONE, rounds=2, epsilon=1e-6)
        with pytest.raises(ValueError, match="non-terminating"):
            run_adversary(FixedDelay(1.0), ConstantCost(1), cfg)

    def test_a_nan_price_names_the_batch_the_policy_cannot_flush(self):
        f = CustomSetFunction(lambda x: math.nan, universe_size=1)
        with pytest.raises(ValueError) as exc:
            run_adversary(Wta(0.5), f, config(5))
        assert str(exc.value) == nan_price(1, 1)

    def test_auto_epsilon_scales_with_first_flush(self):
        rep = run_adversary(Wta(0.5), ConstantCost(1), AdversaryConfig(ONE, ONE, rounds=4))
        # the first lone sample flushes after alpha * f = 0.5 seconds
        assert math.isclose(rep.epsilon, 0.5e-6, rel_tol=1e-12)
        rep2 = run_adversary(Wta(0.5), ConstantCost(4), AdversaryConfig(ONE, ONE, rounds=4))
        assert math.isclose(rep2.epsilon, 2e-6, rel_tol=1e-12)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdversaryConfig(x1=FeatureMultiset.empty(), x2=ONE, rounds=3)
        with pytest.raises(ValueError):
            AdversaryConfig(x1=ONE, x2=ONE, rounds=0)
        with pytest.raises(ValueError):
            AdversaryConfig(x1=ONE, x2=ONE, rounds=3, epsilon=0.0)

    @pytest.mark.parametrize("rounds", [2.5, True])
    def test_rounds_must_be_a_positive_integer(self, rounds):
        with pytest.raises(ValueError) as exc:
            AdversaryConfig(x1=ONE, x2=ONE, rounds=rounds)
        assert str(exc.value) == f"rounds must be a positive integer, got {rounds!r}"

    def test_reports_are_pinned(self):
        # Every field of 135 reports, byte for byte: policies that wait and
        # ones that flush at a release, three costs, three group pairs and
        # three gaps (auto among them).
        digest = hashlib.sha256()
        for policy, cost, (a, b), epsilon in itertools.product(
                ("wta:0.5", "wta:3", "fixed-size:3", "fixed-delay:0.3", "fixed-delay:0"),
                ("const:1", "sqrt", "log1p"), ((1, 1), (2, 3), (4, 1)), (1e-6, None, 0.7)):
            cfg = AdversaryConfig(FeatureMultiset.of_size(a), FeatureMultiset.of_size(b),
                                  rounds=20, epsilon=epsilon)
            rep = run_adversary(parse_policy_spec(policy), parse_cost_spec(cost), cfg)
            digest.update(repr(rep).encode())
        assert digest.hexdigest() == (
            "5ef2b800d14390878c857b9bdcfd99ba5d5b889bf43d02b1b43f0f749f27e833")


def _prefix_replay_waves(policy, f, cfg, epsilon):
    """Reference for ``adversary._realize_waves``: re-run the policy on the
    whole growing prefix after every release.  The batches are those of
    the last run, on the whole instance."""
    times, feats, flush_times = [], [], []
    t_prev = 0.0
    for wave in range(2 * cfg.rounds):
        group = cfg.x1 if wave % 2 == 0 else cfg.x2
        release = t_prev + epsilon
        for fid, mult in group.counts:
            times.extend([release] * mult)
            feats.extend([fid] * mult)
        sched, _ = run_policy(ProblemInstance(tuple(times), tuple(feats)), f, policy)
        t_j = sched.stamps[bisect_left(sched.ends, len(times))]
        if t_j - release > adversary._TIMEOUT:
            raise ValueError("non-terminating policy: flush exceeded the timeout horizon")
        flush_times.append(t_j)
        t_prev = t_j
    return times, feats, flush_times, list(sched.ends), list(sched.stamps)


#: Feature-dependent: one per distinct feature plus sqrt of the size, so
#: ``Wta`` prices its pending batch as a multiset.
DISTINCT_SQRT = CustomSetFunction(lambda x: len(x.counts) + math.sqrt(len(x)), universe_size=2,
                                  name="distinct+sqrt")


def _count_closes(monkeypatch, policy_class):
    """The sizes of the batches that ``policy_class.close`` returns from now on."""
    closed = []
    close = policy_class.close

    def counting_close(self, times, features, f, lo):
        hi, t = close(self, times, features, f, lo)
        closed.append(hi - lo)
        return hi, t

    monkeypatch.setattr(policy_class, "close", counting_close)
    return closed


@pytest.mark.parametrize("policy", [FixedSize(1), FixedSize(3), FixedSize(5), FixedDelay(0.0),
                                    FixedDelay(0.3)], ids=lambda p: p.spec_string())
@pytest.mark.parametrize("f", [ConstantCost(1), SqrtCount(), DISTINCT_SQRT],
                         ids=lambda f: f.spec_string())
def test_fixed_rules_close_every_prefix_as_their_oracle_rules(policy, f, monkeypatch):
    # Each close of the construction, the first group's probe for epsilon
    # among them, sees a prefix of the instance; the rule derived from
    # close_all closes it as the oracle rule does.
    close, prefixes = type(policy).close, []

    def checked_close(self, times, features, f, lo):
        got = close(self, times, features, f, lo)
        assert repr(got) == repr(reference_close(self, times, features, f, lo))
        prefixes.append(len(times))
        return got

    monkeypatch.setattr(type(policy), "close", checked_close)
    x1, x2 = ((FeatureMultiset.of_size(2), FeatureMultiset.of_size(3)) if f.count_based
              else (FeatureMultiset(((0, 1),)), FeatureMultiset(((1, 2),))))
    for epsilon in (None, 0.7):
        run_adversary(policy, f, AdversaryConfig(x1, x2, rounds=12, epsilon=epsilon))
    assert len(set(prefixes)) > 12


class TestOpenBatchReplay:
    @pytest.mark.parametrize("policy", [Wta(0.5), Wta(3.0), FixedSize(3), FixedDelay(0.3),
                                        FixedDelay(0.0)], ids=lambda p: p.spec_string())
    @pytest.mark.parametrize("f", [ConstantCost(1), SqrtCount(), DISTINCT_SQRT],
                             ids=lambda f: f.spec_string())
    def test_matches_whole_prefix_replay(self, policy, f, monkeypatch):
        # epsilon 1e-30 rounds to zero against the first flush time of a
        # policy that waits, which is an input error; fixed-size:3 and
        # fixed-delay:0 flush at release instants, where it never rounds.
        waits = policy.spec_string() not in ("fixed-size:3", "fixed-delay:0")
        if f.count_based:
            groups = [(FeatureMultiset.of_size(1), FeatureMultiset.of_size(1)),
                      (FeatureMultiset.of_size(2), FeatureMultiset.of_size(3))]
        else:
            groups = [(FeatureMultiset(((0, 1),)), FeatureMultiset(((1, 1),)))]
        for x1, x2 in groups:
            for epsilon in (1e-6, None, 1e-30, 0.7):
                cfg = AdversaryConfig(x1, x2, rounds=20, epsilon=epsilon)
                if epsilon == 1e-30 and waits:
                    with pytest.raises(ValueError,
                                       match=r"^epsilon 1e-30 rounds to zero after the flush at t=\S+$"):
                        run_adversary(policy, f, cfg)
                    continue
                rep = run_adversary(policy, f, cfg)
                with monkeypatch.context() as m:
                    m.setattr(adversary, "_realize_waves", _prefix_replay_waves)
                    expected = run_adversary(policy, f, cfg)
                assert rep == expected, (x1, x2, epsilon)
                # split_waves by its definition: a batch ends inside a release
                lasts = list(itertools.accumulate((len(x1), len(x2)) * cfg.rounds))
                firsts = [1] + [last + 1 for last in lasts[:-1]]
                assert rep.split_waves == sum(
                    any(lo <= hi < last for hi in rep.schedule.ends)
                    for lo, last in zip(firsts, lasts))

    def test_replay_work_is_linear_in_rounds(self, monkeypatch):
        # Samples closed over, not wall time: the count is exact on any
        # host.  Every wta batch here is processed after its last arrival,
        # so it is final when closed: each sample is closed over once.
        closed = _count_closes(monkeypatch, Wta)
        rep = run_adversary(Wta(0.5), ConstantCost(1), config(400))
        assert sum(closed) == rep.instance.n

    def test_batches_processed_at_their_last_arrival_are_closed_again(self, monkeypatch):
        # A fixed-size:3 batch is processed at its last arrival, so each
        # release closes the open batch again, and one more sample: a full
        # batch's samples are closed over 1 + 2 + 3 times while it fills
        # and 3 more times at the release after it.
        closed = _count_closes(monkeypatch, FixedSize)
        rep = run_adversary(FixedSize(3), ConstantCost(1), config(300))
        batches = len(rep.schedule.ends)
        assert rep.instance.n == 3 * batches
        assert sum(closed) == 6 * batches + 3 * (batches - 1)


class TestWorstPairSearch:
    def test_constant_any_pair_bound_two(self):
        x1, x2, bound = worst_pair_search(ConstantCost(1), 8)
        assert bound == 2.0

    def test_sqrt_equal_sizes(self):
        x1, x2, bound = worst_pair_search(SqrtCount(), 64)
        assert len(x1) == len(x2)
        assert math.isclose(bound, math.sqrt(2), rel_tol=1e-12)

    def test_capped_linear_saturating_pair(self):
        x1, x2, bound = worst_pair_search(CappedLinear(3, 10), 16)
        assert bound == 2.0
        assert len(x1) == len(x2) == 4

    def test_custom_set_function_sampled(self):
        f = CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=3)
        _, _, bound = worst_pair_search(f, 16, samples=500, seed=7)
        assert 1.0 <= bound <= math.sqrt(2) + 1e-9

    @pytest.mark.parametrize("max_size,sizes,bound", [
        (2, (1, 1), 1.1111111111111112),
        (3, (1, 2), 1.1199999999999999),
        (8, (4, 4), 1.5),
    ])
    def test_table_scan_pinned(self, max_size, sizes, bound):
        table = CountTable((0.0, 1.0, 1.8, 2.5, 3.0, 3.4, 3.7, 3.9, 4.0))
        assert worst_pair_search(table, max_size) == (
            FeatureMultiset.of_size(sizes[0]), FeatureMultiset.of_size(sizes[1]), bound)

    def test_ties_keep_the_first_pair(self):
        one = FeatureMultiset.of_size(1)
        assert worst_pair_search(ConstantCost(1), 8) == (one, one, 2.0)
        four = FeatureMultiset.of_size(4)
        assert worst_pair_search(CappedLinear(3, 10), 16) == (four, four, 2.0)

    def test_table_too_short_for_cap(self):
        # The scan clamps to the sizes the table covers, like the other two.
        table = CountTable((0.0, 1.0, 1.5))
        assert worst_pair_search(table, 3) == worst_pair_search(table, 2)

    @pytest.mark.parametrize("values", [(0.0, 1.0), (0.0,)])
    def test_table_covering_no_pair_names_its_sizes(self, values):
        with pytest.raises(ValueError, match=rf"covers only sizes 0\.\.{len(values) - 1}$"):
            worst_pair_search(CountTable(values), 2)

    def test_size_cap_validated(self):
        with pytest.raises(ValueError):
            worst_pair_search(SqrtCount(), 1)

    @pytest.mark.parametrize("max_size", [1, 2.5])
    def test_size_cap_must_be_an_integer_of_at_least_2(self, max_size):
        with pytest.raises(ValueError) as exc:
            worst_pair_search(SqrtCount(), max_size)
        assert str(exc.value) == f"max_size must be an integer of at least 2, got {max_size!r}"
