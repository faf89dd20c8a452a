import concurrent.futures
import hashlib
import math
import os
import pickle
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from dynbatch import (
    ConstantCost,
    ConstantRate,
    CountTable,
    CustomSetFunction,
    FixedDelay,
    SinusoidRate,
    SqrtCount,
    TableRate,
    TrialRecord,
    Wta,
    gen_poisson,
    gen_poisson_horizon,
    optimal_schedule,
    parse_policy_spec,
    parse_rate_spec,
    run_policy,
    run_study,
    summarize,
    write_results,
)
from dynbatch import sim
from dynbatch.io_csv import RESULTS_HEADER
from dynbatch.offline import lockstep_ends
from dynbatch.online import FixedSize

from conftest import OVERFLOW, assert_times_array, nan_price


class _RateWithoutValue(sim.RateFunction):
    """A user's rate that forgot ``value``."""

    def max_rate(self):
        return 2.0


class TestRateFunctions:
    def test_constant(self):
        r = ConstantRate(2.0)
        assert r.value(17.3) == 2.0
        assert r.max_rate() == 2.0
        with pytest.raises(ValueError):
            ConstantRate(0.0)

    def test_sinusoid(self):
        r = SinusoidRate(2.0, 1.0, 3.0)
        assert math.isclose(r.value(0.75), 2.0 + math.sin(math.pi / 2))
        assert r.max_rate() == 3.0
        assert r.value(100.0) >= 0.0
        with pytest.raises(ValueError, match="base"):
            SinusoidRate(1.0, 2.0, 3.0)

    @pytest.mark.parametrize("base,amplitude", [
        (math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (math.inf, math.inf),
        (math.inf, -math.inf),
    ])
    def test_sinusoid_rejects_a_non_finite_base_or_amplitude(self, base, amplitude):
        # thinning would never accept a proposal under such a rate
        with pytest.raises(ValueError) as exc:
            SinusoidRate(base, amplitude, 1.0)
        assert str(exc.value) == "base and amplitude must be finite"

    def test_table(self):
        r = TableRate((0.0, 1.0, 2.0), (5.0, 0.0, 1.0))
        assert r.value(0.5) == 5.0
        assert r.value(1.5) == 0.0
        assert r.value(99.0) == 1.0
        assert r.max_rate() == 5.0

    @pytest.mark.parametrize("breaks", [(0.0, math.nan), (0.0, 1.0, math.nan)])
    def test_table_rejects_a_nan_break(self, breaks):
        with pytest.raises(ValueError) as exc:
            TableRate(breaks, (1.0,) * len(breaks))
        assert str(exc.value) == "breaks must start at 0 and strictly increase"

    def test_parse_rate_spec(self):
        assert parse_rate_spec("2") == ConstantRate(2.0)
        assert parse_rate_spec("sin:2,1,3") == SinusoidRate(2.0, 1.0, 3.0)
        with pytest.raises(ValueError, match="unknown rate spec"):
            parse_rate_spec("ramp:1")
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            parse_rate_spec("0")

    def test_too_few_sin_values_name_the_spec(self):
        with pytest.raises(ValueError) as exc:
            parse_rate_spec("sin:2,1")
        assert str(exc.value) == "bad rate spec 'sin:2,1': expected 3 value(s) after 'sin:', got 2"


class TestGenPoisson:
    def test_exact_count_sorted_positive(self):
        inst = gen_poisson(ConstantRate(2.0), 4, seed=9)
        assert inst.n == 4
        assert all(a <= b for a, b in zip(inst.times, inst.times[1:]))
        assert inst.times[0] > 0.0

    @pytest.mark.parametrize("rate", [ConstantRate(2.0), SinusoidRate(2, 1, 3)])
    def test_times_array_is_its_own(self, rate):
        sample = lambda rng, t: int(rng.integers(3))
        for inst in (gen_poisson(rate, 40, seed=3),
                     gen_poisson(rate, 40, seed=3, feature_sampler=sample),
                     gen_poisson_horizon(rate, 20.0, seed=3)):
            assert_times_array(inst)
            assert [type(t) for t in inst.times.tolist()] == [float] * inst.n

    def test_single_arrival(self):
        inst = gen_poisson(ConstantRate(5.0), 1, seed=0)
        assert inst.n == 1 and inst.times[0] > 0.0

    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_n_must_be_a_positive_integer(self, n):
        with pytest.raises(ValueError) as exc:
            gen_poisson(ConstantRate(2.0), n, seed=0)
        assert str(exc.value) == f"n must be a positive integer, got {n!r}"

    def test_deterministic_per_seed(self):
        a = gen_poisson(SinusoidRate(2, 1, 3), 50, seed=4)
        b = gen_poisson(SinusoidRate(2, 1, 3), 50, seed=4)
        c = gen_poisson(SinusoidRate(2, 1, 3), 50, seed=5)
        assert a == b
        assert a != c

    def test_constant_rate_mean_gap(self):
        # mean exponential gap at rate 2 is 0.5
        n = 1_000_000
        inst_times = np.diff(np.concatenate(
            ([0.0], gen_poisson(ConstantRate(2.0), n, seed=123).times)))
        assert abs(inst_times.mean() - 0.5) <= 0.01

    def test_sinusoid_empirical_rate(self):
        # the sinusoid averages out over whole periods, leaving the base rate
        n = 20000
        inst = gen_poisson(SinusoidRate(2.0, 1.0, 3.0), n, seed=7)
        horizon = 3.0 * math.floor(inst.times[-1] / 3.0)
        count = int(np.searchsorted(inst.times, horizon, side="right"))
        rate = count / horizon
        assert abs(rate - 2.0) / 2.0 <= 0.02

    def test_gaps_pass_ks_against_exponential(self):
        n = 100_000
        times = gen_poisson(ConstantRate(2.0), n, seed=99).times
        gaps = np.diff(np.concatenate(([0.0], times)))
        stat = stats.kstest(gaps, "expon", args=(0, 0.5)).statistic
        critical_1pct = 1.6276 / math.sqrt(n)
        assert stat < critical_1pct

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError, match="identically zero"):
            gen_poisson(TableRate((0.0,), (0.0,)), 3, seed=0)

    def test_feature_sampler(self):
        inst = gen_poisson(ConstantRate(2.0), 30, seed=5,
                           feature_sampler=lambda rng, t: int(rng.integers(0, 3)))
        assert set(inst.features) <= {0, 1, 2}
        assert len(set(inst.features)) > 1

    def test_default_single_feature(self):
        inst = gen_poisson(ConstantRate(2.0), 10, seed=5)
        assert set(inst.features) == {0}
        # A constant sampler draws nothing, so the times stay those of the seed.
        threes = gen_poisson(ConstantRate(2.0), 10, seed=5, feature_sampler=lambda rng, t: 3)
        assert set(threes.features) == {3} and threes.times.tolist() == inst.times.tolist()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            gen_poisson(ConstantRate(1.0), 0, seed=0)


class TestGenPoissonHorizon:
    def test_within_window_and_deterministic(self):
        a = gen_poisson_horizon(ConstantRate(2.0), 50.0, seed=3)
        b = gen_poisson_horizon(ConstantRate(2.0), 50.0, seed=3)
        assert a == b
        assert a.times[-1] < 50.0
        assert 50 <= a.n <= 160  # Poisson(100) stays well inside this

    def test_mean_count_matches_rate(self):
        counts = [gen_poisson_horizon(ConstantRate(2.0), 20.0, seed=s).n
                  for s in range(300)]
        assert abs(np.mean(counts) - 40.0) <= 2.0

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="no arrivals"):
            gen_poisson_horizon(ConstantRate(1e-9), 1e-9, seed=1)


class TestRunStudy:
    def test_record_shape_and_ratio(self):
        records = run_study(
            n_values=[10], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
            cost_fn=SqrtCount(), trials=50, seed=3)
        assert len(records) == 50
        for r in records:
            assert r.ratio >= 1.0 - 1e-9
            assert math.isclose(r.J, r.W + r.F, rel_tol=1e-9)
            assert r.policy == "wta:0.5" and r.alpha == 0.5 and r.n == 10

    def test_grid_and_policy_cross_product(self):
        records = run_study(
            n_values=[5, 10], rates=[ConstantRate(1.0), ConstantRate(4.0)],
            policies=[Wta(0.5), FixedSize(2)], cost_fn=SqrtCount(), trials=3, seed=0)
        assert len(records) == 2 * 2 * 3 * 2
        groups = {r.trial.split(".")[0] for r in records}
        assert groups == {"g0", "g1", "g2", "g3"}

    def test_reproducible_across_parallelism(self):
        kwargs = dict(n_values=[8], rates=[ConstantRate(2.0)],
                      policies=[Wta(0.5)], cost_fn=SqrtCount(), trials=30, seed=11)
        serial = run_study(parallelism=1, **kwargs)
        parallel = run_study(parallelism=2, **kwargs)
        assert serial == parallel

    def test_serial_study_never_imports_the_worker_pool(self):
        """In a fresh interpreter, importing the package and the CLI and
        running a serial study leave ``concurrent.futures`` unloaded."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = ("import sys, dynbatch, dynbatch.cli\n"
                "from dynbatch import ConstantRate, SqrtCount, Wta, run_study\n"
                "run_study(n_values=[5, 6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],\n"
                "          cost_fn=SqrtCount(), trials=3, seed=0)\n"
                "print('concurrent.futures' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr, run.stdout) == (0, "", "False\n")

    def test_workers_are_capped_at_the_chunk_count(self, monkeypatch):
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        # 260 rows make two chunks: rows 0-249, across both grid points, and 250-259
        kwargs = dict(n_values=[5, 8], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=130, seed=0)
        records = run_study(parallelism=64, **kwargs)
        assert asked == [2]
        assert records == run_study(parallelism=1, **kwargs)

    def test_progress_reports_every_chunk_in_parallel(self, capsys):
        # 260 rows make two chunks
        run_study(n_values=[5, 8], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                  cost_fn=SqrtCount(), trials=130, seed=0, parallelism=2, progress=True)
        err = capsys.readouterr().err
        assert err.splitlines() == ["chunk 1/2 done", "chunk 2/2 done"]

    def test_seed_field_regenerates_instance(self):
        records = run_study(
            n_values=[6], rates=[ConstantRate(2.0)], policies=[Wta(1.0)],
            cost_fn=SqrtCount(), trials=4, seed=21)
        from dynbatch import run_policy
        for r in records:
            inst = gen_poisson(ConstantRate(2.0), r.n, r.seed)
            _, c = run_policy(inst, SqrtCount(), Wta(1.0))
            assert math.isclose(c.total, r.J, rel_tol=1e-12)

    def test_failed_trials_recorded_not_fatal(self, capsys):
        # a two-entry cost table cannot price batches of 2+ samples, so
        # every trial fails and is recorded as NaN
        records = run_study(
            n_values=[6], rates=[ConstantRate(50.0)], policies=[Wta(0.5)],
            cost_fn=CountTable((0.0, 1.0)), trials=3, seed=2)
        assert len(records) == 3
        assert all(math.isnan(r.ratio) for r in records)
        assert "too short" in capsys.readouterr().err

    def test_programming_error_is_fatal(self):
        # only numeric and runtime failures become NaN records; a TypeError
        # from the cost callable is a bug and must propagate
        def broken(x):
            raise TypeError("bad cost callable")

        with pytest.raises(TypeError, match="bad cost callable"):
            run_study(
                n_values=[4], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                cost_fn=CustomSetFunction(broken, universe_size=1), trials=2, seed=0)

    @pytest.mark.parametrize("rate,f,error", [
        (_RateWithoutValue(), SqrtCount(), NotImplementedError),
        (ConstantRate(2.0), CustomSetFunction(lambda x: len(x) / 0, universe_size=1),
         ZeroDivisionError),
    ], ids=["rate-without-value", "cost-dividing-by-zero"])
    def test_a_bug_in_a_users_rate_or_cost_is_fatal(self, rate, f, error):
        # Only a ValueError, bad input, makes NaN records; these are bugs.
        with pytest.raises(error):
            run_study(n_values=[4], rates=[rate], policies=[Wta(0.5)], cost_fn=f, trials=2,
                      seed=0)

    def test_an_exhausted_thinning_budget_fails_the_trial(self, monkeypatch, capsys):
        # The rate is 1 on [0, 1e-9) and 0 after it, so thinning accepts
        # almost no proposal, and a budget of 50 proposals runs out.
        rate = TableRate((0.0, 1e-9), (1.0, 0.0))
        message = "thinning budget exhausted; rate is (nearly) zero almost everywhere"
        with pytest.raises(ValueError) as err:
            list(sim._thinned_arrivals(rate, np.random.default_rng(0), budget=50))
        assert str(err.value) == message
        thinned = sim._thinned_arrivals
        monkeypatch.setattr(sim, "_thinned_arrivals",
                            lambda rate, rng, horizon=math.inf, budget=math.inf:
                            thinned(rate, rng, horizon, min(budget, 50)))
        records = run_study(n_values=[5], rates=[rate], policies=[Wta(0.5), FixedDelay(1.0)],
                            cost_fn=SqrtCount(), trials=2, seed=0)
        assert [(r.trial, r.n) for r in records] == [("g0.t0", 5)] * 2 + [("g0.t1", 5)] * 2
        assert all(math.isnan(x) for r in records for x in (r.J, r.W, r.F, r.J_opt, r.ratio))
        assert capsys.readouterr().err.splitlines() == [f"trial g0.t{k}: {message}"
                                                        for k in range(2)]

    @pytest.mark.parametrize("mode", [dict(n_values=[3]), dict(horizon=3.0)])
    def test_an_overflowing_cost_fails_its_run(self, mode, capsys):
        # Under const:1e308 fixed-size:1 prices one batch per sample, and
        # the sum of those prices overflows; the optimum and wta take fewer.
        records = run_study(rates=[ConstantRate(2.0)], policies=[FixedSize(1), Wta(0.5)],
                            cost_fn=ConstantCost(1e308), trials=2, seed=0, **mode)
        assert [math.isnan(r.ratio) for r in records] == [True, False] * 2
        assert all(r.ratio == 1.5 for r in records[1::2])
        assert capsys.readouterr().err.splitlines() == [
            f"trial g0.t{k} policy fixed-size:1: {OVERFLOW}" for k in range(2)]

    def test_a_nan_set_function_price_fails_each_wta_run(self, capsys):
        # Every batch costs NaN: the optimum warns of it, and each trial's
        # waiting policy fails on its first batch, with one NaN record and
        # one stderr line.
        f = CustomSetFunction(lambda x: math.nan, universe_size=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            records = run_study(n_values=[5], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                                cost_fn=f, trials=3, seed=0)
        assert [r.trial for r in records] == ["g0.t0", "g0.t1", "g0.t2"]
        assert all(math.isnan(r.J) and math.isnan(r.ratio) for r in records)
        assert capsys.readouterr().err.splitlines() == [
            f"trial g0.t{k} policy wta:0.5: {nan_price(1, 1)}" for k in range(3)]

    def test_horizon_mode(self):
        records = run_study(
            rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
            cost_fn=SqrtCount(), trials=6, seed=3, horizon=15.0)
        assert len(records) == 6
        assert all(r.n >= 1 for r in records)
        assert len({r.n for r in records}) > 1  # counts vary with the window

    @pytest.mark.parametrize("f", [ConstantCost(0.0),
                                   CountTable(tuple(math.sqrt(k) for k in range(4)))])
    def test_failed_horizon_trial_records_its_instance_size(self, f, capsys):
        # The optimum costs 0 or cannot be priced, after the instance is
        # drawn: every record carries that instance's sample count.
        records = run_study(rates=[ConstantRate(4.0)], policies=[Wta(0.5), FixedDelay(0.5)],
                            cost_fn=f, trials=4, seed=3, horizon=10.0)
        assert len(records) == 8 and all(math.isnan(r.ratio) for r in records)
        sizes = [gen_poisson_horizon(ConstantRate(4.0), 10.0, r.seed).n for r in records]
        assert [r.n for r in records] == sizes and min(sizes) > 4
        assert capsys.readouterr().err.count("trial g0.t") == 4

    def test_undrawn_horizon_trial_records_size_0(self, capsys):
        records = run_study(rates=[ConstantRate(1e-3)], policies=[Wta(0.5)],
                            cost_fn=SqrtCount(), trials=3, seed=0, horizon=1e-3)
        assert [r.n for r in records] == [0, 0, 0]
        assert capsys.readouterr().err.count("no arrivals in horizon") == 3

    def test_rejects_both_modes(self):
        with pytest.raises(ValueError, match="exactly one"):
            run_study(n_values=[5], horizon=1.0, rates=[ConstantRate(1.0)],
                      policies=[Wta(0.5)], cost_fn=SqrtCount(), trials=1, seed=0)

    def test_rejects_empty_config(self):
        with pytest.raises(ValueError):
            run_study(n_values=[], rates=[ConstantRate(1.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=1, seed=0)


def _trial_seed(master_seed, grid_index, trial_index):
    """A trial's seed as numpy's own SeedSequence derives it."""
    ss = np.random.SeedSequence((master_seed, grid_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class TestSeedsAndStreams:
    """A chunk's seeds and PCG64 states, derived in one pass each, equal
    SeedSequence's and default_rng's, trial by trial."""

    # Masters of one, two and three entropy words, and their edges.
    MASTERS = [0, 1, 5, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64,
               2**64 + 5, 2**70, 2**96 + 3, 3**60]

    def _chunks(self):
        """(master, grid index, trial) columns of chunks of 125 rows, inside
        one grid point and across two or four."""
        rng = np.random.default_rng(16)
        masters = self.MASTERS + [int(x) for x in rng.integers(0, 2**62, 6)]
        for master in masters:
            for trials, lo in [(300, 0), (300, 250), (300, 900), (300, 3550), (100, 150),
                               (40, 20)]:
                rows = np.arange(lo, lo + 125)
                yield master, rows // trials, rows % trials

    def test_chunk_seeds_match_seed_sequence(self):
        count = crossing = 0
        for master, gi, trials in self._chunks():
            got = sim._chunk_seeds(master, gi, trials)
            assert got.dtype == np.uint64
            want = [_trial_seed(master, g, t) for g, t in zip(gi.tolist(), trials.tolist())]
            assert got.tolist() == want, master
            count += len(trials)
            crossing += len(set(gi.tolist())) > 1
        assert count >= 10**4 and crossing >= 40

    def test_streams_match_default_rng(self):
        seeds = [s for master, gi, trials in self._chunks()
                 for s in sim._chunk_seeds(master, gi, trials).tolist()]
        # No derived seed is below 2^32: these are the one-word entropy tests.
        seeds += [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]
        got = sim._streams(np.array(seeds, dtype=np.uint64))
        assert got == [np.random.default_rng(s).bit_generator.state for s in seeds]

    def test_set_state_draws_the_seeds_stream(self):
        seeds = [0, 2**32 - 1, 2**64 - 1, _trial_seed(7, 1, 300)]
        rng = np.random.default_rng()
        for seed, state in zip(seeds, sim._streams(np.array(seeds, dtype=np.uint64))):
            rng.bit_generator.state = state
            want = np.random.default_rng(seed).exponential(0.5, size=40)
            assert rng.exponential(0.5, size=40).tolist() == want.tolist()

    def test_large_masters_run_the_study(self):
        for master in (2**64 + 5, 2**70):
            records = run_study(n_values=[6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                                cost_fn=SqrtCount(), trials=3, seed=master)
            assert [r.seed for r in records] == [_trial_seed(master, 0, t) for t in range(3)]

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None, np.float64(4.0)])
    def test_bad_master_seed_fails_before_any_chunk(self, seed, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a chunk or a worker pool started")

        monkeypatch.setattr(sim, "_run_chunk", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        with pytest.raises(ValueError) as exc:
            run_study(n_values=[5, 6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=3, seed=seed, parallelism=2)
        assert str(exc.value) == f"seed must be a non-negative integer, got {seed!r}"

    @pytest.mark.parametrize("n_values,trials,name,bad", [
        ([0], 3, "n", 0),
        ([5, -3], 3, "n", -3),
        ([2.5], 3, "n", 2.5),
        ([True], 3, "n", True),
        ([5], 0, "trials", 0),
        ([5], 2.5, "trials", 2.5),
        ([5], True, "trials", True),
        ([5], np.float64(3.0), "trials", np.float64(3.0)),
    ])
    def test_bad_sizes_fail_before_any_chunk(self, n_values, trials, name, bad, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a chunk or a worker pool started")

        monkeypatch.setattr(sim, "_run_chunk", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        with pytest.raises(ValueError) as exc:
            run_study(n_values=n_values, rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=trials, seed=1, parallelism=2)
        assert str(exc.value) == f"{name} must be a positive integer, got {bad!r}"

    @pytest.mark.parametrize("change,message", [
        (dict(horizon=0.0), "horizon must be positive and finite"),
        (dict(horizon=-1.0), "horizon must be positive and finite"),
        (dict(horizon=math.nan), "horizon must be positive and finite"),
        (dict(horizon=math.inf), "horizon must be positive and finite"),
        (dict(horizon=10.0, n_values=[5]), "give exactly one of n or horizon"),
        (dict(n_values=None), "give exactly one of n or horizon"),
        (dict(n_values=[]), "need at least one grid point and one policy"),
        (dict(rates=[]), "need at least one grid point and one policy"),
        (dict(policies=[]), "need at least one grid point and one policy"),
        (dict(parallelism=0), "parallelism must be a positive integer, got 0"),
        (dict(parallelism=-1), "parallelism must be a positive integer, got -1"),
        (dict(parallelism=True), "parallelism must be a positive integer, got True"),
        (dict(parallelism=1.5), "parallelism must be a positive integer, got 1.5"),
        (dict(policies=[Wta(0.5), FixedSize(3), Wta(0.5)]),
         "two policies share the label 'wta:0.5'"),
        (dict(policies=[parse_policy_spec("wte"), Wta(1)]), "two policies share the label 'wta:1'"),
    ])
    def test_bad_study_args_fail_before_any_chunk(self, change, message, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a chunk or a worker pool started")

        monkeypatch.setattr(sim, "_run_chunk", never)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        kwargs = dict(n_values=[5, 6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=3, seed=1, parallelism=2)
        if "horizon" in change:
            kwargs["n_values"] = None
        kwargs.update(change)
        with pytest.raises(ValueError) as exc:
            run_study(**kwargs)
        assert str(exc.value) == message

    def test_numpy_integer_sizes(self):
        kwargs = dict(rates=[ConstantRate(2.0)], policies=[Wta(0.5)], cost_fn=SqrtCount(),
                      seed=4)
        assert (run_study(n_values=np.array([6, 7]), trials=np.int64(3), **kwargs)
                == run_study(n_values=[6, 7], trials=3, **kwargs))

    def test_numpy_integer_master_seed(self):
        kwargs = dict(n_values=[6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      cost_fn=SqrtCount(), trials=3)
        assert run_study(seed=np.uint64(9), **kwargs) == run_study(seed=9, **kwargs)


def _per_trial_study(n_values, rate, policies, f, trials, seed, horizon=None):
    """run_study's records and stderr lines, one trial and one call at a
    time; ``rate`` is one rate or a list of them, and ``horizon`` replaces
    ``n_values`` in horizon mode."""
    records, lines = [], []
    rates = rate if isinstance(rate, list) else [rate]

    def record(trial, s, n, p, c=None, opt=math.nan):
        metrics = (c.total, c.waiting, c.processing, opt, c.total / opt) if c else [math.nan] * 5
        records.append(TrialRecord(trial, s, n, p.spec_string(), getattr(p, "alpha", None),
                                   *metrics))

    grid = [(n, r) for n in (n_values if horizon is None else [None]) for r in rates]
    for gi, (n, rate) in enumerate(grid):
        for ti in range(trials):
            trial, s = f"g{gi}.t{ti}", _trial_seed(seed, gi, ti)
            inst = (gen_poisson(rate, n, s) if horizon is None
                    else gen_poisson_horizon(rate, horizon, s))
            try:
                _, opt = optimal_schedule(inst, f)
            except ValueError as exc:
                lines.append(f"trial {trial}: {exc}")
                for p in policies:
                    record(trial, s, inst.n, p)
                continue
            for p in policies:
                try:
                    _, c = run_policy(inst, f, p)
                except ValueError as exc:
                    lines.append(f"trial {trial} policy {p.spec_string()}: {exc}")
                    record(trial, s, inst.n, p)
                    continue
                record(trial, s, inst.n, p, c, opt.total)
    return records, lines


class TestLockstepChunks:
    """Count-cost chunks in n_values mode are solved and priced in lockstep;
    the records must be those of solving and pricing trial by trial."""

    POLICIES = [Wta(0.5), Wta(2.0), FixedDelay(1.5)]

    def test_partly_covering_table_matches_per_trial_loop(self, capsys):
        # sqrt(0..6) covers every window of the n=5 chunk, but only some
        # trials of the n=30 chunk: there the optimum or a policy fails.
        table = CountTable(tuple(math.sqrt(k) for k in range(7)))
        kwargs = dict(n_values=[5, 30], rate=ConstantRate(2.0), policies=self.POLICIES,
                      f=table, trials=12, seed=4)
        want, want_lines = _per_trial_study(**kwargs)
        assert capsys.readouterr().err == ""
        records = run_study(n_values=kwargs["n_values"], rates=[kwargs["rate"]],
                            policies=self.POLICIES, cost_fn=table, trials=12, seed=4)
        assert [repr(r) for r in records] == [repr(r) for r in want]
        assert capsys.readouterr().err.splitlines() == want_lines
        failed = {r.trial for r in records if math.isnan(r.ratio)}
        assert not any(t.startswith("g0.") for t in failed)
        assert failed and not {f"g1.t{ti}" for ti in range(12)} <= failed
        assert any("policy" in line for line in want_lines)
        assert any("policy" not in line for line in want_lines)

    def test_wta_on_the_partly_covering_table_stays_in_lockstep(self, monkeypatch, capsys):
        # At rate 1 no batch of the n=30 chunk outgrows sqrt(0..6), from
        # any start, though the chunk's 30 samples do: the table grows only
        # to the sizes reached, and the chunk runs in lockstep.
        table = CountTable(tuple(math.sqrt(k) for k in range(7)))
        want, want_lines = _per_trial_study([30], ConstantRate(1.0), self.POLICIES, table, 12, 4)
        assert want_lines == [] and not any(math.isnan(r.ratio) for r in want)
        calls = []
        gen_poisson = sim.gen_poisson
        monkeypatch.setattr(sim, "gen_poisson", lambda *args: calls.append(args) or
                            gen_poisson(*args))
        records = run_study(n_values=[30], rates=[ConstantRate(1.0)], policies=self.POLICIES,
                            cost_fn=table, trials=12, seed=4)
        assert calls == []
        assert [repr(r) for r in records] == [repr(r) for r in want]
        assert capsys.readouterr().err == ""

    def test_overflowing_target_stays_in_lockstep(self, monkeypatch, capsys):
        # Under wta:1e308 and const:10 every target overflows to inf: each
        # trial is one batch processed at time inf, an inf ratio, as in the
        # per-trial loop.
        policies, f = [Wta(1e308), Wta(0.5)], ConstantCost(10)
        want, want_lines = _per_trial_study([3, 16, 40], ConstantRate(2.0), policies, f, 5, 6)
        assert want_lines == [] and all(r.ratio == math.inf for r in want[::2])
        calls = []
        gen_poisson = sim.gen_poisson
        monkeypatch.setattr(sim, "gen_poisson", lambda *args: calls.append(args) or
                            gen_poisson(*args))
        records = run_study(n_values=[3, 16, 40], rates=[ConstantRate(2.0)], policies=policies,
                            cost_fn=f, trials=5, seed=6)
        assert calls == []
        assert [repr(r) for r in records] == [repr(r) for r in want]
        assert capsys.readouterr().err == ""

    def test_non_finite_times_fail_trial_by_trial(self, monkeypatch, capsys):
        # At rate 1e-307 the arrival times overflow to inf, and at 5e-324
        # the gap scale 1 / rate is inf: the chunk falls back to the
        # per-trial loop, where each trial fails on its ProblemInstance
        # with its own line.
        calls = []
        gen_poisson = sim.gen_poisson
        monkeypatch.setattr(sim, "gen_poisson", lambda *args: calls.append(args) or
                            gen_poisson(*args))
        for rate in (1e-307, 5e-324):
            calls.clear()
            with np.errstate(over="ignore"):
                records = run_study(n_values=[40], rates=[ConstantRate(rate)],
                                    policies=self.POLICIES, cost_fn=SqrtCount(), trials=3,
                                    seed=0)
            assert len(calls) == 3
            assert len(records) == 9
            assert all(math.isnan(x) for r in records for x in (r.J, r.W, r.F, r.J_opt, r.ratio))
            assert capsys.readouterr().err.splitlines() == [
                f"trial g0.t{k}: arrival times must be finite and non-negative, got inf"
                for k in range(3)]

    def test_zero_optimum_fails_the_trial_on_both_paths(self, monkeypatch, capsys):
        # Under const:0 every sample goes free at its arrival, so the
        # optimum costs 0 and no ratio is defined.  The lockstep chunk and
        # the per-trial loop (for a set function of the same values) fail
        # each trial alike: NaN records and one stderr line.
        kwargs = dict(n_values=[20], rates=[ConstantRate(2.0)], policies=self.POLICIES,
                      trials=3, seed=0)
        calls = []
        gen_poisson = sim.gen_poisson
        monkeypatch.setattr(sim, "gen_poisson", lambda *args: calls.append(args) or
                            gen_poisson(*args))
        lockstep = run_study(cost_fn=ConstantCost(0), **kwargs)
        lines = capsys.readouterr().err.splitlines()
        assert calls == []
        per_trial = run_study(cost_fn=CustomSetFunction(lambda x: 0.0, universe_size=1),
                              **kwargs)
        assert len(calls) == 3
        assert capsys.readouterr().err.splitlines() == lines
        assert [repr(r) for r in lockstep] == [repr(r) for r in per_trial]
        assert len(lockstep) == 9
        assert all(math.isnan(x) for r in lockstep for x in (r.J, r.W, r.F, r.J_opt, r.ratio))
        assert lines == [f"trial g0.t{k}: ratio undefined: the optimal cost is 0"
                         for k in range(3)]

    def test_set_function_study_runs_trial_by_trial(self, monkeypatch):
        count = run_study(n_values=[12], rates=[ConstantRate(2.0)], policies=self.POLICIES,
                          cost_fn=SqrtCount(), trials=6, seed=8)

        def no_lockstep(*args):
            raise AssertionError("a set-function chunk took the lockstep path")

        monkeypatch.setattr(sim, "lockstep_ends", no_lockstep)
        # sqrt(|X|) as a set function: the same floats, priced trial by trial.
        f = CustomSetFunction(lambda x: math.sqrt(len(x)), universe_size=1)
        records = run_study(n_values=[12], rates=[ConstantRate(2.0)], policies=self.POLICIES,
                            cost_fn=f, trials=6, seed=8)
        assert [repr(r) for r in records] == [repr(r) for r in count]


class TestRaggedChunks:
    """A chunk is 250 rows of the study, grid point after grid point, so it
    holds trials of many sizes and rates; no row's records depend on the
    rows it shares a chunk with."""

    POLICIES = [Wta(0.5), FixedSize(3), FixedDelay(1.5)]
    RATES = [ConstantRate(2.0), SinusoidRate(2.0, 1.5, 10.0)]

    @staticmethod
    def _chunks(monkeypatch):
        """The (grid points, rows) of each chunk that run_study runs."""
        chunks = []
        run_chunk = sim._run_chunk

        def spy(args):
            grid, lo, hi, trials = args[:4]
            chunks.append((sorted({row // trials for row in range(lo, hi)}), hi - lo))
            return run_chunk(args)

        monkeypatch.setattr(sim, "_run_chunk", spy)
        return chunks

    @pytest.mark.parametrize("mode", [dict(n_values=[5, 30, 80]), dict(horizon=12.0)],
                             ids=["n-values", "horizon"])
    def test_chunks_across_grid_points_match_the_per_trial_loop(self, mode, monkeypatch,
                                                                capsys):
        trials = 95 if "n_values" in mode else 140
        want, want_lines = _per_trial_study(mode.get("n_values"), self.RATES, self.POLICIES,
                                            SqrtCount(), trials, 7, mode.get("horizon"))
        assert want_lines == []
        chunks = self._chunks(monkeypatch)
        calls = []
        for name in ("gen_poisson", "gen_poisson_horizon"):
            monkeypatch.setattr(sim, name, lambda *args: calls.append(args))
        records = run_study(rates=self.RATES, policies=self.POLICIES, cost_fn=SqrtCount(),
                            trials=trials, seed=7, **mode)
        assert calls == []
        assert [repr(r) for r in records] == [repr(r) for r in want]
        assert capsys.readouterr().err == ""
        assert max(len(points) for points, _ in chunks) >= 2
        assert [rows for _, rows in chunks][:-1] == [250] * (len(chunks) - 1)
        if "horizon" in mode:
            assert len({r.n for r in records}) > 10

    def test_a_failing_trial_sends_its_chunk_across_grid_points_trial_by_trial(
            self, monkeypatch, capsys):
        # sqrt(0..6) covers every window at rate 0.5, but not every one at
        # rate 20: the first chunk spans both grid points and fails at rate
        # 20, so every one of its trials runs alone, those at rate 0.5 too.
        table = CountTable(tuple(math.sqrt(k) for k in range(7)))
        rates = [ConstantRate(0.5), ConstantRate(20.0)]
        want, want_lines = _per_trial_study([12], rates, self.POLICIES, table, 140, 3)
        assert want_lines and all(line.startswith("trial g1.") for line in want_lines)
        chunks = self._chunks(monkeypatch)
        calls = []
        gen_poisson = sim.gen_poisson
        monkeypatch.setattr(sim, "gen_poisson", lambda *args: calls.append(args) or
                            gen_poisson(*args))
        records = run_study(n_values=[12], rates=rates, policies=self.POLICIES, cost_fn=table,
                            trials=140, seed=3)
        assert [repr(r) for r in records] == [repr(r) for r in want]
        assert capsys.readouterr().err.splitlines() == want_lines
        assert chunks == [([0, 1], 250), ([1], 30)]
        assert len(calls) >= 250 and calls[0][0] is rates[0]


class TestTrialRecord:
    """Records are named tuples of the results CSV's columns."""

    FIELDS = ("g0.t0", 2**64 - 1, 5, "wta:0.5", 0.5, 1.2, 0.4, 0.8, 1.0, 1.2)

    def test_fields_are_the_results_columns(self):
        assert TrialRecord._fields == tuple(RESULTS_HEADER)
        rec = TrialRecord(*self.FIELDS)
        assert rec == TrialRecord(**dict(zip(RESULTS_HEADER, self.FIELDS)))
        assert rec == self.FIELDS and hash(rec) == hash(self.FIELDS)
        assert (rec.trial, rec.seed, rec.alpha, rec.ratio) == ("g0.t0", 2**64 - 1, 0.5, 1.2)
        assert rec._replace(alpha=None).alpha is None
        assert rec._asdict() == dict(zip(RESULTS_HEADER, self.FIELDS))

    def test_fields_cannot_be_set(self):
        rec = TrialRecord(*self.FIELDS)
        with pytest.raises(AttributeError):
            rec.J = 2.0
        assert rec.J == 1.2

    def test_pickles_and_crosses_processes(self):
        rec = TrialRecord(*self.FIELDS)
        copy = pickle.loads(pickle.dumps(rec))
        assert type(copy) is TrialRecord and copy == rec and hash(copy) == hash(rec)
        # A zero optimum makes NaN records, which compare by repr.
        kwargs = dict(n_values=[6], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
                      trials=260, seed=3)
        for f in (SqrtCount(), ConstantCost(0)):
            serial = run_study(cost_fn=f, **kwargs)
            parallel = run_study(cost_fn=f, parallelism=2, **kwargs)
            assert all(type(r) is TrialRecord for r in parallel)
            assert [repr(r) for r in parallel] == [repr(r) for r in serial]

    def test_a_trials_records_share_its_label_and_optimum(self):
        records = run_study(n_values=[9], rates=[ConstantRate(2.0)],
                            policies=[Wta(0.5), FixedSize(3), FixedDelay(1.0)],
                            cost_fn=SqrtCount(), trials=4, seed=2)
        assert all(type(r) is TrialRecord for r in records)
        for k in range(0, len(records), 3):
            first, *rest = records[k:k + 3]
            assert all(r.trial is first.trial and r.J_opt is first.J_opt for r in rest)


def _lockstep_rows(monkeypatch, rate, n, seeds):
    """The arrival times of one lockstep chunk of n samples a trial and the
    given seeds, as a (T, n) array, and its records."""
    rows = []

    def capture(a, lengths, f):
        assert lengths.tolist() == [n] * len(seeds)
        rows.append(a.reshape(len(seeds), n).copy())
        return lockstep_ends(a, lengths, f)

    monkeypatch.setattr(sim, "lockstep_ends", capture)
    seeds = np.array(seeds, dtype=np.uint64)
    policies = [Wta(0.5)]
    labels = [(p.spec_string(), p.alpha) for p in policies]
    names = [f"g0.t{k}" for k in range(len(seeds))]
    records = sim._lockstep_chunk([(n, rate)], np.zeros(len(seeds), dtype=int), names, policies,
                                  labels, SqrtCount(), seeds, None)
    return rows[0], records


class TestLockstepDraws:
    """A lockstep chunk draws every row in place; each row must hold the
    floats that gen_poisson draws for its seed."""

    SEEDS = [0, 2**32, 2**64 - 1]

    @pytest.mark.parametrize("n", [1, 25, 1000])
    @pytest.mark.parametrize("rate", [1e-3, 2.0, 1e6])
    def test_rows_are_gen_poisson_bytes(self, monkeypatch, rate, n):
        a, records = _lockstep_rows(monkeypatch, ConstantRate(rate), n, self.SEEDS)
        assert a.shape == (3, n)
        for row, seed in zip(a, self.SEEDS):
            want = np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, n))
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == gen_poisson(ConstantRate(rate), n, seed).times.tobytes()
        assert [r.seed for r in records] == self.SEEDS

    def test_sinusoid_rows_are_thinned_as_before(self, monkeypatch):
        rate = SinusoidRate(2, 1.5, 10)
        a, _ = _lockstep_rows(monkeypatch, rate, 25, self.SEEDS)
        for row, seed in zip(a, self.SEEDS):
            rng = np.random.default_rng(seed)
            want = np.fromiter(islice(sim._thinned_arrivals(rate, rng), 25), float, 25)
            assert row.tobytes() == want.tobytes()
            assert row.tobytes() == gen_poisson(rate, 25, seed).times.tobytes()

    @pytest.mark.parametrize("rate", [ConstantRate(2.0), SinusoidRate(2, 1.5, 10),
                                      TableRate((0.0, 3.0, 5.0), (4.0, 0.5, 2.0))],
                             ids=["constant", "sinusoid", "table"])
    def test_each_rate_fills_the_rows_of_its_seeds(self, monkeypatch, rate):
        # The chunk's rows come from one fill call over every trial's state,
        # gen_poisson's from one call on one row: the same floats.
        a, _ = _lockstep_rows(monkeypatch, rate, 40, self.SEEDS)
        for row, seed in zip(a, self.SEEDS):
            assert row.tobytes() == gen_poisson(rate, 40, seed).times.tobytes()


class TestGoldenStudy:
    """Fixed-seed study CSVs, byte for byte, serial and at two workers."""

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("mode,digest", [
        (dict(n_values=[10, 40]),
         "3d1a9a2b3120ad152b869b527c038f9315b5785deb1fb5fa00b070a51fa6fd3e"),
        (dict(horizon=15.0),
         "4d59f6b762cea2f7205ac336f718a75fbbdb285e562534bf15745321661f3463"),
    ], ids=["n-values", "horizon"])
    def test_results_csv_sha256(self, tmp_path, mode, digest, parallelism):
        records = run_study(
            rates=[ConstantRate(2), SinusoidRate(2, 1.5, 10)],
            policies=[parse_policy_spec(s)
                      for s in ("wta:0.5", "fixed-size:4", "fixed-delay:0.5")],
            cost_fn=SqrtCount(), trials=50, seed=1, parallelism=parallelism, **mode)
        path = tmp_path / "results.csv"
        write_results(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestSummarize:
    def test_single_record(self):
        rec = TrialRecord("g0.t0", 1, 5, "wta:0.5", 0.5, 1.2, 0.4, 0.8, 1.0, 1.2)
        row = summarize([rec])[0]
        assert row.min == row.median == row.max == 1.2
        assert row.count == 1

    def test_interpolated_median(self):
        recs = [
            TrialRecord("g0.t0", 1, 5, "p", None, 1.0, 0, 1.0, 1.0, 1.0),
            TrialRecord("g0.t1", 2, 5, "p", None, 2.0, 0, 2.0, 1.0, 2.0),
        ]
        assert summarize(recs)[0].median == 1.5

    @staticmethod
    def _ratios(*ratios):
        return [TrialRecord(f"g0.t{k}", k, 5, "p", None, r, 0, r, 1.0, r)
                for k, r in enumerate(ratios)]

    def test_all_inf_group(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = summarize(self._ratios(math.inf, math.inf, math.inf))[0]
        assert (row.min, row.q25, row.median, row.q75, row.max) == (math.inf,) * 5

    def test_mixed_finite_and_inf_group(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = summarize(self._ratios(math.inf, 1.0, 3.0, math.inf, 2.0))[0]
        assert (row.min, row.q25, row.median, row.q75, row.max) == (1.0, 2.0, 3.0, math.inf, math.inf)
        # Between 3.0 and inf, a quarter of the way and three quarters.
        row = summarize(self._ratios(1.0, 3.0, math.inf))[0]
        assert (row.min, row.q25, row.median, row.q75, row.max) == (1.0, 2.0, 3.0, math.inf, math.inf)
        row = summarize(self._ratios(1.0, math.inf))[0]
        assert (row.q25, row.median, row.q75) == (math.inf,) * 3

    def test_n_is_none_when_it_varies_in_the_group(self):
        records = run_study(
            horizon=10.0, rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
            cost_fn=SqrtCount(), trials=5, seed=0)
        assert len({r.n for r in records}) > 1
        assert summarize(records)[0].n is None

    def test_row_per_grid_point(self):
        records = run_study(
            n_values=[5, 8, 12], rates=[ConstantRate(2.0)], policies=[Wta(0.5)],
            cost_fn=SqrtCount(), trials=10, seed=1)
        rows = summarize(records)
        assert len(rows) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
