import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dynbatch import (
    ProblemInstance,
    TrialRecord,
    load_arrivals,
    read_results,
    save_arrivals,
    write_results,
)
from dynbatch import io_csv
from dynbatch.cli import cli_main

from conftest import assert_times_array

FIXTURE = Path(__file__).parent / "data" / "arrivals5.csv"
#: FIXTURE with quoted times and blank features, which only the row-by-row
#: reader accepts.
QUOTED_FIXTURE = FIXTURE.with_name("arrivals5_quoted.csv")

HALFWAY = "1.00000000000000011102230246251565404236316680908203125"
UNSORTED = "arrivals not sorted by time; sorting"

#: (file text, whether np.loadtxt parses it, the instance as (times,
#: features) or the error message after "<path>: ", warnings after "<path>: ")
LOAD_CASES = {
    "plain": ("time,feature\n0.5,1\n1.5,0\n", True, ((0.5, 1.5), (1, 0)), []),
    "crlf-no-final-newline": ("time,feature\r\n0.5,1\r\n1.5,0", True, ((0.5, 1.5), (1, 0)), []),
    "blank-lines": ("time,feature\n\n0.5,1\n\n1.5,2\n\n", True, ((0.5, 1.5), (1, 2)), []),
    "overflowing-time": (f"time,feature\n{HALFWAY},0\n1e-400,0\n2e308,1\n", False,
                      "line 4: time must be finite and non-negative, got '2e308'", []),
    "exact-floats": (f"Time, Feature\n{HALFWAY},0\n5e-324,0\n", True,
                     ((5e-324, float(HALFWAY)), (0, 0)), [UNSORTED]),
    "unsorted-stable": ("time,feature\n5,1\n1,2\n5,3\n1,4\n", True,
                        ((1.0, 1.0, 5.0, 5.0), (2, 4, 1, 3)), [UNSORTED]),
    "whitespace-line": ("time,feature\n0.5,1\n   \n1.5,2\n", False, ((0.5, 1.5), (1, 2)), []),
    "quoted-time": ('time,feature\n"0.5",1\n1.5,2\n', False, ((0.5, 1.5), (1, 2)), []),
    "underscore": ("time,feature\n1_0,1\n", False, ((10.0,), (1,)), []),
    "blank-feature": ("time,feature\n0.5,\n1.5,3\n", False, ((0.5, 1.5), (0, 3)), []),
    "time-only": ("time\n0\n2.5\n", False, ((0.0, 2.5), (0, 0)), []),
    "20-digit-feature": ("time,feature\n1.0,12345678901234567890\n", False,
                         ((1.0,), (12345678901234567890,)), []),
    "extra-column": ("time,feature\n0.5,1,x\n", False, ((0.5,), (1,)), []),
    # csv ends rows at "\r" and "\n" only; a form feed stays in the field.
    "form-feed": ("time,feature\n1.0,2\x0c3.0,4\n", False, "line 2: bad feature '2\\x0c3.0'", []),
    "unsorted-fallback": ("time,feature\n5,\n1,2\n5,3\n", False,
                          ((1.0, 5.0, 5.0), (2, 0, 3)), [UNSORTED]),
    "bad-time": ("time,feature\n0.5,1\noops,2\n", False, "line 3: bad time 'oops'", []),
    "nan-time": ("time,feature\n0.5,0\nnan,0\n", False,
                 "line 3: time must be finite and non-negative, got 'nan'", []),
    "negative-time": ("time\n1\n-2\n", False,
                      "line 3: time must be finite and non-negative, got '-2'", []),
    "negative-feature": ("time,feature\n0.5,1\n1.0,-2\n", False,
                         "line 3: feature must be non-negative", []),
    "float-feature": ("time,feature\n0.5,3.0\n", False, "line 2: bad feature '3.0'", []),
    "header-only": ("time,feature\n", False, "empty arrivals file", []),
    "header-and-blank-lines": ("time,feature\n\n \n", False, "empty arrivals file", []),
    "bad-header": ("when\n0\n", None,
                   "line 1: expected header 'time[,feature]', got ['when']", []),
}


class TestLoadArrivals:
    @pytest.mark.parametrize("case", LOAD_CASES)
    def test_load_table(self, case, tmp_path, monkeypatch):
        text, parsed, want, warned = LOAD_CASES[case]
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode())
        fallbacks = []
        read_rows = io_csv._read_rows
        monkeypatch.setattr(io_csv, "_read_rows",
                            lambda path, body: fallbacks.append(path) or read_rows(path, body))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    load_arrivals(p)
                assert str(err.value) == f"{p}: {want}"
            else:
                inst = load_arrivals(p)
                assert inst == ProblemInstance(*want)
                assert [type(v) for v in inst.times + inst.features] == \
                    [float] * inst.n + [int] * inst.n
                assert_times_array(inst)
        assert [str(w.message) for w in caught] == [f"{p}: {m}" for m in warned]
        if parsed is not None:
            assert fallbacks == ([] if parsed else [p])

    def test_fixture(self):
        inst = load_arrivals(FIXTURE)
        assert inst.n == 5
        assert inst.times == (0.0, 0.4, 1.1, 5.0, 5.3)
        assert load_arrivals(QUOTED_FIXTURE) == inst

    def test_time_only_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n0\n100\n")
        inst = load_arrivals(p)
        assert inst.times == (0.0, 100.0)
        assert inst.features == (0, 0)

    def test_unsorted_sorted_with_warning(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n5\n1\n")
        with pytest.warns(UserWarning, match="not sorted"):
            inst = load_arrivals(p)
        assert inst.times == (1.0, 5.0)

    def test_unsorted_stable_on_equal_times(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time,feature\n5,1\n1,2\n5,3\n")
        with pytest.warns(UserWarning):
            inst = load_arrivals(p)
        assert inst.features == (2, 1, 3)

    def test_negative_time_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n1\n-2\n")
        with pytest.raises(ValueError, match="line 3"):
            load_arrivals(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n1\noops\n")
        with pytest.raises(ValueError, match="line 3"):
            load_arrivals(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_arrivals(p)
        p.write_text("time,feature\n")
        with pytest.raises(ValueError, match="empty"):
            load_arrivals(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("when\n0\n")
        with pytest.raises(ValueError, match="header"):
            load_arrivals(p)

    def test_round_trip(self, tmp_path):
        inst = ProblemInstance((0.1, 0.30000000000000004, 2.0), (0, 1, 0))
        p = tmp_path / "a.csv"
        save_arrivals(inst, p)
        assert load_arrivals(p) == inst


def _csv_writer_results(records, path):
    """The results file as csv.writer writes it, row by row."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(io_csv.RESULTS_HEADER)
        for r in records:
            w.writerow([r.trial, r.seed, r.n, r.policy, "" if r.alpha is None else repr(r.alpha),
                        repr(r.J), repr(r.W), repr(r.F), repr(r.J_opt), repr(r.ratio)])


class TestResultsFile:
    def test_round_trip_identical(self, tmp_path):
        records = [
            TrialRecord("g0.t0", 12345, 30, "wta:0.5", 0.5,
                        1.2345678901234567, 0.4115226300411522, 0.8230452601,
                        1.0000000001, 1.2345678900000001),
            TrialRecord("g0.t1", 999, 30, "fixed-size:4", None,
                        2.0, 1.0, 1.0, 1.5, 4.0 / 3.0),
        ]
        p = tmp_path / "r.csv"
        write_results(records, p)
        assert read_results(p) == records

    def test_header_bit_exact(self, tmp_path):
        p = tmp_path / "r.csv"
        write_results([], p)
        assert p.read_text().splitlines()[0] == "trial,seed,n,policy,alpha,J,W,F,J_opt,ratio"

    def test_j_decomposition_per_row(self, tmp_path):
        from dynbatch import ConstantRate, SqrtCount, Wta, run_study
        records = run_study(n_values=[8], rates=[ConstantRate(2.0)],
                            policies=[Wta(0.5)], cost_fn=SqrtCount(), trials=10, seed=0)
        p = tmp_path / "r.csv"
        write_results(records, p)
        for r in read_results(p):
            assert math.isclose(r.J, r.W + r.F, rel_tol=1e-9, abs_tol=1e-12)

    def test_matches_csv_writer_bytes(self, tmp_path):
        nan, inf = math.nan, math.inf
        # Equal J_opt values held by distinct float objects, and 0.0 beside
        # -0.0 in one trial and as one policy's alpha, where only the repr
        # tells them apart.
        j1, j2 = float("1.25"), float("1.25")
        records = [
            TrialRecord("g0.t0", 2**64 - 1, 30, "wta:0.5", 0.5, 1.5, 0.5, 1.0, j1, 1.2),
            TrialRecord("g0.t0", 2**64 - 1, 30, "fixed-size:4", None, 2.5, 1.0, 1.5, j2, 2.0),
            TrialRecord("g0.t1", 7, 30, "wta:0.5", 0.5, inf, inf, 1.0, 0.0, inf),
            TrialRecord("g0.t1", 7, 30, "wta:0.5", -0.0, -inf, -0.0, -inf, -0.0, -inf),
            TrialRecord("g0.t2", 8, 30, "wta:0.5", 0.5, nan, nan, nan, nan, nan),
            TrialRecord("g0.t2", 8, 30, "fixed-size:4", None, nan, nan, nan, nan, nan),
            TrialRecord('g1,"x".t0', 9, 4, 'my,"policy"', 2.0, 3.0, 1.0, 2.0, 1.5, 2.0),
            TrialRecord('g1,"x".t0', 9, 4, "line\nbreak", 0.0, 3.0, 1.0, 2.0, 1.5, 2.0),
            TrialRecord("g1.t1", 10, 4, "wta:0.5", 0.0, 3.0, 1.0, 2.0, 1.5, 2.0),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_results(records, got)
        _csv_writer_results(records, want)
        assert got.read_bytes() == want.read_bytes()
        assert b'"g1,""x"".t0",9,4,"my,""policy""",2.0,' in got.read_bytes()
        assert [repr(r) for r in read_results(got)] == [repr(r) for r in records]

    def test_study_matches_csv_writer_bytes(self, tmp_path, capsys):
        from dynbatch import ConstantRate, CountTable, FixedSize, Wta, run_study
        # A short table fails some trials: NaN records among the others.
        records = run_study(n_values=[5, 30], rates=[ConstantRate(2.0)],
                            policies=[Wta(0.5), FixedSize(3)],
                            cost_fn=CountTable(tuple(math.sqrt(k) for k in range(7))),
                            trials=12, seed=4)
        assert any(math.isnan(r.ratio) for r in records)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_results(records, got)
        _csv_writer_results(records, want)
        assert got.read_bytes() == want.read_bytes()

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("a,b\n")
        with pytest.raises(ValueError, match="header"):
            read_results(p)


class TestCli:
    @pytest.mark.parametrize("module", ["dynbatch", "dynbatch.cli"])
    def test_runs_as_a_module(self, module, capsys):
        """``python -m`` runs the same command line as ``cli_main``."""
        argv = ["offline", "--arrivals", str(FIXTURE), "--cost", "sqrt"]
        assert cli_main(argv) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-m", module, *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout == capsys.readouterr().out
        bad = subprocess.run([sys.executable, "-m", module, "gamma", "--cost", "cubic"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert (bad.returncode, bad.stderr) == (2, "dynbatch: unknown cost spec 'cubic'\n")

    def test_offline(self, capsys):
        assert cli_main(["offline", "--arrivals", str(FIXTURE), "--cost", "sqrt"]) == 0
        out = capsys.readouterr().out
        assert "batch 1" in out and "J=" in out

    def test_offline_reads_the_quoted_fixture_alike(self, capsys):
        assert cli_main(["offline", "--arrivals", str(FIXTURE), "--cost", "sqrt"]) == 0
        parsed = capsys.readouterr().out
        assert cli_main(["offline", "--arrivals", str(QUOTED_FIXTURE), "--cost", "sqrt"]) == 0
        assert capsys.readouterr().out == parsed

    def test_offline_matches_oracle(self, capsys):
        cli_main(["offline", "--arrivals", str(FIXTURE), "--cost", "sqrt"])
        j_offline = capsys.readouterr().out.splitlines()[-1]
        cli_main(["oracle", "--arrivals", str(FIXTURE), "--cost", "sqrt"])
        j_oracle = capsys.readouterr().out.splitlines()[-1]
        assert j_offline == j_oracle

    def test_offline_two_arrivals(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        p.write_text("time\n0\n100\n")
        assert cli_main(["offline", "--arrivals", str(p), "--cost", "sqrt"]) == 0
        out = capsys.readouterr().out
        assert "batch 2" in out
        assert out.strip().endswith("J=1.0")

    def test_online_wta_single(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("time\n0\n")
        assert cli_main(["online", "--policy", "wta:0.5", "--cost", "sqrt",
                         "--arrivals", str(p)]) == 0
        out = capsys.readouterr().out
        assert "time=0.5" in out
        assert "J=1.5" in out

    def test_online_bare_wta_uses_curvature(self, capsys):
        assert cli_main(["online", "--policy", "wta", "--cost", "sqrt",
                         "--arrivals", str(FIXTURE)]) == 0
        assert "policy=wta:0.707107" in capsys.readouterr().out

    def test_gamma_sqrt(self, capsys):
        assert cli_main(["gamma", "--cost", "sqrt"]) == 0
        assert capsys.readouterr().out.strip() == "0.7071067811865476"

    def test_gamma_const(self, capsys):
        assert cli_main(["gamma", "--cost", "const:1"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_validate_clean_and_violations(self, tmp_path, capsys):
        assert cli_main(["validate", "--cost", "sqrt"]) == 0
        assert "ok=True" in capsys.readouterr().out
        table = tmp_path / "g.txt"
        table.write_text("0\n1\n3\n")
        assert cli_main(["validate", "--cost", f"table:{table}"]) == 0
        out = capsys.readouterr().out
        assert "ok=False" in out and "subadditive" in out

    def test_simulate_writes_results(self, tmp_path, capsys):
        out_path = tmp_path / "results.csv"
        rc = cli_main(["simulate", "--cost", "sqrt", "--policy", "wta:0.5",
                       "--n", "6,9", "--rate", "2", "--trials", "5",
                       "--seed", "1", "--out", str(out_path)])
        assert rc == 0
        records = read_results(out_path)
        assert len(records) == 10
        summary = capsys.readouterr().out
        assert summary.count("median=") == 2

    def test_simulate_rate_fn(self, capsys):
        rc = cli_main(["simulate", "--cost", "log1p", "--policy", "wte",
                       "--n", "5", "--rate-fn", "sin:2,1,3", "--trials", "3"])
        assert rc == 0
        assert "policy=wta:1" in capsys.readouterr().out

    def test_simulate_horizon_mode(self, capsys):
        rc = cli_main(["simulate", "--cost", "sqrt", "--policy", "wta:0.5",
                       "--horizon", "10", "--rate", "2", "--trials", "3"])
        assert rc == 0
        assert "median=" in capsys.readouterr().out

    def test_simulate_zero_optimum_exits_1(self, capsys):
        # Every trial's optimum costs 0: each fails with one stderr line,
        # and with no ratio left the summary fails in one line, not a
        # traceback.
        rc = cli_main(["simulate", "--cost", "const:0", "--policy", "wta:0.5",
                       "--n", "20", "--trials", "3"])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [*(f"trial g0.t{k}: ratio undefined: the optimal cost is 0"
                         for k in range(3)),
                       "chunk 1/1 done", "dynbatch: all records failed; nothing to summarize"]

    def test_simulate_negative_seed_exits_2(self, capsys):
        rc = cli_main(["simulate", "--cost", "sqrt", "--policy", "wta:0.5", "--n", "5",
                       "--trials", "2", "--seed", "-1", "--parallelism", "2"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "dynbatch: seed must be a non-negative integer, got -1\n")

    @pytest.mark.parametrize("flag,value,message", [
        ("--n", "0", "n must be a positive integer, got 0"),
        ("--n", "5,-2", "n must be a positive integer, got -2"),
        ("--trials", "0", "trials must be a positive integer, got 0"),
    ])
    def test_simulate_bad_size_exits_2_with_the_reason(self, flag, value, message, capsys):
        argv = ["simulate", "--cost", "sqrt", "--n", "5", "--trials", "2"]
        argv[argv.index(flag) + 1] = value
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"dynbatch: {message}\n"

    def test_simulate_needs_exactly_one_mode(self, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", "--trials", "2"]) == 2
        assert cli_main(["simulate", "--cost", "sqrt", "--n", "5",
                         "--horizon", "10", "--trials", "2"]) == 2

    @pytest.mark.parametrize("rate", ["0", "inf", "-2"])
    def test_simulate_bad_rate_exits_2_with_the_reason(self, rate, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", "--n", "5", "--rate", rate,
                         "--trials", "2"]) == 2
        assert capsys.readouterr().err == "dynbatch: rate must be positive and finite\n"

    def test_adversary_outputs(self, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        inst_path = tmp_path / "inst.csv"
        rc = cli_main(["adversary", "--cost", "const:1", "--policy", "wta:0.5",
                       "--rounds", "20", "--epsilon", "1e-6",
                       "--out", str(report_path), "--arrivals-out", str(inst_path)])
        assert rc == 0
        assert "limit_bound=2.0" in capsys.readouterr().out
        inst = load_arrivals(inst_path)
        assert inst.n == 40
        with report_path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["limit_bound"]) == 2.0
        assert rows[0]["policy"] == "wta:0.5"

    def test_adversary_gap_rounding_to_zero_exits_1(self, capsys):
        rc = cli_main(["adversary", "--cost", "const:1", "--policy", "wta:0.5",
                       "--rounds", "5", "--epsilon", "1e-30"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "dynbatch: epsilon 1e-30 rounds to zero after the flush at t=0.5\n")

    def test_gamma_nan_cost_exits_1(self, capsys, monkeypatch):
        from dynbatch import CustomSetFunction, cli
        f = CustomSetFunction(lambda x: math.nan if len(x) > 3 else math.sqrt(len(x)), 2)
        monkeypatch.setattr(cli, "parse_cost_spec", lambda spec: f)
        assert cli_main(["gamma", "--cost", "nan-above-3", "--max-batch", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("dynbatch: curvature undefined: f(X)=")
        assert captured.err.count("\n") == 1

    def test_unknown_cost_spec_exits_2(self, capsys):
        assert cli_main(["gamma", "--cost", "cubic"]) == 2
        assert "unknown cost spec" in capsys.readouterr().err

    def test_unknown_policy_spec_exits_2(self, capsys):
        assert cli_main(["online", "--policy", "lifo", "--cost", "sqrt",
                         "--arrivals", str(FIXTURE)]) == 2

    def test_missing_file_exits_1(self, capsys):
        assert cli_main(["offline", "--arrivals", "/nonexistent.csv", "--cost", "sqrt"]) == 1
        assert capsys.readouterr().err.strip()

    def test_usage_error_exits_2(self):
        assert cli_main(["offline"]) == 2
        assert cli_main(["frobnicate"]) == 2

    def test_oracle_size_cap_exits_1(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("time\n" + "\n".join(str(i) for i in range(25)) + "\n")
        assert cli_main(["oracle", "--arrivals", str(p), "--cost", "sqrt"]) == 1
        assert "oracle size limit" in capsys.readouterr().err
