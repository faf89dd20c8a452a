import argparse
import csv
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dynbatch import (
    ProblemInstance,
    TrialRecord,
    load_arrivals,
    read_results,
    save_arrivals,
    write_results,
)
from dynbatch import io_csv, parse_cost_spec, parse_policy_spec, parse_rate_spec
from dynbatch.cli import build_parser, cli_main
from dynbatch.io_csv import RESULTS_HEADER

from conftest import OVERFLOW, assert_times_array

FIXTURE = Path(__file__).parent / "data" / "arrivals5.csv"
#: FIXTURE with quoted times and blank features, which only the row-by-row
#: reader accepts.
QUOTED_FIXTURE = FIXTURE.with_name("arrivals5_quoted.csv")
#: The exact stdout of each command on FIXTURE under sqrt, byte for byte.
PRINTOUTS = {
    "offline": ("arrivals5_sqrt_optimum.txt", []),
    "oracle": ("arrivals5_sqrt_optimum.txt", []),
    "online": ("arrivals5_sqrt_wta0.5.txt", ["--policy", "wta:0.5"]),
}

#: Each subcommand's flags as (name, default, type, required, action).
_ARRIVALS = ("--arrivals", None, None, True, "_StoreAction")
_COST = ("--cost", None, None, True, "_StoreAction")
_POLICY = ("--policy", None, None, True, "_StoreAction")
_ALPHA = ("--alpha", None, "float", False, "_StoreAction")
_MAX_BATCH = ("--max-batch", 64, "int", False, "_StoreAction")
_OUT = ("--out", None, None, False, "_StoreAction")
FLAGS = {
    "offline": {_ARRIVALS, _COST},
    "oracle": {_ARRIVALS, _COST, ("--max-n", 20, "int", False, "_StoreAction")},
    "online": {_ARRIVALS, _COST, _POLICY, _ALPHA},
    "gamma": {_COST, _MAX_BATCH},
    "validate": {_COST, _MAX_BATCH},
    "simulate": {
        _COST, _ALPHA, _OUT,
        ("--policy", None, None, False, "_AppendAction"),
        ("--n", None, None, False, "_StoreAction"),
        ("--horizon", None, "float", False, "_StoreAction"),
        ("--rate", "2", None, False, "_StoreAction"),
        ("--rate-fn", None, None, False, "_StoreAction"),
        ("--trials", 100, "int", False, "_StoreAction"),
        ("--seed", 0, "int", False, "_StoreAction"),
        ("--parallelism", 1, "int", False, "_StoreAction"),
    },
    "adversary": {
        _COST, _POLICY, _ALPHA, _OUT,
        ("--x1", 1, "int", False, "_StoreAction"),
        ("--x2", 1, "int", False, "_StoreAction"),
        ("--rounds", 200, "int", False, "_StoreAction"),
        ("--epsilon", None, "float", False, "_StoreAction"),
        ("--arrivals-out", None, None, False, "_StoreAction"),
    },
}

#: A field just over the csv module's default size limit of 128 KiB, and
#: the csv module's message for it.
BIG_FIELD = "7" * (csv.field_size_limit() + 1)
FIELD_LIMIT = f"field larger than field limit ({csv.field_size_limit()})"
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
    # A quoted line break in the header makes lines 1 and 2 the header.
    "quoted-line-break-in-header": ('time,"feature\n"\n1,0\n-2,0\n', False,
                                    "line 4: time must be finite and non-negative, got '-2'", []),
    # A quoted line break makes one record of lines 2 and 3.
    "quoted-line-break": ('time,feature\n1,"0\n"\n-2,0\n', False,
                          "line 4: time must be finite and non-negative, got '-2'", []),
    "negative-feature": ("time,feature\n0.5,1\n1.0,-2\n", False,
                         "line 3: feature must be non-negative", []),
    "float-feature": ("time,feature\n0.5,3.0\n", False, "line 2: bad feature '3.0'", []),
    "header-only": ("time,feature\n", False, "empty arrivals file", []),
    "header-and-blank-lines": ("time,feature\n\n \n", False, "empty arrivals file", []),
    "bad-header": ("when\n0\n", None,
                   "line 1: expected header 'time[,feature]', got ['when']", []),
    # csv ends a line at "\r", "\n" or "\r\n", and so does the parser.
    "cr-line-ends": ("time,feature\r0.5,1\r1.5,0\r", True, ((0.5, 1.5), (1, 0)), []),
    "bom-crlf": ("\ufefftime,feature\r\n0.5,1\r\n1.5,0\r\n", True, ((0.5, 1.5), (1, 0)), []),
    "mixed-lf-crlf": ("time,feature\r\n0.5,1\n1.5,0\r\n2.5,2\n", True,
                      ((0.5, 1.5, 2.5), (1, 0, 2)), []),
    "quoted-line-break-in-header-plain-body": ('time,"feature\r\n"\r\n0.5,1\r\n1.5,0\r\n', True,
                                               ((0.5, 1.5), (1, 0)), []),
    # Longer than numpy's read chunk of 50000 lines.
    "long-body": ("time,feature\r\n" + "".join(f"{k / 8},{k % 5}\r\n" for k in range(50_001)),
                  True, (tuple(k / 8 for k in range(50_001)), tuple(k % 5 for k in range(50_001))),
                  []),
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
                            lambda path, fh, first:
                            fallbacks.append(path) or read_rows(path, fh, first))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    load_arrivals(p)
                assert str(err.value) == f"{p}: {want}"
            else:
                inst = load_arrivals(p)
                assert inst == ProblemInstance(*want)
                assert [type(v) for v in inst.features] == [int] * inst.n
                assert_times_array(inst, want[0])
        assert [str(w.message) for w in caught] == [f"{p}: {m}" for m in warned]
        if parsed is not None:
            assert fallbacks == ([] if parsed else [p])

    @pytest.mark.parametrize("case", [c for c in LOAD_CASES if LOAD_CASES[c][1]])
    def test_parser_gives_what_the_row_reader_gives(self, case, tmp_path, monkeypatch):
        p = tmp_path / "a.csv"
        p.write_bytes(LOAD_CASES[case][0].encode())

        def load():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                inst = load_arrivals(p)
            return inst, inst.times.tobytes(), [str(w.message) for w in caught]
        parsed = load()
        monkeypatch.setattr(io_csv, "_parsed", lambda path, header_lines: None)
        assert parsed == load()

    @pytest.mark.parametrize("suffix", [".csv.gz", ".csv.bz2", ".csv.xz", ".csv.lzma"])
    def test_plain_file_with_a_compression_suffix_loads_as_its_csv_twin(self, suffix, tmp_path):
        text = "time,feature\n0.5,1\n1.5,0\n"
        twin, p = tmp_path / "t.csv", tmp_path / f"t{suffix}"
        twin.write_text(text)
        p.write_text(text)
        assert load_arrivals(p) == load_arrivals(twin)

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_pipe_loads_whole(self, tmp_path):
        """A pipe is read once, past the 8 KiB that the header's read
        buffers: a parser that opened it again would miss that part."""
        inst = ProblemInstance(tuple(k / 4 for k in range(2000)), tuple(k % 3 for k in range(2000)))
        twin = tmp_path / "a.csv"
        save_arrivals(inst, twin)
        data = twin.read_bytes()
        assert 8192 < len(data) < 65536  # over one read buffer, within one pipe buffer
        r, w = os.pipe()
        try:
            os.write(w, data)
            os.close(w)
            assert load_arrivals(f"/proc/self/fd/{r}") == inst
        finally:
            os.close(r)

    def test_load_peak_bytes_per_row(self, tmp_path):
        """Loading a saved 1e5-row instance peaks at most 48 bytes a row
        above what was traced before, as tracemalloc counts them (a load
        before it loads what the first load loads): the file is parsed
        from disk, and no body string or list of its lines is built."""
        n = 100_000
        p = tmp_path / "a.csv"
        save_arrivals(ProblemInstance(np.arange(n) / 8, tuple(k % 5 for k in range(n))), p)
        load_arrivals(FIXTURE)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            inst = load_arrivals(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n == n
        assert (peak - before) / n <= 48

    def test_fixture(self):
        inst = load_arrivals(FIXTURE)
        assert inst.n == 5
        assert inst.times.tolist() == [0.0, 0.4, 1.1, 5.0, 5.3]
        assert load_arrivals(QUOTED_FIXTURE) == inst

    def test_time_only_column(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n0\n100\n")
        inst = load_arrivals(p)
        assert inst.times.tolist() == [0.0, 100.0]
        assert inst.features == (0, 0)

    def test_unsorted_sorted_with_warning(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time\n5\n1\n")
        with pytest.warns(UserWarning, match="not sorted"):
            inst = load_arrivals(p)
        assert inst.times.tolist() == [1.0, 5.0]

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

    @pytest.mark.parametrize("times,features", [
        ((0, 1, 3), (0, 0, 2)),
        ((0.1, 0.30000000000000004, 2.0), (0, np.int64(1), np.uint8(7))),
        ((1.7e9 + 1e-6, 1700000000.123456, 1700000000.5), (2**70, 0, 3)),
        ((0.0, 5e-324 * 3, 1e-300), (np.int32(4), 2**63, 1)),
        ((0.5, 1.5), (True, np.bool_(False))),
        ((np.float64(1.5), np.float32(2.5)), (0, np.int64(3))),
    ], ids=["int-times", "numpy-features", "epoch-and-big-feature", "tiny-times", "bool-features",
            "numpy-times"])
    def test_save_matches_csv_writer_bytes_and_round_trips(self, times, features, tmp_path):
        inst = ProblemInstance(times, features)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        save_arrivals(inst, got)
        _csv_writer_arrivals(inst, want)
        assert got.read_bytes() == want.read_bytes()
        assert load_arrivals(got) == inst

    @pytest.mark.parametrize("inst,body", [
        (ProblemInstance((1.5,), (True,)), "1.5,1"),
        (ProblemInstance((np.float64(1.5),), (0,)), "1.5,0"),
        (ProblemInstance((2,), (np.int64(3),)), "2.0,3"),
    ], ids=["bool-feature", "numpy-float-time", "int-time"])
    def test_saved_instance_loads_back_equal(self, inst, body, tmp_path):
        p = tmp_path / "a.csv"
        save_arrivals(inst, p)
        assert p.read_text().splitlines() == ["time,feature", body]
        assert load_arrivals(p) == inst

    @pytest.mark.parametrize("text,line", [
        (f"time{BIG_FIELD}\n0\n", 1),
        (f"time,feature\n0,0\n1,{BIG_FIELD}\n", 3),
        (f"time\n0\n\"{BIG_FIELD}\"\n", 3),
    ], ids=["header", "feature", "quoted-time"])
    def test_field_over_the_csv_limit_names_its_line(self, text, line, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            load_arrivals(p)
        assert str(err.value) == f"{p}: line {line}: {FIELD_LIMIT}"


def _csv_writer_arrivals(inst, path):
    """The arrivals file as csv.writer writes it, row by row: each time as
    the repr of its float and each feature as an integer."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "feature"])
        for t, v in zip(inst.times, inst.features):
            w.writerow([repr(float(t)), int(v)])


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

    def test_byte_order_mark_is_skipped(self, tmp_path):
        records = [TrialRecord("g0.t0", 1, 3, "wta:0.5", 0.5, 2.0, 1.0, 1.0, 1.5, 4.0 / 3.0)]
        p = tmp_path / "r.csv"
        write_results(records, p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
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

    @pytest.mark.parametrize("size", [dict(n_values=[8]), dict(horizon=5.0)],
                             ids=["lockstep", "per-trial"])
    def test_numpy_alpha_writes_a_float_that_reads_back(self, size, tmp_path):
        from dynbatch import ConstantRate, SqrtCount, Wta, run_study
        records = run_study(rates=[ConstantRate(2.0)], policies=[Wta(np.float64(0.5))],
                            cost_fn=SqrtCount(), trials=3, seed=0, **size)
        p = tmp_path / "r.csv"
        write_results(records, p)
        assert {line.split(",")[4] for line in p.read_text().splitlines()} == {"alpha", "0.5"}
        assert [r.alpha for r in read_results(p)] == [0.5] * 3

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
        read = read_results(got)
        assert [repr(r) for r in read] == [repr(r) for r in records]
        # Field by field: the sign of each zero, each NaN and alpha None.
        assert all(type(r) is TrialRecord for r in read)
        assert [[repr(x) for x in r] for r in read] == [[repr(x) for x in r] for r in records]

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

    def test_bad_row_names_its_physical_line(self, tmp_path):
        p = tmp_path / "r.csv"
        row = '"g0\n.t0",1,5,wta:0.5,0.5,1.0,0.5,0.5,1.0,1.0'
        p.write_text(",".join(RESULTS_HEADER) + f"\n{row}\ng0.t1,2\n")
        with pytest.raises(ValueError) as err:
            read_results(p)
        assert str(err.value) == f"{p}: line 4: expected 10 columns"

    @pytest.mark.parametrize("column,field", [
        ("seed", "abc"), ("n", "5.0"), ("alpha", "half"), ("J", ""), ("ratio", "1,5")])
    def test_bad_field_names_its_line_column_and_field(self, column, field, tmp_path):
        """A field that does not convert reads as one line naming the file,
        the physical line, behind a quoted line break, and the field."""
        values = ['"g0\n.t0"', "1", "5", "wta:0.5", "0.5", "1.0", "0.5", "0.5", "1.0", "1.0"]
        values[RESULTS_HEADER.index(column)] = f'"{field}"'
        p = tmp_path / "r.csv"
        p.write_text(",".join(RESULTS_HEADER) + "\ng0.t1,1,5,wta:0.5,,1,0.5,0.5,1,1\n"
                     + ",".join(values) + "\n")
        with pytest.raises(ValueError) as err:
            read_results(p)
        assert str(err.value) == f"{p}: line 3: bad {column} {field!r}"

    @pytest.mark.parametrize("text,line", [
        (f"trial{BIG_FIELD}\n", 1),
        (",".join(RESULTS_HEADER) + f"\ng0.t0,{BIG_FIELD}\n", 2),
    ], ids=["header", "row"])
    def test_field_over_the_csv_limit_names_its_line(self, text, line, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text(text)
        with pytest.raises(ValueError) as err:
            read_results(p)
        assert str(err.value) == f"{p}: line {line}: {FIELD_LIMIT}"


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

    def test_flags_are_pinned(self):
        """Every subcommand keeps its flags: name, default, type, required
        and action (help text and listing order may change)."""
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {(" ".join(a.option_strings), a.default, getattr(a.type, "__name__", a.type),
                    a.required, type(a).__name__)
                   for a in q._actions if not isinstance(a, argparse._HelpAction)}
            for name, q in sub.choices.items()}
        assert flags == FLAGS

    @pytest.mark.parametrize("argv,message", [
        (["online", "--arrivals", "/nonexistent.csv", "--cost", "sqrt", "--policy", "lifo"],
         "unknown policy spec 'lifo'"),
        (["online", "--arrivals", "/nonexistent.csv", "--cost", "cubic", "--policy", "lifo"],
         "unknown cost spec 'cubic'"),
        (["online", "--arrivals", "/nonexistent.csv", "--cost", "sqrt", "--policy", "wta",
          "--alpha", "0"], "alpha must be positive and finite"),
        (["adversary", "--cost", "cubic", "--policy", "wta:0.5", "--rounds", "0"],
         "unknown cost spec 'cubic'"),
        (["adversary", "--cost", "sqrt", "--policy", "lifo", "--rounds", "0"],
         "unknown policy spec 'lifo'"),
        (["oracle", "--arrivals", "/nonexistent.csv", "--cost", "sqrt", "--max-n", "0"],
         "max_n must be a positive integer, got 0"),
        (["oracle", "--arrivals", "/nonexistent.csv", "--cost", "sqrt", "--max-n", "-3"],
         "max_n must be a positive integer, got -3"),
    ])
    def test_usage_errors_are_reported_cost_then_policy_then_the_rest(self, argv, message,
                                                                        capsys):
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", f"dynbatch: {message}\n")

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

    @pytest.mark.parametrize("command", sorted(PRINTOUTS))
    def test_schedule_printout_is_pinned(self, command, capsys):
        name, flags = PRINTOUTS[command]
        assert cli_main([command, "--arrivals", str(FIXTURE), "--cost", "sqrt", *flags]) == 0
        assert capsys.readouterr() == (FIXTURE.with_name(name).read_text(), "")

    @pytest.mark.parametrize("fixture", [FIXTURE, QUOTED_FIXTURE], ids=["parsed", "by-row"])
    def test_byte_order_mark_is_skipped(self, fixture, tmp_path, capsys):
        # Spreadsheets' "CSV UTF-8" exports start with a byte-order mark.
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        assert cli_main(["offline", "--arrivals", str(p), "--cost", "sqrt"]) == 0
        assert capsys.readouterr() == (
            FIXTURE.with_name("arrivals5_sqrt_optimum.txt").read_text(), "")

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
        assert "policy=wta:0.7071067811865476" in capsys.readouterr().out

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

    @pytest.mark.parametrize("specs,alpha,labels", [
        (["fixed-delay:0.1234567", "fixed-delay:0.1234568"], [],
         ["fixed-delay:0.1234567", "fixed-delay:0.1234568"]),
        (["wta", "wta:0.707107"], [], ["wta:0.7071067811865476", "wta:0.707107"]),
        (["wta:0.5", "wte"], ["--alpha", "0.3"], ["wta:0.5", "wta:1"]),
        (["wta", "wta:0.5"], ["--alpha", "0.3"], ["wta:0.3", "wta:0.5"]),
    ], ids=["close-delays", "bare-wta-beside-its-rounding", "alpha-leaves-explicit-wta",
            "alpha-sets-bare-wta"])
    def test_simulate_keeps_distinct_policies_apart(self, specs, alpha, labels, capsys):
        argv = ["simulate", "--cost", "sqrt", "--n", "20", "--trials", "5", *alpha]
        for spec in specs:
            argv += ["--policy", spec]
        assert cli_main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines] == [f"policy={x}" for x in labels]
        assert all(" trials=5 " in line for line in lines)

    @pytest.mark.parametrize("specs,label", [
        (["wta:0.5", "wta:0.5"], "wta:0.5"),
        (["wte", "fixed-size:3", "wta:1"], "wta:1"),
        (["wta", "wta:0.3"], "wta:0.3"),
    ])
    def test_simulate_repeated_label_exits_2(self, specs, label, capsys):
        argv = ["simulate", "--cost", "sqrt", "--n", "20", "--trials", "5", "--alpha", "0.3"]
        for spec in specs:
            argv += ["--policy", spec]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == (
            "", f"dynbatch: two policies share the label {label!r}\n")

    def test_simulate_horizon_mode(self, capsys):
        rc = cli_main(["simulate", "--cost", "sqrt", "--policy", "wta:0.5",
                       "--horizon", "10", "--rate", "2", "--trials", "3"])
        assert rc == 0
        assert "median=" in capsys.readouterr().out

    def test_simulate_horizon_summary_n_varies(self, capsys):
        # The five trials hold 15, 27, 23, 20 and 17 samples.
        assert cli_main(["simulate", "--cost", "sqrt", "--policy", "wta:0.5", "--horizon", "10",
                         "--trials", "5"]) == 0
        assert capsys.readouterr().out.startswith("g0 n=varies policy=wta:0.5 trials=5 min=")

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

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_simulate_bad_parallelism_exits_2_before_any_chunk(self, value, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", "--n", "5", "--trials", "2",
                         "--parallelism", value]) == 2
        assert capsys.readouterr() == (
            "", f"dynbatch: parallelism must be a positive integer, got {value}\n")

    def test_simulate_needs_exactly_one_mode(self, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", "--trials", "2"]) == 2
        assert cli_main(["simulate", "--cost", "sqrt", "--n", "5",
                         "--horizon", "10", "--trials", "2"]) == 2

    @pytest.mark.parametrize("flags,message", [
        (["--horizon", "0"], "horizon must be positive and finite"),
        (["--horizon", "-1"], "horizon must be positive and finite"),
        (["--horizon", "nan"], "horizon must be positive and finite"),
        (["--horizon", "inf"], "horizon must be positive and finite"),
        (["--n", ","], "need at least one grid point and one policy"),
        (["--n", "5", "--rate", ","], "need at least one grid point and one policy"),
    ])
    def test_simulate_bad_grid_exits_2_with_the_reason(self, flags, message, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", *flags, "--trials", "3"]) == 2
        assert capsys.readouterr().err == f"dynbatch: {message}\n"

    @pytest.mark.parametrize("rate", ["0", "inf", "-2"])
    def test_simulate_bad_rate_exits_2_with_the_reason(self, rate, capsys):
        assert cli_main(["simulate", "--cost", "sqrt", "--n", "5", "--rate", rate,
                         "--trials", "2"]) == 2
        assert capsys.readouterr().err == "dynbatch: rate must be positive and finite\n"

    @pytest.mark.parametrize("mode", [["--horizon", "10"], ["--n", "50"]])
    @pytest.mark.parametrize("rate", ["sin:nan,0,1", "sin:inf,0,1", "sin:2,nan,1"])
    def test_simulate_non_finite_sinusoid_exits_2(self, rate, mode, capsys, monkeypatch):
        from dynbatch import cli

        def never(**kwargs):
            # thinning under such a rate never accepts a proposal
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_study", never)
        assert cli_main(["simulate", "--cost", "sqrt", *mode, "--rate-fn", rate,
                         "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", "dynbatch: base and amplitude must be finite\n")

    @pytest.mark.parametrize("command,value,least", [
        ("gamma", "1", 2), ("gamma", "-5", 2), ("validate", "0", 1),
    ])
    def test_bad_max_batch_exits_2(self, command, value, least, capsys):
        assert cli_main([command, "--cost", "sqrt", "--max-batch", value]) == 2
        kind = "a positive integer" if least == 1 else f"an integer of at least {least}"
        assert capsys.readouterr() == ("", f"dynbatch: max_batch must be {kind}, got {value}\n")

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

    def test_adversary_report_is_pinned(self, tmp_path, capsys):
        # The construction the benchmark's adversary op runs, byte for byte.
        path = tmp_path / "report.csv"
        assert cli_main(["adversary", "--cost", "const:1", "--policy", "wta:0.5",
                         "--rounds", "400", "--epsilon", "1e-6", "--out", str(path)]) == 0
        assert path.read_bytes() == FIXTURE.with_name("adversary_wta0.5_const1.csv").read_bytes()

    @pytest.mark.parametrize("flag,value,message", [
        ("--rounds", "0", "rounds must be a positive integer, got 0"),
        ("--x1", "0", "arrival groups must be non-empty"),
        ("--x2", "-1", "size must be a non-negative integer, got -1"),
        ("--epsilon", "-1", "epsilon must be positive and finite"),
        ("--epsilon", "nan", "epsilon must be positive and finite"),
    ])
    def test_adversary_bad_flag_exits_2(self, flag, value, message, capsys):
        assert cli_main(["adversary", "--cost", "sqrt", "--policy", "wta:0.5",
                         flag, value]) == 2
        assert capsys.readouterr() == ("", f"dynbatch: {message}\n")

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

    @pytest.mark.parametrize("spec,parse,argv,reason", [
        ("fixed-size:2.5", parse_policy_spec,
         ["online", "--arrivals", str(FIXTURE), "--cost", "sqrt", "--policy"],
         "invalid literal for int() with base 10: '2.5'"),
        ("wta:", parse_policy_spec, ["adversary", "--cost", "sqrt", "--policy"],
         "could not convert string to float: ''"),
        ("cap:a,b", parse_cost_spec, ["gamma", "--cost"], "could not convert string to float: 'a'"),
        ("cap:3", parse_cost_spec, ["validate", "--cost"],
         "expected 2 value(s) after 'cap:', got 1"),
        ("const:", parse_cost_spec, ["offline", "--arrivals", str(FIXTURE), "--cost"],
         "could not convert string to float: ''"),
        ("sin:a,1,1", parse_rate_spec, ["simulate", "--cost", "sqrt", "--n", "5", "--rate-fn"],
         "could not convert string to float: 'a'"),
    ])
    def test_bad_spec_values_exit_2_naming_the_spec(self, spec, parse, argv, reason, capsys):
        kind = {parse_cost_spec: "cost", parse_policy_spec: "policy", parse_rate_spec: "rate"}
        message = f"bad {kind[parse]} spec {spec!r}: {reason}"
        with pytest.raises(ValueError) as err:
            parse(spec)
        assert str(err.value) == message
        assert cli_main([*argv, spec]) == 2
        assert capsys.readouterr() == ("", f"dynbatch: {message}\n")

    def test_bad_cost_table_entry_exits_2_naming_the_line(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("0\nabc\n")
        assert cli_main(["gamma", "--cost", f"table:{p}"]) == 2
        assert capsys.readouterr() == ("", f"dynbatch: {p}: line 2: bad cost table entry 'abc'\n")

    def test_unknown_cost_spec_exits_2(self, capsys):
        assert cli_main(["gamma", "--cost", "cubic"]) == 2
        assert "unknown cost spec" in capsys.readouterr().err

    def test_unknown_policy_spec_exits_2(self, capsys):
        assert cli_main(["online", "--policy", "lifo", "--cost", "sqrt",
                         "--arrivals", str(FIXTURE)]) == 2

    @pytest.mark.parametrize("policy", ["wta", "wta:0.5"])
    @pytest.mark.parametrize("alpha", ["-1", "0", "nan"])
    @pytest.mark.parametrize("command", [
        ["online", "--arrivals", str(FIXTURE)],
        ["simulate", "--n", "5", "--trials", "2"],
        ["adversary", "--rounds", "5"],
    ])
    def test_bad_alpha_exits_2(self, command, policy, alpha, capsys):
        argv = [*command, "--cost", "sqrt", "--policy", policy, "--alpha", alpha]
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", "dynbatch: alpha must be positive and finite\n")

    def test_bare_wta_on_a_cost_without_curvature_exits_1(self, capsys, monkeypatch):
        from dynbatch import CustomSetFunction, cli
        f = CustomSetFunction(lambda x: math.nan if len(x) > 3 else math.sqrt(len(x)), 2)
        monkeypatch.setattr(cli, "parse_cost_spec", lambda spec: f)
        assert cli_main(["online", "--arrivals", str(FIXTURE), "--cost", "nan-above-3",
                         "--policy", "wta"]) == 1
        assert capsys.readouterr().err.startswith("dynbatch: curvature undefined: f(X)=")

    def test_missing_file_exits_1(self, capsys):
        assert cli_main(["offline", "--arrivals", "/nonexistent.csv", "--cost", "sqrt"]) == 1
        assert capsys.readouterr().err.strip()

    def test_usage_error_exits_2(self):
        assert cli_main(["offline"]) == 2
        assert cli_main(["frobnicate"]) == 2

    def test_overflowing_cost_exits_1_with_one_line(self, tmp_path, capsys):
        # Two batches of 1e308 each: the sum of their prices overflows.
        p = tmp_path / "two.csv"
        p.write_text("time\n0\n1\n")
        argv = ["online", "--arrivals", str(p), "--cost", "const:1e308", "--policy",
                "fixed-size:1"]
        assert cli_main(argv) == 1
        assert capsys.readouterr() == ("", f"dynbatch: {OVERFLOW}\n")

    def test_field_over_the_csv_limit_exits_1_with_one_line(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text(f"time,feature\n0,0\n1,{BIG_FIELD}\n")
        assert cli_main(["offline", "--arrivals", str(p), "--cost", "sqrt"]) == 1
        assert capsys.readouterr() == ("", f"dynbatch: {p}: line 3: {FIELD_LIMIT}\n")

    def test_oracle_size_cap_exits_1(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        p.write_text("time\n" + "\n".join(str(i) for i in range(25)) + "\n")
        assert cli_main(["oracle", "--arrivals", str(p), "--cost", "sqrt"]) == 1
        assert "oracle size limit" in capsys.readouterr().err
