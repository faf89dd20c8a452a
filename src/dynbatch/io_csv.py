"""CSV file formats: arrival instances, study results, adversary reports.

All floats are written with Python's shortest round-tripping repr, so a
write/read cycle reproduces records exactly.  Arrivals are written in one
streamed pass, as the floats and integers that load back, and numpy reads
them back from the file in chunks, holding no body string or line list.
"""

from __future__ import annotations

import csv
import math
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .instance import ProblemInstance
from .sim import TrialRecord

if TYPE_CHECKING:
    from .adversary import AdversaryConfig, AdversaryReport

__all__ = [
    "load_arrivals",
    "save_arrivals",
    "write_results",
    "read_results",
    "write_adversary_report",
    "RESULTS_HEADER",
]

RESULTS_HEADER = ["trial", "seed", "n", "policy", "alpha", "J", "W", "F", "J_opt", "ratio"]
#: The type of each results column; ``read_results`` reads an empty alpha as None.
_RESULTS_TYPES = (str, int, int, str, float, float, float, float, float, float)

ADVERSARY_HEADER = [
    "policy", "cost", "rounds", "epsilon", "n", "J", "W", "F",
    "odd_cost", "even_cost", "opt_upper", "opt_exact",
    "ratio_vs_avg", "ratio_vs_exact", "limit_bound", "split_waves",
]


def load_arrivals(path: str | Path) -> ProblemInstance:
    """Load an arrivals CSV: header ``time[,feature]``, one sample per row.

    Rows are stably sorted by time if needed (with a warning), so equal
    times keep their file order.  Times are taken as given, never rebased.
    The body is parsed in one ``np.loadtxt`` call, reading the file in one
    pass, if every row is a plain ``time,feature`` pair of valid values;
    any other body (quoted fields, blank features, time-only rows, bad
    values), or a pipe or ``.gz``-like name, is read row by row, which
    gives the same instance or raises with the bad row's line number.  A
    UTF-8 byte-order mark, as spreadsheets write one, is skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            _, header = next(_rows(path, reader))
        except StopIteration:
            raise ValueError(f"{path}: empty arrivals file") from None
        cols = [c.strip().lower() for c in header]
        if not cols or cols[0] != "time" or (len(cols) > 1 and cols[1] != "feature"):
            raise ValueError(f"{path}: line 1: expected header 'time[,feature]', got {header!r}")
        rows = _parsed(path, reader.line_num)
        if rows is None:
            # The body starts on the line after the header's last physical line.
            times, features = _read_rows(path, fh, 1 + reader.line_num)
            t = np.array(times)
        else:
            t, features = rows["t"], rows["f"].tolist()
    if (t[1:] < t[:-1]).any():
        warnings.warn(f"{path}: arrivals not sorted by time; sorting", stacklevel=2)
        order = np.argsort(t, kind="stable")
        t, features = t[order], [features[i] for i in order.tolist()]
    return ProblemInstance(t, tuple(features))


def _rows(path: Path, reader, first: int = 1) -> Iterator[tuple[int, list[str]]]:
    """The rows that the ``csv.reader`` ``reader`` reads, line ``first`` of
    ``path`` on, each with the physical line it starts on, which a quoted
    line break puts past its record number: a row the reader rejects, such
    as one with a field over its size limit, is a one-line ValueError naming
    the file and the line."""
    line = first
    try:
        for row in reader:
            yield line, row
            line = first + reader.line_num
    except csv.Error as exc:
        raise ValueError(f"{path}: line {first + reader.line_num - 1}: {exc}") from None


def _parsed(path: Path, header_lines: int) -> np.ndarray | None:
    """The rows after the first ``header_lines`` lines of ``path``, parsed
    in one ``np.loadtxt`` call that reads the file in chunks, or None unless
    each is a ``time,feature`` pair of valid values.  None too for a pipe,
    which numpy would open again, or a name it would decompress by suffix."""
    if path.suffix in (".bz2", ".gz", ".lzma", ".xz") or not path.is_file():
        return None
    try:
        # numpy 1.x parses "2.0" as the integer 2 with a DeprecationWarning,
        # and an empty body warns.  Lines end at "\r", "\n" or "\r\n", as for csv.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(path, delimiter=",", comments=None, skiprows=header_lines,
                              encoding="utf-8-sig", dtype=[("t", float), ("f", np.int64)],
                              ndmin=1)
    except (ValueError, Warning):
        return None
    t, f = rows["t"], rows["f"]
    return rows if rows.size and np.isfinite(t).all() and t.min() >= 0 and f.min() >= 0 else None


def _read_rows(path: Path, fh, first: int) -> tuple[list[float], list[int]]:
    """The times and feature ids of the rows that the text file ``fh``,
    opened with ``newline=""``, holds from line ``first`` of ``path`` on,
    in file order, read one at a time: a malformed row raises with its
    line number."""
    times: list[float] = []
    features: list[int] = []
    for ln, row in _rows(path, csv.reader(fh), first):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            t = float(row[0])
        except ValueError:
            raise ValueError(f"{path}: line {ln}: bad time {row[0]!r}") from None
        if not math.isfinite(t) or t < 0:
            raise ValueError(f"{path}: line {ln}: time must be finite and non-negative, got {row[0]!r}")
        feature = 0
        if len(row) > 1 and row[1].strip():
            try:
                feature = int(row[1])
            except ValueError:
                raise ValueError(f"{path}: line {ln}: bad feature {row[1]!r}") from None
            if feature < 0:
                raise ValueError(f"{path}: line {ln}: feature must be non-negative")
        times.append(t)
        features.append(feature)
    if not times:
        raise ValueError(f"{path}: empty arrivals file")
    return times, features


def save_arrivals(inst: ProblemInstance, path: str | Path) -> None:
    """The instance as ``csv.writer`` rows, streamed in one pass: each time
    as its float's repr and each feature as an integer, so that a bool or a
    numpy number loads back too; neither needs quoting."""
    with Path(path).open("w", newline="") as fh:
        fh.write("time,feature\r\n")
        fh.writelines(f"{t!r},{int(v)}\r\n"
                      for t, v in zip(inst.times.tolist(), inst.features))


def _quoted(field: str) -> str:
    """``field`` as ``csv.writer`` writes it: quoted if it holds a comma, a
    quote or a line break, with each quote doubled."""
    if "," in field or '"' in field or "\r" in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def write_results(records: Sequence[TrialRecord], path: str | Path) -> None:
    """The records as ``csv.writer`` rows, floats by repr and alpha None as
    an empty field, written at once.  A trial's records share its label and
    ``J_opt`` objects, formatted once per trial; each (policy, alpha object)
    pair is formatted once, since -0.0 == 0.0."""
    labels: dict = {}
    last_trial = last_J_opt = None
    lines = [",".join(RESULTS_HEADER)]
    for trial, seed, n, policy, alpha, J, W, F, J_opt, ratio in records:
        if trial is not last_trial:
            last_trial, trial_s = trial, _quoted(trial)
        if J_opt is not last_J_opt:
            last_J_opt, J_opt_s = J_opt, repr(J_opt)
        label = labels.get((policy, id(alpha)))
        if label is None:
            alpha_s = "" if alpha is None else _quoted(repr(alpha))
            label = labels[policy, id(alpha)] = f"{_quoted(policy)},{alpha_s}"
        lines.append(f"{trial_s},{seed},{n},{label},{J!r},{W!r},{F!r},{J_opt_s},{ratio!r}")
    lines.append("")
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines))


def read_results(path: str | Path) -> list[TrialRecord]:
    """The records of a results CSV; a UTF-8 byte-order mark is skipped.  A
    bad row is a ValueError naming the file and its physical line."""
    path = Path(path)
    records = []
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = _rows(path, csv.reader(fh))
        _, header = next(reader, (1, None))
        if header != RESULTS_HEADER:
            raise ValueError(f"{path}: unexpected results header {header!r}")
        for ln, row in reader:
            if not row:
                continue
            if len(row) != len(RESULTS_HEADER):
                raise ValueError(f"{path}: line {ln}: expected {len(RESULTS_HEADER)} columns")
            fields = []
            for column, kind, field in zip(RESULTS_HEADER, _RESULTS_TYPES, row):
                try:
                    fields.append(None if column == "alpha" and not field else kind(field))
                except ValueError:
                    raise ValueError(f"{path}: line {ln}: bad {column} {field!r}") from None
            records.append(TrialRecord(*fields))
    return records


def write_adversary_report(
    report: AdversaryReport,
    cfg: AdversaryConfig,
    policy_spec: str,
    cost_spec: str,
    path: str | Path,
) -> None:
    """Write the report as a single CSV row (plus header)."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ADVERSARY_HEADER)
        w.writerow([
            policy_spec, cost_spec, cfg.rounds, repr(report.epsilon), report.instance.n,
            repr(report.alg_cost.total), repr(report.alg_cost.waiting), repr(report.alg_cost.processing),
            repr(report.odd_cost), repr(report.even_cost),
            repr(report.opt_upper), repr(report.opt_exact),
            repr(report.ratio_vs_avg), repr(report.ratio_vs_exact),
            repr(report.limit_bound), report.split_waves,
        ])
