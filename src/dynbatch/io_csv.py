"""CSV file formats: arrival instances, study results, adversary reports.

All floats are written with Python's shortest round-tripping repr, so a
write/read cycle reproduces records exactly.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .adversary import AdversaryConfig, AdversaryReport
from .instance import ProblemInstance
from .sim import TrialRecord

__all__ = [
    "load_arrivals",
    "save_arrivals",
    "write_results",
    "read_results",
    "write_adversary_report",
    "RESULTS_HEADER",
]

RESULTS_HEADER = ["trial", "seed", "n", "policy", "alpha", "J", "W", "F", "J_opt", "ratio"]

ADVERSARY_HEADER = [
    "policy", "cost", "rounds", "epsilon", "n", "J", "W", "F",
    "odd_cost", "even_cost", "opt_upper", "opt_exact",
    "ratio_vs_avg", "ratio_vs_exact", "limit_bound", "split_waves",
]


def load_arrivals(path: str | Path) -> ProblemInstance:
    """Load an arrivals CSV: header ``time[,feature]``, one sample per row.

    Rows are stably sorted by time if needed (with a warning), so equal
    times keep their file order.  Times are taken as given, never rebased.
    The body is parsed in one ``np.loadtxt`` call if every row is a plain
    ``time,feature`` pair of valid values; any other body (quoted fields,
    blank features, time-only rows, bad values) is read row by row, which
    gives the same instance or raises with the bad row's line number.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty arrivals file") from None
        cols = [c.strip().lower() for c in header]
        if not cols or cols[0] != "time" or (len(cols) > 1 and cols[1] != "feature"):
            raise ValueError(f"{path}: line 1: expected header 'time[,feature]', got {header!r}")
        body = fh.read()
    rows = _parsed(body)
    if rows is None:
        times, features = _read_rows(path, body)
        t = np.array(times)
    else:
        # Copies out of the parsed rows, so the instance holds no view of them.
        t, features = rows["t"].copy(), rows["f"].tolist()
    if (t[1:] < t[:-1]).any():
        warnings.warn(f"{path}: arrivals not sorted by time; sorting", stacklevel=2)
        order = np.argsort(t, kind="stable")
        t, features = t[order], [features[i] for i in order.tolist()]
    return ProblemInstance._of_array(t, tuple(features))


def _parsed(body: str) -> np.ndarray | None:
    """The rows after the header, parsed in one ``np.loadtxt`` call, or None
    unless each is a ``time,feature`` pair of valid values."""
    try:
        # numpy 1.x parses "2.0" as the integer 2 with a DeprecationWarning,
        # and an empty body warns.  Lines end at "\n" alone, as for csv.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(body.split("\n"), delimiter=",", comments=None,
                              dtype=[("t", float), ("f", np.int64)], ndmin=1)
    except (ValueError, Warning):
        return None
    t, f = rows["t"], rows["f"]
    return rows if rows.size and np.isfinite(t).all() and t.min() >= 0 and f.min() >= 0 else None


def _read_rows(path: Path, body: str) -> tuple[list[float], list[int]]:
    """The times and feature ids of the rows after the header, in file
    order, read one at a time: a malformed row raises with its line number."""
    times: list[float] = []
    features: list[int] = []
    for ln, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
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
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "feature"])
        for t, v in zip(inst.times, inst.features):
            w.writerow([repr(t), v])


def _quoted(field: str) -> str:
    """``field`` as ``csv.writer`` writes it: quoted if it holds a comma, a
    quote or a line break, with each quote doubled."""
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def write_results(records: Sequence[TrialRecord], path: str | Path) -> None:
    """The records as ``csv.writer`` rows, floats by repr and alpha None as
    an empty field, written at once.  A trial's records share its label and
    ``J_opt`` objects, formatted once per trial; each (policy, alpha object)
    pair is formatted once, since -0.0 == 0.0."""
    labels: dict = {}
    trial = J_opt = None
    lines = [",".join(RESULTS_HEADER)]
    for r in records:
        if r.trial is not trial:
            trial, trial_s = r.trial, _quoted(r.trial)
        if r.J_opt is not J_opt:
            J_opt, J_opt_s = r.J_opt, repr(r.J_opt)
        label = labels.get((r.policy, id(r.alpha)))
        if label is None:
            alpha = "" if r.alpha is None else _quoted(repr(r.alpha))
            label = labels[r.policy, id(r.alpha)] = f"{_quoted(r.policy)},{alpha}"
        lines.append(f"{trial_s},{r.seed},{r.n},{label},{r.J!r},{r.W!r},{r.F!r},{J_opt_s},"
                     f"{r.ratio!r}")
    lines.append("")
    with Path(path).open("w", newline="") as fh:
        fh.write("\r\n".join(lines))


def read_results(path: str | Path) -> list[TrialRecord]:
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ValueError(f"{path}: unexpected results header {header!r}")
        for ln, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RESULTS_HEADER):
                raise ValueError(f"{path}: line {ln}: expected {len(RESULTS_HEADER)} columns")
            records.append(TrialRecord(
                trial=row[0], seed=int(row[1]), n=int(row[2]), policy=row[3],
                alpha=float(row[4]) if row[4] else None,
                J=float(row[5]), W=float(row[6]), F=float(row[7]),
                J_opt=float(row[8]), ratio=float(row[9])))
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
