"""Processing-cost functions over multisets of sample features.

A batch of samples is priced by a function f of the multiset of feature ids
it contains.  Admissible cost functions are normalized (empty multiset costs
0), monotone under multiset inclusion, and subadditive under multiset union.
The curvature

    inf over pairs (X, Y), not both empty, of  f(X u Y) / (f(X) + f(Y))

lies in [1/2, 1] for admissible f; it controls how much is saved by merging
two batches into one and parameterizes both the online guarantee and the
adversarial lower bound implemented elsewhere in this package.

This module is the only one that knows how a batch is priced.  Callers
price every batch of a run of schedules at once with ``batch_costs``, the
one pricer, which takes the count-based shortcut itself where the cost
depends only on the batch size.  The prefixes of a run of samples are
priced by it too, laid end to end as batches of sizes 1, 2, ....

A ``FeatureMultiset`` is validated once, when it is built from a counts
tuple, and that check also sets its ``size``.  ``FeatureMultiset.plus``
adds one sample by sorted insertion, so the multiset it returns is
canonical by construction and is not validated again: the waiting policy
grows one multiset a sample at a time instead of rebuilding it for every
prefix, and the offline solver's set-function windows grow theirs the
same way inline.  A multiset has two slots and no ``__dict__``; a grown
one is made with ``object.__new__`` and the slots' own setters, so
growing costs no dataclass ``__init__`` or frozen ``__setattr__``.

``batch_pairs`` is the one scan over pairs of batches (X, Y) behind
admissibility validation, the curvature search and the adversary's
worst-pair search: every size pair of a count-based cost, or random pairs
of multisets for a set function, with f(X), f(Y) and f(X u Y) as arrays.

Cost functions are immutable and safe to share across worker processes;
``value`` is pure.  The package's argument checks are here too, one per
kind: ``check_whole``, ``check_real`` and ``spec_values``.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

__all__ = [
    "FeatureMultiset",
    "CostFunction",
    "SqrtCount",
    "Log1pCount",
    "CappedLinear",
    "ConstantCost",
    "CountTable",
    "CustomSetFunction",
    "Violation",
    "ValidationReport",
    "CurvatureResult",
    "validate_assumption1",
    "curvature",
    "curvature_info",
    "parse_cost_spec",
    "BUILTIN_COSTS",
]


def check_whole(name: str, value, least: int) -> None:
    """Raise a one-line ValueError unless ``value`` is an integer, not a
    bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer of at least {least}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def check_real(name: str, value: float, positive: bool) -> None:
    """Raise a one-line ValueError unless ``value`` is finite and positive
    (or, with ``positive`` False, non-negative)."""
    if not ((value > 0 if positive else value >= 0) and math.isfinite(value)):
        raise ValueError(f"{name} must be {'positive' if positive else 'non-negative'} and finite")


def spec_values(kind: str, spec: str, prefix: str, *converters: Callable[[str], object]) -> list:
    """The values after ``prefix`` in ``spec``, split on commas and each
    converted by its own one of ``converters``; a wrong count or a rejected
    value is a one-line ValueError naming the ``kind`` of spec and the spec."""
    parts = spec[len(prefix):].split(",")
    if len(parts) != len(converters):
        reason = f"expected {len(converters)} value(s) after {prefix!r}, got {len(parts)}"
        raise ValueError(f"bad {kind} spec {spec!r}: {reason}")
    try:
        return [convert(p) for convert, p in zip(converters, parts)]
    except ValueError as exc:
        raise ValueError(f"bad {kind} spec {spec!r}: {exc}") from None


def spec_number(x: float) -> str:
    """``x`` as a spec writes it: the shortest repr of ``float(x)``, which
    parses back to it, without a trailing ".0"."""
    return repr(float(x)).removesuffix(".0")


@dataclass(frozen=True, slots=True)
class FeatureMultiset:
    """Multiset of feature ids, stored as a sorted (id, multiplicity) tuple.

    The representation is canonical: equal multisets compare and hash equal.
    Validation also sets ``size``, the number of samples.  ``plus`` keeps
    the representation canonical by construction, so a multiset grown one
    sample at a time is never re-validated.  Union adds multiplicities (it
    never deduplicates), so X u X != X.
    """

    counts: tuple[tuple[int, int], ...]
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prev = -1
        size = 0
        for fid, mult in self.counts:
            if fid < 0 or fid <= prev:
                raise ValueError("feature ids must be non-negative, strictly sorted")
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            prev = fid
            size += mult
        object.__setattr__(self, "size", size)

    @staticmethod
    def empty() -> "FeatureMultiset":
        return FeatureMultiset(())

    @staticmethod
    def from_features(features: Iterable[int]) -> "FeatureMultiset":
        c = Counter(features)
        return FeatureMultiset(tuple(sorted(c.items())))

    @staticmethod
    def of_size(size: int) -> "FeatureMultiset":
        """``size`` copies of feature 0 (empty if size is 0)."""
        check_whole("size", size, 0)
        return FeatureMultiset(((0, size),) if size else ())

    def __len__(self) -> int:
        return self.size

    def plus(self, fid: int) -> "FeatureMultiset":
        """This multiset with one more copy of feature ``fid``.

        The new id is inserted at its sorted place, so only it is checked.
        """
        if fid < 0:
            raise ValueError("feature ids must be non-negative, strictly sorted")
        counts = self.counts
        k = bisect_left(counts, (fid,))
        if k < len(counts) and counts[k][0] == fid:
            grown = list(counts)
            grown[k] = (fid, counts[k][1] + 1)
            counts = tuple(grown)
        else:
            counts = counts[:k] + ((fid, 1),) + counts[k:]
        x = object.__new__(FeatureMultiset)
        _set_counts(x, counts)
        _set_size(x, self.size + 1)
        return x

    def union(self, other: "FeatureMultiset") -> "FeatureMultiset":
        c = Counter(dict(self.counts))
        for fid, mult in other.counts:
            c[fid] += mult
        return FeatureMultiset(tuple(sorted(c.items())))


#: Setters of the two slots, past the frozen ``__setattr__``: for multisets
#: canonical by construction, as ``plus`` builds them.
_set_counts = FeatureMultiset.counts.__set__
_set_size = FeatureMultiset.size.__set__


class CostFunction:
    """Base class for batch processing-cost functions.

    ``batch_costs`` is the one pricing entry point.
    Count-based kinds depend only on the batch size; each states its
    formula once, as ``count_value``, and ``count_table`` keeps one
    tabulation of it per cost object.
    """

    count_based: ClassVar[bool] = False
    gamma_hint: float | None = None

    def value(self, x: FeatureMultiset) -> float:
        raise NotImplementedError

    def count_value(self, size: int) -> float:
        raise TypeError(f"{type(self).__name__} is not count-based")

    def count_table(self, top: int) -> np.ndarray:
        """g(0), ..., g(top) as a read-only float array: ``count_value``
        tabulated once per cost object, and again only for a larger size.
        The table is no dataclass field: equality, hashing and repr skip it."""
        g = self.__dict__.get("_count_table")
        if g is None or len(g) <= top:
            g = np.array([self.count_value(k) for k in range(top + 1)], dtype=float)
            g.flags.writeable = False
            object.__setattr__(self, "_count_table", g)
        return g[:top + 1]

    def batch_costs(self, rows: Iterable[Sequence[int]], sizes: np.ndarray) -> np.ndarray:
        """f of each batch, in order, for batches of ``sizes`` samples that
        run through the feature ``rows`` one row after another."""
        features = list(chain.from_iterable(rows))
        ends = np.cumsum(sizes).tolist()
        value, of = self.value, FeatureMultiset.from_features
        return np.array([value(of(features[lo:hi])) for lo, hi in zip([0, *ends], ends)])

    def curvature_exact(self) -> float | None:
        """Analytic curvature when a closed form is known, else
        ``gamma_hint`` (None when unset)."""
        return self.gamma_hint

    def spec_string(self) -> str:
        raise NotImplementedError


class _CountCost(CostFunction):
    count_based: ClassVar[bool] = True

    def value(self, x: FeatureMultiset) -> float:
        return self.count_value(len(x))

    def batch_costs(self, rows: Iterable[Sequence[int]], sizes: np.ndarray) -> np.ndarray:
        # argmax: max's Python wrapper costs more than a small lookup
        return self.count_table(int(sizes[sizes.argmax()]))[sizes]


@dataclass(frozen=True)
class SqrtCount(_CountCost):
    """f(X) = sqrt(|X|)."""

    def count_value(self, size: int) -> float:
        return math.sqrt(size)

    def curvature_exact(self) -> float:
        # inf sqrt(a+b)/(sqrt(a)+sqrt(b)) is attained at a == b.
        return math.sqrt(0.5)

    def spec_string(self) -> str:
        return "sqrt"


@dataclass(frozen=True)
class Log1pCount(_CountCost):
    """f(X) = log(1 + |X|)."""

    def count_value(self, size: int) -> float:
        return math.log1p(size)

    def curvature_exact(self) -> float:
        # log(1+2a)/(2 log(1+a)) decreases to 1/2 as a grows; the infimum
        # is not attained at any finite size, so a numeric scan would
        # overestimate it.  Store the limit.
        return 0.5

    def spec_string(self) -> str:
        return "log1p"


@dataclass(frozen=True)
class CappedLinear(_CountCost):
    """f(X) = min(slope * |X|, cap)."""

    slope: float
    cap: float

    def __post_init__(self) -> None:
        check_real("slope", self.slope, True)
        check_real("cap", self.cap, True)

    def count_value(self, size: int) -> float:
        return float(min(self.slope * size, self.cap))

    def curvature_exact(self) -> float:
        # The cap saturates at every size >= cap/slope, so two saturated
        # halves merge at exactly half their separate cost.
        return 0.5

    def spec_string(self) -> str:
        return f"cap:{spec_number(self.slope)},{spec_number(self.cap)}"


@dataclass(frozen=True)
class ConstantCost(_CountCost):
    """f(X) = c for every non-empty X, and 0 for the empty multiset."""

    c: float

    def __post_init__(self) -> None:
        check_real("constant cost", self.c, False)

    def count_value(self, size: int) -> float:
        return float(self.c) if size > 0 else 0.0

    def curvature_exact(self) -> float | None:
        return 0.5 if self.c > 0 else None

    def spec_string(self) -> str:
        return f"const:{spec_number(self.c)}"


@dataclass(frozen=True)
class CountTable(_CountCost):
    """f(X) = g(|X|) for a user-supplied table g(0), g(1), ...

    Evaluating a batch larger than the table covers is an error; solvers
    must be configured with a table at least as long as the largest batch
    they may form.  The offline solvers only form batches whose arrivals
    span at most g(1), so there the table needs to cover the widest such
    window, not the whole instance.
    """

    values: tuple[float, ...]
    gamma_hint: float | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("cost table must not be empty")
        for v in self.values:
            check_real("cost table entries", v, False)

    def count_value(self, size: int) -> float:
        if size >= len(self.values):
            raise ValueError("cost table too short")
        return float(self.values[size])

    def spec_string(self) -> str:
        return "table:" + ",".join(map(spec_number, self.values))


@dataclass(frozen=True)
class CustomSetFunction(CostFunction):
    """Arbitrary feature-dependent cost given by a user callable.

    ``universe_size`` bounds the feature ids the evaluator understands;
    ``batch_pairs`` samples random multisets over it.
    """

    fn: Callable[[FeatureMultiset], float]
    universe_size: int
    name: str = "custom"
    gamma_hint: float | None = None

    def __post_init__(self) -> None:
        check_whole("universe_size", self.universe_size, 1)

    def value(self, x: FeatureMultiset) -> float:
        return float(self.fn(x))

    def spec_string(self) -> str:
        return self.name


#: The cost functions used throughout the built-in experiment designs.
BUILTIN_COSTS: tuple[CostFunction, ...] = (
    SqrtCount(),
    Log1pCount(),
    CappedLinear(3, 10),
    ConstantCost(1),
)


@dataclass(frozen=True)
class Violation:
    """One failed admissibility check.

    ``condition`` is one of ``"empty-zero"``, ``"monotone"``,
    ``"subadditive"``.  For count-based functions ``sizes`` holds the
    witnessing batch sizes ((a, b) with g(a+b) > g(a)+g(b) for
    subadditivity, (smaller, larger) for monotonicity); for set functions
    the witnessing multisets are described in ``detail``.
    """

    condition: str
    sizes: tuple[int, int] | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    checked_pairs: int

    @property
    def ok(self) -> bool:
        return not self.violations


_SUBADD_TOL = 1e-12


def random_multiset(rng: np.random.Generator, universe_size: int, max_size: int) -> FeatureMultiset:
    """Uniform size in [0, max_size], then that many uniform feature ids."""
    size = int(rng.integers(0, max_size + 1))
    feats = rng.integers(0, universe_size, size=size)
    return FeatureMultiset.from_features(int(v) for v in feats)


def size_pairs(f: CostFunction, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every size pair 1 <= a <= b with a + b <= limit, in ascending (a, b)
    order, and the count-based ``f``'s ``count_table(limit)``, g[k] = f(k).

    A ``CountTable`` clamps ``limit`` to the last size its table covers."""
    if isinstance(f, CountTable):
        limit = min(limit, len(f.values) - 1)
    g = f.count_table(limit)
    a, b = np.triu_indices(limit + 1)
    keep = (a >= 1) & (a + b <= limit)
    return a[keep], b[keep], g


def batch_pairs(
    f: CostFunction, max_size: int, samples: int, seed: int, universe_size: int | None = None
) -> tuple[list[FeatureMultiset], list[FeatureMultiset], np.ndarray, np.ndarray, np.ndarray]:
    """Pairs of batches (X, Y) with f(X), f(Y) and f(X u Y) as float arrays.

    For a count-based ``f`` the pairs are ``size_pairs(f, max_size)``, as
    multisets of feature 0; ``samples`` and ``seed`` are unused.  For a set
    function they are ``samples`` pairs of ``random_multiset`` draws, X
    then Y, over ``universe_size`` features (default ``f.universe_size``).
    """
    if f.count_based:
        a, b, g = size_pairs(f, max_size)
        of_size = [FeatureMultiset.of_size(k) for k in range(len(g))]
        return ([of_size[k] for k in a.tolist()], [of_size[k] for k in b.tolist()],
                g[a], g[b], g[a + b])
    universe = getattr(f, "universe_size", None) if universe_size is None else universe_size
    if universe is None:
        raise ValueError(f"{type(f).__name__} is not count-based and has no universe_size "
                         "to sample feature ids from")
    rng = np.random.default_rng(seed)
    pairs = [(random_multiset(rng, universe, max_size), random_multiset(rng, universe, max_size))
             for _ in range(samples)]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    return (xs, ys, np.array([f.value(x) for x in xs], dtype=float),
            np.array([f.value(y) for y in ys], dtype=float),
            np.array([f.value(x.union(y)) for x, y in pairs], dtype=float))


def pair_ratios(pairs, top: np.ndarray, bottom: np.ndarray, picked: np.ndarray,
                what: str) -> np.ndarray:
    """top / bottom at the ``picked`` pairs of ``batch_pairs`` output
    ``pairs``; a NaN ratio, of ``what``, is a one-line ValueError naming the
    first such pair."""
    with np.errstate(invalid="ignore"):
        ratios = top[picked] / bottom[picked]
    nan = picked[np.isnan(ratios)]
    if nan.size:
        xs, ys, fx, fy, fu = pairs
        i = nan[0]
        raise ValueError(f"{what} undefined: f(X)={float(fx[i])!r}, f(Y)={float(fy[i])!r} and "
                         f"f(X u Y)={float(fu[i])!r} give a NaN ratio for X={xs[i].counts}, "
                         f"Y={ys[i].counts}")
    return ratios


def validate_assumption1(
    f: CostFunction,
    universe_size: int | None = None,
    max_batch: int = 64,
    samples: int = 200,
    seed: int = 0,
) -> ValidationReport:
    """Check normalization, monotonicity, and subadditivity of ``f``.

    Count-based kinds are checked exhaustively for batch sizes up to
    ``max_batch``; set functions are checked on ``samples`` random multiset
    pairs drawn from ``universe_size`` features (default: the function's
    own universe).  Violations are report contents, never exceptions.
    """
    check_whole("max_batch", max_batch, 1)
    violations: list[Violation] = []
    checked = 0

    empty_val = f.value(FeatureMultiset.empty())
    checked += 1
    if empty_val != 0.0:
        violations.append(Violation("empty-zero", detail=f"f(empty) = {empty_val!r}"))

    if f.count_based:
        a, b, g = size_pairs(f, max_batch)
        checked += len(g) - 1 + a.size
        gv = g.tolist()  # Python floats, so details print as plain reprs
        for k in np.flatnonzero(g[:-1] > g[1:] + _SUBADD_TOL).tolist():
            violations.append(Violation("monotone", sizes=(k, k + 1),
                                        detail=f"g({k})={gv[k]!r} > g({k + 1})={gv[k + 1]!r}"))
        bad = g[a + b] > g[a] + g[b] + _SUBADD_TOL
        for x, y in zip(a[bad].tolist(), b[bad].tolist()):
            violations.append(Violation("subadditive", sizes=(x, y),
                                        detail=f"g({x + y})={gv[x + y]!r} > g({x})+g({y})"))
    else:
        xs, ys, fx, fy, fu = batch_pairs(f, max_batch, samples, seed, universe_size)
        checked += 2 * len(xs)
        # written as "not within bounds", so a NaN value is a violation
        sub = ~(fu <= fx + fy + _SUBADD_TOL * np.maximum(1.0, fx + fy))
        mono = ~(fx <= fu + _SUBADD_TOL * np.maximum(1.0, fu))
        for i in np.flatnonzero(sub | mono).tolist():
            x, y, vx, vy, vu = xs[i], ys[i], float(fx[i]), float(fy[i]), float(fu[i])
            if sub[i]:
                violations.append(Violation("subadditive", sizes=(len(x), len(y)),
                                            detail=f"f({x.counts} u {y.counts}) = {vu!r} > {vx!r} + {vy!r}"))
            if mono[i]:
                violations.append(Violation("monotone", sizes=(len(x), len(x) + len(y)),
                                            detail=f"f({x.counts}) = {vx!r} > f(union) = {vu!r}"))
    return ValidationReport(tuple(violations), checked)


@dataclass(frozen=True)
class CurvatureResult:
    value: float
    exact: bool
    #: True when the value came from a finite search or sampling and is
    #: therefore only an upper bound on the true infimum.
    upper_bound_only: bool


def curvature_info(
    f: CostFunction,
    max_batch: int = 64,
    samples: int = 2000,
    seed: int = 0,
) -> CurvatureResult:
    """Curvature of ``f``: inf f(X u Y) / (f(X) + f(Y)) over pairs.

    Closed forms and ``gamma_hint`` are returned exactly.  For count tables
    the infimum is searched over all size pairs within ``max_batch``; for
    set functions it is estimated from random pairs.  Finite searches can
    only overestimate the infimum, so such results are flagged.
    """
    check_whole("max_batch", max_batch, 2)

    exact = f.curvature_exact()
    if exact is not None:
        return CurvatureResult(exact, exact=True, upper_bound_only=False)

    pairs = batch_pairs(f, max_batch, samples, seed)
    xs, ys, fx, fy, fu = pairs
    denom = fx + fy
    # two empty batches, a 0/0 pair or a zero denominator beside a
    # monotonicity violation (reported by the validator) say nothing
    some_sample = np.array([bool(x.counts or y.counts) for x, y in zip(xs, ys)], dtype=bool)
    informative = some_sample & (denom != 0.0)
    if not informative.any():
        if not f.count_based:
            raise ValueError("curvature undefined: all sampled pairs were degenerate")
        # g over the whole range, even where the table leaves no size pair
        if not size_pairs(f, max_batch)[2].any():
            raise ValueError("curvature undefined: cost is identically zero on the search range")
        raise ValueError("curvature undefined: no informative size pair in range")
    ratios = pair_ratios(pairs, fu, denom, np.flatnonzero(informative), "curvature")
    best = float(np.min(ratios))
    return CurvatureResult(_clamp_curvature(best), exact=False, upper_bound_only=True)


def _clamp_curvature(value: float) -> float:
    if value < 0.5 - 1e-12 or value > 1.0 + 1e-12:
        warnings.warn(
            f"curvature search returned {value!r} outside [1/2, 1]; "
            "the cost function violates the admissibility conditions",
            stacklevel=3,
        )
    return min(max(value, 0.5), 1.0)


def curvature(f: CostFunction, max_batch: int = 64, samples: int = 2000, seed: int = 0) -> float:
    return curvature_info(f, max_batch=max_batch, samples=samples, seed=seed).value


def parse_cost_spec(spec: str) -> CostFunction:
    """Parse a cost spec string.

    Accepted forms: ``sqrt``, ``log1p``, ``cap:<slope>,<cap>``,
    ``const:<c>``, ``table:<path>`` where the file holds newline-separated
    values g(0), g(1), ...
    """
    spec = spec.strip()
    if spec == "sqrt":
        return SqrtCount()
    if spec == "log1p":
        return Log1pCount()
    if spec.startswith("cap:"):
        return CappedLinear(*spec_values("cost", spec, "cap:", float, float))
    if spec.startswith("const:"):
        return ConstantCost(*spec_values("cost", spec, "const:", float))
    if spec.startswith("table:"):
        path = Path(spec[len("table:"):])
        values = []
        # read_text turns "\r\n" and "\r" into "\n"; no other character ends a
        # line.  A leading UTF-8 byte-order mark is dropped.
        for ln, text in enumerate(path.read_text(encoding="utf-8-sig").split("\n"), start=1):
            if not text.strip():
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError(f"{path}: line {ln}: bad cost table entry {text!r}") from None
        return CountTable(tuple(values))
    raise ValueError(f"unknown cost spec {spec!r}")
