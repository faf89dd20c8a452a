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
price a batch from its samples' feature ids with ``batch_cost``, every
batch of a run of schedules at once with ``batch_costs``, or every prefix
of a run of samples at once with ``prefix_costs``; all three take the
count-based shortcut themselves where the cost depends only on the batch
size.

A ``FeatureMultiset`` is validated once, when it is built from a counts
tuple, and that check also sets its ``size``.  ``FeatureMultiset.plus``
adds one sample by sorted insertion, so the multiset it returns is
canonical by construction and is not validated again: ``prefix_costs``
and the waiting policy grow one multiset a sample at a time instead of
rebuilding it for every prefix, and the offline solver's set-function
windows grow theirs the same way inline.  A multiset has two slots and no
``__dict__``; a grown one is made with ``object.__new__`` and the slots'
own setters, so growing costs no dataclass ``__init__`` or frozen
``__setattr__``.

``batch_pairs`` is the one scan over pairs of batches (X, Y) behind
admissibility validation, the curvature search and the adversary's
worst-pair search: every size pair of a count-based cost, or random pairs
of multisets for a set function, with f(X), f(Y) and f(X u Y) as arrays.

Cost functions are immutable and safe to share across worker processes;
``value`` is pure.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
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
    def of_size(size: int, feature: int = 0) -> "FeatureMultiset":
        """``size`` copies of a single feature id (empty if size is 0)."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return FeatureMultiset(((feature, size),) if size else ())

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

    def contains(self, other: "FeatureMultiset") -> bool:
        """True if ``other`` is a sub-multiset of self."""
        mine = dict(self.counts)
        return all(mine.get(fid, 0) >= mult for fid, mult in other.counts)


#: Setters of the two slots, past the frozen ``__setattr__``: for multisets
#: canonical by construction, as ``plus`` builds them.
_set_counts = FeatureMultiset.counts.__set__
_set_size = FeatureMultiset.size.__set__


class CostFunction:
    """Base class for batch processing-cost functions.

    ``batch_cost``, ``batch_costs`` and ``prefix_costs`` are the pricing
    entry points.  Count-based kinds depend only on the batch size; each
    states its formula once, as ``count_value``; ``count_values``
    tabulates it over an array of sizes, and ``count_table`` keeps one such
    table per cost object.
    """

    count_based: ClassVar[bool] = False
    gamma_hint: float | None = None

    def value(self, x: FeatureMultiset) -> float:
        raise NotImplementedError

    def count_value(self, size: int) -> float:
        raise TypeError(f"{type(self).__name__} is not count-based")

    def count_values(self, sizes: np.ndarray) -> np.ndarray:
        """``count_value`` of each size, as a float array."""
        return np.array([self.count_value(k) for k in np.asarray(sizes).tolist()], dtype=float)

    def count_table(self, top: int) -> np.ndarray:
        """g(0), ..., g(top) as a read-only float array: ``count_values``
        tabulated once per cost object, and again only for a larger size.
        The table is no dataclass field: equality, hashing and repr skip it."""
        g = self.__dict__.get("_count_table")
        if g is None or len(g) <= top:
            g = self.count_values(np.arange(top + 1))
            g.flags.writeable = False
            object.__setattr__(self, "_count_table", g)
        return g[:top + 1]

    def batch_cost(self, features: Sequence[int]) -> float:
        """f of the batch of samples with these feature ids."""
        return self.value(FeatureMultiset.from_features(features))

    def batch_costs(self, rows: Iterable[Sequence[int]], sizes: np.ndarray) -> np.ndarray:
        """f of each batch, in order, for batches of ``sizes`` samples that
        run through the feature ``rows`` one row after another."""
        features = list(chain.from_iterable(rows))
        ends = np.cumsum(sizes).tolist()
        return np.array([self.batch_cost(features[lo:hi]) for lo, hi in zip([0, *ends], ends)])

    def prefix_costs(self, features: Sequence[int]) -> np.ndarray:
        """f of each prefix features[:1], features[:2], ..., in order, each
        prefix's multiset grown from the one before by ``plus``."""
        value = self.value
        prefixes = accumulate(features, FeatureMultiset.plus, initial=FeatureMultiset.empty())
        next(prefixes)
        return np.fromiter((value(x) for x in prefixes), dtype=float)

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

    def batch_cost(self, features: Sequence[int]) -> float:
        return self.count_value(len(features))

    def batch_costs(self, rows: Iterable[Sequence[int]], sizes: np.ndarray) -> np.ndarray:
        # argmax: max's Python wrapper costs more than a small lookup
        return self.count_table(int(sizes[sizes.argmax()]))[sizes]

    def prefix_costs(self, features: Sequence[int]) -> np.ndarray:
        return self.count_values(np.arange(1, len(features) + 1))


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
        if not (self.slope > 0 and math.isfinite(self.slope)):
            raise ValueError("slope must be positive and finite")
        if not (self.cap > 0 and math.isfinite(self.cap)):
            raise ValueError("cap must be positive and finite")

    def count_value(self, size: int) -> float:
        return float(min(self.slope * size, self.cap))

    def curvature_exact(self) -> float:
        # The cap saturates at every size >= cap/slope, so two saturated
        # halves merge at exactly half their separate cost.
        return 0.5

    def spec_string(self) -> str:
        return f"cap:{self.slope:g},{self.cap:g}"


@dataclass(frozen=True)
class ConstantCost(_CountCost):
    """f(X) = c for every non-empty X, and 0 for the empty multiset."""

    c: float

    def __post_init__(self) -> None:
        if self.c < 0 or not math.isfinite(self.c):
            raise ValueError("constant cost must be non-negative and finite")

    def count_value(self, size: int) -> float:
        return float(self.c) if size > 0 else 0.0

    def curvature_exact(self) -> float | None:
        return 0.5 if self.c > 0 else None

    def spec_string(self) -> str:
        return f"const:{self.c:g}"


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
        if any(v < 0 or not math.isfinite(v) for v in self.values):
            raise ValueError("cost table entries must be non-negative and finite")

    def count_value(self, size: int) -> float:
        if size >= len(self.values):
            raise ValueError("cost table too short")
        return float(self.values[size])

    def spec_string(self) -> str:
        return "table:" + ",".join(f"{v:g}" for v in self.values)


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
        if self.universe_size < 1:
            raise ValueError("universe_size must be at least 1")

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
    order, and the count-based ``f`` tabulated as g[k] = f(k), k <= limit.

    A ``CountTable`` clamps ``limit`` to the last size its table covers."""
    if isinstance(f, CountTable):
        limit = min(limit, len(f.values) - 1)
    g = f.count_values(np.arange(limit + 1))
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
    if max_batch < 1:
        raise ValueError("max_batch must be at least 1")
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
    if max_batch < 2:
        raise ValueError("max_batch must be at least 2")

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
        parts = spec[len("cap:"):].split(",")
        if len(parts) != 2:
            raise ValueError(f"bad cost spec {spec!r}: expected cap:<slope>,<cap>")
        return CappedLinear(float(parts[0]), float(parts[1]))
    if spec.startswith("const:"):
        return ConstantCost(float(spec[len("const:"):]))
    if spec.startswith("table:"):
        path = Path(spec[len("table:"):])
        lines = [ln.strip() for ln in path.read_text().splitlines()]
        values = tuple(float(ln) for ln in lines if ln)
        return CountTable(values)
    raise ValueError(f"unknown cost spec {spec!r}")
