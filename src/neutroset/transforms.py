"""Whole-set transformations that restrain triplet components to tighter families.

Two rescalings are implemented: division by the set-wide sum of component
suprema (producing sum <= 1 components plus a per-element refusal) and
division by each element's own component sum (producing sum = 1 components).
Divergence reports make the non-commutation of transform and aggregation
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from numbers import Real
from operator import itemgetter
from typing import Iterable, Mapping

from neutroset.core import (
    ABS_TOL,
    DegenerateInputError,
    IntervalValue,
    Triplet,
    UnitValue,
    UsageError,
    _is_real,
    inf_of,
    leftover,
    scalar_of,
    sup_of,
)
from neutroset.families import FamilyKind, FamilySpec, _first_outside, validate


def _check_shape(universe: tuple, rows) -> None:
    """Refuse a universe that does not name each row once: a set's shape, checked before its rows."""
    if len(universe) != len(rows):
        raise UsageError(f"{len(universe)} element names but {len(rows)} triplets")
    if len(set(universe)) != len(universe):
        raise UsageError("universe contains duplicate element names")
    if not universe:
        raise UsageError("universe is empty")


@dataclass(frozen=True, init=False, eq=False)
class LabeledSet:
    """An ordered universe of named elements with one triplet each, tagged by family.

    ``rows`` holds each element as the tuple ``Triplet.components()`` gives;
    ``triplets`` is a view of the rows, built when first read. A set has two
    builders: the constructor over Triplets, which have range-checked their
    components, and ``_of_ranged`` over rows whose components are known to be
    in range. Both test every row against the family.
    """

    universe: tuple[str, ...]
    triplets: tuple[Triplet, ...]
    family: FamilySpec

    def __init__(self, universe, triplets, family: FamilySpec):
        triplets = tuple(triplets)
        # a Triplet has range-checked its components
        rows = tuple(map(_components, triplets))
        self._build(universe, rows, family, any(isinstance(c, IntervalValue) for row in rows for c in row))
        self.__dict__["triplets"] = triplets  # the view, already at hand

    @classmethod
    def _of_ranged(cls, universe, rows, family: FamilySpec, has_intervals: bool) -> "LabeledSet":
        """A set of rows as ``Triplet.components()`` gives them, each component known to be in range.

        ``has_intervals`` tells whether any row holds an interval. The shape is checked, then the rows
        against ``family``, with the errors the constructor raises.
        """
        s = object.__new__(cls)
        s._build(universe, rows, family, has_intervals)
        return s

    def _build(self, universe, rows, family: FamilySpec, has_intervals: bool) -> None:
        # the shape, then membership: the order in which building the set from Triplets fails
        object.__setattr__(self, "universe", tuple(universe))
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "_has_intervals", has_intervals)
        _check_shape(self.universe, self.rows)
        k = _first_outside(self._sup_rows(), family)
        if k >= 0:
            scalars = tuple(map(float, _scalars(self.rows[k])))
            raise UsageError(f"element {self.universe[k]!r} {scalars} is not valid under {family.describe()}")

    @cached_property
    def triplets(self) -> tuple[Triplet, ...]:
        return tuple(Triplet(*row) for row in self.rows)

    def scalar_rows(self) -> Iterable[tuple]:
        """Each element's ``Triplet.scalars()``, computed as they are read."""
        return map(_scalars, self.rows) if self._has_intervals else self.rows

    def _sup_rows(self) -> list | tuple:
        """Each element's components by their suprema."""
        return [tuple(map(sup_of, row)) for row in self.rows] if self._has_intervals else self.rows

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.universe, self.rows, self.family) == (other.universe, other.rows, other.family)

    def __hash__(self):
        return hash((self.universe, self.rows, self.family))

    @classmethod
    def from_mapping(cls, elements: Mapping[str, Iterable], family: FamilySpec) -> "LabeledSet":
        names = tuple(elements)
        trips = tuple(Triplet(*elements[n]) for n in names)
        return cls(names, trips, family)

    def element(self, name: str) -> Triplet:
        try:
            return self.triplets[self.universe.index(name)]
        except ValueError:
            raise UsageError(f"no element named {name!r}") from None


def _components(t) -> tuple:
    if not isinstance(t, Triplet):
        raise UsageError(f"set elements must be Triplets, got {type(t).__name__}")
    return t.components()


def _scalars(row: tuple) -> tuple:
    """``Triplet(*row).scalars()``: degenerate intervals collapse, others raise."""
    return tuple(map(scalar_of, row))


def _require_same_universe(a: LabeledSet, b: LabeledSet) -> None:
    """Refuse two sets that do not name the same elements in the same order."""
    if a.universe != b.universe:
        raise UsageError(f"universe mismatch: {list(a.universe)} vs {list(b.universe)}")


def _divided(s: LabeledSet, denominators: Iterable[Real]) -> list:
    """Each row of ``s`` over its own denominator; intervals divide endpoint by endpoint.

    Each denominator is a positive sum of suprema that holds every component of its row. Sums and
    quotients round monotonically, so each quotient stays in [0, 1]: the callers' sets skip the range pass.
    """
    if s._has_intervals:
        return [tuple(IntervalValue(c.lo / d, c.hi / d) if isinstance(c, IntervalValue) else c / d for c in row)
                for row, d in zip(s.rows, denominators)]
    return [(t / d, i / d, f / d) for (t, i, f), d in zip(s.rows, denominators)]


@dataclass(frozen=True)
class SupTransformResult:
    """Sup-rescaled set plus the refusal degree left over for each element."""

    labeled: LabeledSet
    refusals: tuple[UnitValue, ...]
    denominator: Real


def sup_transform(s: LabeledSet) -> SupTransformResult:
    """Divide every component by the set-wide sum of component suprema.

    The output validates with component sums <= 1; each element's refusal is
    what its rescaled components leave short of 1. Requires a nonzero
    sup-sum across the universe.
    """
    sups = s._sup_rows()
    denom = max(map(itemgetter(0), sups)) + max(map(itemgetter(1), sups)) + max(map(itemgetter(2), sups))
    if denom <= ABS_TOL:
        raise DegenerateInputError("set-wide supremum sum is zero; nothing to rescale")
    rows = _divided(s, repeat(denom))
    labeled = LabeledSet._of_ranged(s.universe, rows, FamilySpec(FamilyKind.IIFS), s._has_intervals)
    refusals = tuple(UnitValue(leftover(0 + t + i + f)) for t, i, f in labeled._sup_rows())
    return SupTransformResult(labeled=labeled, refusals=refusals, denominator=denom)


def normalize_elementwise(s: LabeledSet) -> LabeledSet:
    """Divide each element's components by that element's own component sum.

    Every output element sums to 1 (a fixed point for inputs already doing
    so); elements whose components are all zero are rejected by name.
    """
    totals = [0 + t + i + f for t, i, f in s._sup_rows()]
    for name, total in zip(s.universe, totals):
        if total <= ABS_TOL:
            raise DegenerateInputError(f"element {name!r} has zero component sum; cannot normalize")
    return LabeledSet._of_ranged(s.universe, _divided(s, totals), FamilySpec(FamilyKind.IFS), s._has_intervals)


@dataclass(frozen=True)
class ParadoxReport:
    """Whether a triplet asserts full truth, indeterminacy, and falsehood at once."""

    is_paradox: bool
    ns_valid: bool
    iifs_valid: bool
    normalized: Triplet | None
    normalized_is_paradox: bool


def _is_paradox_triplet(t: Triplet) -> bool:
    return all(abs(sup_of(c) - 1) <= ABS_TOL and abs(inf_of(c) - 1) <= ABS_TOL for c in t.components())


def paradox_check(t: Triplet) -> ParadoxReport:
    """Report whether ``t`` is the all-ones triplet and what normalization does to it.

    The all-ones triplet is representable with independent components
    (sum bound 3) but not with a sum-1 or sum <= 1 budget; normalizing it
    yields equal thirds, which no longer assert full truth or falsehood.
    """
    is_pdx = _is_paradox_triplet(t)
    ns_ok = validate(t, FamilySpec(FamilyKind.NS)).valid
    iifs_ok = validate(t, FamilySpec(FamilyKind.IIFS)).valid
    single = LabeledSet(("p",), (t,), FamilySpec(FamilyKind.NS))
    try:
        normalized = normalize_elementwise(single).triplets[0]
    except DegenerateInputError:
        normalized = None
    return ParadoxReport(
        is_paradox=is_pdx,
        ns_valid=ns_ok,
        iifs_valid=iifs_ok,
        normalized=normalized,
        normalized_is_paradox=normalized is not None and _is_paradox_triplet(normalized),
    )


@dataclass(frozen=True)
class DivergenceReport:
    """Componentwise deltas between two labeled sets over the same universe."""

    universe: tuple[str, ...]
    deltas: tuple[tuple[float, float, float], ...]
    max_abs_delta: float
    verdict: bool
    tolerance: float


def divergence_report(path_a: LabeledSet, path_b: LabeledSet, tol: float = ABS_TOL) -> DivergenceReport:
    """Compare two sets elementwise; verdict fires when any component differs beyond ``tol``."""
    if not _is_real(tol):
        raise UsageError(f"tol must be a real number, got {type(tol).__name__}")
    _require_same_universe(path_a, path_b)
    pairs = zip(path_a._sup_rows(), path_b._sup_rows())
    deltas = [tuple(float(x) - float(y) for x, y in zip(ra, rb)) for ra, rb in pairs]
    max_abs = max((abs(d) for row in deltas for d in row), default=0.0)
    return DivergenceReport(
        universe=path_a.universe,
        deltas=tuple(deltas),
        max_abs_delta=max_abs,
        verdict=max_abs > tol,
        tolerance=tol,
    )
