"""Whole-set transformations that restrain triplet components to tighter families.

Two rescalings are implemented: division by the set-wide sum of component
suprema (producing sum <= 1 components plus a per-element refusal) and
division by each element's own component sum (producing sum = 1 components).
Divergence reports make the non-commutation of transform and aggregation
checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping

from neutroset.core import (
    ABS_TOL,
    DegenerateInputError,
    IntervalValue,
    Triplet,
    UnitValue,
    UsageError,
    clamp_at_zero,
    inf_of,
    sup_of,
)
from neutroset.families import FamilyKind, FamilySpec, admits, validate


@dataclass(frozen=True)
class LabeledSet:
    """An ordered universe of named elements with one triplet each, tagged by family."""

    universe: tuple[str, ...]
    triplets: tuple[Triplet, ...]
    family: FamilySpec

    def __post_init__(self):
        self._set_elements(self.universe, self.triplets)
        for name, trip in zip(self.universe, self.triplets):
            if not admits(trip, self.family):
                raise UsageError(
                    f"element {name!r} {tuple(map(float, trip.scalars()))} is not valid under {self.family.describe()}"
                )

    @classmethod
    def _of_checked(cls, universe, triplets, family: FamilySpec) -> "LabeledSet":
        """A set of triplets the caller has already found valid under ``family``; only its shape is checked."""
        s = object.__new__(cls)
        object.__setattr__(s, "family", family)
        s._set_elements(universe, triplets)
        return s

    def _set_elements(self, universe, triplets) -> None:
        object.__setattr__(self, "universe", tuple(universe))
        object.__setattr__(self, "triplets", tuple(triplets))
        if len(self.universe) != len(self.triplets):
            raise UsageError(
                f"{len(self.universe)} element names but {len(self.triplets)} triplets"
            )
        if len(set(self.universe)) != len(self.universe):
            raise UsageError("universe contains duplicate element names")
        if not self.universe:
            raise UsageError("universe is empty")

    @classmethod
    def from_mapping(cls, elements: Mapping[str, Iterable], family: FamilySpec) -> "LabeledSet":
        names = tuple(elements)
        trips = tuple(Triplet(*elements[n]) for n in names)
        return cls(names, trips, family)

    def items(self):
        return zip(self.universe, self.triplets)

    def element(self, name: str) -> Triplet:
        try:
            return self.triplets[self.universe.index(name)]
        except ValueError:
            raise UsageError(f"no element named {name!r}") from None


def _divide(component, denom: Real):
    if isinstance(component, IntervalValue):
        return IntervalValue(component.lo / denom, component.hi / denom)
    return component / denom


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
    sups = [max(sup_of(t.components()[k]) for t in s.triplets) for k in range(3)]
    denom = sups[0] + sups[1] + sups[2]
    if denom <= ABS_TOL:
        raise DegenerateInputError("set-wide supremum sum is zero; nothing to rescale")
    out = []
    refusals = []
    for trip in s.triplets:
        parts = tuple(_divide(c, denom) for c in trip.components())
        out.append(Triplet(*parts))
        refusals.append(UnitValue(clamp_at_zero(1 - sum(sup_of(p) for p in parts))))
    labeled = LabeledSet(s.universe, tuple(out), FamilySpec(FamilyKind.IIFS))
    return SupTransformResult(labeled=labeled, refusals=tuple(refusals), denominator=denom)


def normalize_elementwise(s: LabeledSet) -> LabeledSet:
    """Divide each element's components by that element's own component sum.

    Every output element sums to 1 (a fixed point for inputs already doing
    so); elements whose components are all zero are rejected by name.
    """
    out = []
    for name, trip in s.items():
        total = sum(sup_of(c) for c in trip.components())
        if total <= ABS_TOL:
            raise DegenerateInputError(f"element {name!r} has zero component sum; cannot normalize")
        out.append(Triplet(*(_divide(c, total) for c in trip.components())))
    return LabeledSet(s.universe, tuple(out), FamilySpec(FamilyKind.IFS))


@dataclass(frozen=True)
class ParadoxReport:
    """Whether a triplet asserts full truth, indeterminacy, and falsehood at once."""

    is_paradox: bool
    ns_valid: bool
    iifs_valid: bool
    normalized: Triplet | None
    normalized_is_paradox: bool


def _is_paradox_triplet(t: Triplet, tol: float) -> bool:
    return all(abs(sup_of(c) - 1) <= tol and abs(inf_of(c) - 1) <= tol for c in t.components())


def paradox_check(t: Triplet, tol: float = ABS_TOL) -> ParadoxReport:
    """Report whether ``t`` is the all-ones triplet and what normalization does to it.

    The all-ones triplet is representable with independent components
    (sum bound 3) but not with a sum-1 or sum <= 1 budget; normalizing it
    yields equal thirds, which no longer assert full truth or falsehood.
    """
    is_pdx = _is_paradox_triplet(t, tol)
    ns_ok = validate(t, FamilySpec(FamilyKind.NS), tol).valid
    iifs_ok = validate(t, FamilySpec(FamilyKind.IIFS), tol).valid
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
        normalized_is_paradox=normalized is not None and _is_paradox_triplet(normalized, tol),
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
    if path_a.universe != path_b.universe:
        raise UsageError(
            f"universe mismatch: {list(path_a.universe)} vs {list(path_b.universe)}"
        )
    deltas = []
    for ta, tb in zip(path_a.triplets, path_b.triplets):
        a = [float(sup_of(c)) for c in ta.components()]
        b = [float(sup_of(c)) for c in tb.components()]
        deltas.append(tuple(x - y for x, y in zip(a, b)))
    max_abs = max((abs(d) for row in deltas for d in row), default=0.0)
    return DivergenceReport(
        universe=path_a.universe,
        deltas=tuple(deltas),
        max_abs_delta=max_abs,
        verdict=max_abs > tol,
        tolerance=tol,
    )
