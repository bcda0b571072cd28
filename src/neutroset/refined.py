"""Split-component families: each of T, I, F refined into sub-degrees.

A refined instance carries tuples of sub-truths, sub-indeterminacies, and
sub-falsehoods. Family constraints bound the (powered) sum of all
subcomponents, with the bound growing to the total arity for the
neutrosophic-style refinements. Each refined family reads its plain twin's
row of :data:`neutroset.families.FAMILY_TABLE`. Degenerate arities (one
subcomponent per slot) are accepted and reduce to the unrefined families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral, Real
from typing import Sequence

import neutroset.families as families
from neutroset.core import (
    ABS_TOL,
    ComponentRangeError,
    IntervalValue,
    Triplet,
    UnitValue,
    UsageError,
    _is_real,
    as_component,
    inf_of,
    leftover,
)
from neutroset.families import FamilyKind, ValidationReport


class RefinedKind(Enum):
    RFS = "RFS"
    RIFS = "RIFS"
    RIIFS = "RIIFS"
    RNS = "RNS"
    RPYFS = "RPyFS"
    RSFS = "RSFS"
    RQROFS = "RQROFS"
    RNHSNS = "RNHSNS"

    @property
    def row(self) -> families.FamilyRow:
        """The plain twin's row; the bound and cap count every subcomponent."""
        return TWIN[self].row


#: Each refined family is its plain twin split into sub-degrees.
TWIN = {
    RefinedKind.RFS: FamilyKind.FS,
    RefinedKind.RIFS: FamilyKind.IFS,
    RefinedKind.RIIFS: FamilyKind.IIFS,
    RefinedKind.RNS: FamilyKind.NS,
    RefinedKind.RPYFS: FamilyKind.PYFS,
    RefinedKind.RSFS: FamilyKind.SFS,
    RefinedKind.RQROFS: FamilyKind.QROFS,
    RefinedKind.RNHSNS: FamilyKind.NHSNS,
}


@dataclass(frozen=True)
class RefinedFamilySpec(families._TableSpec):
    """A refined family identifier plus its exponent parameter where applicable."""

    kind: RefinedKind
    exponent: Real | None = None

    def bound(self, arities: tuple[int, int, int]) -> Real:
        return self._row.bound(sum(arities))

    def component_cap(self, arities: tuple[int, int, int]) -> float:
        return self._row.cap(self.bound(arities), self.effective_exponent)


@dataclass(frozen=True)
class RefinedComponents:
    """Sub-degree tuples (T_1..T_p; I_1..I_r; F_1..F_s)."""

    t: tuple
    i: tuple = ()
    f: tuple = ()

    def __post_init__(self):
        # individual values are range-checked against the loosest cap here;
        # family-specific caps are enforced by validate_refined
        object.__setattr__(self, "t", tuple(self.t))
        object.__setattr__(self, "i", tuple(self.i))
        object.__setattr__(self, "f", tuple(self.f))
        for group in (self.t, self.i, self.f):
            for v in group:
                if not isinstance(v, (UnitValue, IntervalValue)):
                    if not _is_real(v):
                        raise UsageError(f"expected a real subcomponent, got {type(v).__name__}")
                    if v < 0:
                        raise ComponentRangeError(v, f"subcomponent {v!r} is negative")
        if not self.t:
            raise UsageError("at least one sub-truth component is required")

    @property
    def arities(self) -> tuple[int, int, int]:
        return (len(self.t), len(self.i), len(self.f))

    def all_parts(self) -> tuple:
        return self.t + self.i + self.f


def _check_arities(c: RefinedComponents, fam: RefinedFamilySpec) -> None:
    """The slots follow the twin: fuzzy twins take sub-truths only, pair twins no sub-indeterminacy."""
    p, r, s = c.arities
    row = fam._row
    name = fam.kind.value
    if row.columns == 1:
        if p < 2 or r != 0 or s != 0:
            raise UsageError(f"{name} needs p >= 2 sub-truths and nothing else, got (p={p}, r={r}, s={s})")
    elif row.arity == 2:
        if r != 0:
            raise UsageError(f"{name} carries no sub-indeterminacies, got r={r}")
        if s < 1:
            raise UsageError(f"{name} needs at least one sub-falsehood")
    elif r < 1 or s < 1:
        raise UsageError(f"{name} needs at least one subcomponent per slot, got (p={p}, r={r}, s={s})")


def validate_refined(c: RefinedComponents, fam: RefinedFamilySpec, tol: float = ABS_TOL) -> ValidationReport:
    """Check a refined instance: powered subcomponent sum against the family bound.

    Interval subcomponents are judged by their suprema. The bound is 1 for
    the fuzzy-side refinements and the total arity for the
    neutrosophic-style ones.
    """
    _check_arities(c, fam)
    parts = families._coerce_components(c.all_parts(), sum(c.arities), fam.component_cap(c.arities), fam)
    return families._report(parts, fam.effective_exponent, fam.bound(c.arities), tol, f"{fam.describe()} {c.arities}")


def refined_hesitancy(c: RefinedComponents, fam: RefinedFamilySpec) -> UnitValue:
    """Leftover indeterminacy of a valid RIFS, RPyFS or RQROFS instance.

    The matching root of ``1 - sum T_j^e - sum F_l^e``; with one sub-truth
    and one sub-falsehood this is exactly the unrefined hesitancy.
    """
    return families._residual("hesitancy", fam, c, validate_refined)


def refined_refusal(c: RefinedComponents, fam: RefinedFamilySpec) -> UnitValue | IntervalValue:
    """Residual degree of a valid RIIFS or RSFS instance.

    RSFS takes the square root of the squared-sum residual. RIIFS subtracts
    the plain sums from 1; with interval subcomponents the result is itself
    an interval, degenerating to a scalar for scalar inputs.
    """
    low = families._residual("refusal", fam, c, validate_refined)
    parts = [as_component(v) for v in c.all_parts()]
    if fam.effective_exponent != 1 or not any(isinstance(p, IntervalValue) for p in parts):
        return low
    return IntervalValue(low.v, leftover(families._powered_sum([inf_of(p) for p in parts], 1)))


def refine(
    t: Triplet,
    arities: tuple[int, int, int],
    weights: tuple[Sequence[Real], Sequence[Real], Sequence[Real]] | None = None,
) -> RefinedComponents:
    """Split each component of ``t`` across subcomponents by the given weights.

    Each slot's weights must be nonnegative finite real numbers that sum to
    1 (equal split by default). Splitting is done in exact rational
    arithmetic so :func:`coarsen` recovers the original triplet bit-for-bit.
    """
    try:
        p, r, s = arities
    except (TypeError, ValueError):
        raise UsageError(f"arities must be three counts (p, r, s), got {arities!r}") from None
    if any(isinstance(n, bool) or not isinstance(n, Integral) for n in arities):
        raise UsageError(f"arities must be three counts (p, r, s), got {arities!r}")
    if p < 1 or r < 0 or s < 0:
        raise UsageError(f"arities must be (p >= 1, r >= 0, s >= 0), got {arities}")
    scalars = t.scalars()
    if weights is None:
        weights = tuple(tuple(Fraction(1, n) for _ in range(n)) if n else () for n in arities)
    elif len(weights) != 3:
        raise UsageError(f"expected three weight groups, one per slot, got {len(weights)}")
    groups = []
    for n, value, ws in zip(arities, scalars, weights):
        ws = tuple(map(_weight, ws))
        if len(ws) != n:
            raise UsageError(f"expected {n} weights, got {len(ws)}")
        if any(w < 0 for w in ws):
            raise UsageError("weights must be nonnegative")
        if n == 0:
            if value != 0:
                raise UsageError(f"cannot drop nonzero component {value!r} into an empty slot")
            groups.append(())
            continue
        if sum(ws) != 1:
            raise UsageError(f"weights must sum to 1 exactly, got {float(sum(ws))}")
        exact = Fraction(value)
        groups.append(tuple(w * exact for w in ws))
    return RefinedComponents(t=groups[0], i=groups[1], f=groups[2])


def _weight(w) -> Fraction:
    """A weight as an exact Fraction; one that is not a finite real number (a bool or a string) is refused."""
    if not _is_real(w):
        raise UsageError(f"weights must be real numbers, got {type(w).__name__}")
    try:
        return Fraction(w)
    except (ValueError, OverflowError):  # NaN, the infinities
        raise UsageError(f"weights must be finite, got {w!r}") from None


def coarsen(c: RefinedComponents) -> Triplet:
    """Collapse a refined instance by summing each slot's subcomponents."""

    def total(group) -> Real:
        acc = Fraction(0)
        for v in group:
            x = v.v if isinstance(v, UnitValue) else v
            if isinstance(x, IntervalValue):
                raise UsageError("cannot coarsen interval subcomponents to a scalar triplet")
            acc += Fraction(x)
        if acc > 1:
            raise ComponentRangeError(float(acc), f"slot sum {float(acc)} exceeds 1; not collapsible to a unit triplet")
        return acc

    sums = (total(c.t), total(c.i), total(c.f))
    # hand back plain floats whenever they represent the exact sum; a Fraction is in lowest terms, so
    # comparing ratios builds no Fraction from the float as ``float(v) == v`` would
    return Triplet(*(float(v) if float(v).as_integer_ratio() == (v.numerator, v.denominator) else v for v in sums))
