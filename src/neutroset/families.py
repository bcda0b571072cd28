"""Set families as named validity predicates over components.

One table row per family holds what tells it apart: arity, exponent rule,
bound on the powered component sum, component cap, constrained columns
and derived degree. Validation, derived degrees (hesitancy, refusal),
embeddings into the neutrosophic triplet space, unit-cube geometry, and
Monte-Carlo volume estimation read that row; canonical strict-inclusion
witnesses also live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import NamedTuple

import numpy as np

from neutroset import _kernels
from neutroset.core import (
    ABS_TOL,
    ComponentRangeError,
    ConstraintError,
    IntervalValue,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    as_component,
    clamp_at_zero,
    sup_of,
)


class FamilyRow(NamedTuple):
    """The facts that tell one family from another."""

    arity: int
    #: 1 or 2, or ``None`` for an exponent parameter that must be >= 1.
    exponent: int | None
    #: Whether the powered sum is bounded by the number of components rather than by 1.
    bound_is_count: bool
    #: Whether components may exceed 1, up to ``bound ** (1 / exponent)``.
    extended: bool
    #: How many leading components the constraint reads.
    columns: int
    #: The derived degree the family defines: "hesitancy", "refusal", or ``None``.
    residual: str | None

    def bound(self, components: int) -> int:
        return components if self.bound_is_count else 1

    def cap(self, bound: int, exponent: Real) -> float:
        return float(bound) ** (1.0 / float(exponent)) if self.extended else 1.0


class FamilyKind(Enum):
    """The supported set families, from plain fuzzy up to hyperspherical neutrosophic."""

    FS = "FS"
    IFS = "IFS"
    IIFS = "IIFS"
    NS = "NS"
    PYFS = "PyFS"
    QROFS = "QROFS"
    SFS = "SFS"
    NHSFS = "NHSFS"
    SNS = "SNS"
    NHSNS = "NHSNS"

    @property
    def row(self) -> FamilyRow:
        return FAMILY_TABLE[self]


#: One row per family kind; :class:`FamilyRow` names the columns.
FAMILY_TABLE = {
    #                           arity exponent bound_is_count extended columns residual
    FamilyKind.FS:    FamilyRow(2, 1,    False, False, 1, None),
    FamilyKind.IFS:   FamilyRow(2, 1,    False, False, 2, "hesitancy"),
    FamilyKind.IIFS:  FamilyRow(3, 1,    False, False, 3, "refusal"),
    FamilyKind.NS:    FamilyRow(3, 1,    True,  False, 3, None),
    FamilyKind.PYFS:  FamilyRow(2, 2,    False, False, 2, "hesitancy"),
    FamilyKind.QROFS: FamilyRow(2, None, False, False, 2, "hesitancy"),
    FamilyKind.SFS:   FamilyRow(3, 2,    False, False, 3, "refusal"),
    FamilyKind.NHSFS: FamilyRow(3, None, False, False, 3, "refusal"),
    FamilyKind.SNS:   FamilyRow(3, 2,    True,  True,  3, None),
    FamilyKind.NHSNS: FamilyRow(3, None, True,  True,  3, None),
}


class _TableSpec:
    """What plain and refined family specs share: the kind's row and the exponent rule."""

    def __post_init__(self):
        row = self.kind.row
        e = self.exponent
        if row.exponent is None:
            if e is None:
                raise UsageError(f"{self.kind.value} requires an exponent >= 1")
            if isinstance(e, bool) or not isinstance(e, Real) or not e >= 1:
                raise UsageError(f"{self.kind.value} exponent must be a real number >= 1, got {e!r}")
        elif e is not None:
            raise UsageError(f"{self.kind.value} takes no exponent parameter")
        # resolved once per spec: validate reads it on every element
        object.__setattr__(self, "_row", row)

    @property
    def effective_exponent(self) -> Real:
        return self._row.exponent if self.exponent is None else self.exponent

    def describe(self) -> str:
        if self.exponent is None:
            return self.kind.value
        return f"{self.kind.value}(exponent={self.exponent})"


@dataclass(frozen=True)
class FamilySpec(_TableSpec):
    """A family identifier plus its exponent parameter, defining a validity predicate."""

    kind: FamilyKind
    exponent: Real | None = None

    @property
    def arity(self) -> int:
        return self._row.arity

    @property
    def bound(self) -> int:
        return self._row.bound(self._row.arity)

    @property
    def component_cap(self) -> float:
        """Upper bound on each individual component."""
        return self._row.cap(self.bound, self.effective_exponent)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking components against a family constraint."""

    valid: bool
    constraint_value: Real
    bound: Real
    diagnostics: str = ""


class CubeRegion(Enum):
    """Disjoint regions of the unit component cube split by the plane t + i + f = 1."""

    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    PARACONSISTENT = "paraconsistent"


class InclusionClaim(Enum):
    """Strict-inclusion claims: triplet spaces the neutrosophic family covers but the target does not."""

    NS_NOT_SFS = "NS_not_SFS"
    NS_NOT_QROFS = "NS_not_QROFS"
    NS_NOT_NHSFS = "NS_not_NHSFS"
    NS_NOT_IIFS = "NS_not_IIFS"


def _coerce_components(components, arity: int, cap: float, spec) -> tuple:
    """Normalize caller input to a tuple of ``arity`` raw numbers/intervals.

    Under a cap of 1 each component is a unit value as in
    :mod:`neutroset.core`; extended-range families take raw numbers up to
    their cap. ``spec`` names the family in errors.
    """
    if isinstance(components, (Triplet, Pair)):
        parts = components.components()
        if len(parts) == arity:
            return parts  # the type range-checked each component to [0, 1], inside every cap
    elif isinstance(components, (tuple, list)):
        parts = tuple(components)
    else:
        raise UsageError(f"cannot read components from {type(components).__name__}")
    if len(parts) != arity:
        raise UsageError(f"{spec.describe()} takes {arity} components, got {len(parts)}")
    out = []
    for p in parts:
        if cap == 1.0 or isinstance(p, (UnitValue, IntervalValue)):
            out.append(as_component(p))
        elif isinstance(p, bool) or not isinstance(p, Real):
            raise UsageError(f"expected a real number, got {type(p).__name__}")
        elif not 0 <= p <= cap + ABS_TOL:
            raise ComponentRangeError(p, f"component {p!r} outside [0, {cap:.6g}]")
        else:
            out.append(p)
    return tuple(out)


def _powered_sum(parts, exponent: Real) -> Real:
    """The powered sum of the components' suprema: what a family's bound limits."""
    acc = 0
    for p in parts:
        v = sup_of(p)
        if exponent == 1:
            acc = acc + v
        elif exponent == 2:
            acc = acc + v * v
        else:
            acc = acc + math.pow(v, exponent)
    return acc


def _report(parts, exponent: Real, bound: Real, tol: float, label: str) -> ValidationReport:
    value = _powered_sum(parts, exponent)
    detail = f"{label}: constraint value {float(value):.6g} vs bound {bound}"
    return ValidationReport(valid=bool(value <= bound + tol), constraint_value=value, bound=bound, diagnostics=detail)


def validate(components, family: FamilySpec, tol: float = ABS_TOL) -> ValidationReport:
    """Check components against the family's constraint.

    Interval components are judged by their suprema. Returns a report with
    the evaluated constraint value; range violations raise instead.
    """
    row = family._row
    parts = _coerce_components(components, row.arity, family.component_cap, family)
    return _report(parts[: row.columns], family.effective_exponent, family.bound, tol, family.describe())


def admits(components, family: FamilySpec, tol: float = ABS_TOL) -> bool:
    """Whether ``components`` are a valid element of ``family``, as :func:`validate` judges.

    An IFS element may also come as the sum-1 triplet :func:`embed_into_ns`
    widens it to. Range violations raise as in :func:`validate`.
    """
    row = family._row
    if row.arity == 2 and isinstance(components, Triplet):
        if family.kind is not FamilyKind.IFS:
            raise UsageError(f"{family.describe()} elements are pairs; only IFS pairs stand in as triplets")
        return abs(_powered_sum(components.components(), 1) - 1) <= tol
    return _within_bound(_coerce_components(components, row.arity, family.component_cap, family), family, tol)


def _within_bound(parts: tuple, family: FamilySpec, tol: float) -> bool:
    """:func:`admits` on components already coerced for ``family``."""
    row = family._row
    if row.columns <= family.bound and not row.extended and tol >= 0:
        return True  # the bound admits the all-ones corner, hence every point of the unit cube
    return _powered_sum(parts[: row.columns], family.effective_exponent) <= family.bound + tol


def _residual(name: str, spec, instance, check) -> UnitValue:
    """Degree ``name`` of a valid instance: what its constraint value leaves short of 1.

    ``check(instance, spec)`` gives the validation report. The powered
    families take the exponent-th root, so the degree lives on the same
    scale as the components (for the squared families, the usual square root).
    """
    if spec._row.residual != name:
        kinds = "/".join(k.value for k in type(spec.kind) if k.row.residual == name)
        raise UsageError(f"{name} is defined for {kinds}, not {spec.describe()}")
    report = check(instance, spec)
    if not report.valid:
        raise ConstraintError(report.diagnostics)
    deficit = clamp_at_zero(1 - report.constraint_value)
    e = spec.effective_exponent
    if e == 1:
        return UnitValue(deficit)
    d = float(deficit)
    return UnitValue(math.sqrt(d) if e == 2 else math.pow(d, 1.0 / float(e)))


def hesitancy(pair: Pair, family: FamilySpec) -> UnitValue:
    """Derived indeterminacy of a valid (T, F) pair under IFS/PyFS/QROFS.

    Plain intuitionistic pairs leave ``1 - T - F``; the squared and q-rung
    variants leave the matching root of ``1 - T^e - F^e``.
    """
    return _residual("hesitancy", family, pair, validate)


def refusal(triplet: Triplet, family: FamilySpec) -> UnitValue:
    """Residual degree of a valid (T, I, F) triplet under IIFS/SFS/NHSFS.

    ``1 - T - I - F``, or for the powered families the matching root of
    ``1 - T^e - I^e - F^e``.
    """
    return _residual("refusal", family, triplet, validate)


def embed_into_ns(components, from_family: FamilySpec) -> Triplet:
    """Map valid components of ``from_family`` to a neutrosophic-valid triplet.

    Pair families fill the middle slot with what their constraint leaves
    over; powered families raise each component to the family exponent.
    Triplet families already inside the neutrosophic cube pass through.
    """
    row = from_family._row
    parts = _coerce_components(components, row.arity, from_family.component_cap, from_family)
    if not _within_bound(parts, from_family, ABS_TOL):
        raise ConstraintError(validate(parts, from_family).diagnostics)
    e = from_family.effective_exponent
    if row.arity == 3 and not row.extended:
        if row.exponent == 1:
            return Triplet(*parts)
        return Triplet(*(_powered_sum([p], e) for p in parts))
    if row.residual == "hesitancy":
        t, f = map(sup_of, parts)
        tp = t if e == 1 else _powered_sum([t], e)
        fp = f if e == 1 else _powered_sum([f], e)
        return Triplet(tp, clamp_at_zero(1 - tp - fp), fp)
    raise UsageError(f"no embedding into NS is defined for {from_family.describe()}")


#: Canonical witnesses: valid neutrosophic triplets rejected by the target family.
_WITNESSES = {
    InclusionClaim.NS_NOT_SFS: Triplet(0.9, 0.4, 0.5),
    InclusionClaim.NS_NOT_QROFS: Triplet(1.0, 0.5, 0.5),
    InclusionClaim.NS_NOT_NHSFS: Triplet(1.0, 0.5, 0.5),
    InclusionClaim.NS_NOT_IIFS: Triplet(1.0, 1.0, 1.0),
}


def find_counterexample(claim: InclusionClaim, exponent: Real | None = None) -> Triplet:
    """A fixed triplet that is neutrosophic-valid but invalid for the claimed target family.

    Witnesses are constants so downstream golden tests stay stable. For the
    exponent families the returned triplet has a full membership slot plus a
    positive second component, which overflows the bound for every
    exponent >= 1.
    """
    witness = _WITNESSES[claim]
    ns_ok = validate(witness, FamilySpec(FamilyKind.NS)).valid
    target = _claim_target(claim, exponent)
    target_components = witness if target.arity == 3 else Pair(witness.t, witness.f)
    target_ok = validate(target_components, target).valid
    if not ns_ok or target_ok:
        raise AssertionError(f"canonical witness for {claim.value} failed its defining check")
    return witness


def _claim_target(claim: InclusionClaim, exponent: Real | None) -> FamilySpec:
    if claim is InclusionClaim.NS_NOT_SFS:
        return FamilySpec(FamilyKind.SFS)
    if claim is InclusionClaim.NS_NOT_QROFS:
        return FamilySpec(FamilyKind.QROFS, exponent if exponent is not None else 2)
    if claim is InclusionClaim.NS_NOT_NHSFS:
        return FamilySpec(FamilyKind.NHSFS, exponent if exponent is not None else 2)
    return FamilySpec(FamilyKind.IIFS)


def classify_cube_region(triplet: Triplet, tol: float = ABS_TOL) -> CubeRegion:
    """Locate a triplet relative to the sum-1 plane of the unit component cube."""
    s = sum(sup_of(c) for c in triplet.components())
    if s < 1 - tol:
        return CubeRegion.INCOMPLETE
    if s > 1 + tol:
        return CubeRegion.PARACONSISTENT
    return CubeRegion.COMPLETE


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo estimate of the unit-hypercube fraction a family constraint admits."""

    estimate: float
    std_error: float
    samples: int
    seed: int


#: Samples generated per block; fixed so the stream consumption is reproducible.
_SAMPLE_BLOCK = 1 << 16


def estimate_family_volume(family: FamilySpec, samples: int, seed: int) -> VolumeEstimate:
    """Estimate the fraction of the unit hypercube satisfying the family constraint.

    Uses a counter-based generator so the estimate is a pure function of
    (seed, samples), independent of block partitioning.
    """
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    row = family._row
    exponent = float(family.effective_exponent)
    bound = float(family.bound)
    gen = np.random.Generator(np.random.Philox(seed))
    remaining = samples
    hits = 0
    while remaining > 0:
        m = min(_SAMPLE_BLOCK, remaining)
        block = gen.random((m, row.arity))
        hits += _kernels.count_satisfying(block, exponent, bound, ABS_TOL, row.columns)
        remaining -= m
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(estimate=p, std_error=se, samples=samples, seed=seed)


def analytic_family_volume(family: FamilySpec) -> float:
    """Closed-form counterpart of :func:`estimate_family_volume`.

    The admissible region {x in [0,1]^k : sum x_j^n <= 1} has volume
    Gamma(1 + 1/n)^k / Gamma(1 + k/n); a family whose bound admits the
    all-ones corner admits the whole cube.
    """
    k = family._row.columns
    if k <= family.bound:
        return 1.0
    n = float(family.effective_exponent)
    return math.gamma(1 + 1 / n) ** k / math.gamma(1 + k / n)
