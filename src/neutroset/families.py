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
import os
import sys
import threading
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real
from typing import NamedTuple

from neutroset.core import (
    ABS_TOL,
    ComponentRangeError,
    ConstraintError,
    DocumentError,
    IntervalValue,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    _in_unit,
    _is_real,
    _sum_bound,
    as_component,
    leftover,
    sums_to_one,
    sup_of,
    within,
)


class FamilyRow(NamedTuple):
    """The facts that tell one family from another."""

    arity: int
    #: 1 or 2, or ``None`` for an exponent parameter that must be >= 1.
    exponent: int | None
    #: The components' degree of dependence, 0 (independent) or 1 (fully dependent): it bounds
    #: the powered sum of n components by ``n - (n - 1) * dependence``, that is n or 1.
    dependence: int
    #: Whether components may exceed 1, up to ``bound ** (1 / exponent)``.
    extended: bool
    #: How many leading components the constraint reads.
    columns: int
    #: The derived degree the family defines: "hesitancy", "refusal", or ``None``.
    residual: str | None

    def bound(self, components: int) -> int:
        return _sum_bound(components, self.dependence)

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
    #                           arity exponent dependence extended columns residual
    FamilyKind.FS:    FamilyRow(2, 1,    1, False, 1, None),
    FamilyKind.IFS:   FamilyRow(2, 1,    1, False, 2, "hesitancy"),
    FamilyKind.IIFS:  FamilyRow(3, 1,    1, False, 3, "refusal"),
    FamilyKind.NS:    FamilyRow(3, 1,    0, False, 3, None),
    FamilyKind.PYFS:  FamilyRow(2, 2,    1, False, 2, "hesitancy"),
    FamilyKind.QROFS: FamilyRow(2, None, 1, False, 2, "hesitancy"),
    FamilyKind.SFS:   FamilyRow(3, 2,    1, False, 3, "refusal"),
    FamilyKind.NHSFS: FamilyRow(3, None, 1, False, 3, "refusal"),
    FamilyKind.SNS:   FamilyRow(3, 2,    0, True,  3, None),
    FamilyKind.NHSNS: FamilyRow(3, None, 0, True,  3, None),
}

#: The paper's inclusion result, smallest first: sum-1 IFS triplets ⊂ IIFS ⊂ NS.
_INCLUSION_CHAIN = (FamilyKind.IFS, FamilyKind.IIFS, FamilyKind.NS)


def includes(outer: FamilySpec, inner: FamilySpec) -> bool:
    """Whether every triplet inside ``inner``'s bound, as :func:`_first_outside` tests it, is inside ``outer``'s too.

    Every bound test runs at ``ABS_TOL``, and a sum-1 triplet standing in for
    an IFS pair meets IIFS's own upper comparison, so no sum slips between them.
    """
    chain = _INCLUSION_CHAIN
    if inner.kind in chain:
        return outer.kind in chain[chain.index(inner.kind) :]
    return outer == inner


class _TableSpec:
    """What plain and refined family specs share: the kind's row and the exponent rule."""

    def __post_init__(self):
        row = self.kind.row
        e = self.exponent
        if row.exponent is None:
            if e is None:
                raise UsageError(f"{self.kind.value} requires an exponent >= 1")
            # the largest float, not infinity: math.pow cannot take an int exponent beyond it
            if not _is_real(e) or not 1 <= e <= sys.float_info.max:
                raise UsageError(f"{self.kind.value} exponent must be a finite real number >= 1, got {e!r}")
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

    def __post_init__(self):
        super().__post_init__()
        # resolved once per spec: _first_outside reads it on every call
        bound, row = self.bound, self._row
        whole_cube = _admits_unit_cube(self) and not row.extended
        test = (whole_cube, row.columns, self.effective_exponent, bound, bound + ABS_TOL)
        object.__setattr__(self, "_bound_test", test)

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


def family_from_tag(kind_tag: str, exponent=None) -> FamilySpec:
    """Resolve a family tag string (case-insensitive, with common aliases)."""
    aliases = {
        "pfs": "IIFS",  # picture fuzzy set
        "q-rofs": "QROFS",
        "qrofs": "QROFS",
        "pyfs": "PyFS",
        "n-hsfs": "NHSFS",
        "n-hsns": "NHSNS",
    }
    norm = aliases.get(kind_tag.strip().lower(), kind_tag.strip())
    for kind in FamilyKind:
        if kind.value.lower() == norm.lower():
            try:
                return FamilySpec(kind, exponent)
            except UsageError as exc:
                raise DocumentError(f"family {exc}") from None
    raise DocumentError(f"unknown family tag {kind_tag!r}")


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
    their cap. Each raw number meets the unit-range test ``core._in_unit``
    first, which compares an int's or a Fraction's numerator with its
    denominator; only a number past 1 meets the float limit. ``spec`` names the
    family in errors.
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
        elif not _is_real(p):
            raise UsageError(f"expected a real number, got {type(p).__name__}")
        # [0, 1] first, inside every cap: an int or Fraction there never meets the float limit
        elif not (_in_unit(p) or 0 <= p <= _component_limit(cap)):
            raise ComponentRangeError(p, f"component {p!r} outside [0, {cap:.6g}]")
        else:
            out.append(p)
    return tuple(out)


def _component_limit(cap: float) -> float:
    """The largest component :func:`_coerce_components` admits under ``cap``: past a cap of 1, ``ABS_TOL`` more."""
    return cap if cap == 1.0 else cap + ABS_TOL


def _fraction_type(first):
    """``fractions.Fraction`` when ``first`` is one, else None.

    The module is looked up, not imported: if nothing has loaded it, no component is a Fraction.
    """
    fractions = sys.modules.get("fractions")
    return fractions.Fraction if fractions is not None and type(first) is fractions.Fraction else None


def _exact_sum(parts, exponent: Real, fraction: type) -> tuple[int, int] | None:
    """The sum of the Fraction ``parts`` (squared under exponent 2) as an integer numerator and denominator.

    The denominator is the product of the parts' own (squared) denominators,
    so nothing is normalised. None when a part is not a ``fraction``.
    """
    square = exponent == 2
    num, den = 0, 1
    for p in parts:
        if type(p) is not fraction:
            return None
        n, d = p.numerator, p.denominator
        if square:
            n, d = n * n, d * d
        num, den = num * d + n * den, den * d
    return num, den


def _powered_sum(parts, exponent: Real) -> Real:
    """The powered sum of the components' suprema: what a family's bound limits.

    A row of Fractions under exponent 1 or 2 is added in integers by
    :func:`_exact_sum` and normalised once: the same Fraction the loop
    below builds one normalised step at a time.
    """
    fraction = _fraction_type(parts[0]) if parts else None
    if fraction is not None and (exponent == 1 or exponent == 2):
        exact = _exact_sum(parts, exponent, fraction)
        if exact is not None:
            return fraction(*exact)
    acc = 0
    for p in parts:
        v = sup_of(p)
        if exponent == 1:
            acc = acc + v
        elif exponent == 2:
            acc = acc + v * v
        else:
            try:
                acc = acc + math.pow(v, exponent)
            except OverflowError:  # a component past 1 under a huge exponent: no bound admits it
                acc = math.inf
    return acc


def _report(parts, exponent: Real, bound: Real, tol: float, label: str) -> ValidationReport:
    value = _powered_sum(parts, exponent)
    detail = f"{label}: constraint value {float(value):.6g} vs bound {bound}"
    valid = bool(within(value, bound, tol))
    return ValidationReport(valid=valid, constraint_value=value, bound=bound, diagnostics=detail)


def validate(components, family: FamilySpec, tol: float = ABS_TOL) -> ValidationReport:
    """Check components against the family's constraint.

    Interval components are judged by their suprema. Returns a report with
    the evaluated constraint value; range violations raise instead.
    """
    row = family._row
    parts = _coerce_components(components, row.arity, family.component_cap, family)
    return _report(parts[: row.columns], family.effective_exponent, family.bound, tol, family.describe())


def _admits_unit_cube(family: FamilySpec) -> bool:
    """Whether the bound admits the all-ones corner, hence every point of the unit cube."""
    return family._row.columns <= family.bound


def _first_outside(rows, family: FamilySpec) -> int:
    """The index of the first row outside ``family``'s bound, or -1 when every row is inside.

    The rows hold the components' suprema, range-checked for ``family``,
    all of one length: ``family.arity``, or three under IFS, where a sum-1
    triplet stands in for a pair (triplets under another pair family
    raise). A stand-in must pass :func:`~neutroset.core.sums_to_one`, whose
    upper comparison is the pair test's own. Every other row passes
    :func:`~neutroset.core.within` at ``ABS_TOL``, written out in the loops:
    the exact bound first, then ``bound + ABS_TOL``, which the spec holds.
    The plain sums run left to right from the first component: they only
    meet comparisons, and equal :func:`_powered_sum`'s from 0 in value.
    A first row that starts with a Fraction picks the exact loop instead, once per call.
    """
    whole_cube, columns, exponent, bound, limit = family._bound_test
    stand_in = family._row.arity == 2 and rows and len(rows[0]) == 3
    if stand_in and family.kind is not FamilyKind.IFS:
        raise UsageError(f"{family.describe()} elements are pairs; only IFS pairs stand in as triplets")
    if whole_cube and not stand_in:
        return -1
    fraction = _fraction_type(rows[0][0]) if rows else None
    if fraction is not None and (exponent == 1 or exponent == 2):
        # a row of Fractions meets the bound by cross-multiplication, and builds no Fraction; a row that
        # fails that, or holds another type, takes the tolerant test, so the ABS_TOL band answers as before
        width = 3 if stand_in else columns
        for k, row in enumerate(rows):
            parts = row[:width]
            exact = _exact_sum(parts, exponent, fraction)
            if exact is not None and (exact[0] == exact[1] if stand_in else exact[0] <= bound * exact[1]):
                continue
            s = _powered_sum(parts, exponent)
            if not (sums_to_one(s) if stand_in else (s <= bound or s <= limit)):
                return k
    elif stand_in:
        for k, (t, i, f) in enumerate(rows):
            if not sums_to_one(t + i + f):
                return k
    elif exponent == 1 and columns == 3:
        for k, (t, i, f) in enumerate(rows):
            s = t + i + f
            if not (s <= bound or s <= limit):
                return k
    elif exponent == 1 and columns == 2:
        for k, (t, f) in enumerate(rows):
            s = t + f
            if not (s <= bound or s <= limit):
                return k
    else:
        for k, row in enumerate(rows):
            s = _powered_sum(row[:columns], exponent)
            if not (s <= bound or s <= limit):
                return k
    return -1


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
    deficit = leftover(report.constraint_value)
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
    if _first_outside([tuple(map(sup_of, parts))], from_family) >= 0:
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
        return Triplet(*_widened([(tp, fp)])[0])
    raise UsageError(f"no embedding into NS is defined for {from_family.describe()}")


def _widened(pairs) -> list:
    """Each (t, f) pair as (t, hesitancy, f): the middle is 1 - t - f clamped at 0, and a pair past 1 stays past it."""
    return [(t, leftover(0 + t + f), f) for t, f in pairs]


#: Full membership in every slot: NS-valid, with a (powered) sum of at least 2 under every exponent.
_FULL = Triplet(1.0, 1.0, 1.0)

#: Canonical witnesses: valid neutrosophic triplets rejected by the target family, with the
#: exponent a claim on a family that takes one checks when the caller gives none.
_WITNESSES = {
    InclusionClaim.NS_NOT_SFS: (Triplet(0.9, 0.4, 0.5), FamilyKind.SFS, None),
    InclusionClaim.NS_NOT_QROFS: (Triplet(1.0, 0.5, 0.5), FamilyKind.QROFS, 2),
    InclusionClaim.NS_NOT_NHSFS: (Triplet(1.0, 0.5, 0.5), FamilyKind.NHSFS, 2),
    InclusionClaim.NS_NOT_IIFS: (_FULL, FamilyKind.IIFS, None),
}


def find_counterexample(claim: InclusionClaim, exponent: Real | None = None) -> Triplet:
    """A fixed triplet that is neutrosophic-valid but invalid for the claimed target family.

    Witnesses are constants so downstream golden tests stay stable. For the
    exponent families the canonical triplet has a full membership slot plus
    0.5 in its other slots, which overflow the bound by ``0.5**e`` each; from
    e = 30 (QROFS) or 31 (NHSFS) that lies within the tolerance, and the full
    triplet (1, 1, 1) stands in. The other targets take no exponent and ignore it.
    """
    witness, kind, default_exponent = _WITNESSES[claim]
    if default_exponent is None or exponent is None:
        exponent = default_exponent  # a target without a default takes no exponent
    target = FamilySpec(kind, exponent)
    target_components = witness if target.arity == 3 else Pair(witness.t, witness.f)
    if validate(target_components, target).valid:
        return _FULL
    return witness


def classify_cube_region(components, tol: float = ABS_TOL) -> CubeRegion:
    """Locate a :class:`Triplet`, or raw components that SNS and NHSNS let exceed 1, against the sum-1 plane."""
    if isinstance(components, Triplet):
        components = components.components()
    s = _powered_sum(components, 1)
    if not -math.inf < s < math.inf:  # NaN would fail every comparison below and read as PARACONSISTENT
        raise ComponentRangeError(s, f"component sum {s!r} is not finite")
    if sums_to_one(s, tol):
        return CubeRegion.COMPLETE
    return CubeRegion.INCOMPLETE if s < 1 - tol else CubeRegion.PARACONSISTENT


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte-Carlo estimate of the unit-hypercube fraction a family constraint admits."""

    estimate: float
    std_error: float
    samples: int
    seed: int


#: Rows drawn per block: three float64 columns of 16,384 rows (384 KB) stay in a
#: core's L2 cache while they are counted. The estimate does not depend on it.
_SAMPLE_BLOCK = 1 << 14


def estimate_family_volume(family: FamilySpec, samples: int, seed: int) -> VolumeEstimate:
    """Estimate the fraction of the unit hypercube satisfying the family constraint.

    Uses a counter-based generator so the estimate is a pure function of
    (seed, samples), independent of block partitioning.
    """
    for name, n in (("samples", samples), ("seed", seed)):
        if isinstance(n, bool) or not isinstance(n, Integral):
            raise UsageError(f"{name} must be an integer, got {n!r}")
    samples, seed = int(samples), int(seed)  # a numpy integer becomes an int: Philox.advance refuses one
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    if _admits_unit_cube(family):
        hits = samples  # every sample would hit, so none is drawn
    else:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
        hits = _chunked_hits(family, samples, seed, max(1, min(cpus, samples // _SAMPLE_BLOCK)))
    p = hits / samples
    se = math.sqrt(p * (1.0 - p) / samples)
    return VolumeEstimate(estimate=p, std_error=se, samples=samples, seed=seed)


def _chunked_hits(family: FamilySpec, samples: int, seed: int, workers: int) -> int:
    """Hits among the first ``samples`` rows of the Philox stream, counted in ``workers`` contiguous chunks.

    Each chunk starts on a row that is a multiple of 4 and reads its stretch
    of the one serial stream from its own generator: ``Philox.advance(k)``
    skips ``4 * k`` doubles. So the count is the serial count for any
    ``workers`` and any block size. The calling thread counts chunk 0 and a
    thread each counts the others; numpy's draws and the kernel's ufuncs
    release the GIL. The first chunk to fail (in chunk order) raises once
    every thread is joined; the others stop at their next block.
    """
    # numpy loads here, on the first draw, so nothing else in the package pays its import
    import numpy as np

    from neutroset import _kernels

    row = family._row
    arity = row.arity
    exponent = float(family.effective_exponent)
    bound = float(family.bound)
    starts = [samples * k // workers // 4 * 4 for k in range(workers)] + [samples]
    hits = [0] * workers
    errors = [None] * workers
    stop = threading.Event()

    def count(k: int) -> None:
        try:
            bits = np.random.Philox(seed)
            bits.advance(starts[k] * arity // 4)
            gen = np.random.Generator(bits)
            for lo in range(starts[k], starts[k + 1], _SAMPLE_BLOCK):
                if stop.is_set():
                    return
                block = gen.random((min(_SAMPLE_BLOCK, starts[k + 1] - lo), arity))
                hits[k] += _kernels.count_satisfying(block, exponent, bound, ABS_TOL, row.columns)
        except BaseException as exc:  # raised again by the calling thread, once every worker is joined
            errors[k] = exc
            stop.set()

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, workers)]
    try:
        for t in threads:
            t.start()
        count(0)
        for t in threads:
            t.join()
    finally:
        # an interrupt in the calling thread lands here with workers still counting: stop and join them
        stop.set()
        for t in threads:
            if t.ident is not None:
                t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return sum(hits)


def analytic_family_volume(family: FamilySpec) -> float:
    """Closed-form counterpart of :func:`estimate_family_volume`.

    The admissible region {x in [0,1]^k : sum x_j^n <= 1} has volume
    Gamma(1 + 1/n)^k / Gamma(1 + k/n); a family whose bound admits the
    all-ones corner admits the whole cube.
    """
    if _admits_unit_cube(family):
        return 1.0
    k = family._row.columns
    n = float(family.effective_exponent)
    return math.gamma(1 + 1 / n) ** k / math.gamma(1 + k / n)
