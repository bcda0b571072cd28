"""Aggregation operator suites over component triplets.

Four systems share one t-norm/t-conorm pair:

* ``NS``: the middle component is aggregated like the others (conjunction
  joins it, disjunction meets it) and negation reflects it through 1/2.
* ``IFS``: operands must sum to 1; the middle component is ignored during
  aggregation and re-derived as what T and F leave over.
* ``IIFS_MAX_I``: operands must sum to <= 1; indeterminacy joins on
  conjunction, which can overflow the sum bound, triggering normalization.
* ``IIFS_MIN_I``: the min-indeterminacy convention; conjunction meets the
  middle slot and provably never overflows.

Negation, and hence implication (not-a or b), is shared by the
intuitionistic-style systems; only the neutrosophic one flips indeterminacy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Real

from neutroset.core import ABS_TOL, ConstraintError, Triplet, UsageError, clamp_at_zero
from neutroset.families import FamilyKind, FamilySpec, admits
from neutroset.transforms import LabeledSet


class TNorm(Enum):
    MIN = "min"
    PRODUCT = "product"


class TConorm(Enum):
    MAX = "max"
    PROB_SUM = "probsum"


@dataclass(frozen=True)
class NormPair:
    """A t-norm/t-conorm pair; min/max unless specified otherwise."""

    tnorm: TNorm = TNorm.MIN
    tconorm: TConorm = TConorm.MAX

    def meet(self, a: Real, b: Real) -> Real:
        if self.tnorm is TNorm.MIN:
            return min(a, b)
        return a * b

    def join(self, a: Real, b: Real) -> Real:
        if self.tconorm is TConorm.MAX:
            return max(a, b)
        return a + b - a * b


class SystemKind(Enum):
    IFS = "IFS"
    NS = "NS"
    IIFS_MAX_I = "IIFS-max"
    IIFS_MIN_I = "IIFS-min"


#: The family each system's operands and results belong to.
_OPERAND_FAMILY = {
    SystemKind.NS: FamilySpec(FamilyKind.NS),
    SystemKind.IFS: FamilySpec(FamilyKind.IFS),
    SystemKind.IIFS_MAX_I: FamilySpec(FamilyKind.IIFS),
    SystemKind.IIFS_MIN_I: FamilySpec(FamilyKind.IIFS),
}


class OverflowRule(Enum):
    """How IIFS_MAX_I restores the sum bound when conjunction overflows it.

    ``OUTPUT`` divides the operator output by its own sum. ``PRINTED``
    reproduces the published worked figures: the numerator keeps the met
    (minimum) indeterminacy while the denominator uses the joined (maximum)
    one. Both agree whenever no overflow occurs.
    """

    OUTPUT = "output"
    PRINTED = "printed"


@dataclass(frozen=True)
class OperatorSystem:
    """An operator family plus the norms it aggregates with."""

    system: SystemKind
    norms: NormPair = NormPair()
    overflow: OverflowRule = OverflowRule.OUTPUT


def _require_valid(x: Triplet, sys: OperatorSystem) -> tuple[Real, Real, Real]:
    scalars = x.scalars()
    family = _OPERAND_FAMILY[sys.system]
    if not admits(x, family):
        raise ConstraintError(f"{sys.system.value} operand components sum to {float(sum(scalars))!r}, outside {family.describe()}")
    return scalars


def negate(a: Triplet, sys: OperatorSystem) -> Triplet:
    """Complement: swap T and F; only the neutrosophic system reflects I to 1 - I."""
    t, i, f = _require_valid(a, sys)
    if sys.system is SystemKind.NS:
        return Triplet(f, 1 - i, t)
    return Triplet(f, i, t)


def conjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Intersection under the system's convention for the middle component."""
    ta, ia, fa = _require_valid(a, sys)
    tb, ib, fb = _require_valid(b, sys)
    norms = sys.norms
    t = norms.meet(ta, tb)
    f = norms.join(fa, fb)
    if sys.system is SystemKind.NS:
        return Triplet(t, norms.join(ia, ib), f)
    if sys.system is SystemKind.IFS:
        return Triplet(t, clamp_at_zero(1 - t - f), f)
    if sys.system is SystemKind.IIFS_MIN_I:
        return Triplet(t, norms.meet(ia, ib), f)
    return _restore_sum_bound(t, norms.meet(ia, ib), norms.join(ia, ib), f, sys.overflow)


def disjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Union; both inconsistent-intuitionistic conventions meet the middle slot here."""
    ta, ia, fa = _require_valid(a, sys)
    tb, ib, fb = _require_valid(b, sys)
    norms = sys.norms
    t = norms.join(ta, tb)
    f = norms.meet(fa, fb)
    if sys.system is SystemKind.NS:
        return Triplet(t, norms.meet(ia, ib), f)
    if sys.system is SystemKind.IFS:
        return Triplet(t, clamp_at_zero(1 - t - f), f)
    return Triplet(t, norms.meet(ia, ib), f)


def implicate(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Implication as (not a) or b."""
    return disjunct(negate(a, sys), b, sys)


def _restore_sum_bound(t: Real, i_met: Real, i_joined: Real, f: Real, rule: OverflowRule) -> Triplet:
    joined_sum = t + i_joined + f
    if joined_sum <= 1 + ABS_TOL:
        return Triplet(t, i_joined, f)
    if rule is OverflowRule.OUTPUT:
        return Triplet(t / joined_sum, i_joined / joined_sum, f / joined_sum)
    return Triplet(t / joined_sum, i_met / joined_sum, f / joined_sum)


class Op(Enum):
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    NOT = "not"


_BINARY = {Op.AND: conjunct, Op.OR: disjunct, Op.IMPLIES: implicate}


def setwise(a_set: LabeledSet, b_set: LabeledSet | None, op: Op, sys: OperatorSystem) -> LabeledSet:
    """Apply an operator elementwise across sets sharing a universe.

    ``NOT`` is unary and ignores ``b_set``. The result is tagged with the
    system's family so downstream loads re-validate it.
    """
    if op is Op.NOT:
        out = tuple(negate(t, sys) for t in a_set.triplets)
    else:
        if b_set is None:
            raise UsageError(f"operator {op.value!r} needs two operand sets")
        if a_set.universe != b_set.universe:
            raise UsageError(
                f"universe mismatch: {list(a_set.universe)} vs {list(b_set.universe)}"
            )
        fn = _BINARY[op]
        out = tuple(fn(ta, tb, sys) for ta, tb in zip(a_set.triplets, b_set.triplets))
    return LabeledSet(a_set.universe, out, family=system_family(sys))


def system_family(sys: OperatorSystem) -> FamilySpec:
    """The family tag matching a system's operand convention."""
    return _OPERAND_FAMILY[sys.system]
