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
from typing import Iterable

from neutroset.core import ABS_TOL, ConstraintError, Triplet, UsageError, leftover
from neutroset.families import FamilyKind, FamilySpec, _powered_sum, admits_triplet, includes
from neutroset.transforms import LabeledSet, _scalars


class TNorm(Enum):
    MIN = "min"
    PRODUCT = "product"


class TConorm(Enum):
    MAX = "max"
    PROB_SUM = "probsum"


# min and max written out for two arguments, returning what the builtins return (the
# first argument on ties): the builtins' general argument handling costs twice as much


def _minimum(a: Real, b: Real) -> Real:
    return b if b < a else a


def _maximum(a: Real, b: Real) -> Real:
    return b if b > a else a


def _product(a: Real, b: Real) -> Real:
    return a * b


def _probabilistic_sum(a: Real, b: Real) -> Real:
    return a + b - a * b


_MEET = {TNorm.MIN: _minimum, TNorm.PRODUCT: _product}
_JOIN = {TConorm.MAX: _maximum, TConorm.PROB_SUM: _probabilistic_sum}


@dataclass(frozen=True)
class NormPair:
    """A t-norm/t-conorm pair; min/max unless specified otherwise."""

    tnorm: TNorm = TNorm.MIN
    tconorm: TConorm = TConorm.MAX

    def meet(self, a: Real, b: Real) -> Real:
        return _MEET[self.tnorm](a, b)

    def join(self, a: Real, b: Real) -> Real:
        return _JOIN[self.tconorm](a, b)


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

    def __post_init__(self):
        # resolved once per system: the operator bodies read it on every element
        object.__setattr__(
            self, "_resolved", (self.system, _MEET[self.norms.tnorm], _JOIN[self.norms.tconorm], self.overflow)
        )


def _require_valid(parts: tuple, sys: OperatorSystem) -> tuple[Real, Real, Real]:
    """The scalars of a triplet's components, checked against the system's family."""
    scalars = _scalars(parts)
    family = _OPERAND_FAMILY[sys.system]
    if not admits_triplet(parts, family):
        total = float(_powered_sum(scalars, 1))
        raise ConstraintError(f"{sys.system.value} operand components sum to {total!r}, outside {family.describe()}")
    return scalars


def negate(a: Triplet, sys: OperatorSystem) -> Triplet:
    """Complement: swap T and F; only the neutrosophic system reflects I to 1 - I."""
    return Triplet(*_negate((_require_valid(a.components(), sys),), sys)[0])


def conjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Intersection under the system's convention for the middle component."""
    return Triplet(*_conjunct((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys)[0])


def disjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Union; both inconsistent-intuitionistic conventions meet the middle slot here."""
    return Triplet(*_disjunct((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys)[0])


def implicate(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Implication as (not a) or b."""
    return Triplet(*_implicate((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys)[0])


# The bodies below take sequences of the scalars of operands already checked for the system, pick the
# system once, and return the list of the results' components; callers range-check them (Triplet, or
# LabeledSet._of_rows). ``zip`` pulls a row of ``a`` and then a row of ``b``, so operands that are checked
# as they are read are checked in the order a0, b0, a1, b1, ...


def _negate(a_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    if sys.system is SystemKind.NS:
        return [(f, 1 - i, t) for t, i, f in a_rows]
    return [(f, i, t) for t, i, f in a_rows]


def _conjunct(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    kind, meet, join, overflow = sys._resolved
    pairs = zip(a_rows, b_rows)
    if kind is SystemKind.NS:
        return [(meet(ta, tb), join(ia, ib), join(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]
    if kind is SystemKind.IFS:
        return [(t, leftover(0 + t + f), f)
                for (ta, _, fa), (tb, _, fb) in pairs for t, f in [(meet(ta, tb), join(fa, fb))]]
    if kind is SystemKind.IIFS_MIN_I:
        return [(meet(ta, tb), meet(ia, ib), join(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]
    return [_restore_sum_bound(meet(ta, tb), meet(ia, ib), join(ia, ib), join(fa, fb), overflow)
            for (ta, ia, fa), (tb, ib, fb) in pairs]


def _disjunct(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    kind, meet, join, _ = sys._resolved
    pairs = zip(a_rows, b_rows)
    if kind is SystemKind.IFS:
        return [(t, leftover(0 + t + f), f)
                for (ta, _, fa), (tb, _, fb) in pairs for t, f in [(join(ta, tb), meet(fa, fb))]]
    return [(join(ta, tb), meet(ia, ib), meet(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]


def _implicate(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    # (not a) or b, with not-a = (fa, ia, ta), or (fa, 1 - ia, ta) under NS, written into the disjunction so
    # that each row of a is negated as zip pulls it; negation keeps an operand in its family, so not-a needs no check
    kind, meet, join, _ = sys._resolved
    pairs = zip(a_rows, b_rows)
    if kind is SystemKind.IFS:
        return [(t, leftover(0 + t + f), f)
                for (ta, _, fa), (tb, _, fb) in pairs for t, f in [(join(fa, tb), meet(ta, fb))]]
    if kind is SystemKind.NS:
        return [(join(fa, tb), meet(1 - ia, ib), meet(ta, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]
    return [(join(fa, tb), meet(ia, ib), meet(ta, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]


def _restore_sum_bound(t: Real, i_met: Real, i_joined: Real, f: Real, rule: OverflowRule) -> tuple:
    joined_sum = t + i_joined + f
    if joined_sum <= 1 + ABS_TOL:
        return (t, i_joined, f)
    if rule is OverflowRule.OUTPUT:
        return (t / joined_sum, i_joined / joined_sum, f / joined_sum)
    return (t / joined_sum, i_met / joined_sum, f / joined_sum)


class Op(Enum):
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    NOT = "not"


_BINARY = {Op.AND: _conjunct, Op.OR: _disjunct, Op.IMPLIES: _implicate}


def _operands(s: LabeledSet, sys: OperatorSystem) -> Iterable[tuple]:
    """Scalars of each element of ``s``, checked only where the set's family is not inside the system's."""
    if includes(_OPERAND_FAMILY[sys.system], s.family):
        return s.scalar_rows()
    return (_require_valid(row, sys) for row in s.rows)


def setwise(a_set: LabeledSet, b_set: LabeledSet | None, op: Op, sys: OperatorSystem) -> LabeledSet:
    """Apply an operator elementwise across sets sharing a universe.

    ``NOT`` is unary and ignores ``b_set``. Operands are checked against
    the system's family unless their set's family lies inside it; the
    result is tagged with the system's family and checked under it.
    """
    if op is Op.NOT:
        out = _negate(_operands(a_set, sys), sys)
    else:
        if b_set is None:
            raise UsageError(f"operator {op.value!r} needs two operand sets")
        if a_set.universe != b_set.universe:
            raise UsageError(
                f"universe mismatch: {list(a_set.universe)} vs {list(b_set.universe)}"
            )
        out = _BINARY[op](_operands(a_set, sys), _operands(b_set, sys), sys)
    return LabeledSet._of_rows(a_set.universe, out, system_family(sys))


def system_family(sys: OperatorSystem) -> FamilySpec:
    """The family tag matching a system's operand convention."""
    return _OPERAND_FAMILY[sys.system]
