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

Every system maps valid operands to elements of its own family, for scalar
calls and ``setwise`` alike. Under product/probsum, operands valid only
within the tolerance can give a result past the sum bound; that row is
rescaled onto the bound by its own sum (the rule IIFS_MAX_I's ``OUTPUT``
overflow applies), and under IFS its middle slot is derived again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Iterable, Iterator

from neutroset.core import ConstraintError, Triplet, UsageError, within
from neutroset.families import FamilyKind, FamilySpec, _first_outside, _powered_sum, _widened, includes
from neutroset.transforms import LabeledSet, _require_same_universe, _scalars


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

#: The sum bound IIFS_MAX_I's conjunction restores.
_IIFS_BOUND = _OPERAND_FAMILY[SystemKind.IIFS_MAX_I].bound


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
        # min with probsum is no dual pair: (0.5, 0.5) and (0.6, 0.4) conjoin to T + F = 1.2, outside every
        # family but NS's, so the other systems' results would fail their own check
        norms = self.norms
        if self.system is not SystemKind.NS and norms.tnorm is TNorm.MIN and norms.tconorm is TConorm.PROB_SUM:
            raise UsageError(
                f"t-norm 'min' with t-conorm 'probsum' can take {self.system.value} results outside their "
                "family; choose another pair"
            )
        # resolved once per system: the operator bodies read it on every element
        object.__setattr__(
            self, "_resolved", (self.system, _MEET[norms.tnorm], _JOIN[norms.tconorm], self.overflow)
        )
        # min/max and product/max results are bounded by an operand's sum, so only probsum can take a result
        # past the bound (NS's bound admits the whole cube); scalar calls close their result only then
        object.__setattr__(self, "_may_leave", self.system is not SystemKind.NS and norms.tconorm is TConorm.PROB_SUM)


def _require_valid(parts: tuple, sys: OperatorSystem) -> tuple[Real, Real, Real]:
    """The scalars of a triplet's components, checked against the system's family."""
    scalars = _scalars(parts)
    family = _OPERAND_FAMILY[sys.system]
    if _first_outside([scalars], family) >= 0:  # a scalar row is its own row of suprema
        total = float(_powered_sum(scalars, 1))
        raise ConstraintError(f"{sys.system.value} operand components sum to {total!r}, outside {family.describe()}")
    return scalars


def negate(a: Triplet, sys: OperatorSystem) -> Triplet:
    """Complement: swap T and F; only the neutrosophic system reflects I to 1 - I. It keeps the sum bound."""
    return Triplet(*next(_negate((_require_valid(a.components(), sys),), sys)))


def conjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Intersection under the system's convention for the middle component."""
    return _result(_conjunct((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys), sys)


def disjunct(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Union; both inconsistent-intuitionistic conventions meet the middle slot here."""
    return _result(_disjunct((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys), sys)


def implicate(a: Triplet, b: Triplet, sys: OperatorSystem) -> Triplet:
    """Implication as (not a) or b."""
    return _result(_implicate((_require_valid(a.components(), sys),), (_require_valid(b.components(), sys),), sys), sys)


def _result(rows: list, sys: OperatorSystem) -> Triplet:
    """A scalar call's one result row as a Triplet, closed into the system's family where a result can leave it."""
    return Triplet(*(_closed(rows, sys) if sys._may_leave else rows)[0])


# The bodies below take sequences of the scalars of operands already checked for the system, pick the
# system once, and return the list of the results' components; negation returns them lazily, so that
# implication negates each row of ``a`` as it is read. ``zip`` pulls a row of ``a`` and then a row of ``b``,
# so operands that are checked as they are read are checked in the order a0, b0, a1, b1, ...
#
# Every result component is in [0, 1] for float, int and Fraction operands in [0, 1], so setwise builds
# its set without a range pass (the family test still runs):
# - min and max return an operand;
# - a product of two values in [0, 1] is at most either factor, and rounding is monotone;
# - ``1 - i`` and ``leftover`` stay in [0, 1];
# - _restore_sum_bound and _closed divide by a sum that is at least the numerator, which gives at most 1;
# - probsum on floats: if s = fl(a + b) > 1, then d = s - 1 is exact and fl(ab) >= d - 2**-53 exactly,
#   so s - fl(ab) <= 1 + 2**-53, which rounds to 1. Exact operands give the exact a + b - ab <= 1.


def _negate(a_rows: Iterable[tuple], sys: OperatorSystem) -> Iterator[tuple]:
    if sys.system is SystemKind.NS:
        return ((f, 1 - i, t) for t, i, f in a_rows)
    return ((f, i, t) for t, i, f in a_rows)


def _conjunct(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    kind, meet, join, overflow = sys._resolved
    pairs = zip(a_rows, b_rows)
    if kind is SystemKind.NS:
        return [(meet(ta, tb), join(ia, ib), join(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]
    if kind is SystemKind.IFS:
        return _widened([(meet(ta, tb), join(fa, fb)) for (ta, _, fa), (tb, _, fb) in pairs])
    if kind is SystemKind.IIFS_MIN_I:
        return [(meet(ta, tb), meet(ia, ib), join(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]
    return [_restore_sum_bound(meet(ta, tb), meet(ia, ib), join(ia, ib), join(fa, fb), overflow)
            for (ta, ia, fa), (tb, ib, fb) in pairs]


def _disjunct(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    kind, meet, join, _ = sys._resolved
    pairs = zip(a_rows, b_rows)
    if kind is SystemKind.IFS:
        return _widened([(join(ta, tb), meet(fa, fb)) for (ta, _, fa), (tb, _, fb) in pairs])
    return [(join(ta, tb), meet(ia, ib), meet(fa, fb)) for (ta, ia, fa), (tb, ib, fb) in pairs]


def _implicate(a_rows: Iterable[tuple], b_rows: Iterable[tuple], sys: OperatorSystem) -> list:
    # (not a) or b; negation keeps an operand in its family, so not-a needs no check
    return _disjunct(_negate(a_rows, sys), b_rows, sys)


def _restore_sum_bound(t: Real, i_met: Real, i_joined: Real, f: Real, rule: OverflowRule) -> tuple:
    joined_sum = t + i_joined + f
    if within(joined_sum, _IIFS_BOUND):
        return (t, i_joined, f)
    if rule is OverflowRule.OUTPUT:
        return (t / joined_sum, i_joined / joined_sum, f / joined_sum)
    return (t / joined_sum, i_met / joined_sum, f / joined_sum)


def _closed(rows: list, sys: OperatorSystem) -> list:
    """``rows`` with each row outside the system's family rescaled onto its bound by its own sum.

    IIFS rows take the ``OUTPUT`` overflow rule; an IFS row scales T and F by T + F and is widened again.
    """
    family = _OPERAND_FAMILY[sys.system]
    out = []
    for row in rows:
        if _first_outside([row], family) >= 0:
            t, i, f = row
            if sys.system is SystemKind.IFS:
                s = 0 + t + f
                row = _widened([(t / s, f / s)])[0]
            else:
                s = t + i + f
                row = (t / s, i / s, f / s)
        out.append(row)
    return out


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
    the system's family unless their set's family lies inside it. The
    result is tagged with the system's family and holds what the scalar
    operators give: a row past the family's bound is closed into it, as
    the module docstring says, so no result element raises. Its components
    are in [0, 1] by construction (see the operator bodies), so only the
    family test runs on them, and a second time only when it finds a row
    to close.
    """
    if op is Op.NOT:
        out = list(_negate(_operands(a_set, sys), sys))
    else:
        if b_set is None:
            raise UsageError(f"operator {op.value!r} needs two operand sets")
        _require_same_universe(a_set, b_set)
        out = _BINARY[op](_operands(a_set, sys), _operands(b_set, sys), sys)
    family = system_family(sys)
    try:
        return LabeledSet._of_ranged(a_set.universe, out, family, False)
    except UsageError:  # the operands' shape is sound, so only the family test fails here: a row to close
        return LabeledSet._of_ranged(a_set.universe, _closed(out, sys), family, False)


def system_family(sys: OperatorSystem) -> FamilySpec:
    """The family tag matching a system's operand convention."""
    return _OPERAND_FAMILY[sys.system]
