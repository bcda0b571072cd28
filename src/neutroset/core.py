"""Atomic value types shared by every set family.

Unit scalars, closed subintervals of [0, 1], unconstrained component
triplets, and (truth, falsehood) pairs. Constraints that tie components
together live in :mod:`neutroset.families`; the types here only guard
individual ranges.

Exact numeric types (int, Fraction) are preserved through every operation,
so algebraic identities that hold on paper also hold bitwise when callers
supply exact inputs. Floats behave like floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Rational, Real

#: Absolute tolerance for internal equality checks and constraint slack.
ABS_TOL = 1e-9

#: Tolerance when comparing against values printed with two decimals.
PRINTED_TOL = 0.01


class NeutrosetError(Exception):
    """Base class for every error raised by this package."""


class ComponentRangeError(NeutrosetError, ValueError):
    """A component value lies outside its permitted range."""

    def __init__(self, value, message: str | None = None):
        self.value = value
        super().__init__(message or f"component value {value!r} outside permitted range")


class ConstraintError(NeutrosetError, ValueError):
    """Components violate the family constraint an operation requires."""


class UsageError(NeutrosetError, ValueError):
    """Structurally invalid call: wrong arity, mismatched universes, bad thresholds."""


class DegenerateInputError(NeutrosetError, ValueError):
    """Input whose normalizing denominator vanishes."""


class UndefinedOperationError(NeutrosetError, ArithmeticError):
    """Operation left undefined by the indeterminacy algebra."""


class DocumentError(NeutrosetError, ValueError):
    """Malformed or inconsistent element-set document."""


#: The types seen to be ``numbers.Rational``, each recorded once by the first value :func:`_is_real` passes.
#: A rational with a positive denominator lies in [0, 1] when ``0 <= numerator <= denominator``. bool never
#: joins. Membership changes what a test costs, never its answer.
_RATIONAL_TYPES = {int}


def _is_real(x) -> bool:
    """Whether ``x`` is a real number: a ``numbers.Real`` other than a bool.

    A float, or a value of a type already recorded as rational, answers without an ABC check.
    """
    t = type(x)
    if t is float or t in _RATIONAL_TYPES:
        return True
    if t is bool or not isinstance(x, Real):
        return False
    if isinstance(x, Rational):
        _RATIONAL_TYPES.add(t)
    return True


def _in_unit(x: Real) -> bool:
    """Whether the real number ``x`` lies in [0, 1]; the one unit-range test of every component.

    A rational of a recorded type with a positive denominator compares integers,
    ``0 <= numerator <= denominator``: the same answer as ``0 <= x <= 1``.
    Anything else, NaN among it, takes that plain comparison.
    """
    if type(x) in _RATIONAL_TYPES:
        d = x.denominator
        if d > 0:
            return 0 <= x.numerator <= d
    return 0 <= x <= 1


def _check_real(x) -> Real:
    if not _is_real(x):
        raise UsageError(f"expected a real number, got {type(x).__name__}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ComponentRangeError(x, f"component value {x!r} is not finite")
    return x


def _check_unit_range(x: Real) -> Real:
    if not _in_unit(x):
        raise ComponentRangeError(x)
    return x


@dataclass(frozen=True)
class UnitValue:
    """A scalar degree in [0, 1].

    Values outside [0, 1] raise :class:`ComponentRangeError` carrying the
    offending value; degrees beyond the unit interval are only meaningful
    in :mod:`neutroset.decision` (over/under/off sets).
    """

    v: Real

    def __post_init__(self):
        v = self.v
        if type(v) is float and 0 <= v <= 1 or type(v) in _RATIONAL_TYPES and _in_unit(v):
            return  # the common cases, as in as_component
        _check_unit_range(_check_real(v))


@dataclass(frozen=True)
class IntervalValue:
    """A closed subinterval of [0, 1].

    A degenerate interval (lo == hi) is accepted anywhere a scalar is:
    :func:`scalar_of` collapses it to ``lo``.
    """

    lo: Real
    hi: Real

    def __post_init__(self):
        _check_unit_range(_check_real(self.lo))
        _check_unit_range(_check_real(self.hi))
        if self.lo > self.hi:
            raise ComponentRangeError((self.lo, self.hi), f"interval [{self.lo}, {self.hi}] is empty")

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi


#: Anything accepted as one component: a raw number, a UnitValue, or an interval.
Component = Real | UnitValue | IntervalValue


def as_component(x: Component) -> Real | IntervalValue:
    """Normalize caller input to a validated raw number or interval.

    A float in [0, 1] returns first. Next an int, a Fraction or another
    rational whose type :func:`_is_real` has recorded returns when
    :func:`_in_unit` passes it, comparing numerator with denominator. Every
    other value, NaN, infinities, bools and values out of range among them,
    takes the full check and its error.
    """
    if type(x) is float and 0 <= x <= 1:
        return x  # the common case; NaN and infinities fail the range test and take the full check
    if type(x) in _RATIONAL_TYPES and _in_unit(x):
        return x
    if isinstance(x, UnitValue):
        return x.v
    if isinstance(x, IntervalValue):
        return x
    return _check_unit_range(_check_real(x))


def sup_of(x: Real | IntervalValue) -> Real:
    return x.hi if isinstance(x, IntervalValue) else x


def inf_of(x: Real | IntervalValue) -> Real:
    return x.lo if isinstance(x, IntervalValue) else x


def leftover(total: Real) -> Real:
    """What ``total``, a component sum taken left to right from 0, leaves short of 1.

    ``1 - total`` below 1, else a zero of ``total``'s own type: ints and Fractions stay exact, floats give +0.0.
    """
    return 1 - total if total < 1 else total - total


def within(total: Real, bound: Real, tol: float = ABS_TOL) -> bool:
    """Whether a component sum meets a bound within ``tol``: ``total <= bound + tol``.

    For ``tol >= 0`` the exact ``bound`` is tried first, with the same
    answer: rounding is monotone, so ``bound <= bound + tol`` in floats too
    for a bound a float holds (every family bound does). So an int or
    Fraction sum that meets its bound is never converted to meet the float
    ``bound + tol``. NaN and a negative or NaN ``tol`` take the plain test.
    """
    return tol >= 0 and total <= bound or total <= bound + tol


def sums_to_one(total: Real, tol: float = ABS_TOL) -> bool:
    """Whether a component sum is 1 within ``tol``: ``1 - tol <= total <= 1 + tol``.

    As in :func:`within`, an exact 1 is tried first when ``tol >= 0``.
    """
    return tol >= 0 and total == 1 or 1 - tol <= total <= 1 + tol


def scalar_of(x: Real | IntervalValue) -> Real:
    """The scalar value of a component; degenerate intervals collapse."""
    if isinstance(x, IntervalValue):
        if x.degenerate:
            return x.lo
        raise UsageError(f"operation requires scalar components, got interval [{x.lo}, {x.hi}]")
    return x


@dataclass(frozen=True)
class Triplet:
    """Ordered (T, I, F) components, each in [0, 1], with no joint constraint.

    Which joint constraints hold is a property of a family, checked by
    :func:`neutroset.families.validate`.
    """

    t: Real | IntervalValue
    i: Real | IntervalValue
    f: Real | IntervalValue

    def __init__(self, t, i, f):  # written out: the generated __init__ would set each field twice
        object.__setattr__(self, "t", as_component(t))
        object.__setattr__(self, "i", as_component(i))
        object.__setattr__(self, "f", as_component(f))

    def components(self) -> tuple:
        return (self.t, self.i, self.f)

    def scalars(self) -> tuple[Real, Real, Real]:
        return (scalar_of(self.t), scalar_of(self.i), scalar_of(self.f))

    def component_sum(self) -> Real:
        t, i, f = self.scalars()
        return t + i + f


@dataclass(frozen=True)
class Pair:
    """Ordered (T, F) components, each in [0, 1]."""

    t: Real | IntervalValue
    f: Real | IntervalValue

    def __init__(self, t, f):
        object.__setattr__(self, "t", as_component(t))
        object.__setattr__(self, "f", as_component(f))

    def components(self) -> tuple:
        return (self.t, self.f)


def _sum_bound(n: int, d: Real) -> Real:
    """The most that ``n`` components whose degree of dependence is ``d`` may sum to: ``n - (n - 1) * d``.

    Fully independent components (d = 0) may sum to ``n``, fully dependent
    ones (d = 1) to 1; an int ``d`` gives an int bound.
    """
    return n - (n - 1) * d


def dependence_sum_bound(d: Real) -> Real:
    """Maximum allowed sum of two components whose degree of dependence is ``d``.

    Fully dependent components (d = 1) must sum to at most 1; fully
    independent ones (d = 0) may sum to 2. Linear in between: ``2 - d``.
    """
    if not _in_unit(_check_real(d)):
        raise ComponentRangeError(d, f"dependence degree {d!r} outside [0, 1]")
    return _sum_bound(2, d)
