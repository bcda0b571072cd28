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
from numbers import Real

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


def _check_real(x) -> Real:
    if isinstance(x, bool) or not isinstance(x, Real):
        raise UsageError(f"expected a real number, got {type(x).__name__}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ComponentRangeError(x, f"component value {x!r} is not finite")
    return x


def _check_unit_range(x: Real) -> Real:
    if not 0 <= x <= 1:
        raise ComponentRangeError(x)
    return x


@dataclass(frozen=True)
class UnitValue:
    """A scalar degree in [0, 1]."""

    v: Real

    def __post_init__(self):
        _check_unit_range(_check_real(self.v))

    @property
    def sup(self) -> Real:
        return self.v

    @property
    def inf(self) -> Real:
        return self.v

    def __float__(self) -> float:
        return float(self.v)


@dataclass(frozen=True)
class IntervalValue:
    """A closed subinterval of [0, 1].

    A degenerate interval (lo == hi) is accepted anywhere a scalar is and
    behaves identically to the corresponding :class:`UnitValue`.
    """

    lo: Real
    hi: Real

    def __post_init__(self):
        _check_unit_range(_check_real(self.lo))
        _check_unit_range(_check_real(self.hi))
        if self.lo > self.hi:
            raise ComponentRangeError((self.lo, self.hi), f"interval [{self.lo}, {self.hi}] is empty")

    @property
    def sup(self) -> Real:
        return self.hi

    @property
    def inf(self) -> Real:
        return self.lo

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def as_unit(self) -> UnitValue:
        if not self.degenerate:
            raise UsageError(f"interval [{self.lo}, {self.hi}] is not degenerate")
        return UnitValue(self.lo)


#: Anything accepted as one component: a raw number, a UnitValue, or an interval.
Component = Real | UnitValue | IntervalValue


def as_component(x: Component) -> Real | IntervalValue:
    """Normalize caller input to a validated raw number or interval."""
    if type(x) is float and 0 <= x <= 1:
        return x  # the common case; NaN and infinities fail the range test and take the full check
    if isinstance(x, UnitValue):
        return x.v
    if isinstance(x, IntervalValue):
        return x
    return _check_unit_range(_check_real(x))


def sup_of(x: Real | IntervalValue) -> Real:
    return x.hi if isinstance(x, IntervalValue) else x


def inf_of(x: Real | IntervalValue) -> Real:
    return x.lo if isinstance(x, IntervalValue) else x


def clamp_at_zero(x: Real) -> Real:
    """``x``, or a zero of ``x``'s own type where rounding left it below zero.

    ``x - x`` keeps ints and Fractions exact and gives +0.0 for floats.
    """
    return x if x > 0 else x - x


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

    def approx_eq(self, other: "Triplet", tol: float = ABS_TOL) -> bool:
        a, b = self.scalars(), other.scalars()
        return all(abs(x - y) <= tol for x, y in zip(a, b))


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

    def scalars(self) -> tuple[Real, Real]:
        return (scalar_of(self.t), scalar_of(self.f))

    @classmethod
    def from_triplet(cls, triplet: Triplet, tol: float = ABS_TOL) -> "Pair":
        """Down-convert a sum-1 triplet, dropping its derivable middle component."""
        s = triplet.component_sum()
        if abs(s - 1) > tol:
            raise UsageError(f"triplet components sum to {s}, not 1; cannot drop the middle component")
        t, _, f = triplet.scalars()
        return cls(t, f)


def make_unit(v: Real) -> UnitValue:
    """Validate ``v`` into a :class:`UnitValue`.

    Values outside [0, 1] raise :class:`ComponentRangeError` carrying the
    offending value; degrees beyond the unit interval are only meaningful
    in :mod:`neutroset.decision` (over/under/off sets).
    """
    return UnitValue(v)


def dependence_sum_bound(d: Real) -> Real:
    """Maximum allowed sum of two components whose degree of dependence is ``d``.

    Fully dependent components (d = 1) must sum to at most 1; fully
    independent ones (d = 0) may sum to 2. Linear in between: ``2 - d``.
    """
    _check_real(d)
    if not 0 <= d <= 1:
        raise ComponentRangeError(d, f"dependence degree {d!r} outside [0, 1]")
    return 2 - d
