import math
import numbers
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroset.core import (
    ABS_TOL,
    ComponentRangeError,
    IntervalValue,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    as_component,
    dependence_sum_bound,
    inf_of,
    leftover,
    scalar_of,
    sums_to_one,
    sup_of,
    within,
)
from neutroset.families import FAMILY_TABLE, FamilyKind, FamilySpec, ValidationReport, validate
from neutroset.indeterminacy import NeutrosophicNumber
from neutroset.refined import RefinedKind

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestUnitValue:
    def test_plain_value(self):
        assert UnitValue(0.3).v == 0.3

    def test_boundary(self):
        assert UnitValue(1.0).v == 1.0
        assert UnitValue(0.0).v == 0.0

    def test_overset_value_rejected(self):
        # 45 hours against a 40-hour norm is 1.125, an off-range degree
        with pytest.raises(ComponentRangeError) as exc:
            UnitValue(1.125)
        assert exc.value.value == 1.125

    def test_negative_rejected(self):
        with pytest.raises(ComponentRangeError):
            UnitValue(-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ComponentRangeError):
            UnitValue(float("nan"))

    def test_exact_types_preserved(self):
        assert UnitValue(Fraction(1, 3)).v == Fraction(1, 3)


class TestDependenceSumBound:
    def test_fully_dependent(self):
        assert dependence_sum_bound(1.0) == 1.0

    def test_fully_independent(self):
        assert dependence_sum_bound(0.0) == 2.0

    def test_halfway(self):
        assert dependence_sum_bound(0.5) == 1.5

    def test_out_of_range(self):
        with pytest.raises(ComponentRangeError):
            dependence_sum_bound(1.5)
        with pytest.raises(ComponentRangeError):
            dependence_sum_bound(-0.1)

    @given(units)
    def test_range_and_monotonicity(self, d):
        bound = dependence_sum_bound(d)
        assert 1.0 <= bound <= 2.0

    @given(units, units)
    def test_monotone_decreasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert dependence_sum_bound(hi) <= dependence_sum_bound(lo)


class TestIntervalValue:
    def test_orientation_enforced(self):
        with pytest.raises(ComponentRangeError):
            IntervalValue(0.7, 0.3)

    def test_range_enforced(self):
        with pytest.raises(ComponentRangeError):
            IntervalValue(0.2, 1.2)

    def test_degenerate_collapses_to_scalar(self):
        iv = IntervalValue(0.4, 0.4)
        assert iv.degenerate
        assert scalar_of(iv) == 0.4

    def test_nondegenerate_is_not_scalar(self):
        iv = IntervalValue(0.2, 0.4)
        with pytest.raises(UsageError):
            scalar_of(iv)

    @given(units)
    def test_degenerate_sup_inf_match_unit(self, v):
        iv = IntervalValue(v, v)
        uv = UnitValue(v)
        assert sup_of(iv) == inf_of(iv) == uv.v


class TestTriplet:
    def test_no_joint_constraint(self):
        Triplet(1.0, 1.0, 1.0)  # paraconsistent triplets are fine here

    def test_component_range_still_enforced(self):
        with pytest.raises(ComponentRangeError):
            Triplet(1.2, 0.0, 0.0)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (float("nan"), ComponentRangeError),
            (float("inf"), ComponentRangeError),
            (float("-inf"), ComponentRangeError),
            (1.0000000001, ComponentRangeError),
            (-1e-300, ComponentRangeError),
            (np.float64("nan"), ComponentRangeError),
            (np.float64(1.5), ComponentRangeError),
            (True, UsageError),
            ("0.5", UsageError),
        ],
    )
    def test_every_slot_checks_range_and_type(self, bad, error):
        for args in ((bad, 0.5, 0.5), (0.5, bad, 0.5), (0.5, 0.5, bad)):
            with pytest.raises(error):
                Triplet(*args)
        for args in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(error):
                Pair(*args)

    def test_keyword_construction_keeps_values(self):
        t = Triplet(t=-0.0, i=Fraction(1, 3), f=1)
        assert math.copysign(1.0, t.t) == -1.0
        assert t.components() == (-0.0, Fraction(1, 3), 1) and type(t.f) is int
        assert Pair(f=0.25, t=0.5) == Pair(0.5, 0.25)

    def test_accepts_unit_values_and_intervals(self):
        t = Triplet(UnitValue(0.3), IntervalValue(0.1, 0.2), 0.5)
        assert t.t == 0.3
        assert isinstance(t.i, IntervalValue)

    def test_scalars_reject_wide_intervals(self):
        t = Triplet(0.3, IntervalValue(0.1, 0.2), 0.5)
        with pytest.raises(UsageError):
            t.scalars()

    @given(units, units, units)
    def test_component_sum(self, a, b, c):
        assert Triplet(a, b, c).component_sum() == pytest.approx(a + b + c, abs=1e-12)


class TestPair:
    def test_a_sum_1_triplet_drops_its_middle(self):
        r = Triplet(0.3, 0.6, 0.1)
        assert sums_to_one(r.component_sum()) and Pair(r.t, r.f) == Pair(0.3, 0.1)
        assert not sums_to_one(Triplet(0.3, 0.3, 0.1).component_sum())


class TestSumsToOne:
    def test_both_ends_of_the_band_count(self):
        assert sums_to_one(1 + 1e-9) and sums_to_one(1 - 1e-9) and sums_to_one(Fraction(1))
        assert not sums_to_one(1 + 2e-9) and not sums_to_one(1 - 2e-9)
        assert sums_to_one(1.01, tol=0.01) and not sums_to_one(Fraction(99, 100), tol=Fraction(1, 1000))


#: Every family bound, and every refined bound for arity sums up to 12.
BOUNDS = sorted(
    {row.bound(row.arity) for row in FAMILY_TABLE.values()}
    | {kind.row.bound(n) for kind in RefinedKind for n in range(1, 13)}
)
#: Tolerances of every kind ``within`` and ``sums_to_one`` may meet.
TOLS = (
    st.sampled_from([0, 0.0, -0.0, ABS_TOL, -ABS_TOL, 0.01, Fraction(1, 10**9), Fraction(ABS_TOL), Fraction(-1, 10**9),
                     math.nan, math.inf, -math.inf])
    | st.floats(-1e-6, 1e-6)
    | st.fractions(-1, 1, max_denominator=10**12)
)
#: Offsets from a bound, as ints, Fractions and floats, on and around the tolerance band's edges.
OFFSETS = st.sampled_from([0, 1, -1, 0.0, -0.0, ABS_TOL, -ABS_TOL, 2 * ABS_TOL, -2 * ABS_TOL, ABS_TOL / 2, 1e-17,
                           -1e-17, Fraction(ABS_TOL), -Fraction(ABS_TOL), Fraction(1, 10**9), Fraction(1, 10**10)])
#: Sums with no bound in mind: signed zeros, NaN, infinities and values of every numeric type.
SPECIAL_SUMS = (
    st.sampled_from([0, -0.0, 0.0, math.nan, math.inf, -math.inf])
    | st.integers(-3, 40)
    | st.fractions(-1, 40, max_denominator=10**12)
    | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def sums_near(draw, bound):
    """A sum: one of SPECIAL_SUMS, or ``bound`` plus an offset, as an int, Fraction or float, maybe a float step off."""
    if draw(st.booleans()):
        return draw(SPECIAL_SUMS)
    total = draw(st.sampled_from([lambda b: b, Fraction, float]))(bound) + draw(OFFSETS)
    if isinstance(total, float) and draw(st.booleans()):
        total = math.nextafter(total, draw(st.sampled_from([math.inf, -math.inf])))
    return total


class TestWithin:
    """Trying the exact bound first changes no answer: ``within`` is ``total <= bound + tol`` for every input."""

    @given(st.sampled_from(BOUNDS).flatmap(lambda b: st.tuples(sums_near(b), st.just(b))), TOLS)
    def test_within_is_the_plain_comparison(self, total_bound, tol):
        total, bound = total_bound
        assert within(total, bound, tol) == (total <= bound + tol)

    @given(sums_near(1), TOLS)
    def test_sums_to_one_is_the_plain_band(self, total, tol):
        assert sums_to_one(total, tol) == (1 - tol <= total <= 1 + tol)

    def test_the_band_edges(self):
        assert within(1 + ABS_TOL, 1) and not within(1 + 2 * ABS_TOL, 1)
        assert within(Fraction(3), 3, -0.0) and not within(Fraction(3), 3, -ABS_TOL)
        assert not within(math.nan, 1) and not within(1, 1, math.nan) and within(math.inf, 1, math.inf)


class TestLeftover:
    @pytest.mark.parametrize("total", [1 + Fraction(1, 10**10), 2, 1 + 1e-17, 1.0, 1, Fraction(1)])
    def test_zero_of_the_input_type(self, total):
        got = leftover(total)
        assert got == 0 and type(got) is type(total)
        assert str(got) != "-0.0"

    @pytest.mark.parametrize("total, x", [(Fraction(2, 3), Fraction(1, 3)), (0, 1), (0.75, 0.25)])
    def test_what_a_sum_below_1_leaves(self, total, x):
        got = leftover(total)
        assert got == x and type(got) is type(x)


OUT = "ComponentRangeError: component value {v!r} outside permitted range"
NOT_FINITE = "ComponentRangeError: component value {v!r} is not finite"
SNS_OUT = "ComponentRangeError: component {v!r} outside [0, 1.73205]"
NOT_REAL = "UsageError: expected a real number, got {t}"
NS = FamilySpec(FamilyKind.NS)
SNS = FamilySpec(FamilyKind.SNS)

#: What as_component, UnitValue, validate((v, 0, 0), NS) and validate((v, 0, 0), SNS) give for each edge value.
#: An error shows as its type and text, with ``{v!r}`` and ``{t}`` standing for the value's repr and type name,
#: which differ between numpy versions.
EDGE_TABLE = [
    (0, "int 0", "UnitValue int 0",
     "True int 0; NS: constraint value 0 vs bound 3", "True int 0; SNS: constraint value 0 vs bound 3"),
    (1, "int 1", "UnitValue int 1",
     "True int 1; NS: constraint value 1 vs bound 3", "True int 1; SNS: constraint value 1 vs bound 3"),
    (2, OUT, OUT, OUT, SNS_OUT),
    (-1, OUT, OUT, OUT, SNS_OUT),
    (Fraction(1, 2), "Fraction 1/2", "UnitValue Fraction 1/2",
     "True Fraction 1/2; NS: constraint value 0.5 vs bound 3",
     "True Fraction 1/4; SNS: constraint value 0.25 vs bound 3"),
    (Fraction(3, 2), OUT, OUT, OUT, "True Fraction 9/4; SNS: constraint value 2.25 vs bound 3"),
    (Fraction(-1, 2), OUT, OUT, OUT, SNS_OUT),
    (-0.0, "float -0.0", "UnitValue float -0.0",
     "True float 0.0; NS: constraint value 0 vs bound 3", "True float 0.0; SNS: constraint value 0 vs bound 3"),
    (math.nan, NOT_FINITE, NOT_FINITE, NOT_FINITE, SNS_OUT),
    (math.inf, NOT_FINITE, NOT_FINITE, NOT_FINITE, SNS_OUT),
    (True, NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
    (False, NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
    (Decimal("0.5"), NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
    ("0.5", NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
    (None, NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
    (np.int64(1), "int64 1", "UnitValue int64 1",
     "True int64 1; NS: constraint value 1 vs bound 3", "True int64 1; SNS: constraint value 1 vs bound 3"),
    (np.int64(2), OUT, OUT, OUT, SNS_OUT),
    (np.uint8(1), "uint8 1", "UnitValue uint8 1",
     "True uint8 1; NS: constraint value 1 vs bound 3", "True uint8 1; SNS: constraint value 1 vs bound 3"),
    (np.float64(0.5), "float64 0.5", "UnitValue float64 0.5",
     "True float64 0.5; NS: constraint value 0.5 vs bound 3",
     "True float64 0.25; SNS: constraint value 0.25 vs bound 3"),
    (np.float64("nan"), NOT_FINITE, NOT_FINITE, NOT_FINITE, SNS_OUT),
    (np.True_, NOT_REAL, NOT_REAL, NOT_REAL, NOT_REAL),
]


def _shown(call, v) -> str:
    """What ``call(v)`` gives, as text: the value and its type, a report's verdict, or the error's type and text."""
    try:
        got = call(v)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(got, UnitValue):
        return f"UnitValue {type(got.v).__name__} {got.v}"
    if isinstance(got, ValidationReport):
        c = got.constraint_value
        return f"{got.valid} {type(c).__name__} {c}; {got.diagnostics}"
    return f"{type(got).__name__} {got}"


@numbers.Rational.register
class NegativeDenominator:
    """A rational held as ``numerator / denominator`` with a negative denominator; it compares by its value."""

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator

    def __le__(self, other):
        return Fraction(self.numerator, self.denominator) <= other

    def __ge__(self, other):
        return Fraction(self.numerator, self.denominator) >= other

    def __repr__(self):
        return f"NegativeDenominator({self.numerator}, {self.denominator})"


@st.composite
def signed_fractions(draw):
    """Fractions p/q with q up to 10**12, p anywhere or next to 0 or to q."""
    q = draw(st.integers(min_value=1, max_value=10**12))
    p = draw(st.integers() | st.integers(min_value=-1, max_value=1) | st.integers(min_value=q - 1, max_value=q + 1))
    return Fraction(p, q)


class TestUnitRange:
    """One unit-range test for every component: what it accepts, and the error it gives otherwise."""

    @pytest.mark.parametrize("row", EDGE_TABLE, ids=[f"{type(r[0]).__name__}-{r[0]!r}" for r in EDGE_TABLE])
    def test_edge_values(self, row):
        v, *want = row
        calls = (as_component, UnitValue, lambda x: validate((x, 0, 0), NS), lambda x: validate((x, 0, 0), SNS))
        got = [_shown(call, v) for call in calls]
        assert got == [w.format(v=v, t=type(v).__name__) for w in want]

    @given(st.integers() | signed_fractions() | st.floats())
    def test_as_component_accepts_exactly_the_unit_interval(self, x):
        try:
            got = as_component(x)
        except ComponentRangeError:
            assert not 0 <= x <= 1
        else:
            assert 0 <= x <= 1 and got is x

    def test_a_rational_with_a_negative_denominator_takes_the_plain_comparison(self):
        half = NegativeDenominator(-1, -2)  # 1/2, whose numerator and denominator both lie below 0
        assert as_component(half) is half and UnitValue(half).v is half
        for v in (NegativeDenominator(-3, -2), NegativeDenominator(1, -2)):
            with pytest.raises(ComponentRangeError, match=r"^component value NegativeDenominator\("):
                as_component(v)

    def test_bool_is_refused_after_ints_and_fractions_pass(self):
        for v in (0, 1, Fraction(1, 2), Fraction(1)):
            assert as_component(v) is v and UnitValue(v).v is v
            assert validate((v, 0, 0), NS).valid and validate((v, 0, 0), SNS).valid
        for b in (True, False, np.True_):
            for call in (as_component, UnitValue, lambda x: IntervalValue(x, x), lambda x: Triplet(x, 0, 0),
                         lambda x: validate((x, 0, 0), NS), lambda x: validate((x, 0, 0), SNS)):
                with pytest.raises(UsageError, match="expected a real number"):
                    call(b)
            with pytest.raises(UsageError, match="coefficients must be real numbers"):
                NeutrosophicNumber(b, 0)
