import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroset.core import (
    ComponentRangeError,
    IntervalValue,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    clamp_at_zero,
    dependence_sum_bound,
    make_unit,
    scalar_of,
)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestMakeUnit:
    def test_plain_value(self):
        assert make_unit(0.3).v == 0.3

    def test_boundary(self):
        assert make_unit(1.0).v == 1.0
        assert make_unit(0.0).v == 0.0

    def test_overset_value_rejected(self):
        # 45 hours against a 40-hour norm is 1.125, an off-range degree
        with pytest.raises(ComponentRangeError) as exc:
            make_unit(1.125)
        assert exc.value.value == 1.125

    def test_negative_rejected(self):
        with pytest.raises(ComponentRangeError):
            make_unit(-0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ComponentRangeError):
            make_unit(float("nan"))

    def test_exact_types_preserved(self):
        assert make_unit(Fraction(1, 3)).v == Fraction(1, 3)


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
        assert iv.as_unit() == UnitValue(0.4)
        assert scalar_of(iv) == 0.4

    def test_nondegenerate_is_not_scalar(self):
        iv = IntervalValue(0.2, 0.4)
        with pytest.raises(UsageError):
            iv.as_unit()
        with pytest.raises(UsageError):
            scalar_of(iv)

    @given(units)
    def test_degenerate_sup_inf_match_unit(self, v):
        iv = IntervalValue(v, v)
        uv = UnitValue(v)
        assert iv.sup == uv.sup and iv.inf == uv.inf


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
    def test_from_triplet_requires_sum_one(self):
        assert Pair.from_triplet(Triplet(0.3, 0.6, 0.1)) == Pair(0.3, 0.1)
        with pytest.raises(UsageError):
            Pair.from_triplet(Triplet(0.3, 0.3, 0.1))


class TestClampAtZero:
    @pytest.mark.parametrize("x", [Fraction(-1, 10**10), -1, -1e-17, 0.0, 0, Fraction(0)])
    def test_zero_of_the_input_type(self, x):
        got = clamp_at_zero(x)
        assert got == 0 and type(got) is type(x)
        assert str(got) != "-0.0"

    @pytest.mark.parametrize("x", [Fraction(1, 3), 1, 0.25])
    def test_positive_values_pass_through(self, x):
        assert clamp_at_zero(x) is x
