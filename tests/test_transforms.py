from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from neutroset.core import DegenerateInputError, IntervalValue, Triplet, UsageError
from neutroset.families import FamilyKind, FamilySpec, validate
from neutroset.operators import Op, OperatorSystem, OverflowRule, SystemKind, setwise
from neutroset.transforms import (
    LabeledSet,
    divergence_report,
    normalize_elementwise,
    paradox_check,
    sup_transform,
)

NS_TAG = FamilySpec(FamilyKind.NS)
A_N = LabeledSet.from_mapping({"x1": (0.8, 0.3, 0.5), "x2": (0.9, 0.2, 0.6)}, NS_TAG)
B_N = LabeledSet.from_mapping({"x1": (0.2, 0.1, 0.3), "x2": (0.6, 0.2, 0.1)}, NS_TAG)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


def trip(t: Triplet) -> tuple:
    return tuple(float(v) for v in t.scalars())


class TestLabeledSet:
    def test_tag_validation(self):
        with pytest.raises(UsageError):
            LabeledSet.from_mapping({"x1": (0.8, 0.3, 0.5)}, FamilySpec(FamilyKind.IIFS))

    def test_duplicate_names_rejected(self):
        with pytest.raises(UsageError):
            LabeledSet(("x1", "x1"), (Triplet(0, 0, 0), Triplet(0, 0, 0)), NS_TAG)

    @pytest.mark.parametrize(
        "universe, elements, message",
        [
            ((), (), "universe is empty"),
            (("x1",), ((0.1, 0.2, 0.3),), "set elements must be Triplets, got tuple"),
        ],
    )
    def test_malformed_sets_rejected(self, universe, elements, message):
        with pytest.raises(UsageError) as info:
            LabeledSet(universe, elements, NS_TAG)
        assert str(info.value) == message

    def test_a_set_equals_no_other_type(self):
        assert A_N.__eq__(A_N.rows) is NotImplemented and A_N != A_N.rows

    def test_element_lookup(self):
        assert A_N.element("x2") == Triplet(0.9, 0.2, 0.6)
        with pytest.raises(UsageError):
            A_N.element("zz")


class TestSupTransform:
    def test_first_set_golden(self):
        res = sup_transform(A_N)
        assert res.denominator == pytest.approx(1.8)
        # full-precision oracle: components over 0.9 + 0.3 + 0.6
        assert trip(res.labeled.element("x1")) == pytest.approx(
            (0.8 / 1.8, 0.3 / 1.8, 0.5 / 1.8), abs=1e-12
        )
        assert trip(res.labeled.element("x1")) == pytest.approx((0.44, 0.17, 0.28), abs=0.01)
        assert trip(res.labeled.element("x2")) == pytest.approx((0.50, 0.11, 0.33), abs=0.01)
        assert float(res.refusals[0].v) == pytest.approx(1 / 9, abs=1e-12)
        assert float(res.refusals[1].v) == pytest.approx(1 / 18, abs=1e-12)

    def test_second_set_golden(self):
        res = sup_transform(B_N)
        assert res.denominator == pytest.approx(1.1)
        assert trip(res.labeled.element("x1")) == pytest.approx((0.18, 0.09, 0.27), abs=0.01)
        assert trip(res.labeled.element("x2")) == pytest.approx((0.55, 0.18, 0.09), abs=0.01)

    def test_output_is_iifs_tagged_and_valid(self):
        res = sup_transform(A_N)
        assert res.labeled.family.kind is FamilyKind.IIFS
        for t in res.labeled.triplets:
            assert validate(t, FamilySpec(FamilyKind.IIFS)).valid

    def test_unit_sup_sum_is_fixed_point(self):
        one = LabeledSet.from_mapping({"x": (0.2, 0.3, 0.5)}, NS_TAG)
        res = sup_transform(one)
        assert trip(res.labeled.element("x")) == pytest.approx((0.2, 0.3, 0.5), abs=1e-12)
        assert float(res.refusals[0].v) == pytest.approx(0.0, abs=1e-12)

    def test_zero_set_rejected(self):
        zeros = LabeledSet.from_mapping({"x": (0.0, 0.0, 0.0)}, NS_TAG)
        with pytest.raises(DegenerateInputError):
            sup_transform(zeros)

    @given(st.lists(st.tuples(unit_fractions, unit_fractions, unit_fractions), min_size=1, max_size=6))
    def test_refusals_always_in_unit_range(self, rows):
        assume(any(any(v > 0 for v in row) for row in rows))
        s = LabeledSet(
            tuple(f"e{k}" for k in range(len(rows))),
            tuple(Triplet(*row) for row in rows),
            NS_TAG,
        )
        res = sup_transform(s)
        for r in res.refusals:
            assert 0 <= r.v <= 1
        for t in res.labeled.triplets:
            assert t.component_sum() <= 1


class TestNormalizeElementwise:
    def test_golden_values(self):
        a = normalize_elementwise(A_N)
        assert trip(a.element("x1")) == pytest.approx((0.50, 0.1875, 0.3125), abs=1e-12)
        assert trip(a.element("x2")) == pytest.approx((0.53, 0.12, 0.35), abs=0.01)
        b = normalize_elementwise(B_N)
        assert trip(b.element("x1")) == pytest.approx((1 / 3, 1 / 6, 1 / 2), abs=1e-12)
        assert trip(b.element("x1")) == pytest.approx((0.33, 0.17, 0.50), abs=0.01)
        assert trip(b.element("x2")) == pytest.approx((0.67, 0.22, 0.11), abs=0.01)

    def test_already_normalized_fixed_point(self):
        s = LabeledSet.from_mapping({"x": (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))}, NS_TAG)
        assert normalize_elementwise(s).element("x") == s.element("x")

    @pytest.mark.parametrize("other", [(0.7, 0.1, 0.1), (IntervalValue(0.1, 0.7), 0.1, 0.1)])
    def test_component_sums_run_left_to_right(self, other):
        # builtin sum compensates float sums from Python 3.12 on: there it would give
        # (0.16666666666666669, 0.33333333333333337, 0.5) and refusals [0.5, 0.25], on sets with intervals or without
        s = LabeledSet.from_mapping({"x": (0.1, 0.2, 0.3), "y": other}, NS_TAG)
        assert normalize_elementwise(s).rows[0] == (0.16666666666666666, 0.3333333333333333, 0.4999999999999999)
        assert [r.v for r in sup_transform(s).refusals] == [0.5, 0.2499999999999999]

    def test_zero_element_named_in_error(self):
        s = LabeledSet.from_mapping({"ok": (0.5, 0.2, 0.3), "bad": (0.0, 0.0, 0.0)}, NS_TAG)
        with pytest.raises(DegenerateInputError, match="bad"):
            normalize_elementwise(s)

    @given(st.lists(st.tuples(unit_fractions, unit_fractions, unit_fractions), min_size=1, max_size=6))
    def test_idempotent(self, rows):
        assume(all(sum(row) > 0 for row in rows))
        s = LabeledSet(
            tuple(f"e{k}" for k in range(len(rows))),
            tuple(Triplet(*row) for row in rows),
            NS_TAG,
        )
        once = normalize_elementwise(s)
        twice = normalize_elementwise(once)
        assert once.triplets == twice.triplets

    @given(
        st.tuples(unit_fractions, unit_fractions, unit_fractions),
        st.fractions(min_value=Fraction(1, 64), max_value=1, max_denominator=64),
    )
    def test_scaling_covariance(self, row, k):
        assume(sum(row) > 0)
        plain = LabeledSet(("x",), (Triplet(*row),), NS_TAG)
        scaled = LabeledSet(("x",), (Triplet(*(v * k for v in row)),), NS_TAG)
        assert normalize_elementwise(plain).element("x") == normalize_elementwise(scaled).element("x")

    @given(st.tuples(unit_fractions, unit_fractions, unit_fractions))
    def test_output_sums_to_one(self, row):
        assume(sum(row) > 0)
        s = LabeledSet(("x",), (Triplet(*row),), NS_TAG)
        out = normalize_elementwise(s).element("x")
        assert out.component_sum() == 1  # exact for exact inputs


class TestIntervalComponents:
    """Both transforms divide an interval's two bounds and judge it by its supremum."""

    # sups per column: T 3/5, I 3/10, F 1/5, so the set-wide sup-sum is 11/10; both elements sum to 9/10
    SET = LabeledSet.from_mapping(
        {
            "x": (Fraction(2, 5), IntervalValue(Fraction(1, 10), Fraction(3, 10)), Fraction(1, 5)),
            "y": (Fraction(3, 5), Fraction(1, 5), Fraction(1, 10)),
        },
        NS_TAG,
    )

    def test_sup_transform(self):
        F = Fraction
        res = sup_transform(self.SET)
        assert res.denominator == F(11, 10)
        assert res.labeled.rows == (
            (F(4, 11), IntervalValue(F(1, 11), F(3, 11)), F(2, 11)),
            (F(6, 11), F(2, 11), F(1, 11)),
        )
        assert [r.v for r in res.refusals] == [F(2, 11), F(2, 11)]
        assert res.labeled.family.kind is FamilyKind.IIFS

    def test_normalize_elementwise(self):
        F = Fraction
        out = normalize_elementwise(self.SET)
        assert out.rows == (
            (F(4, 9), IntervalValue(F(1, 9), F(1, 3)), F(2, 9)),
            (F(2, 3), F(2, 9), F(1, 9)),
        )
        assert out.family.kind is FamilyKind.IFS


class TestParadoxCheck:
    def test_all_ones(self):
        report = paradox_check(Triplet(1, 1, 1))
        assert report.is_paradox and report.ns_valid and not report.iifs_valid
        assert trip(report.normalized) == (1 / 3, 1 / 3, 1 / 3)
        assert not report.normalized_is_paradox

    def test_plain_truth_is_not_paradox(self):
        report = paradox_check(Triplet(1, 0, 0))
        assert not report.is_paradox and report.iifs_valid

    def test_zero_triplet_has_no_normalization(self):
        report = paradox_check(Triplet(0, 0, 0))
        assert report.normalized is None and not report.is_paradox


class TestDivergenceReport:
    def test_self_comparison_is_clean(self):
        rep = divergence_report(A_N, A_N, tol=0.01)
        assert rep.max_abs_delta == 0.0 and not rep.verdict

    def test_universe_mismatch(self):
        other = LabeledSet.from_mapping({"y": (0.1, 0.2, 0.3)}, NS_TAG)
        with pytest.raises(UsageError):
            divergence_report(A_N, other)

    def test_transform_and_operate_do_not_commute(self):
        # operate-then-transform vs transform-then-operate, both aggregations
        ns = OperatorSystem(SystemKind.NS)
        maxi = OperatorSystem(SystemKind.IIFS_MAX_I, overflow=OverflowRule.PRINTED)
        a_t = sup_transform(A_N).labeled
        b_t = sup_transform(B_N).labeled
        for op in (Op.AND, Op.OR):
            operate_then_transform = sup_transform(setwise(A_N, B_N, op, ns)).labeled
            transform_then_operate = setwise(a_t, b_t, op, maxi)
            rep = divergence_report(operate_then_transform, transform_then_operate, tol=0.01)
            assert rep.verdict, op

    def test_counterexample_deltas_match_printed_magnitudes(self):
        ns = OperatorSystem(SystemKind.NS)
        maxi = OperatorSystem(SystemKind.IIFS_MAX_I, overflow=OverflowRule.PRINTED)
        c_t = sup_transform(setwise(A_N, B_N, Op.AND, ns)).labeled
        c_iifs = setwise(sup_transform(A_N).labeled, sup_transform(B_N).labeled, Op.AND, maxi)
        assert trip(c_t.element("x1")) == pytest.approx((0.133, 0.200, 0.333), abs=0.01)
        assert trip(c_iifs.element("x1")) == pytest.approx((0.18, 0.17, 0.28), abs=0.01)
