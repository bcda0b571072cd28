from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neutroset.core import ABS_TOL, ConstraintError, Triplet, UsageError
from neutroset.families import FamilyKind, FamilySpec
from neutroset.operators import (
    NormPair,
    Op,
    OperatorSystem,
    OverflowRule,
    SystemKind,
    TConorm,
    TNorm,
    conjunct,
    disjunct,
    implicate,
    negate,
    setwise,
)
from neutroset.transforms import LabeledSet

NS = OperatorSystem(SystemKind.NS)
IFS = OperatorSystem(SystemKind.IFS)
MAXI = OperatorSystem(SystemKind.IIFS_MAX_I)
MAXI_PRINTED = OperatorSystem(SystemKind.IIFS_MAX_I, overflow=OverflowRule.PRINTED)
MINI = OperatorSystem(SystemKind.IIFS_MIN_I)
PRODUCT_NORMS = NormPair(TNorm.PRODUCT, TConorm.PROB_SUM)

A1 = Triplet(0.3, 0.6, 0.1)
A2 = Triplet(0.4, 0.1, 0.5)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


def trip(x: Triplet) -> tuple:
    return tuple(float(v) for v in x.scalars())


def ns_triplets_f():
    return st.builds(Triplet, unit_fractions, unit_fractions, unit_fractions)


def iifs_triplets():
    # scale an arbitrary triplet into the sum <= 1 simplex
    def build(t, i, f, budget):
        total = t + i + f
        if total == 0:
            return Triplet(0, 0, 0)
        k = budget / total
        return Triplet(t * k, i * k, f * k)

    return st.builds(build, unit_fractions, unit_fractions, unit_fractions, unit_fractions)


def ifs_triplets():
    def build(t, i, f):
        total = t + i + f
        assume(total > 0)
        return Triplet(t / total, i / total, f / total)

    return st.builds(build, unit_fractions, unit_fractions, unit_fractions)


class TestSum1Goldens:
    """The worked sum-1 comparison: all four operators, both systems."""

    def test_negation(self):
        assert trip(negate(A1, IFS)) == pytest.approx((0.1, 0.6, 0.3), abs=1e-9)
        assert trip(negate(A2, IFS)) == pytest.approx((0.5, 0.1, 0.4), abs=1e-9)
        assert trip(negate(A1, NS)) == pytest.approx((0.1, 0.4, 0.3), abs=1e-9)
        assert trip(negate(A2, NS)) == pytest.approx((0.5, 0.9, 0.4), abs=1e-9)

    def test_intersection(self):
        assert trip(conjunct(A1, A2, IFS)) == pytest.approx((0.3, 0.2, 0.5), abs=1e-9)
        assert trip(conjunct(A1, A2, NS)) == pytest.approx((0.3, 0.6, 0.5), abs=1e-9)

    def test_union(self):
        assert trip(disjunct(A1, A2, IFS)) == pytest.approx((0.4, 0.5, 0.1), abs=1e-9)
        assert trip(disjunct(A1, A2, NS)) == pytest.approx((0.4, 0.1, 0.1), abs=1e-9)

    def test_implication(self):
        assert trip(implicate(A1, A2, IFS)) == pytest.approx((0.4, 0.3, 0.3), abs=1e-9)
        assert trip(implicate(A1, A2, NS)) == pytest.approx((0.4, 0.1, 0.3), abs=1e-9)

    def test_indeterminacy_slot_diverges_for_every_operator(self):
        for op in (conjunct, disjunct):
            assert float(op(A1, A2, NS).i) != pytest.approx(float(op(A1, A2, IFS).i), abs=1e-9)
        assert float(negate(A1, NS).i) != pytest.approx(float(negate(A1, IFS).i), abs=1e-9)
        assert float(implicate(A1, A2, NS).i) != pytest.approx(
            float(implicate(A1, A2, IFS).i), abs=1e-9
        )

    def test_divergence_persists_under_product_norms(self):
        ns = OperatorSystem(SystemKind.NS, norms=PRODUCT_NORMS)
        ifs = OperatorSystem(SystemKind.IFS, norms=PRODUCT_NORMS)
        for op in (conjunct, disjunct, implicate):
            assert float(op(A1, A2, ns).i) != pytest.approx(float(op(A1, A2, ifs).i), abs=1e-9)

    def test_forced_implication_case(self):
        got = implicate(Triplet(0, 0, 1), Triplet(1, 0, 0), NS)
        assert trip(got) == (1.0, 0.0, 0.0)


def near_sum_one(values, step):
    """Triplets anywhere in the cube, or summing to 1 plus a few half-tolerance steps."""

    @st.composite
    def build(draw):
        t, f = draw(values), draw(values)
        i = draw(values) if draw(st.booleans()) else 1 - t - f + draw(st.integers(-5, 5)) * step
        assume(0 <= i <= 1)
        return Triplet(t, i, f)

    return build()


operand_triplets = near_sum_one(units, ABS_TOL / 2) | near_sum_one(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6), Fraction(ABS_TOL) / 2
)


def operand_rule(x: Triplet, system: SystemKind) -> bool:
    """The operand constraints written out: IFS sums to 1, IIFS to at most 1, NS is free."""
    t, i, f = x.scalars()
    s = t + i + f
    if system is SystemKind.IFS:
        return abs(s - 1) <= ABS_TOL
    if system in (SystemKind.IIFS_MAX_I, SystemKind.IIFS_MIN_I):
        return s <= 1 + ABS_TOL
    return True


class TestOperandValidation:
    @settings(max_examples=300)
    @given(operand_triplets, st.sampled_from(SystemKind))
    def test_operand_check_follows_the_family_rules(self, x, system):
        try:
            negate(x, OperatorSystem(system))
        except ConstraintError:
            accepted = False
        else:
            accepted = True
        assert accepted == operand_rule(x, system)

    def test_ifs_requires_sum_one(self):
        with pytest.raises(ConstraintError):
            negate(Triplet(0.3, 0.3, 0.1), IFS)

    def test_iifs_requires_sum_le_one(self):
        with pytest.raises(ConstraintError):
            conjunct(Triplet(0.8, 0.3, 0.5), Triplet(0.1, 0.1, 0.1), MAXI)

    def test_ns_accepts_any_cube_point(self):
        negate(Triplet(1.0, 1.0, 1.0), NS)


class TestIifsConventions:
    # operands: the sup-rescaled x2 pair from the worked counterexample
    XA = Triplet(Fraction(1, 2), Fraction(1, 9), Fraction(1, 3))
    XB = Triplet(Fraction(6, 11), Fraction(2, 11), Fraction(1, 11))

    def test_min_convention_keeps_sum_bound(self):
        got = conjunct(self.XA, self.XB, MINI)
        assert trip(got) == pytest.approx((0.5, 1 / 9, 1 / 3), abs=1e-12)

    def test_max_convention_overflow_output_mode(self):
        # oracle: exact rational normalization of the max-I operator output
        t, i, f = Fraction(1, 2), Fraction(2, 11), Fraction(1, 3)
        s = t + i + f
        want = (float(t / s), float(i / s), float(f / s))
        got = conjunct(self.XA, self.XB, MAXI)
        assert trip(got) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx((0.495, 0.178, 0.327), abs=0.01)

    def test_max_convention_overflow_printed_mode(self):
        # the published figures normalize the met indeterminacy by the joined sum
        t, i_met, i_joined, f = Fraction(1, 2), Fraction(1, 9), Fraction(2, 11), Fraction(1, 3)
        s = t + i_joined + f
        want = (float(t / s), float(i_met / s), float(f / s))
        got = conjunct(self.XA, self.XB, MAXI_PRINTED)
        assert trip(got) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx((0.495, 0.109, 0.326), abs=0.01)

    def test_overflow_output_mode_on_rounded_operands(self):
        got = conjunct(Triplet(0.50, 0.11, 0.33), Triplet(0.55, 0.18, 0.09), MAXI)
        assert trip(got) == pytest.approx((0.495, 0.178, 0.327), abs=0.01)
        assert float(got.component_sum()) == pytest.approx(1.0, abs=1e-9)

    def test_no_overflow_modes_agree(self):
        a = Triplet(Fraction(4, 9), Fraction(1, 6), Fraction(5, 18))
        b = Triplet(Fraction(2, 11), Fraction(1, 11), Fraction(3, 11))
        assert conjunct(a, b, MAXI) == conjunct(a, b, MAXI_PRINTED)

    def test_min_convention_golden(self):
        got = conjunct(Triplet(0.44, 0.17, 0.28), Triplet(0.18, 0.09, 0.27), MINI)
        assert trip(got) == pytest.approx((0.18, 0.09, 0.28), abs=1e-9)

    def test_union_shared_by_conventions(self):
        a, b = Triplet(0.44, 0.17, 0.28), Triplet(0.18, 0.09, 0.27)
        assert disjunct(a, b, MINI) == disjunct(a, b, MAXI)
        assert trip(disjunct(a, b, MINI)) == pytest.approx((0.44, 0.09, 0.27), abs=1e-9)

    @given(iifs_triplets(), iifs_triplets())
    def test_min_convention_never_overflows(self, a, b):
        for norms in (NormPair(), PRODUCT_NORMS):
            sys = OperatorSystem(SystemKind.IIFS_MIN_I, norms=norms)
            out = conjunct(a, b, sys)
            assert out.component_sum() <= 1 + 1e-9
            out = disjunct(a, b, sys)
            assert out.component_sum() <= 1 + 1e-9

    @given(iifs_triplets(), iifs_triplets())
    def test_max_convention_output_respects_bound(self, a, b):
        out = conjunct(a, b, MAXI)
        assert out.component_sum() <= 1 + 1e-9


class TestAlgebraicProperties:
    @given(ns_triplets_f())
    def test_ns_negation_involution_exact(self, x):
        assert negate(negate(x, NS), NS) == x

    @given(iifs_triplets())
    def test_ifs_style_negation_involution_exact(self, x):
        assert negate(negate(x, MAXI), MAXI) == x

    @given(st.builds(Triplet, units, units, units))
    def test_ns_negation_involution_floats(self, x):
        back = negate(negate(x, NS), NS)
        assert trip(back) == pytest.approx(trip(x), abs=1e-12)

    @given(ns_triplets_f(), ns_triplets_f())
    def test_de_morgan_exact(self, a, b):
        left = negate(conjunct(a, b, NS), NS)
        right = disjunct(negate(a, NS), negate(b, NS), NS)
        assert left == right
        left = negate(disjunct(a, b, NS), NS)
        right = conjunct(negate(a, NS), negate(b, NS), NS)
        assert left == right

    @given(ifs_triplets(), ifs_triplets())
    def test_ifs_closure(self, a, b):
        for op in (conjunct, disjunct, implicate):
            out = op(a, b, IFS)
            assert float(out.component_sum()) == pytest.approx(1.0, abs=1e-9)

    @given(ns_triplets_f(), ns_triplets_f(), unit_fractions)
    def test_middle_slot_independence(self, a, b, new_i):
        # changing an operand's indeterminacy must not leak into T or F slots
        a_changed = Triplet(a.t, new_i, a.f)
        for op in (conjunct, disjunct):
            before = op(a, b, NS)
            after = op(a_changed, b, NS)
            assert before.t == after.t and before.f == after.f

    @given(ns_triplets_f(), ns_triplets_f(), ns_triplets_f())
    def test_ns_minmax_associative(self, a, b, c):
        assert conjunct(conjunct(a, b, NS), c, NS) == conjunct(a, conjunct(b, c, NS), NS)

    @given(ns_triplets_f())
    def test_ns_idempotent_minmax(self, a):
        assert conjunct(a, a, NS) == a
        assert disjunct(a, a, NS) == a

    @given(ifs_triplets(), ifs_triplets())
    def test_ifs_closure_under_product_norms(self, a, b):
        sys = OperatorSystem(SystemKind.IFS, norms=PRODUCT_NORMS)
        for op in (conjunct, disjunct, implicate):
            out = op(a, b, sys)
            assert float(out.component_sum()) == pytest.approx(1.0, abs=1e-9)
            assert all(0 <= float(v) <= 1 for v in out.scalars())


class TestDegenerateIntervals:
    """Point intervals must behave exactly like scalars in every operation."""

    @given(units, units, units, units, units, units)
    def test_operators_accept_point_intervals(self, t1, i1, f1, t2, i2, f2):
        from neutroset.core import IntervalValue

        plain_a, plain_b = Triplet(t1, i1, f1), Triplet(t2, i2, f2)
        boxed_a = Triplet(IntervalValue(t1, t1), IntervalValue(i1, i1), IntervalValue(f1, f1))
        boxed_b = Triplet(t2, IntervalValue(i2, i2), f2)
        for op in (conjunct, disjunct, implicate):
            assert op(boxed_a, boxed_b, NS) == op(plain_a, plain_b, NS)
        assert negate(boxed_a, NS) == negate(plain_a, NS)


class TestNormAxioms:
    @given(units)
    def test_boundary_identities(self, a):
        for norms in (NormPair(), PRODUCT_NORMS):
            assert norms.meet(a, 1.0) == pytest.approx(a, abs=1e-12)
            assert norms.meet(a, 0.0) == 0.0
            assert norms.join(a, 0.0) == pytest.approx(a, abs=1e-12)
            assert norms.join(a, 1.0) == pytest.approx(1.0, abs=1e-12)

    @given(units, units)
    def test_commutative(self, a, b):
        for norms in (NormPair(), PRODUCT_NORMS):
            assert norms.meet(a, b) == norms.meet(b, a)
            assert norms.join(a, b) == norms.join(b, a)

    @given(unit_fractions, unit_fractions, unit_fractions)
    def test_associative_exact(self, a, b, c):
        for norms in (NormPair(), PRODUCT_NORMS):
            assert norms.meet(norms.meet(a, b), c) == norms.meet(a, norms.meet(b, c))
            assert norms.join(norms.join(a, b), c) == norms.join(a, norms.join(b, c))

    @given(units, units, units)
    def test_monotone(self, a, b, c):
        lo, hi = sorted((b, c))
        for norms in (NormPair(), PRODUCT_NORMS):
            assert norms.meet(a, lo) <= norms.meet(a, hi) + 1e-15
            assert norms.join(a, lo) <= norms.join(a, hi) + 1e-15


class TestSetwise:
    A = LabeledSet.from_mapping(
        {"x1": (0.8, 0.3, 0.5), "x2": (0.9, 0.2, 0.6)}, FamilySpec(FamilyKind.NS)
    )
    B = LabeledSet.from_mapping(
        {"x1": (0.2, 0.1, 0.3), "x2": (0.6, 0.2, 0.1)}, FamilySpec(FamilyKind.NS)
    )

    def test_intersection_golden(self):
        got = setwise(self.A, self.B, Op.AND, NS)
        assert trip(got.element("x1")) == pytest.approx((0.2, 0.3, 0.5), abs=1e-9)
        assert trip(got.element("x2")) == pytest.approx((0.6, 0.2, 0.6), abs=1e-9)

    def test_union_golden(self):
        got = setwise(self.A, self.B, Op.OR, NS)
        assert trip(got.element("x1")) == pytest.approx((0.8, 0.1, 0.3), abs=1e-9)
        assert trip(got.element("x2")) == pytest.approx((0.9, 0.2, 0.1), abs=1e-9)

    def test_self_intersection_is_identity(self):
        got = setwise(self.A, self.A, Op.AND, NS)
        assert got.triplets == self.A.triplets

    def test_unary_not(self):
        got = setwise(self.A, None, Op.NOT, NS)
        assert trip(got.element("x1")) == pytest.approx((0.5, 0.7, 0.8), abs=1e-9)

    def test_universe_mismatch(self):
        other = LabeledSet.from_mapping({"y1": (0.1, 0.1, 0.1)}, FamilySpec(FamilyKind.NS))
        with pytest.raises(UsageError):
            setwise(self.A, other, Op.AND, NS)

    def test_missing_operand(self):
        with pytest.raises(UsageError):
            setwise(self.A, None, Op.AND, NS)
