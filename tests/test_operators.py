import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neutroset import documents, operators, transforms
from neutroset.core import (
    ABS_TOL,
    ComponentRangeError,
    ConstraintError,
    DegenerateInputError,
    IntervalValue,
    NeutrosetError,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    leftover,
    scalar_of,
    sup_of,
)
from neutroset.families import (
    CubeRegion,
    FamilyKind,
    FamilySpec,
    _first_outside,
    admits,
    admits_triplet,
    classify_cube_region,
    embed_into_ns,
    hesitancy,
    includes,
    validate,
)
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
from neutroset.transforms import LabeledSet, normalize_elementwise, sup_transform

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
        return 1 - ABS_TOL <= s <= 1 + ABS_TOL
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


#: A valid IFS pair whose middle slot, written as 1 - t - f, misses its hesitancy in the last digit.
SKEWED_IFS = embed_into_ns(Pair(0.763774618976614, 0.060253777792558735), FamilySpec(FamilyKind.IFS))


class TestIfsMiddleSlotIsTheHesitancy:
    @settings(max_examples=300)
    @given(operand_triplets, operand_triplets,
           st.sampled_from([IFS, OperatorSystem(SystemKind.IFS, PRODUCT_NORMS)]))
    @example(SKEWED_IFS, SKEWED_IFS, IFS)
    def test_conjunct_and_disjunct_leave_the_hesitancy(self, a, b, sys):
        assume(operand_rule(a, SystemKind.IFS) and operand_rule(b, SystemKind.IFS))
        for r in (conjunct(a, b, sys), disjunct(a, b, sys)):
            assert r.i == hesitancy(Pair.from_triplet(r), FamilySpec(FamilyKind.IFS)).v


#: Every family whose elements can be triplets, IFS through its sum-1 triplets.
TRIPLET_FAMILIES = [
    FamilySpec(kind, exponent)
    for kind in FamilyKind
    if kind.row.arity == 3 or kind is FamilyKind.IFS
    for exponent in ((None,) if kind.row.exponent is not None else (1, 1.7, 2, 3.5))
]


class TestFamilyInclusion:
    @settings(max_examples=300)
    @given(operand_triplets)
    def test_includes_agrees_with_admits(self, x):
        admitted = [family for family in TRIPLET_FAMILIES if admits(x, family)]
        for inner in admitted:
            for outer in TRIPLET_FAMILIES:
                if includes(outer, inner):
                    assert outer in admitted, (outer, inner)

    def test_the_papers_chain(self):
        chain = [FamilySpec(FamilyKind.IFS), FamilySpec(FamilyKind.IIFS), FamilySpec(FamilyKind.NS)]
        for m, inner in enumerate(chain):
            for n, outer in enumerate(chain):
                assert includes(outer, inner) == (m <= n)

    def test_implication_checks_each_operand_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(operators, "admits_triplet", lambda x, family: calls.append(x) or admits_triplet(x, family))
        a, b = Triplet(0.2, 0.3, 0.4), Triplet(0.5, 0.1, 0.1)
        assert trip(implicate(a, b, MAXI)) == (0.5, 0.1, 0.1)
        assert calls == [a.components(), b.components()]


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


#: Norm arguments whose ties differ in type or sign: min and max return the first of equals.
tie_prone = st.one_of(units, st.sampled_from([0, 1, -0.0, 0.0]), unit_fractions)


class TestNormsAreTheBuiltins:
    @given(tie_prone, tie_prone)
    def test_min_max_pair_returns_what_min_and_max_return(self, a, b):
        norms = NormPair()
        for got, want in ((norms.meet(a, b), min(a, b)), (norms.join(a, b), max(a, b))):
            assert (type(got), repr(got)) == (type(want), repr(want))


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

    @staticmethod
    def _count_admits(monkeypatch) -> list:
        """The family of every row checked: one by one (operands), or a whole set at once (results)."""
        calls = []

        def counted(x, family):
            calls.append(family.kind)
            return admits_triplet(x, family)

        def counted_rows(rows, family):
            calls.extend([family.kind] * len(rows))
            return _first_outside(rows, family)

        monkeypatch.setattr(operators, "admits_triplet", counted)
        monkeypatch.setattr(transforms, "_first_outside", counted_rows)
        return calls

    @pytest.mark.parametrize("op", list(Op))
    def test_checked_operands_are_not_checked_again(self, op, monkeypatch):
        iifs = FamilySpec(FamilyKind.IIFS)
        a = LabeledSet.from_mapping({"x1": (0.2, 0.3, 0.4), "x2": (0.5, 0.1, 0.1)}, iifs)
        b = LabeledSet.from_mapping({"x1": (0.1, 0.1, 0.1), "x2": (0.6, 0.2, 0.2)}, iifs)
        calls = self._count_admits(monkeypatch)
        setwise(a, b, op, MAXI)
        assert calls == [FamilyKind.IIFS] * 2  # the two result elements only

    def test_operands_outside_the_systems_family_are_checked(self, monkeypatch):
        calls = self._count_admits(monkeypatch)
        setwise(self.B, self.B, Op.AND, MINI)
        assert len(calls) == 3 * len(self.B.universe)
        with pytest.raises(ConstraintError, match=r"^IFS operand components sum to 1\.6, outside IFS$"):
            setwise(self.A, self.B, Op.OR, IFS)

    @pytest.mark.parametrize("op", [Op.AND, Op.OR, Op.IMPLIES])
    def test_operands_are_checked_a_then_b_element_by_element(self, op):
        # a's first element is a valid IFS operand and its second is not; b's first is not either.
        # Operands are read a0, b0, a1, b1, ..., so b0 fails first
        ns = FamilySpec(FamilyKind.NS)
        a = LabeledSet.from_mapping({"x1": (0, 0, 1), "x2": (0, 0, 0.5)}, ns)
        b = LabeledSet.from_mapping({"x1": (0, 0, 0), "x2": (0, 0, 0)}, ns)
        with pytest.raises(ConstraintError, match=r"^IFS operand components sum to 0\.0, outside IFS$"):
            setwise(a, b, op, IFS)


#: One component of every type an operand may carry: floats (-0.0 among them), ints and Fractions.
mixed_components = st.one_of(
    units,
    st.sampled_from([0, 1, -0.0, 0.0, 1.0, 0.5]),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
)


#: Components no range admits, or only just: NaN, the infinities, and values a hair outside [0, 1].
EDGE_COMPONENTS = (
    float("nan"), float("inf"), float("-inf"), math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
    1 + 1e-12, -1e-12, 1 + Fraction(1, 10**12), Fraction(-1, 10**12), 2, -1,
)

#: Row sums on the edges of the bound-1 tests: 1 +- ABS_TOL as float sums give them and exactly, and an ulp past.
EDGE_SUMS = (
    Fraction(1 + ABS_TOL), Fraction(1 - ABS_TOL), 1 + Fraction(ABS_TOL), 1 - Fraction(ABS_TOL),
    Fraction(math.nextafter(1 + ABS_TOL, 2.0)), Fraction(math.nextafter(1 - ABS_TOL, 0.0)),
)


@st.composite
def mixed_rows(draw, n, arity=3, edges=False):
    """``n`` rows: any cube point, or one scaled onto the sum-1 plane or below it with exact arithmetic.

    With ``edges``, a row may also sum to one of ``EDGE_SUMS`` (exactly, or as near as floats get)
    and hold one of ``EDGE_COMPONENTS``.
    """
    shapes = ("any", "sum-1", "sum<=1") + ("edge-sum",) * (3 if edges else 0)
    # with edges, often one shape for every row: a set is admitted whole only when each row is
    same_shape = draw(st.sampled_from(shapes)) if edges and draw(st.booleans()) else None
    rows = []
    for _ in range(n):
        row = draw(st.tuples(*[mixed_components] * arity))
        shape = same_shape or draw(st.sampled_from(shapes))
        total = sum(Fraction(v) for v in row)
        if shape != "any" and total > 0:
            if shape == "edge-sum":
                budget = draw(st.sampled_from(EDGE_SUMS))
            else:
                budget = 1 if shape == "sum-1" else draw(st.fractions(min_value=0, max_value=1, max_denominator=12))
            row = tuple(Fraction(v) * budget / total for v in row)
            if shape == "edge-sum" and draw(st.booleans()):
                row = tuple(map(float, row))
        # a point interval stands in for its scalar; a proper one is refused as an operand
        boxes = None if same_shape else draw(st.sampled_from((None, None, None, "point", "proper")))
        k = draw(st.integers(0, arity - 1))
        if boxes and 0 <= row[k] <= 1:
            lo = row[k] if boxes == "point" else 0
            row = (*row[:k], IntervalValue(lo, row[k]), *row[k + 1 :])
        if edges and not same_shape and draw(st.integers(0, 3)) == 0:
            k = draw(st.integers(0, arity - 1))
            row = (*row[:k], draw(st.sampled_from(EDGE_COMPONENTS)), *row[k + 1 :])
        rows.append(row)
    return rows


def set_of(names, rows, kind: FamilyKind) -> LabeledSet:
    """The rows as a set tagged ``kind``, or tagged NS where ``kind`` does not admit them all."""
    trips = [Triplet(*row) for row in rows]
    try:
        return LabeledSet(names, trips, FamilySpec(kind))
    except UsageError:
        return LabeledSet(names, trips, FamilySpec(FamilyKind.NS))


SCALAR_OPS = {Op.AND: conjunct, Op.OR: disjunct, Op.IMPLIES: implicate}
ALL_SYSTEMS = [
    OperatorSystem(kind, norms, overflow)
    for kind in SystemKind
    for norms in (NormPair(), PRODUCT_NORMS)
    for overflow in OverflowRule
]


def outcome(fn):
    try:
        return fn()
    except NeutrosetError as exc:
        return exc


def typed(s: LabeledSet) -> list:
    return [[(type(v), repr(v)) for v in row] for row in s.rows]


class TestSetsAgreeWithScalars:
    """``setwise`` over rows gives, bit for bit and type for type, the scalar operators' results."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(mixed_rows(n), mixed_rows(n))),
           st.sampled_from([FamilyKind.NS, FamilyKind.IIFS, FamilyKind.IFS]),
           st.sampled_from([FamilyKind.NS, FamilyKind.IIFS, FamilyKind.IFS]))
    def test_setwise_is_the_scalar_operator_elementwise(self, rows, kind_a, kind_b):
        names = tuple(f"x{k}" for k in range(len(rows[0])))
        a, b = set_of(names, rows[0], kind_a), set_of(names, rows[1], kind_b)
        for sys in ALL_SYSTEMS:
            for op in Op:
                def scalar():
                    if op is Op.NOT:
                        out = [negate(x, sys) for x in a.triplets]
                    else:
                        out = [SCALAR_OPS[op](x, y, sys) for x, y in zip(a.triplets, b.triplets)]
                    return LabeledSet(names, out, operators.system_family(sys))

                want, got = outcome(scalar), outcome(lambda: setwise(a, b, op, sys))
                if isinstance(want, Exception):
                    assert (type(got), str(got)) == (type(want), str(want)), (sys, op)
                    continue
                assert got == want and hash(got) == hash(want), (sys, op)
                assert typed(got) == typed(want), (sys, op)
                assert got.triplets == want.triplets

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.one_of(mixed_components, st.sampled_from(
                [-0.1, 1.5, Fraction(3, 2), float("nan"), float("inf"), True, "x", None,
                 IntervalValue(0.25, 0.25), IntervalValue(0.1, 0.3), UnitValue(0.75)]))] * 3),
            min_size=1, max_size=4,
        ),
        st.sampled_from([FamilyKind.NS, FamilyKind.IIFS, FamilyKind.IFS, FamilyKind.SFS, FamilyKind.PYFS]),
    )
    def test_rows_are_checked_as_triplets_and_a_set_check_them(self, rows, kind):
        names = tuple(f"x{k}" for k in range(len(rows)))
        family = FamilySpec(kind)
        want = outcome(lambda: LabeledSet(names, [Triplet(*row) for row in rows], family))
        got = outcome(lambda: LabeledSet._of_rows(names, rows, family))
        if isinstance(want, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert got == want and hash(got) == hash(want)
        assert typed(got) == typed(want)


# The per-element checks the one-pass set checks replaced, kept as their oracle. Component sums run
# left to right from 0, as builtin ``sum`` adds floats up to Python 3.11.


def left_to_right(values):
    acc = 0
    for v in values:
        acc = acc + v
    return acc


def divide(c, d):
    return IntervalValue(c.lo / d, c.hi / d) if isinstance(c, IntervalValue) else c / d


def rows_one_by_one(names, rows, family: FamilySpec) -> list:
    """``LabeledSet._of_rows``, element by element: every row through ``Triplet``, then each through ``admits_triplet``."""
    checked = [Triplet(*row).components() for row in rows]
    for name, row in zip(names, checked):
        if not admits_triplet(row, family):
            scalars = tuple(float(scalar_of(c)) for c in row)
            raise UsageError(f"element {name!r} {scalars} is not valid under {family.describe()}")
    return checked


def loads_one_by_one(text: str) -> documents.ElementSetDocument:
    doc = documents.loads(text, validate_elements=False)
    for name, row in zip(doc.universe, doc.components):
        try:
            admitted = admits(row, doc.family)
        except ComponentRangeError as exc:
            raise documents.DocumentError(f"element {name!r} invalid: {exc}") from None
        if not admitted:
            raise documents.DocumentError(f"element {name!r} invalid: {validate(row, doc.family).diagnostics}")
    return doc


def named_range_error(doc: documents.ElementSetDocument, exc: Exception) -> Exception:
    """What ``to_labeled_set`` raises for ``exc``: a range error names the first element with a component outside [0, 1]."""
    if not isinstance(exc, ComponentRangeError):
        return exc
    name = next(n for n, row in zip(doc.universe, doc.components) if not all(0 <= v <= 1 for v in row))
    return documents.DocumentError(f"element {name!r} cannot form a set: {exc}")


def set_rows_one_by_one(doc: documents.ElementSetDocument, checked: bool) -> list:
    """``to_labeled_set``'s rows, each pair widened by ``embed_into_ns``."""
    if doc.family.arity == 3:
        if checked and not doc.family.kind.row.extended:
            return list(doc.components)
        return rows_one_by_one(doc.universe, doc.components, doc.family)
    rows = [embed_into_ns(row, doc.family).components() for row in doc.components]
    if doc.family.kind is FamilyKind.IFS:
        return rows
    return rows_one_by_one(doc.universe, rows, doc.family)


def sup_one_by_one(s: LabeledSet) -> tuple:
    sups = [max(sup_of(row[k]) for row in s.rows) for k in range(3)]
    denom = sups[0] + sups[1] + sups[2]
    if denom <= ABS_TOL:
        raise DegenerateInputError("set-wide supremum sum is zero; nothing to rescale")
    out = [tuple(divide(c, denom) for c in row) for row in s.rows]
    refusals = [UnitValue(leftover(left_to_right(map(sup_of, row)))) for row in out]
    return rows_one_by_one(s.universe, out, FamilySpec(FamilyKind.IIFS)), refusals, denom


def normalize_one_by_one(s: LabeledSet) -> list:
    out = []
    for name, row in zip(s.universe, s.rows):
        total = left_to_right(map(sup_of, row))
        if total <= ABS_TOL:
            raise DegenerateInputError(f"element {name!r} has zero component sum; cannot normalize")
        out.append(tuple(divide(c, total) for c in row))
    return rows_one_by_one(s.universe, out, FamilySpec(FamilyKind.IFS))


def typed_rows(rows) -> list:
    return [[(type(v), repr(v)) for v in row] for row in rows]


def same_outcome(got, want, view=typed_rows):
    """Both raised the same error, or both gave the same rows with the same component types."""
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return False
    assert view(got) == view(want)
    return True


def json_number(v):
    """A component as a document holds it: intervals by their supremum, Fractions as floats."""
    v = sup_of(v)
    return float(v) if isinstance(v, Fraction) else v


#: Families of triplet documents; the set checks also take sum-1 triplets under pair families.
TRIPLET_KINDS = [FamilyKind.NS, FamilyKind.IIFS, FamilyKind.SFS, FamilyKind.SNS]
PAIR_KINDS = [FamilyKind.IFS, FamilyKind.FS, FamilyKind.PYFS, FamilyKind.QROFS]


class TestOnePassAgreesWithOneByOne:
    """The one-pass set checks give what checking element by element gives: the same rows, or the same error."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: mixed_rows(n, edges=True)),
           st.sampled_from(TRIPLET_KINDS + [FamilyKind.IFS, FamilyKind.PYFS, FamilyKind.FS]))
    # sums exactly on the bound-1 tests' edges, and an ulp past them
    @example([(Fraction(1 + ABS_TOL) / 3,) * 3], FamilyKind.IIFS)
    @example([(Fraction(math.nextafter(1 + ABS_TOL, 2.0)) / 3,) * 3], FamilyKind.IIFS)
    @example([(0.5, 0.0, 0.5000000010000001), (0.5, 0.0, 0.5000000010000003)], FamilyKind.IIFS)
    @example([(Fraction(1, 2), 0, Fraction(1, 2) + Fraction(ABS_TOL))], FamilyKind.IFS)
    @example([(Fraction(1, 2), 0, Fraction(1, 2) - Fraction(ABS_TOL))], FamilyKind.IFS)
    @example([(Fraction(1, 2), 0, Fraction(1, 2) + Fraction(math.nextafter(ABS_TOL, 1.0)))], FamilyKind.IFS)
    @example([(Fraction(1, 2), 0, Fraction(1, 2) - Fraction(math.nextafter(ABS_TOL, 1.0)))], FamilyKind.IFS)
    # sum-1 triplets stand in only for IFS pairs
    @example([(0.25, 0.5, 0.25)], FamilyKind.PYFS)
    @example([(0.25, 0.5, 0.25)], FamilyKind.FS)
    def test_sets_of_rows(self, rows, kind):
        names = tuple(f"x{k}" for k in range(len(rows)))
        family = FamilySpec(kind)
        want = outcome(lambda: rows_one_by_one(names, rows, family))
        same_outcome(outcome(lambda: LabeledSet._of_rows(names, rows, family).rows), want)
        same_outcome(outcome(lambda: LabeledSet(names, [Triplet(*row) for row in rows], family).rows), want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(1, 4).flatmap(lambda n: mixed_rows(n, edges=True)), st.sampled_from(TRIPLET_KINDS)),
            st.tuples(st.integers(1, 4).flatmap(lambda n: mixed_rows(n, 2, edges=True)), st.sampled_from(PAIR_KINDS)),
        ),
        st.booleans(),
    )
    @example(([(0.5, 0.5000000010000001), (0.7, 0.3 + 5e-10)], FamilyKind.IFS), True)
    @example(([(0.5, 0.5000000010000001), (0.5, 0.5000000010000003)], FamilyKind.IFS), True)
    @example(([(0.5, 0.0, 0.5000000010000001), (0.5, 0.0, 0.5000000010000003)], FamilyKind.IIFS), True)
    @example(([(0.5, float("nan"), 0.5)], FamilyKind.NS), True)
    def test_documents_and_their_sets(self, rows_kind, validate_elements):
        rows, kind = rows_kind
        names = [f"é{k}" for k in range(len(rows))]
        exponent = {"exponent": 3} if kind is FamilyKind.QROFS else {}
        text = json.dumps({
            "format_version": 1,
            "family": {"kind": kind.value, **exponent},
            "universe": names,
            "elements": {name: [json_number(v) for v in row] for name, row in zip(names, rows)},
        })
        if validate_elements:
            want = outcome(lambda: loads_one_by_one(text))
            got = outcome(lambda: documents.loads(text))
        else:
            want = got = documents.loads(text, validate_elements=False)
        if not same_outcome(got, want, lambda doc: typed_rows(doc.components)):
            return
        s = outcome(got.to_labeled_set)
        want_rows = named_range_error(want, outcome(lambda: set_rows_one_by_one(want, validate_elements)))
        if same_outcome(s if isinstance(s, Exception) else s.rows, want_rows):
            self.check_transforms(s)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(mixed_rows), st.booleans())
    def test_transforms(self, rows, from_rows):
        names = tuple(f"x{k}" for k in range(len(rows)))
        ns = FamilySpec(FamilyKind.NS)
        s = LabeledSet._of_rows(names, rows, ns) if from_rows else LabeledSet(names, [Triplet(*r) for r in rows], ns)
        self.check_transforms(s)

    @staticmethod
    def check_transforms(s: LabeledSet) -> None:
        def sup():
            res = sup_transform(s)
            return res.labeled.rows, res.refusals, res.denominator

        def view(result):
            rows, refusals, denom = result
            return typed_rows(rows), typed_rows([[r.v for r in refusals]]), (type(denom), repr(denom))

        same_outcome(outcome(sup), outcome(lambda: sup_one_by_one(s)), view)
        same_outcome(outcome(lambda: normalize_elementwise(s).rows), outcome(lambda: normalize_one_by_one(s)))


#: Every family whose documents hold triplets, with an exponent where the family takes one.
TRIPLET_DOCUMENT_FAMILIES = [FamilySpec(kind, 3 if kind.row.exponent is None else None)
                             for kind in FamilyKind if kind.row.arity == 3]


def document_text(rows, family: FamilySpec) -> str:
    names = [f"x{k}" for k in range(len(rows))]
    exponent = {} if family.exponent is None else {"exponent": family.exponent}
    return json.dumps({
        "format_version": 1,
        "family": {"kind": family.kind.value, **exponent},
        "universe": names,
        "elements": {name: [json_number(v) for v in row] for name, row in zip(names, rows)},
    })


@st.composite
def ifs_pairs(draw):
    """(t, f) pairs, often summing to 1, or to a sum on the edges of the tolerance around it."""
    t = draw(mixed_components)
    total = draw(st.one_of(mixed_components, st.just(1), st.sampled_from(EDGE_SUMS)))
    f = total - Fraction(t)
    assume(0 <= f <= 1)
    return (t, float(f) if draw(st.booleans()) else f)


class TestTrustIsOnlyAShortCut:
    """A document ``loads`` has checked builds the set a full check of the same rows builds."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(1, 4).flatmap(lambda n: mixed_rows(n, edges=True)),
                      st.sampled_from(TRIPLET_DOCUMENT_FAMILIES)),
            st.tuples(st.integers(1, 4).flatmap(lambda n: mixed_rows(n, 2, edges=True)),
                      st.just(FamilySpec(FamilyKind.IFS))),
        )
    )
    @example(([(0.5000000005, 0.5000000005)], FamilySpec(FamilyKind.IFS)))
    def test_a_checked_document_builds_the_fully_checked_set(self, rows_family):
        rows, family = rows_family
        doc = outcome(lambda: documents.loads(document_text(rows, family)))
        assume(not isinstance(doc, Exception))
        if family.arity == 3:
            rows = doc.components
        else:
            rows = [embed_into_ns(row, family).components() for row in doc.components]
        want = named_range_error(doc, outcome(lambda: LabeledSet._of_rows(doc.universe, rows, family)))
        got = outcome(doc.to_labeled_set)
        if isinstance(want, Exception) or isinstance(got, Exception):
            assert (type(got), str(got)) == (type(want), str(want))
            return
        assert typed_rows(got.rows) == typed_rows(want.rows)
        assert got == want and hash(got) == hash(want)
        assert got._has_intervals is want._has_intervals is False

    @settings(max_examples=300, deadline=None)
    @given(ifs_pairs())
    @example((0.5000000005, 0.5000000005))
    @example((Fraction(1, 2), Fraction(1, 2) + Fraction(ABS_TOL)))
    def test_a_valid_ifs_pair_is_a_sum_1_triplet(self, pair):
        ifs = FamilySpec(FamilyKind.IFS)
        assume(validate(pair, ifs).valid)
        triplet = embed_into_ns(pair, ifs)
        assert LabeledSet(("p",), (triplet,), ifs).triplets == (triplet,)
        back = Pair.from_triplet(triplet)
        assert [(type(v), repr(v)) for v in back.components()] == [(type(v), repr(v)) for v in pair]
        assert classify_cube_region(triplet) is CubeRegion.COMPLETE
