import json
import math
from fractions import Fraction
from numbers import Real

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
    classify_cube_region,
    embed_into_ns,
    hesitancy,
    includes,
    refusal,
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
from neutroset.refined import RefinedComponents, RefinedFamilySpec, RefinedKind, validate_refined
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


#: Floats or Fractions in [lo, hi], with an offset just inside the tolerance: a float sum of three
#: components rounds by far less than the 2**-16 of it kept as margin.
FLOAT_VALUES = (lambda lo, hi: st.floats(lo, hi), ABS_TOL * (1 - 2**-16))
EXACT_VALUES = (lambda lo, hi: st.fractions(0, 1, max_denominator=10**4).map(lambda x: lo + (hi - lo) * x),
                Fraction(ABS_TOL) * (1 - Fraction(1, 2**16)))


@st.composite
def operand_rows(draw, kind: SystemKind, n: int) -> list:
    """``n`` valid operand rows for ``kind``, all floats or all Fractions, drawn so that none is rejected.

    Anywhere in the cube under NS. Otherwise T, then F in [0, 1 - T + d]
    (at most 1), where d is just inside the tolerance; then I is what they
    leave, moved by up to the tolerance and kept in [0, 1], under IFS, and
    anything in [0, 1 - T - F + d] (at most 1) under IIFS. So the sums the
    operand check allows only within tolerance (T + F under IFS, T + I + F
    under IIFS, up to 1 + d) are drawn too.
    """
    values, d = draw(st.sampled_from([FLOAT_VALUES, EXACT_VALUES]))
    rows = []
    for _ in range(n):
        if kind is SystemKind.NS:
            rows.append(tuple(draw(values(0, 1)) for _ in range(3)))
            continue
        t = draw(values(0, 1))
        f = draw(values(0, min(1 - t + d, 1)))
        rest = 1 - t - f
        if kind is SystemKind.IFS:
            i = min(max(rest + draw(st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1])) * d, 0), 1)
        else:
            i = draw(values(0, min(max(rest + d, 0), 1)))
        rows.append((t, i, f))
    return rows


ifs_operands = operand_rows(SystemKind.IFS, 1).map(lambda rows: Triplet(*rows[0]))
IFS_PRODUCT = OperatorSystem(SystemKind.IFS, PRODUCT_NORMS)
#: Valid only within tolerance: T + F passes 1 by almost all of it. The probsum of two such F's (conjunction),
#: or of two such T's (disjunction, and implication of HIGH_T by HIGH_F), passes 1 by almost twice the tolerance,
#: so under product/probsum the result is closed into the family.
HIGH_T = Triplet(1.0, 0.0, FLOAT_VALUES[1])
HIGH_F = Triplet(FLOAT_VALUES[1], 0.0, 1.0)


def assert_middle_slot_is_the_hesitancy(a: Triplet, b: Triplet, sys: OperatorSystem) -> None:
    for r in (conjunct(a, b, sys), disjunct(a, b, sys)):
        assert r.i == hesitancy(Pair.from_triplet(r), FamilySpec(FamilyKind.IFS)).v


class TestIfsMiddleSlotIsTheHesitancy:
    @pytest.mark.parametrize("sys", [IFS, IFS_PRODUCT])
    @settings(max_examples=300)
    @given(ifs_operands, ifs_operands)
    @example(SKEWED_IFS, SKEWED_IFS)
    @example(HIGH_T, HIGH_T)
    def test_conjunct_and_disjunct_leave_the_hesitancy(self, sys, a, b):
        assert_middle_slot_is_the_hesitancy(a, b, sys)

    @settings(max_examples=300)
    @given(*[ifs_operands.filter(lambda x: x.f <= 1 - x.t)] * 2)
    def test_product_probsum_leaves_it_for_operands_inside_the_exact_bound(self, a, b):
        assert_middle_slot_is_the_hesitancy(a, b, IFS_PRODUCT)


#: HIGH_T and HIGH_F in Fractions: T + F = 1 + D, three quarters of the tolerance past the bound.
D = Fraction(3, 4 * 10**9)
EXACT_HIGH_T = Triplet(Fraction(1), Fraction(0), D)
EXACT_HIGH_F = Triplet(D, Fraction(0), Fraction(1))
#: The probsum of two D's, and the sum 1 + P a result with it and a 1 rescales by.
P = D + D - D * D
S = 1 + P


class TestBandResultsClose:
    """Under product/probsum, a result past the sum bound is rescaled onto it by its own sum, exactly.

    Each case's probsum passes 1 by P, past the tolerance, so the closed
    result is the exact (1, 0, P) or (P, 0, 1) over 1 + P. Under IFS its
    middle slot is the hesitancy again; IIFS-max conjunction restores the
    bound itself, by the same rule under the default overflow.
    """

    @pytest.mark.parametrize("kind", [kind for kind in SystemKind if kind is not SystemKind.NS])
    @pytest.mark.parametrize("op, a, b, want", [
        (Op.AND, EXACT_HIGH_T, EXACT_HIGH_T, (1 / S, Fraction(0), P / S)),
        (Op.OR, EXACT_HIGH_F, EXACT_HIGH_F, (P / S, Fraction(0), 1 / S)),
        (Op.IMPLIES, EXACT_HIGH_T, EXACT_HIGH_F, (P / S, Fraction(0), 1 / S)),
    ])
    def test_exact_closed_values(self, kind, op, a, b, want):
        sys = OperatorSystem(kind, PRODUCT_NORMS)
        got = SCALAR_OPS[op](a, b, sys)
        assert [(type(v), v) for v in got.components()] == [(Fraction, v) for v in want]
        assert sum(want) == 1
        if kind is SystemKind.IFS:
            assert got.i == hesitancy(Pair.from_triplet(got), FamilySpec(FamilyKind.IFS)).v
        family = operators.system_family(sys)
        a_set, b_set = (LabeledSet(("x",), [x], family) for x in (a, b))
        assert typed(setwise(a_set, b_set, op, sys)) == [[(Fraction, repr(v)) for v in want]]


def inside(triplets, family: FamilySpec) -> bool:
    """Whether every triplet's row of suprema is inside ``family``'s bound."""
    return _first_outside([tuple(map(sup_of, x.components())) for x in triplets], family) < 0


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
    def test_includes_agrees_with_the_bound_test(self, x):
        admitted = [family for family in TRIPLET_FAMILIES if inside([x], family)]
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

        def counted(rows, family):
            calls.extend(rows)
            return _first_outside(rows, family)

        monkeypatch.setattr(operators, "_first_outside", counted)
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


class TestNormPairsThatDoNotClose:
    """min with probsum can leave T + F above 1, so only NS, whose family is the whole cube, takes that pair."""

    MIN_PROBSUM = NormPair(TNorm.MIN, TConorm.PROB_SUM)

    @pytest.mark.parametrize("kind", [SystemKind.IFS, SystemKind.IIFS_MAX_I, SystemKind.IIFS_MIN_I])
    def test_min_with_probsum_is_refused(self, kind):
        with pytest.raises(UsageError, match=f"^t-norm 'min' with t-conorm 'probsum' can take {kind.value} results"):
            OperatorSystem(kind, norms=self.MIN_PROBSUM)

    def test_ns_and_the_other_pairs_are_accepted(self):
        pairs = [NormPair(tnorm, tconorm) for tnorm in TNorm for tconorm in TConorm]
        for kind in SystemKind:
            for norms in pairs:
                if kind is SystemKind.NS or norms != self.MIN_PROBSUM:
                    assert OperatorSystem(kind, norms=norms).norms == norms
        ns = OperatorSystem(SystemKind.NS, norms=self.MIN_PROBSUM)
        assert conjunct(Triplet(0.5, 0.0, 0.5), Triplet(0.6, 0.0, 0.4), ns) == Triplet(0.5, 0.0, 0.7)


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

        def counted(rows, family):
            calls.extend([family.kind] * len(rows))
            return _first_outside(rows, family)

        monkeypatch.setattr(operators, "_first_outside", counted)
        monkeypatch.setattr(transforms, "_first_outside", counted)
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


class TestOneFamilyTestPerSet:
    """Every way into a set runs the family test once, on the whole set, in the builder.

    A ``setwise`` result with a row past the bound runs it a second time, on the closed rows.
    """

    @staticmethod
    def count_bound_tests(monkeypatch, module) -> list:
        """The family of each call ``module`` makes of the bound test."""
        calls = []

        def counted(rows, family):
            calls.append(family.kind)
            return _first_outside(rows, family)

        monkeypatch.setattr(module, "_first_outside", counted)
        return calls

    @pytest.fixture
    def tested(self, monkeypatch) -> list:
        """The family of each set the builder tests, one entry per call of the bound test."""
        return self.count_bound_tests(monkeypatch, transforms)

    @pytest.mark.parametrize("kind, elements", [
        ("NS", {"x1": [0.8, 0.3, 0.5], "x2": [1, 1, 1]}),
        ("IIFS", {"x1": [0.2, 0.3, 0.4], "x2": [0.5, 0.1, 0.1]}),
        ("SNS", {"x1": [0.9, 0.9, 0.9], "x2": [0.5, 0.5, 0.5]}),
        ("IFS", {"x1": [0.3, 0.7], "x2": [0.2, 0.5]}),
    ])
    @pytest.mark.parametrize("validate_elements", [True, False])
    def test_documents(self, tested, monkeypatch, kind, elements, validate_elements):
        loaded = self.count_bound_tests(monkeypatch, documents)
        text = json.dumps({"format_version": 1, "family": {"kind": kind}, "universe": list(elements),
                           "elements": elements})
        doc = documents.loads(text, validate_elements)
        # loads tests the document once when it validates it, and no set
        assert (tested, loaded) == ([], [FamilyKind(kind)] * validate_elements)
        doc.to_labeled_set()
        assert (tested, loaded) == ([FamilyKind(kind)], [FamilyKind(kind)] * validate_elements)

    def test_the_constructor(self, tested):
        LabeledSet(("x1", "x2"), [A1, A2], FamilySpec(FamilyKind.IIFS))
        assert tested == [FamilyKind.IIFS]

    @pytest.mark.parametrize("op", list(Op))
    @pytest.mark.parametrize("sys", [NS, MINI, IFS, IFS_PRODUCT])
    def test_setwise(self, tested, op, sys):
        ifs = FamilySpec(FamilyKind.IFS)
        a = LabeledSet.from_mapping({"x1": (0.3, 0.0, 0.7), "x2": (1, 0, 0)}, ifs)
        b = LabeledSet.from_mapping({"x1": (0.5, 0.25, 0.25), "x2": (0, 0, 1)}, ifs)
        tested.clear()
        setwise(a, b, op, sys)
        assert tested == [operators.system_family(sys).kind]

    @pytest.mark.parametrize("op, a, b", [(Op.AND, HIGH_T, HIGH_T), (Op.OR, HIGH_F, HIGH_F),
                                          (Op.IMPLIES, HIGH_T, HIGH_F), (Op.NOT, HIGH_T, HIGH_T)])
    def test_a_result_to_close_is_tested_again(self, tested, op, a, b):
        ifs = FamilySpec(FamilyKind.IFS)
        a_set, b_set = (LabeledSet(("x1", "x2"), [A1, x], ifs) for x in (a, b))
        tested.clear()
        setwise(a_set, b_set, op, IFS_PRODUCT)
        assert tested == [FamilyKind.IFS] * (1 if op is Op.NOT else 2)

    def test_the_transforms(self, tested):
        s = TestSetwise.A
        sup_transform(s)
        assert tested == [FamilyKind.IIFS]
        tested.clear()
        normalize_elementwise(s)
        assert tested == [FamilyKind.IFS]


class TestOneRangePassPerDocument:
    """A document's components meet one range pass on their way to a set; checked SNS and NHSNS ones meet two.

    ``to_labeled_set`` trusts the pass of ``loads`` for a family capped at 1;
    it checks every other document's components to [0, 1] itself.
    """

    @pytest.mark.parametrize("family, elements, set_passes", [
        ({"kind": "NS"}, {"x1": [0.8, 0.3, 0.5], "x2": [1, 1, 1]}, 0),
        ({"kind": "IIFS"}, {"x1": [0.2, 0.3, 0.4], "x2": [0.5, 0.1, 0.1]}, 0),
        ({"kind": "IFS"}, {"x1": [0.3, 0.7], "x2": [0.2, 0.5]}, 0),
        ({"kind": "SNS"}, {"x1": [0.9, 0.9, 0.9], "x2": [0.5, 0.5, 0.5]}, 1),
        ({"kind": "NHSNS", "exponent": 2}, {"x1": [0.9, 0.9, 0.9], "x2": [0.5, 0.5, 0.5]}, 1),
    ])
    @pytest.mark.parametrize("validate_elements", [True, False])
    def test_documents(self, monkeypatch, family, elements, set_passes, validate_elements):
        passes = []

        def counted(rows, limit):
            passes.append(limit)
            return first_out_of_range(rows, limit)

        first_out_of_range = documents._first_out_of_range
        monkeypatch.setattr(documents, "_first_out_of_range", counted)
        text = json.dumps({"format_version": 1, "family": family, "universe": list(elements), "elements": elements})
        doc = documents.loads(text, validate_elements)
        assert len(passes) == validate_elements
        passes.clear()
        doc.to_labeled_set()
        assert passes == [1] * (set_passes if validate_elements else 1)


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


#: Every system the constructor accepts: each kind under each norm pair and overflow rule, less min/probsum.
ACCEPTED_SYSTEMS = [
    sys
    for kind in SystemKind
    for tnorm in TNorm
    for tconorm in TConorm
    for overflow in OverflowRule
    for sys in [outcome(lambda: OperatorSystem(kind, NormPair(tnorm, tconorm), overflow))]
    if isinstance(sys, OperatorSystem)
]


class TestImplicationIsNotAOrB:
    """Implication is the disjunction of the negated first operand, value for value and type for type."""

    def test_every_accepted_system_is_drawn(self):
        assert len(ACCEPTED_SYSTEMS) == 4 * 4 * 2 - 3 * 2

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ACCEPTED_SYSTEMS), st.data())
    def test_scalar_implication(self, sys, data):
        a, b = (Triplet(*row) for row in data.draw(operand_rows(sys.system, 2)))
        got, want = implicate(a, b, sys), disjunct(negate(a, sys), b, sys)
        assert [(type(v), repr(v)) for v in got.components()] == [(type(v), repr(v)) for v in want.components()]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ACCEPTED_SYSTEMS), st.integers(1, 5), st.data())
    def test_set_implication(self, sys, n, data):
        names = tuple(f"x{k}" for k in range(n))
        # tagged with the system's family, or with NS so that each operand row is checked as it is read
        tags = st.sampled_from([operators.system_family(sys), FamilySpec(FamilyKind.NS)])
        a, b = (LabeledSet(names, [Triplet(*row) for row in data.draw(operand_rows(sys.system, n))], data.draw(tags))
                for _ in range(2))
        got = setwise(a, b, Op.IMPLIES, sys)
        want = setwise(setwise(a, None, Op.NOT, sys), b, Op.OR, sys)
        assert got == want and typed(got) == typed(want)


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
    """A set of raw rows, element by element: every row through ``Triplet``, then each through the bound test."""
    triplets = [Triplet(*row) for row in rows]
    for name, x in zip(names, triplets):
        if not inside([x], family):
            scalars = tuple(float(scalar_of(c)) for c in x.components())
            raise UsageError(f"element {name!r} {scalars} is not valid under {family.describe()}")
    return [x.components() for x in triplets]


def loads_one_by_one(text: str) -> documents.ElementSetDocument:
    doc = documents.loads(text, validate_elements=False)
    for name, row in zip(doc.universe, doc.components):
        try:
            report = validate(row, doc.family)
        except ComponentRangeError as exc:
            raise documents.DocumentError(f"element {name!r} invalid: {exc}") from None
        if not report.valid:
            raise documents.DocumentError(f"element {name!r} invalid: {report.diagnostics}")
    return doc


def named_range_error(doc: documents.ElementSetDocument, exc: Exception) -> Exception:
    """What ``to_labeled_set`` raises for ``exc``: a range error names the first element with a component outside [0, 1]."""
    if not isinstance(exc, ComponentRangeError):
        return exc
    name = next(n for n, row in zip(doc.universe, doc.components) if not all(0 <= v <= 1 for v in row))
    return documents.DocumentError(f"element {name!r} cannot form a set: {exc}")


def set_rows_one_by_one(doc: documents.ElementSetDocument) -> list:
    """``to_labeled_set``'s rows: only IFS pairs widen, each after every pair's range check, then each is checked."""
    if doc.family.arity == 3:
        return rows_one_by_one(doc.universe, doc.components, doc.family)
    if doc.family.kind is not FamilyKind.IFS:
        raise UsageError(f"{doc.family.describe()} elements are pairs; only IFS pairs widen into a set")
    pairs = [tuple(map(sup_of, Pair(*row).components())) for row in doc.components]
    rows = [(t, leftover(left_to_right((t, f))), f) for t, f in pairs]
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
    def test_sets_from_raw_rows(self, rows, kind):
        names = tuple(f"x{k}" for k in range(len(rows)))
        family = FamilySpec(kind)
        want = outcome(lambda: rows_one_by_one(names, rows, family))
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
        want_rows = named_range_error(want, outcome(lambda: set_rows_one_by_one(want)))
        if same_outcome(s if isinstance(s, Exception) else s.rows, want_rows):
            self.check_transforms(s)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(mixed_rows))
    def test_transforms(self, rows):
        names = tuple(f"x{k}" for k in range(len(rows)))
        self.check_transforms(LabeledSet(names, [Triplet(*r) for r in rows], FamilySpec(FamilyKind.NS)))

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
        want = named_range_error(doc, outcome(lambda: LabeledSet(doc.universe, [Triplet(*r) for r in rows], family)))
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


MIN_PROBSUM = TestNormPairsThatDoNotClose.MIN_PROBSUM
NORM_PAIRS = [NormPair(tnorm, tconorm) for tnorm in TNorm for tconorm in TConorm]


class TestOneOperatorContract:
    """4 systems x 4 norm pairs x AND/OR/IMPLIES/NOT: an accepted system keeps valid operands' results in its
    family, and its scalar and ``setwise`` results are equal. The refused ones raise at construction
    (``TestNormPairsThatDoNotClose``).

    Operands are drawn from the whole valid domain, the tolerance band included.
    """

    @pytest.mark.parametrize("kind, norms", [(kind, norms) for kind in SystemKind for norms in NORM_PAIRS
                                             if kind is SystemKind.NS or norms != MIN_PROBSUM])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_accepted_systems_close_and_agree_with_setwise(self, kind, norms, data):
        sys = OperatorSystem(kind, norms, data.draw(st.sampled_from(OverflowRule)))
        family = operators.system_family(sys)
        n = data.draw(st.integers(1, 3))
        names = tuple(f"x{k}" for k in range(n))
        a, b = (LabeledSet(names, [Triplet(*row) for row in data.draw(operand_rows(kind, n))], family)
                for _ in range(2))
        for op in Op:
            if op is Op.NOT:
                want = [negate(x, sys) for x in a.triplets]
            else:
                want = [SCALAR_OPS[op](x, y, sys) for x, y in zip(a.triplets, b.triplets)]
            assert inside(want, family), (op, want)
            got = setwise(a, b, op, sys)
            assert got.triplets == tuple(want) and got.family == family, op
            assert typed(got) == [[(type(v), repr(v)) for v in r.components()] for r in want], op

    @pytest.mark.parametrize("kind, norms, op", [
        (kind, norms, op)
        for kind in SystemKind if kind is not SystemKind.NS
        for norms in NORM_PAIRS if norms != MIN_PROBSUM
        for op in SCALAR_OPS
    ])
    def test_band_operands_close(self, kind, norms, op):
        """Under product/probsum these results pass the bound and are closed into the family."""
        sys = OperatorSystem(kind, norms)
        a, b = {Op.AND: (HIGH_T, HIGH_T), Op.OR: (HIGH_F, HIGH_F), Op.IMPLIES: (HIGH_T, HIGH_F)}[op]
        want = SCALAR_OPS[op](a, b, sys)
        assert inside([want], operators.system_family(sys)), want
        names = ("x",)
        a_set, b_set = (LabeledSet(names, [x], operators.system_family(sys)) for x in (a, b))
        assert setwise(a_set, b_set, op, sys).triplets == (want,)


ONE_BELOW = math.nextafter(1.0, 0.0)
#: Components at the probsum rounding edge: sums of two of them land a few ulps above 1.
PROBSUM_EDGES = (1.0, ONE_BELOW, 2.0**-53, 3 * 2.0**-53, 2.0**-52, 2.0**-51)


def shaped(row: tuple, kind: SystemKind) -> tuple:
    """A drawn cube point made a valid operand of ``kind``, in the types it was drawn in.

    NS takes the point as it is. Otherwise F is scaled into what T leaves,
    and I is what T and F leave (IFS) or a share of it (IIFS).
    """
    t, i, f = row
    if kind is SystemKind.NS:
        return row
    f = f * (1 - t)
    rest = 1 - t - f
    return (t, rest if kind is SystemKind.IFS else i * rest, f)


def assert_in_range(s: LabeledSet) -> None:
    """Every component is a real number in [0, 1], or an interval with such ends."""
    for row in s.rows:
        for c in row:
            ends = (c.lo, c.hi) if isinstance(c, IntervalValue) else (c,)
            assert all(isinstance(v, Real) and not isinstance(v, bool) and 0 <= v <= 1 for v in ends), row


def assert_full_range_pass_agrees(s: LabeledSet) -> None:
    """``s`` is the set the constructor builds from its rows, each range-checked as a ``Triplet``."""
    want = LabeledSet(s.universe, [Triplet(*row) for row in s.rows], s.family)
    assert s == want and hash(s) == hash(want)
    assert typed(s) == typed(want)
    assert s._has_intervals is want._has_intervals


class TestResultsStayInRange:
    """Operator and transform results are in [0, 1] by construction, so their sets skip the range pass.

    Whatever the operand types (floats, ints and Fractions mixed), every
    result component is a real number in [0, 1], and the set built from the
    results equals the one the constructor builds from the same rows as Triplets.
    """

    @pytest.mark.parametrize("sys", [OperatorSystem(kind, norms, overflow)
                                     for kind in SystemKind for norms in NORM_PAIRS for overflow in OverflowRule
                                     if kind is SystemKind.NS or norms != MIN_PROBSUM],
                             ids=lambda sys: f"{sys.system.value}-{sys.norms.tnorm.value}-{sys.norms.tconorm.value}-"
                                             f"{sys.overflow.value}")
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        *[st.lists(st.tuples(*[st.one_of(mixed_components, st.sampled_from(PROBSUM_EDGES))] * 3),
                   min_size=n, max_size=n)] * 2)))
    # T, I and F sums a few ulps above 1, with one operand 1.0, just below 1, or 2**-53
    @example(([(1.0, ONE_BELOW, 2.0**-53)], [(3 * 2.0**-53, 2.0**-51, 1.0)]))
    @example(([(ONE_BELOW, 1.0, ONE_BELOW)], [(2.0**-51, 3 * 2.0**-53, 2.0**-51)]))
    @example(([(2.0**-53, 2.0**-53, 1.0), (0, ONE_BELOW, 0.0)], [(1.0, 1.0, 3 * 2.0**-53), (1, 2.0**-52, 1.0)]))
    def test_operator_results(self, sys, rows):
        names = tuple(f"x{k}" for k in range(len(rows[0])))
        family = operators.system_family(sys)
        a, b = (LabeledSet(names, [Triplet(*shaped(row, sys.system)) for row in side], family) for side in rows)
        for op in Op:
            result = setwise(a, b, op, sys)
            assert_in_range(result)
            assert_full_range_pass_agrees(result)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(mixed_rows))
    @example([(IntervalValue(0.25, 1.0), ONE_BELOW, 2.0**-53), (1, Fraction(1, 3), IntervalValue(0, 0))])
    def test_transform_results(self, rows):
        names = tuple(f"x{k}" for k in range(len(rows)))
        s = LabeledSet(names, [Triplet(*row) for row in rows], FamilySpec(FamilyKind.NS))
        sup = outcome(lambda: sup_transform(s).labeled)
        results = [sup, outcome(lambda: normalize_elementwise(s))]
        if isinstance(sup, LabeledSet):
            results.append(outcome(lambda: normalize_elementwise(sup)))
        for result in results:
            if not isinstance(result, DegenerateInputError):  # a zero sum, which these rows may have
                assert_in_range(result)
                assert_full_range_pass_agrees(result)


def exact(*values: str) -> tuple:
    return tuple(Fraction(v) for v in values)


#: Valid Fraction inputs per family, one strictly inside its bound and, but for QROFS(3), one on it;
#: SNS and NHSNS also take one with a component above 1.
EXACT_ELEMENTS = [
    (FamilyKind.FS, None, [exact("1/3", "1/2"), exact("1", "1")]),
    (FamilyKind.IFS, None, [exact("1/3", "1/2"), exact("1/3", "2/3")]),
    (FamilyKind.PYFS, None, [exact("1/3", "1/2"), exact("3/5", "4/5")]),
    (FamilyKind.QROFS, 2, [exact("1/3", "1/2"), exact("3/5", "4/5")]),
    (FamilyKind.QROFS, 3, [exact("1/3", "1/2")]),
    (FamilyKind.IIFS, None, [exact("1/4", "1/3", "1/6"), exact("1/2", "1/3", "1/6")]),
    (FamilyKind.NS, None, [exact("1/4", "1/3", "1/6"), exact("1", "1", "1")]),
    (FamilyKind.SFS, None, [exact("1/4", "1/3", "1/6"), exact("2/3", "2/3", "1/3")]),
    (FamilyKind.NHSFS, 2, [exact("1/4", "1/3", "1/6"), exact("2/3", "2/3", "1/3")]),
    (FamilyKind.SNS, None, [exact("1/4", "1/3", "1/6"), exact("1", "1", "1"), exact("3/2", "1/2", "1/2")]),
    (FamilyKind.NHSNS, 2, [exact("1/4", "1/3", "1/6"), exact("1", "1", "1"), exact("3/2", "1/2", "1/2")]),
]
#: Valid refined Fraction instances, each with its sum on the family bound.
EXACT_REFINED = [
    (RefinedKind.RFS, None, (exact("1/4", "1/4", "1/2"), (), ())),
    (RefinedKind.RIFS, None, (exact("1/4", "1/4"), (), exact("1/2"))),
    (RefinedKind.RIIFS, None, (exact("1/4"), exact("1/4"), exact("1/4", "1/4"))),
    (RefinedKind.RNS, None, (exact("1"), exact("1", "1"), exact("1"))),
    (RefinedKind.RPYFS, None, (exact("3/5"), (), exact("4/5"))),
    (RefinedKind.RSFS, None, (exact("2/3"), exact("2/3"), exact("1/3"))),
    (RefinedKind.RQROFS, 2, (exact("3/5"), (), exact("4/5"))),
    (RefinedKind.RNHSNS, 2, (exact("1"), exact("1"), exact("1", "1"))),
]
#: Operand pairs per system, the second on the sum bound; no IIFS-max conjunction of them overflows.
IIFS_OPERANDS = [(exact("1/2", "1/6", "1/6"), exact("1/3", "1/6", "1/3")), (exact("1", "0", "0"), exact("1", "0", "0"))]
EXACT_OPERANDS = {
    SystemKind.NS: [(exact("1/4", "1/3", "1/6"), exact("1/2", "1", "0")), (exact("1", "1", "1"), exact("0", "0", "0"))],
    SystemKind.IFS: [(exact("1/2", "1/3", "1/6"), exact("1/5", "1/5", "3/5")),
                     (exact("1", "0", "0"), exact("0", "0", "1"))],
    SystemKind.IIFS_MAX_I: IIFS_OPERANDS,
    SystemKind.IIFS_MIN_I: IIFS_OPERANDS,
}


class TestExactSumsNeverMeetAFloat:
    """A Fraction sum inside its bound is compared with the exact bound, never with the float ``bound + tol``.

    ``Fraction.from_float`` is what comparing a Fraction with a float
    costs, so these refuse it. A sum past its bound (an invalid element,
    or an IIFS-max conjunction that overflows) still meets ``bound + tol``.
    The one float let through is the extended-range families' component
    cap, ``cap + ABS_TOL``, which their range check (not a bound test)
    compares a component above 1 with.
    """

    @pytest.fixture(autouse=True)
    def let_through(self, monkeypatch) -> set:
        """The floats a test may still convert; every other conversion fails it."""
        allowed = set()
        from_float = Fraction.from_float

        def refuse(cls, x):
            if x not in allowed:
                raise AssertionError(f"Fraction.from_float({x!r}) called")
            return from_float(x)

        monkeypatch.setattr(Fraction, "from_float", classmethod(refuse))
        return allowed

    @pytest.mark.parametrize("kind, exponent, elements", EXACT_ELEMENTS)
    def test_validate_and_the_bound_test(self, kind, exponent, elements, let_through):
        family = FamilySpec(kind, exponent)
        for x in elements:
            let_through.clear()
            if kind.row.extended and any(v > 1 for v in x):
                let_through.add(family.component_cap + ABS_TOL)
            assert validate(x, family).valid and _first_outside([x], family) < 0
            if kind is FamilyKind.IFS:
                assert inside([embed_into_ns(x, family)], family)

    @pytest.mark.parametrize("kind, exponent, groups", EXACT_REFINED)
    def test_validate_refined(self, kind, exponent, groups, let_through):
        c, fam = RefinedComponents(*groups), RefinedFamilySpec(kind, exponent)
        cap = fam.component_cap(c.arities)
        if cap != 1 and any(v > 1 for v in c.all_parts()):
            let_through.add(cap + ABS_TOL)
        assert validate_refined(c, fam).valid

    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_the_operators(self, kind):
        for norms in NORM_PAIRS:
            if kind is not SystemKind.NS and norms == MIN_PROBSUM:
                continue
            for overflow in OverflowRule:
                sys = OperatorSystem(kind, norms, overflow)
                for a, b in EXACT_OPERANDS[kind]:
                    a, b = Triplet(*a), Triplet(*b)
                    results = [negate(a, sys), conjunct(a, b, sys), disjunct(a, b, sys), implicate(a, b, sys)]
                    assert all(type(v) is Fraction for r in results for v in r.components())

    @pytest.mark.parametrize("kind, exponent, elements", [e for e in EXACT_ELEMENTS if e[0].row.residual
                                                          or e[0] in (FamilyKind.IIFS, FamilyKind.NS)])
    def test_embeddings_and_residuals(self, kind, exponent, elements):
        family = FamilySpec(kind, exponent)
        for x in elements:
            element = Pair(*x) if len(x) == 2 else Triplet(*x)
            embed_into_ns(element, family)
            if kind.row.residual == "hesitancy":
                hesitancy(element, family)
            elif kind.row.residual == "refusal":
                refusal(element, family)
