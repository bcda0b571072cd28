import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from neutroset.core import (
    ComponentRangeError,
    ConstraintError,
    IntervalValue,
    Pair,
    Triplet,
    UnitValue,
    UsageError,
    inf_of,
    leftover,
    sup_of,
)
from neutroset.families import FamilyKind, FamilySpec, hesitancy, validate
from neutroset.refined import (
    RefinedComponents,
    RefinedFamilySpec,
    RefinedKind,
    coarsen,
    refine,
    refined_hesitancy,
    refined_refusal,
    validate_refined,
)

RIFS = RefinedFamilySpec(RefinedKind.RIFS)
RIIFS = RefinedFamilySpec(RefinedKind.RIIFS)
RNS = RefinedFamilySpec(RefinedKind.RNS)
RPYFS = RefinedFamilySpec(RefinedKind.RPYFS)
RSFS = RefinedFamilySpec(RefinedKind.RSFS)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestValidateRefined:
    def test_rifs_direct_sum(self):
        report = validate_refined(RefinedComponents(t=(0.3, 0.2), f=(0.4,)), RIFS)
        assert report.valid and float(report.constraint_value) == pytest.approx(0.9)

    def test_rns_bound_is_total_arity(self):
        report = validate_refined(RefinedComponents(t=(0.9, 0.8), i=(0.7,), f=(0.9,)), RNS)
        assert report.valid
        assert float(report.constraint_value) == pytest.approx(3.3)
        assert report.bound == 4

    def test_rpyfs_squared_overflow(self):
        # oracle: exact squares 81/100 + 25/100 = 106/100 > 1
        exact = Fraction(9, 10) ** 2 + Fraction(5, 10) ** 2
        assert exact > 1
        report = validate_refined(
            RefinedComponents(t=(Fraction(9, 10),), f=(Fraction(5, 10),)), RPYFS
        )
        assert not report.valid
        assert report.constraint_value == exact

    def test_arity_violations(self):
        with pytest.raises(UsageError):
            validate_refined(RefinedComponents(t=(0.3,)), RefinedFamilySpec(RefinedKind.RFS))
        with pytest.raises(UsageError):
            validate_refined(RefinedComponents(t=(0.3,), i=(0.1,), f=(0.2,)), RIFS)
        with pytest.raises(UsageError):
            validate_refined(RefinedComponents(t=(0.3,), f=(0.2,)), RNS)

    def test_rfs_membership_split(self):
        fam = RefinedFamilySpec(RefinedKind.RFS)
        assert validate_refined(RefinedComponents(t=(0.4, 0.5)), fam).valid
        assert not validate_refined(RefinedComponents(t=(0.7, 0.7)), fam).valid

    def test_rnhsns_bound_and_cap(self):
        fam = RefinedFamilySpec(RefinedKind.RNHSNS, 2)
        comps = RefinedComponents(t=(1.2, 0.5), i=(0.9,), f=(1.1,))
        report = validate_refined(comps, fam)
        assert report.bound == 4
        assert report.valid
        with pytest.raises(ComponentRangeError):
            validate_refined(RefinedComponents(t=(2.5, 0.0), i=(0.0,), f=(0.0,)), fam)

    def test_interval_subcomponents_use_suprema(self):
        comps = RefinedComponents(t=(IntervalValue(0.1, 0.6),), f=(IntervalValue(0.2, 0.5),))
        report = validate_refined(comps, RIFS)
        assert float(report.constraint_value) == pytest.approx(1.1)
        assert not report.valid

    @given(
        st.lists(unit_fractions, min_size=1, max_size=3),
        st.lists(unit_fractions, min_size=1, max_size=3),
        st.lists(unit_fractions, min_size=1, max_size=3),
    )
    def test_zeroing_preserves_validity(self, ts, is_, fs):
        comps = RefinedComponents(t=tuple(ts), i=tuple(is_), f=tuple(fs))
        report = validate_refined(comps, RNS)
        assume(report.valid)
        zeroed = RefinedComponents(t=(0,) + tuple(ts[1:]), i=tuple(is_), f=tuple(fs))
        assert validate_refined(zeroed, RNS).valid


#: (kind, exponent parameter, accepted arities, rejected arities, effective exponent,
#: bound at the accepted arities, component cap there), as the paper states them.
PAPER_REFINED = [
    (RefinedKind.RFS, None, (3, 0, 0), (3, 0, 1), 1, 1, 1.0),
    (RefinedKind.RIFS, None, (2, 0, 3), (2, 1, 3), 1, 1, 1.0),
    (RefinedKind.RIIFS, None, (2, 1, 3), (2, 0, 3), 1, 1, 1.0),
    (RefinedKind.RNS, None, (2, 1, 3), (2, 0, 3), 1, 6, 1.0),
    (RefinedKind.RPYFS, None, (2, 0, 3), (2, 1, 3), 2, 1, 1.0),
    (RefinedKind.RSFS, None, (2, 1, 3), (2, 0, 3), 2, 1, 1.0),
    (RefinedKind.RQROFS, 3, (2, 0, 3), (2, 1, 3), 3, 1, 1.0),
    (RefinedKind.RNHSNS, 2, (2, 1, 3), (2, 0, 3), 2, 6, math.sqrt(6)),
]


def _zeros(arities):
    p, r, s = arities
    return RefinedComponents(t=(0,) * p, i=(0,) * r, f=(0,) * s)


@pytest.mark.parametrize("kind,exponent,accepted,rejected,effective,bound,cap", PAPER_REFINED)
def test_refined_properties_match_the_paper(kind, exponent, accepted, rejected, effective, bound, cap):
    fam = RefinedFamilySpec(kind, exponent)
    assert fam.effective_exponent == effective
    assert fam.bound(accepted) == bound
    assert fam.component_cap(accepted) == cap
    assert validate_refined(_zeros(accepted), fam).bound == bound
    with pytest.raises(UsageError):
        validate_refined(_zeros(rejected), fam)


def test_paper_refined_table_covers_every_kind():
    assert {row[0] for row in PAPER_REFINED} == set(RefinedKind)


#: Refined kinds with one sub-degree per slot beside their plain twins.
TWINS = [
    (RefinedKind.RIFS, FamilyKind.IFS, False),
    (RefinedKind.RIIFS, FamilyKind.IIFS, False),
    (RefinedKind.RNS, FamilyKind.NS, False),
    (RefinedKind.RPYFS, FamilyKind.PYFS, False),
    (RefinedKind.RSFS, FamilyKind.SFS, False),
    (RefinedKind.RQROFS, FamilyKind.QROFS, True),
    (RefinedKind.RNHSNS, FamilyKind.NHSNS, True),
]


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except (UsageError, ComponentRangeError) as exc:
        return type(exc).__name__
    return (r.valid, type(r.bound), r.bound, type(r.constraint_value), repr(r.constraint_value))


class TestOneSlotEqualsPlainTwin:
    @given(
        st.sampled_from(TWINS),
        st.one_of(st.sampled_from([1, 2, 3]), st.floats(min_value=1.0, max_value=6.0)),
        st.data(),
    )
    def test_validate_refined_matches_validate(self, twin, exponent, data):
        rkind, kind, takes_exponent = twin
        e = exponent if takes_exponent else None
        # extended-range components reach past 1 and, for larger exponents, past the cap
        top = 1.8 if kind is FamilyKind.NHSNS else 1.0
        values = st.one_of(st.floats(min_value=0.0, max_value=top), unit_fractions)
        t, i, f = data.draw(st.lists(values, min_size=3, max_size=3))
        plain = FamilySpec(kind, e)
        if plain.arity == 2:
            comps, parts = RefinedComponents(t=(t,), f=(f,)), (t, f)
        else:
            comps, parts = RefinedComponents(t=(t,), i=(i,), f=(f,)), (t, i, f)
        got = _outcome(validate_refined, comps, RefinedFamilySpec(rkind, e))
        assert got == _outcome(validate, parts, plain)

    def test_subcomponent_past_one_rejected_like_a_plain_component(self):
        with pytest.raises(ComponentRangeError):
            validate((1 + 1e-12, 0.0), FamilySpec(FamilyKind.IFS))
        with pytest.raises(ComponentRangeError):
            validate_refined(RefinedComponents(t=(1 + 1e-12,), f=(0.0,)), RIFS)

    @given(units, units)
    def test_rifs_hesitancy_equals_plain_ifs(self, t, f):
        assume(t + f <= 1.0)
        got = refined_hesitancy(RefinedComponents(t=(t,), f=(f,)), RIFS)
        assert got == hesitancy(Pair(t, f), FamilySpec(FamilyKind.IFS))


class TestRefinedHesitancy:
    def test_single_slot_matches_plain_family_exactly(self):
        got = refined_hesitancy(RefinedComponents(t=(0.9,), f=(0.2,)), RPYFS)
        plain = hesitancy(Pair(0.9, 0.2), FamilySpec(FamilyKind.PYFS))
        assert got == plain
        assert float(got.v) == pytest.approx(math.sqrt(0.15), abs=1e-12)

    def test_first_power_reduces_to_complement(self):
        fam = RefinedFamilySpec(RefinedKind.RQROFS, 1)
        got = refined_hesitancy(RefinedComponents(t=(0.3, 0.2), f=(0.4,)), fam)
        assert float(got.v) == pytest.approx(0.1, abs=1e-9)

    def test_boundary(self):
        got = refined_hesitancy(RefinedComponents(t=(1.0,), f=(0.0,)), RPYFS)
        assert float(got.v) == 0.0

    def test_invalid_input_rejected(self):
        with pytest.raises(ConstraintError):
            refined_hesitancy(RefinedComponents(t=(0.9,), f=(0.5,)), RPYFS)

    @given(units, units)
    def test_equals_plain_pyfs_hesitancy(self, t, f):
        assume(t * t + f * f <= 1.0)
        got = refined_hesitancy(RefinedComponents(t=(t,), f=(f,)), RPYFS)
        plain = hesitancy(Pair(t, f), FamilySpec(FamilyKind.PYFS))
        assert got == plain


class TestRefinedRefusal:
    def test_riifs_plain_sums(self):
        got = refined_refusal(RefinedComponents(t=(0.2,), i=(0.1, 0.2), f=(0.3,)), RIIFS)
        assert isinstance(got, UnitValue)
        assert float(got.v) == pytest.approx(0.2, abs=1e-9)

    def test_rsfs_all_zero(self):
        got = refined_refusal(RefinedComponents(t=(0.0,), i=(0.0,), f=(0.0,)), RSFS)
        assert float(got.v) == 1.0

    def test_rsfs_radical(self):
        # oracle: exact squared residual 1 - 36/100 - 16/100 - 25/100 = 23/100
        exact = 1 - Fraction(36, 100) - Fraction(16, 100) - Fraction(25, 100)
        assert exact == Fraction(23, 100)
        got = refined_refusal(
            RefinedComponents(t=(Fraction(6, 10),), i=(Fraction(4, 10),), f=(Fraction(5, 10),)),
            RSFS,
        )
        assert float(got.v) == pytest.approx(math.sqrt(0.23), abs=1e-12)

    def test_riifs_interval_inputs_give_interval(self):
        comps = RefinedComponents(
            t=(IntervalValue(0.1, 0.2),), i=(IntervalValue(0.0, 0.1),), f=(0.3,)
        )
        got = refined_refusal(comps, RIIFS)
        assert isinstance(got, IntervalValue)
        assert float(got.lo) == pytest.approx(1 - 0.2 - 0.1 - 0.3, abs=1e-12)
        assert float(got.hi) == pytest.approx(1 - 0.1 - 0.0 - 0.3, abs=1e-12)

    def test_interval_bound_sums_run_left_to_right(self):
        # builtin sum compensates float sums from Python 3.12 on, which would give 0.19999999999999996 there
        comps = RefinedComponents(t=(IntervalValue(0.0, 0.1), 0.2), i=(0.3,), f=(0.1, 0.1, 0.1))
        assert refined_refusal(comps, RIIFS) == IntervalValue(0.09999999999999998, 0.20000000000000007)

    @given(st.lists(st.one_of(units, st.tuples(units, units).map(sorted)), min_size=3, max_size=3))
    @example([IntervalValue(0.6, 0.6), 0.2, 0.2000000005])  # valid within tolerance, so the infima sum past 1 too
    def test_riifs_bounds_are_what_the_sums_leave(self, parts):
        parts = [IntervalValue(*p) if isinstance(p, list) else p for p in parts]
        comps = RefinedComponents(t=parts[:1], i=parts[1:2], f=parts[2:])
        assume(validate_refined(comps, RIIFS).valid)
        got = refined_refusal(comps, RIIFS)
        lo, hi = (got.lo, got.hi) if isinstance(got, IntervalValue) else (got.v, got.v)  # scalars give a UnitValue
        t, i, f = parts
        assert lo == leftover(0 + sup_of(t) + sup_of(i) + sup_of(f))
        assert hi == leftover(0 + inf_of(t) + inf_of(i) + inf_of(f))


class TestRefineCoarsen:
    def test_equal_split_golden(self):
        comps = refine(Triplet(0.6, 0.2, 0.4), (2, 1, 1))
        assert tuple(float(v) for v in comps.t) == pytest.approx((0.3, 0.3), abs=1e-15)
        assert tuple(float(v) for v in comps.i) == (0.2,)
        assert tuple(float(v) for v in comps.f) == (0.4,)

    def test_round_trip_exact(self):
        original = Triplet(0.6, 0.2, 0.4)
        assert coarsen(refine(original, (2, 1, 1))) == original

    def test_iifs_as_four_part_refinement(self):
        # a sum-1 triplet splits its middle slot in two and stays RNS-valid
        comps = refine(Triplet(0.3, 0.6, 0.1), (1, 2, 1))
        report = validate_refined(comps, RNS)
        assert report.valid
        assert float(report.constraint_value) == pytest.approx(1.0, abs=1e-12)

    def test_custom_weights(self):
        comps = refine(
            Triplet(0.6, 0.2, 0.4),
            (2, 1, 1),
            weights=((Fraction(3, 4), Fraction(1, 4)), (1,), (1,)),
        )
        assert tuple(float(v) for v in comps.t) == pytest.approx((0.45, 0.15), abs=1e-15)
        assert coarsen(comps) == Triplet(0.6, 0.2, 0.4)

    def test_weight_misuse(self):
        with pytest.raises(UsageError):
            refine(Triplet(0.6, 0.2, 0.4), (2, 1, 1), weights=((0.5, 0.6), (1,), (1,)))
        with pytest.raises(UsageError):
            refine(Triplet(0.6, 0.2, 0.4), (2, 1, 1), weights=((1,), (1,), (1,)))

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: RefinedComponents(t=("0.5",)), UsageError, "expected a real subcomponent, got str"),
            (lambda: refine(Triplet(0.6, 0.2, 0.4), (0, 1, 1)), UsageError,
             "arities must be (p >= 1, r >= 0, s >= 0), got (0, 1, 1)"),
            (lambda: refine(Triplet(0.6, 0.2, 0.4), (2, 1, 1), weights=((2, -1), (1,), (1,))), UsageError,
             "weights must be nonnegative"),
            (lambda: coarsen(RefinedComponents(t=(IntervalValue(0.1, 0.2),))), UsageError,
             "cannot coarsen interval subcomponents to a scalar triplet"),
            (lambda: coarsen(RefinedComponents(t=(0.75, 0.5))), ComponentRangeError,
             "slot sum 1.25 exceeds 1; not collapsible to a unit triplet"),
        ],
        ids=["not-real", "no-sub-truth-slot", "negative-weight", "interval", "slot-past-one"],
    )
    def test_malformed_input_rejected(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "arities, weights, message",
        [
            ((2, 1, 1), (("1", 0), (1,), (1,)), "weights must be real numbers, got str"),
            ((2, 1, 1), (("1/1", 0), (1,), (1,)), "weights must be real numbers, got str"),
            ((2, 1, 1), ((True, False), (1,), (1,)), "weights must be real numbers, got bool"),
            ((2, 1, 1), ((1, None), (1,), (1,)), "weights must be real numbers, got NoneType"),
            ((2, 1, 1), ((math.nan, 1), (1,), (1,)), "weights must be finite, got nan"),
            ((2, 1, 1), ((math.inf, 0), (1,), (1,)), "weights must be finite, got inf"),
            ((2, 1, 1), ((0.5, 0.5), (1,)), "expected three weight groups, one per slot, got 2"),
            ((2, 1, 1), ((0.5, 0.5), (1,), (1,), (1,)), "expected three weight groups, one per slot, got 4"),
            ((2, 1), None, "arities must be three counts (p, r, s), got (2, 1)"),
            ((2, 1, 1, 1), None, "arities must be three counts (p, r, s), got (2, 1, 1, 1)"),
            (3, None, "arities must be three counts (p, r, s), got 3"),
            ((2.5, 1, 1), None, "arities must be three counts (p, r, s), got (2.5, 1, 1)"),
            (("a", "b", "c"), None, "arities must be three counts (p, r, s), got ('a', 'b', 'c')"),
            ((True, 1, 1), None, "arities must be three counts (p, r, s), got (True, 1, 1)"),
        ],
        ids=["string-weight", "fraction-string-weight", "bool-weights", "none-weight", "nan-weight", "inf-weight",
             "two-groups", "four-groups", "two-arities", "four-arities", "int-arities", "float-arity",
             "string-arities", "bool-arity"],
    )
    def test_refine_refuses_what_it_cannot_split_by(self, arities, weights, message):
        with pytest.raises(UsageError) as info:
            refine(Triplet(0.6, 0.2, 0.4), arities, weights)
        assert str(info.value) == message

    def test_empty_slot_requires_zero_component(self):
        refine(Triplet(0.5, 0.0, 0.2), (2, 0, 1))
        with pytest.raises(UsageError):
            refine(Triplet(0.5, 0.1, 0.2), (2, 0, 1))

    @given(
        st.builds(Triplet, units, units, units),
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
    )
    def test_round_trip_identity_property(self, trip, arities):
        assert coarsen(refine(trip, arities)) == trip

    @given(
        st.builds(Triplet, units, units, units),
        st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=4),
    )
    def test_round_trip_with_random_weights(self, trip, raw):
        total = sum(raw)
        ws = tuple(Fraction(r, total) for r in raw)
        comps = refine(trip, (len(ws), 1, 1), weights=(ws, (1,), (1,)))
        assert coarsen(comps) == trip
