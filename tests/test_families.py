import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from test_operators import EDGE_SUMS

from neutroset.core import (
    ComponentRangeError,
    ConstraintError,
    IntervalValue,
    Pair,
    Triplet,
    UsageError,
)
from neutroset.families import (
    CubeRegion,
    FamilyKind,
    FamilySpec,
    InclusionClaim,
    _first_outside,
    _widened,
    classify_cube_region,
    embed_into_ns,
    find_counterexample,
    hesitancy,
    refusal,
    validate,
)

units = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
triplets = st.builds(Triplet, units, units, units)

NS = FamilySpec(FamilyKind.NS)
IIFS = FamilySpec(FamilyKind.IIFS)
IFS = FamilySpec(FamilyKind.IFS)
SFS = FamilySpec(FamilyKind.SFS)
PYFS = FamilySpec(FamilyKind.PYFS)


def edge_totals():
    """Every ``EDGE_SUMS`` value exactly, as the nearest float, and that float one ulp either way."""
    for total in EDGE_SUMS:
        x = float(total)
        yield from (total, x, math.nextafter(x, 0.0), math.nextafter(x, 2.0))


def edge_rows(total):
    """(family, components, row of suprema) whose constraint value is ``total``, or as near as a square root lets it be.

    The sum families split ``total`` exactly (``total - 1/2`` is exact in floats too); an IFS pair
    also comes widened to its stand-in triplet. Under PyFS and SFS the last component is the float
    square root of what the others leave, and that root one ulp either way.
    """
    exact = isinstance(total, Fraction)
    half = Fraction(1, 2) if exact else 0.5
    quarter = half / 2
    pair = (half, total - half)
    yield IFS, pair, pair
    yield IFS, pair, _widened([pair])[0]
    yield IIFS, (quarter, quarter, total - half), (quarter, quarter, total - half)
    for family, head in ((PYFS, (half,)), (SFS, (half, half))):
        r = math.sqrt(float(total - len(head) * quarter))
        for last in (math.nextafter(r, 0.0), r, math.nextafter(r, 2.0)):
            x = (*head, Fraction(last) if exact else last)
            yield family, x, x


class TestFamilySpec:
    def test_exponent_required(self):
        with pytest.raises(UsageError):
            FamilySpec(FamilyKind.QROFS)
        with pytest.raises(UsageError):
            FamilySpec(FamilyKind.NHSFS, 0.5)

    def test_exponent_forbidden_elsewhere(self):
        with pytest.raises(UsageError):
            FamilySpec(FamilyKind.NS, 2)

    def test_component_caps(self):
        assert FamilySpec(FamilyKind.SNS).component_cap == pytest.approx(math.sqrt(3))
        assert FamilySpec(FamilyKind.NHSNS, 3).component_cap == pytest.approx(3 ** (1 / 3))

    @pytest.mark.parametrize("exponent", ["abc", True, float("nan")])
    def test_exponent_rule_rejects(self, exponent):
        with pytest.raises(UsageError):
            FamilySpec(FamilyKind.QROFS, exponent)


#: (kind, exponent parameter, arity, effective exponent, bound, component cap), as the paper states them.
PAPER_FAMILIES = [
    (FamilyKind.FS, None, 2, 1, 1, 1.0),
    (FamilyKind.IFS, None, 2, 1, 1, 1.0),
    (FamilyKind.IIFS, None, 3, 1, 1, 1.0),
    (FamilyKind.NS, None, 3, 1, 3, 1.0),
    (FamilyKind.PYFS, None, 2, 2, 1, 1.0),
    (FamilyKind.QROFS, 3, 2, 3, 1, 1.0),
    (FamilyKind.SFS, None, 3, 2, 1, 1.0),
    (FamilyKind.NHSFS, 2.5, 3, 2.5, 1, 1.0),
    (FamilyKind.SNS, None, 3, 2, 3, math.sqrt(3)),
    (FamilyKind.NHSNS, 3, 3, 3, 3, 3 ** (1 / 3)),
]


@pytest.mark.parametrize("kind,exponent,arity,effective,bound,cap", PAPER_FAMILIES)
def test_family_properties_match_the_paper(kind, exponent, arity, effective, bound, cap):
    spec = FamilySpec(kind, exponent)
    assert spec.arity == arity
    assert spec.effective_exponent == effective
    assert spec.bound == bound
    assert spec.component_cap == cap


def test_paper_table_covers_every_family():
    assert {row[0] for row in PAPER_FAMILIES} == set(FamilyKind)


class TestValidate:
    def test_ns_accepts_counterexample_triplet(self):
        report = validate((0.9, 0.4, 0.5), NS)
        assert report.valid and report.constraint_value == pytest.approx(1.8)

    def test_sfs_rejects_counterexample_triplet(self):
        report = validate((0.9, 0.4, 0.5), SFS)
        assert not report.valid
        assert report.constraint_value == pytest.approx(1.22, abs=1e-9)

    def test_paradox_triplet(self):
        assert validate((1, 1, 1), NS).valid
        assert not validate((1, 1, 1), IIFS).valid

    def test_sum_one_triplet_valid_everywhere_relevant(self):
        assert validate((0.3, 0.6, 0.1), NS).valid
        assert validate((0.3, 0.6, 0.1), IIFS).valid

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            validate((0.3, 0.4), NS)
        with pytest.raises(UsageError):
            validate((0.3, 0.4, 0.1), PYFS)

    def test_interval_components_use_suprema(self):
        report = validate((IntervalValue(0.1, 0.6), IntervalValue(0.2, 0.5)), IFS)
        assert report.constraint_value == pytest.approx(1.1)
        assert not report.valid

    def test_sns_allows_components_above_one(self):
        report = validate((1.2, 1.0, 0.5), FamilySpec(FamilyKind.SNS))
        assert report.valid
        with pytest.raises(ComponentRangeError):
            validate((1.8, 0.0, 0.0), FamilySpec(FamilyKind.SNS))

    def test_qrofs_bound(self):
        assert not validate(Pair(1.0, 0.5), FamilySpec(FamilyKind.QROFS, 2)).valid
        # 0.9^5 + 0.8^5 = 0.91817 fits, while the same pair fails at q = 2
        assert validate(Pair(0.9, 0.8), FamilySpec(FamilyKind.QROFS, 5)).valid
        assert not validate(Pair(0.9, 0.8), FamilySpec(FamilyKind.QROFS, 2)).valid

    def test_fs_constrains_membership_only(self):
        assert validate((1.0, 1.0), FamilySpec(FamilyKind.FS)).valid

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @given(data=st.data())
    def test_first_outside_agrees_with_validate(self, kind, data):
        family = FamilySpec(kind, 2.5 if kind.row.exponent is None else None)
        values = st.floats(min_value=0.0, max_value=family.component_cap, allow_nan=False)
        row = tuple(data.draw(values) for _ in range(family.arity))
        comps = row
        if max(row) <= 1 and data.draw(st.booleans()):
            comps = (Triplet if family.arity == 3 else Pair)(*row)
        assert (_first_outside([row], family) < 0) == validate(comps, family).valid

    @pytest.mark.parametrize("total", list(edge_totals()), ids=repr)
    def test_bound_test_agrees_with_validate_on_the_band_edges(self, total):
        for family, x, row in edge_rows(total):
            assert (_first_outside([row], family) < 0) == validate(x, family).valid, (family.describe(), x, row)

    @given(units, units, units)
    def test_degenerate_interval_equals_scalar(self, t, i, f):
        scalar = validate((t, i, f), SFS)
        interval = validate(
            (IntervalValue(t, t), IntervalValue(i, i), IntervalValue(f, f)), SFS
        )
        assert scalar.valid == interval.valid
        assert scalar.constraint_value == interval.constraint_value


class TestHesitancy:
    def test_ifs_printed_example(self):
        got = hesitancy(Pair(0.50, 0.31), IFS)
        assert float(got.v) == pytest.approx(0.19, abs=1e-9)

    def test_pyfs_counterexample_value(self):
        got = hesitancy(Pair(0.9, 0.2), PYFS)
        assert float(got.v) == pytest.approx(math.sqrt(0.15), abs=1e-9)
        assert float(got.v) == pytest.approx(0.39, abs=0.01)

    def test_boundary(self):
        assert float(hesitancy(Pair(1.0, 0.0), PYFS).v) == 0.0

    def test_qrofs_first_power_reduces_to_complement(self):
        got = hesitancy(Pair(0.3, 0.5), FamilySpec(FamilyKind.QROFS, 1))
        assert float(got.v) == pytest.approx(0.2, abs=1e-9)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ConstraintError):
            hesitancy(Pair(0.9, 0.9), PYFS)

    def test_wrong_family(self):
        with pytest.raises(UsageError):
            hesitancy(Pair(0.3, 0.3), NS)

    def test_interval_pair_uses_suprema(self):
        got = hesitancy(Pair(IntervalValue(0.2, 0.5), IntervalValue(0.1, 0.31)), IFS)
        assert float(got.v) == pytest.approx(0.19, abs=1e-9)

    @given(units, units)
    def test_result_in_unit_range(self, t, f):
        assume(t * t + f * f <= 1.0)
        v = float(hesitancy(Pair(t, f), PYFS).v)
        assert 0.0 <= v <= 1.0


class TestOneLeftover:
    """A valid pair's hesitancy and the middle slot of its NS image are one number, bit for bit."""

    @given(units, units)
    @example(0.763774618976614, 0.060253777792558735)
    def test_ifs_middle_slot_is_the_hesitancy(self, t, f):
        assume(validate(Pair(t, f), IFS).valid)
        assert hesitancy(Pair(t, f), IFS).v == embed_into_ns(Pair(t, f), IFS).i

    @given(units, units)
    def test_pyfs_middle_slot_is_the_squared_hesitancy(self, t, f):
        assume(validate(Pair(t, f), PYFS).valid)
        assert hesitancy(Pair(t, f), PYFS).v == math.sqrt(embed_into_ns(Pair(t, f), PYFS).i)

    # q = 2 is PyFS's square root, checked above
    @given(units, units, st.floats(min_value=1.0, max_value=8.0).filter(lambda q: q != 2))
    def test_qrofs_middle_slot_is_the_powered_hesitancy(self, t, f, q):
        fam = FamilySpec(FamilyKind.QROFS, q)
        assume(validate(Pair(t, f), fam).valid)
        assert hesitancy(Pair(t, f), fam).v == math.pow(embed_into_ns(Pair(t, f), fam).i, 1.0 / q)


class TestRefusal:
    def test_iifs_transformed_set_values(self):
        # unrounded counterparts of the printed 0.11 / 0.46 refusals
        a = refusal(Triplet(Fraction(8, 18), Fraction(3, 18), Fraction(5, 18)), IIFS)
        assert a.v == Fraction(1, 9)
        b = refusal(Triplet(Fraction(2, 11), Fraction(1, 11), Fraction(3, 11)), IIFS)
        assert b.v == Fraction(5, 11)

    def test_iifs_printed_examples(self):
        assert float(refusal(Triplet(0.44, 0.17, 0.28), IIFS).v) == pytest.approx(0.11, abs=1e-9)
        assert float(refusal(Triplet(0.18, 0.09, 0.27), IIFS).v) == pytest.approx(0.46, abs=1e-9)

    def test_sfs_empty_commitment(self):
        assert float(refusal(Triplet(0.0, 0.0, 0.0), SFS).v) == 1.0

    def test_nhsfs_takes_matching_root(self):
        fam = FamilySpec(FamilyKind.NHSFS, 3)
        got = float(refusal(Triplet(0.5, 0.5, 0.5), fam).v)
        # oracle: residual of the cubed sum, re-rooted at the same power
        residual = 1 - 3 * 0.5**3
        assert got == pytest.approx(residual ** (1 / 3), abs=1e-12)
        assert got**3 + 3 * 0.5**3 == pytest.approx(1.0, abs=1e-9)

    def test_invalid_triplet_rejected(self):
        with pytest.raises(ConstraintError):
            refusal(Triplet(0.9, 0.4, 0.5), SFS)


class TestEmbedIntoNs:
    def test_pyfs_counterexample_embedding(self):
        got = embed_into_ns(Pair(0.9, 0.2), PYFS)
        t, i, f = (float(v) for v in got.scalars())
        assert (t, i, f) == pytest.approx((0.81, 0.15, 0.04), abs=1e-9)
        assert t + i + f == pytest.approx(1.0, abs=1e-9)

    def test_sfs_squares_components(self):
        got = embed_into_ns(Triplet(0.5, 0.5, 0.5), SFS)
        assert tuple(float(v) for v in got.scalars()) == pytest.approx((0.25, 0.25, 0.25))
        assert float(got.component_sum()) <= 1.0

    def test_qrofs_first_power(self):
        got = embed_into_ns(Pair(0.3, 0.5), FamilySpec(FamilyKind.QROFS, 1))
        assert tuple(float(v) for v in got.scalars()) == pytest.approx((0.3, 0.2, 0.5), abs=1e-9)

    def test_fraction_pair_stays_exact_when_clamped(self):
        # valid only within tolerance, so the derived middle clamps to an exact zero
        got = embed_into_ns(Pair(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**10)), IFS)
        assert got.components() == (Fraction(1, 2), 0, Fraction(1, 2) + Fraction(1, 10**10))
        assert all(type(v) is Fraction for v in got.components())

    def test_identity_for_ns_and_iifs(self):
        t = Triplet(0.2, 0.1, 0.3)
        assert embed_into_ns(t, IIFS) == t
        assert embed_into_ns(t, NS) == t

    def test_invalid_input_rejected(self):
        with pytest.raises(ConstraintError):
            embed_into_ns(Pair(0.9, 0.8), PYFS)

    @given(units, units)
    def test_pyfs_embeddings_sum_to_one(self, t, f):
        assume(t * t + f * f <= 1.0)
        out = embed_into_ns(Pair(t, f), PYFS)
        assert float(out.component_sum()) == pytest.approx(1.0, abs=1e-9)

    @given(units, units, units)
    def test_sfs_embedding_is_ns_valid(self, t, i, f):
        assume(t * t + i * i + f * f <= 1.0)
        out = embed_into_ns(Triplet(t, i, f), SFS)
        assert validate(out, NS).valid


class TestInclusionChain:
    @given(triplets)
    def test_every_iifs_valid_triplet_is_ns_valid(self, trip):
        assume(validate(trip, IIFS).valid)
        assert validate(trip, NS).valid

    @given(units, units, st.floats(min_value=1.0, max_value=8.0, allow_nan=False))
    def test_qrofs_embeds_ns_valid(self, t, f, q):
        fam = FamilySpec(FamilyKind.QROFS, q)
        assume(validate(Pair(t, f), fam).valid)
        out = embed_into_ns(Pair(t, f), fam)
        assert validate(out, NS).valid


class TestCounterexamples:
    def test_canonical_witnesses(self):
        assert find_counterexample(InclusionClaim.NS_NOT_SFS) == Triplet(0.9, 0.4, 0.5)
        assert find_counterexample(InclusionClaim.NS_NOT_QROFS, 2) == Triplet(1.0, 0.5, 0.5)
        assert find_counterexample(InclusionClaim.NS_NOT_IIFS) == Triplet(1.0, 1.0, 1.0)
        # without an exponent, the exponent families are checked at 2
        assert find_counterexample(InclusionClaim.NS_NOT_QROFS) == Triplet(1.0, 0.5, 0.5)
        assert find_counterexample(InclusionClaim.NS_NOT_NHSFS) == Triplet(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("claim", list(InclusionClaim))
    @pytest.mark.parametrize("exponent", [1, 2, 5])
    def test_witness_is_ns_valid_and_target_invalid(self, claim, exponent):
        witness = find_counterexample(claim, exponent)
        assert validate(witness, NS).valid
        target_kind = {
            InclusionClaim.NS_NOT_SFS: SFS,
            InclusionClaim.NS_NOT_QROFS: FamilySpec(FamilyKind.QROFS, exponent),
            InclusionClaim.NS_NOT_NHSFS: FamilySpec(FamilyKind.NHSFS, exponent),
            InclusionClaim.NS_NOT_IIFS: IIFS,
        }[claim]
        comps = witness if target_kind.arity == 3 else Pair(witness.t, witness.f)
        assert not validate(comps, target_kind).valid


class TestCubeRegion:
    def test_complete_plane(self):
        assert classify_cube_region(Triplet(0.3, 0.6, 0.1)) is CubeRegion.COMPLETE

    def test_incomplete(self):
        assert classify_cube_region(Triplet(0.2, 0.1, 0.3)) is CubeRegion.INCOMPLETE

    def test_paraconsistent(self):
        assert classify_cube_region(Triplet(0.8, 0.3, 0.5)) is CubeRegion.PARACONSISTENT

    def test_tolerance_band(self):
        assert classify_cube_region(Triplet(0.5, 0.25, 0.25 + 1e-12)) is CubeRegion.COMPLETE
        assert classify_cube_region(Triplet(0.5, 0.25, 0.26), tol=1e-3) is CubeRegion.PARACONSISTENT

    @given(triplets)
    def test_exactly_one_region(self, trip):
        region = classify_cube_region(trip)
        assert isinstance(region, CubeRegion)

    @given(triplets)
    def test_symmetric_in_t_and_f(self, trip):
        t, i, f = trip.scalars()
        assert classify_cube_region(trip) is classify_cube_region(Triplet(f, i, t))

    @given(triplets)
    def test_raw_components_place_like_their_triplet(self, trip):
        assert classify_cube_region(trip.components()) is classify_cube_region(trip)

    def test_extended_components_above_one(self):
        assert classify_cube_region((1.2, 0.5, 0.5)) is CubeRegion.PARACONSISTENT

    @given(triplets, st.floats(min_value=-0.5, max_value=0.5))
    def test_regions_split_at_one_minus_and_one_plus_tol(self, trip, tol):
        s = trip.component_sum()
        want = (CubeRegion.INCOMPLETE if s < 1 - tol else CubeRegion.PARACONSISTENT if s > 1 + tol
                else CubeRegion.COMPLETE)
        assert classify_cube_region(trip, tol) is want

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_component_raises(self, value):
        with pytest.raises(ComponentRangeError):
            classify_cube_region((value, 0, 0))


class TestNhsfsMonotonicity:
    @given(
        units,
        units,
        units,
        st.floats(min_value=1.0, max_value=6.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    )
    def test_valid_stays_valid_at_higher_exponent(self, t, i, f, n, delta):
        trip = Triplet(t, i, f)
        assume(validate(trip, FamilySpec(FamilyKind.NHSFS, n)).valid)
        assert validate(trip, FamilySpec(FamilyKind.NHSFS, n + delta)).valid

    def test_nhsfs_with_exponent_two_matches_sfs(self):
        fam = FamilySpec(FamilyKind.NHSFS, 2)
        for trip in [Triplet(0.5, 0.5, 0.5), Triplet(0.9, 0.4, 0.5), Triplet(1.0, 0.0, 0.0)]:
            assert validate(trip, fam).valid == validate(trip, SFS).valid
