from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroset.core import DegenerateInputError, Triplet, UsageError
from neutroset.decision import (
    DependenceMode,
    OffsetBounds,
    OffsetClass,
    Partition3,
    PartitionN,
    Verdict,
    n_ways,
    neutrosophify,
    offset_degree,
    three_ways,
    validate_offset,
)
from neutroset.families import FamilyKind, FamilySpec, _first_outside
from neutroset.transforms import LabeledSet, divergence_report

scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30
)

TEMPERATURE_GROUPS = {
    "cold": Verdict.ACCEPT,
    "medium": Verdict.NONCOMMIT,
    "hot": Verdict.REJECT,
}


class TestNeutrosophify:
    def test_territory_example(self):
        part = neutrosophify({"cold": 30, "medium": 20, "hot": 50}, TEMPERATURE_GROUPS)
        assert tuple(float(v) for v in part.as_tuple()) == pytest.approx((0.3, 0.2, 0.5))
        assert part.dependence is DependenceMode.SUM_TO_ONE

    def test_single_label_universe(self):
        part = neutrosophify({"all": 7.0}, {"all": Verdict.ACCEPT})
        assert tuple(float(v) for v in part.as_tuple()) == (1.0, 0.0, 0.0)

    def test_equal_thirds(self):
        part = neutrosophify(
            {"a": 1, "b": 1, "c": 1},
            {"a": Verdict.ACCEPT, "b": Verdict.NONCOMMIT, "c": Verdict.REJECT},
        )
        assert tuple(float(v) for v in part.as_tuple()) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_zero_total_rejected(self):
        with pytest.raises(DegenerateInputError):
            neutrosophify({"a": 0.0}, {"a": Verdict.ACCEPT})

    def test_negative_size_rejected(self):
        with pytest.raises(UsageError):
            neutrosophify({"a": -1.0}, {"a": Verdict.ACCEPT})

    def test_unassigned_label_rejected(self):
        with pytest.raises(UsageError):
            neutrosophify({"a": 1.0, "b": 2.0}, {"a": Verdict.ACCEPT})

    def test_grand_total_sums_left_to_right(self):
        # builtin sum compensates float sums from Python 3.12 on, which would give 0.5 here
        part = neutrosophify({"cold": 0.1, "medium": 0.2, "hot": 0.3}, TEMPERATURE_GROUPS)
        assert part.reject_fraction.v == 0.3 / (0.1 + 0.2 + 0.3) == 0.4999999999999999

    @given(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.001, max_value=1000.0, allow_nan=False),
    )
    def test_scale_invariance(self, a, b, c, k):
        base = neutrosophify({"x": a, "y": b, "z": c}, {"x": Verdict.ACCEPT, "y": Verdict.NONCOMMIT, "z": Verdict.REJECT})
        scaled = neutrosophify(
            {"x": a * k, "y": b * k, "z": c * k},
            {"x": Verdict.ACCEPT, "y": Verdict.NONCOMMIT, "z": Verdict.REJECT},
        )
        assert tuple(float(v) for v in scaled.as_tuple()) == pytest.approx(
            tuple(float(v) for v in base.as_tuple()), abs=1e-9
        )


class TestPartition3Modes:
    def test_sum_to_one_enforced(self):
        with pytest.raises(UsageError):
            Partition3(0.5, 0.2, 0.2)

    @pytest.mark.parametrize("fractions", [
        (0.5000000005, 0.0, 0.5000000005),
        (0.5, 0.0, 0.5000000010000001),
        (0.4999999995, 0.0, 0.5),
        (0.3, 0.3, 0.3),
    ])
    def test_sum_to_one_reads_as_the_ifs_stand_in_test(self, fractions):
        try:
            Partition3(*fractions)
        except UsageError:
            accepted = False
        else:
            accepted = True
        assert accepted == (_first_outside([fractions], FamilySpec(FamilyKind.IFS)) == -1)

    def test_free_mode_allows_independent_fractions(self):
        part = Partition3(0.9, 0.8, 0.7, dependence=DependenceMode.FREE)
        assert sum(float(v) for v in part.as_tuple()) == pytest.approx(2.4)

    def test_components_stay_in_unit_range(self):
        from neutroset.core import ComponentRangeError

        with pytest.raises(ComponentRangeError):
            Partition3(1.2, 0.0, 0.0, dependence=DependenceMode.FREE)


class TestThreeWays:
    def test_basic_thresholds(self):
        labels, part = three_ways((0.9, 0.5, 0.1), alpha=0.7, beta=0.3)
        assert labels == (Verdict.ACCEPT, Verdict.NONCOMMIT, Verdict.REJECT)
        assert tuple(float(v) for v in part.as_tuple()) == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_all_accepted(self):
        labels, part = three_ways((0.9, 0.95, 1.0), alpha=0.7, beta=0.3)
        assert set(labels) == {Verdict.ACCEPT}
        assert tuple(float(v) for v in part.as_tuple()) == (1.0, 0.0, 0.0)

    def test_midpoint_separation(self):
        eps = 1e-6
        labels, _ = three_ways((0.5 + 2 * eps, 0.5 - 2 * eps), alpha=0.5 + eps, beta=0.5 - eps)
        assert labels == (Verdict.ACCEPT, Verdict.REJECT)

    def test_threshold_order_enforced(self):
        with pytest.raises(UsageError):
            three_ways((0.5,), alpha=0.3, beta=0.3)

    @given(scores_strategy, st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.0, max_value=0.49))
    def test_fractions_sum_to_one(self, scores, alpha, beta):
        _, part = three_ways(scores, alpha, beta)
        total = sum(float(v) for v in part.as_tuple())
        assert total == pytest.approx(1.0, abs=1e-9)


class TestNWays:
    def test_banding_with_two_accept_levels(self):
        labels, part = n_ways((0.9, 0.6), cut_points=(0.25, 0.5, 0.75), arities=(2, 1, 1))
        assert labels[0].verdict is Verdict.ACCEPT and labels[0].level == 1
        assert labels[1].verdict is Verdict.ACCEPT and labels[1].level == 2
        assert labels[0].name == "Very High Acceptance"
        assert labels[1].name == "High Acceptance"
        assert [float(v.v) for v in part.accept_levels] == pytest.approx([0.5, 0.5])

    def test_scores_above_top_cut_share_a_band(self):
        labels, _ = n_ways((0.9, 0.8), cut_points=(0.25, 0.5, 0.75), arities=(2, 1, 1))
        assert labels[0] == labels[1]
        assert labels[0].verdict is Verdict.ACCEPT and labels[0].level == 1

    def test_minimum_band_count(self):
        labels, part = n_ways((0.1,), cut_points=(0.3, 0.5, 0.7), arities=(1, 1, 2))
        assert labels[0].verdict is Verdict.REJECT and labels[0].level == 1
        with pytest.raises(UsageError):
            n_ways((0.1,), cut_points=(0.4, 0.6), arities=(1, 1, 1))

    def test_cuts_outside_score_range(self):
        labels, _ = n_ways((0.2, 0.4, 0.6), cut_points=(2.0, 3.0, 4.0), arities=(2, 1, 1))
        assert len({id(l) for l in labels}) == 1  # everything lands in one band

    def test_cut_count_enforced(self):
        with pytest.raises(UsageError):
            n_ways((0.5,), cut_points=(0.5,), arities=(2, 1, 1))

    def test_ascending_cuts_enforced(self):
        with pytest.raises(UsageError):
            n_ways((0.5,), cut_points=(0.7, 0.5, 0.9), arities=(2, 1, 1))

    def test_agrees_with_three_ways_when_bands_merge(self):
        # (2, 1, 1) with the two accept bands pooled matches scalar thresholds
        scores = (0.9, 0.65, 0.45, 0.2)
        labels_n, part_n = n_ways(scores, cut_points=(0.3, 0.6, 0.8), arities=(2, 1, 1))
        labels_3, part_3 = three_ways(scores, alpha=0.6, beta=0.29999)
        assert [l.verdict for l in labels_n] == list(labels_3)
        pooled_accept = sum(float(v.v) for v in part_n.accept_levels)
        assert pooled_accept == pytest.approx(float(part_3.accept_fraction.v))

    @given(scores_strategy)
    def test_every_score_gets_exactly_one_band(self, scores):
        labels, part = n_ways(scores, cut_points=(0.25, 0.5, 0.75), arities=(2, 1, 1))
        assert len(labels) == len(scores)
        total = sum(float(v.v) for v in part.accept_levels)
        total += sum(float(v.v) for v in part.noncommit_levels)
        total += sum(float(v.v) for v in part.reject_levels)
        assert total == pytest.approx(1.0, abs=1e-9)

    @given(st.data())
    def test_matches_a_reference_banding(self, data):
        p, r, s = data.draw(st.tuples(*[st.integers(1, 4)] * 3).filter(lambda a: sum(a) >= 4), label="arities")
        n_bands = p + r + s
        cut_values = st.floats(-10, 10, allow_nan=False)
        cuts = sorted(data.draw(st.sets(cut_values, min_size=n_bands - 1, max_size=n_bands - 1), label="cuts"))
        between = [cuts[0] - 1, *((a + b) / 2 for a, b in zip(cuts, cuts[1:])), cuts[-1] + 1]
        score = st.one_of(st.sampled_from(cuts), st.sampled_from(between), st.floats(-11, 11))
        scores = data.draw(st.lists(score, min_size=1, max_size=20), label="scores")
        labels, part = n_ways(scores, cuts, (p, r, s))
        bands = [sum(c <= x for c in cuts) for x in scores]
        for label, k in zip(labels, bands):
            if k < s:
                assert (label.verdict, label.level) == (Verdict.REJECT, k + 1)
            elif k < s + r:
                assert (label.verdict, label.level) == (Verdict.NONCOMMIT, s + r - k)
            else:
                assert (label.verdict, label.level) == (Verdict.ACCEPT, n_bands - k)
        levels = (*part.reject_levels, *part.noncommit_levels, *part.accept_levels)
        assert [v.v for v in levels] == [bands.count(k) / len(scores) for k in range(n_bands)]


class TestOffsetDegrees:
    def test_worked_hours(self):
        assert offset_degree(30, 40) == 0.75
        assert offset_degree(40, 40) == 1.0
        assert offset_degree(45, 40) == 1.125
        assert offset_degree(0, 40) == 0.0
        assert offset_degree(-20, 40) == -0.5

    def test_norm_must_be_positive(self):
        with pytest.raises(UsageError):
            offset_degree(10, 0)
        with pytest.raises(UsageError):
            offset_degree(10, -5)

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_linear_in_amount(self, amount, norm, k):
        left = offset_degree(k * amount, norm)
        right = k * offset_degree(amount, norm)
        assert left == pytest.approx(right, rel=1e-9, abs=1e-9)


NAN, INF = float("nan"), float("inf")
ONE_ELEMENT = LabeledSet(("x",), [Triplet(0.2, 0.3, 0.4)], FamilySpec(FamilyKind.NS))


class TestNonFiniteInputs:
    """NaN and infinities are rejected by name, not labeled, summed or divided."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: three_ways((NAN, 0.9), alpha=0.7, beta=0.3), "scores must be finite, got nan"),
            (lambda: three_ways((0.9,), alpha=INF, beta=0.3), "thresholds must be finite, got inf"),
            (lambda: n_ways((NAN, 0.6), (0.25, 0.5, 0.75), (1, 1, 2)), "scores must be finite, got nan"),
            (lambda: n_ways((0.6,), (0.25, 0.5, INF), (1, 1, 2)), "cut points must be finite, got inf"),
            (
                lambda: neutrosophify({"a": INF, "b": 1.0}, {"a": Verdict.ACCEPT, "b": Verdict.REJECT}),
                "size of 'a' must be finite, got inf",
            ),
            (lambda: neutrosophify({"a": NAN}, {"a": Verdict.ACCEPT}), "size of 'a' must be finite, got nan"),
            (lambda: offset_degree(INF, 40), "amount must be finite, got inf"),
            (lambda: offset_degree(1, INF), "norm must be finite, got inf"),
            (
                lambda: neutrosophify({"a": 1e308, "b": 1e308}, {"a": Verdict.ACCEPT, "b": Verdict.REJECT}),
                "total measure must be finite, got inf",
            ),
            (
                lambda: neutrosophify({"a": 1e308, "b": 1e308}, {"a": Verdict.ACCEPT, "b": Verdict.ACCEPT}),
                "total measure must be finite, got inf",
            ),
            (lambda: offset_degree(1.0, 1e-320), "degree of amount 1.0 against norm 1e-320 must be finite, got inf"),
            (lambda: offset_degree(1e308, 0.5), "degree of amount 1e+308 against norm 0.5 must be finite, got inf"),
        ],
        ids=["three-ways-score", "three-ways-threshold", "n-ways-score", "n-ways-cut", "size-inf", "size-nan",
             "offset-amount", "offset-norm", "total-overflows", "group-total-overflows", "degree-overflows-norm",
             "degree-overflows-amount"],
    )
    def test_rejected_by_name(self, call, message):
        with pytest.raises(UsageError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda: offset_degree(10**400, 3), "amount"),
            (lambda: offset_degree(3, 10**400), "norm"),
            (lambda: offset_degree(Fraction(10**400, 3), 3), "amount"),
            (lambda: neutrosophify({"a": 10**400}, {"a": Verdict.ACCEPT}), "size of 'a'"),
            (lambda: three_ways((0.9, -(10**400)), alpha=0.7, beta=0.3), "scores"),
            (lambda: n_ways((0.6,), (0.25, 0.5, 10**400), (1, 1, 2)), "cut points"),
            (lambda: validate_offset((10**400, 0, 0)), "components"),
        ],
        ids=["offset-amount", "offset-norm", "offset-fraction-amount", "size", "three-ways-score", "n-ways-cut",
             "validate-offset"],
    )
    def test_a_number_too_large_for_a_float_is_rejected_by_name(self, call, what):
        with pytest.raises(UsageError) as info:
            call()
        assert str(info.value) == f"{what} must be finite, got a number too large for a float"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: three_ways([0.5], "a", 0.1), "thresholds must be real numbers, got str"),
            (lambda: three_ways(["x"], 0.7, 0.1), "scores must be real numbers, got str"),
            (lambda: three_ways([0.5], None, 0.1), "thresholds must be real numbers, got NoneType"),
            (lambda: n_ways((0.6,), (0.25, "0.5", 0.75), (1, 1, 2)), "cut points must be real numbers, got str"),
            (lambda: validate_offset((None, 0, 0)), "components must be real numbers, got NoneType"),
            (lambda: validate_offset(("a", 0, 0)), "components must be real numbers, got str"),
            (lambda: OffsetBounds("a", 1), "bounds must be real numbers, got str"),
            (lambda: divergence_report(ONE_ELEMENT, ONE_ELEMENT, "x"), "tol must be a real number, got str"),
        ],
        ids=["three-ways-alpha", "three-ways-score", "three-ways-none-alpha", "n-ways-cut", "offset-none",
             "offset-str", "offset-bounds", "divergence-tol"],
    )
    def test_a_value_that_is_not_a_real_number_is_rejected_by_name(self, call, message):
        with pytest.raises(UsageError) as info:
            call()
        assert str(info.value) == message

    @pytest.mark.parametrize("arities", [(2.5, 1, 1), (True, 1, 2), ("a", "b", "c")])
    def test_n_ways_arities_are_integers(self, arities):
        with pytest.raises(UsageError) as info:
            n_ways((0.6,), (0.25, 0.5, 0.75), arities)
        assert str(info.value) == f"arities must be integers, got {arities}"

    def test_a_large_int_that_fits_a_float_is_accepted(self):
        assert offset_degree(10**300, 10**299) == 10.0


class TestMalformedInputs:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: PartitionN((), (0.5,), (0.5,)), "accept_levels needs at least one level"),
            (lambda: PartitionN((0.5,), (0.25,), (0.25,)), "an n-way partition needs at least four bands in total"),
            (lambda: neutrosophify({"a": "1"}, {"a": Verdict.ACCEPT}), "size of 'a' must be a real number"),
            (lambda: offset_degree("1", 40), "amount must be a real number, got '1'"),
            (lambda: validate_offset((0.5, 0.5)), "expected three components, got 2"),
        ],
        ids=["no-level", "three-bands", "size-not-real", "amount-not-real", "two-components"],
    )
    def test_rejected_with_a_message(self, call, message):
        with pytest.raises(UsageError) as info:
            call()
        assert str(info.value) == message


class TestValidateOffset:
    def test_overset(self):
        report = validate_offset((1.125, 0.0, 0.0), OffsetBounds(-1, 2))
        assert report.classification is OffsetClass.OVERSET
        assert report.within_bounds

    def test_underset(self):
        report = validate_offset((-0.5, 0.2, 0.3))
        assert report.classification is OffsetClass.UNDERSET
        assert not report.within_bounds  # default envelope is the unit interval

    def test_standard(self):
        report = validate_offset((0.3, 0.2, 0.5))
        assert report.classification is OffsetClass.STANDARD
        assert report.within_bounds

    def test_offset_both_sides(self):
        report = validate_offset((1.2, -0.1, 0.5), OffsetBounds(-1, 2))
        assert report.classification is OffsetClass.OFFSET

    def test_bounds_validated(self):
        with pytest.raises(UsageError):
            OffsetBounds(0.5, 2)
        with pytest.raises(UsageError):
            OffsetBounds(-1, 0.5)
