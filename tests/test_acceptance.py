"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS lines). Each criterion owns one test or, for the
randomized property suites, one test per property at 1000 cases each.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from neutroset import cli, demos
from neutroset.core import Pair, Triplet
from neutroset.decision import OffsetClass, offset_degree, validate_offset
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    embed_into_ns,
    estimate_family_volume,
    hesitancy,
    validate,
)
from neutroset.indeterminacy import (
    NeutroMatrix,
    NeutrosophicNumber,
    nm_mul,
    nn_add,
    nn_mul,
)
from neutroset.operators import OperatorSystem, SystemKind, conjunct, disjunct, negate
from neutroset.refined import coarsen, refine
from neutroset.transforms import LabeledSet, normalize_elementwise

NS_SYS = OperatorSystem(SystemKind.NS)
IFS_SYS = OperatorSystem(SystemKind.IFS)

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# p/q with 1 <= q <= 64 and 0 <= p <= q: the values st.fractions(0, 1, max_denominator=64) draws,
# drawn as two integers, in about a third of the time st.fractions takes
unit_fractions = st.integers(1, 64).flatmap(lambda q: st.integers(0, q).map(lambda p: Fraction(p, q)))
small_ints = st.integers(min_value=-9, max_value=9)
# p/q with any integer p and 1 <= q <= 50: the values st.fractions(max_denominator=50) draws, as two integers
rationals = st.builds(Fraction, st.integers(), st.integers(min_value=1, max_value=50))

PROPERTY_CASES = settings(max_examples=1000)


def _assert_exhibit_green(name: str) -> int:
    checks = demos.run_exhibit(name)
    for check in checks:
        assert check.passed, f"{name}::{check.name}: got {check.got}, want {check.want}"
    return len(checks)


def test_criterion_1_operator_goldens_sum1():
    """Criterion 1: the eight-operator comparison on sum-1 operands, exact decimals."""
    t0 = time.perf_counter()
    n = _assert_exhibit_green("section21")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1: PASS  (operator goldens, {n} checks, {elapsed * 1e3:.0f} ms)")


def test_criterion_2_transform_and_operator_divergence():
    """Criterion 2: sup-rescaled sets, both aggregation orders, divergence verdicts."""
    t0 = time.perf_counter()
    n = _assert_exhibit_green("counterexample1")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.3f}s"
    print(f"ACCEPTANCE 2: PASS  (transform/operator divergence, {n} checks, {elapsed * 1e3:.0f} ms)")


def test_criterion_3_normalization_divergence():
    """Criterion 3: elementwise normalization plus the x1-level divergences."""
    n = _assert_exhibit_green("counterexample2")
    print(f"ACCEPTANCE 3: PASS  (normalization goldens, {n} checks)")


def test_criterion_4_squared_and_qrung_counterexamples():
    """Criterion 4: squared-pair bounds, the 1.22 witness, q-rung rejections."""
    bound_f = math.sqrt(1 - 0.9 * 0.9)
    assert bound_f == pytest.approx(0.44, abs=0.01)
    hes = hesitancy(Pair(0.9, 0.2), FamilySpec(FamilyKind.PYFS))
    assert float(hes.v) == pytest.approx(0.39, abs=0.01)

    witness = Triplet(0.9, 0.4, 0.5)
    assert validate(witness, FamilySpec(FamilyKind.NS)).valid
    sfs = validate(witness, FamilySpec(FamilyKind.SFS))
    assert not sfs.valid
    assert float(sfs.constraint_value) == pytest.approx(1.22, abs=1e-9)

    for q in (1, 2, 5):
        assert not validate(Pair(1.0, 0.5), FamilySpec(FamilyKind.QROFS, q)).valid
    print("ACCEPTANCE 4: PASS  (counterexamples 3-6 core values)")


def test_criterion_5_paradox():
    """Criterion 5: the all-ones triplet and its exact normalized image."""
    trip = Triplet(1.0, 1.0, 1.0)
    assert validate(trip, FamilySpec(FamilyKind.NS)).valid
    assert not validate(trip, FamilySpec(FamilyKind.IIFS)).valid
    one = LabeledSet(("p",), (trip,), FamilySpec(FamilyKind.NS))
    normalized = normalize_elementwise(one).triplets[0]
    third = 1.0 / 3.0
    assert normalized.scalars() == (third, third, third)  # exact
    print("ACCEPTANCE 5: PASS  (paradox triplet)")


class TestCriterion6Properties:
    """Criterion 6: randomized property suites, 1000 cases each.

    Exact identities are exercised over exact rationals, where the algebra
    holds bitwise; float tolerances appear only where a property is stated
    with one.
    """

    @PROPERTY_CASES
    @given(st.builds(Triplet, unit_fractions, unit_fractions, unit_fractions))
    def test_negation_involutions(self, x):
        assert negate(negate(x, NS_SYS), NS_SYS) == x
        total = x.component_sum()
        if total <= 1:
            maxi = OperatorSystem(SystemKind.IIFS_MAX_I)
            assert negate(negate(x, maxi), maxi) == x

    @PROPERTY_CASES
    @given(
        st.builds(Triplet, unit_fractions, unit_fractions, unit_fractions),
        st.builds(Triplet, unit_fractions, unit_fractions, unit_fractions),
    )
    def test_de_morgan_ns_minmax(self, a, b):
        assert negate(conjunct(a, b, NS_SYS), NS_SYS) == disjunct(
            negate(a, NS_SYS), negate(b, NS_SYS), NS_SYS
        )
        assert negate(disjunct(a, b, NS_SYS), NS_SYS) == conjunct(
            negate(a, NS_SYS), negate(b, NS_SYS), NS_SYS
        )

    @PROPERTY_CASES
    @given(
        st.tuples(unit_fractions, unit_fractions, unit_fractions),
        st.tuples(unit_fractions, unit_fractions, unit_fractions),
    )
    def test_ifs_closure(self, raw_a, raw_b):
        assume(sum(raw_a) > 0 and sum(raw_b) > 0)
        a = Triplet(*(v / sum(raw_a) for v in raw_a))
        b = Triplet(*(v / sum(raw_b) for v in raw_b))
        for op in (conjunct, disjunct):
            out = op(a, b, IFS_SYS)
            assert abs(float(out.component_sum()) - 1.0) <= 1e-9

    @PROPERTY_CASES
    @given(unit_floats, unit_floats, unit_floats, st.floats(min_value=1.0, max_value=8.0))
    def test_embedding_soundness(self, t, i, f, q):
        ns = FamilySpec(FamilyKind.NS)
        if t * t + f * f <= 1.0:
            out = embed_into_ns(Pair(t, f), FamilySpec(FamilyKind.PYFS))
            assert validate(out, ns).valid
            assert abs(float(out.component_sum()) - 1.0) <= 1e-9
        if t * t + i * i + f * f <= 1.0:
            out = embed_into_ns(Triplet(t, i, f), FamilySpec(FamilyKind.SFS))
            assert validate(out, ns).valid
        qrofs = FamilySpec(FamilyKind.QROFS, q)
        if validate(Pair(t, f), qrofs).valid:
            assert validate(embed_into_ns(Pair(t, f), qrofs), ns).valid

    @PROPERTY_CASES
    @given(
        unit_floats,
        unit_floats,
        unit_floats,
        st.floats(min_value=1.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_nhsfs_exponent_monotonicity(self, t, i, f, n, delta):
        trip = Triplet(t, i, f)
        assume(validate(trip, FamilySpec(FamilyKind.NHSFS, n)).valid)
        assert validate(trip, FamilySpec(FamilyKind.NHSFS, n + delta)).valid

    @PROPERTY_CASES
    @given(
        st.builds(Triplet, unit_floats, unit_floats, unit_floats),
        st.tuples(
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
            st.integers(min_value=1, max_value=4),
        ),
    )
    def test_refine_coarsen_identity(self, trip, arities):
        assert coarsen(refine(trip, arities)) == trip

    @PROPERTY_CASES
    @given(
        st.builds(NeutrosophicNumber, rationals, rationals),
        st.builds(NeutrosophicNumber, rationals, rationals),
        st.builds(NeutrosophicNumber, rationals, rationals),
    )
    def test_ring_laws_exact_over_rationals(self, x, y, z):
        assert nn_add(x, y) == nn_add(y, x)
        assert nn_mul(x, y) == nn_mul(y, x)
        assert nn_add(nn_add(x, y), z) == nn_add(x, nn_add(y, z))
        assert nn_mul(nn_mul(x, y), z) == nn_mul(x, nn_mul(y, z))
        assert nn_mul(x, nn_add(y, z)) == nn_add(nn_mul(x, y), nn_mul(x, z))

    @PROPERTY_CASES
    @given(
        st.lists(st.lists(st.builds(NeutrosophicNumber, small_ints, small_ints), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(st.builds(NeutrosophicNumber, small_ints, small_ints), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(st.builds(NeutrosophicNumber, small_ints, small_ints), min_size=3, max_size=3), min_size=3, max_size=3),
    )
    def test_matrix_product_associativity(self, a, b, c):
        ma, mb, mc = (NeutroMatrix(tuple(map(tuple, m))) for m in (a, b, c))
        assert nm_mul(nm_mul(ma, mb), mc) == nm_mul(ma, nm_mul(mb, mc))

    def test_summary(self):
        print("ACCEPTANCE 6: PASS  (8 property suites, 1000 cases each)")


def test_criterion_7_monte_carlo_geometry():
    """Criterion 7: estimates within 3 sigma of closed forms, deterministic, < 5 s."""
    t0 = time.perf_counter()
    sfs = estimate_family_volume(FamilySpec(FamilyKind.SFS), 100_000, seed=42)
    assert abs(sfs.estimate - math.pi / 6) <= 3 * sfs.std_error
    simplex = estimate_family_volume(FamilySpec(FamilyKind.NHSFS, 1.0), 100_000, seed=42)
    assert abs(simplex.estimate - 1 / 6) <= 3 * simplex.std_error
    again = estimate_family_volume(FamilySpec(FamilyKind.SFS), 100_000, seed=42)
    assert again.estimate == sfs.estimate
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 7 took {elapsed:.3f}s"
    print(
        f"ACCEPTANCE 7: PASS  (volumes {sfs.estimate:.4f}/{simplex.estimate:.4f} vs "
        f"{math.pi / 6:.4f}/{1 / 6:.4f}, {elapsed:.2f} s)"
    )


def test_criterion_8_offset_degrees():
    """Criterion 8: worked-hours degrees, exact, plus the printed classifications."""
    assert offset_degree(30, 40) == 0.75
    assert offset_degree(40, 40) == 1.0
    assert offset_degree(45, 40) == 1.125
    assert offset_degree(0, 40) == 0.0
    assert offset_degree(-20, 40) == -0.5
    assert validate_offset((1.125, 0.0, 0.0)).classification is OffsetClass.OVERSET
    assert validate_offset((-0.5, 0.2, 0.3)).classification is OffsetClass.UNDERSET
    print("ACCEPTANCE 8: PASS  (offset degrees exact)")


def test_criterion_9_demo_all(capsys):
    """Criterion 9: the whole reproduction suite through the CLI, exit 0, < 10 s."""
    t0 = time.perf_counter()
    code = cli.main(["demo", "--all"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 failures" in out
    for name in demos.EXHIBITS:
        assert f"{name}::" in out, f"exhibit {name} missing from the run"
    assert elapsed < 10.0, f"criterion 9 took {elapsed:.3f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 9: PASS  (demo --all, exit 0, {elapsed * 1e3:.0f} ms)")


def test_demo_json_is_pinned_byte_for_byte(capsys):
    """Every recomputed figure of ``--format json demo --all``, to the last digit, is the checked-in one."""
    assert cli.main(["--format", "json", "demo", "--all"]) == 0
    assert capsys.readouterr().out.encode() == (Path(__file__).parent / "data" / "demo_all.json").read_bytes()
