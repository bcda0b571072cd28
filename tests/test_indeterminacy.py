from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from neutroset.core import UndefinedOperationError, UsageError
from neutroset.indeterminacy import (
    AdjacencyKind,
    I,
    NeutroAdjacency,
    NeutroMatrix,
    NeutrosophicNumber,
    RefinedNeutrosophicNumber,
    adjacency_validate,
    emit_adjacency,
    nm_mul,
    nn_add,
    nn_mul,
    nn_pow,
    parse_adjacency,
    rnn_add,
    rnn_scale,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)
small_ints = st.integers(min_value=-9, max_value=9)
nn_rationals = st.builds(NeutrosophicNumber, rationals, rationals)
nn_ints = st.builds(NeutrosophicNumber, small_ints, small_ints)


def sympy_nn_product(x: NeutrosophicNumber, y: NeutrosophicNumber) -> NeutrosophicNumber:
    """Independent oracle: expand symbolically, then fold J**k down to J."""
    import sympy

    J = sympy.Symbol("J")
    expr = sympy.expand((x.a + x.b * J) * (y.a + y.b * J))
    poly = sympy.Poly(expr, J)
    coeffs = poly.all_coeffs()[::-1]  # ascending powers
    const = coeffs[0] if coeffs else 0
    j_coeff = sum(coeffs[1:])
    return NeutrosophicNumber(Fraction(str(const)), Fraction(str(j_coeff)))


class TestNumberArithmetic:
    def test_indeterminacy_is_idempotent(self):
        assert nn_mul(I, I) == I

    def test_product_law_worked_example(self):
        got = nn_mul(NeutrosophicNumber(2, 1), NeutrosophicNumber(3, 2))
        assert got == NeutrosophicNumber(6, 9)
        oracle = sympy_nn_product(
            NeutrosophicNumber(Fraction(2), Fraction(1)), NeutrosophicNumber(Fraction(3), Fraction(2))
        )
        assert got == oracle

    def test_real_embedding(self):
        got = nn_mul(NeutrosophicNumber(3, 0), NeutrosophicNumber(4, 0))
        assert got == NeutrosophicNumber(12, 0) and got.is_real

    def test_addition(self):
        assert nn_add(NeutrosophicNumber(1, 2), NeutrosophicNumber(2, -2)) == NeutrosophicNumber(3, 0)

    def test_operator_sugar(self):
        assert 2 + 3 * I == NeutrosophicNumber(2, 3)
        assert (2 + I) * (3 + 2 * I) == NeutrosophicNumber(6, 9)
        assert (2 + I) - (1 + I) == NeutrosophicNumber(1, 0)
        assert 1 - I == NeutrosophicNumber(1, -1)

    def test_only_real_numbers_coerce(self):
        with pytest.raises(UsageError, match="cannot treat str as a neutrosophic number"):
            I + "1"

    @pytest.mark.parametrize(
        "a, b, text",
        [
            (1, 2, "1+2I"),
            (1, -1, "1-I"),
            (0, -1, "-I"),
            (Fraction(1, 2), Fraction(-3, 2), "1/2-3/2I"),
            (0.5, -0.25, "0.5-0.25I"),
        ],
    )
    def test_str(self, a, b, text):
        assert str(NeutrosophicNumber(a, b)) == text

    @given(nn_rationals, nn_rationals)
    def test_product_matches_symbolic_oracle(self, x, y):
        assert nn_mul(x, y) == sympy_nn_product(x, y)

    @given(rationals)
    def test_scalar_absorption(self, c):
        got = nn_mul(NeutrosophicNumber(c, 0), I)
        assert got == NeutrosophicNumber(0, c)


class TestRingLaws:
    @given(nn_rationals, nn_rationals)
    def test_commutative(self, x, y):
        assert nn_add(x, y) == nn_add(y, x)
        assert nn_mul(x, y) == nn_mul(y, x)

    @given(nn_rationals, nn_rationals, nn_rationals)
    def test_associative(self, x, y, z):
        assert nn_add(nn_add(x, y), z) == nn_add(x, nn_add(y, z))
        assert nn_mul(nn_mul(x, y), z) == nn_mul(x, nn_mul(y, z))

    @given(nn_rationals, nn_rationals, nn_rationals)
    def test_distributive(self, x, y, z):
        assert nn_mul(x, nn_add(y, z)) == nn_add(nn_mul(x, y), nn_mul(x, z))

    @given(nn_rationals)
    def test_identities(self, x):
        assert nn_add(x, NeutrosophicNumber(0, 0)) == x
        assert nn_mul(x, NeutrosophicNumber(1, 0)) == x


class TestPowers:
    def test_pure_indeterminacy_powers(self):
        assert nn_pow(I, 5) == I
        assert nn_pow(I, 1) == I

    def test_real_cube(self):
        assert nn_pow(NeutrosophicNumber(2, 0), 3) == NeutrosophicNumber(8, 0)
        assert NeutrosophicNumber(2, 0) ** 3 == NeutrosophicNumber(8, 0)

    def test_zeroth_power_of_indeterminacy_undefined(self):
        with pytest.raises(UndefinedOperationError):
            nn_pow(I, 0)
        with pytest.raises(UndefinedOperationError):
            nn_pow(I, -2)

    def test_invertible_negative_powers(self):
        x = NeutrosophicNumber(Fraction(2), Fraction(1))
        inv = nn_pow(x, -1)
        assert nn_mul(x, inv) == NeutrosophicNumber(1, 0)
        assert nn_pow(x, 0) == NeutrosophicNumber(1, 0)

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(UsageError):
            nn_pow(I, 1.5)

    @given(nn_rationals, st.integers(min_value=1, max_value=6))
    def test_power_is_repeated_product(self, x, n):
        acc = x
        for _ in range(n - 1):
            acc = nn_mul(acc, x)
        assert nn_pow(x, n) == acc


class TestRefinedNumbers:
    def test_coefficient_wise_addition(self):
        got = rnn_add(
            RefinedNeutrosophicNumber(1, (2, 0)), RefinedNeutrosophicNumber(2, (1, 3))
        )
        assert got == RefinedNeutrosophicNumber(3, (3, 3))
        assert RefinedNeutrosophicNumber(1, (2, 0)) + RefinedNeutrosophicNumber(2, (1, 3)) == got

    def test_zero_padding(self):
        got = rnn_add(RefinedNeutrosophicNumber(0, (1,)), RefinedNeutrosophicNumber(0, (0, 2)))
        assert got == RefinedNeutrosophicNumber(0, (1, 2))

    def test_additive_inverse(self):
        got = rnn_add(RefinedNeutrosophicNumber(0, (1,)), RefinedNeutrosophicNumber(0, (-1,)))
        assert got == RefinedNeutrosophicNumber(0, (0,))

    def test_scaling(self):
        assert rnn_scale(RefinedNeutrosophicNumber(1, (2, 3)), 0) == RefinedNeutrosophicNumber(0, (0, 0))
        assert rnn_scale(RefinedNeutrosophicNumber(1, (2, 3)), 2) == RefinedNeutrosophicNumber(2, (4, 6))


class TestMatrices:
    # the published 3x3 showcase matrix, with exact rational entries
    SHOWCASE = NeutroMatrix(
        (
            (NeutrosophicNumber(1), NeutrosophicNumber(2, 1), NeutrosophicNumber(-5)),
            (NeutrosophicNumber(0), NeutrosophicNumber(Fraction(1, 3)), I),
            (NeutrosophicNumber(-1, 4), NeutrosophicNumber(6), NeutrosophicNumber(0, 5)),
        )
    )

    def test_identity_product(self):
        ident = NeutroMatrix(tuple(tuple(NeutrosophicNumber(int(r == c)) for c in range(3)) for r in range(3)))
        assert nm_mul(self.SHOWCASE, ident) == self.SHOWCASE
        assert nm_mul(ident, self.SHOWCASE) == self.SHOWCASE

    def test_pure_indeterminacy_square(self):
        m = NeutroMatrix(((I,),))
        assert nm_mul(m, m) == m

    def test_two_by_two_against_symbolic_oracle(self):
        one, zero = NeutrosophicNumber(1), NeutrosophicNumber(0)
        m = NeutroMatrix(((one, I), (zero, one)))
        n = NeutroMatrix(((one, zero), (I, one)))
        got = nm_mul(m, n)
        want = NeutroMatrix(((NeutrosophicNumber(1, 1), I), (I, one)))
        assert got == want
        for r in range(2):
            for c in range(2):
                acc = NeutrosophicNumber(Fraction(0), Fraction(0))
                for k in range(2):
                    acc = nn_add(acc, sympy_nn_product(m.rows[r][k], n.rows[k][c]))
                assert got.rows[r][c] == acc

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            nm_mul(NeutroMatrix(((I, I),)), NeutroMatrix(((I, I),)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(UsageError, match="at least one row and one column"):
            NeutroMatrix(())

    def test_ragged_rows_rejected(self):
        with pytest.raises(UsageError):
            NeutroMatrix(((NeutrosophicNumber(1),), (NeutrosophicNumber(1), I)))

    @given(
        st.lists(st.lists(nn_ints, min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(nn_ints, min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.lists(nn_ints, min_size=3, max_size=3), min_size=3, max_size=3),
    )
    def test_matrix_product_associative(self, a, b, c):
        ma, mb, mc = (NeutroMatrix(tuple(map(tuple, m))) for m in (a, b, c))
        assert nm_mul(nm_mul(ma, mb), mc) == nm_mul(ma, nm_mul(mb, mc))


GRAPH_TEXT = "0 1 I 0 I\n1 0 I 0 0\nI I 0 1 1\n0 0 1 0 1\nI 0 1 1 0\n"

NCM_TEXT = (
    "0 I -1 1 1 0 0\n"
    "I 0 I 0 0 0 0\n"
    "-1 I 0 0 I 0 0\n"
    "1 0 0 0 0 0 0\n"
    "1 0 0 0 0 0 0\n"
    "0 0 0 0 I 0 -1\n"
    "-1 0 0 0 0 0 0\n"
)


class TestAdjacency:
    def test_graph_matrix_valid_with_six_indeterminate_entries(self):
        report = adjacency_validate(parse_adjacency(GRAPH_TEXT), AdjacencyKind.GRAPH)
        assert report.valid
        assert report.indeterminate_entries == 6
        assert report.symmetric

    def test_cognitive_map_matrix_valid(self):
        report = adjacency_validate(parse_adjacency(NCM_TEXT), AdjacencyKind.COGNITIVE_MAP)
        assert report.valid
        assert report.order == 7
        assert not report.symmetric

    def test_negative_edges_invalid_for_plain_graph(self):
        report = adjacency_validate(parse_adjacency(NCM_TEXT), AdjacencyKind.GRAPH)
        assert not report.valid
        assert any("(0, 2)" in v for v in report.violations)

    def test_nonzero_diagonal_invalid_for_cognitive_map(self):
        report = adjacency_validate(
            parse_adjacency("1 0\n0 0\n"), AdjacencyKind.COGNITIVE_MAP
        )
        assert not report.valid
        assert any("diagonal" in v for v in report.violations)

    def test_alphabet_enforced_at_parse(self):
        with pytest.raises(UsageError, match="0.5"):
            parse_adjacency("0 0.5\n1 0\n")

    def test_alphabet_enforced_at_construction(self):
        with pytest.raises(UsageError):
            NeutroAdjacency(NeutroMatrix(((NeutrosophicNumber(0.5), I), (I, I))))
        with pytest.raises(UsageError) as info:
            NeutroAdjacency(NeutroMatrix(((NeutrosophicNumber(1, 2),),)))
        assert str(info.value) == "entry (0, 0) = 1+2I is outside the alphabet {0, 1, -1, I}"

    def test_round_trip_is_bit_exact(self):
        for text in (GRAPH_TEXT, NCM_TEXT):
            assert emit_adjacency(parse_adjacency(text)) == text

    def test_parse_tolerates_loose_whitespace(self):
        loose = "0   1 \nI  0\n"
        assert emit_adjacency(parse_adjacency(loose)) == "0 1\nI 0\n"
        assert emit_adjacency(parse_adjacency("\n0 1\n \nI 0\n\n")) == "0 1\nI 0\n"

    def test_text_without_rows_rejected(self):
        with pytest.raises(UsageError, match="adjacency text contains no rows"):
            parse_adjacency(" \n\n")

    def test_non_square_rejected(self):
        with pytest.raises(UsageError):
            parse_adjacency("0 1 0\n1 0 1\n")

