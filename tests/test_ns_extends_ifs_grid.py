"""The paper's claim (a) on an exact grid: NS extends IFS whether the components sum to < 1, = 1 or > 1.

Every triplet whose components are multiples of 1/8 (729 points), as
Fractions. Each IFS pair (t, f), t + f <= 1, extends to (t, i, f) in NS for
every grid i, and ``embed_into_ns`` gives the member that sums to 1. On the
grid the chain IFS < IIFS < NS holds, strictly at each step. Every
membership is read through the package and compared with the sum rule
written here, not read from ``families``.
"""

from fractions import Fraction
from itertools import product

from neutroset.core import Pair, Triplet, UsageError
from neutroset.families import FamilyKind, FamilySpec, InclusionClaim, embed_into_ns, find_counterexample, validate
from neutroset.transforms import LabeledSet

Q = 8
EIGHTHS = [Fraction(k, Q) for k in range(Q + 1)]
#: Every grid triplet, in lexicographic order.
CUBE = [Triplet(t, i, f) for t, i, f in product(EIGHTHS, repeat=3)]
#: Every IFS pair on the grid.
IFS_PAIRS = [(t, f) for t, f in product(EIGHTHS, repeat=2) if t + f <= 1]

NS, IIFS, IFS = FamilySpec(FamilyKind.NS), FamilySpec(FamilyKind.IIFS), FamilySpec(FamilyKind.IFS)


# The sum rules. NS components are independent: each lies in [0, 1], and the three may sum to 3.
# IIFS components are fully dependent: they sum to at most 1. A triplet stands in for an IFS pair
# when its components sum to exactly 1, the middle one being what T and F leave.
def in_ns(x: Triplet) -> bool:
    return all(0 <= c <= 1 for c in x.components()) and x.t + x.i + x.f <= 3


def in_iifs(x: Triplet) -> bool:
    return in_ns(x) and x.t + x.i + x.f <= 1


def stands_in_for_ifs(x: Triplet) -> bool:
    return in_ns(x) and x.t + x.i + x.f == 1


def ifs_set_takes(x: Triplet) -> bool:
    """Whether the package takes ``x`` as an IFS member: the one element of an IFS set."""
    try:
        LabeledSet(("x",), (x,), IFS)
    except UsageError:
        return False
    return True


def test_every_ifs_pair_lies_in_ns_with_any_indeterminacy():
    signs = set()
    for (t, f), i in product(IFS_PAIRS, EIGHTHS):
        x = Triplet(t, i, f)
        assert validate(x, NS).valid and in_ns(x), x
        total = t + i + f
        signs.add((total > 1) - (total < 1))
    assert len(IFS_PAIRS) == 45
    assert signs == {-1, 0, 1}  # members that sum to less than 1, to 1, and to more


def test_the_embedding_is_the_member_that_sums_to_one():
    for t, f in IFS_PAIRS:
        got = embed_into_ns(Pair(t, f), IFS)
        assert got == Triplet(t, 1 - t - f, f), (t, f)
        assert all(type(c) is Fraction for c in got.components()), got


def test_the_chain_ifs_iifs_ns_holds_on_the_grid():
    ns = [x for x in CUBE if validate(x, NS).valid]
    iifs = [x for x in CUBE if validate(x, IIFS).valid]
    ifs = [x for x in CUBE if ifs_set_takes(x)]
    assert ns == [x for x in CUBE if in_ns(x)]
    assert iifs == [x for x in CUBE if in_iifs(x)]
    assert ifs == [x for x in CUBE if stands_in_for_ifs(x)]
    assert (len(ifs), len(iifs), len(ns)) == (45, 165, 729)
    assert LabeledSet([f"x{k}" for k in range(len(ifs))], ifs, IFS).rows == tuple(x.components() for x in ifs)
    assert set(ifs) <= set(iifs) <= set(ns)


def test_each_strict_inclusion_has_a_witness_in_the_outer_family_only():
    zero = Triplet(Fraction(0), Fraction(0), Fraction(0))
    assert validate(zero, IIFS).valid and in_iifs(zero)
    assert not ifs_set_takes(zero) and not stands_in_for_ifs(zero)
    witness = find_counterexample(InclusionClaim.NS_NOT_IIFS)
    assert validate(witness, NS).valid and in_ns(witness)
    assert not validate(witness, IIFS).valid and not in_iifs(witness)
