"""The paper's claim (b) on an exact grid: on sum-1 components NS and IFS agree on T and F, and only I moves.

Every sum-1 triplet whose components are multiples of 1/8 (45 points), as
Fractions, meets every one in ordered pairs (2,025) under ``conjunct``,
``disjunct`` and ``implicate``, under NS and under IFS, for three norm
pairs. The IFS operators ignore the operands' indeterminacy: their I is
what T and F leave of 1. The NS operators aggregate I as they do T and F.
The rules for I are written out here, not read from ``operators``.
"""

from fractions import Fraction
from itertools import product

import pytest

from neutroset.core import Triplet
from neutroset.operators import NormPair, OperatorSystem, SystemKind, TConorm, TNorm, conjunct, disjunct, implicate

Q = 8
GRID = [Triplet(Fraction(t, Q), Fraction(Q - t - f, Q), Fraction(f, Q)) for t in range(Q + 1) for f in range(Q + 1 - t)]

#: Norm pairs: the pair, its t-norm (meet) and its t-conorm (join), each written out.
NORMS = {
    "min/max": (NormPair(TNorm.MIN, TConorm.MAX), min, max),
    "product/probsum": (NormPair(TNorm.PRODUCT, TConorm.PROB_SUM), lambda a, b: a * b, lambda a, b: a + b - a * b),
    "product/max": (NormPair(TNorm.PRODUCT, TConorm.MAX), lambda a, b: a * b, max),
}

#: The NS middle slot of each op: AND joins the operands' I, OR meets it, and IMPLIES is (not a) or b,
#: where NS negation reflects I to 1 - I.
OPS = {
    "and": (conjunct, lambda meet, join, a, b: join(a.i, b.i)),
    "or": (disjunct, lambda meet, join, a, b: meet(a.i, b.i)),
    "implies": (implicate, lambda meet, join, a, b: meet(1 - a.i, b.i)),
}

#: Ordered pairs whose I differs between NS and IFS, per norm pair, for and / or / implies.
DIFFERING = {
    "min/max": (1080, 1080, 1180),
    "product/probsum": (1808, 1808, 1817),
    "product/max": (1603, 1906, 1875),
}


def test_the_grid_is_every_sum_one_point_in_eighths():
    assert len(GRID) == 45 and len(set(GRID)) == 45
    assert all(x.t + x.i + x.f == 1 and min(x.scalars()) >= 0 for x in GRID)


@pytest.mark.parametrize("norms", sorted(NORMS))
def test_ns_and_ifs_differ_only_in_indeterminacy(norms):
    pair, meet, join = NORMS[norms]
    ns, ifs = OperatorSystem(SystemKind.NS, pair), OperatorSystem(SystemKind.IFS, pair)
    differing = []
    for name, (op, ns_middle) in OPS.items():
        count = 0
        for a, b in product(GRID, repeat=2):
            by_ns, by_ifs = op(a, b, ns), op(a, b, ifs)
            assert all(type(x) is Fraction for x in (*by_ns.scalars(), *by_ifs.scalars())), (name, a, b)
            assert (by_ns.t, by_ns.f) == (by_ifs.t, by_ifs.f), (name, a, b)
            assert by_ifs.i == max(1 - by_ifs.t - by_ifs.f, 0), (name, a, b)
            assert by_ns.i == ns_middle(meet, join, a, b), (name, a, b)
            count += by_ns.i != by_ifs.i
        differing.append(count)
    assert tuple(differing) == DIFFERING[norms]
