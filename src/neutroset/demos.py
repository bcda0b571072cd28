"""Executable worked exhibits with embedded golden values.

Each exhibit recomputes a published worked example through the library and
diffs the results against the printed figures at the two-decimal tolerance
(exact decimals are checked tighter). The whole registry is a single
reproduction suite runnable via ``neutroset demo --all``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from neutroset.core import PRINTED_TOL, Pair, Triplet, UsageError, leftover
from neutroset.decision import (
    OffsetClass,
    Verdict,
    neutrosophify,
    offset_degree,
    validate_offset,
)
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    InclusionClaim,
    find_counterexample,
    hesitancy,
    embed_into_ns,
    validate,
)
from neutroset.operators import (
    Op,
    OperatorSystem,
    OverflowRule,
    SystemKind,
    conjunct,
    disjunct,
    implicate,
    negate,
    setwise,
)
from neutroset.transforms import (
    LabeledSet,
    divergence_report,
    normalize_elementwise,
    paradox_check,
    sup_transform,
)


@dataclass(frozen=True)
class Check:
    """One recomputed value against its golden counterpart."""

    name: str
    got: tuple | float | bool | str
    want: tuple | float | bool | str
    tolerance: float
    passed: bool


def _compare(name: str, got, want, tol: float) -> Check:
    if isinstance(want, bool) or isinstance(want, str):
        ok = got == want
    elif isinstance(want, (tuple, list)):
        gv = tuple(float(x) for x in got)
        ok = len(gv) == len(want) and all(abs(g - w) <= tol for g, w in zip(gv, want))
        got = gv
    else:
        ok = abs(float(got) - float(want)) <= tol
        got = float(got)
    return Check(name=name, got=got, want=want, tolerance=tol, passed=bool(ok))


def _trip(t: Triplet) -> tuple:
    return tuple(float(v) for v in t.scalars())


# --- shared fixtures --------------------------------------------------------

NS_SYS = OperatorSystem(SystemKind.NS)
IFS_SYS = OperatorSystem(SystemKind.IFS)
MAXI_PRINTED = OperatorSystem(SystemKind.IIFS_MAX_I, overflow=OverflowRule.PRINTED)
MINI_SYS = OperatorSystem(SystemKind.IIFS_MIN_I)

NS_TAG = FamilySpec(FamilyKind.NS)

#: The two paraconsistent/incomplete worked sets used across several exhibits.
SET_A = LabeledSet.from_mapping({"x1": (0.8, 0.3, 0.5), "x2": (0.9, 0.2, 0.6)}, NS_TAG)
SET_B = LabeledSet.from_mapping({"x1": (0.2, 0.1, 0.3), "x2": (0.6, 0.2, 0.1)}, NS_TAG)


def exhibit_section21() -> list[Check]:
    """Operator suites on two sum-1 triplets: every printed result, both systems."""
    a1 = Triplet(0.3, 0.6, 0.1)
    a2 = Triplet(0.4, 0.1, 0.5)
    tol = 1e-9  # printed values are exact decimals here
    return [
        _compare("negate_ifs_a1", _trip(negate(a1, IFS_SYS)), (0.1, 0.6, 0.3), tol),
        _compare("negate_ifs_a2", _trip(negate(a2, IFS_SYS)), (0.5, 0.1, 0.4), tol),
        _compare("negate_ns_a1", _trip(negate(a1, NS_SYS)), (0.1, 0.4, 0.3), tol),
        _compare("negate_ns_a2", _trip(negate(a2, NS_SYS)), (0.5, 0.9, 0.4), tol),
        _compare("conjunct_ifs", _trip(conjunct(a1, a2, IFS_SYS)), (0.3, 0.2, 0.5), tol),
        _compare("conjunct_ns", _trip(conjunct(a1, a2, NS_SYS)), (0.3, 0.6, 0.5), tol),
        _compare("disjunct_ifs", _trip(disjunct(a1, a2, IFS_SYS)), (0.4, 0.5, 0.1), tol),
        _compare("disjunct_ns", _trip(disjunct(a1, a2, NS_SYS)), (0.4, 0.1, 0.1), tol),
        _compare("implicate_ifs", _trip(implicate(a1, a2, IFS_SYS)), (0.4, 0.3, 0.3), tol),
        _compare("implicate_ns", _trip(implicate(a1, a2, NS_SYS)), (0.4, 0.1, 0.3), tol),
    ]


def exhibit_counterexample1() -> list[Check]:
    """Sup-rescaling the two sets, aggregating in both environments, and diffing the orders."""
    checks: list[Check] = []
    tol = PRINTED_TOL

    a_res = sup_transform(SET_A)
    b_res = sup_transform(SET_B)
    a_t, b_t = a_res.labeled, b_res.labeled
    checks.append(_compare("A_sup_x1", _trip(a_t.element("x1")), (0.44, 0.17, 0.28), tol))
    checks.append(_compare("A_sup_x2", _trip(a_t.element("x2")), (0.50, 0.11, 0.33), tol))
    checks.append(_compare("A_refusal_x1", float(a_res.refusals[0].v), 0.11, tol))
    checks.append(_compare("A_refusal_x2", float(a_res.refusals[1].v), 0.06, tol))
    checks.append(_compare("B_sup_x1", _trip(b_t.element("x1")), (0.18, 0.09, 0.27), tol))
    checks.append(_compare("B_sup_x2", _trip(b_t.element("x2")), (0.55, 0.18, 0.09), tol))
    checks.append(_compare("B_refusal_x1", float(b_res.refusals[0].v), 0.46, tol))
    checks.append(_compare("B_refusal_x2", float(b_res.refusals[1].v), 0.18, tol))

    c_n = setwise(SET_A, SET_B, Op.AND, NS_SYS)
    d_n = setwise(SET_A, SET_B, Op.OR, NS_SYS)
    checks.append(_compare("C_N_x1", _trip(c_n.element("x1")), (0.2, 0.3, 0.5), tol))
    checks.append(_compare("C_N_x2", _trip(c_n.element("x2")), (0.6, 0.2, 0.6), tol))
    checks.append(_compare("D_N_x1", _trip(d_n.element("x1")), (0.8, 0.1, 0.3), tol))
    checks.append(_compare("D_N_x2", _trip(d_n.element("x2")), (0.9, 0.2, 0.1), tol))

    c_iifs = setwise(a_t, b_t, Op.AND, MAXI_PRINTED)
    checks.append(_compare("C_IIFS_x1", _trip(c_iifs.element("x1")), (0.18, 0.17, 0.28), tol))
    checks.append(_compare("C_IIFS_x2", _trip(c_iifs.element("x2")), (0.495, 0.109, 0.326), tol))

    c_iifs2 = setwise(a_t, b_t, Op.AND, MINI_SYS)
    checks.append(_compare("C_IIFS2_x1", _trip(c_iifs2.element("x1")), (0.18, 0.09, 0.28), tol))
    checks.append(_compare("C_IIFS2_x2", _trip(c_iifs2.element("x2")), (0.50, 0.11, 0.33), tol))

    d_iifs = setwise(a_t, b_t, Op.OR, MAXI_PRINTED)
    checks.append(_compare("D_IIFS_x1", _trip(d_iifs.element("x1")), (0.44, 0.09, 0.27), tol))
    checks.append(_compare("D_IIFS_x2", _trip(d_iifs.element("x2")), (0.55, 0.11, 0.09), tol))

    c_t = sup_transform(c_n).labeled
    d_t = sup_transform(d_n).labeled
    checks.append(_compare("C_sup_x1", _trip(c_t.element("x1")), (0.13, 0.20, 0.33), tol))
    checks.append(_compare("C_sup_x2", _trip(c_t.element("x2")), (0.40, 0.13, 0.40), tol))
    checks.append(_compare("D_sup_x1", _trip(d_t.element("x1")), (0.57, 0.07, 0.21), tol))
    checks.append(_compare("D_sup_x2", _trip(d_t.element("x2")), (0.64, 0.14, 0.07), tol))

    checks.append(
        _compare("C_N_differs_from_C_IIFS", divergence_report(c_n, c_iifs, tol).verdict, True, tol)
    )
    checks.append(
        _compare("D_N_differs_from_D_IIFS", divergence_report(d_n, d_iifs, tol).verdict, True, tol)
    )
    checks.append(
        _compare(
            "transform_then_operate_differs",
            divergence_report(c_t, c_iifs, tol).verdict,
            True,
            tol,
        )
    )
    checks.append(
        _compare(
            "transform_then_operate_differs_union",
            divergence_report(d_t, d_iifs, tol).verdict,
            True,
            tol,
        )
    )
    return checks


def exhibit_counterexample2() -> list[Check]:
    """Elementwise normalization to sum-1 components, then the diverging aggregations."""
    checks: list[Check] = []
    tol = PRINTED_TOL
    a_ifs = normalize_elementwise(SET_A)
    b_ifs = normalize_elementwise(SET_B)
    checks.append(_compare("A_norm_x1", _trip(a_ifs.element("x1")), (0.50, 0.19, 0.31), tol))
    checks.append(_compare("A_norm_x2", _trip(a_ifs.element("x2")), (0.53, 0.12, 0.35), tol))
    checks.append(_compare("B_norm_x1", _trip(b_ifs.element("x1")), (0.33, 0.17, 0.50), tol))
    checks.append(_compare("B_norm_x2", _trip(b_ifs.element("x2")), (0.67, 0.22, 0.11), tol))

    meet = setwise(a_ifs, b_ifs, Op.AND, IFS_SYS)
    join = setwise(a_ifs, b_ifs, Op.OR, IFS_SYS)
    checks.append(_compare("IFS_and_x1", _trip(meet.element("x1")), (0.33, 0.17, 0.50), tol))
    checks.append(_compare("IFS_and_x2", _trip(meet.element("x2")), (0.53, 0.12, 0.35), tol))
    checks.append(_compare("IFS_or_x1", _trip(join.element("x1")), (0.50, 0.19, 0.31), tol))
    checks.append(_compare("IFS_or_x2", _trip(join.element("x2")), (0.67, 0.22, 0.11), tol))

    x1a, x1b = a_ifs.element("x1"), b_ifs.element("x1")
    checks.append(_compare("x1_ns_and", _trip(conjunct(x1a, x1b, NS_SYS)), (0.33, 0.19, 0.50), tol))
    checks.append(_compare("x1_ifs_and", _trip(conjunct(x1a, x1b, IFS_SYS)), (0.33, 0.17, 0.50), tol))
    checks.append(_compare("x1_ns_or", _trip(disjunct(x1a, x1b, NS_SYS)), (0.50, 0.17, 0.31), tol))
    checks.append(_compare("x1_ifs_or", _trip(disjunct(x1a, x1b, IFS_SYS)), (0.50, 0.19, 0.31), tol))
    return checks


def exhibit_paradox() -> list[Check]:
    """The all-ones triplet: representable with independent components, lost after normalization."""
    report = paradox_check(Triplet(1.0, 1.0, 1.0))
    third = 1.0 / 3.0
    return [
        _compare("is_paradox", report.is_paradox, True, 0),
        _compare("ns_valid", report.ns_valid, True, 0),
        _compare("iifs_valid", report.iifs_valid, False, 0),
        _compare("normalized", _trip(report.normalized), (third, third, third), 1e-15),
        _compare("normalized_is_paradox", report.normalized_is_paradox, False, 0),
    ]


def exhibit_counterexample3() -> list[Check]:
    """Squared-pair dependence: full membership caps falsehood, hesitancy is forced."""
    tol = PRINTED_TOL
    bound_f = math.sqrt(leftover(0.9 * 0.9))
    hes = hesitancy(Pair(0.9, 0.2), FamilySpec(FamilyKind.PYFS))
    embedded = embed_into_ns(Pair(0.9, 0.2), FamilySpec(FamilyKind.PYFS))
    return [
        _compare("max_falsehood_at_t09", bound_f, 0.44, tol),
        _compare("hesitancy_t09_f02", float(hes.v), 0.39, tol),
        _compare("embedding", _trip(embedded), (0.81, 0.15, 0.04), tol),
        _compare("embedding_sums_to_1", float(embedded.component_sum()), 1.0, 1e-9),
    ]


def exhibit_counterexample4() -> list[Check]:
    """Squared-triplet dependence: membership 0.9 and falsehood 0.8 cannot coexist."""
    report = validate((0.9, 0.0, 0.8), FamilySpec(FamilyKind.SFS))
    return [
        _compare("constraint_value", float(report.constraint_value), 1.45, 1e-9),
        _compare("valid", report.valid, False, 0),
    ]


def exhibit_counterexample5() -> list[Check]:
    """A triplet inside the component cube but outside the squared-sum octant."""
    witness = find_counterexample(InclusionClaim.NS_NOT_SFS)
    ns = validate(witness, FamilySpec(FamilyKind.NS))
    sfs = validate(witness, FamilySpec(FamilyKind.SFS))
    return [
        _compare("witness", _trip(witness), (0.9, 0.4, 0.5), 1e-15),
        _compare("ns_valid", ns.valid, True, 0),
        _compare("sfs_valid", sfs.valid, False, 0),
        _compare("sfs_constraint", float(sfs.constraint_value), 1.22, 1e-9),
    ]


def exhibit_counterexample6() -> list[Check]:
    """Full membership plus a falsehood of 0.5 overflows the q-rung bound by 0.5**q, here at q = 1, 2 and 5."""
    checks = []
    for q in (1, 2, 5):
        report = validate(Pair(1.0, 0.5), FamilySpec(FamilyKind.QROFS, q))
        checks.append(_compare(f"qrofs_q{q}_valid", report.valid, False, 0))
        checks.append(
            _compare(f"qrofs_q{q}_constraint", float(report.constraint_value), 1.0 + 0.5**q, 1e-9)
        )
    witness = find_counterexample(InclusionClaim.NS_NOT_QROFS, exponent=2)
    checks.append(_compare("ns_witness", _trip(witness), (1.0, 0.5, 0.5), 1e-15))
    checks.append(_compare("ns_valid", validate(witness, FamilySpec(FamilyKind.NS)).valid, True, 0))
    return checks


def exhibit_neutrosophication() -> list[Check]:
    """A territory split by temperature zones becomes a fraction triplet."""
    part = neutrosophify(
        {"cold": 30, "medium": 20, "hot": 50},
        {"cold": Verdict.ACCEPT, "medium": Verdict.NONCOMMIT, "hot": Verdict.REJECT},
    )
    return [
        _compare("fractions", tuple(float(v) for v in part.as_tuple()), (0.3, 0.2, 0.5), 1e-12),
    ]


def exhibit_offsets() -> list[Check]:
    """Worked-hours degrees beyond [0, 1]: overtime above 1, damage below 0."""
    tol = 1e-12
    return [
        _compare("part_time", offset_degree(30, 40), 0.75, tol),
        _compare("full_time", offset_degree(40, 40), 1.0, tol),
        _compare("overtime", offset_degree(45, 40), 1.125, tol),
        _compare("absent", offset_degree(0, 40), 0.0, tol),
        _compare("damage", offset_degree(-20, 40), -0.5, tol),
        _compare(
            "overtime_class",
            validate_offset((1.125, 0.0, 0.0)).classification.value,
            OffsetClass.OVERSET.value,
            0,
        ),
        _compare(
            "damage_class",
            validate_offset((-0.5, 0.2, 0.3)).classification.value,
            OffsetClass.UNDERSET.value,
            0,
        ),
    ]


#: Exhibit registry in presentation order.
EXHIBITS: dict[str, Callable[[], list[Check]]] = {
    "section21": exhibit_section21,
    "counterexample1": exhibit_counterexample1,
    "counterexample2": exhibit_counterexample2,
    "paradox": exhibit_paradox,
    "counterexample3": exhibit_counterexample3,
    "counterexample4": exhibit_counterexample4,
    "counterexample5": exhibit_counterexample5,
    "counterexample6": exhibit_counterexample6,
    "neutrosophication": exhibit_neutrosophication,
    "offsets": exhibit_offsets,
}


def run_exhibit(name: str) -> list[Check]:
    try:
        fn = EXHIBITS[name]
    except KeyError:
        raise UsageError(f"unknown exhibit {name!r}; available: {', '.join(EXHIBITS)}") from None
    return fn()


def run_all() -> dict[str, list[Check]]:
    return {name: fn() for name, fn in EXHIBITS.items()}
