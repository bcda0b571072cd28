"""algebra_exact: scalar calls on Fraction inputs, with no documents, CLI or kernel.

Per round and per seeded case: ``Triplet``/``Pair`` construction,
``validate`` for every family whose exponent is 1 or 2, ``conjunct``/
``disjunct``/``negate``/``implicate`` under the four systems and both norm
pairs, ``embed_into_ns``, ``hesitancy``/``refusal``, ``validate_refined``,
``coarsen(refine(x))``, ``nn_mul``, and every fourth case one ``nm_mul`` of
two 3x3 matrices.

The top-level call is one case: its 67 or 68 scalar calls. The median of
single scalar calls falls where the operator, validate and refined-validate
clusters overlap, so it moved by ~10 % between runs; the median case moved
by ~1-2 %. Each scalar call is a span in traced rounds (the layer metrics).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle
from harness import Untimed
from speed import Speed
from neutroset import indeterminacy as nd
from neutroset import refined
from neutroset.core import Pair, Triplet
from neutroset.families import FamilyKind, FamilySpec, embed_into_ns, hesitancy, refusal, validate
from neutroset.operators import (NormPair, OperatorSystem, SystemKind, TConorm, TNorm, conjunct,
                                 disjunct, implicate, negate)

CASES = 120
SMALL_CASES = 8
SYSTEMS = ("NS", "IFS", "IIFS-max", "IIFS-min")
#: validate targets: (family tag, exponent, input kind).
VALIDATE = (("FS", None, "ifs_pair"), ("IFS", None, "ifs_pair"), ("IIFS", None, "iifs"), ("NS", None, "ns"),
            ("PyFS", None, "py_pair"), ("SFS", None, "sfs"), ("SNS", None, "ns"), ("QROFS", 2, "py_pair"),
            ("NHSFS", 2, "sfs"), ("NHSNS", 2, "ns"), ("IIFS", None, "ns"), ("IFS", None, "fs_pair"))
EMBED = (("IFS", None, "ifs_pair"), ("PyFS", None, "py_pair"), ("QROFS", 2, "py_pair"), ("IIFS", None, "iifs"),
         ("NS", None, "ns"), ("SFS", None, "sfs"), ("NHSFS", 2, "sfs"))
RESIDUAL = (("IFS", None, "ifs_pair"), ("PyFS", None, "py_pair"), ("QROFS", 2, "py_pair"),
            ("IIFS", None, "iifs"), ("SFS", None, "sfs"), ("NHSFS", 2, "sfs"))
#: Refined kinds: (kind, exponent, source input, arities).
REFINED = (("RFS", None, "fs_t", (3, 0, 0)), ("RIFS", None, "ifs_pair", (2, 0, 2)),
           ("RIIFS", None, "iifs", (2, 1, 2)), ("RNS", None, "ns", (1, 2, 3)),
           ("RPyFS", None, "py_pair", (2, 0, 3)), ("RSFS", None, "sfs", (2, 2, 1)),
           ("RQROFS", 2, "py_pair", (3, 0, 1)), ("RNHSNS", 2, "ns", (2, 1, 1)))

LAYERS = [
    ("core.triplet_new", "core.triplet_new_us", "us", "us"),
    ("families.validate", "families.validate_us", "us", "us"),
    ("families.embed_into_ns", "families.embed_into_ns_us", "us", "us"),
    ("families.residual", "families.residual_us", "us", "us"),
    ("operators.conjunct", "operators.conjunct_us", "us", "us"),
    ("operators.disjunct", "operators.disjunct_us", "us", "us"),
    ("operators.negate", "operators.negate_us", "us", "us"),
    ("operators.implicate", "operators.implicate_us", "us", "us"),
    ("refined.validate_refined", "refined.validate_refined_us", "us", "us"),
    ("refined.refine_coarsen", "refined.refine_coarsen_us", "us", "us"),
    ("indeterminacy.nn_mul", "indeterminacy.nn_mul_us", "us", "us"),
    ("indeterminacy.nm_mul", "indeterminacy.nm_mul_ms", "ms", "ms"),
]


def _parts(rng: random.Random, k: int, d: int, total: int) -> list[Fraction]:
    """k nonnegative Fractions with denominator d whose numerators sum to ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(k - 1))
    edges = [0] + cuts + [total]
    return [Fraction(edges[j + 1] - edges[j], d) for j in range(k)]


def _squares_within(rng: random.Random, k: int, d: int) -> list[Fraction]:
    """k Fractions in [0, 1] whose squares sum to at most 1."""
    out, room = [], d * d
    for _ in range(k):
        x = rng.randint(0, math.isqrt(room))
        room -= x * x
        out.append(Fraction(x, d))
    rng.shuffle(out)
    return out


def make_case(rng: random.Random) -> dict:
    d = lambda: rng.randint(2, 64)  # noqa: E731 - a fresh denominator per input
    case = {}
    for key in ("ns", "ns_b"):
        den = d()
        case[key] = tuple(Fraction(rng.randint(0, den), den) for _ in range(3))
    for key in ("ifs", "ifs_b"):
        den = d()
        case[key] = tuple(_parts(rng, 3, den, den))
    for key in ("iifs", "iifs_b"):
        den = d()
        case[key] = tuple(_parts(rng, 3, den, rng.randint(0, den)))
    den = d()
    case["ifs_pair"] = tuple(_parts(rng, 3, den, den)[::2])
    case["fs_pair"] = (case["ns"][0], case["ns"][2])
    case["fs_t"] = (case["ns"][0],)
    case["py_pair"] = tuple(_squares_within(rng, 2, d()))
    case["sfs"] = tuple(_squares_within(rng, 3, d()))
    case["weights"] = [Fraction(rng.randint(1, 9), 10) for _ in range(6)]
    coeff = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))  # noqa: E731
    case["nn"] = [(coeff(), coeff()) for _ in range(6)]
    case["matrices"] = [tuple(tuple((coeff(), coeff()) for _ in range(3)) for _ in range(3)) for _ in range(2)]
    return case


def _spec(kind: str, exponent) -> FamilySpec:
    return FamilySpec(FamilyKind(kind), exponent)


def _system(name: str, product: bool) -> OperatorSystem:
    norms = NormPair(TNorm.PRODUCT, TConorm.PROB_SUM) if product else NormPair()
    return OperatorSystem(SystemKind(name), norms)


def _operand_key(system: str) -> str:
    """The case inputs an operator system takes: any, sum-1 or sum <= 1 triplets."""
    return {"NS": "ns", "IFS": "ifs"}.get(system, "iifs")


def _component_input(values: tuple):
    return Pair(*values) if len(values) == 2 else Triplet(*values)


def _split(values: tuple, arities: tuple, weights: list) -> refined.RefinedComponents:
    """Split (t, [i,] f) across sub-degrees: a first share by weight, the rest in the last slot."""
    slots = (values[0], values[1], values[2]) if len(values) == 3 else (values[0], 0, values[-1])
    groups = []
    for n, v, w in zip(arities, slots, weights):
        if n == 0:
            groups.append(())
        else:
            head = [v * w / (n - 1) for _ in range(n - 1)] if n > 1 else []
            groups.append(tuple(head + [v - sum(head)]))
    return refined.RefinedComponents(t=groups[0], i=groups[1], f=groups[2])


def _refined_spec(kind: str, exponent) -> refined.RefinedFamilySpec:
    return refined.RefinedFamilySpec(refined.RefinedKind(kind), exponent)


class Workload:
    name = "algebra_exact"
    #: Whether the work runs in child processes (then peak RSS is the largest child's own).
    in_children = False

    @staticmethod
    def speed() -> Speed:
        """The median call is a Fraction operator; it is scaled by the oracle doing the same rules."""
        return Speed(reference_rules, REFERENCE_NOMINAL_S)

    def __init__(self, seed: int, small: bool = False):
        self.small = small
        rng = random.Random(seed)
        self.cases = [make_case(rng) for _ in range(SMALL_CASES if small else CASES)]
        for case in self.cases:
            for key in ("ns", "ns_b", "ifs", "ifs_b", "iifs", "iifs_b"):
                case[key + "_t"] = Triplet(*case[key])
            case["refined"] = [(kind, exponent, _split(case[src], arities, case["weights"][:3]))
                               for kind, exponent, src, arities in REFINED]
            case["obj"] = {key: _component_input(case[key]) for key in ("ifs_pair", "py_pair", "sfs", "iifs", "ns")}
            case["nn_objs"] = [nd.NeutrosophicNumber(a, b) for a, b in case["nn"]]
            case["matrix_objs"] = [nd.NeutroMatrix(tuple(tuple(nd.NeutrosophicNumber(a, b) for a, b in row)
                                                         for row in m)) for m in case["matrices"]]
        self.specs = {(k, e): _spec(k, e) for k, e, _ in VALIDATE + EMBED + RESIDUAL}
        self.refined_specs = {(k, e): _refined_spec(k, e) for k, e, _, _ in REFINED}
        self.systems = {(s, p): _system(s, p) for s in SYSTEMS for p in (False, True)}
        # per case: construction, validate, operators, embed, residual, refined, refine/coarsen, nn_mul;
        # every fourth case adds one nm_mul
        self.per_case = 2 + len(VALIDATE) + 7 * len(SYSTEMS) + len(EMBED) + len(RESIDUAL) + len(REFINED) + 1 + 3
        self.calls_per_round = len(self.cases)
        self.items_per_round = self.per_case * len(self.cases) + len(self.cases[::4])

    def warm_up(self) -> None:
        self.round(Untimed())

    def round(self, rec) -> list:
        out = []
        for k, case in enumerate(self.cases):
            out += rec.call("algebra.case", self.per_case + (k % 4 == 0), self._case, rec.inner, k, case)
        return out

    def _case(self, call, k: int, case: dict) -> list:
        out = []
        out.append(call("core.triplet_new", 1, Triplet, *case["ns"]))
        out.append(call("core.triplet_new", 1, Pair, *case["ifs_pair"]))
        for kind, exponent, src in VALIDATE:
            out.append(call("families.validate", 1, validate, case[src], self.specs[kind, exponent]))
        for system in SYSTEMS:
            key = _operand_key(system)
            ta, tb = case[key + "_t"], case[key + "_b_t"]
            out.append(call("operators.negate", 1, negate, ta, self.systems[system, False]))
            for product in (False, True):
                sys_ = self.systems[system, product]
                out.append(call("operators.conjunct", 1, conjunct, ta, tb, sys_))
                out.append(call("operators.disjunct", 1, disjunct, ta, tb, sys_))
                out.append(call("operators.implicate", 1, implicate, ta, tb, sys_))
        for kind, exponent, src in EMBED:
            out.append(call("families.embed_into_ns", 1, embed_into_ns, case["obj"][src],
                            self.specs[kind, exponent]))
        for kind, exponent, src in RESIDUAL:
            fn = hesitancy if len(case[src]) == 2 else refusal
            out.append(call("families.residual", 1, fn, case["obj"][src],
                            self.specs[kind, exponent]))
        for kind, exponent, comps in case["refined"]:
            out.append(call("refined.validate_refined", 1, refined.validate_refined, comps,
                            self.refined_specs[kind, exponent]))
        out.append(call("refined.refine_coarsen", 1, _refine_coarsen, case["ns_t"]))
        xs = case["nn_objs"]
        for j in range(0, len(xs), 2):
            out.append(call("indeterminacy.nn_mul", 1, nd.nn_mul, xs[j], xs[j + 1]))
        if k % 4 == 0:
            out.append(call("indeterminacy.nm_mul", 1, nd.nm_mul, *case["matrix_objs"]))
        return out

    def check(self, out: list, reference) -> tuple[list, int, object]:
        """First round: every result against the oracle, plus the algebraic laws. Later: the same results."""
        if reference is not None:
            return ([] if out == reference else ["results differ from the first round"]), 0, reference
        problems = []
        it = iter(out)
        for k, case in enumerate(self.cases):
            problems += [f"case {k}: {p}" for p in self._check_case(case, k, it)]
        return problems, 0, out

    def _check_case(self, case: dict, k: int, it) -> list:
        problems = []

        def expect(label, got, want, exact=True):
            if exact:
                ok = tuple(got) == tuple(want) and oracle.all_fractions(got)
            else:
                ok = all(oracle.close(float(g), float(w)) for g, w in zip(got, want))
            if not ok:
                problems.append(f"{label}: got {tuple(got)}, expected {tuple(want)}")

        expect("Triplet", next(it).components(), case["ns"])
        expect("Pair", next(it).components(), case["ifs_pair"])
        for kind, exponent, src in VALIDATE:
            report = next(it)
            value, valid = oracle.constraint(case[src], kind, exponent)
            expect(f"validate {kind}", (report.constraint_value,), (value,))
            if report.valid != valid:
                problems.append(f"validate {kind}: valid={report.valid}, expected {valid}")
        for system in SYSTEMS:
            key = _operand_key(system)
            a, b = case[key], case[key + "_b"]
            expect(f"negate {system}", next(it).components(), oracle.negation(a, system))
            for product in (False, True):
                for op in ("and", "or", "implies"):
                    want = oracle.apply_op(op, a, b, system, product)
                    expect(f"{op} {system} product={product}", next(it).components(), want)
        for kind, exponent, src in EMBED:
            v = case[src]
            if len(v) == 2:
                e = 1 if kind == "IFS" else 2
                tp, fp = v[0] ** e, v[1] ** e
                want = (tp, oracle.leftover(tp, fp), fp)
            else:
                e = 2 if kind in ("SFS", "NHSFS") else 1
                want = tuple(x ** e for x in v)
            expect(f"embed {kind}", next(it).components(), want)
        for kind, exponent, src in RESIDUAL:
            got = next(it).v
            _, _, e, _ = oracle.family_shape(kind, exponent)
            value = oracle.powered_sum(case[src], e)
            if e == 1:
                expect(f"residual {kind}", (got,), (oracle.leftover(value, 0),))
            else:
                expect(f"residual {kind}", (got,), (math.sqrt(max(float(1 - value), 0.0)),), exact=False)
        for kind, exponent, comps in case["refined"]:
            report = next(it)
            parts = comps.all_parts()
            e = exponent or (2 if kind in ("RPyFS", "RSFS") else 1)
            bound = sum(comps.arities) if kind in ("RNS", "RNHSNS") else 1
            value = oracle.powered_sum(parts, e)
            expect(f"validate_refined {kind}", (report.constraint_value,), (value,))
            if report.valid != (value <= bound + oracle.SLACK):
                problems.append(f"validate_refined {kind}: valid={report.valid}")
        coarse = next(it)
        if coarse.components() != case["ns"]:
            problems.append(f"coarsen(refine(x)) = {coarse.components()}, expected {case['ns']}")
        for j in range(0, len(case["nn"]), 2):
            got = next(it)
            expect("nn_mul", (got.a, got.b), oracle.nn_product(case["nn"][j], case["nn"][j + 1]))
        if k % 4 == 0:
            got = next(it)
            want = oracle.nn_matrix_product(*case["matrices"])
            flat_got = [x for row in got.rows for n in row for x in (n.a, n.b)]
            expect("nm_mul", flat_got, [x for row in want for n in row for x in n])
        problems += self._laws(case)
        return problems

    def _laws(self, case: dict) -> list:
        """NS negation is an involution, De Morgan holds, and I * I = I, all bitwise."""
        problems = []
        a, b = case["ns_t"], case["ns_b_t"]
        for product in (False, True):
            sys_ = self.systems["NS", product]
            if negate(negate(a, sys_), sys_) != a:
                problems.append("NS negation is not an involution")
            lhs = negate(conjunct(a, b, sys_), sys_)
            rhs = disjunct(negate(a, sys_), negate(b, sys_), sys_)
            if lhs != rhs or not oracle.all_fractions(lhs.components()):
                problems.append(f"De Morgan fails (product={product}): {lhs} vs {rhs}")
        if nd.nn_mul(nd.I, nd.I) != nd.I:
            problems.append("I * I != I")
        return problems

    def layer_probe(self, rec) -> None:
        if self.small:
            rec.tracing = True
            self.round(rec)
            rec.tracing = False

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class _Result:
    t: Fraction
    i: Fraction
    f: Fraction


#: Speed reference: fixed cases through the oracle's operator rules and family constraints.
REFERENCE_CASES = [make_case(random.Random(20191118 + k)) for k in range(12)]
REFERENCE_NOMINAL_S = 0.0074


def reference_rules() -> int:
    """The oracle's operator rules and family constraints on fixed cases, each result in a frozen object."""
    results = []
    for case in REFERENCE_CASES:
        for system in SYSTEMS:
            key = _operand_key(system)
            for product in (False, True):
                for op in ("and", "or", "implies"):
                    results.append(_Result(*oracle.apply_op(op, case[key], case[key + "_b"], system, product)))
        for kind, exponent, src in VALIDATE:
            results.append(oracle.constraint(case[src], kind, exponent))
    return len(results)


def _refine_coarsen(t: Triplet) -> Triplet:
    return refined.coarsen(refined.refine(t, (2, 1, 3)))
