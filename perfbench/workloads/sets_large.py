"""sets_large: seeded float documents through the whole set layer.

Per round and per document family (NS triplets, IIFS triplets, IFS pairs
widened to sum-1 triplets), two documents A and B over one universe go
through ``documents.loads`` -> ``to_labeled_set`` -> ``setwise`` under every
operator system the family admits (NOT, and AND/OR/IMPLIES under min/max
and product/probsum) -> ``sup_transform`` -> ``normalize_elementwise`` ->
``from_labeled_set`` + ``dumps``. Sum-1 (IFS) documents run under both the
IFS and the NS system, the paper's headline comparison.
"""

from __future__ import annotations

import json
import random

import oracle
from harness import Untimed
from speed import Speed
from neutroset import documents
from neutroset.operators import NormPair, Op, OperatorSystem, SystemKind, TConorm, TNorm, setwise
from neutroset.transforms import normalize_elementwise, sup_transform

ELEMENTS = 3000
SMALL_ELEMENTS = 300
FAMILIES = ("NS", "IIFS", "IFS")
#: Operator systems applied to each document family.
SYSTEMS = {"NS": ("NS",), "IIFS": ("IIFS-max", "IIFS-min"), "IFS": ("IFS", "NS")}

LAYERS = [
    ("documents.loads", "documents.loads_elem_per_s", "rate", "1/s"),
    ("documents.to_labeled_set", "documents.to_labeled_set_elem_per_s", "rate", "1/s"),
    ("operators.setwise", "operators.setwise_elem_per_s", "rate", "1/s"),
    ("transforms.sup_transform", "transforms.sup_transform_elem_per_s", "rate", "1/s"),
    ("transforms.normalize", "transforms.normalize_elem_per_s", "rate", "1/s"),
    ("documents.dumps", "documents.dumps_elem_per_s", "rate", "1/s"),
]


def plan(family: str) -> list[tuple[str, str, bool]]:
    """(system, op, product norms) for every setwise call on one family."""
    steps = []
    for system in SYSTEMS[family]:
        steps.append((system, "not", False))
        for op in ("and", "or", "implies"):
            for product in (False, True):
                steps.append((system, op, product))
    return steps


def make_rows(rng: random.Random, family: str, n: int) -> list[list[float]]:
    rows = []
    for _ in range(n):
        if family == "NS":
            rows.append([rng.random(), rng.random(), rng.random()])
        elif family == "IIFS":
            a, b, c = rng.random(), rng.random(), rng.random()
            scale = rng.uniform(0.2, 0.98) / (a + b + c)
            rows.append([a * scale, b * scale, c * scale])
        else:
            t = rng.random()
            rows.append([t, rng.uniform(0.0, 1.0 - t)])
    return rows


def write_document(labeled) -> str:
    return documents.dumps(documents.from_labeled_set(labeled))


def _system(name: str, product: bool) -> OperatorSystem:
    norms = NormPair(TNorm.PRODUCT, TConorm.PROB_SUM) if product else NormPair()
    return OperatorSystem(SystemKind(name), norms)


class Workload:
    name = "sets_large"
    #: Whether the work runs in child processes (then peak RSS is the largest child's own).
    in_children = False

    @staticmethod
    def speed() -> Speed:
        return Speed()

    def __init__(self, seed: int, small: bool = False):
        self.small = small
        self.n = SMALL_ELEMENTS if small else ELEMENTS
        rng = random.Random(seed)
        names = [f"x{k:05d}" for k in range(self.n)]
        self.names = names
        self.rows = {}
        self.texts = {}
        for fam in FAMILIES:
            pair = [make_rows(rng, fam, self.n) for _ in range(2)]
            self.rows[fam] = pair
            self.texts[fam] = [
                json.dumps({"format_version": 1, "family": {"kind": fam}, "universe": names,
                            "elements": dict(zip(names, rows))})
                for rows in pair
            ]
        self.plans = {fam: [(s, Op(op), _system(s, p)) for s, op, p in plan(fam)] for fam in FAMILIES}
        self.calls_per_round = sum(4 + len(self.plans[f]) + 4 for f in FAMILIES)
        self.items_per_round = self.calls_per_round * self.n

    def warm_up(self) -> None:
        Workload(0, small=True).round(Untimed())

    def round(self, rec) -> dict:
        n = self.n
        out = {}
        for fam in FAMILIES:
            with rec.group(f"sets_large.{fam}", 2 * n):
                docs = [rec.call("documents.loads", n, documents.loads, text) for text in self.texts[fam]]
                a, b = [rec.call("documents.to_labeled_set", n, d.to_labeled_set) for d in docs]
                results = [rec.call("operators.setwise", n, setwise, a, b, op, sys_)
                           for _, op, sys_ in self.plans[fam]]
                sup = rec.call("transforms.sup_transform", n, sup_transform, a)
                norm = rec.call("transforms.normalize", n, normalize_elementwise, sup.labeled)
                texts = [rec.call("documents.dumps", n, write_document, s) for s in (results[1], norm)]
            out[fam] = (docs, (a, b), results, sup, norm, texts)
        return out

    def check(self, out: dict, reference) -> tuple[list, int, object]:
        """First round: every output against the oracle. Later rounds: the same documents."""
        texts = tuple(t for fam in FAMILIES for t in out[fam][5])
        if reference is not None:
            return ([] if texts == reference else ["dumped documents differ from the first round"]), 0, reference
        problems = []
        for fam in FAMILIES:
            problems += self._check_family(fam, *out[fam])
        return problems, 0, texts

    def _check_family(self, fam, docs, sets, results, sup, norm, texts) -> list:
        problems = []
        raw = self.rows[fam]
        for doc, rows in zip(docs, raw):
            if [list(r) for r in doc.components] != rows or list(doc.universe) != self.names:
                problems.append(f"{fam}: loaded components differ from the generated document")
        widened = [[oracle.widen_pair(r) for r in rows] if fam == "IFS" else rows for rows in raw]
        for labeled, rows in zip(sets, widened):
            problems += oracle.rows_differ(_scalars(labeled), rows, f"{fam} to_labeled_set")
        a_rows, b_rows = widened
        for (system, op, product), result in zip(plan(fam), results):
            want = [oracle.apply_op(op, x, y, system, product) for x, y in zip(a_rows, b_rows)]
            problems += oracle.rows_differ(_scalars(result), want, f"{fam} {system} {op} product={product}")
        denom, sup_rows, refusals = oracle.sup_rescale(a_rows)
        if not oracle.close(sup.denominator, denom):
            problems.append(f"{fam} sup denominator {sup.denominator!r}, expected {denom!r}")
        problems += oracle.rows_differ(_scalars(sup.labeled), sup_rows, f"{fam} sup_transform")
        problems += oracle.rows_differ([(r.v,) for r in sup.refusals], [(r,) for r in refusals], f"{fam} refusals")
        norm_rows = oracle.normalize_rows(sup_rows)
        problems += oracle.rows_differ(_scalars(norm), norm_rows, f"{fam} normalize_elementwise")
        problems += oracle.check_sum_one(_scalars(norm), f"{fam} normalize_elementwise")
        and_rows = [oracle.apply_op("and", x, y, SYSTEMS[fam][0], False) for x, y in zip(a_rows, b_rows)]
        and_kind = "IIFS" if SYSTEMS[fam][0].startswith("IIFS") else SYSTEMS[fam][0]
        problems += _check_dump(texts[0], and_kind, self.names, and_rows, f"{fam} dump of AND")
        problems += _check_dump(texts[1], "IFS", self.names, norm_rows, f"{fam} dump of normalized")
        return problems

    def layer_probe(self, rec) -> None:
        if self.small:
            rec.tracing = True
            self.round(rec)
            rec.tracing = False

    def close(self) -> None:
        pass


def _scalars(labeled) -> list:
    return [t.scalars() for t in labeled.triplets]


def _check_dump(text: str, kind: str, names: list, rows: list, label: str) -> list:
    """A dumped document holds the family, the universe and every row (pairs for IFS)."""
    doc = json.loads(text)
    if doc["family"] != {"kind": kind} or doc["universe"] != names:
        return [f"{label}: family {doc['family']} or universe differs"]
    want = [(r[0], r[2]) if kind == "IFS" else r for r in rows]
    return oracle.rows_differ([doc["elements"][k] for k in names], want, label)
