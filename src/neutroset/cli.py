"""Batch command-line surface.

Subcommands: ``validate``, ``op``, ``transform``, ``demo``, ``volume``,
``refined``, ``matrix``, ``decide``. Global flags select output format,
rounding, tolerance, and the sampling seed. Every command is deterministic
for fixed inputs and flags; exit status 0 means all checks passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from neutroset import decision, demos, documents, refined
from neutroset.core import ABS_TOL, NeutrosetError, Triplet, UsageError
from neutroset.families import (
    analytic_family_volume,
    classify_cube_region,
    estimate_family_volume,
    validate,
)
from neutroset.indeterminacy import (
    AdjacencyKind,
    adjacency_validate,
    emit_adjacency,
    parse_adjacency,
)
from neutroset.operators import (
    NormPair,
    Op,
    OperatorSystem,
    OverflowRule,
    SystemKind,
    TConorm,
    TNorm,
    setwise,
)
from neutroset.transforms import normalize_elementwise, sup_transform


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _round(value, places):
    if places is None or not isinstance(value, float):
        return value
    return round(value, places)


def _render(payload: dict, fmt: str, places) -> None:
    if fmt == "json":
        print(json.dumps(_round_tree(payload, places), indent=2))
        return
    _print_table(payload, places)


def _round_tree(node, places):
    if isinstance(node, dict):
        return {k: _round_tree(v, places) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_tree(v, places) for v in node]
    return _round(node, places)


def _fmt_val(v, places) -> str:
    if isinstance(v, float):
        return repr(_round(v, places))
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(_fmt_val(x, places) for x in v) + ")"
    return str(v)


def _print_table(payload: dict, places) -> None:
    for key, value in payload.items():
        if key == "rows":
            continue
        print(f"{key}: {_fmt_val(value, places)}")
    rows = payload.get("rows")
    if rows:
        headers = list(rows[0])
        widths = [
            max(len(h), *(len(_fmt_val(r[h], places)) for r in rows)) for h in headers
        ]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            print("  ".join(_fmt_val(r[h], places).ljust(w) for h, w in zip(headers, widths)))


def _family_from_args(args) -> FamilySpec:
    try:
        return documents.family_from_tag(args.family, getattr(args, "exponent", None))
    except documents.DocumentError as exc:
        raise UsageError(str(exc)) from None  # a bad flag, not a bad document


def _system_from_args(args) -> OperatorSystem:
    kinds = {k.value.lower(): k for k in SystemKind}
    try:
        kind = kinds[args.system.lower()]
    except KeyError:
        raise NeutrosetError(
            f"unknown system {args.system!r}; choose from {sorted(kinds)}"
        ) from None
    norms = NormPair(TNorm(args.tnorm), TConorm(args.tconorm))
    return OperatorSystem(kind, norms=norms, overflow=OverflowRule(args.overflow))


def _cmd_validate(args) -> int:
    doc = documents.load(args.file, validate_elements=False)
    family = _family_from_args(args) if args.family else doc.family
    rows = []
    all_ok = True
    for name, comps in zip(doc.universe, doc.components):
        report = validate(comps, family, args.tolerance)
        all_ok &= report.valid
        row = {
            "element": name,
            "components": tuple(float(v) for v in comps),
            "constraint": float(report.constraint_value),
            "bound": float(report.bound),
            "valid": report.valid,
        }
        if family.arity == 3:
            row["region"] = classify_cube_region(Triplet(*comps), args.tolerance).value
        rows.append(row)
    payload = {
        "command": "validate",
        "input_digest": _digest(args.file),
        "family": family.describe(),
        "tolerance": args.tolerance,
        "all_valid": all_ok,
        "rows": rows,
    }
    _render(payload, args.format, args.round)
    return 0 if all_ok else 1


def _cmd_op(args) -> int:
    sys_ = _system_from_args(args)
    op = Op(args.op)
    doc_a = documents.load(args.a)
    set_a = doc_a.to_labeled_set()
    set_b = None
    digest_b = None
    if op is not Op.NOT:
        if not args.b:
            raise NeutrosetError(f"operator {op.value!r} needs a second operand file")
        doc_b = documents.load(args.b)
        set_b = doc_b.to_labeled_set()
        digest_b = _digest(args.b)
    result = setwise(set_a, set_b, op, sys_)
    out_doc = documents.from_labeled_set(result)
    if args.out:
        documents.dump(out_doc, args.out)
    rows = []
    for idx, name in enumerate(result.universe):
        row = {"element": name, "a": tuple(float(v) for v in set_a.triplets[idx].scalars())}
        if set_b is not None:
            row["b"] = tuple(float(v) for v in set_b.triplets[idx].scalars())
        row["result"] = tuple(float(v) for v in result.triplets[idx].scalars())
        rows.append(row)
    payload = {
        "command": f"op {op.value}",
        "system": sys_.system.value,
        "input_digest_a": _digest(args.a),
        **({"input_digest_b": digest_b} if digest_b else {}),
        "result_family": result.family.describe(),
        **({"written": args.out} if args.out else {}),
        "rows": rows,
    }
    _render(payload, args.format, args.round)
    if not args.out and args.format == "table":
        print("--- result document ---")
        print(documents.dumps(out_doc), end="")
    return 0


def _cmd_transform(args) -> int:
    doc = documents.load(args.file)
    labeled = doc.to_labeled_set()
    rows = []
    if args.method == "sup":
        res = sup_transform(labeled)
        result = res.labeled
        for idx, name in enumerate(result.universe):
            rows.append(
                {
                    "element": name,
                    "before": tuple(float(v) for v in labeled.triplets[idx].scalars()),
                    "after": tuple(float(v) for v in result.triplets[idx].scalars()),
                    "refusal": float(res.refusals[idx].v),
                }
            )
        extra = {"denominator": float(res.denominator)}
    else:
        result = normalize_elementwise(labeled)
        for idx, name in enumerate(result.universe):
            rows.append(
                {
                    "element": name,
                    "before": tuple(float(v) for v in labeled.triplets[idx].scalars()),
                    "after": tuple(float(v) for v in result.triplets[idx].scalars()),
                }
            )
        extra = {}
    out_doc = documents.from_labeled_set(result)
    if args.out:
        documents.dump(out_doc, args.out)
    payload = {
        "command": f"transform {args.method}",
        "input_digest": _digest(args.file),
        "result_family": result.family.describe(),
        **extra,
        **({"written": args.out} if args.out else {}),
        "rows": rows,
    }
    _render(payload, args.format, args.round)
    return 0


def _cmd_demo(args) -> int:
    if args.list:
        for name in demos.EXHIBITS:
            print(name)
        return 0
    if args.all or not args.names:
        names = list(demos.EXHIBITS)
    else:
        names = args.names
    failures = 0
    rows = []
    for name in names:
        for check in demos.run_exhibit(name):
            status = "PASS" if check.passed else "FAIL"
            failures += not check.passed
            rows.append(
                {
                    "exhibit": name,
                    "check": check.name,
                    "status": status,
                    "got": check.got,
                    "want": check.want,
                }
            )
    payload = {
        "command": "demo",
        "exhibits": names,
        "checks": len(rows),
        "failures": failures,
        "rows": rows,
    }
    if args.format == "json":
        _render(payload, args.format, args.round)
    else:
        for r in rows:
            print(
                f"{r['status']}  {r['exhibit']}::{r['check']}  got {_fmt_val(r['got'], args.round)}"
                f"  want {_fmt_val(r['want'], args.round)}"
            )
        print(f"{len(rows)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_volume(args) -> int:
    family = _family_from_args(args)
    est = estimate_family_volume(family, args.samples, args.seed)
    analytic = analytic_family_volume(family)
    z = (est.estimate - analytic) / est.std_error if est.std_error > 0 else 0.0
    payload = {
        "command": "volume",
        "family": family.describe(),
        "samples": est.samples,
        "seed": est.seed,
        "estimate": est.estimate,
        "std_error": est.std_error,
        "analytic": analytic,
        "z_score": z,
    }
    _render(payload, args.format, args.round)
    return 0


def _cmd_refined(args) -> int:
    kinds = {k.value.lower(): k for k in refined.RefinedKind}
    try:
        kind = kinds[args.kind.lower()]
    except KeyError:
        raise NeutrosetError(f"unknown refined kind {args.kind!r}; choose from {sorted(kinds)}") from None
    fam = refined.RefinedFamilySpec(kind, args.exponent)
    comps = refined.RefinedComponents(
        t=tuple(_csv_floats(args.truths)),
        i=tuple(_csv_floats(args.indets)) if args.indets else (),
        f=tuple(_csv_floats(args.falses)) if args.falses else (),
    )
    report = refined.validate_refined(comps, fam, args.tolerance)
    payload = {
        "command": "refined",
        "family": fam.describe(),
        "arities": comps.arities,
        "constraint": float(report.constraint_value),
        "bound": float(report.bound),
        "valid": report.valid,
    }
    if report.valid and kind.row.residual == "hesitancy":
        payload["hesitancy"] = float(refined.refined_hesitancy(comps, fam).v)
    if report.valid and kind.row.residual == "refusal":
        res = refined.refined_refusal(comps, fam)
        payload["refusal"] = float(res.v) if hasattr(res, "v") else (float(res.lo), float(res.hi))
    _render(payload, args.format, args.round)
    return 0 if report.valid else 1


def _cmd_matrix(args) -> int:
    text = Path(args.file).read_text(encoding="utf-8")
    adj = parse_adjacency(text)
    kind = AdjacencyKind(args.kind)
    report = adjacency_validate(adj, kind)
    payload = {
        "command": "matrix",
        "input_digest": _digest(args.file),
        "kind": kind.value,
        "order": report.order,
        "indeterminate_entries": report.indeterminate_entries,
        "symmetric": report.symmetric,
        "valid": report.valid,
        "violations": list(report.violations),
    }
    _render(payload, args.format, args.round)
    if args.emit:
        print(emit_adjacency(adj), end="")
    return 0 if report.valid else 1


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _cmd_decide(args) -> int:
    if args.mode == "three-ways":
        if args.alpha is None or args.beta is None:
            raise UsageError("three-ways needs both --alpha and --beta")
        labels, part = decision.three_ways(_csv_floats(args.scores), args.alpha, args.beta)
        payload = {
            "command": "decide three-ways",
            "alpha": args.alpha,
            "beta": args.beta,
            "labels": [lab.value for lab in labels],
            "partition": tuple(float(v) for v in part.as_tuple()),
        }
    elif args.mode == "n-ways":
        try:
            arities = tuple(int(x) for x in args.arities.split(","))
        except ValueError:
            arities = ()
        if len(arities) != 3:
            raise UsageError(f"arities must be three integers p,r,s, got {args.arities!r}")
        labels, part = decision.n_ways(_csv_floats(args.scores), _csv_floats(args.cuts), arities)
        payload = {
            "command": "decide n-ways",
            "arities": arities,
            "cuts": _csv_floats(args.cuts),
            "labels": [lab.name for lab in labels],
            "accept_levels": [float(v.v) for v in part.accept_levels],
            "noncommit_levels": [float(v.v) for v in part.noncommit_levels],
            "reject_levels": [float(v.v) for v in part.reject_levels],
        }
    elif args.mode == "neutrosophify":
        sizes = {}
        for item in args.sizes.split(","):
            label, sep, size = item.partition("=")
            if not sep:
                raise NeutrosetError(f"sizes must look like label=number, got {item!r}")
            sizes[label.strip()] = float(size)
        group_map = {
            "accept": decision.Verdict.ACCEPT,
            "neutral": decision.Verdict.NONCOMMIT,
            "reject": decision.Verdict.REJECT,
        }
        groups = {}
        for item in args.groups.split(","):
            label, sep, g = item.partition("=")
            if not sep or g.strip() not in group_map:
                raise NeutrosetError(f"group must be accept, neutral, or reject, got {item!r}")
            groups[label.strip()] = group_map[g.strip()]
        part = decision.neutrosophify(sizes, groups)
        payload = {
            "command": "decide neutrosophify",
            "partition": tuple(float(v) for v in part.as_tuple()),
            "dependence": part.dependence.value,
        }
    else:
        degrees = [decision.offset_degree(a, args.norm) for a in _csv_floats(args.amounts)]
        reports = None
        if len(degrees) == 3:
            bounds = decision.OffsetBounds(args.under, args.over)
            reports = decision.validate_offset(tuple(degrees), bounds)
        payload = {
            "command": "decide offset",
            "norm": args.norm,
            "degrees": degrees,
        }
        if reports is not None:
            payload["classification"] = reports.classification.value
            payload["within_bounds"] = reports.within_bounds
    _render(payload, args.format, args.round)
    return 0


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser and again on every subparser, so the
    # flags work on either side of the subcommand
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--format", choices=("table", "json"), **({"default": d} if suppress else {"default": "table"}))
    parser.add_argument("--round", type=int, metavar="N", help="round printed numbers to N decimals", default=d)
    parser.add_argument(
        "--tolerance", type=float, help="constraint slack and region tolerance", **({"default": d} if suppress else {"default": ABS_TOL})
    )
    parser.add_argument("--seed", type=int, help="seed for sampling commands", **({"default": d} if suppress else {"default": 0}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neutroset",
        description="Validated algebra over graded-membership set families.",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "validate",
        parents=[common], help="validate a document's elements under a family")
    p.add_argument("file")
    p.add_argument("--family", default=None, help="override the document's family tag")
    p.add_argument("--exponent", type=float, default=None)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser(
        "op",
        parents=[common], help="apply an operator elementwise across documents")
    p.add_argument("--op", choices=[o.value for o in Op], required=True)
    p.add_argument("a", help="first operand document")
    p.add_argument("b", nargs="?", default=None, help="second operand document (binary ops)")
    p.add_argument("--system", default="NS", help="NS, IFS, IIFS-max, or IIFS-min")
    p.add_argument("--tnorm", choices=[t.value for t in TNorm], default="min")
    p.add_argument("--tconorm", choices=[t.value for t in TConorm], default="max")
    p.add_argument("--overflow", choices=[r.value for r in OverflowRule], default="output")
    p.add_argument("--out", default=None, help="write the result document here")
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser(
        "transform",
        parents=[common], help="rescale a document's components")
    p.add_argument("file")
    p.add_argument("--method", choices=("sup", "normalize"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser(
        "demo",
        parents=[common], help="recompute worked exhibits against golden values")
    p.add_argument("names", nargs="*", help="exhibit names (default: all)")
    p.add_argument("--all", action="store_true")
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser(
        "volume",
        parents=[common], help="Monte-Carlo unit-cube volume of a family constraint")
    p.add_argument("--family", required=True)
    p.add_argument("--exponent", type=float, default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(fn=_cmd_volume)

    p = sub.add_parser(
        "refined",
        parents=[common], help="validate split-component instances")
    p.add_argument("--kind", required=True)
    p.add_argument("--exponent", type=float, default=None)
    p.add_argument("--t", dest="truths", required=True, help="comma-separated sub-truths")
    p.add_argument("--i", dest="indets", default="", help="comma-separated sub-indeterminacies")
    p.add_argument("--f", dest="falses", default="", help="comma-separated sub-falsehoods")
    p.set_defaults(fn=_cmd_refined)

    p = sub.add_parser(
        "matrix",
        parents=[common], help="validate an adjacency grid over {0, 1, -1, I}")
    p.add_argument("file")
    p.add_argument("--kind", choices=[k.value for k in AdjacencyKind], default="graph")
    p.add_argument("--emit", action="store_true", help="re-emit the canonical grid")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser(
        "decide",
        parents=[common], help="threshold partitioning and off-range degrees")
    p.add_argument("mode", choices=("three-ways", "n-ways", "neutrosophify", "offset"))
    p.add_argument("--scores", default="")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--cuts", default="")
    p.add_argument("--arities", default="")
    p.add_argument("--sizes", default="")
    p.add_argument("--groups", default="")
    p.add_argument("--amounts", default="")
    p.add_argument("--norm", type=float, default=1.0)
    p.add_argument("--under", type=float, default=0.0)
    p.add_argument("--over", type=float, default=1.0)
    p.set_defaults(fn=_cmd_decide)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise UsageError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
        if args.round is not None and args.round < 0:
            raise UsageError(f"--round must be >= 0, got {args.round}")
        return args.fn(args)
    except documents.DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 2
    except NeutrosetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
