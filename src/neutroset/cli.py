"""Batch command-line surface.

Subcommands: ``validate``, ``op``, ``transform``, ``demo``, ``volume``,
``refined``, ``matrix``, ``decide``. Global flags select output format,
rounding, tolerance, and the sampling seed. Every command is deterministic
for fixed inputs and flags. Exit status 0 means all checks passed, 1 that a
check failed, 2 a usage or document error, 3 an internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# every other module of the package is imported inside the command that runs it,
# so that a call pays only for its own modules (see README, "Start-up")
from neutroset.core import ABS_TOL, DocumentError, NeutrosetError, UsageError

if TYPE_CHECKING:
    from neutroset.families import FamilySpec
    from neutroset.operators import OperatorSystem

# Parser choices spelled out, so that building the parser loads no module beyond core;
# a test keeps each equal to the values of its enum.
#: The values of ``operators.Op``.
OPS = ("and", "or", "implies", "not")
#: The values of ``operators.TNorm``.
TNORMS = ("min", "product")
#: The values of ``operators.TConorm``.
TCONORMS = ("max", "probsum")
#: The values of ``operators.OverflowRule``.
OVERFLOW_RULES = ("output", "printed")
#: The values of ``indeterminacy.AdjacencyKind``.
MATRIX_KINDS = ("graph", "cognitive-map")


def _digest(path: str) -> str:
    import hashlib

    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


#: Payload keys that echo a setting: ``--round`` prints them as given, since rounding them would misreport the run.
_ECHOED_SETTINGS = frozenset({"tolerance", "alpha", "beta", "cuts", "norm"})


def _render(payload: dict, fmt: str, places) -> None:
    if places is not None:
        payload = {k: v if k in _ECHOED_SETTINGS else _round_tree(v, places) for k, v in payload.items()}
    if fmt == "json":
        try:
            print(json.dumps(payload, indent=2, allow_nan=False))
        except ValueError:  # NaN or an infinity: strict JSON has no number for them, so they print as null
            print(json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None), indent=2))
    else:
        _print_table(payload)


def _round_tree(node, places: int):
    if isinstance(node, float):
        return round(node, places)
    if isinstance(node, dict):
        return {k: _round_tree(v, places) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_tree(v, places) for v in node]
    return node


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return "(" + ", ".join(map(_fmt_val, v)) + ")"
    return str(v)


def _print_table(payload: dict) -> None:
    for key, value in payload.items():
        if key != "rows":
            print(f"{key}: {_fmt_val(value)}")
    rows = payload.get("rows")
    if rows:
        headers = list(rows[0])
        lines = [headers, *([_fmt_val(r[h]) for h in headers] for r in rows)]
        widths = [max(map(len, column)) for column in zip(*lines)]
        print("\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in lines))


def _floats(row) -> tuple:
    return tuple(map(float, row))


def _family_from_args(args) -> FamilySpec:
    from neutroset.families import family_from_tag

    try:
        return family_from_tag(args.family, getattr(args, "exponent", None))
    except DocumentError as exc:
        raise UsageError(str(exc)) from None  # a bad flag, not a bad document


def _choice(enum, given: str, what: str):
    """The member of ``enum`` whose value is ``given``, ignoring case."""
    members = {m.value.lower(): m for m in enum}
    try:
        return members[given.lower()]
    except KeyError:
        raise UsageError(f"unknown {what} {given!r}; choose from {sorted(members)}") from None


def _system_from_args(args) -> OperatorSystem:
    from neutroset.operators import NormPair, OperatorSystem, OverflowRule, SystemKind, TConorm, TNorm

    kind = _choice(SystemKind, args.system, "system")
    norms = NormPair(TNorm(args.tnorm), TConorm(args.tconorm))
    return OperatorSystem(kind, norms=norms, overflow=OverflowRule(args.overflow))


def _cmd_validate(args) -> int:
    from neutroset import documents
    from neutroset.families import classify_cube_region

    if args.exponent is not None and not args.family:
        raise UsageError("--exponent needs --family; a document's own family carries its exponent")
    doc = documents.load(args.file, validate_elements=False)
    family = _family_from_args(args) if args.family else doc.family
    rows = []
    all_ok = True
    for name, comps in zip(doc.universe, doc.components):
        report = documents._element_report(name, comps, family, args.tolerance)
        all_ok &= report.valid
        row = {
            "element": name,
            "components": tuple(float(v) for v in comps),
            "constraint": float(report.constraint_value),
            "bound": float(report.bound),
            "valid": report.valid,
        }
        if family.arity == 3:
            row["region"] = classify_cube_region(comps, args.tolerance).value
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
    from neutroset import documents
    from neutroset.operators import Op, setwise

    sys_ = _system_from_args(args)
    op = Op(args.op)
    set_a = documents.load(args.a).to_labeled_set()
    set_b = None
    digest_b = None
    if op is not Op.NOT:
        if not args.b:
            raise UsageError(f"operator {op.value!r} needs a second operand file")
        set_b = documents.load(args.b).to_labeled_set()
        digest_b = _digest(args.b)
    result = setwise(set_a, set_b, op, sys_)
    if args.out:
        documents.dump(documents.from_labeled_set(result), args.out)
    rows = []
    b_rows = set_b.scalar_rows() if set_b is not None else [None] * len(result.universe)
    for name, a, b, r in zip(result.universe, set_a.scalar_rows(), b_rows, result.scalar_rows()):
        row = {"element": name, "a": _floats(a)}
        if b is not None:
            row["b"] = _floats(b)
        row["result"] = _floats(r)
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
        print(documents.dumps(documents.from_labeled_set(result)), end="")
    return 0


def _cmd_transform(args) -> int:
    from neutroset import documents
    from neutroset.transforms import normalize_elementwise, sup_transform

    labeled = documents.load(args.file).to_labeled_set()
    if args.method == "sup":
        res = sup_transform(labeled)
        result = res.labeled
        extra = {"denominator": float(res.denominator)}
    else:
        result = normalize_elementwise(labeled)
        extra = {}
    rows = [
        {"element": name, "before": _floats(before), "after": _floats(after)}
        for name, before, after in zip(result.universe, labeled.scalar_rows(), result.scalar_rows())
    ]
    if args.method == "sup":
        for row, refusal in zip(rows, res.refusals):
            row["refusal"] = float(refusal.v)
    if args.out:
        documents.dump(documents.from_labeled_set(result), args.out)
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
    from neutroset import demos

    if args.list:
        if args.format == "json":
            _render({"command": "demo --list", "exhibits": list(demos.EXHIBITS)}, args.format, None)
        else:
            print("\n".join(demos.EXHIBITS))
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
        if args.round is not None:
            rows = _round_tree(rows, args.round)
        for r in rows:
            print(
                f"{r['status']}  {r['exhibit']}::{r['check']}  got {_fmt_val(r['got'])}"
                f"  want {_fmt_val(r['want'])}"
            )
        print(f"{len(rows)} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _cmd_volume(args) -> int:
    from neutroset.families import analytic_family_volume, estimate_family_volume

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
    from neutroset import refined

    kind = _choice(refined.RefinedKind, args.kind, "refined kind")
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
    from neutroset import indeterminacy

    text = Path(args.file).read_text(encoding="utf-8")
    adj = indeterminacy.parse_adjacency(text)
    kind = indeterminacy.AdjacencyKind(args.kind)
    report = indeterminacy.adjacency_validate(adj, kind)
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
        print(indeterminacy.emit_adjacency(adj), end="")
    return 0 if report.valid else 1


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def _cmd_decide(args) -> int:
    from neutroset import decision

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
            label, _, size = item.partition("=")
            label = label.strip()
            if label in sizes:
                raise UsageError(f"size of {label!r} given twice")
            try:
                sizes[label] = float(size)  # no "=" leaves size empty, which float rejects
            except ValueError:
                raise UsageError(f"sizes must look like label=number, got {item!r}") from None
        group_map = {
            "accept": decision.Verdict.ACCEPT,
            "neutral": decision.Verdict.NONCOMMIT,
            "reject": decision.Verdict.REJECT,
        }
        groups = {}
        for item in args.groups.split(","):
            label, sep, g = item.partition("=")
            if not sep or g.strip() not in group_map:
                raise UsageError(f"group must be accept, neutral, or reject, got {item!r}")
            label = label.strip()
            if label in groups:
                raise UsageError(f"group of {label!r} given twice")
            groups[label] = group_map[g.strip()]
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
    # registered on the main parser and again on every subparser, so the flags work on either
    # side of the subcommand; a subparser's flag defaults to absent, keeping the main parser's value
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--format", choices=("table", "json"), default=default("table"))
    parser.add_argument(
        "--round", type=int, metavar="N", help="round printed numbers to N decimals", default=default(None)
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        help=f"constraint slack and region tolerance for validate and refined only; op and transform "
        f"always check at {ABS_TOL:g}",
        default=default(ABS_TOL),
    )
    parser.add_argument("--seed", type=int, help="seed for sampling commands", default=default(0))
    parser.add_argument(
        "--debug",
        action="store_true",
        help="show the traceback of an internal error instead of one line",
        default=default(False),
    )


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
    p.add_argument("--op", choices=OPS, required=True)
    p.add_argument("a", help="first operand document")
    p.add_argument("b", nargs="?", default=None, help="second operand document (binary ops)")
    p.add_argument("--system", default="NS", help="NS, IFS, IIFS-max, or IIFS-min")
    p.add_argument("--tnorm", choices=TNORMS, default="min")
    p.add_argument("--tconorm", choices=TCONORMS, default="max")
    p.add_argument("--overflow", choices=OVERFLOW_RULES, default="output")
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
    p.add_argument("--kind", choices=MATRIX_KINDS, default="graph")
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
    except DocumentError as exc:
        print(f"document error: {exc}", file=sys.stderr)
        return 2
    except (NeutrosetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        if args.debug:
            raise
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
