"""Batch command-line surface.

Subcommands: ``validate``, ``op``, ``transform``, ``demo``, ``volume``,
``refined``, ``matrix``, ``decide``. Global flags select output format,
rounding, tolerance, and the sampling seed. Every command is deterministic
for fixed inputs and flags. Exit status 0 means all checks passed, 1 that a
check failed, 2 a usage or document error, 3 an internal error, 4 that
the output could not be written to stdout or to the ``--out`` file; a
reader that closes stdout early ends the call quietly, with the command's
own status.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
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
#: A token that starts with a negative number: ``-20,45``, ``-.5,1`` or ``-1e-3``.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _read(path: str) -> tuple[str, str]:
    """The text of the file at ``path`` and the digest of its bytes, from one read.

    The text is what ``Path.read_text(encoding="utf-8")`` gives, universal
    newlines included; a command that then writes ``--out`` over its input
    still reports the input's digest.
    """
    import hashlib

    data = Path(path).read_bytes()
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    return text, hashlib.sha256(data).hexdigest()[:16]


def _load(path: str, validate_elements: bool = True):
    """The document at ``path`` and the digest of the bytes it was parsed from."""
    from neutroset import documents

    text, digest = _read(path)
    return documents.loads(text, validate_elements), digest


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
    doc, digest = _load(args.file, validate_elements=False)
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
        "input_digest": digest,
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
    if op is Op.NOT and args.b is not None:
        raise UsageError(f"operator 'not' takes one operand file, got a second: {args.b!r}")
    if op is not Op.NOT and not args.b:
        raise UsageError(f"operator {op.value!r} needs a second operand file")
    doc_a, digest_a = _load(args.a)
    set_a = doc_a.to_labeled_set()
    set_b = None
    digest_b = None
    if op is not Op.NOT:
        doc_b, digest_b = _load(args.b)
        set_b = doc_b.to_labeled_set()
    result = setwise(set_a, set_b, op, sys_)
    if args.out:
        _dump(documents.dumps(documents.from_labeled_set(result)), args.out)
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
        "input_digest_a": digest_a,
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

    doc, digest = _load(args.file)
    labeled = doc.to_labeled_set()
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
        _dump(documents.dumps(documents.from_labeled_set(result)), args.out)
    payload = {
        "command": f"transform {args.method}",
        "input_digest": digest,
        "result_family": result.family.describe(),
        **extra,
        **({"written": args.out} if args.out else {}),
        "rows": rows,
    }
    _render(payload, args.format, args.round)
    return 0


class _OutputError(Exception):
    """A write of the result document failed: an output-side fault, as a failed stdout is (exit 4)."""


def _dump(text: str, path: str) -> None:
    """Write ``text`` to the file ``path``.

    A path that cannot be opened is the caller's error: its ``OSError`` goes up (exit 2). A failed write
    or close of the opened file raises :class:`_OutputError`.
    """
    out = open(path, "w", encoding="utf-8")
    try:
        with out:
            out.write(text)
    except OSError as exc:
        raise _OutputError(exc) from exc


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
        payload["refusal"] = float(res.v)
    _render(payload, args.format, args.round)
    return 0 if report.valid else 1


def _cmd_matrix(args) -> int:
    from neutroset import indeterminacy

    text, digest = _read(args.file)
    adj = indeterminacy.parse_adjacency(text)
    kind = indeterminacy.AdjacencyKind(args.kind)
    report = indeterminacy.adjacency_validate(adj, kind)
    payload = {
        "command": "matrix",
        "input_digest": digest,
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

    # argparse takes a token that starts like a negative number as a value, not an option; its own
    # pattern misses a list such as -20,45 or a number such as -1e-3
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    # the output, argparse's help among it, is held until the command has run, so that writing it out is
    # the one write to stdout and a failed write is told apart from an error of the input
    stdout, sys.stdout = sys.stdout, io.StringIO()
    code = None  # if the command raises (--debug, an interrupt), what it printed is still written
    try:
        code = _run(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse ends the call after --help or a usage error; its status is returned
        code = exc.code
    finally:
        output, sys.stdout = sys.stdout.getvalue(), stdout
        code = _write_output(output, code)
    return code


def _run(args) -> int:
    try:
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise UsageError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
        if args.round is not None and args.round < 0:
            raise UsageError(f"--round must be >= 0, got {args.round}")
        return args.fn(args)
    except _OutputError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 4
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


def _write_output(output: str, code: int | None) -> int | None:
    """Write ``output`` to stdout and return ``code``, or 4 if the write failed other than on a closed pipe."""
    if not output:  # a device such as /dev/full refuses even an empty write
        return code
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:
        # what stays unwritten goes to devnull, so that the flush at exit does not fail again
        # (the pattern of Python's note on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return code  # the reader stopped reading: that is its choice, not an error of this call
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
