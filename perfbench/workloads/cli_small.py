"""cli_small: a fixed mix of ``neutroset.cli --format json`` calls on small documents.

Each call is a child interpreter that runs the module as ``python -m`` does
and reports its own peak resident set at exit (``LAUNCH``).

One round runs the mix once, one child process at a time: ``validate``
(passing and failing), ``op`` under all four systems (two with ``--out``),
``transform sup|normalize``, ``demo --all``, ``volume`` at 20,000 samples,
``refined``, ``matrix --emit``, the four ``decide`` modes, and four
malformed calls whose correct outcome is exit 2 with a one-line message and
no traceback. The malformed calls and their inputs do not depend on the
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np

import oracle
from harness import OUT, ROOT, child_env
from speed import Speed

NS_ELEMENTS, IFS_ELEMENTS, IIFS_ELEMENTS = 40, 60, 120
VOLUME_SAMPLES = 20_000
CALL_TIMEOUT_S = 60

#: Calls whose correct outcome is exit 2 with a one-line message.
MALFORMED = {
    "three_ways_missing_thresholds": ["decide", "three-ways", "--scores", "0.9,0.5,0.1"],
    "n_ways_bad_arity": ["decide", "n-ways", "--scores", "0.9,0.6", "--cuts", "0.25,0.5,0.75",
                         "--arities", "1,x,2"],
    "volume_negative_seed": ["volume", "--family", "SFS", "--samples", "1000", "--seed", "-1"],
    "exponent_not_a_number": ["validate", "{bad}"],
}
BAD_DOCUMENT = {"format_version": 1, "family": {"kind": "QROFS", "exponent": "abc"},
                "universe": ["x"], "elements": {"x": [0.5, 0.5]}}

LAYERS = [
    ("cli.interp_start", "cli.interp_start_ms", "ms", "ms"),
    ("cli.import", "cli.import_ms", "ms", "ms"),
    ("cli.main", "cli.main_ms", "ms", "ms"),
    ("demos.run_all", "demos.run_all_ms", "ms", "ms"),
]


def _document(kind: str, rows: list) -> dict:
    names = [f"e{k:03d}" for k in range(len(rows))]
    return {"format_version": 1, "family": {"kind": kind}, "universe": names, "elements": dict(zip(names, rows))}


#: Runs the CLI as ``python -m`` does (``runpy``), and at exit writes the child's
#: own peak resident set (``VmHWM``, KiB) to the pipe whose descriptor is
#: formatted in. The child's ``ru_maxrss`` cannot give it: at exec, Linux counts
#: the spawning process's peak in the child's, so every child would report at
#: least the benchmark process's own peak.
LAUNCH = (
    "import atexit, os, runpy\n"
    "def _peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        os.write({fd}, next(line for line in f if line.startswith('VmHWM:')).split()[1].encode())\n"
    "atexit.register(_peak)\n"
    "runpy.run_module('neutroset.cli', run_name='__main__', alter_sys=True)\n"
)


def run_cli(argv: list, env: dict) -> tuple[int, str, str, int]:
    """One CLI call: exit code, stdout, stderr and the child's own peak resident set in KiB."""
    r, w = os.pipe()
    with os.fdopen(r, "rb") as peak:
        try:
            p = subprocess.run([sys.executable, "-c", LAUNCH.format(fd=w), "--format", "json", *argv], cwd=ROOT,
                               env=env, pass_fds=(w,), capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        finally:
            os.close(w)
        return p.returncode, p.stdout, p.stderr, int(peak.read() or 0)


class Workload:
    name = "cli_small"
    #: Whether the work runs in child processes (then peak RSS is the largest child's own).
    in_children = True

    def __init__(self, seed: int, small: bool = False):
        from workloads.sets_large import make_rows

        self.small = small
        self.seed = seed
        self.env = child_env()
        self.dir = OUT / f"cli-work-{id(self):x}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        self.docs = {}
        for kind, n in (("NS", NS_ELEMENTS), ("IFS", IFS_ELEMENTS), ("IIFS", IIFS_ELEMENTS)):
            for side in ("a", "b"):
                self.docs[f"{side}_{kind}"] = _document(kind, make_rows(rng, kind, n))
        for key, doc in self.docs.items():
            (self.dir / f"{key}.json").write_text(json.dumps(doc))
        (self.dir / "bad.json").write_text(json.dumps(BAD_DOCUMENT))
        self.grid = _grid(rng, 6)
        (self.dir / "graph.txt").write_text(self.grid)
        self.scores = [f"{rng.random():.3f}" for _ in range(12)]
        labels = ["cold", "cool", "mild", "warm", "hot"]
        self.sizes = {lab: rng.randint(1, 50) for lab in labels}
        self.groups = {lab: rng.choice(("accept", "neutral", "reject")) for lab in labels}
        self.amounts = [str(rng.randint(-40, 80)) for _ in range(3)]
        t = rng.uniform(0.1, 0.7)
        f = rng.uniform(0.0, 0.9) * (1 - t * t) ** 0.5
        w = rng.uniform(0.2, 0.8)
        self.refined_t = [f"{t * w:.4f}", f"{t * (1 - w):.4f}"]
        self.refined_f = [f"{f:.4f}"]
        self.commands = self._commands()
        self.calls_per_round = len(self.commands)
        self.items_per_round = len(self.commands)
        self._volume_hits = None

    def speed(self) -> Speed:
        """Calls start child interpreters, so the speed reference is a child too (speed.py)."""
        return Speed.for_children(self.env)

    def path(self, key: str) -> str:
        return str(self.dir / key)

    def _commands(self) -> list[tuple[str, list]]:
        p = self.path
        ns, ifs, iifs = (p(f"a_{k}.json") for k in ("NS", "IFS", "IIFS"))
        ns_b, ifs_b, iifs_b = (p(f"b_{k}.json") for k in ("NS", "IFS", "IIFS"))
        cmds = [
            ("validate", ["validate", ns]),
            ("validate_as_iifs", ["validate", ns, "--family", "IIFS"]),
            ("op_ns_and", ["op", "--op", "and", ns, ns_b, "--system", "NS"]),
            ("op_ifs_or_product_out", ["op", "--op", "or", ifs, ifs_b, "--system", "IFS", "--tnorm", "product",
                                       "--tconorm", "probsum", "--out", p("out_ifs.json")]),
            ("op_iifs_max_and_printed_out", ["op", "--op", "and", iifs, iifs_b, "--system", "IIFS-max",
                                             "--overflow", "printed", "--out", p("out_max.json")]),
            ("op_iifs_min_implies", ["op", "--op", "implies", iifs, iifs_b, "--system", "IIFS-min"]),
            ("transform_sup", ["transform", ns, "--method", "sup"]),
            ("transform_normalize_out", ["transform", iifs, "--method", "normalize", "--out", p("norm.json")]),
            ("demo", ["demo", "--all"]),
            ("volume", ["volume", "--family", "QROFS", "--exponent", "1.7", "--samples", str(VOLUME_SAMPLES),
                        "--seed", str(self.seed)]),
            ("refined", ["refined", "--kind", "RPyFS", "--t", ",".join(self.refined_t),
                         "--f", ",".join(self.refined_f)]),
            ("matrix", ["matrix", p("graph.txt"), "--kind", "graph", "--emit"]),
            ("three_ways", ["decide", "three-ways", "--scores", ",".join(self.scores), "--alpha", "0.7",
                            "--beta", "0.3"]),
            ("n_ways", ["decide", "n-ways", "--scores", ",".join(self.scores), "--cuts", "0.2,0.4,0.6,0.8",
                        "--arities", "2,1,2"]),
            ("neutrosophify", ["decide", "neutrosophify",
                               "--sizes", ",".join(f"{k}={v}" for k, v in self.sizes.items()),
                               "--groups", ",".join(f"{k}={v}" for k, v in self.groups.items())]),
            ("offset", ["decide", "offset", f"--amounts={','.join(self.amounts)}", "--norm", "40"]),
        ]
        cmds += [(name, [a.replace("{bad}", p("bad.json")) for a in argv]) for name, argv in MALFORMED.items()]
        return cmds

    def warm_up(self) -> None:
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=ROOT, check=True)
        run_cli(self.commands[0][1], self.env)

    def round(self, rec) -> list:
        return [rec.call("cli.call", 1, run_cli, argv, self.env) for _, argv in self.commands]

    def check(self, results: list, reference) -> tuple[list, int, object]:
        """Every round: each call's exit code and output against the oracle; malformed calls count as failed."""
        problems, failed = [], 0
        for (name, _), (code, out, err, peak) in zip(self.commands, results):
            if name in MALFORMED:
                failed += not malformed_ok(code, err)
                continue
            if not peak:
                problems.append(f"{name}: no peak resident set reported")
            if "Traceback" in err:
                problems.append(f"{name}: traceback on stderr: {err.strip().splitlines()[-1]}")
                continue
            try:
                problems += [f"{name}: {p}" for p in getattr(self, f"_check_{name}")(code, out)]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems.append(f"{name}: unreadable output ({exc!r})")
        return problems, failed, reference

    @staticmethod
    def children_peak_kib(results: list) -> int:
        """The largest of one round's CLI calls' own peak resident sets."""
        return max(peak for *_, peak in results)

    # --- per-command checks -------------------------------------------------

    def _rows(self, key: str) -> list:
        doc = self.docs[key]
        return [doc["elements"][k] for k in doc["universe"]]

    def _check_validate_rows(self, code, out, key, kind) -> list:
        payload = json.loads(out)
        rows = self._rows(key)
        problems = []
        all_ok = True
        for got, row in zip(payload["rows"], rows):
            value, valid = oracle.constraint(row, kind)
            all_ok &= valid
            if not oracle.close(got["constraint"], value) or got["valid"] != valid:
                problems.append(f"element {got['element']}: {got}, expected constraint {value!r} valid={valid}")
            if got.get("region") != oracle.region(row):
                problems.append(f"element {got['element']}: region {got.get('region')}")
        if len(payload["rows"]) != len(rows) or payload["all_valid"] != all_ok:
            problems.append("row count or all_valid differs")
        if code != (0 if all_ok else 1):
            problems.append(f"exit {code}, expected {0 if all_ok else 1}")
        return problems[:3]

    def _check_validate(self, code, out):
        return self._check_validate_rows(code, out, "a_NS", "NS")

    def _check_validate_as_iifs(self, code, out):
        return self._check_validate_rows(code, out, "a_NS", "IIFS")

    def _check_op(self, code, out, kind, op, system, product=False, printed=False, written=None) -> list:
        payload = json.loads(out)
        widen = oracle.widen_pair if kind == "IFS" else tuple
        a_rows = [widen(r) for r in self._rows(f"a_{kind}")]
        b_rows = [widen(r) for r in self._rows(f"b_{kind}")]
        want = [oracle.apply_op(op, x, y, system, product, printed) for x, y in zip(a_rows, b_rows)]
        problems = [] if code == 0 else [f"exit {code}"]
        problems += oracle.rows_differ([r["a"] for r in payload["rows"]], a_rows, "operand a")
        problems += oracle.rows_differ([r["result"] for r in payload["rows"]], want, "result")
        result_kind = "IIFS" if system.startswith("IIFS") else system
        if payload["result_family"] != result_kind:
            problems.append(f"result family {payload['result_family']}, expected {result_kind}")
        if written:
            problems += self._check_written(written, result_kind, want)
        return problems

    def _check_written(self, key: str, kind: str, rows: list) -> list:
        doc = json.loads((self.dir / key).read_text())
        want = [(r[0], r[2]) for r in rows] if kind == "IFS" else rows
        if doc["family"] != {"kind": kind}:
            return [f"{key}: family {doc['family']}, expected {kind}"]
        return oracle.rows_differ([doc["elements"][k] for k in doc["universe"]], want, key)

    def _check_op_ns_and(self, code, out):
        return self._check_op(code, out, "NS", "and", "NS")

    def _check_op_ifs_or_product_out(self, code, out):
        return self._check_op(code, out, "IFS", "or", "IFS", product=True, written="out_ifs.json")

    def _check_op_iifs_max_and_printed_out(self, code, out):
        return self._check_op(code, out, "IIFS", "and", "IIFS-max", printed=True, written="out_max.json")

    def _check_op_iifs_min_implies(self, code, out):
        return self._check_op(code, out, "IIFS", "implies", "IIFS-min")

    def _check_transform_sup(self, code, out):
        payload = json.loads(out)
        denom, rows, refusals = oracle.sup_rescale(self._rows("a_NS"))
        problems = [] if code == 0 else [f"exit {code}"]
        if not oracle.close(payload["denominator"], denom):
            problems.append(f"denominator {payload['denominator']!r}, expected {denom!r}")
        problems += oracle.rows_differ([r["after"] for r in payload["rows"]], rows, "after")
        problems += oracle.rows_differ([[r["refusal"]] for r in payload["rows"]], [[x] for x in refusals], "refusal")
        return problems

    def _check_transform_normalize_out(self, code, out):
        payload = json.loads(out)
        rows = oracle.normalize_rows(self._rows("a_IIFS"))
        problems = [] if code == 0 else [f"exit {code}"]
        after = [r["after"] for r in payload["rows"]]
        problems += oracle.rows_differ(after, rows, "after") + oracle.check_sum_one(after, "after")
        return problems + self._check_written("norm.json", "IFS", rows)

    def _check_demo(self, code, out):
        payload = json.loads(out)
        if code != 0 or payload["failures"] != 0 or payload["checks"] < 1:
            return [f"exit {code}, {payload['checks']} checks, {payload['failures']} failures"]
        return []

    def _check_volume(self, code, out):
        payload = json.loads(out)
        if self._volume_hits is None:
            block = np.random.Generator(np.random.Philox(self.seed)).random((VOLUME_SAMPLES, 2))
            self._volume_hits = oracle.count_hits(block, 2, 1.7, 1.0)
        want = self._volume_hits / VOLUME_SAMPLES
        problems = [] if code == 0 else [f"exit {code}"]
        if payload["estimate"] != want or payload["samples"] != VOLUME_SAMPLES:
            problems.append(f"estimate {payload['estimate']!r}, recount gives {want!r}")
        if not oracle.close(payload["analytic"], oracle.closed_form_volume("QROFS", 1.7)):
            problems.append(f"analytic {payload['analytic']!r}")
        return problems + oracle.check_estimate("QROFS", 1.7, VOLUME_SAMPLES, payload["estimate"])

    def _check_refined(self, code, out):
        payload = json.loads(out)
        t = [float(x) for x in self.refined_t]
        f = [float(x) for x in self.refined_f]
        value, residual = oracle.rpyfs_hesitancy(t, f)
        valid = value <= 1 + oracle.SLACK
        problems = [] if code == (0 if valid else 1) else [f"exit {code}"]
        if not oracle.close(payload["constraint"], value) or payload["valid"] != valid:
            problems.append(f"constraint {payload['constraint']!r} valid={payload['valid']}, expected {value!r}")
        if valid and not oracle.close(payload["hesitancy"], residual):
            problems.append(f"hesitancy {payload['hesitancy']!r}, expected {residual!r}")
        return problems

    def _check_matrix(self, code, out):
        payload, end = json.JSONDecoder().raw_decode(out)
        grid = out[end + 1:]
        problems = [] if code == 0 else [f"exit {code}"]
        if grid != self.grid:
            problems.append("emitted grid differs from the input grid")
        facts = oracle.adjacency_facts(self.grid)
        for key, want in facts.items():
            if payload[key] != want:
                problems.append(f"{key} {payload[key]!r}, expected {want!r}")
        if payload["valid"] is not True:
            problems.append("graph grid reported invalid")
        return problems

    def _check_three_ways(self, code, out):
        payload = json.loads(out)
        labels, fractions = oracle.three_ways([float(s) for s in self.scores], 0.7, 0.3)
        problems = [] if code == 0 else [f"exit {code}"]
        if payload["labels"] != labels:
            problems.append(f"labels {payload['labels']}, expected {labels}")
        return problems + oracle.rows_differ([payload["partition"]], [fractions], "partition")

    def _check_n_ways(self, code, out):
        payload = json.loads(out)
        names, acc, non, rej = oracle.n_ways([float(s) for s in self.scores], [0.2, 0.4, 0.6, 0.8], (2, 1, 2))
        problems = [] if code == 0 else [f"exit {code}"]
        if payload["labels"] != names:
            problems.append(f"labels {payload['labels']}, expected {names}")
        got = [payload["accept_levels"], payload["noncommit_levels"], payload["reject_levels"]]
        return problems + oracle.rows_differ(got, [acc, non, rej], "levels")

    def _check_neutrosophify(self, code, out):
        payload = json.loads(out)
        want = oracle.neutrosophify(self.sizes, self.groups)
        problems = [] if code == 0 and payload["dependence"] == "sum-to-one" else [f"exit {code}"]
        return problems + oracle.rows_differ([payload["partition"]], [want], "partition")

    def _check_offset(self, code, out):
        payload = json.loads(out)
        degrees = [int(a) / 40.0 for a in self.amounts]
        problems = [] if code == 0 else [f"exit {code}"]
        problems += oracle.rows_differ([payload["degrees"]], [degrees], "degrees")
        if payload["classification"] != oracle.offset_class(degrees):
            problems.append(f"classification {payload['classification']}")
        if payload["within_bounds"] != all(0 <= d <= 1 for d in degrees):
            problems.append(f"within_bounds {payload['within_bounds']}")
        return problems

    # --- layers ----------------------------------------------------------------

    def layer_probe(self, rec) -> None:
        """Bare interpreter start, ``import neutroset.cli``, in-process ``main`` per command, ``demos.run_all``."""
        import neutroset.cli
        from neutroset import demos

        reps = 3 if self.small else 7
        for code, span in (("pass", "cli.interp_start"), ("import neutroset.cli", "cli.import")):
            for _ in range(reps):
                rec.span(span, 1, subprocess.run, [sys.executable, "-c", code], env=self.env, cwd=ROOT, check=True)
        for name, argv in self.commands:
            if name not in MALFORMED:
                rec.span("cli.main", 1, _quiet_main, neutroset.cli.main, ["--format", "json", *argv])
        for _ in range(reps):
            rec.span("demos.run_all", 1, demos.run_all)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def adjust_layers(metrics: dict) -> None:
    """``cli.import_ms`` is the import run's median less the bare interpreter's."""
    value, unit = metrics["cli.import_ms"]
    metrics["cli.import_ms"] = (value - metrics["cli.interp_start_ms"][0], unit)


def malformed_ok(code: int, err: str) -> bool:
    """A user error: exit 2, one line on stderr, no traceback."""
    return code == 2 and len(err.strip().splitlines()) == 1 and "Traceback" not in err


def _quiet_main(main, argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _grid(rng: random.Random, n: int) -> str:
    """A symmetric graph grid over {0, 1, I} with a zero diagonal, in canonical text form."""
    cells = [["0"] * n for _ in range(n)]
    for r in range(n):
        for c in range(r + 1, n):
            cells[r][c] = cells[c][r] = rng.choice(("0", "1", "I"))
    return "".join(" ".join(row) + "\n" for row in cells)
