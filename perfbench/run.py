#!/usr/bin/env python3
"""The neutroset benchmark: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package need not be installed; ``src``
is put on the path):

    python3 perfbench/run.py --workload sets_large --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Other modes:

    --spread --runs 10         run one workload repeatedly, print median and quartiles
    --self-test                feed every output check a planted wrong output
    --loads-scaling            time documents.loads at 1k/10k/20k elements once
    --write-benchmark-json     write BENCHMARK.json from the definitions below

See perfbench/README.md for the workloads, the metrics and the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

import harness
from harness import OUT, ROOT, SRC, Recorder, median
from speed import Speed

WORKLOADS = {
    "sets_large": "this is the set layer (documents, setwise, transforms) on 3,000-element documents, where "
                  "the quadratic check in documents.loads shows; it reads and writes documents",
    "cli_small": "this is what a CLI user waits for: interpreter start and import dominate, and four "
                 "malformed calls show whether user errors exit 2 without a traceback",
    "volume_mc": "this is the Monte-Carlo counting kernel under the sum, square and pow exponent paths, "
                 "at sample counts below and well above the 65,536-sample block",
    "algebra_exact": "this is the scalar Fraction path that stays the oracle for exact inputs: construction, "
                     "validate, the four operator systems, embeddings, refinement and a + bI products",
}

#: End-to-end metrics: (name, unit, better, bound). Bounds come from measured spread (README).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("items_per_s", "1/s", "higher", 0.24),
    ("call_p50_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: Seconds one run measures.
RUN_SECONDS = 20
#: Set-up runs per measurement; the first is discarded (it compiles bytecode).
SETUP_RUNS = 5
#: Rounds every run makes at least (one traced and one untraced with --trace 1).
MIN_ROUNDS = 2


def workload_module(name: str):
    import importlib

    return importlib.import_module(f"workloads.{name}")


def layer_definitions() -> list:
    return [row for name in WORKLOADS for row in workload_module(name).LAYERS]


def per_layer_names() -> list[tuple[str, str]]:
    names = [("trace.overhead_pct", "%")]
    for base, metric, kind, unit in layer_definitions():
        names.append((metric, unit))
        if kind == "rate":
            names.append((f"{base}_items", "count"))
        names.append((f"{base}_calls", "count"))
    return names


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": "lower" if u in ("us", "ms", "%") else "higher"}
                      for n, u in per_layer_names()],
    }


# --- one run ---------------------------------------------------------------------


def setup_probe(args) -> int:
    """Import the package and generate the workload's inputs, then exit (timed by the parent)."""
    wl = workload_module(args.workload).Workload(args.seed)
    wl.close()
    return 0


def measure_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import the package and generate the inputs.

    Returns (median at nominal speed, raw median); each process's time is
    scaled by reference-child samples taken just before and after it.
    """
    speed = Speed.for_children(harness.child_env())
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    spans = []
    for k in range(SETUP_RUNS + 1):
        speed.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=harness.child_env(), check=True, timeout=120)
        if k:
            spans.append((t0, time.perf_counter() - t0))
    speed.sample()
    factors = speed.slowdowns_at([t for t, _ in spans])
    return median([d / f for (_, d), f in zip(spans, factors)]), median([d for _, d in spans])


def run(args) -> dict:
    from neutroset import _kernels

    setup = measure_setup(args)
    module = workload_module(args.workload)
    wl = module.Workload(args.seed)
    rec = Recorder(wl.speed())
    try:
        wl.warm_up()
        gc.collect()
        gc.freeze()
        rounds, problems, failed, peak = harness.run_rounds(wl, rec, args.seconds, bool(args.trace), MIN_ROUNDS)
        if args.trace:
            metrics = trace_metrics(args, wl, rec, rounds)
        else:
            metrics = end_to_end(wl, rec, rounds, setup[0], peak)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "python": sys.version.split()[0], "kernel_backend": _kernels.backend_name(),
                  "raw_round_times_s": [t1 - t0 for _, _, t0, t1, _ in rounds],
                  "traced_rounds": [tr for *_, tr in rounds], "raw_setup_s": setup[1],
                  "raw_call_p50_ms": median(rec.durations) * 1e3, "slowdown": rec.speed.slowdown(),
                  "reference_samples": len(rec.speed.samples), "problems": problems[:20]}
    finally:
        wl.close()
    result = {"correct": not problems, "attempted": wl.calls_per_round * len(rounds), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record["result"] = result
    write_record(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    if args.trace:
        write_record(f"trace-{args.workload}-seed{args.seed}.json",
                     {"fields": ["name", "parent", "start_s", "end_s", "items", "round"], "spans": rec.spans})
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return result


def end_to_end(wl, rec, rounds, setup_s, peak_kib: int) -> dict:
    """Times at nominal machine speed: each call scaled by the local slowdown (speed.py)."""
    scaled = rec.scaled_durations()
    wall = median([sum(scaled[first:end]) for first, end, *_ in rounds])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (wl.items_per_round / wall, "1/s"),
        "call_p50_ms": (median(scaled) * 1e3, "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def trace_metrics(args, wl, rec, rounds) -> dict:
    """Per-layer metrics: this workload's traced rounds and layer probe, small probes of the others.

    The tracing overhead compares traced with untraced rounds by their wall
    time less the reference's, at nominal speed.
    """
    wl.layer_probe(rec)
    rec.speed.sample()
    metrics = harness.layer_metrics(rec.spans, workload_module(args.workload).LAYERS, rec.speed)
    for name in WORKLOADS:
        if name != args.workload:
            module = workload_module(name)
            other = module.Workload(args.seed, small=True)
            probe = Recorder(other.speed())
            try:
                probe.speed.sample()
                other.layer_probe(probe)
                probe.speed.sample()
            finally:
                other.close()
            metrics.update(harness.layer_metrics(probe.spans, module.LAYERS, probe.speed))
    workload_module("cli_small").adjust_layers(metrics)
    factors = rec.speed.slowdowns_at([(t0 + t1) / 2 for _, _, t0, t1, _ in rounds])
    work = {True: [], False: []}
    for (_, _, t0, t1, traced), factor in zip(rounds, factors):
        reference = sum(d for t, d in rec.speed.samples if t0 <= t < t1)
        work[traced].append((t1 - t0 - reference) / factor)
    metrics["trace.overhead_pct"] = (100.0 * (median(work[True]) / median(work[False]) - 1.0), "%")
    return dict(sorted(metrics.items()))


def write_record(name: str, payload: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(payload, indent=1) + "\n")


# --- spread mode ---------------------------------------------------------------------


def spread(args) -> int:
    """Run one workload ``--runs`` times with consecutive seeds; print each metric's median and quartiles."""
    bounds = {n: b for n, _, _, b in END_TO_END}
    values: dict[str, list] = {}
    shares = set()
    for k in range(args.runs):
        seed = args.seed + k
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            print(p.stderr, file=sys.stderr)
            return 1
        result = json.loads(p.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if not args.trace:
            # unscaled figures, for comparison with the scaled metrics
            record = json.loads((OUT / f"{args.workload}-seed{seed}-trace0.json").read_text())
            for name, value in (("raw.setup_s", record["raw_setup_s"]),
                                ("raw.round_s", median(record["raw_round_times_s"])),
                                ("raw.call_p50_ms", record["raw_call_p50_ms"]),
                                ("slowdown", record["slowdown"])):
                values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              file=sys.stderr)
    summary = {}
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s; (failed share, correct): {sorted(shares)}")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, q2, q3 = harness.quartiles(vals)
        rel = (q3 - q1) / q2 if q2 else float("nan")
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": rel, "values": vals}
        bound = bounds.get(name)
        print(f"{name:<40} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3f} {bound if bound else '':>6}")
    write_record(f"spread-{args.workload}-trace{args.trace}-seed{args.seed}.json",
                 {"runs": args.runs, "seconds": args.seconds, "failed_share_correct": sorted(shares),
                  "metrics": summary})
    return 0


# --- one-off scaling of documents.loads -------------------------------------------------


def loads_scaling(args) -> int:
    """documents.loads once per size, against json.loads of the same text."""
    import random

    from neutroset import documents
    from workloads.sets_large import make_rows

    for n in (1_000, 10_000, 20_000):
        names = [f"x{k:05d}" for k in range(n)]
        rows = make_rows(random.Random(args.seed), "NS", n)
        text = json.dumps({"format_version": 1, "family": {"kind": "NS"}, "universe": names,
                           "elements": dict(zip(names, rows))})
        t0 = time.perf_counter()
        json.loads(text)
        t1 = time.perf_counter()
        documents.loads(text)
        t2 = time.perf_counter()
        print(f"{n:>7} elements: documents.loads {t2 - t1:8.3f} s   json.loads {t1 - t0:8.4f} s")
    return 0


# --- entry point ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--loads-scaling", action="store_true")
    parser.add_argument("--write-benchmark-json", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.self_test:
        import selftest

        return selftest.main()
    if args.loads_scaling:
        return loads_scaling(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    if args.spread:
        return spread(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (SRC / "neutroset" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}; run from the root of a neutroset checkout",
              file=sys.stderr)
        sys.exit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed hash seed makes dict and set layouts repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv], harness.child_env())
    sys.path.insert(0, str(SRC))
    sys.exit(main())
