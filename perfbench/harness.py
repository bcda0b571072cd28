"""Timing, spans and statistics shared by the workloads.

A workload runs in whole rounds: the same fixed operations each time. The
recorder times every top-level call of a round; with tracing on it also
keeps one span per call (name, parent span, start, end, items, round),
in memory, for the per-layer metrics and the trace file written at the end.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import time
from array import array
from pathlib import Path

from speed import Speed

#: The checkout the benchmark runs in, and the package sources inside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Results, traces and temporary input files; ignored by git.
OUT = ROOT / "perfbench" / "out"


def child_env() -> dict:
    """Environment for child interpreters: the package on the path, a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


class Recorder:
    """Per-call timings of the timed rounds, plus spans while tracing.

    Between calls, whenever the speed's interval has passed, its reference
    runs once (outside every timed call) to sample the machine's speed.
    """

    def __init__(self, speed: Speed):
        self.starts = array("d")
        self.durations = array("d")
        self.tracing = False
        self.round_no = 0
        self.spans: list[tuple] = []
        self._parent = -1
        self.speed = speed

    def call(self, name: str, items: int, fn, *args, **kwargs):
        """One top-level call into the package: timed, and traced when tracing."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        if self.tracing:
            self.spans.append((name, self._parent, t0, t1, items, self.round_no))
        if self.speed.due(t1):
            self.speed.sample()
        return out

    def inner(self, name: str, items: int, fn, *args, **kwargs):
        """A layer call inside a top-level call: a span while tracing, otherwise just the call."""
        if not self.tracing:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, self._parent, t0, time.perf_counter(), items, self.round_no))
        return out

    def scaled_durations(self) -> array:
        """Each call's duration at nominal speed: divided by the local slowdown."""
        factors = self.speed.slowdowns_at(self.starts)
        return array("d", (d / f for d, f in zip(self.durations, factors)))

    def span(self, name: str, items: int, fn, *args, **kwargs):
        """A layer measurement outside the timed rounds: a span only."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.spans.append((name, self._parent, t0, t1, items, self.round_no))
        if self.speed.due(t1):
            self.speed.sample()
        return out

    @contextlib.contextmanager
    def group(self, name: str, items: int = 0):
        """A parent span around several calls (only kept while tracing)."""
        if not self.tracing:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent, self._parent = self._parent, idx
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._parent = parent
            self.spans[idx] = (name, parent, t0, time.perf_counter(), items, self.round_no)


class Untimed:
    """Stands in for the recorder where nothing is timed (warm-up, counting calls)."""

    @staticmethod
    def call(name, items, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    inner = call

    @staticmethod
    @contextlib.contextmanager
    def group(name, items=0):
        yield


def run_rounds(workload, rec: Recorder, seconds: float, trace: bool, min_rounds: int):
    """Run whole rounds for about ``seconds``; return (rounds, problems, failed, peak RSS).

    Each round is (first call, end call, start time, end time, traced): its
    calls are ``rec.durations[first:end]``. The peak resident set in KiB is
    read after the first round, before the run's own per-call records have
    grown: this process's, or for work in child processes the largest child's
    own (``workload.children_peak_kib``).

    A round starts while at least half a typical round still fits in the
    budget, and at least ``min_rounds`` rounds run. Garbage is collected
    between rounds, never inside one. With tracing, every other round is
    traced, so the two kinds of round give the tracing overhead. The first
    round's outputs are checked in full; ``workload.check`` returns a
    reference that later rounds are checked against.
    """
    rounds, times, problems = [], [], []
    failed = 0
    peak = None
    reference = None
    start = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - start + 0.5 * median(times) < seconds:
        n = len(times)
        rec.round_no = n
        rec.tracing = trace and n % 2 == 1
        first = len(rec.durations)
        gc.collect()
        gc.disable()
        t0 = time.perf_counter()
        try:
            outputs = workload.round(rec)
        finally:
            t1 = time.perf_counter()
            times.append(t1 - t0)
            rounds.append((first, len(rec.durations), t0, t1, rec.tracing))
            gc.enable()
            rec.tracing = False
        if peak is None:
            peak = (workload.children_peak_kib(outputs) if workload.in_children
                    else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        found, bad, reference = workload.check(outputs, reference)
        problems += [f"round {n}: {p}" for p in found]
        failed += bad
    return rounds, problems, failed, peak


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def layer_metrics(spans, layers, speed) -> dict:
    """Per-layer values from spans: rates over busy time, or median per-call times.

    Every span's duration is first divided by the local slowdown (speed.py).

    ``layers`` holds (span name, metric, kind, unit) rows, where kind
    is ``rate`` (items per busy second), ``us`` or ``ms`` (median per call).
    Every layer also reports its call count as ``<span name>_calls``, and
    every rate its item count as ``<span name>_items``.
    """
    grouped: dict[str, list] = {}
    for s, factor in zip(spans, speed.slowdowns_at([s[2] for s in spans])):
        grouped.setdefault(s[0], []).append(((s[3] - s[2]) / factor, s[4]))
    out = {}
    for base, metric, kind, unit in layers:
        rows = grouped.get(base, [])
        durations = [d for d, _ in rows]
        if kind == "rate":
            items = sum(n for _, n in rows)
            out[metric] = (items / sum(durations) if durations else 0.0, unit)
            out[f"{base}_items"] = (items, "count")
        else:
            scale = 1e6 if kind == "us" else 1e3
            out[metric] = (median(durations) * scale if durations else 0.0, unit)
        out[f"{base}_calls"] = (len(rows), "count")
    return out
