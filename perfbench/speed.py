"""Fixed reference work that measures how fast the machine runs right now.

On a shared VM the same Python code runs up to ~1.6x slower or faster from
one minute to the next, in CPU time as well as wall time, so raw times from
two sets of runs taken minutes apart do not agree. The benchmark therefore
samples a fixed piece of reference work, which touches no package code,
between calls, and scales each time by ``nominal / median(sample time)``:
times are reported at the speed where the reference takes its nominal time.

Different code feels the host's slowdowns differently, so each workload
picks the reference that tracks its calls (``Workload.speed``). By default
in-process calls are scaled by ``reference_loop`` (small frozen objects,
float arithmetic with ``math.pow``, Fractions, JSON, compiling and running
a little code). Child processes (CLI calls, set-up runs) are scaled by a
child interpreter that imports numpy and the stdlib modules the CLI
imports: right after a child exits, the in-process loop runs on cold
caches and tracks nothing. ``volume_mc`` and ``algebra_exact`` bring
references shaped like their own calls.

The speed changes within a run too, so each time is scaled by the sample
nearest to it, not by one figure per run. Over the same eight runs of each
workload, the nearest sample gave steadier times than the median of the
nine nearest (spread of ``wall_s`` 1.5-4.2 % against 3.5-7.0 %).
"""

from __future__ import annotations

import bisect
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

#: The loop's median time on the machine the reference figures come from.
NOMINAL_S = 0.012
#: Seconds between two samples of the loop while a workload runs.
INTERVAL_S = 0.25
#: What the reference child runs, its median time, and seconds between samples.
CHILD_CODE = "import numpy, json, fractions, argparse, hashlib, dataclasses, enum"
CHILD_NOMINAL_S = 0.25
CHILD_INTERVAL_S = 0.6


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    z: float


_rng = random.Random(20191118)
_ROWS = [(_rng.random(), _rng.random(), _rng.random()) for _ in range(1500)]
_FRACTIONS = [(Fraction(_rng.randint(1, 50), _rng.randint(51, 99)), Fraction(_rng.randint(1, 50), _rng.randint(51, 99)))
              for _ in range(300)]
_DOC = {f"k{i}": [i * 0.5, str(i)] for i in range(1200)}
_FLOATS = [_rng.random() for _ in range(1500)]
_SOURCE = "\n".join(f"def f{i}(a, b):\n    return [a * k + b for k in range({i})]" for i in range(40))


def reference_loop() -> float:
    acc = 0.0
    for p in [_Point(x, y, z) for x, y, z in _ROWS]:
        acc += min(p.x, p.y) * p.z + max(p.y, p.z)
    for p, q in _FRACTIONS:
        acc += float(p * q + p - q)
    for x in _FLOATS:
        acc = acc + math.pow(x, 3.5) + x * x
    acc += len(json.loads(json.dumps(_DOC)))
    namespace: dict = {}
    exec(compile(_SOURCE, "<reference>", "exec"), namespace)
    return acc + len(namespace["f39"](1, 2))


def reference_child(env: dict) -> None:
    subprocess.run([sys.executable, "-c", CHILD_CODE], env=env, check=True, timeout=60)


class Speed:
    """Samples of a reference, (start time, seconds), taken while a workload runs."""

    def __init__(self, reference=reference_loop, nominal: float = NOMINAL_S, interval: float = INTERVAL_S):
        self.reference = reference
        self.nominal = nominal
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.last = time.perf_counter()

    @classmethod
    def for_children(cls, env: dict) -> "Speed":
        return cls(lambda: reference_child(env), CHILD_NOMINAL_S, CHILD_INTERVAL_S)

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        self.last = time.perf_counter()
        self.samples.append((t0, self.last - t0))

    def due(self, now: float) -> bool:
        return now - self.last >= self.interval

    def slowdown(self) -> float:
        """How much slower than nominal the machine ran overall: median sample over the nominal time."""
        return statistics.median(d for _, d in self.samples) / self.nominal

    def slowdowns_at(self, stamps) -> list[float]:
        """The local slowdown at each timestamp: the nearest sample over the nominal time."""
        starts = [t for t, _ in self.samples]
        out = []
        for x in stamps:
            i = bisect.bisect_left(starts, x)
            if i == len(starts) or (i > 0 and x - starts[i - 1] <= starts[i] - x):
                i -= 1
            out.append(self.samples[i][1] / self.nominal)
        return out
