"""volume_mc: Monte-Carlo family volumes through the counting kernel.

Per round, ``estimate_family_volume`` runs for FS, IIFS, PyFS, SFS, NS,
QROFS(1.7) and NHSFS(3.5), each at sample counts below and well above the
65,536-sample block. That covers the kernel's sum, square and ``math.pow``
paths and FS's one-column case.
"""

from __future__ import annotations

import numpy as np

import oracle
from speed import Speed
from neutroset import _kernels
from neutroset.families import FamilyKind, FamilySpec, estimate_family_volume

FAMILIES = (("FS", None), ("IIFS", None), ("PyFS", None), ("SFS", None), ("NS", None),
            ("QROFS", 1.7), ("NHSFS", 3.5))
SAMPLES = (8_000, 40_000, 150_000)
SMALL_SAMPLES = (4_000, 70_000)
#: Rows per generated block in ``estimate_family_volume``.
BLOCK = 1 << 16
#: Speed reference: the oracle's counting loop on a fixed block, one pass per exponent path.
REFERENCE_BLOCK = np.random.Generator(np.random.Philox(20191118)).random((3000, 3))
REFERENCE_NOMINAL_S = 0.0066

LAYERS = [
    ("families.estimate_volume", "families.estimate_volume_samples_per_s", "rate", "1/s"),
    ("kernels.count", "kernels.count_samples_per_s", "rate", "1/s"),
]


class Workload:
    name = "volume_mc"
    #: Whether the work runs in child processes (then peak RSS is the largest child's own).
    in_children = False

    def __init__(self, seed: int, small: bool = False):
        self.small = small
        self.calls = []
        for kind, exponent in FAMILIES:
            spec = FamilySpec(FamilyKind(kind), exponent)
            for n in SMALL_SAMPLES if small else SAMPLES:
                self.calls.append((kind, exponent, spec, n, seed * 1000 + len(self.calls)))
        self.calls_per_round = len(self.calls)
        self.items_per_round = sum(c[3] for c in self.calls)

    @staticmethod
    def speed() -> Speed:
        """This VM's speed changes hit a tight float loop and the allocation-heavy
        default reference differently, so the kernel is scaled by a loop like itself."""
        return Speed(reference_count, REFERENCE_NOMINAL_S)

    def warm_up(self) -> None:
        for _, _, spec, _, call_seed in self.calls:
            estimate_family_volume(spec, 1000, call_seed)

    def round(self, rec) -> list[float]:
        return [rec.call("families.estimate_volume", n, estimate_family_volume, spec, n, call_seed).estimate
                for _, _, spec, n, call_seed in self.calls]

    def check(self, estimates: list, reference) -> tuple[list, int, object]:
        """First round: closed form and an exact recount. Later rounds: the same estimates."""
        if reference is not None:
            return ([] if estimates == reference else ["estimates differ from the first round"]), 0, reference
        problems = []
        for (kind, exponent, _, n, _), est in zip(self.calls, estimates):
            problems += oracle.check_estimate(kind, exponent, n, est)
        smallest = min(c[3] for c in self.calls)
        for (kind, exponent, _, n, call_seed), est in zip(self.calls, estimates):
            if n == smallest:
                problems += recount(kind, exponent, n, call_seed, est)
        return problems, 0, estimates

    def layer_probe(self, rec) -> None:
        """Small: one traced round. Always: the kernel alone on the same sample blocks."""
        if self.small:
            rec.tracing = True
            self.round(rec)
            rec.tracing = False
        for kind, exponent, _, n, call_seed in self.calls:
            arity, cols, e, bound = oracle.family_shape(kind, exponent)
            gen = np.random.Generator(np.random.Philox(call_seed))
            remaining = n
            while remaining > 0:
                m = min(BLOCK, remaining)
                block = gen.random((m, arity))
                rec.span("kernels.count", m, _kernels.count_satisfying, block, float(e), float(bound),
                         oracle.SLACK, cols)
                remaining -= m

    def close(self) -> None:
        pass


def reference_count() -> int:
    return sum(oracle.count_hits(REFERENCE_BLOCK, 3, e, 1.0) for e in (1.0, 2.0, 3.5))


def recount(kind: str, exponent, n: int, call_seed: int, estimate: float) -> list:
    """Hits on the first ``n`` rows of the call's Philox stream, counted by the oracle's own loop."""
    arity, cols, e, bound = oracle.family_shape(kind, exponent)
    if n > BLOCK:
        return [f"{kind}: recount covers one block, not {n} samples"]
    block = np.random.Generator(np.random.Philox(call_seed)).random((n, arity))
    hits = oracle.count_hits(block, cols, float(e), float(bound))
    if hits != round(estimate * n):
        return [f"{kind}: {round(estimate * n)} hits in {n} samples, recount gives {hits}"]
    return []
