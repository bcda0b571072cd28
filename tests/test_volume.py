import math
import os
import threading

import numpy as np
import pytest

import neutroset.families as families
from neutroset import _kernels
from neutroset.core import ABS_TOL, UsageError
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    analytic_family_volume,
    estimate_family_volume,
)

SFS = FamilySpec(FamilyKind.SFS)
SIMPLEX = FamilySpec(FamilyKind.NHSFS, 1.0)


def oracle_count(samples, exponent, bound, tol, columns=-1):
    """The counting loop in pure Python: each row summed left to right, ``math.pow`` for general exponents."""
    ncols = samples.shape[1] if columns < 0 else columns
    limit = bound + tol
    hits = 0
    for row in samples.tolist():
        acc = 0.0
        for j in range(ncols):
            if exponent == 1.0:
                acc = acc + row[j]
            elif exponent == 2.0:
                acc = acc + row[j] * row[j]
            else:
                acc = acc + math.pow(row[j], exponent)
        if acc <= limit:
            hits += 1
    return hits


def near_limit_rows(n, k, exponent, limit, seed):
    """Rows in [0, 1)^k within an ulp per component of the surface sum x^e = limit."""
    gen = np.random.Generator(np.random.Philox(seed))
    rows = gen.random((n, k))
    rows *= (limit / np.sum(rows**exponent, axis=1, keepdims=True)) ** (1.0 / exponent)
    nudge = gen.integers(-1, 2, size=rows.shape)
    rows = np.where(nudge > 0, np.nextafter(rows, 2.0), rows)
    rows = np.where(nudge < 0, np.nextafter(rows, 0.0), rows)
    return rows[np.all(rows < 1.0, axis=1)]


class TestAnalyticVolumes:
    """Pin the closed form against independently known constants and quadrature."""

    def test_sphere_octant(self):
        assert analytic_family_volume(SFS) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_simplex(self):
        assert analytic_family_volume(SIMPLEX) == pytest.approx(1 / 6, abs=1e-12)

    def test_quarter_disc(self):
        assert analytic_family_volume(FamilySpec(FamilyKind.PYFS)) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_triangle(self):
        assert analytic_family_volume(FamilySpec(FamilyKind.IFS)) == pytest.approx(0.5, abs=1e-12)

    def test_whole_cube_families(self):
        for spec in (
            FamilySpec(FamilyKind.NS),
            FamilySpec(FamilyKind.SNS),
            FamilySpec(FamilyKind.NHSNS, 2.0),
            FamilySpec(FamilyKind.FS),
        ):
            assert analytic_family_volume(spec) == 1.0

    def test_qrofs_formula_against_quadrature(self):
        # independent oracle: area under f = (1 - t^q)^(1/q) by midpoint rule
        q = 3.0
        n = 200_001
        xs = (np.arange(n) + 0.5) / n
        area = float(np.mean((1.0 - xs**q) ** (1.0 / q)))
        got = analytic_family_volume(FamilySpec(FamilyKind.QROFS, q))
        assert got == pytest.approx(area, abs=1e-6)


class TestEstimates:
    def test_sfs_within_three_sigma(self):
        est = estimate_family_volume(SFS, 100_000, seed=42)
        assert abs(est.estimate - math.pi / 6) <= 3 * est.std_error

    def test_simplex_within_three_sigma(self):
        est = estimate_family_volume(SIMPLEX, 100_000, seed=42)
        assert abs(est.estimate - 1 / 6) <= 3 * est.std_error

    def test_ns_is_exactly_one(self):
        est = estimate_family_volume(FamilySpec(FamilyKind.NS), 10_000, seed=1)
        assert est.estimate == 1.0 and est.std_error == 0.0

    def test_whole_cube_families_draw_no_samples(self, monkeypatch):
        def no_counting(*args):
            raise AssertionError("a family that admits the whole cube counted samples")

        monkeypatch.setattr(_kernels, "count_satisfying", no_counting)
        for spec in (
            FamilySpec(FamilyKind.NS),
            FamilySpec(FamilyKind.FS),
            FamilySpec(FamilyKind.SNS),
            FamilySpec(FamilyKind.NHSNS, 3.5),
        ):
            est = estimate_family_volume(spec, 150_000, seed=2019)
            assert (est.estimate, est.std_error, est.samples) == (1.0, 0.0, 150_000)

    def test_deterministic_per_seed(self):
        a = estimate_family_volume(SFS, 50_000, seed=7)
        b = estimate_family_volume(SFS, 50_000, seed=7)
        assert a.estimate == b.estimate
        c = estimate_family_volume(SFS, 50_000, seed=8)
        assert c.estimate != a.estimate

    def test_sample_count_validated(self):
        with pytest.raises(UsageError):
            estimate_family_volume(SFS, 0, seed=1)
        with pytest.raises(UsageError, match="seed"):
            estimate_family_volume(SFS, 1000, seed=-1)


class TestKernelBackends:
    def _block(self, n=100_000, k=3, seed=123):
        gen = np.random.Generator(np.random.Philox(seed))
        return gen.random((n, k))

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 1.7, 3.5])
    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("bound", [1.0, 3.0])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_kernel_equals_oracle(self, exponent, columns, bound, tol):
        block = self._block(20_000, 3, seed=columns)
        want = oracle_count(block, exponent, bound, tol, columns)
        assert _kernels.count_satisfying(block, exponent, bound, tol, columns) == want

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 1.7, 3.5])
    @pytest.mark.parametrize("columns", [2, 3])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_kernel_equals_oracle_at_the_limit(self, exponent, columns, tol):
        # rows within an ulp of the limit bound + tol, where np.power and
        # math.pow can disagree about the side; built around bound + tol, not
        # bound, since with tol = 1e-9 rows near bound lie outside the band
        block = near_limit_rows(20_000, columns, exponent, 1.0 + tol, seed=int(exponent * 10) + columns)
        assert len(block) > 1_000
        want = oracle_count(block, exponent, 1.0, tol)
        assert 0 < want < len(block)
        assert _kernels.count_satisfying(block, exponent, 1.0, tol, columns) == want

    def test_hit_counts_pinned(self):
        # hits over three 65,536-sample blocks, recorded with the pure-Python kernel
        pinned = {
            ("FS", None): 150_000,
            ("IIFS", None): 24_933,
            ("PyFS", None): 117_674,
            ("SFS", None): 78_562,
            ("NS", None): 150_000,
            ("QROFS", 1.7): 109_748,
            ("NHSFS", 3.5): 115_006,
        }
        for (kind, exponent), hits in pinned.items():
            est = estimate_family_volume(FamilySpec(FamilyKind(kind), exponent), 150_000, seed=2019)
            assert round(est.estimate * 150_000) == hits, kind

    def test_column_restriction(self):
        block = self._block(10_000, 2)
        # restricting to the first column counts membership-only constraints
        everything = _kernels.count_satisfying(block, 1.0, 1.0, 1e-9, 1)
        assert everything == 10_000

    def test_partition_invariance(self):
        # the stream is consumed sequentially, so block size cannot matter
        import neutroset.families as families

        specs = (SFS, FamilySpec(FamilyKind.QROFS, 1.7), FamilySpec(FamilyKind.NHSFS, 3.5))
        original = families._SAMPLE_BLOCK
        try:
            families._SAMPLE_BLOCK = 1 << 8
            small_blocks = [estimate_family_volume(spec, 30_000, seed=11) for spec in specs]
        finally:
            families._SAMPLE_BLOCK = original
        for spec, small in zip(specs, small_blocks):
            assert small.estimate == estimate_family_volume(spec, 30_000, seed=11).estimate

    def test_python_fallback_oracle_loop(self):
        # brute-force recount, row by row, independent of the kernel code path
        block = self._block(2_000, 3, seed=5)
        want = sum(1 for x, y, z in block.tolist() if x * x + y * y + z * z <= 1 + 1e-9)
        assert oracle_count(block, 2.0, 1.0, 1e-9, 3) == want
        assert _kernels.count_satisfying(block, 2.0, 1.0, 1e-9, 3) == want


SPLIT_FAMILIES = (
    FamilySpec(FamilyKind.IIFS),
    SFS,
    FamilySpec(FamilyKind.QROFS, 1.7),
    FamilySpec(FamilyKind.NHSFS, 3.5),
)


class TestChunkedCounting:
    """The sample range split into per-CPU chunks counts what one serial stream counts."""

    @pytest.mark.parametrize("samples", [40_000, 40_001, 40_003, 65_537, 131_075])
    @pytest.mark.parametrize("spec", SPLIT_FAMILIES, ids=lambda s: s.describe())
    def test_any_worker_count_gives_the_serial_hits(self, spec, samples):
        block = np.random.Generator(np.random.Philox(2019)).random((samples, spec.arity))
        serial = _kernels.count_satisfying(block, float(spec.effective_exponent), float(spec.bound),
                                           ABS_TOL, spec._row.columns)
        for workers in (1, 2, 3, 4):
            assert families._chunked_hits(spec, samples, 2019, workers) == serial, workers

    def test_one_chunk_per_cpu_and_never_more_than_blocks(self, monkeypatch):
        chosen = []
        monkeypatch.setattr(families, "_chunked_hits", lambda spec, n, seed, workers: chosen.append(workers) or 0)
        cpus = len(os.sched_getaffinity(0))
        for n in (20_000, 2 * families._SAMPLE_BLOCK, 10 * families._SAMPLE_BLOCK):
            estimate_family_volume(SFS, n, seed=1)
        assert chosen == [1, min(cpus, 2), min(cpus, 10)]

    def test_a_failing_chunk_raises_and_stops_the_others(self, monkeypatch):
        count = _kernels.count_satisfying
        running = set(threading.enumerate())
        main_started = threading.Event()
        main_blocks = []

        def fail_in_workers(block, *args):
            if threading.current_thread() is not threading.main_thread():
                main_started.wait(timeout=10)  # fail only once chunk 0 is past its first stop check
                raise ZeroDivisionError("chunk 1")
            main_started.set()
            for t in set(threading.enumerate()) - running:  # let the failing worker finish first
                t.join(timeout=10)
                assert not t.is_alive()
            main_blocks.append(len(block))
            return count(block, *args)

        monkeypatch.setattr(_kernels, "count_satisfying", fail_in_workers)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="chunk 1"):
            families._chunked_hits(SFS, 8 * families._SAMPLE_BLOCK, 7, 2)
        assert threading.active_count() == before
        assert main_blocks == [families._SAMPLE_BLOCK]  # chunk 0 stopped at its next block

    def test_an_interrupt_in_the_calling_thread_joins_every_worker(self, monkeypatch):
        count = _kernels.count_satisfying

        def interrupt_the_caller(block, *args):
            if threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            return count(block, *args)

        monkeypatch.setattr(_kernels, "count_satisfying", interrupt_the_caller)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            families._chunked_hits(SFS, 16 * families._SAMPLE_BLOCK, 7, 4)
        assert threading.active_count() == before
