import math

import numpy as np
import pytest

from neutroset import _kernels
from neutroset._kernels import _volume_py
from neutroset.core import UsageError
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    analytic_family_volume,
    estimate_family_volume,
)

SFS = FamilySpec(FamilyKind.SFS)
SIMPLEX = FamilySpec(FamilyKind.NHSFS, 1.0)


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

    def test_column_restriction(self):
        block = self._block(10_000, 2)
        # restricting to the first column counts membership-only constraints
        everything = _kernels.count_satisfying(block, 1.0, 1.0, 1e-9, 1)
        assert everything == 10_000

    def test_partition_invariance(self):
        # the stream is consumed sequentially, so block size cannot matter
        import neutroset.families as families

        original = families._SAMPLE_BLOCK
        try:
            families._SAMPLE_BLOCK = 1 << 8
            small_blocks = estimate_family_volume(SFS, 30_000, seed=11)
        finally:
            families._SAMPLE_BLOCK = original
        whole = estimate_family_volume(SFS, 30_000, seed=11)
        assert small_blocks.estimate == whole.estimate

    def test_python_fallback_oracle_loop(self):
        # brute-force recount, row by row, independent of the kernel code path
        block = self._block(2_000, 3, seed=5)
        want = sum(1 for x, y, z in block.tolist() if x * x + y * y + z * z <= 1 + 1e-9)
        assert _volume_py.count_satisfying(block, 2.0, 1.0, 1e-9, 3) == want
