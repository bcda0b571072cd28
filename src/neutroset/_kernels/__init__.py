"""Hot-loop kernels: the Monte-Carlo counting kernel, in numpy.

``count_satisfying`` counts the rows of a sample block that a family
constraint admits; ``perfbench/`` measures its throughput.
"""

from __future__ import annotations

import math

import numpy as np

# Half-width of the band around the limit in which the general-exponent path
# recounts rows with ``math.pow``. ``np.power`` may differ from ``math.pow`` by
# 1 ulp, so the numpy sum can differ from a ``math.pow`` sum taken in the same
# order. Families have at most three components, each in [0, 1), so every term
# is <= 1 (off by <= 1 ulp = 2**-52) and every partial sum is <= 3 (one
# rounding of <= 1 ulp = 2**-51 per addition). After three terms the two sums
# differ by at most 3 * (2**-52 + 2**-51) ~= 2e-15, far inside 1e-12: a row
# outside the band compares with the limit the same way under either pow.
_RECHECK_BAND = 1e-12


def backend_name() -> str:
    return "numpy"


def count_satisfying(samples, exponent: float, bound: float, tol: float, columns: int) -> int:
    """Count rows of ``samples`` whose powered component sum stays within ``bound + tol``.

    ``samples`` is a 2-D float64 array of points in the unit hypercube.
    Only the first ``columns`` entries of each row enter the sum (families
    may constrain a subset of the sampled components). The count equals
    that of a Python loop summing each row left to right, with ``math.pow``
    for general exponents, so it is a pure function of the sample block.
    """
    limit = bound + tol
    acc = np.zeros(samples.shape[0])
    for j in range(columns):
        c = samples[:, j]
        if exponent == 1.0:
            acc += c
        elif exponent == 2.0:
            acc += c * c
        else:
            acc += np.power(c, exponent)
    if exponent == 1.0 or exponent == 2.0:
        # addition and multiplication are correctly rounded, as in a Python loop
        return int(np.count_nonzero(acc <= limit))
    off = acc - limit
    hits = int(np.count_nonzero(off < -_RECHECK_BAND))
    for row in samples[np.abs(off) <= _RECHECK_BAND, :columns].tolist():
        s = 0.0
        for x in row:
            s = s + math.pow(x, exponent)
        if s <= limit:
            hits += 1
    return hits
