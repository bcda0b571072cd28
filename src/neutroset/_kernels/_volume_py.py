"""Pure-Python counting kernel for Monte-Carlo volume estimation.

Each row is accumulated left to right with ``math.pow`` for general
exponents, so a hit count is a pure function of the sample block.
"""

from __future__ import annotations

import math


def count_satisfying(samples, exponent: float, bound: float, tol: float, columns: int = -1) -> int:
    """Count rows of ``samples`` whose powered component sum stays within ``bound + tol``.

    ``samples`` is a 2-D float64 array of points in the unit hypercube.
    When ``columns`` is nonnegative only the first ``columns`` entries of
    each row enter the sum (used by families that constrain a subset of
    the sampled components).
    """
    ncols = samples.shape[1] if columns < 0 else columns
    limit = bound + tol
    hits = 0
    rows = samples.tolist()
    if exponent == 1.0:
        for row in rows:
            acc = 0.0
            for j in range(ncols):
                acc = acc + row[j]
            if acc <= limit:
                hits += 1
    elif exponent == 2.0:
        for row in rows:
            acc = 0.0
            for j in range(ncols):
                acc = acc + row[j] * row[j]
            if acc <= limit:
                hits += 1
    else:
        for row in rows:
            acc = 0.0
            for j in range(ncols):
                acc = acc + math.pow(row[j], exponent)
            if acc <= limit:
                hits += 1
    return hits
