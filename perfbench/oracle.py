"""Expected results computed apart from the package under test.

Nothing here imports ``neutroset``. Each function restates one rule of the
paper's algebra in plain Python (min/max and product/probabilistic-sum
norms, the four operator systems, the sup and per-element rescalings, the
family constraints, the Monte-Carlo count and its Gamma-function closed
form, the decision partitions, the adjacency grid). The ``check_*``
functions compare a program output with these and return a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: Constraint slack the package applies to every family bound.
SLACK = 1e-9

#: Absolute tolerance when a float result is compared with its recomputation.
FLOAT_TOL = 1e-12

# (arity, constrained columns, exponent, bound) per family tag.
FAMILIES = {
    "FS": (2, 1, 1, 1),
    "IFS": (2, 2, 1, 1),
    "IIFS": (3, 3, 1, 1),
    "NS": (3, 3, 1, 3),
    "PyFS": (2, 2, 2, 1),
    "SFS": (3, 3, 2, 1),
    "SNS": (3, 3, 2, 3),
}
#: Families whose exponent is a parameter: (arity, bound).
EXPONENT_FAMILIES = {"QROFS": (2, 1), "NHSFS": (3, 1), "NHSNS": (3, 3)}


def family_shape(kind: str, exponent=None) -> tuple:
    """(arity, constrained columns, exponent, bound) of a family tag."""
    if kind in EXPONENT_FAMILIES:
        arity, bound = EXPONENT_FAMILIES[kind]
        return arity, arity, exponent, bound
    return FAMILIES[kind]


def powered_sum(values, exponent):
    acc = 0
    for v in values:
        if exponent == 1:
            acc = acc + v
        elif exponent == 2:
            acc = acc + v * v
        else:
            acc = acc + math.pow(v, exponent)
    return acc


def constraint(row, kind: str, exponent=None):
    """(constraint value, valid) of one element under a family."""
    _, cols, e, bound = family_shape(kind, exponent)
    value = powered_sum(row[:cols], e)
    return value, value <= bound + SLACK


# --- norms and operator systems -------------------------------------------


def meet(a, b, product: bool):
    return a * b if product else min(a, b)


def join(a, b, product: bool):
    return a + b - a * b if product else max(a, b)


def leftover(t, f):
    """The IFS middle component 1 - t - f, never below zero."""
    i = 1 - t - f
    return i if i > 0 else 0 * i


def negation(x, system: str):
    t, i, f = x
    return (f, 1 - i, t) if system == "NS" else (f, i, t)


def conjunction(a, b, system: str, product: bool, printed: bool = False):
    t = meet(a[0], b[0], product)
    f = join(a[2], b[2], product)
    if system == "NS":
        return (t, join(a[1], b[1], product), f)
    if system == "IFS":
        return (t, leftover(t, f), f)
    if system == "IIFS-min":
        return (t, meet(a[1], b[1], product), f)
    i_joined = join(a[1], b[1], product)
    total = t + i_joined + f
    if total <= 1 + SLACK:
        return (t, i_joined, f)
    i_num = meet(a[1], b[1], product) if printed else i_joined
    return (t / total, i_num / total, f / total)


def disjunction(a, b, system: str, product: bool):
    t = join(a[0], b[0], product)
    f = meet(a[2], b[2], product)
    if system == "NS":
        return (t, meet(a[1], b[1], product), f)
    if system == "IFS":
        return (t, leftover(t, f), f)
    return (t, meet(a[1], b[1], product), f)


def apply_op(op: str, a, b, system: str, product: bool, printed: bool = False):
    if op == "not":
        return negation(a, system)
    if op == "and":
        return conjunction(a, b, system, product, printed)
    if op == "or":
        return disjunction(a, b, system, product)
    return disjunction(negation(a, system), b, system, product)


def widen_pair(pair):
    """An IFS (t, f) pair as the sum-1 triplet the package aggregates."""
    t, f = pair
    return (t, leftover(t, f), f)


def sup_rescale(rows):
    """Rows divided by the set-wide sum of component suprema, with refusals."""
    denom = max(r[0] for r in rows) + max(r[1] for r in rows) + max(r[2] for r in rows)
    out = [tuple(c / denom for c in r) for r in rows]
    refusals = [leftover(r[0] + r[1], r[2]) for r in out]
    return denom, out, refusals


def normalize_rows(rows):
    return [tuple(c / (r[0] + r[1] + r[2]) for c in r) for r in rows]


def region(row) -> str:
    s = row[0] + row[1] + row[2]
    if s < 1 - SLACK:
        return "incomplete"
    if s > 1 + SLACK:
        return "paraconsistent"
    return "complete"


# --- comparisons -------------------------------------------------------------


def close(a, b, tol: float = FLOAT_TOL) -> bool:
    return abs(a - b) <= tol


def rows_differ(got_rows, want_rows, label: str, tol: float = FLOAT_TOL) -> list:
    """Problems where two lists of component tuples disagree beyond ``tol``."""
    if len(got_rows) != len(want_rows):
        return [f"{label}: {len(got_rows)} rows, expected {len(want_rows)}"]
    for k, (g, w) in enumerate(zip(got_rows, want_rows)):
        if len(g) != len(w) or not all(close(x, y, tol) for x, y in zip(g, w)):
            return [f"{label}: row {k} is {tuple(g)}, expected {tuple(w)}"]
    return []


def check_sum_one(rows, label: str) -> list:
    for k, r in enumerate(rows):
        if not close(sum(r), 1.0):
            return [f"{label}: row {k} sums to {sum(r)!r}, not 1"]
    return []


# --- Monte-Carlo volume ----------------------------------------------------------


def count_hits(block, cols: int, exponent: float, bound: float) -> int:
    """Rows of ``block`` whose powered sum over the first ``cols`` columns stays in bound."""
    limit = bound + SLACK
    hits = 0
    for row in block.tolist():
        acc = 0.0
        for x in row[:cols]:
            if exponent == 1.0:
                acc = acc + x
            elif exponent == 2.0:
                acc = acc + x * x
            else:
                acc = acc + math.pow(x, exponent)
        if acc <= limit:
            hits += 1
    return hits


def closed_form_volume(kind: str, exponent=None) -> float:
    """Fraction of the unit cube a family admits: Gamma(1+1/n)^k / Gamma(1+k/n)."""
    _, cols, e, bound = family_shape(kind, exponent)
    if bound >= cols:
        return 1.0
    n = float(e)
    return math.gamma(1 + 1 / n) ** cols / math.gamma(1 + cols / n)


def check_estimate(kind: str, exponent, samples: int, estimate: float, z_max: float = 5.0) -> list:
    """The estimate is a whole hit count and lies within ``z_max`` standard errors of the closed form."""
    hits = estimate * samples
    if abs(hits - round(hits)) > 1e-6:
        return [f"{kind}: estimate {estimate!r} is not a hit count over {samples} samples"]
    p = closed_form_volume(kind, exponent)
    if p == 1.0:
        return [] if estimate == 1.0 else [f"{kind}: estimate {estimate!r}, expected exactly 1"]
    se = math.sqrt(p * (1 - p) / samples)
    if abs(estimate - p) > z_max * se:
        return [f"{kind}: estimate {estimate!r} is {abs(estimate - p) / se:.1f} standard errors from {p!r}"]
    return []


# --- decisions, refinement, adjacency grids ---------------------------------------

_LEVEL_NAMES = {1: "Very High", 2: "High", 3: "Medium"}
_GROUPS = {"accept": "Acceptance", "noncommit": "Noncommitment", "reject": "Rejection"}


def three_ways(scores, alpha, beta):
    labels = ["accept" if s >= alpha else "reject" if s <= beta else "noncommit" for s in scores]
    n = len(labels)
    return labels, [labels.count(g) / n for g in ("accept", "noncommit", "reject")]


def n_ways(scores, cuts, arities):
    p, r, s = arities
    bands = [("reject", k + 1) for k in range(s)]
    bands += [("noncommit", r - k) for k in range(r)]
    bands += [("accept", p - k) for k in range(p)]
    names = [f"{_LEVEL_NAMES.get(lvl, f'Level-{lvl}')} {_GROUPS[g]}" for g, lvl in bands]
    idx = [sum(1 for c in cuts if x >= c) for x in scores]
    n = len(scores)
    fractions = [idx.count(b) / n for b in range(len(bands))]
    return [names[i] for i in idx], fractions[s + r:], fractions[s:s + r], fractions[:s]


def neutrosophify(sizes: dict, groups: dict):
    totals = {"accept": 0.0, "neutral": 0.0, "reject": 0.0}
    for label, size in sizes.items():
        totals[groups[label]] += size
    grand = sum(totals.values())
    return [totals[g] / grand for g in ("accept", "neutral", "reject")]


def offset_class(degrees) -> str:
    over = any(v > 1 for v in degrees)
    under = any(v < 0 for v in degrees)
    if over and under:
        return "offset"
    return "overset" if over else "underset" if under else "standard"


def rpyfs_hesitancy(t, f):
    """Constraint value and hesitancy of a refined Pythagorean instance: sqrt(1 - sum of squares)."""
    value = sum(x * x for x in t + f)
    return value, math.sqrt(max(1 - value, 0.0))


def adjacency_facts(text: str) -> dict:
    rows = [line.split() for line in text.splitlines() if line.split()]
    n = len(rows)
    return {
        "order": n,
        "indeterminate_entries": sum(row.count("I") for row in rows),
        "symmetric": all(rows[r][c] == rows[c][r] for r in range(n) for c in range(n)),
    }


# --- exact algebra ------------------------------------------------------------


def nn_product(x, y):
    """(a + bI)(c + dI) = ac + (ad + bc + bd)I."""
    a, b = x
    c, d = y
    return (a * c, a * d + b * c + b * d)


def nn_matrix_product(m, n):
    out = []
    for row in m:
        out_row = []
        for c in range(len(n[0])):
            acc = (0, 0)
            for k, x in enumerate(row):
                p = nn_product(x, n[k][c])
                acc = (acc[0] + p[0], acc[1] + p[1])
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def all_fractions(values) -> bool:
    return all(type(v) is Fraction for v in values)
