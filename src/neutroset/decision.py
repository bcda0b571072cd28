"""Partitioning a universe into graded accept/noncommit/reject regions.

Covers converting labeled area measures into (T, I, F) fractions, scalar
threshold partitioning into three or n >= 4 bands, and membership degrees
that legitimately leave [0, 1] (overtime above 1, damage below 0).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import Mapping, Sequence

from neutroset.core import DegenerateInputError, UnitValue, UsageError, _is_real, sums_to_one


class Verdict(Enum):
    ACCEPT = "accept"
    NONCOMMIT = "noncommit"
    REJECT = "reject"


class DependenceMode(Enum):
    """Whether the three fractions exhaust the universe or vary freely."""

    SUM_TO_ONE = "sum-to-one"
    FREE = "free"


@dataclass(frozen=True)
class Partition3:
    """Fractions of a universe assigned to acceptance, noncommitment, and rejection."""

    accept_fraction: UnitValue
    noncommit_fraction: UnitValue
    reject_fraction: UnitValue
    dependence: DependenceMode = DependenceMode.SUM_TO_ONE

    def __post_init__(self):
        for name in ("accept_fraction", "noncommit_fraction", "reject_fraction"):
            if not isinstance(getattr(self, name), UnitValue):
                object.__setattr__(self, name, UnitValue(getattr(self, name)))
        if self.dependence is DependenceMode.SUM_TO_ONE:
            s = self.accept_fraction.v + self.noncommit_fraction.v + self.reject_fraction.v
            if not sums_to_one(s):
                raise UsageError(f"sum-to-one partition fractions sum to {float(s)!r}")

    def as_tuple(self) -> tuple[Real, Real, Real]:
        return (self.accept_fraction.v, self.noncommit_fraction.v, self.reject_fraction.v)


@dataclass(frozen=True)
class PartitionN:
    """Per-level fractions for a banded decision: accept, noncommit, and reject levels."""

    accept_levels: tuple
    noncommit_levels: tuple
    reject_levels: tuple

    def __post_init__(self):
        for name in ("accept_levels", "noncommit_levels", "reject_levels"):
            vals = tuple(v if isinstance(v, UnitValue) else UnitValue(v) for v in getattr(self, name))
            if not vals:
                raise UsageError(f"{name} needs at least one level")
            object.__setattr__(self, name, vals)
        if len(self.accept_levels) + len(self.noncommit_levels) + len(self.reject_levels) < 4:
            raise UsageError("an n-way partition needs at least four bands in total")


def _check_finite(what: str, values: Sequence[Real]) -> None:
    """Reject NaN and infinities: no threshold orders them and no total sums them."""
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise UsageError(f"{what} must be finite, got {v!r}")


def neutrosophify(measures: Mapping[str, Real], groups: Mapping[str, Verdict]) -> Partition3:
    """Convert labeled nonnegative area sizes into universe fractions.

    ``groups`` assigns each label to the attribute itself (ACCEPT slot), its
    neutral zone (NONCOMMIT), or its opposite (REJECT). Labels cover the
    universe, so the result sums to one.
    """
    totals = {Verdict.ACCEPT: 0.0, Verdict.NONCOMMIT: 0.0, Verdict.REJECT: 0.0}
    for label, size in measures.items():
        if not _is_real(size):
            raise UsageError(f"size of {label!r} must be a real number")
        _check_finite(f"size of {label!r}", (size,))
        if size < 0:
            raise UsageError(f"size of {label!r} is negative: {size!r}")
        if label not in groups:
            raise UsageError(f"label {label!r} has no group assignment")
        totals[groups[label]] += size
    accept, noncommit, reject = totals.values()
    grand = 0 + accept + noncommit + reject  # left to right: builtin sum compensates floats from Python 3.12 on
    _check_finite("total measure", (grand,))
    if grand <= 0:
        raise DegenerateInputError("total measure is zero; no fractions to form")
    return Partition3(accept / grand, noncommit / grand, reject / grand)


def three_ways(scores: Sequence[Real], alpha: Real, beta: Real) -> tuple[tuple[Verdict, ...], Partition3]:
    """Label each score ACCEPT (>= alpha), REJECT (<= beta), or NONCOMMIT between.

    Returns the labels and the induced fractions, which always sum to one
    since every element receives exactly one label.
    """
    if not alpha > beta:
        raise UsageError(f"thresholds must satisfy alpha > beta, got alpha={alpha!r}, beta={beta!r}")
    if not scores:
        raise UsageError("scores are empty")
    _check_finite("thresholds", (alpha, beta))
    _check_finite("scores", scores)
    labels = []
    for s in scores:
        if s >= alpha:
            labels.append(Verdict.ACCEPT)
        elif s <= beta:
            labels.append(Verdict.REJECT)
        else:
            labels.append(Verdict.NONCOMMIT)
    n = len(labels)
    part = Partition3(
        accept_fraction=UnitValue(labels.count(Verdict.ACCEPT) / n),
        noncommit_fraction=UnitValue(labels.count(Verdict.NONCOMMIT) / n),
        reject_fraction=UnitValue(labels.count(Verdict.REJECT) / n),
    )
    return tuple(labels), part


@dataclass(frozen=True)
class BandLabel:
    """One band of an n-way decision: its group, intensity level, and display name."""

    verdict: Verdict
    level: int
    name: str


_LEVEL_NAMES = {1: "Very High", 2: "High", 3: "Medium"}
_GROUP_NAMES = {Verdict.ACCEPT: "Acceptance", Verdict.NONCOMMIT: "Noncommitment", Verdict.REJECT: "Rejection"}


def _band_label(verdict: Verdict, level: int) -> BandLabel:
    prefix = _LEVEL_NAMES.get(level, f"Level-{level}")
    return BandLabel(verdict, level, f"{prefix} {_GROUP_NAMES[verdict]}")


def n_ways(
    scores: Sequence[Real],
    cut_points: Sequence[Real],
    arities: tuple[int, int, int],
) -> tuple[tuple[BandLabel, ...], PartitionN]:
    """Split the score axis into p + r + s >= 4 bands and label each score.

    ``arities`` gives (p accept bands, r noncommit bands, s reject bands);
    bands sit lowest-to-highest as rejection, noncommitment, acceptance,
    separated by the strictly ascending ``cut_points`` (one fewer than the
    band count). Within a group, level 1 is the most intense band: the
    lowest scores for rejection, the highest for acceptance.
    """
    p, r, s = arities
    if min(p, r, s) < 1 or p + r + s < 4:
        raise UsageError(f"arities must each be >= 1 and total >= 4, got {arities}")
    n_bands = p + r + s
    cuts = list(cut_points)
    if len(cuts) != n_bands - 1:
        raise UsageError(f"{n_bands} bands need {n_bands - 1} cut points, got {len(cuts)}")
    if any(not a < b for a, b in zip(cuts, cuts[1:])):
        raise UsageError(f"cut points must be strictly ascending, got {cuts}")
    if not scores:
        raise UsageError("scores are empty")
    _check_finite("cut points", cuts)
    _check_finite("scores", scores)

    bands: list[BandLabel] = []
    for k in range(s):
        bands.append(_band_label(Verdict.REJECT, k + 1))  # lowest band rejects hardest
    for k in range(r):
        bands.append(_band_label(Verdict.NONCOMMIT, r - k))
    for k in range(p):
        bands.append(_band_label(Verdict.ACCEPT, p - k))  # highest band accepts hardest

    # a score's band counts the cuts at or below it
    indices = [bisect_right(cuts, x) for x in scores]
    labels = tuple(bands[k] for k in indices)
    fractions = [indices.count(k) / len(indices) for k in range(n_bands)]
    return labels, PartitionN(
        accept_levels=tuple(fractions[s + r :]),
        noncommit_levels=tuple(fractions[s : s + r]),
        reject_levels=tuple(fractions[:s]),
    )


def offset_degree(amount: Real, norm: Real) -> float:
    """Membership degree measured against a norm, explicitly allowed outside [0, 1]."""
    if not _is_real(norm) or not norm > 0:
        raise UsageError(f"norm must be a positive real, got {norm!r}")
    if not _is_real(amount):
        raise UsageError(f"amount must be a real number, got {amount!r}")
    _check_finite("norm", (norm,))
    _check_finite("amount", (amount,))
    degree = amount / norm
    _check_finite(f"degree of amount {amount!r} against norm {norm!r}", (degree,))
    return degree


class OffsetClass(Enum):
    STANDARD = "standard"
    OVERSET = "overset"
    UNDERSET = "underset"
    OFFSET = "offset"


@dataclass(frozen=True)
class OffsetBounds:
    """Permitted envelope for off-range components: under <= 0 and over >= 1."""

    under: Real = 0
    over: Real = 1

    def __post_init__(self):
        if not (self.under <= 0 <= 1 <= self.over):
            raise UsageError(f"bounds must satisfy under <= 0 <= 1 <= over, got ({self.under!r}, {self.over!r})")


@dataclass(frozen=True)
class OffsetReport:
    """Classification of possibly off-range components against an envelope."""

    classification: OffsetClass
    within_bounds: bool
    components: tuple[float, float, float]
    bounds: OffsetBounds
    diagnostics: str = ""


def validate_offset(components: Sequence[Real], bounds: OffsetBounds = OffsetBounds()) -> OffsetReport:
    """Classify three possibly off-range degrees and check them against ``bounds``."""
    vals = tuple(float(v) for v in components)
    if len(vals) != 3:
        raise UsageError(f"expected three components, got {len(vals)}")
    if any(not math.isfinite(v) for v in vals):
        raise UsageError(f"components must be finite, got {vals}")
    has_over = any(v > 1 for v in vals)
    has_under = any(v < 0 for v in vals)
    if has_over and has_under:
        cls = OffsetClass.OFFSET
    elif has_over:
        cls = OffsetClass.OVERSET
    elif has_under:
        cls = OffsetClass.UNDERSET
    else:
        cls = OffsetClass.STANDARD
    inside = all(bounds.under <= v <= bounds.over for v in vals)
    detail = f"{cls.value}; components {vals} vs bounds [{bounds.under}, {bounds.over}]"
    return OffsetReport(
        classification=cls,
        within_bounds=inside,
        components=vals,
        bounds=bounds,
        diagnostics=detail,
    )
