"""Arithmetic with the literal indeterminacy symbol I, where I * I = I.

Numbers of the form a + bI form a commutative ring under

    (a + bI) + (c + dI) = (a + c) + (b + d)I
    (a + bI) * (c + dI) = ac + (ad + bc + bd)I

whose product lifts row-by-column to matrices. Refined numbers carry
several sub-indeterminacy coefficients but only add and scale: products of
distinct sub-indeterminacies are left undefined. Adjacency matrices over
the alphabet {0, 1, -1, I} model graphs and cognitive maps with unknown
connections.

Coefficients keep whatever numeric type the caller supplies, so integer and
Fraction inputs obey the ring laws exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Real

from neutroset.core import UndefinedOperationError, UsageError, _is_real


def _check_coeff(x) -> Real:
    if not _is_real(x):
        raise UsageError(f"coefficients must be real numbers, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class NeutrosophicNumber:
    """a + bI with determinate part ``a`` and indeterminate coefficient ``b``."""

    a: Real = 0
    b: Real = 0

    def __post_init__(self):
        _check_coeff(self.a)
        _check_coeff(self.b)

    def __add__(self, other):
        return nn_add(self, _coerce_nn(other))

    __radd__ = __add__

    def __neg__(self):
        return NeutrosophicNumber(-self.a, -self.b)

    def __sub__(self, other):
        return nn_add(self, -_coerce_nn(other))

    def __rsub__(self, other):
        return nn_add(_coerce_nn(other), -self)

    def __mul__(self, other):
        return nn_mul(self, _coerce_nn(other))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return nn_pow(self, n)

    @property
    def is_real(self) -> bool:
        return self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        term = "I" if mag == 1 else f"{mag}I"
        if self.a == 0:
            return f"-{term}" if self.b < 0 else term
        return f"{self.a}{'+' if self.b > 0 else '-'}{term}"


#: The pure indeterminacy symbol.
I = NeutrosophicNumber(0, 1)


def _coerce_nn(x) -> NeutrosophicNumber:
    if isinstance(x, NeutrosophicNumber):
        return x
    if not _is_real(x):
        raise UsageError(f"cannot treat {type(x).__name__} as a neutrosophic number")
    return NeutrosophicNumber(x, 0)


def nn_add(x: NeutrosophicNumber, y: NeutrosophicNumber) -> NeutrosophicNumber:
    return NeutrosophicNumber(x.a + y.a, x.b + y.b)


def nn_mul(x: NeutrosophicNumber, y: NeutrosophicNumber) -> NeutrosophicNumber:
    return NeutrosophicNumber(x.a * y.a, x.a * y.b + x.b * y.a + x.b * y.b)


def nn_pow(x: NeutrosophicNumber, n: int) -> NeutrosophicNumber:
    """x**n by repeated multiplication; nonpositive powers only for invertible x.

    a + bI is invertible exactly when a != 0 and a + b != 0 (its values at
    I = 0 and I = 1 are both nonzero); in particular powers of pure I are
    defined only for n > 0, where they all equal I.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise UsageError(f"exponent must be an integer, got {type(n).__name__}")
    if n > 0:
        acc = x
        for _ in range(n - 1):
            acc = nn_mul(acc, x)
        return acc
    if x.a == 0 or x.a + x.b == 0:
        raise UndefinedOperationError(
            f"({x})**{n} is undefined: {x} has no multiplicative inverse"
        )
    inv_a = 1 / x.a
    inv_at_one = 1 / (x.a + x.b)
    inverse = NeutrosophicNumber(inv_a, inv_at_one - inv_a)
    if n == 0:
        return NeutrosophicNumber(1, 0)
    return nn_pow(inverse, -n)


@dataclass(frozen=True)
class RefinedNeutrosophicNumber:
    """a + b1*I1 + ... + bm*Im over sub-indeterminacy symbols I1..Im."""

    a: Real = 0
    coeffs: tuple = ()

    def __post_init__(self):
        _check_coeff(self.a)
        object.__setattr__(self, "coeffs", tuple(_check_coeff(c) for c in self.coeffs))

    def __add__(self, other):
        return rnn_add(self, other)


def rnn_add(x: RefinedNeutrosophicNumber, y: RefinedNeutrosophicNumber) -> RefinedNeutrosophicNumber:
    """Coefficient-wise sum; the shorter coefficient list is zero-padded."""
    m = max(len(x.coeffs), len(y.coeffs))
    xs = x.coeffs + (0,) * (m - len(x.coeffs))
    ys = y.coeffs + (0,) * (m - len(y.coeffs))
    return RefinedNeutrosophicNumber(x.a + y.a, tuple(p + q for p, q in zip(xs, ys)))


def rnn_scale(x: RefinedNeutrosophicNumber, c: Real) -> RefinedNeutrosophicNumber:
    _check_coeff(c)
    return RefinedNeutrosophicNumber(c * x.a, tuple(c * b for b in x.coeffs))


@dataclass(frozen=True)
class NeutroMatrix:
    """A rectangular matrix of neutrosophic numbers."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(_coerce_nn(v) for v in row) for row in self.rows)
        if not rows or not rows[0]:
            raise UsageError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise UsageError("matrix rows have unequal lengths")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))


def nm_mul(m: NeutroMatrix, n: NeutroMatrix) -> NeutroMatrix:
    rows_m, cols_m = m.shape
    rows_n, cols_n = n.shape
    if cols_m != rows_n:
        raise UsageError(f"shapes {m.shape} and {n.shape} are not conformable")
    out = []
    for r in range(rows_m):
        row = []
        for c in range(cols_n):
            acc = NeutrosophicNumber(0, 0)
            for k in range(cols_m):
                acc = nn_add(acc, nn_mul(m.rows[r][k], n.rows[k][c]))
            row.append(acc)
        out.append(tuple(row))
    return NeutroMatrix(tuple(out))


# --- adjacency matrices over {0, 1, -1, I} ---------------------------------

_TOKEN_TO_ENTRY = {
    "0": NeutrosophicNumber(0, 0),
    "1": NeutrosophicNumber(1, 0),
    "-1": NeutrosophicNumber(-1, 0),
    "I": I,
}
_ENTRY_TO_TOKEN = {(e.a, e.b): tok for tok, e in _TOKEN_TO_ENTRY.items()}


class AdjacencyKind(Enum):
    GRAPH = "graph"
    COGNITIVE_MAP = "cognitive-map"


#: Entry values permitted per structure kind: a cognitive map takes every token, a graph all but -1.
_ALPHABETS = {
    AdjacencyKind.GRAPH: frozenset(key for key, tok in _ENTRY_TO_TOKEN.items() if tok != "-1"),
    AdjacencyKind.COGNITIVE_MAP: frozenset(_ENTRY_TO_TOKEN),
}


@dataclass(frozen=True)
class NeutroAdjacency:
    """A square connection matrix with entries restricted to {0, 1, -1, I}.

    0 means no connection, 1 a connection, -1 an inversely proportional
    connection (cognitive maps only), and I a connection whose existence is
    unknown.
    """

    matrix: NeutroMatrix

    def __post_init__(self):
        rows, cols = self.matrix.shape
        if rows != cols:
            raise UsageError(f"adjacency matrix must be square, got {self.matrix.shape}")
        for r, row in enumerate(self.matrix.rows):
            for c, entry in enumerate(row):
                if (entry.a, entry.b) not in _ENTRY_TO_TOKEN:
                    raise UsageError(
                        f"entry ({r}, {c}) = {entry} is outside the alphabet {{0, 1, -1, I}}"
                    )

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def parse_adjacency(text: str) -> NeutroAdjacency:
    """Read the plain-text grid format: whitespace-separated tokens 0, 1, -1, I."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        row = []
        for col, tok in enumerate(tokens):
            try:
                row.append(_TOKEN_TO_ENTRY[tok])
            except KeyError:
                raise UsageError(
                    f"line {lineno}, column {col + 1}: token {tok!r} is not one of 0, 1, -1, I"
                ) from None
        rows.append(tuple(row))
    if not rows:
        raise UsageError("adjacency text contains no rows")
    return NeutroAdjacency(NeutroMatrix(tuple(rows)))


def emit_adjacency(adj: NeutroAdjacency) -> str:
    """Canonical text form: one row per line, single spaces, trailing newline.

    ``emit_adjacency(parse_adjacency(s)) == s`` for any canonical ``s``.
    """
    lines = [
        " ".join(_ENTRY_TO_TOKEN[(e.a, e.b)] for e in row) for row in adj.matrix.rows
    ]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AdjacencyReport:
    """Kind-specific checks over an adjacency matrix."""

    valid: bool
    kind: AdjacencyKind
    order: int
    indeterminate_entries: int
    symmetric: bool
    violations: tuple[str, ...]


def adjacency_validate(adj: NeutroAdjacency, kind: AdjacencyKind) -> AdjacencyReport:
    """Check the entry alphabet for ``kind`` (plus a zero diagonal for cognitive maps).

    Violations are reported by cell rather than raised, so callers can show
    all of them at once; counts of indeterminate connections come along.
    """
    allowed = _ALPHABETS[kind]
    violations = []
    indeterminate = 0
    m = adj.matrix
    for r, row in enumerate(m.rows):
        for c, entry in enumerate(row):
            key = (entry.a, entry.b)
            if key == (0, 1):
                indeterminate += 1
            if key not in allowed:
                violations.append(f"entry ({r}, {c}) = {entry} not allowed for {kind.value}")
            if kind is AdjacencyKind.COGNITIVE_MAP and r == c and key != (0, 0):
                violations.append(f"diagonal entry ({r}, {c}) = {entry} must be 0 for {kind.value}")
    symmetric = all(
        m.rows[r][c] == m.rows[c][r] for r in range(adj.order) for c in range(adj.order)
    )
    return AdjacencyReport(
        valid=not violations,
        kind=kind,
        order=adj.order,
        indeterminate_entries=indeterminate,
        symmetric=symmetric,
        violations=tuple(violations),
    )
