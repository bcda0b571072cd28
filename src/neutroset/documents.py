"""Serialization of element sets for the command-line surface.

A document is JSON with an explicit format version, a family tag (plus
exponent where the family needs one), an ordered universe, and per-element
component arrays at full precision. Triplet documents, and IFS documents
whose pairs widen to sum-1 triplets, become a
:class:`neutroset.transforms.LabeledSet`; the other pair families validate
elementwise but form no set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING

from neutroset.core import ABS_TOL, ComponentRangeError, DocumentError, UsageError, _check_real, _check_unit_range
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    ValidationReport,
    _component_limit,
    _first_outside,
    _widened,
    family_from_tag,
    validate,
)

if TYPE_CHECKING:
    from neutroset.transforms import LabeledSet

FORMAT_VERSION = 1

#: The types json.loads gives numbers; bool, which it gives true and false, is not among them.
_NUMBER_TYPES = frozenset({int, float})


@dataclass(frozen=True)
class ElementSetDocument:
    """Parsed document: family spec, ordered universe, per-element component tuples.

    Each component is a real number: an int or a float as :func:`loads` gives
    it, or an exact one such as a Fraction in a document built in code.
    """

    family: FamilySpec
    universe: tuple[str, ...]
    components: tuple[tuple, ...]
    #: Whether :func:`loads` range-checked these components; only it sets this. Sets still test their family.
    checked: bool = field(default=False, init=False, compare=False)

    def to_labeled_set(self) -> LabeledSet:
        """The set of these elements, each component checked as a :class:`neutroset.core.Triplet` checks it.

        A component that is not a real number raises its :class:`UsageError`; one
        outside [0, 1], which no set holds, names its element.
        """
        from neutroset.transforms import LabeledSet, _check_shape  # here: loading and validating skip it

        family, rows = self.family, self.components
        if family.arity == 2 and family.kind is not FamilyKind.IFS:
            raise UsageError(f"{family.describe()} elements are pairs; only IFS pairs widen into a set")
        if not self.checked or family.kind.row.extended:  # loads range-checked no other rows to [0, 1]
            _check_shape(self.universe, rows)  # the shape first, so that a failing row has a name
            _check_components(self.universe, rows)
        if family.arity == 2:  # an IFS pair is the sum-1 triplet embed_into_ns widens it to
            rows = _widened(rows)
        return LabeledSet._of_ranged(self.universe, tuple(map(tuple, rows)), family, False)


def loads(text: str, validate_elements: bool = True) -> ElementSetDocument:
    """Parse a document from JSON text."""
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    fam_raw = raw.get("family")
    if not isinstance(fam_raw, dict) or "kind" not in fam_raw:
        raise DocumentError('missing "family" object with a "kind" tag')
    family = family_from_tag(str(fam_raw["kind"]), fam_raw.get("exponent"))
    universe = raw.get("universe")
    elements = raw.get("elements")
    if not isinstance(universe, list) or not all(isinstance(u, str) for u in universe):
        raise DocumentError('"universe" must be a list of element names')
    if not universe:
        raise DocumentError("universe is empty")
    names = set(universe)
    if len(names) != len(universe):
        raise DocumentError("universe contains duplicate element names")
    if not isinstance(elements, dict):
        raise DocumentError('"elements" must map element names to component arrays')
    missing = [u for u in universe if u not in elements]
    if missing:
        raise DocumentError(f"elements missing for {missing}")
    extra = [k for k in elements if k not in names]
    if extra:
        raise DocumentError(f"elements not in universe: {extra}")
    rows = []
    arity = family.arity
    for name in universe:
        row = elements[name]
        if not isinstance(row, list) or not _NUMBER_TYPES.issuperset(map(type, row)):
            raise DocumentError(f"element {name!r}: components must be a numeric array")
        if len(row) != arity:
            raise DocumentError(
                f"element {name!r}: {family.describe()} takes {arity} components, got {len(row)}"
            )
        rows.append(tuple(row))
    if validate_elements:
        end = _first_out_of_range(rows, _component_limit(family.component_cap))
        # the bound test stops at the first element out of range, so the first element to fail raises
        k = _first_outside(rows[:end], family)
        k = end if k < 0 else k
        if k < len(rows):
            name = universe[k]
            raise DocumentError(f"element {name!r} invalid: {_element_report(name, rows[k], family).diagnostics}")
    doc = ElementSetDocument(family=family, universe=tuple(universe), components=tuple(rows))
    object.__setattr__(doc, "checked", validate_elements)
    return doc


def _check_components(universe: tuple, rows) -> None:
    """Check every component by the rule of :class:`neutroset.core.Triplet`; one outside [0, 1] names its element."""
    for name, row in zip(universe, rows):
        try:
            for v in row:
                _check_unit_range(_check_real(v))
        except ComponentRangeError as exc:
            raise DocumentError(f"element {name!r} cannot form a set: {exc}") from None


def _first_out_of_range(rows, limit) -> int:
    """The index of the first row with a component outside [0, ``limit``] (NaN among them), or ``len(rows)``."""
    for k, row in enumerate(rows):
        for v in row:
            if not 0 <= v <= limit:
                return k
    return len(rows)


def _element_report(name: str, components, family: FamilySpec, tol: float = ABS_TOL) -> ValidationReport:
    """``validate(components, family, tol)``; a component out of range raises a :class:`DocumentError` naming ``name``."""
    try:
        return validate(components, family, tol)
    except ComponentRangeError as exc:
        raise DocumentError(f"element {name!r} invalid: {exc}") from None


def dumps(doc: ElementSetDocument) -> str:
    """Serialize back to JSON, preserving component values at full precision.

    A document of a shape :func:`loads` refuses raises :class:`DocumentError`:
    a name that is not text, an empty universe, a name given twice, a name
    count other than the row count, or a row whose length is not the
    family's arity. The text is what ``json.dumps(payload, indent=2)``
    writes. That encoder runs in pure Python once it indents, so ``dumps``
    writes the rows itself: one %-template for the whole element block,
    applied once to every name and value. Only a document holding NaN or an
    infinity, which json spells its own way, goes through ``json.dumps``.
    """
    family = {
        "kind": doc.family.kind.value,
        **({"exponent": doc.family.exponent} if doc.family.exponent is not None else {}),
    }
    head = {"format_version": FORMAT_VERSION, "family": family}
    universe, rows, arity = doc.universe, doc.components, doc.family.arity
    if not (universe and all(map(isinstance, universe, repeat(str))) and len(set(universe)) == len(universe)
            and len(rows) == len(universe) and set(map(len, rows)) == {arity}):
        raise DocumentError(f"cannot write: a document needs distinct text names, at least one, "
                            f"each with one row of {arity} components")
    values = list(map(float, chain.from_iterable(rows)))
    # a non-finite sum means NaN or an infinity somewhere
    if math.isfinite(sum(values)):
        return _layout(head, list(map(encode_basestring_ascii, universe)), values, arity)
    elements = {name: [float(v) for v in row] for name, row in zip(universe, rows)}
    return json.dumps({**head, "universe": list(universe), "elements": elements}, indent=2) + "\n"


def _layout(head: dict, names: list, values: list, arity: int) -> str:
    """The document text of ``json.dumps(indent=2)``, from encoded names and their rows' values, flat."""
    step = arity + 1
    cells = [None] * (len(names) * step)  # name 0, its values, name 1, its values, ...
    cells[::step] = names
    for k in range(arity):
        cells[k + 1 :: step] = values[k::arity]
    row = "\n    %s: [" + ",".join(["\n      %r"] * arity) + "\n    ]"
    return "".join([
        json.dumps(head, indent=2)[:-2],  # without its closing "\n}"
        ',\n  "universe": [\n    ', ",\n    ".join(names),
        '\n  ],\n  "elements": {', ",".join([row] * len(names)) % tuple(cells), "\n  }\n}\n",
    ])


def from_labeled_set(s: LabeledSet) -> ElementSetDocument:
    """The document of a set, its components as floats."""
    rows = s.scalar_rows()
    # a pair family's set holds sum-1 triplets it has checked; (t, f) drops their derived middle slot
    if s.family.arity == 2:
        rows = map(itemgetter(0, 2), rows)
    if not {float}.issuperset(map(type, chain.from_iterable(s.rows))):  # ints, Fractions or intervals
        rows = (tuple(map(float, row)) for row in rows)
    return ElementSetDocument(family=s.family, universe=s.universe, components=tuple(rows))
