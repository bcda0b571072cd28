"""Serialization of element sets for the command-line surface.

A document is JSON with an explicit format version, a family tag (plus
exponent where the family needs one), an ordered universe, and per-element
component arrays at full precision. Triplet documents load into
:class:`neutroset.transforms.LabeledSet`; pair-family documents validate
elementwise without a set wrapper.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

from neutroset.core import ABS_TOL, ComponentRangeError, DocumentError, leftover
from neutroset.families import (
    FamilyKind,
    FamilySpec,
    ValidationReport,
    _component_limit,
    _embedded_row,
    _first_outside,
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
    """Parsed document: family spec, ordered universe, per-element component tuples."""

    family: FamilySpec
    universe: tuple[str, ...]
    components: tuple[tuple, ...]
    #: Whether :func:`loads` found every element valid under ``family``; only it sets this.
    checked: bool = field(default=False, init=False, compare=False)

    def to_labeled_set(self) -> LabeledSet:
        """The set of these elements; a component outside [0, 1], which no set holds, names its element."""
        try:
            return self._labeled_set()
        except ComponentRangeError as exc:
            name = self.universe[_first_out_of_range(self.components, 1)]
            raise DocumentError(f"element {name!r} cannot form a set: {exc}") from None

    def _labeled_set(self) -> LabeledSet:
        from neutroset.transforms import LabeledSet  # here, so that loading and validating a document skip it

        if self.family.arity == 3:
            rows = self.components
            # loads range-checked the rows to [0, 1] unless the family lets components exceed 1
            checked = self.checked and not self.family.kind.row.extended
        elif self.checked and self.family.kind is FamilyKind.IFS:
            # loads found t + f within 1 + tol: widen as embed_into_ns does, without checking again
            rows = [(t, leftover(0 + t + f), f) for t, f in self.components]
            checked = True
        else:
            rows = [_embedded_row(row, self.family) for row in self.components]
            checked = False
        return LabeledSet._of_rows(self.universe, rows, self.family, checked)


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


def load(path: str | Path, validate_elements: bool = True) -> ElementSetDocument:
    return loads(Path(path).read_text(encoding="utf-8"), validate_elements)


def dumps(doc: ElementSetDocument) -> str:
    """Serialize back to JSON, preserving component values at full precision.

    The text is what ``json.dumps(payload, indent=2)`` writes, laid out here
    row by row: that encoder runs in pure Python once it indents.
    """
    family = {
        "kind": doc.family.kind.value,
        **({"exponent": doc.family.exponent} if doc.family.exponent is not None else {}),
    }
    elements = {name: [float(v) for v in row] for name, row in zip(doc.universe, doc.components)}
    names_are_text = all(isinstance(name, str) for name in doc.universe)
    # a non-finite sum means NaN or an infinity somewhere, which json spells its own way
    if not (names_are_text and math.isfinite(sum(map(sum, elements.values())))):
        payload = {"format_version": FORMAT_VERSION, "family": family, "universe": list(doc.universe),
                   "elements": elements}
        return json.dumps(payload, indent=2) + "\n"
    head = json.dumps({"format_version": FORMAT_VERSION, "family": family}, indent=2)[:-2]  # drop "\n}"
    name = encode_basestring_ascii
    templates = {arity: _row_template(arity) for arity in set(map(len, elements.values()))}
    blocks = [templates[len(values)] % (name(key), *values) for key, values in elements.items()]
    universe = ",".join(["\n    " + name(n) for n in doc.universe])
    return "".join(
        [head, ',\n  "universe": [', universe, "\n  ]" if universe else "]",
         ',\n  "elements": {', ",".join(blocks), "\n  }" if blocks else "}", "\n}\n"]
    )


def _row_template(arity: int) -> str:
    """One element as ``json.dumps(indent=2)`` lays it out: a %-template for its name and ``arity`` floats."""
    return "\n    %s: [" + ",".join(["\n      %r"] * arity) + ("\n    ]" if arity else "]")


def dump(doc: ElementSetDocument, path: str | Path) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def from_labeled_set(s: LabeledSet) -> ElementSetDocument:
    # a pair family's set holds sum-1 triplets it has checked; narrowing drops their derived middle slot
    keep = slice(None) if s.family.arity == 3 else slice(None, None, 2)
    rows = tuple(tuple(map(float, row[keep])) for row in s.scalar_rows())
    return ElementSetDocument(family=s.family, universe=s.universe, components=rows)
