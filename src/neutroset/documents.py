"""Serialization of element sets for the command-line surface.

A document is JSON with an explicit format version, a family tag (plus
exponent where the family needs one), an ordered universe, and per-element
component arrays at full precision. Triplet documents load into
:class:`neutroset.transforms.LabeledSet`; pair-family documents validate
elementwise without a set wrapper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from neutroset.core import NeutrosetError, Triplet, UsageError
from neutroset.families import FamilyKind, FamilySpec, embed_into_ns, validate
from neutroset.transforms import LabeledSet

FORMAT_VERSION = 1


class DocumentError(NeutrosetError, ValueError):
    """Malformed or inconsistent element-set document."""


@dataclass(frozen=True)
class ElementSetDocument:
    """Parsed document: family spec, ordered universe, per-element component tuples."""

    family: FamilySpec
    universe: tuple[str, ...]
    components: tuple[tuple, ...]

    def to_labeled_set(self) -> LabeledSet:
        if self.family.arity == 3:
            trips = tuple(Triplet(*row) for row in self.components)
        else:
            trips = tuple(embed_into_ns(row, self.family) for row in self.components)
        return LabeledSet(self.universe, trips, self.family)


def family_from_tag(kind_tag: str, exponent=None) -> FamilySpec:
    """Resolve a family tag string (case-insensitive, with common aliases)."""
    aliases = {
        "pfs": "IIFS",  # picture fuzzy set
        "q-rofs": "QROFS",
        "qrofs": "QROFS",
        "pyfs": "PyFS",
        "n-hsfs": "NHSFS",
        "n-hsns": "NHSNS",
    }
    norm = aliases.get(kind_tag.strip().lower(), kind_tag.strip())
    for kind in FamilyKind:
        if kind.value.lower() == norm.lower():
            try:
                return FamilySpec(kind, exponent)
            except UsageError as exc:
                raise DocumentError(f"family {exc}") from None
    raise DocumentError(f"unknown family tag {kind_tag!r}")


def loads(text: str, validate_elements: bool = True) -> ElementSetDocument:
    """Parse a document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
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
    for name in universe:
        row = elements[name]
        if not isinstance(row, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in row):
            raise DocumentError(f"element {name!r}: components must be a numeric array")
        if len(row) != family.arity:
            raise DocumentError(
                f"element {name!r}: {family.describe()} takes {family.arity} components, got {len(row)}"
            )
        rows.append(tuple(row))
    doc = ElementSetDocument(family=family, universe=tuple(universe), components=tuple(rows))
    if validate_elements:
        for name, row in zip(doc.universe, doc.components):
            report = validate(row, family)
            if not report.valid:
                raise DocumentError(f"element {name!r} invalid: {report.diagnostics}")
    return doc


def load(path: str | Path, validate_elements: bool = True) -> ElementSetDocument:
    return loads(Path(path).read_text(encoding="utf-8"), validate_elements)


def dumps(doc: ElementSetDocument) -> str:
    """Serialize back to JSON, preserving component values at full precision."""
    payload = {
        "format_version": FORMAT_VERSION,
        "family": {
            "kind": doc.family.kind.value,
            **({"exponent": doc.family.exponent} if doc.family.exponent is not None else {}),
        },
        "universe": list(doc.universe),
        "elements": {name: [float(v) for v in row] for name, row in zip(doc.universe, doc.components)},
    }
    return json.dumps(payload, indent=2) + "\n"


def dump(doc: ElementSetDocument, path: str | Path) -> None:
    Path(path).write_text(dumps(doc), encoding="utf-8")


def from_labeled_set(s: LabeledSet) -> ElementSetDocument:
    # a pair family's set holds sum-1 triplets it has checked; narrowing drops their derived middle slot
    keep = slice(None) if s.family.arity == 3 else slice(None, None, 2)
    rows = tuple(tuple(map(float, t.scalars()[keep])) for t in s.triplets)
    return ElementSetDocument(family=s.family, universe=s.universe, components=rows)
