"""Validated algebra over graded-membership set families.

Component triplets and pairs, family validity predicates from plain fuzzy
sets up to hyperspherical neutrosophic sets, operator suites, whole-set
transforms, split-component refinements, literal-indeterminacy arithmetic,
and decision partitioning, with a batch CLI (``neutroset``).
"""

import importlib

#: The module that defines each public name. A name loads its module when it is first read (PEP 562), so
#: ``import neutroset`` loads no submodule and each command of the CLI loads only the modules it runs.
#: It is the one list of public names: ``__all__`` is derived from it.
_EXPORTS = {
    "core": (
        "ABS_TOL",
        "PRINTED_TOL",
        "ComponentRangeError",
        "ConstraintError",
        "DegenerateInputError",
        "IntervalValue",
        "NeutrosetError",
        "Pair",
        "Triplet",
        "UndefinedOperationError",
        "UnitValue",
        "UsageError",
        "dependence_sum_bound",
        "make_unit",
    ),
    "families": (
        "CubeRegion",
        "FamilyKind",
        "FamilySpec",
        "InclusionClaim",
        "ValidationReport",
        "analytic_family_volume",
        "classify_cube_region",
        "embed_into_ns",
        "estimate_family_volume",
        "find_counterexample",
        "hesitancy",
        "refusal",
        "validate",
    ),
    "operators": (
        "NormPair",
        "Op",
        "OperatorSystem",
        "OverflowRule",
        "SystemKind",
        "TConorm",
        "TNorm",
        "conjunct",
        "disjunct",
        "implicate",
        "negate",
        "setwise",
    ),
    "transforms": (
        "DivergenceReport",
        "LabeledSet",
        "ParadoxReport",
        "SupTransformResult",
        "divergence_report",
        "normalize_elementwise",
        "paradox_check",
        "sup_transform",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
