"""Rough-set approximation over two universes linked by a binary relation.

Each public name below lives in one submodule, which is imported on the first
use of ``birough.<name>`` (PEP 562), so ``import birough`` alone loads none of
them and a command pays only for the modules it uses.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# The submodule of each re-exported name.
_EXPORTS = {
    "relation": (
        "BiroughError",
        "UniverseError",
        "DimensionError",
        "UnknownLabelError",
        "SideMismatchError",
        "PartitionError",
        "Side",
        "UniversePair",
        "Subset",
        "Partition",
        "BinaryRelation",
    ),
    "approx": (
        "RoughType",
        "ApproxResult",
        "lower_approximation",
        "lower_approximation_matrix",
        "upper_approximation",
        "upper_approximation_from_columns",
        "boundary",
        "rough_type",
        "approximate",
    ),
    "classify": (
        "ClassificationError",
        "UndefinedMeasureError",
        "Classification",
        "classification_violations",
        "validate_classification",
        "FamilyApprox",
        "approximate_family",
        "Quality",
        "LawInstance",
        "TheoremReport",
        "cover_duality_check",
        "support_duality_check",
        "duality_report",
        "derived_laws_report",
        "family_law_report",
        "measure_law_report",
        "proper_index_subsets",
    ),
    "lab": (
        "ConfigError",
        "BudgetError",
        "canonical_universes",
        "generate_relations",
        "random_relation",
        "random_subset_bits",
        "random_campaign",
        "verify_serial_iff",
        "reconstruct_relation",
        "UNION_TABLE",
        "INTERSECTION_TABLE",
        "table_for",
        "allowed_result_types",
        "ambiguous_cells",
        "Witness",
        "TableCellFinding",
        "check_relation_against_tables",
        "witness_inventory",
        "find_type_witness",
    ),
    "campaign": (
        "PropertyReport",
        "verify_algebraic_properties",
        "merge_property_reports",
    ),
    "parse": (
        "ParseError",
        "parse_relation_file",
        "render_relation_file",
        "parse_classification_file",
    ),
    "formats": (
        "AnalysisReport",
        "emit_report",
        "iter_report",
        "ratio_decimal",
        "ratio_obj",
        "ratio_text",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the submodule behind ``name`` and bind what it names here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
