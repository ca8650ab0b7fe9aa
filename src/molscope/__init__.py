"""molscope: a workbench for mutually orthogonal Latin squares and
gerechte designs.

Validate squares, systems, and region partitions; count transversals,
transversal partitions, orthogonal mates, and k-tuples exactly (with two
independent engines for headline numbers); evaluate the per-cell integral
counting bounds and their closed-form estimates; construct block products
and translate-based mates with certified mate-count lower bounds.

The same functionality is scriptable through the ``molscope`` command.

Every name below is re-exported here and imports its module on first use
(PEP 562), so a command that counts never loads the bounds or the
constructions.
"""

from importlib import import_module as _import_module

# each submodule, with the public names re-exported from it
_EXPORTS = {
    "arrays": (
        "CellProfile", "NearlyOrthArray", "OrthArray", "cell_profile",
        "coordinate_columns", "vectors_orthogonal",
    ),
    "bounds": (
        "BoundEntry", "c_beta", "closed_form_estimate", "extension_bound_general",
        "extension_bound_mols", "extension_entries", "integral_I", "log_factorial",
        "mols_count_bound", "sudoku_extension_bound",
    ),
    "construct": (
        "GroupSpec", "MateCertificate", "cayley_table", "construct_for_constant",
        "kronecker", "power", "power_mate_bound", "product_mate_bound",
        "product_mate_bound_exact", "translate_mates",
    ),
    "core": (
        "Cell", "LatinSquare", "MolsSystem", "RegionPartition", "Square", "Transversal",
        "check_orthogonal", "is_transversal", "partition_boxes", "partition_from_square",
        "partition_rows", "validate_gerechte", "validate_latin", "validate_mols",
    ),
    "errors": (
        "FormatError", "InvalidNOA", "InvalidOA", "InvalidParams", "LengthMismatch",
        "LimitExceeded", "MalformedPartition", "MalformedSquare", "MolscopeError",
        "NotATransversal", "NotFoundWithinLimit", "NotGerechte", "NotOrthogonal",
        "NotPerfectSquare", "OrderMismatch", "TooManySquares", "UnbalancedSymbols",
        "ViolationAt",
    ),
    "search": (
        "Exact", "ExtensionCount", "SearchOptions", "count_extensions",
        "count_latin_direct", "count_mates", "count_mols", "count_mols_direct",
        "count_sudoku_direct", "count_transversal_partitions", "enumerate_transversals",
        "extension_census", "gerechte_mates_direct", "iter_extensions",
        "iter_latin_direct", "iter_transversal_partitions", "iter_transversals",
        "max_extensions",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
