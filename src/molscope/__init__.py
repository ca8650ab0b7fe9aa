"""molscope: a workbench for mutually orthogonal Latin squares and
gerechte designs.

Validate squares, systems, and region partitions; count transversals,
transversal partitions, orthogonal mates, and k-tuples exactly (with two
independent engines for headline numbers); evaluate the per-cell integral
counting bounds and their closed-form estimates; construct block products
and translate-based mates with certified mate-count lower bounds.

The same functionality is scriptable through the ``molscope`` command.
"""

from .arrays import (
    CellProfile,
    NearlyOrthArray,
    OrthArray,
    cell_profile,
    coordinate_columns,
    vectors_orthogonal,
)
from .bounds import (
    BoundEntry,
    c_beta,
    closed_form_estimate,
    extension_bound_general,
    extension_bound_mols,
    extension_entries,
    integral_I,
    log_factorial,
    mols_count_bound,
    sudoku_extension_bound,
)
from .construct import (
    GroupSpec,
    MateCertificate,
    cayley_table,
    construct_for_constant,
    kronecker,
    power,
    power_mate_bound,
    product_mate_bound,
    product_mate_bound_exact,
    translate_mates,
)
from .core import (
    Cell,
    LatinSquare,
    MolsSystem,
    RegionPartition,
    Square,
    Transversal,
    check_orthogonal,
    is_transversal,
    partition_boxes,
    partition_from_square,
    partition_rows,
    validate_gerechte,
    validate_latin,
    validate_mols,
)
from .errors import (
    FormatError,
    InvalidNOA,
    InvalidOA,
    InvalidParams,
    LengthMismatch,
    LimitExceeded,
    MalformedPartition,
    MalformedSquare,
    MolscopeError,
    NotATransversal,
    NotFoundWithinLimit,
    NotGerechte,
    NotOrthogonal,
    NotPerfectSquare,
    OrderMismatch,
    TooManySquares,
    UnbalancedSymbols,
    ViolationAt,
)
from .search import (
    Exact,
    ExtensionCount,
    SearchOptions,
    count_extensions,
    count_latin_direct,
    count_mates,
    count_mols,
    count_mols_direct,
    count_sudoku_direct,
    count_transversal_partitions,
    enumerate_transversals,
    extension_census,
    gerechte_mates_direct,
    iter_extensions,
    iter_latin_direct,
    iter_transversal_partitions,
    iter_transversals,
    max_extensions,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
