"""Shared exception types.

Every error raised by this package derives from :class:`MolscopeError`, so
callers (including the CLI) can distinguish domain failures from genuine
bugs.  Each class carries the CLI's exit code for it as ``exit_code``: 1
for a validation failure (the base class's code, which every class below
inherits unless it sets its own), 2 for unreadable or malformed text input,
3 for a search limit, 4 for invalid parameters.  Validation errors carry
enough structure to be asserted on in tests: the first violation found
under a deterministic scan order, never a collection of everything that is
wrong.
"""

from __future__ import annotations


class MolscopeError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class MalformedSquare(MolscopeError):
    """A grid is not n-by-n or contains an out-of-range entry."""


class ViolationAt(MolscopeError):
    """A square failed the once-per-row / once-per-column check.

    ``kind`` is ``"row"`` or ``"column"``, ``index`` is the offending row or
    column, and ``symbol`` is the first symbol seen twice there.  Rows are
    scanned before columns, each in increasing index order, so the reported
    triple is deterministic.
    """

    def __init__(self, kind: str, index: int, symbol: int):
        self.kind = kind
        self.index = index
        self.symbol = symbol
        super().__init__(
            f"symbol {symbol + 1} occurs more than once in {kind} {index + 1} "
            f"(each symbol must occur exactly once per row and per column)"
        )


class OrderMismatch(MolscopeError):
    """Two objects that must share an order do not."""


class LengthMismatch(MolscopeError):
    """Two vectors that must share a length do not."""


class MalformedPartition(MolscopeError):
    """A region partition does not consist of n regions of n cells."""


class NotPerfectSquare(MolscopeError):
    """A box partition was requested for an order that is not m*m."""

    exit_code = 4


class UnbalancedSymbols(MolscopeError):
    """A square used as a partition does not contain each symbol n times."""


class NotOrthogonal(MolscopeError):
    """Two squares in a would-be system are not orthogonal."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(
            f"squares {i + 1} and {j + 1} are not orthogonal "
            f"(some ordered symbol pair occurs at two cells)"
        )


class NotGerechte(MolscopeError):
    """A square in a would-be system is not balanced on the partition."""

    def __init__(self, i: int):
        self.i = i
        super().__init__(
            f"square {i + 1} does not contain each symbol exactly once per region"
        )


class TooManySquares(MolscopeError):
    """More than n-1 pairwise orthogonal squares were claimed."""

    def __init__(self, k: int, n: int):
        self.k = k
        self.n = n
        super().__init__(
            f"{k} squares of order {n}: a set of pairwise orthogonal Latin "
            f"squares of order n can have at most n-1 members"
        )


class InvalidOA(MolscopeError):
    """An orthogonal array failed validation."""


class InvalidNOA(MolscopeError):
    """A nearly orthogonal array failed validation."""


class LimitExceeded(MolscopeError):
    """An enumeration was requested beyond a configured limit: an order
    limit, or the size of an exact cover."""

    exit_code = 3


class InvalidParams(MolscopeError):
    """Parameters outside the domain of a bound or search operation."""

    exit_code = 4


class NotATransversal(MolscopeError):
    """A claimed transversal has a repeated row, column, or symbol."""


class NotFoundWithinLimit(MolscopeError):
    """An exhaustive search ended without a qualifying object."""

    exit_code = 3


class FormatError(MolscopeError):
    """A text input (a file, a spec or the command line) could not be read,
    parsed or used as given, or an output file could not be written."""

    exit_code = 2
