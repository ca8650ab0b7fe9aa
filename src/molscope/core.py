"""Core domain types: squares, region partitions, transversals, systems.

Symbols, rows, columns, and region labels are 0-based everywhere inside the
package; text I/O converts to 1-based.  All types are immutable after
construction and validate their own invariants, so holding a
:class:`LatinSquare` or :class:`MolsSystem` is proof it is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    MalformedPartition,
    MalformedSquare,
    NotATransversal,
    NotGerechte,
    NotOrthogonal,
    NotPerfectSquare,
    OrderMismatch,
    TooManySquares,
    UnbalancedSymbols,
    ViolationAt,
)

Cell = tuple[int, int]


def _freeze_grid(rows: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class Square:
    """A raw n-by-n grid of symbols in {0, ..., n-1}; no Latin property."""

    grid: tuple[tuple[int, ...], ...]

    def __init__(self, grid: Iterable[Iterable[int]]):
        frozen = _freeze_grid(grid)
        n = len(frozen)
        if n == 0:
            raise MalformedSquare("a square must have at least one row")
        for row in frozen:
            if len(row) != n:
                raise MalformedSquare(f"expected {n} entries per row, got {len(row)}")
            for x in row:
                if not 0 <= x < n:
                    raise MalformedSquare(
                        f"symbol {x} out of range for order {n} (0-based)"
                    )
        object.__setattr__(self, "grid", frozen)

    @property
    def order(self) -> int:
        return len(self.grid)

    def value(self, i: int, j: int) -> int:
        return self.grid[i][j]

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.grid[i]


@dataclass(frozen=True)
class LatinSquare:
    """A square in which each symbol occurs exactly once per row and column.

    Constructing one runs the full check; use :func:`validate_latin` as the
    spelled-out entry point.
    """

    square: Square

    def __post_init__(self):
        _scan_latin(self.square)

    @property
    def order(self) -> int:
        return self.square.order

    @property
    def grid(self) -> tuple[tuple[int, ...], ...]:
        return self.square.grid

    def value(self, i: int, j: int) -> int:
        return self.square.grid[i][j]

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.square.grid[i]


def _scan_latin(s: Square) -> None:
    # Rows first, then columns, each in increasing index order; report the
    # first symbol seen a second time.  Error identity is part of the API.
    n = s.order
    for i, row in enumerate(s.grid):
        seen = 0
        for x in row:
            bit = 1 << x
            if seen & bit:
                raise ViolationAt("row", i, x)
            seen |= bit
    for j in range(n):
        seen = 0
        for i in range(n):
            x = s.grid[i][j]
            bit = 1 << x
            if seen & bit:
                raise ViolationAt("column", j, x)
            seen |= bit


def validate_latin(s: Square) -> LatinSquare:
    """Check the once-per-row and once-per-column property.

    Raises :class:`ViolationAt` pinpointing the first duplicate under the
    fixed scan order (all rows in increasing index, then all columns).
    """
    return LatinSquare(s)


@dataclass(frozen=True)
class RegionPartition:
    """A partition of the n*n cells into n regions of n cells each.

    ``labels`` lists the region of each cell in row-major order.
    """

    order: int
    labels: tuple[int, ...]

    def __init__(self, order: int, labels: Iterable[int]):
        n = int(order)
        flat = tuple(int(x) for x in labels)
        if n < 1:
            raise MalformedPartition("order must be positive")
        if len(flat) != n * n:
            raise MalformedPartition(
                f"expected {n * n} cell labels, got {len(flat)}"
            )
        counts = [0] * n
        for x in flat:
            if not 0 <= x < n:
                raise MalformedPartition(f"region label {x} out of range")
            counts[x] += 1
        for t, c in enumerate(counts):
            if c != n:
                raise MalformedPartition(
                    f"region {t + 1} has {c} cells, expected {n}"
                )
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "labels", flat)

    def region_of(self, i: int, j: int) -> int:
        return self.labels[i * self.order + j]

    def as_square(self) -> Square:
        """The region labels laid out as a (generally non-Latin) square."""
        n = self.order
        return Square([self.labels[i * n : (i + 1) * n] for i in range(n)])

    def cells_of(self, t: int) -> tuple[Cell, ...]:
        n = self.order
        return tuple(
            (l // n, l % n) for l, x in enumerate(self.labels) if x == t
        )


@dataclass(frozen=True)
class Transversal:
    """n cells of an order-n square, one per row, column, and symbol.

    The symbol condition depends on a square, so the constructor checks only
    shape; :func:`is_transversal` performs the real test and
    :meth:`Transversal.of` builds a checked instance.
    """

    order: int
    cells: frozenset[Cell]

    def __init__(self, order: int, cells: Iterable[Cell]):
        n = int(order)
        cs = frozenset((int(i), int(j)) for i, j in cells)
        if len(cs) != n:
            raise NotATransversal(f"expected {n} distinct cells, got {len(cs)}")
        for i, j in cs:
            if not (0 <= i < n and 0 <= j < n):
                raise NotATransversal(f"cell ({i + 1},{j + 1}) out of range")
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "cells", cs)

    @classmethod
    def of(cls, l: LatinSquare, cells: Iterable[Cell]) -> "Transversal":
        cells = list(cells)
        if not is_transversal(l, cells):
            raise NotATransversal(
                "cells do not hit every row, column, and symbol exactly once"
            )
        return cls(l.order, cells)

    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))


def is_transversal(l: LatinSquare, cells: Iterable[Cell]) -> bool:
    """True iff ``cells`` are n cells with rows, columns, symbols all distinct."""
    cs = list(cells)
    n = l.order
    if len(cs) != n:
        return False
    rows = set()
    cols = set()
    syms = set()
    for i, j in cs:
        if not (0 <= i < n and 0 <= j < n):
            return False
        rows.add(i)
        cols.add(j)
        syms.add(l.value(i, j))
    return len(rows) == n and len(cols) == n and len(syms) == n


def _pairs_all_distinct(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], n: int) -> bool:
    seen = 0
    for i in range(n):
        ra = a[i]
        rb = b[i]
        for j in range(n):
            bit = 1 << (ra[j] * n + rb[j])
            if seen & bit:
                return False
            seen |= bit
    return True


def check_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff the n*n ordered symbol pairs (a(i,j), b(i,j)) are all distinct."""
    if a.order != b.order:
        raise OrderMismatch(f"orders {a.order} and {b.order} differ")
    return _pairs_all_distinct(a.grid, b.grid, a.order)


def validate_gerechte(l: LatinSquare, p: RegionPartition) -> bool:
    """True iff each symbol occurs exactly once in each region of ``p``."""
    if l.order != p.order:
        raise OrderMismatch(f"orders {l.order} and {p.order} differ")
    n = l.order
    seen = [0] * n
    for i in range(n):
        for j in range(n):
            t = p.labels[i * n + j]
            bit = 1 << l.value(i, j)
            if seen[t] & bit:
                return False
            seen[t] |= bit
    return True


@dataclass(frozen=True)
class MolsSystem:
    """An ordered tuple of pairwise orthogonal Latin squares of one order.

    Optionally carries a region partition; then every member square must
    also be balanced on it (a gerechte design).  At most n-1 squares are
    representable for n >= 2 — more would contradict pairwise orthogonality,
    so acceptance of a larger tuple would be a bug, not a state.
    """

    order: int
    squares: tuple[LatinSquare, ...] = ()
    partition: Optional[RegionPartition] = None

    def __init__(
        self,
        order: int,
        squares: Iterable[LatinSquare] = (),
        partition: Optional[RegionPartition] = None,
    ):
        n = int(order)
        sq = tuple(squares)
        if n < 1:
            raise MalformedSquare("order must be positive")
        k = len(sq)
        if n >= 2 and k > n - 1:
            raise TooManySquares(k, n)
        for i, s in enumerate(sq, 1):
            if s.order != n:
                raise OrderMismatch(f"square {i} has order {s.order}, but the system has order {n}")
        if partition is not None and partition.order != n:
            raise OrderMismatch(f"the partition has order {partition.order}, "
                                f"but the system has order {n}")
        for i in range(k):
            for j in range(i + 1, k):
                if not check_orthogonal(sq[i], sq[j]):
                    raise NotOrthogonal(i, j)
        if partition is not None:
            for i, s in enumerate(sq):
                if not validate_gerechte(s, partition):
                    raise NotGerechte(i)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "squares", sq)
        object.__setattr__(self, "partition", partition)

    @property
    def k(self) -> int:
        return len(self.squares)


def validate_mols(
    squares: Sequence[LatinSquare],
    partition: Optional[RegionPartition] = None,
    order: Optional[int] = None,
) -> MolsSystem:
    """Build a checked system from squares and an optional partition.

    ``order`` is only needed for an empty system with no partition.  Raises
    :class:`TooManySquares` before any pair check when more than n-1 squares
    are given (n >= 2), then :class:`NotOrthogonal` on the first bad pair in
    lexicographic (i, j) order, then :class:`NotGerechte` on the first
    unbalanced square.
    """
    squares = list(squares)
    if order is None:
        if squares:
            order = squares[0].order
        elif partition is not None:
            order = partition.order
        else:
            raise OrderMismatch("an empty system needs an explicit order")
    return MolsSystem(order, squares, partition)


def partition_rows(n: int) -> RegionPartition:
    """Regions are the rows: region_of(i, j) = i."""
    return RegionPartition(n, [i for i in range(n) for _ in range(n)])


def partition_boxes(n: int) -> RegionPartition:
    """The m-by-m box regions of an order m*m grid."""
    import math

    if n < 1:
        raise MalformedPartition("order must be positive")
    m = math.isqrt(n)
    if m * m != n:
        raise NotPerfectSquare(f"order {n} is not a perfect square")
    labels = [
        (i // m) * m + (j // m) for i in range(n) for j in range(n)
    ]
    return RegionPartition(n, labels)


def partition_from_square(b: Square) -> RegionPartition:
    """Read a square as a partition: region t is the set of cells holding t.

    Requires each symbol to occur exactly n times.  Applied to a Latin
    square, the regions are its symbol classes, so a square is an orthogonal
    mate of b exactly when it is balanced on this partition.
    """
    n = b.order
    counts = [0] * n
    for row in b.grid:
        for x in row:
            counts[x] += 1
    for t, c in enumerate(counts):
        if c != n:
            raise UnbalancedSymbols(
                f"symbol {t + 1} occurs {c} times, expected {n}"
            )
    return RegionPartition(n, [x for row in b.grid for x in row])
