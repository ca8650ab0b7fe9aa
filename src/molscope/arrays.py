"""Array forms of square systems and the per-cell profile of a partition.

A system of k squares of order n, with a region partition, flattens to an
n^2-by-(k+3) array: one row per cell in row-major order, columns holding the
cell's row index, column index, region label, and the k symbols.  The first
two columns are forced, the third is only balanced, and every later column
must be orthogonal to all others.  These types state the paper's array
view and validate it on their own; the engines do not build them.  They
read a system that :func:`molscope.core.validate_mols` has checked, and
that check is what every count trusts.  :func:`cell_profile` reads a
partition's labels: the per-cell counts the general bound integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import RegionPartition
from .errors import (
    InvalidNOA,
    InvalidOA,
    InvalidParams,
    LengthMismatch,
)


def coordinate_columns(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The forced first two columns: cell index l maps to (l // n, l % n)."""
    v1 = tuple(l // n for l in range(n * n))
    v2 = tuple(l % n for l in range(n * n))
    return v1, v2


def vectors_orthogonal(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff the ordered pairs (x_l, y_l) are all distinct.

    Both vectors must have length n^2 with symbols in {0, ..., n-1}; since
    there are exactly n^2 slots and n^2 possible pairs, "all distinct" means
    every pair occurs exactly once.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    n = math.isqrt(len(x))
    if n * n != len(x) or n == 0:
        raise InvalidParams(f"vector length {len(x)} is not a positive square")
    seen = 0
    for a, b in zip(x, y):
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidParams("symbol out of range for the vector length")
        bit = 1 << (a * n + b)
        if seen & bit:
            return False
        seen |= bit
    return True


def _freeze_rows(order: int, rows: Iterable[Iterable[int]], err) -> tuple[tuple[int, ...], ...]:
    n = int(order)
    frozen = tuple(tuple(int(x) for x in row) for row in rows)
    if len(frozen) != n * n:
        raise err(f"expected {n * n} rows, got {len(frozen)}")
    if not frozen:
        raise err("empty array")
    d = len(frozen[0])
    for row in frozen:
        if len(row) != d:
            raise err("ragged rows")
        for x in row:
            if not 0 <= x < n:
                raise err(f"symbol {x} out of range for order {n}")
    return frozen


def _column(rows: Sequence[Sequence[int]], j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in rows)


@dataclass(frozen=True)
class OrthArray:
    """n^2 rows of width d with every pair of columns orthogonal."""

    order: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, order: int, rows: Iterable[Iterable[int]]):
        frozen = _freeze_rows(order, rows, InvalidOA)
        d = len(frozen[0])
        if d < 2:
            raise InvalidOA("width must be at least 2")
        cols = [_column(frozen, j) for j in range(d)]
        for a in range(d):
            for b in range(a + 1, d):
                if not vectors_orthogonal(cols[a], cols[b]):
                    raise InvalidOA(f"columns {a + 1} and {b + 1} are not orthogonal")
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "rows", frozen)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return _column(self.rows, j)


@dataclass(frozen=True)
class NearlyOrthArray:
    """Array whose columns 1-2 are the cell coordinates and column 3 a
    balanced region column; columns 4 and later must be orthogonal to all
    other columns (the region column itself need not be orthogonal to the
    coordinates — that slack is the whole point)."""

    order: int
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, order: int, rows: Iterable[Iterable[int]]):
        frozen = _freeze_rows(order, rows, InvalidNOA)
        n = int(order)
        d = len(frozen[0])
        if d < 3:
            raise InvalidNOA("width must be at least 3")
        v1, v2 = coordinate_columns(n)
        cols = [_column(frozen, j) for j in range(d)]
        if cols[0] != v1:
            raise InvalidNOA("column 1 must list each row index n times in order")
        if cols[1] != v2:
            raise InvalidNOA("column 2 must cycle the column indices")
        counts = [0] * n
        for x in cols[2]:
            counts[x] += 1
        if any(c != n for c in counts):
            raise InvalidNOA("column 3 must contain each symbol exactly n times")
        for a in range(3, d):
            for b in range(d):
                if a != b and not vectors_orthogonal(cols[a], cols[b]):
                    raise InvalidNOA(
                        f"columns {a + 1} and {b + 1} are not orthogonal"
                    )
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "rows", frozen)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        return _column(self.rows, j)

    def with_column(self, x: Sequence[int]) -> "NearlyOrthArray":
        """Append a column; the constructor validates the result.

        Only the length is checked here, since pairing rows with a longer
        column would silently drop its tail."""
        n = self.order
        if len(x) != n * n:
            raise InvalidNOA(f"expected {n * n} rows, got {len(x)}")
        return NearlyOrthArray(n, [r + (v,) for r, v in zip(self.rows, x)])


@dataclass(frozen=True)
class CellProfile:
    """For each cell, how many other cells share its row and region (r) or
    its column and region (c).  Both entries lie in {0, ..., n-1} and a cell's
    row-sharing and column-sharing region-mates are disjoint, so r + c <= n-1.
    """

    order: int
    r: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        n = self.order
        if len(self.r) != n * n or len(self.c) != n * n:
            raise InvalidParams("profile vectors must have length n^2")
        for rl, cl in zip(self.r, self.c):
            if not (0 <= rl < n and 0 <= cl < n and rl + cl <= n - 1):
                raise InvalidParams("profile entries out of range")


def cell_profile(partition: RegionPartition) -> CellProfile:
    """Count, for each cell, the other cells sharing (row, region) and
    (column, region) of ``partition``.  Cells are grouped by the shared
    pair, so every member of a group of size g gets g-1."""
    n = partition.order
    nn = n * n
    labels = partition.labels
    r = [0] * nn
    c = [0] * nn
    row_groups: dict[tuple[int, int], list[int]] = {}
    col_groups: dict[tuple[int, int], list[int]] = {}
    for l in range(nn):
        row_groups.setdefault((l // n, labels[l]), []).append(l)
        col_groups.setdefault((l % n, labels[l]), []).append(l)
    for group in row_groups.values():
        for l in group:
            r[l] = len(group) - 1
    for group in col_groups.values():
        for l in group:
            c[l] = len(group) - 1
    return CellProfile(n, tuple(r), tuple(c))
