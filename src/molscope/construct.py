"""Product constructions and certified lower bounds on mate counts.

Cayley tables of finite abelian groups, the block product of two squares,
its iterated powers, the translate construction that turns one transversal
of a Cayley table into a family of orthogonal mates, and the arithmetic
that turns exact mate counts of small squares into astronomically large
certified counts for their products.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .core import (
    LatinSquare,
    RegionPartition,
    Square,
    Transversal,
    check_orthogonal,
    is_transversal,
    partition_rows,
)
from .errors import InvalidParams, NotATransversal, NotFoundWithinLimit
from .bounds import log_factorial
from .search import _chain_tree, _check_limit, check_census_order

DEFAULT_CONSTRUCT_LIMIT = 64


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group as a product of cyclic factors, each >= 2.

    An empty factor list is the trivial group of order 1.  Elements are the
    mixed-radix tuples in lexicographic order.
    """

    factors: tuple[int, ...]

    def __init__(self, factors=()):
        fs = tuple(int(m) for m in factors)
        for m in fs:
            if m < 2:
                raise InvalidParams(f"cyclic factor {m} must be at least 2")
        object.__setattr__(self, "factors", fs)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(m) for m in self.factors)))

    def index_of(self, elem: tuple[int, ...]) -> int:
        idx = 0
        for x, m in zip(elem, self.factors):
            idx = idx * m + x
        return idx

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.factors))


def cayley_table(g: GroupSpec) -> LatinSquare:
    """grid[a][b] = index of (element a + element b), elements lexicographic."""
    n = g.order
    _check_limit(n, DEFAULT_CONSTRUCT_LIMIT, "construction")
    elems = g.elements()
    grid = [[g.index_of(g.add(a, b)) for b in elems] for a in elems]
    return LatinSquare(Square(grid))


def kronecker(a: LatinSquare, b: LatinSquare) -> LatinSquare:
    """Block product: cell ((i1,j1),(i2,j2)) holds (a(i1,i2), b(j1,j2)),
    with the fixed bijection (u, v) -> u*n2 + v applied to row, column, and
    symbol pairs alike.  That convention makes the product of two Cayley
    tables *equal* the Cayley table of the product group, not merely
    isomorphic to it.
    """
    n1, n2 = a.order, b.order
    n = n1 * n2
    _check_limit(n, DEFAULT_CONSTRUCT_LIMIT, "construction")
    grid = [[0] * n for _ in range(n)]
    for i1 in range(n1):
        for j1 in range(n2):
            row = grid[i1 * n2 + j1]
            for i2 in range(n1):
                av = a.value(i1, i2) * n2
                for j2 in range(n2):
                    row[i2 * n2 + j2] = av + b.value(j1, j2)
    return LatinSquare(Square(grid))


def power(l: LatinSquare, k: int) -> LatinSquare:
    """Left-associated k-fold block product of ``l`` with itself."""
    if k < 1:
        raise InvalidParams("power needs k >= 1")
    _check_limit(l.order**k, DEFAULT_CONSTRUCT_LIMIT, "construction")
    out = l
    for _ in range(k - 1):
        out = kronecker(out, l)
    return out


def translate_mates(
    g: GroupSpec, t: Transversal
) -> tuple[RegionPartition, Iterator[LatinSquare]]:
    """Shift one transversal around the group; the n shifted copies tile the
    table, and assigning the n symbols to the n tiles in any of the n! ways
    yields an orthogonal mate of the Cayley table.

    Returns the tiling as a partition plus a lazy walk over all n! mates in
    lexicographic symbol-assignment order; a caller that wants fewer slices
    it.  Shift h moves cell (i, j) to (i, table(j, h)).

    Once ``t`` is a transversal of the abelian table, each shift
    (i, j) -> (i, j + h) is one too, and two shifts share no cell: a shared
    cell has one row, so one cell of ``t``, so one h.  A collision is a bug.
    """
    table = cayley_table(g)
    n = table.order
    if t.order != n or not is_transversal(table, t.cells):
        raise NotATransversal(
            "the given cells are not a transversal of the group's table"
        )
    labels = [[-1] * n for _ in range(n)]
    for i, j in sorted(t.cells):
        for h, jj in enumerate(table.grid[j]):
            if labels[i][jj] != -1:
                raise RuntimeError("two shifted copies collide — tiling bug")
            labels[i][jj] = h
    partition = RegionPartition(n, [x for row in labels for x in row])
    for h in range(n):
        if not is_transversal(table, partition.cells_of(h)):
            raise RuntimeError("a shifted copy is not a transversal — tiling bug")

    def mates() -> Iterator[LatinSquare]:
        for perm in itertools.permutations(range(n)):
            mate = LatinSquare(Square([[perm[h] for h in row] for row in labels]))
            if not check_orthogonal(table, mate):
                raise RuntimeError("emitted square is not a mate — tiling bug")
            yield mate

    return partition, mates()


# --------------------------------------------------------------------------
# certified lower-bound arithmetic


def product_mate_bound(n1: int, n2: int, log_q1: float, log_q2: float) -> float:
    """Log of the certified mate count of a block product:
    log q1 + n1^2 log q2 + log (n1 n2)! - log n1! - n1 log n2!.

    The log-q arguments are natural logs of mate counts; -inf propagates
    (no mates in a factor certifies nothing).
    """
    if n1 < 1 or n2 < 1:
        raise InvalidParams("orders must be positive")
    return (
        log_q1
        + n1 * n1 * log_q2
        + log_factorial(n1 * n2)
        - log_factorial(n1)
        - n1 * log_factorial(n2)
    )


def product_mate_bound_exact(n1: int, n2: int, q1: int, q2: int) -> int:
    """The same bound as an exact integer: q1 q2^(n1^2) (n1 n2)!/(n1! n2!^n1)."""
    if n1 < 1 or n2 < 1 or q1 < 0 or q2 < 0:
        raise InvalidParams("orders must be positive and counts nonnegative")
    num = math.factorial(n1 * n2)
    den = math.factorial(n1) * math.factorial(n2) ** n1
    q, r = divmod(num, den)
    if r:
        raise RuntimeError("factorial quotient is not integral — formula bug")
    return q1 * q2 ** (n1 * n1) * q


def power_exponent(m: int, k: int) -> int:
    """The exact exponent (m^(2k) - 1) / (m^2 - 1) of the power bound."""
    if m < 2 or k < 1:
        raise InvalidParams("need m >= 2 and k >= 1")
    q, r = divmod(m ** (2 * k) - 1, m * m - 1)
    if r:
        raise RuntimeError("exponent is not integral — formula bug")
    return q


def power_mate_bound(m: int, log_q: float, k: int) -> float:
    """Log of the certified mate count of the k-fold power: exponent * log q,
    with the exponent computed in exact integer arithmetic."""
    return power_exponent(m, k) * log_q


@dataclass(frozen=True)
class MateCertificate:
    """A lower bound on the mate count of a power of ``base``, of order
    ``order``.

    The bound is always a power bound: ``base_mates``, the exact mate count
    of the order-m ``base`` read off the census walk as m! times its
    transversal partitions, pushed through the power formula.
    """

    description: str
    log_lower_bound: float
    base: LatinSquare
    base_mates: int
    order: int


def construct_for_constant(
    C: float, search_limit: int = 5, k: int = 2
) -> MateCertificate:
    """Find the smallest base order m <= search_limit with a square of at
    least C^(m^2) mates (exact threshold comparison), take the
    lexicographically first such square as the base, then certify the
    k-fold power: its mate count is at least C^(n^2) with n = m^k.

    The base is the smallest qualifying depth-1 node of the census walk
    :func:`_chain_tree` on the rows partition, a square whose row 0 reads
    0, ..., m-1: relabelling symbols keeps the mate count and makes any
    square read so, which leaves it no larger lexicographically.

    Only small C is satisfiable at desk scale.  An order m past the census
    limit (:func:`check_census_order`) raises :class:`LimitExceeded` before
    its walk; when no base square qualifies, the exhaustive outcome is
    reported honestly as :class:`NotFoundWithinLimit` rather than extrapolated.
    A k whose power bound overflows a float raises :class:`InvalidParams`.
    """
    if C <= 0:
        raise InvalidParams("C must be positive")
    if not math.isfinite(C):
        raise InvalidParams(f"C must be finite, got {C}")
    if search_limit < 2:
        raise InvalidParams("search_limit must be at least 2")
    if k < 1:
        raise InvalidParams("k must be at least 1")
    num, den = C.as_integer_ratio()
    for m in range(2, search_limit + 1):
        threshold = max(1, -(-num ** (m * m) // den ** (m * m)))  # ⌈C^(m²)⌉, exactly
        check_census_order(m)
        nodes = ((cols[0], count) for cols, count in _chain_tree(partition_rows(m), 1)
                 if cols and count >= threshold)
        col, mates = min(nodes, default=(None, 0))
        if col is None:
            continue
        n = m**k
        try:
            log_bound = power_mate_bound(m, math.log(mates), k)
            if log_bound < n * n * math.log(C) - 1e-9:
                raise RuntimeError("power bound fell below C^(n^2) — bug")
        except OverflowError as exc:
            raise InvalidParams(f"the {k}-fold power of the order-{m} base overflows "
                                f"a float") from exc
        return MateCertificate(
            description=(
                f"order-{m} base square raised to the {k}-fold "
                f"block product (order {n})"
            ),
            log_lower_bound=log_bound,
            base=LatinSquare(Square([col[i * m : (i + 1) * m] for i in range(m)])),
            base_mates=mates,
            order=n,
        )
    raise NotFoundWithinLimit(
        f"no Latin square of order <= {search_limit} has at least C^(m^2) "
        f"mates for C = {C}; larger bases are beyond exhaustive search"
    )
