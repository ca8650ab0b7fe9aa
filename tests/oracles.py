"""Naive reference implementations, used only by tests.

Everything here is written the slow, obvious way (permutations, sets,
brute-force filters, mpmath quadrature) and deliberately shares no code
with the package, so agreement between the two is meaningful.
"""

import functools
import itertools
import math
from fractions import Fraction

import mpmath

mpmath.mp.dps = 40


# --------------------------------------------------------------------------
# combinatorial oracles


def brute_latin_squares(n):
    """All order-n Latin squares as tuples of row tuples, lexicographic."""
    perms = list(itertools.permutations(range(n)))
    out = []

    def rec(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if all(p[j] != r[j] for r in rows for j in range(n)):
                rows.append(p)
                rec(rows)
                rows.pop()

    rec([])
    return out


def reduced_latin_squares(n):
    """The order-n Latin squares whose first row and first column both read
    0, 1, ..., n-1, lexicographic: row i is a permutation starting with i
    that differs from every row above in every column."""
    perms = list(itertools.permutations(range(n)))
    out = []

    def rec(rows):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if p[0] == len(rows) and all(p[j] != r[j] for r in rows for j in range(n)):
                rec(rows + [p])

    rec([tuple(range(n))])
    return out


@functools.lru_cache(maxsize=None)
def product_latin_squares(n):
    """All order-n Latin squares, lexicographic: every n-tuple of row
    permutations, kept when each column holds n distinct symbols."""
    perms = list(itertools.permutations(range(n)))
    return tuple(rows for rows in itertools.product(perms, repeat=n)
                 if all(len(set(col)) == n for col in zip(*rows)))


def orthogonal_pairs(squares):
    """Ordered pairs (a, b) from ``squares`` that are orthogonal, checked
    cell by cell: the n*n cells must carry n*n distinct symbol pairs."""
    flat = [tuple(x for row in s for x in row) for s in squares]
    return sum(len(set(zip(a, b))) == len(a) for a in flat for b in flat)


def is_latin(grid):
    n = len(grid)
    want = set(range(n))
    for row in grid:
        if set(row) != want:
            return False
    for j in range(n):
        if {grid[i][j] for i in range(n)} != want:
            return False
    return True


def orthogonal(a, b):
    n = len(a)
    pairs = {(a[i][j], b[i][j]) for i in range(n) for j in range(n)}
    return len(pairs) == n * n


def gerechte(grid, labels):
    """labels: flat row-major region labels."""
    n = len(grid)
    regions = {}
    for i in range(n):
        for j in range(n):
            regions.setdefault(labels[i * n + j], []).append(grid[i][j])
    return all(sorted(v) == list(range(n)) for v in regions.values())


def mates(grid, squares=None):
    """All orthogonal mates of grid among order-n Latin squares."""
    if squares is None:
        squares = brute_latin_squares(len(grid))
    return [s for s in squares if orthogonal(grid, s)]


def extensions(squares, labels):
    """The squares gerechte for labels (flat row-major region labels) and
    orthogonal to every one of squares, as flat row-major tuples: rows are
    permutations, each kept when it repeats no symbol of a column above and
    no (given square, symbol, new symbol) pair."""
    n = math.isqrt(len(labels))
    perms = list(itertools.permutations(range(n)))
    out = []

    def rec(rows, pairs):
        if len(rows) == n:
            if gerechte(rows, labels):
                out.append(tuple(x for row in rows for x in row))
            return
        i = len(rows)
        for p in perms:
            if any(p[j] == r[j] for r in rows for j in range(n)):
                continue
            new = {(k, s[i][j], p[j]) for k, s in enumerate(squares) for j in range(n)}
            if len(new) == len(squares) * n and not new & pairs:
                rec(rows + [p], pairs | new)

    rec([], set())
    return out


def transversals(grid):
    """All transversals as sorted cell tuples, via column permutations."""
    n = len(grid)
    out = []
    for perm in itertools.permutations(range(n)):
        if len({grid[i][perm[i]] for i in range(n)}) == n:
            out.append(tuple((i, perm[i]) for i in range(n)))
    return out


def transversal_partitions(grid):
    """All unordered partitions of the cells into n disjoint transversals,
    as frozensets of cell-tuples."""
    n = len(grid)
    trs = [frozenset(t) for t in transversals(grid)]
    found = set()

    def rec(used_cells, chosen, start):
        if len(chosen) == n:
            found.add(frozenset(chosen))
            return
        for idx in range(start, len(trs)):
            t = trs[idx]
            if not (t & used_cells):
                rec(used_cells | t, chosen + [t], idx + 1)

    rec(frozenset(), [], 0)
    return found


def partition_count(grid):
    """The number of transversal partitions, by a recursion over the set of
    cells still free, memoized on that set: the part through the least free
    cell is one of the transversals through it that lie inside the set."""
    n = len(grid)
    trs = [frozenset(t) for t in transversals(grid)]
    cells = [(i, j) for i in range(n) for j in range(n)]
    through = {c: [t for t in trs if c in t] for c in cells}

    @functools.lru_cache(maxsize=None)
    def rec(free):
        if not free:
            return 1
        return sum(rec(free - t) for t in through[min(free)] if t <= free)

    return rec(frozenset(cells))


def lexicographic_partitions(grid):
    """Transversal partitions in lexicographic order, lazily.

    Transversals are numbered in the order of :func:`transversals`.  The
    part through the lowest uncovered cell (row-major) is chosen next, and
    the transversals through that cell are tried in increasing number, each
    tested against the covered cells.  Each partition is yielded as a tuple
    of its parts' cell tuples, parts in order of their lowest cells.
    """
    n = len(grid)
    trs = transversals(grid)
    through = {}
    for idx, t in enumerate(trs):
        for cell in t:
            through.setdefault(cell, []).append(idx)
    cells = [(i, j) for i in range(n) for j in range(n)]

    def rec(covered, chosen):
        free = [c for c in cells if c not in covered]
        if not free:
            yield tuple(trs[t] for t in chosen)
            return
        for t in through.get(free[0], []):
            if not covered & set(trs[t]):
                yield from rec(covered | set(trs[t]), chosen + [t])

    yield from rec(frozenset(), [])


@functools.lru_cache(maxsize=None)
def _gerechte_graph(n, labels):
    """The Latin squares gerechte for labels, lexicographic, and for each
    the set of indices of those orthogonal to it."""
    squares = [s for s in brute_latin_squares(n) if gerechte(s, labels)]
    adj = [set() for _ in squares]
    for a, b in itertools.combinations(range(len(squares)), 2):
        if orthogonal(squares[a], squares[b]):
            adj[a].add(b)
            adj[b].add(a)
    for a, s in enumerate(squares):
        if orthogonal(s, s):  # order 1 only
            adj[a].add(a)
    return squares, adj


def all_systems(n, labels, kmax):
    """Every system of at most kmax pairwise orthogonal squares gerechte for
    labels (flat row-major region labels), unreduced.

    Yields (squares, extensions) in pre-order: a system, then the systems
    extending it by one square, in lexicographic order of the new grid.
    ``extensions`` is the number of squares that extend the system.
    """
    squares, adj = _gerechte_graph(n, tuple(labels))

    def rec(chosen, candidates):
        yield tuple(squares[i] for i in chosen), len(candidates)
        if len(chosen) < kmax:
            for i in sorted(candidates):
                yield from rec(chosen + [i], candidates & adj[i])

    yield from rec([], set(range(len(squares))))


def mols_tuples(n, k, squares=None):
    """Count ordered k-tuples of pairwise orthogonal squares (brute force)."""
    if squares is None:
        squares = brute_latin_squares(n)
    total = 0

    def rec(chosen):
        nonlocal total
        if len(chosen) == k:
            total += 1
            return
        for s in squares:
            if all(orthogonal(s, c) for c in chosen):
                rec(chosen + [s])

    rec([])
    return total


# --------------------------------------------------------------------------
# numeric oracles (mpmath, high precision)


def integral_I_mp(n, d):
    """int_0^1 log(1 + (n-1) t^d) dt at 40 digits."""
    n = mpmath.mpf(n)
    return mpmath.quad(lambda t: mpmath.log(1 + (n - 1) * t**d), [0, 1])


def general_integral_mp(n, r, c, d):
    """int_0^1 log(1 + (r+c) t^(d-1) + (n-r-c-1) t^d) dt at 40 digits."""
    return mpmath.quad(
        lambda t: mpmath.log(1 + (r + c) * t ** (d - 1) + (n - r - c - 1) * t**d),
        [0, 1],
    )


def c_beta_mp(beta):
    """1 - (1/beta) int_0^beta x (1 - exp(-1/x)) dx at 40 digits."""
    beta = mpmath.mpf(beta)

    def f(x):
        if x == 0:
            return mpmath.mpf(0)
        return x * (1 - mpmath.e ** (-1 / x))

    return 1 - mpmath.quad(f, [0, beta]) / beta


def product_bound_exact(n1, n2, q1, q2):
    """q1 * q2^(n1^2) * (n1 n2)! / (n1! * n2!^n1) as an exact integer."""
    import math

    val = Fraction(math.factorial(n1 * n2), math.factorial(n1) * math.factorial(n2) ** n1)
    assert val.denominator == 1
    return q1 * q2 ** (n1 * n1) * val.numerator
