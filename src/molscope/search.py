"""Exact enumeration: transversals, partitions, extension columns, systems.

One engine does the counting: exact cover of the n x n cells by array
transversals.  A square extends a system of squares with a region partition
(a :class:`MolsSystem`, already checked by ``validate_mols``) exactly when
each of its symbol classes is an *array transversal* of the system: n
cells, one per row and one per column, meeting every region once and every
symbol of every square once.  The engines read these from per-cell codes
built straight off the partition's labels and the squares
(:func:`_array_codes`).  For the rows partition and one square they are its
Latin transversals, since a cell's row bit never clashes, so a square's
transversal and partition counts read the codes of that system.  Orthogonal
mates, gerechte mates, k-tuples and transversal partitions are all covers
of some array's transversals.  A second, structurally different engine over
plain grids is kept alongside it so headline counts can be confirmed by two
engines that share no code path; it serves those cross-checks and the
tests, and no count or construction reads its answers.  It builds each
square row by row, every row one of the n! permutations, over bitsets of
rows: a table holds, per row, the rows that differ from it in every column,
so each row passes down its candidates AND that set (a gerechte or Sudoku
row is also checked against the region codes of the rows above).  The table
takes (n!)²/8 bytes, so the engine stops at order 7.  A pair of squares is
orthogonal when every symbol class of the second is in the first's set of
transversal cell masks.

The cover is Knuth's Algorithm X (arXiv cs/0011047) over bitsets: cells
are the items, the T transversals the options, and every set of options is
an integer with one bit per transversal index.  Two tables are built once
per call and shared by every branch: ``through[c]``, the options containing
cell ``c``, and ``disjoint[t]``, the options sharing no cell with ``t``
(the complement of the OR of ``through`` over the n cells of ``t``).
``disjoint`` takes T²/8 bytes, about 0.6 MB at the order-9 maximum
T = 2,241, so a plan lists at most :data:`COVER_MAX_OPTIONS` options and
refuses a cover with more before building any table.  One recursion
counts a chain of covers, starting each cover at cell 0 once the one
before is complete (:func:`_cover_branch`).  It never searches the last
two parts of the last cover: once two parts are left, every allowed option
through the lowest uncovered cell completes in exactly one way.

Symmetry reduction: relabelling the symbols of a new column maps extensions
to extensions, so the symmetric group S_n acts freely on them.  A cover is
an unordered partition into n transversals, one orbit: giving part s symbol
s, with the parts in order of their lowest cells, makes row 0 read 0, 1,
..., n-1.  So an extension count is n! times the covers, and a chain of k
covers, each using only the transversals that meet every part of the covers
before it, is a k-tuple of squares worth (n!)^k.  The census walks that
chain tree (:func:`_chain_tree`): a node at depth j is a j-system, and its
extension count is n! times its child covers.

The input square's own symmetries reduce transversal counts, and the exact
covers of a system of one square on the rows: its partition count and its
extension count, which is its mate count (n! times the partition count, on
the same plan, :func:`_cover_plan`).  No other system is reduced: its
partition need not be kept by the square's maps.  An autotopism (α, β, γ)
of L, with L[α(i)][β(j)] = γ(L[i][j]) at every cell, maps transversals to
transversals and partitions to partitions.  One with α(0) = 0 maps the
transversals through (0, j) onto those through (0, β(j)); one that also has
β(0) = 0 fixes cell 0 and maps the partitions containing a part through
cell 0 onto those containing its image.  So the branches of one orbit count
alike, and a count runs the branch of each orbit's smallest member, weighed
by the orbit's size.  The maps come from a bounded search
(:func:`_autotopisms`), and each is checked cell by cell before use; a
missed map only splits an orbit.  The engines only count; the listing
walks (:func:`iter_transversals`, :func:`iter_transversal_partitions`,
:func:`iter_extensions`) keep lexicographic order, so they are sequential
and unreduced.  The direct engine is never reduced (every square is one
leaf of its walk), so it stays an independent check.

Determinism contract: results never depend on thread count.  Branches
return counts.  The exact cover always branches on the part through cell
0, which costs no extra set-up.  Every pooled search branches on its first
choice, whatever the options: the option through cell 0 of a cover, the
column of row 0 of a transversal, one branch per orbit where the square's
autotopisms join several.  The branches and their orbit sizes are fixed by
the instance alone.  Branches are dispatched in decreasing order of their
orbit sizes, ties in increasing order of their representatives, and their
counts are added as they finish (:func:`_aggregate`).  With a threshold, a
branch standing for an orbit of s branches whose leaves are worth w each
counts only up to ⌈threshold / (w·s)⌉ leaves and returns the smaller of its
count and that limit, a value that depends on the branch alone, never on
the schedule or the other branches.  A branch at its limit reaches
the threshold by itself, so the total reaches the threshold exactly when
the uncapped total would, and a threshold-stopped count always reports
exactly the threshold (flagged inexact).  The largest orbit has the
smallest limit, so it goes first: it alone reaches the threshold after the
fewest leaves.  So schedules cannot leak into output: the count is
min(threshold, total), however the tree was cut, and a sum of exact
integers does not depend on the order of its terms.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import InitVar, dataclass
from itertools import islice, permutations
from typing import Iterator, Optional, Sequence

from .core import (
    LatinSquare,
    MolsSystem,
    RegionPartition,
    Square,
    partition_rows,
    validate_mols,
)
from .errors import InvalidParams, LimitExceeded

# --------------------------------------------------------------------------
# count values


@dataclass(frozen=True)
class Exact:
    """An exact nonnegative integer count (arbitrary precision)."""

    count: int

    def __post_init__(self):
        if self.count < 0:
            raise InvalidParams("counts cannot be negative")

    def ln(self) -> float:
        return math.log(self.count) if self.count else float("-inf")


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by all searches.

    ``stop_threshold`` lets a count stop early once it is known to be at
    least that large; the result is then reported as exactly the threshold
    with ``exact_flag`` False ("at least").  ``threads`` above 1
    distributes top-level branches over that many worker processes; None or
    1 runs in-process.  ``parallel`` is accepted and ignored: older callers,
    the benchmark's tracing scripts among them, still pass it.
    """

    stop_threshold: Optional[int] = None
    threads: Optional[int] = None
    parallel: InitVar[bool] = False

    def __post_init__(self, parallel):
        if self.stop_threshold is not None and self.stop_threshold <= 0:
            raise InvalidParams("stop_threshold must be positive")
        if self.threads is not None and self.threads <= 0:
            raise InvalidParams("threads must be positive")


@dataclass(frozen=True)
class ExtensionCount:
    """A search result: the count, and whether it is the full count."""

    value: Exact
    exact_flag: bool


DEFAULT_ENUM_LIMIT = 16  # transversals / single-column extensions
DEFAULT_MOLS_LIMIT = 5  # every walk of the chain tree: tuple counts, censuses


def order_limit(default: int) -> int:
    """Effective order limit: ``default``, or MOLSCOPE_LIMIT_N where that is
    larger (the variable raises limits and never lowers one)."""
    env = os.environ.get("MOLSCOPE_LIMIT_N")
    if env:
        try:
            return max(default, int(env))
        except ValueError as exc:
            raise InvalidParams(f"MOLSCOPE_LIMIT_N={env!r} is not an integer") from exc
    return default


def _check_limit(n: int, default: int, what: str) -> None:
    lim = order_limit(default)
    if n > lim:
        raise LimitExceeded(
            f"{what} at order {n} exceeds the configured limit {lim} "
            f"(set MOLSCOPE_LIMIT_N to override)"
        )


# --------------------------------------------------------------------------
# deterministic branch aggregation (sequential or process pool)


def _pooled(branch, shared, calls, procs: int) -> Iterator[tuple[int, int]]:
    """(index, subcount) pairs of ``calls`` as ``procs`` forked workers
    finish them, each worker fed the next branch index over a pipe of its
    own; a branch's exception crosses the pipe and is raised on arrival.
    The workers share no lock, so closing the generator can kill them
    anywhere (killing a worker that holds its result queue's lock hangs
    ``multiprocessing.Pool``).  ``multiprocessing`` is imported here, so a
    command that starts no pool never loads it."""
    import multiprocessing
    import multiprocessing.connection

    def serve(conn) -> None:
        while True:
            call = calls[conn.recv()]
            try:
                conn.send((True, branch(*shared, *call)))
            except Exception as exc:
                conn.send((False, exc))

    def feed(conn) -> None:
        for idx in islice(todo, 1):
            conn.send(idx)
            busy[conn] = idx

    ctx = multiprocessing.get_context("fork")
    todo = iter(range(len(calls)))
    busy, workers = {}, []
    try:
        for _ in range(procs):
            mine, theirs = ctx.Pipe()
            w = ctx.Process(target=serve, args=(theirs,), daemon=True)
            w.start()
            workers.append((w, mine))
            theirs.close()  # so a dead worker's pipe reads as closed
            feed(mine)
        while busy:
            for conn in multiprocessing.connection.wait(list(busy)):
                ok, sub = conn.recv()
                if not ok:
                    raise sub
                yield busy.pop(conn), sub
                feed(conn)
    finally:
        for w, mine in workers:
            w.kill()
            w.join()
            mine.close()


def _aggregate(state, opts: SearchOptions, weight: int = 1) -> ExtensionCount:
    """Run all branches, largest orbit first, and add their subcounts as
    they finish, each leaf counting ``weight`` objects, until the total
    reaches the threshold.

    ``state`` is (branch function, shared arguments, items), each item an
    (argument, size) pair, listed in increasing order of the arguments (the
    orbits' representatives): ``branch(*shared, limit, argument)`` counts up
    to ``limit`` for an orbit of ``size`` branches with equal counts, so it
    adds sub × weight × size.  One stable sort puts the items in decreasing
    order of size, ties kept in representative order, with or without a
    threshold or a pool: under threshold T a branch's limit is
    ⌈T / (weight·size)⌉, the leaves it needs to reach T alone, the fewest
    for the largest orbit.  One accumulation loop serves one process and
    many.  A branch's exception is raised when it arrives, unless T was
    reached before; branch functions raise nothing by design.
    """
    branch, shared, items = state
    items = sorted(items, key=lambda item: -item[1])
    threshold = opts.stop_threshold
    calls = [(threshold and -(-threshold // (weight * size)), item) for item, size in items]
    procs = min(opts.threads or 1, len(calls))
    subs = (_pooled(branch, shared, calls, procs) if procs > 1
            else ((idx, branch(*shared, *call)) for idx, call in enumerate(calls)))
    total = 0
    with closing(subs):
        for idx, sub in subs:
            total += sub * weight * items[idx][1]
            if threshold is not None and total >= threshold:
                # Report exactly the threshold: the deterministic "at least" value.
                return ExtensionCount(Exact(threshold), False)
    return ExtensionCount(Exact(total), True)


# --------------------------------------------------------------------------
# autotopisms and orbit branches

# Propagation steps one call of _autotopisms may take over all its seeds.
# Any set of verified maps gives valid orbits, so stopping early only makes
# the orbits finer.  Every seed of a group table of order 16 completes
# within it (Z2^4 takes 185,760 steps, about 0.1 s); a square with no
# autotopism but the identity takes a few thousand.
AUTOTOPISM_WORK = 200_000


def _autotopisms(grid: Sequence[Sequence[int]], fix_cell: bool) -> list[tuple[list[int], list[int], list[int]]]:
    """Autotopisms (α, β, γ) of the Latin square ``grid``, each verified:
    L[α(i)][β(j)] = γ(L[i][j]) at every cell, with α(0) = 0, and β(0) = 0
    as well when ``fix_cell`` (the maps fixing cell 0).

    One search per seed β(0), β(1).  A known α(i) and β(j) give
    γ(L[i][j]); a known γ(x) gives β on the column of x in each mapped row
    and α on the row of x in each mapped column.  When that stalls, the
    search branches on the next undetermined β(j).  A full β forces the rest
    (row 0 gives γ, then column 0 gives α), and the first completion of each
    seed is kept.  The maps found need not be the whole group, only
    autotopisms: at most n(n-1) searches under :data:`AUTOTOPISM_WORK`
    steps, never the (n-1)! choices of β.
    """
    n = len(grid)
    rpos = [[0] * n for _ in range(n)]  # rpos[i][x]: the column of x in row i
    cpos = [[0] * n for _ in range(n)]  # cpos[j][x]: the row of x in column j
    for i, row in enumerate(grid):
        for j, x in enumerate(row):
            rpos[i][x] = j
            cpos[j][x] = i
    work = AUTOTOPISM_WORK

    def propagate(fs, pending) -> bool:
        # fs = [α, β, γ, α⁻¹, β⁻¹, γ⁻¹], -1 where unknown; pending holds
        # (0 α | 1 β | 2 γ, argument, image) facts still to apply
        nonlocal work
        a, b, g = fs[0], fs[1], fs[2]
        while pending:
            work -= 1
            kind, k, v = pending.pop()
            f, inv = fs[kind], fs[kind + 3]
            if f[k] == v:
                continue
            if f[k] >= 0 or inv[v] >= 0:
                return False
            f[k], inv[v] = v, k
            if kind == 0:  # row k goes to row v
                pending += [(2, grid[k][j], grid[v][c]) for j, c in enumerate(b) if c >= 0]
                pending += [(1, rpos[k][x], rpos[v][y]) for x, y in enumerate(g) if y >= 0]
            elif kind == 1:  # column k goes to column v
                pending += [(2, grid[i][k], grid[r][v]) for i, r in enumerate(a) if r >= 0]
                pending += [(0, cpos[k][x], cpos[v][y]) for x, y in enumerate(g) if y >= 0]
            else:  # symbol k goes to symbol v
                pending += [(1, rpos[i][k], rpos[r][v]) for i, r in enumerate(a) if r >= 0]
                pending += [(0, cpos[j][k], cpos[c][v]) for j, c in enumerate(b) if c >= 0]
        return True

    def complete(fs, pending):
        if work <= 0 or not propagate(fs, pending):
            return None
        if -1 not in fs[1]:
            return fs[:3]
        j = fs[1].index(-1)
        for c in range(n):
            if fs[4][c] < 0:
                found = complete([f[:] for f in fs], [(1, j, c)])
                if found:
                    return found
        return None

    # Every column gets a turn as β(0) before any gets a second, so a search
    # cut short by the work limit still tends to join all of row 0.
    seeds = [(b0, (b0 + d) % n) for d in range(1, n) for b0 in ([0] if fix_cell else range(n))]
    maps = []
    for b0, b1 in seeds:
        found = complete([[-1] * n for _ in range(6)], [(0, 0, 0), (1, 0, b0), (1, 1, b1)])
        if found and _is_autotopism(grid, *found):
            maps.append(found)
    return maps


def _is_autotopism(grid, a, b, g) -> bool:
    """Whether α, β, γ are permutations with L[α(i)][β(j)] = γ(L[i][j])
    at every cell."""
    ident = list(range(len(grid)))
    if sorted(a) != ident or sorted(b) != ident or sorted(g) != ident:
        return False
    return all(grid[a[i]][b[j]] == g[x] for i, row in enumerate(grid) for j, x in enumerate(row))


def _orbits(points: Sequence[int], perms: Sequence) -> list[tuple[int, int]]:
    """The orbits of ``points`` under the group the permutations ``perms``
    generate (each indexable by every point), as (smallest member, size)
    pairs in increasing order of their smallest members."""
    parent = {p: p for p in points}

    def root(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for perm in perms:
        for p in points:
            r, s = root(p), root(perm[p])
            if r != s:  # every root is the smallest member of its set
                parent[max(r, s)] = min(r, s)
    sizes: dict[int, int] = {}
    for p in points:
        r = root(p)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.items())


# --------------------------------------------------------------------------
# transversals and exact covers


def _array_codes(system: MolsSystem) -> list[list[int]]:
    """Per cell, bit x for its region x and bit (b+1)*n + x for value x of
    square b of ``system``: the transversals of these codes are the array
    transversals of the system, the n cells meeting every region and every
    value of every square once."""
    if system.partition is None:
        raise InvalidParams("system has no partition; attach partition_rows(n)")
    n = system.order
    labels = system.partition.labels
    grids = [s.grid for s in system.squares]
    return [[1 << labels[i * n + j] | sum(1 << (b * n + g[i][j]) for b, g in enumerate(grids, 1))
             for j in range(n)] for i in range(n)]


def _transversals(codes, n: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every transversal that starts with the partial transversal ``prefix``,
    as its column per row, in lexicographic order.  ``codes[i][j]`` is the
    bitmask of the values cell (i, j) holds beyond its row and column; each
    row tries the free columns in increasing order and skips cells whose
    code meets those of the cells above."""
    free = (1 << n) - 1
    used = 0
    for i, j in enumerate(prefix):
        free ^= 1 << j
        used |= codes[i][j]
    if len(prefix) == n:
        yield tuple(prefix)
        return
    cols = list(prefix) + [0] * (n - len(prefix))
    last = n - 1

    def rec(i, free, used):
        row = codes[i]
        m = free
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            c = row[j]
            if used & c:
                continue
            cols[i] = j
            if i == last:
                yield tuple(cols)
            else:
                yield from rec(i + 1, free ^ b, used | c)

    yield from rec(len(prefix), free, used)


def _transversal_branch(codes, n, limit, prefix):
    """The number of transversals extending ``prefix``, counted up to
    ``limit`` (None: no limit)."""
    return sum(1 for _ in islice(_transversals(codes, n, prefix), limit))


# The most options an exact cover may have.  Its ``disjoint`` table takes
# T²/8 bytes for T options: 4.9 GB for the 198,144 transversals of the
# order-12 product kron:(cayley:3,cayley:2x2), 8.6 GB just past this cap,
# and 133 GB for the 1,030,367 transversals of Z13.
COVER_MAX_OPTIONS = 1 << 18


def _cover_options(codes, n: int) -> list[tuple[int, ...]]:
    """The transversals of ``codes`` (:func:`_transversals`), the options of
    an exact cover, listing at most :data:`COVER_MAX_OPTIONS` + 1 of them:
    raises ``LimitExceeded`` past the cap, before any table is built."""
    options = list(islice(_transversals(codes, n, ()), COVER_MAX_OPTIONS + 1))
    if len(options) > COVER_MAX_OPTIONS:
        gb = (COVER_MAX_OPTIONS + 1) ** 2 / 8e9
        raise LimitExceeded(
            f"the exact cover at order {n} has more than {COVER_MAX_OPTIONS:,} options "
            f"(transversals); its table would take T^2/8 bytes, over {gb:.1f} GB"
        )
    return options


def _cover_tables(options: Sequence[tuple[int, ...]], n: int) -> tuple[list[int], list[int], list[int]]:
    """The exact-cover tables of ``options`` (transversals as their column
    per row): each option's cell mask, ``through`` and ``disjoint``."""
    masks = [sum(1 << (i * n + j) for i, j in enumerate(cols)) for cols in options]
    through = [0] * (n * n)
    for t, cols in enumerate(options):
        for i, j in enumerate(cols):
            through[i * n + j] |= 1 << t
    every = (1 << len(options)) - 1
    disjoint = []
    for cols in options:
        meets = 0
        for i, j in enumerate(cols):
            meets |= through[i * n + j]
        disjoint.append(every & ~meets)
    return masks, through, disjoint


def _cover_branch(masks, through, disjoint, squares, allowed, limit, first):
    """Chains of ``squares`` exact covers of the cells by options in
    ``allowed``, the first cover containing option ``first``, counted up to
    ``limit`` (None: no limit): the result is min(count, limit), and the
    walk stops as soon as its running total reaches ``limit``.

    One recursion walks the whole chain.  A node covers the lowest uncovered
    cell with each still-allowed option through it, in increasing option
    index, and passes down the options disjoint from every chosen one, so
    no overlap test is needed.  Each later cover uses only the options
    meeting every part of the covers before it (n cells meeting all n parts
    meet each once): the walk carries that mask down as ``nxt`` while later
    covers remain, and a complete cover starts the next at cell 0 with it.

    The last two parts of the last cover are not searched.  ``allowed`` must
    hold *every* option disjoint from the parts chosen and meeting each part
    of the earlier covers once, as the tables of :func:`_cover_tables` and
    the masks built here do.  The 2n cells left before the last two parts
    meet every row, column, value and earlier part exactly twice, so the
    complement of any allowed option through the lowest of them meets each
    once: it is an option, and allowed.  So that level's count is the number
    of allowed options through the cell, and a lone last part always fits.
    """
    full = (1 << len(through)) - 1
    n = masks[first].bit_count()

    def rec(uncov, allowed, nxt, left, squares, limit):
        m = through[(uncov & -uncov).bit_length() - 1] & allowed  # unused once uncov is 0
        if left <= 2:
            if squares == 1:
                if left < 2:
                    return 1
                k = m.bit_count()
                return k if k < limit else limit
            if not left:
                return rec(full, nxt, nxt, n, squares - 1, limit)
        total = 0
        while m:
            b = m & -m
            m ^= b
            t = b.bit_length() - 1
            total += rec(uncov ^ masks[t], allowed & disjoint[t], nxt & ~disjoint[t] if squares > 1 else nxt,
                         left - 1, squares, limit - total)  # masks[t] lies in uncov
            if total >= limit:
                return limit
        return total

    return rec(full ^ masks[first], allowed & disjoint[first], allowed & ~disjoint[first], n - 1,
               squares, math.inf if limit is None else limit)


def _covers(masks, through, disjoint, uncov, allowed) -> Iterator[tuple[int, ...]]:
    """The exact covers of ``uncov`` by options in ``allowed``, as option
    indices, in the order :func:`_cover_branch` visits them."""
    if not uncov:
        yield ()
        return
    m = through[(uncov & -uncov).bit_length() - 1] & allowed
    while m:
        b = m & -m
        m ^= b
        t = b.bit_length() - 1
        for rest in _covers(masks, through, disjoint, uncov ^ masks[t], allowed & disjoint[t]):
            yield (t,) + rest


def _cover_plan(system: MolsSystem) -> tuple[list, tuple, list[tuple[int, int]]]:
    """The options of the exact cover of the cells by the array transversals
    of ``system`` (as their column per row), their :func:`_cover_tables`, and
    its branches as (option, orbit size) pairs.  For one square on the rows
    the options are that square's Latin transversals, and its autotopisms
    fixing cell 0 map covers (and chains of covers) to covers: one branch
    per orbit (:func:`_cover_orbits`).  Any other system, whose partition
    those maps need not keep, branches on each option through cell 0.  A
    cover with more than :data:`COVER_MAX_OPTIONS` options is refused
    (:func:`_cover_options`)."""
    n = system.order
    options = _cover_options(_array_codes(system), n)
    tables = _cover_tables(options, n)
    if system.k == 1 and system.partition == partition_rows(n):
        branches = _cover_orbits(system.squares[0].grid, options)
    else:
        branches = [(t, 1) for t, m in enumerate(tables[0]) if m & 1]
    return options, tables, branches


def _count_covers(plan, opts: SearchOptions, squares: int = 1, weight: int = 1) -> ExtensionCount:
    """Count chains of ``squares`` exact covers on a :func:`_cover_plan`,
    each chain worth ``weight``, one pooled branch per branch of the plan."""
    _, tables, branches = plan
    every = (1 << len(tables[0])) - 1
    return _aggregate((_cover_branch, (*tables, squares, every), branches), opts, weight)


def _cover_orbits(grid, options: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The options through cell 0 (``options`` as their column per row) in
    orbits under the autotopisms of ``grid`` fixing cell 0, as (smallest
    option index, orbit size) pairs.  An autotopism (α, β, γ) maps the
    transversal with column c[i] in row i to the one with β(c[i]) in row
    α(i), and each partition containing the first to one containing the
    second, so an orbit's options lie in equally many partitions."""
    n = len(grid)
    index = {cols: t for t, cols in enumerate(options) if cols[0] == 0}
    img = [0] * n
    perms = []
    for a, b, _ in _autotopisms(grid, True):
        perm = {}
        for cols, t in index.items():
            for i, j in enumerate(cols):
                img[a[i]] = b[j]
            perm[t] = index[tuple(img)]
        perms.append(perm)
    return _orbits(list(index.values()), perms)


# --------------------------------------------------------------------------
# public operations


def enumerate_transversals(l: LatinSquare, opts: SearchOptions | None = None) -> ExtensionCount:
    """Count all transversals of ``l``.

    Row-by-row backtracking over column choices (:func:`_transversals`) on
    the per-cell codes of the system {l} on the rows, with one branch per
    orbit of the columns of row 0 under the autotopisms of ``l`` with
    α(0) = 0 (:func:`_autotopisms`): such a map sends each transversal
    through (0, j) to one through (0, β(j)), so the branch on an orbit's
    smallest column counts for the whole orbit.  :func:`iter_transversals`
    lists them.
    """
    opts = opts or SearchOptions()
    n = l.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "transversal enumeration")
    codes = _array_codes(validate_mols([l], partition_rows(n)))
    orbits = _orbits(range(n), [b for _, b, _ in _autotopisms(l.grid, False)])
    return _aggregate((_transversal_branch, (codes, n), [((j,), size) for j, size in orbits]), opts)


def iter_transversals(l: LatinSquare) -> Iterator[tuple[tuple[int, int], ...]]:
    """All transversals of ``l``, as cell tuples sorted by row, in
    lexicographic order of their columns: one sequential, unreduced walk
    (:func:`_transversals`), which exhausts a square with no transversal."""
    n = l.order
    for cols in _transversals(_array_codes(validate_mols([l], partition_rows(n))), n, ()):
        yield tuple(enumerate(cols))


def count_transversal_partitions(
    l: LatinSquare, opts: SearchOptions | None = None
) -> ExtensionCount:
    """Unordered partitions of the cells into n disjoint transversals.

    Exact-cover search (:func:`_cover_branch`: cells are the items,
    transversals the options, the part through the lowest uncovered cell
    chosen next, so each partition is counted once).  Branches count, each
    only as far as the threshold needs (see the module docstring): one per
    orbit of the parts through cell 0 under the autotopisms of ``l`` fixing
    cell 0, weighed by the orbit's size, on the :func:`_cover_plan` of the
    system {l} on the rows.  :func:`iter_transversal_partitions` lists
    them.  Orthogonal mates are in bijection with (partition, symbol
    assignment) pairs, so mates(l) = partitions(l) * n!.
    """
    opts = opts or SearchOptions()
    n = l.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "partition enumeration")
    return _count_covers(_cover_plan(validate_mols([l], partition_rows(n))), opts)


def iter_transversal_partitions(l: LatinSquare) -> Iterator[tuple[tuple[tuple[int, int], ...], ...]]:
    """All partitions of the cells of ``l`` into n transversals, as tuples
    of :func:`iter_transversals` parts in order of their lowest cells: one
    sequential, unreduced walk (:func:`_covers`), in lexicographic order of
    the parts' indices in that walk.  It refuses a cover with more than
    :data:`COVER_MAX_OPTIONS` options, as the counts do."""
    n = l.order
    options = _cover_options(_array_codes(validate_mols([l], partition_rows(n))), n)
    parts = [tuple(enumerate(cols)) for cols in options]
    tables = _cover_tables(options, n)
    for cover in _covers(*tables, (1 << n * n) - 1, (1 << len(parts)) - 1):
        yield tuple(parts[t] for t in cover)


def count_extensions(system: MolsSystem, opts: SearchOptions | None = None) -> ExtensionCount:
    """Count the squares that extend ``system``, which needs a partition:
    those orthogonal to each of its squares and gerechte for the partition.

    The count is n! times the exact covers of the cells by the array
    transversals of the system (part s of a cover gets symbol s; see the
    module docstring), on the branches of its :func:`_cover_plan`: one per
    transversal through cell 0, or one per orbit of them when the system is
    one square on the rows (its mates; see :func:`count_mates`).
    :func:`iter_extensions` lists them.
    """
    opts = opts or SearchOptions()
    n = system.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "extension counting")
    return _count_covers(_cover_plan(system), opts, weight=math.factorial(n))


def iter_extensions(system: MolsSystem) -> Iterator[tuple[int, ...]]:
    """All squares that extend ``system`` (which needs a partition), as
    flat row-major symbol columns in lexicographic order (sequential,
    unreduced): the walk grows the n symbol classes as partial array
    transversals.  Cell (i, j) has code ``1 << i | 1 << n + j | c << 2n``,
    ``c`` its :func:`_array_codes` bits, and ``used[s]`` ORs the codes of
    the cells holding s.  Cells go in row-major order, each taking in turn
    every s whose ``used[s]`` its code misses, as in :func:`_transversals`."""
    n = system.order
    codes = [1 << i | 1 << n + j | c << 2 * n
             for i, row in enumerate(_array_codes(system)) for j, c in enumerate(row)]
    used = [0] * n
    col = [0] * len(codes)
    last = len(codes) - 1

    def rec(cell):
        code = codes[cell]
        for s, u in enumerate(used):
            if u & code:
                continue
            col[cell] = s
            if cell == last:
                yield tuple(col)
            else:
                used[s] = u | code
                yield from rec(cell + 1)
                used[s] = u

    yield from rec(0)


def count_mates(l: LatinSquare, opts: SearchOptions | None = None) -> ExtensionCount:
    """Orthogonal mates of ``l``: the extensions of the system {l} on the
    rows partition, which adds no constraint (:func:`count_extensions`)."""
    return count_extensions(validate_mols([l], partition_rows(l.order)), opts)


def count_mols(n: int, k: int, opts: SearchOptions | None = None) -> ExtensionCount:
    """The number of ordered k-tuples of pairwise orthogonal Latin squares:
    chains of k exact covers of the cells by the permutation transversals of
    the empty system, each worth (n!)^k (see the module docstring).
    """
    opts = opts or SearchOptions()
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    _check_limit(n, DEFAULT_MOLS_LIMIT, "exhaustive tuple counting")
    if k == 0:
        return ExtensionCount(Exact(1), True)
    if n >= 2 and k > n - 1:
        return ExtensionCount(Exact(0), True)
    plan = _cover_plan(validate_mols([], partition_rows(n)))
    return _count_covers(plan, opts, k, math.factorial(n) ** k)


def _chain_tree(partition: RegionPartition, kmax: int) -> Iterator[tuple[list, int]]:
    """Walk the chain tree on ``partition`` down to depth ``kmax``, yielding
    ``(cols, count)`` per node after its children.

    A node at depth j is a j-system gerechte for ``partition`` whose squares
    all have row 0 = 0, 1, ..., n-1, held as its symbol columns in ``cols``
    (reused by the walk: copy it to keep it).  Its children are the exact
    covers by the array transversals of the empty system that meet every
    part of the covers above it (the ``nxt`` mask of :func:`_cover_branch`),
    part s giving symbol s; its extension ``count`` is n! times their number.
    One set of cover tables serves the whole walk.
    """
    n = partition.order
    plan = _cover_plan(validate_mols([], partition))
    options, (masks, through, disjoint), _ = plan
    cols: list[tuple[int, ...]] = []

    def rec(allowed):
        children = 0
        if len(cols) == kmax:  # only counted: one branch per option through cell 0
            m = through[0] & allowed
            while m:
                b = m & -m
                m ^= b
                children += _cover_branch(masks, through, disjoint, 1, allowed, None, b.bit_length() - 1)
            yield cols, math.factorial(n) * children
            return
        for cover in _covers(masks, through, disjoint, (1 << n * n) - 1, allowed):
            children += 1
            col = [0] * (n * n)
            nxt = allowed
            for s, t in enumerate(cover):
                nxt &= ~disjoint[t]
                for i, j in enumerate(options[t]):
                    col[i * n + j] = s
            cols.append(tuple(col))
            yield from rec(nxt)
            cols.pop()
        yield cols, math.factorial(n) * children

    yield from rec((1 << len(options)) - 1)


def max_extensions(n: int, k: int) -> tuple[ExtensionCount, Optional[MolsSystem]]:
    """Maximum extension count over every k-tuple system of order n, with the
    lexicographically first maximizer, on the rows partition, as witness.

    The maximum is over the depth-k nodes of :func:`_chain_tree` on the rows
    partition.  That loses nothing: relabelling a square's symbols keeps its
    system's extension count, and normalising the first square whose first
    row is not 0, 1, ..., n-1 makes a system lexicographically smaller, so
    the first maximizer is a node.  A tie keeps the smaller column list.
    """
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    check_census_order(n)
    best, best_cols, rows = -1, None, partition_rows(n)
    for cols, cnt in _chain_tree(rows, k):
        if len(cols) == k and (cnt > best or cnt == best and cols < best_cols):
            best, best_cols = cnt, list(cols)
    witness = None if best_cols is None else validate_mols(
        [LatinSquare(Square([col[i * n : (i + 1) * n] for i in range(n)])) for col in best_cols], rows)
    return ExtensionCount(Exact(max(best, 0)), True), witness


def check_census_order(n: int) -> None:
    """Refuse a census at order n; callers check before building the n×n partition."""
    _check_limit(n, DEFAULT_MOLS_LIMIT, "census over all systems")


def extension_census(
    partition: RegionPartition, kmax: int
) -> list[dict[int, int]]:
    """For k = 0..kmax: the multiset of extension counts over all k-tuple
    systems gerechte for ``partition`` — {extension count: how many systems}.

    Lets a caller check a uniform bound against *every* system without
    materializing the systems.  It is one walk of :func:`_chain_tree`: each
    node at depth k stands for the (n!)^k systems that relabel its squares'
    symbols, which share its extension count, so it adds (n!)^k to its
    histogram entry.
    """
    n = partition.order
    if kmax < 0:
        raise InvalidParams("kmax must be nonnegative")
    check_census_order(n)
    out: list[dict[int, int]] = [dict() for _ in range(kmax + 1)]
    fact = math.factorial(n)
    for cols, cnt in _chain_tree(partition, kmax):
        hist = out[len(cols)]
        hist[cnt] = hist.get(cnt, 0) + fact ** len(cols)
    # deterministic key order for reporting
    return [dict(sorted(hist.items())) for hist in out]


# --------------------------------------------------------------------------
# the independent direct engine (no array machinery)


# The row table takes (n!)²/8 bytes: 3 MB at order 7, 203 MB at 8 and 16 GB
# at 9, so the walk refuses order 8 and up before building it.
DIRECT_MAX_ORDER = 7


def _perms_direct(n: int) -> list[tuple[int, ...]]:
    """The n! permutations of range(n) in lexicographic order: the rows of
    the direct walk, refused past :data:`DIRECT_MAX_ORDER`."""
    if n > DIRECT_MAX_ORDER:
        raise LimitExceeded(
            f"direct engine supports orders up to {DIRECT_MAX_ORDER}: its row table "
            f"at order {n} would take (n!)^2/8 bytes"
        )
    return list(permutations(range(n)))


def _bits_direct(m: int) -> Iterator[int]:
    """The indices of the set bits of ``m``, lowest first."""
    while m:
        b = m & -m
        m ^= b
        yield b.bit_length() - 1


def _direct_walk(perms: Sequence[tuple[int, ...]], n: int, labels=None):
    """The row-wise walk over the Latin squares of order n >= 2.  ``perms``
    are the n! permutations of range(n) in lexicographic order; a row is an
    index into them, and a set of rows is an integer with bit r for row r.

    Row p puts symbol p[j] in column j, and ``fits[r]`` holds the rows that
    put a different symbol than row r in every column.  Each row tries its
    candidates lowest first and passes ``cands & fits[r]`` down to the next.
    ``labels``, an optional n x n grid of region labels, gives row i of p the
    region code ``region[i][p]`` with bit labels[i][j]*n + p[j], which must
    miss those of the rows above; without it ``region`` is None and the rows
    are the regions at no cost.

    Returns ``(fits, region, nodes)``.  ``nodes`` yields ``(rows, cands,
    used)`` per node at row n-3, in lexicographic order: rows 0..n-3 (a
    reused buffer), the candidates C of row n-2, and the union of the
    region codes of those rows (0 without ``labels``).  The caller walks
    the last two rows itself: row r of C leaves ``C & fits[r]`` for row
    n-1.  Nothing is reduced: each square is one leaf.
    """
    every = (1 << len(perms)) - 1
    holds = [0] * (n * n)  # holds[j*n + s]: the rows with symbol s in column j
    for r, p in enumerate(perms):
        for j, s in enumerate(p):
            holds[j * n + s] |= 1 << r
    fits = []
    for p in perms:
        meets = 0
        for j, s in enumerate(p):
            meets |= holds[j * n + s]
        fits.append(every & ~meets)
    region = None
    if labels is not None:
        region = [[sum(1 << (lab[j] * n + p[j]) for j in range(n)) for p in perms]
                  for lab in labels]
    top = n - 2  # the rows the walk fixes
    rows = [0] * top

    def walk():
        if not top:
            yield rows, every, 0
            return
        # per row i the walk fixes: its candidates, those still to try, and
        # the region codes of the rows above it
        cands, todo, used = [0] * top, [0] * top, [0] * (top + 1)
        cands[0] = todo[0] = every
        i = 0
        while i >= 0:
            m = todo[i]
            if not m:
                i -= 1
                continue
            b = m & -m
            todo[i] = m ^ b
            r = b.bit_length() - 1
            if region is not None:
                if region[i][r] & used[i]:
                    continue
                used[i + 1] = used[i] | region[i][r]
            rows[i] = r
            nxt = cands[i] & fits[r]
            if i + 1 < top:
                i += 1
                cands[i] = todo[i] = nxt
                continue
            yield rows, nxt, used[top]

    return fits, region, walk()


def _count_direct(n: int, labels=None) -> int:
    """The squares of order n, gerechte for ``labels`` if given: per node
    of :func:`_direct_walk`, popcount(C & fits[r]) for each row r of C."""
    if n == 1:
        return 1
    fits, region, nodes = _direct_walk(_perms_direct(n), n, labels)
    total = 0
    for _, cands, used in nodes:
        m = cands
        while m:
            b = m & -m
            m ^= b
            r = b.bit_length() - 1
            last = cands & fits[r]
            if region is not None:
                if region[n - 2][r] & used:
                    continue
                u = used | region[n - 2][r]
                for c in _bits_direct(last):
                    if region[n - 1][c] & u:
                        last ^= 1 << c
            total += last.bit_count()
    return total


def iter_latin_direct(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every Latin square of order n, rows as tuples, in lexicographic
    order, from the row-wise walk :func:`_direct_walk`.  Shares nothing
    with the extension engine."""
    if n < 1:
        raise InvalidParams("order must be positive")
    perms = _perms_direct(n)
    if n == 1:
        yield (perms[0],)
        return
    fits, _, nodes = _direct_walk(perms, n)
    for rows, cands, _ in nodes:
        head = tuple(perms[r] for r in rows)
        for r in _bits_direct(cands):
            for c in _bits_direct(cands & fits[r]):
                yield head + (perms[r], perms[c])


def count_latin_direct(n: int) -> int:
    """Count Latin squares by the direct engine."""
    if n < 1:
        raise InvalidParams("order must be positive")
    return _count_direct(n)


def count_sudoku_direct(n: int) -> int:
    """Count order-n box-balanced Latin squares directly: the row-wise walk
    with the boxes as regions."""
    if n < 1:
        raise InvalidParams("order must be positive")
    m = math.isqrt(n)
    if m * m != n:
        raise InvalidParams(f"order {n} is not a perfect square")
    return _count_direct(n, [[(i // m) * m + j // m for j in range(n)] for i in range(n)])


def count_mols_direct(n: int, k: int) -> int:
    """Tuple counts by the direct engine: full grids first, then pair checks.

    Supported for k = 1 up to order 5 and k = 2 up to order 4: every square
    is one leaf, so order 6 would walk 812,851,200 leaves, and the pair
    check is quadratic in the number of squares.  Every ordered pair (a, b)
    is checked with one integer test, on masks with a bit per permutation
    p: a's mask holds its transversals (the p whose cells (i, p[i]) hold
    distinct symbols of a), b's holds its symbol classes (symbol s sits at
    (i, p[i]) in every row i), and b is orthogonal to a exactly when b's
    mask misses everything outside a's.
    """
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    if k == 0:
        return 1
    if k == 1 and n <= 5:
        return count_latin_direct(n)
    if k == 2 and n <= 4:
        bits = {p: 1 << i for i, p in enumerate(permutations(range(n)))}
        squares = list(iter_latin_direct(n))
        classes = [sum(bits[tuple(row.index(s) for row in b)] for s in range(n))
                   for b in squares]
        total = 0
        for a in squares:
            outside = sum(bit for p, bit in bits.items()
                          if len({row[j] for row, j in zip(a, p)}) < n)
            total += list(map(outside.__and__, classes)).count(0)
        return total
    raise LimitExceeded(
        f"direct engine supports k = 1 up to order 5 or k = 2 up to order 4; "
        f"got n={n}, k={k}"
    )


def gerechte_mates_direct(l: LatinSquare) -> int:
    """Mates of ``l`` by the row-wise walk with ``l``'s symbol classes as
    the regions: a square is a mate exactly when it is gerechte for them."""
    return _count_direct(l.order, l.grid)
