"""Exact enumeration: transversals, partitions, extension columns, systems.

One engine does the real work: counting the columns that extend a nearly
orthogonal array by one.  Orthogonal mates, gerechte mates, and k-tuple
extensions are all the same search with a different starting array.  A
second, structurally different engine over plain grids is kept alongside it
so headline counts can be confirmed by two engines that share no code path.
It builds each square row by row, every row one of the n! permutations,
and keeps a row when its column code (and, for gerechte or Sudoku squares,
its region code) misses those of the rows above; a pair of squares is
orthogonal when every symbol class of the second is in the first's set of
transversal cell masks.

Transversal partitions are counted by exact cover (Knuth's Algorithm X,
arXiv cs/0011047) over bitsets: cells are the items, the square's T
transversals the options, and every set of options is an integer with one
bit per transversal index.  Two tables are built once per call and shared
by every branch: ``through[c]``, the options containing cell ``c``, and
``disjoint[t]``, the options sharing no cell with ``t`` (the complement of
the OR of ``through`` over the n cells of ``t``).  ``disjoint`` takes T²/8
bytes, about 0.6 MB at the order-9 maximum T = 2,241.

Symmetry reduction: relabelling the symbols of the new column maps
extensions to extensions, so the symmetric group S_n acts freely on them.
The row column comes first in every array, so the n cells of row 0 hold
distinct symbols and each orbit has exactly one member whose row 0 reads
0, 1, ..., n-1.  Every extension count therefore starts from that row (the
root, :func:`_root`) and weighs its count by n!; the chained tuple count
fixes the first row of every square and weighs by (n!)^k.  Witnesses come
from a separate walk of the full tree, so they keep their full
lexicographic order.  The direct engine is never reduced (every square is
one leaf of its walk), so it stays an independent check.

Determinism contract: results never depend on thread count.  Branches
return counts; witnesses are the first min(cap, count) leaves of one
sequential lexicographic walk of the whole tree, taken after the count and
only that far.  A search tree is cut into branches only where the branches
are used: when a process pool will run or a ``stop_threshold`` is set.  The
cut is a fixed number of cells below the root that depends on the instance
alone, never on the thread count.  Otherwise the whole tree below the root
is one branch.  (The exact-cover search always branches on the part
through cell 0, which costs no extra set-up.)  Branches are processed in
lexicographic order and their counts added in that order.  Early stopping
happens only at whole-branch granularity, and a threshold-stopped count
always reports exactly the threshold (flagged inexact), so schedules cannot
leak into output: the count is min(threshold, total) and the witnesses are
the first min(cap, threshold, total) leaves, however the tree was cut.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import InitVar, dataclass, replace
from itertools import islice, permutations
from typing import Iterator, Optional, Sequence

from .arrays import NearlyOrthArray, system_to_noa
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

    ``cap`` limits how many witnesses are collected (None: collect none).
    ``stop_threshold`` lets a count stop early once it is known to be at
    least that large; the result is then reported as exactly the threshold
    with ``exact_flag`` False ("at least").  ``threads`` above 1
    distributes top-level branches over that many worker processes; None or
    1 runs in-process.  ``parallel`` is accepted and ignored: older callers,
    the benchmark's tracing scripts among them, still pass it.
    """

    cap: Optional[int] = None
    stop_threshold: Optional[int] = None
    threads: Optional[int] = None
    parallel: InitVar[bool] = False

    def __post_init__(self, parallel):
        if self.cap is not None and self.cap <= 0:
            raise InvalidParams("cap must be positive")
        if self.stop_threshold is not None and self.stop_threshold <= 0:
            raise InvalidParams("stop_threshold must be positive")
        if self.threads is not None and self.threads <= 0:
            raise InvalidParams("threads must be positive")


@dataclass(frozen=True)
class ExtensionCount:
    """A search result: the count, whether it is the full count, and any
    collected witnesses (in lexicographic discovery order)."""

    value: Exact
    exact_flag: bool
    witnesses: Optional[tuple] = None


DEFAULT_ENUM_LIMIT = 16  # transversals / single-column extensions
DEFAULT_MOLS_LIMIT = 5  # exhaustive k-tuple counts
DEFAULT_MAX_EXT_LIMIT = 4  # "enumerate every system" operations


def order_limit(default: int) -> int:
    """Effective order limit; MOLSCOPE_LIMIT_N overrides every default."""
    env = os.environ.get("MOLSCOPE_LIMIT_N")
    if env:
        try:
            return int(env)
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
# the column-extension engine

_MIN_BRANCHES = 32  # fixed fan-out target so branch sets never depend on threads


def _plan_keys(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """For each cell, the availability-table slots its constraints live in.

    Each column owns n slots, one per symbol.  Two columns with identical
    content impose identical constraints (under ``partition_rows`` the region
    column repeats the row column), so each distinct column gets one block.
    """
    distinct = dict.fromkeys(zip(*rows))
    return list(zip(*[[b * n + x for x in col] for b, col in enumerate(distinct)]))


def _availability(keys: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """Per slot, the bitmask of new-column symbols still available."""
    return [(1 << n) - 1] * (len(keys[0]) * n)


def _apply_prefix(av: list[int], keys: Sequence[tuple[int, ...]], prefix: Sequence[int]) -> None:
    for l, sym in enumerate(prefix):
        bit = 1 << sym
        for t in keys[l]:
            av[t] &= ~bit


def _count_rec(av: list[int], keys, cell: int, ncells: int) -> int:
    ks = keys[cell]
    m = av[ks[0]]
    for t in ks[1:]:
        m &= av[t]
    if cell + 1 == ncells:
        return m.bit_count()
    total = 0
    while m:
        b = m & -m
        m -= b
        nb = ~b
        for t in ks:
            av[t] &= nb
        total += _count_rec(av, keys, cell + 1, ncells)
        for t in ks:
            av[t] |= b
    return total


def _walk(av, keys, cell, stop, buf) -> Iterator[None]:
    """Yield once per valid assignment of cells ``cell .. stop-1``, written
    into ``buf``, in lexicographic order.  The caller reads ``buf`` only."""
    ks = keys[cell]
    m = av[ks[0]]
    for t in ks[1:]:
        m &= av[t]
    last = cell + 1 == stop
    while m:
        b = m & -m
        m -= b
        buf[cell] = b.bit_length() - 1
        if last:
            yield
        else:
            nb = ~b
            for t in ks:
                av[t] &= nb
            yield from _walk(av, keys, cell + 1, stop, buf)
            for t in ks:
                av[t] |= b


def _root(n: int) -> tuple[int, ...]:
    """The prefix of every column counted up to symbol relabelling.

    It fixes row 0 to 0, 1, ..., n-1.  Only its first n-1 cells are
    written: the row constraint forces n-1 into the last one, so the tree
    is the same, and at order 1 the root is empty.
    """
    return tuple(range(n - 1))


def _completions(keys, n: int, root: tuple[int, ...], stop: int) -> Iterator[tuple[int, ...]]:
    """Every valid assignment of cells ``0 .. stop-1`` that starts with
    ``root``, in lexicographic order."""
    av = _availability(keys, n)
    _apply_prefix(av, keys, root)
    buf = list(root) + [0] * (stop - len(root))
    for _ in _walk(av, keys, len(root), stop, buf):
        yield tuple(buf)


def _column_prefixes(
    keys: Sequence[tuple[int, ...]],
    n: int,
    root: tuple[int, ...],
    min_branches: int = _MIN_BRANCHES,
) -> list[tuple[int, ...]]:
    """Valid assignments of the first few cells below ``root``, in
    lexicographic order.

    The depth is the smallest one reaching ``min_branches`` prefixes (capped
    at one full row below the root, and short of the last cell) — a
    function of the instance only, never of the thread count, so every run
    cuts the tree identically.  Order 1 has a single cell and is never cut.
    """
    out = [root]
    s = len(root)
    for depth in range(s + 1, min(s + n, len(keys) - 1) + 1):
        out = list(_completions(keys, n, root, depth))
        if len(out) >= min_branches or not out:
            break
    return out


def iter_extensions(a: NearlyOrthArray) -> Iterator[tuple[int, ...]]:
    """All columns that extend ``a``, in lexicographic order (sequential,
    unreduced)."""
    keys = _plan_keys(a.rows, a.order)
    yield from _completions(keys, a.order, (), len(keys))


# --------------------------------------------------------------------------
# deterministic branch aggregation (sequential or process pool)

# (branch function, shared arguments, branch items): branch ``idx`` runs
# ``branch(*shared, items[idx])`` and returns its exact subcount.
_WORKER_STATE = None


def _worker_init(state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _worker_run(idx: int) -> int:
    branch, shared, items = _WORKER_STATE
    return branch(*shared, items[idx])


def _cut(opts: SearchOptions) -> bool:
    """Whether to cut the tree into branches: only a process pool or a
    threshold stop has any use for them."""
    if opts.stop_threshold is not None:
        return True
    return (opts.threads or 1) > 1


def _aggregate(state, opts: SearchOptions, weight: int = 1) -> ExtensionCount:
    """Run all branches in order and add their subcounts, each leaf counting
    ``weight`` objects, until the total reaches the threshold.

    The accumulation loop is the same code for one process and many.  The
    result carries no witnesses; see :func:`_with_witnesses`.
    """
    nbranches = len(state[2])
    threshold = opts.stop_threshold
    total = 0

    def consume(sub: int) -> bool:
        nonlocal total
        total += sub * weight
        return threshold is not None and total >= threshold

    procs = min(opts.threads or 1, nbranches)
    if procs > 1:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(procs, initializer=_worker_init, initargs=(state,)) as pool:
            for sub in pool.imap(_worker_run, range(nbranches)):
                if consume(sub):
                    pool.terminate()
                    break
    else:
        _sequential(state, nbranches, consume)

    if threshold is not None and total >= threshold:
        # Report exactly the threshold: the deterministic "at least" value.
        return ExtensionCount(Exact(threshold), False)
    return ExtensionCount(Exact(total), True)


def _sequential(state, nbranches, consume):
    global _WORKER_STATE
    saved = _WORKER_STATE
    _WORKER_STATE = state
    try:
        for idx in range(nbranches):
            if consume(_worker_run(idx)):
                break
    finally:
        _WORKER_STATE = saved


def _with_witnesses(res: ExtensionCount, cap: Optional[int], leaves: Iterator) -> ExtensionCount:
    """``res`` with the first min(cap, count) items of ``leaves`` as its
    witnesses (none without a cap).  ``leaves`` is the lexicographic walk of
    the whole tree; it is consumed only that far."""
    if cap is None:
        return res
    return replace(res, witnesses=tuple(islice(leaves, min(cap, res.value.count))))


# branch bodies -------------------------------------------------------------


def _chain_branch(keys, n, squares, root, prefix):
    """Chains of ``squares`` columns: one extending ``prefix``, then each
    next one starting with ``root`` and extending the array grown by those
    before it.  Returns the number of completed chains."""
    ncells = len(keys)
    av = _availability(keys, n)
    _apply_prefix(av, keys, prefix)
    s = len(prefix)
    if squares == 1:
        return _count_rec(av, keys, s, ncells)
    base = len(keys[0]) * n  # the new column's block of slots
    buf = list(prefix) + [0] * (ncells - s)
    total = 0
    for _ in _walk(av, keys, s, ncells, buf):
        grown = [ks + (base + buf[l],) for l, ks in enumerate(keys)]
        total += _chain_branch(grown, n, squares - 1, root, root)
    return total


def _transversals(grid, n: int, prefix: tuple[int, ...], stop: int) -> Iterator[tuple[int, ...]]:
    """Every partial transversal of rows ``0 .. stop-1`` that starts with the
    partial transversal ``prefix``, as its column per row, in lexicographic
    order.  Each row tries the free columns in increasing order and skips
    those holding a symbol already used."""
    free = (1 << n) - 1
    syms = 0
    for i, j in enumerate(prefix):
        free ^= 1 << j
        syms |= 1 << grid[i][j]
    if len(prefix) == stop:
        yield tuple(prefix)
        return
    cols = list(prefix) + [0] * (stop - len(prefix))
    last = stop - 1

    def rec(i, free, syms):
        row = grid[i]
        m = free
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            sb = 1 << row[j]
            if syms & sb:
                continue
            cols[i] = j
            if i == last:
                yield tuple(cols)
            else:
                yield from rec(i + 1, free ^ b, syms | sb)

    yield from rec(len(prefix), free, syms)


def _transversal_branch(grid, n, prefix):
    """The number of transversals extending ``prefix``."""
    return sum(1 for _ in _transversals(grid, n, prefix, n))


def _cover_branch(masks, through, disjoint, full, first):
    """Exact covers of the cells that contain option ``first``.

    A node covers the lowest uncovered cell with each still-allowed option
    through it, in increasing option index; ``allowed`` holds the options
    disjoint from every chosen one, so no overlap test is needed.
    """

    def rec(uncov, allowed):
        if not uncov:
            return 1
        total = 0
        m = through[(uncov & -uncov).bit_length() - 1] & allowed
        while m:
            b = m & -m
            m ^= b
            t = b.bit_length() - 1
            total += rec(uncov ^ masks[t], allowed & disjoint[t])  # masks[t] lies in uncov
        return total

    return rec(full ^ masks[first], disjoint[first])


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


# --------------------------------------------------------------------------
# public operations


def enumerate_transversals(l: LatinSquare, opts: SearchOptions | None = None) -> ExtensionCount:
    """Count (and optionally collect) all transversals of ``l``.

    Row-by-row backtracking over column choices with column and symbol
    bitmasks (:func:`_transversals`).  Branches count the transversals
    below each cut prefix; witnesses, cell tuples sorted by row, are the
    first min(cap, count) transversals of one sequential walk in
    lexicographic order of their columns.
    """
    opts = opts or SearchOptions()
    n = l.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "transversal enumeration")
    grid = l.grid
    prefixes: list[tuple[int, ...]] = [()]
    if _cut(opts):
        for depth in range(1, n + 1):
            prefixes = list(_transversals(grid, n, (), depth))
            if len(prefixes) >= _MIN_BRANCHES or not prefixes:
                break
    res = _aggregate((_transversal_branch, (grid, n), prefixes), opts)
    return _with_witnesses(res, opts.cap, (tuple(enumerate(c)) for c in _transversals(grid, n, (), n)))


def count_transversal_partitions(
    l: LatinSquare, opts: SearchOptions | None = None
) -> ExtensionCount:
    """Unordered partitions of the cells into n disjoint transversals.

    Exact-cover search: cells are the items, transversals the options.  The
    part containing the lowest uncovered cell is always chosen next, so each
    partition is generated exactly once, with its parts in order of their
    minimal cells.  A node walks ``through[c] & allowed`` for its lowest
    uncovered cell ``c`` in increasing transversal index and passes
    ``allowed & disjoint[t]`` down, where ``allowed`` holds the options
    disjoint from every part chosen so far; the tables are described in the
    module docstring.  Branches (one per part through cell 0) only count;
    witnesses are the first min(cap, count) partitions of one sequential
    walk in that same order, i.e. in lexicographic order of their parts'
    transversal indices.  Orthogonal mates are in bijection with
    (partition, symbol assignment) pairs, so mates(l) = partitions(l) * n!.
    """
    opts = opts or SearchOptions()
    n = l.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "partition enumeration")
    cells = [tuple(enumerate(c)) for c in _transversals(l.grid, n, (), n)]
    masks = [sum(1 << (i * n + j) for i, j in tcells) for tcells in cells]
    through = [0] * (n * n)
    for t, tcells in enumerate(cells):
        for i, j in tcells:
            through[i * n + j] |= 1 << t
    every = (1 << len(cells)) - 1
    disjoint = []
    for tcells in cells:
        meets = 0
        for i, j in tcells:
            meets |= through[i * n + j]
        disjoint.append(every & ~meets)
    full = (1 << n * n) - 1
    # every partition has exactly one part through cell 0
    branches = [t for t, m in enumerate(masks) if m & 1]
    res = _aggregate((_cover_branch, (masks, through, disjoint, full), branches), opts)
    covers = _covers(masks, through, disjoint, full, every)
    return _with_witnesses(res, opts.cap, (tuple(cells[t] for t in c) for c in covers))


def count_extensions(a: NearlyOrthArray, opts: SearchOptions | None = None) -> ExtensionCount:
    """Count the columns whose appending keeps ``a`` a valid array.

    Cells are assigned in lexicographic order; each distinct existing column
    keeps a per-symbol availability bitmask, and a cell's candidate set is
    the AND across its columns.  The plan (each cell's bitmask slots) is
    built once per call and shared by every branch.  The search counts the
    columns whose row 0 reads 0, 1, ..., n-1 and multiplies by n! (see the
    module docstring).  The tree is cut into branches below that root only
    when a pool will run or ``stop_threshold`` is set; otherwise it is
    counted as one branch.  With a cap, witnesses are the first
    min(cap, count) columns of :func:`iter_extensions`' walk of the full
    tree, so they come in full lexicographic order however the count ran.
    Every mate/extension count in the package funnels through here.
    """
    opts = opts or SearchOptions()
    n = a.order
    _check_limit(n, DEFAULT_ENUM_LIMIT, "extension counting")
    root = _root(n)
    keys = _plan_keys(a.rows, n)
    prefixes = _column_prefixes(keys, n, root) if _cut(opts) else [root]
    res = _aggregate((_chain_branch, (keys, n, 1, root), prefixes), opts, math.factorial(n))
    return _with_witnesses(res, opts.cap, _completions(keys, n, (), len(keys)))


def count_mates(l: LatinSquare, opts: SearchOptions | None = None) -> ExtensionCount:
    """Orthogonal mates of ``l`` via the extension engine."""
    sys = validate_mols([l], partition_rows(l.order))
    return count_extensions(system_to_noa(sys), opts)


def _rows_array(n: int) -> NearlyOrthArray:
    """The array of the empty system of order n, rows as the partition."""
    return system_to_noa(validate_mols([], partition_rows(n)))


def count_mols(n: int, k: int, opts: SearchOptions | None = None) -> ExtensionCount:
    """The number of ordered k-tuples of pairwise orthogonal Latin squares,
    by chaining the extension engine one square at a time.

    Every square of the chain starts from the fixed first row 0, 1, ...,
    n-1, so the count of completed chains is multiplied by (n!)^k.
    """
    opts = opts or SearchOptions()
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    _check_limit(n, DEFAULT_MOLS_LIMIT, "exhaustive tuple counting")
    if k == 0:
        return ExtensionCount(Exact(1), True)
    if n >= 2 and k > n - 1:
        return ExtensionCount(Exact(0), True)
    root = _root(n)
    keys = _plan_keys(_rows_array(n).rows, n)
    prefixes = _column_prefixes(keys, n, root) if _cut(opts) else [root]
    state = (_chain_branch, (keys, n, k, root), prefixes)
    return _aggregate(state, opts, math.factorial(n) ** k)


def _system_arrays(
    base: NearlyOrthArray, k: int, cols: list, root: tuple[int, ...]
) -> Iterator[NearlyOrthArray]:
    """Pre-order walk over the arrays of the systems of at most k squares on
    ``base``'s partition: each array, then the arrays extending it, by the
    new column in lexicographic order.  Only columns starting with ``root``
    are taken.  While an array is current, ``cols`` holds its symbol
    columns, so its depth is ``len(cols)``."""
    n = base.order

    def rec(noa: NearlyOrthArray):
        yield noa
        if len(cols) == k:
            return
        keys = _plan_keys(noa.rows, n)
        for x in _completions(keys, n, root, len(keys)):
            cols.append(x)
            yield from rec(noa.with_column(x))
            cols.pop()

    yield from rec(base)


def iter_mols_systems(n: int, k: int) -> Iterator[MolsSystem]:
    """All ordered k-tuples of pairwise orthogonal squares, lexicographically
    by the concatenated flattened grids (sequential, unreduced)."""
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    if n >= 2 and k > n - 1:
        return
    cols: list[tuple[int, ...]] = []
    for _ in _system_arrays(_rows_array(n), k, cols, ()):
        if len(cols) == k:
            yield columns_to_system(n, cols)


def columns_to_system(n: int, cols: Sequence[Sequence[int]]) -> MolsSystem:
    """Reshape flat symbol columns into a validated system."""
    squares = [
        LatinSquare(Square([col[i * n : (i + 1) * n] for i in range(n)]))
        for col in cols
    ]
    return validate_mols(squares, order=n)


def max_extensions(n: int, k: int) -> tuple[ExtensionCount, Optional[MolsSystem]]:
    """Maximum extension count over every k-tuple system of order n, with the
    lexicographically first maximizer as witness.

    Only systems whose squares all have first row 0, 1, ..., n-1 are
    walked, in the order of :func:`iter_mols_systems`.  That loses nothing:
    relabelling a square's symbols keeps its system's extension count, and
    normalising the first square whose first row is not 0, 1, ..., n-1 makes
    a system lexicographically smaller, so the first maximizer is already
    normalised.  Each array is counted directly and a system is built only
    for a new maximum; the counts are tiny and run in-process.
    """
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    _check_limit(n, DEFAULT_MAX_EXT_LIMIT, "system-by-system maximisation")
    best = -1
    best_sys: Optional[MolsSystem] = None
    cols: list[tuple[int, ...]] = []
    for noa in _system_arrays(_rows_array(n), k, cols, _root(n)):
        if len(cols) < k:
            continue
        c = count_extensions(noa).value.count
        if c > best:
            best = c
            best_sys = columns_to_system(n, cols)
    if best < 0:
        return ExtensionCount(Exact(0), True), None
    return ExtensionCount(Exact(best), True), best_sys


def extension_census(
    partition: RegionPartition, kmax: int
) -> list[dict[int, int]]:
    """For k = 0..kmax: the multiset of extension counts over all k-tuple
    systems gerechte for ``partition`` — {extension count: how many systems}.

    Lets a caller check a uniform bound against *every* system without
    materializing the systems.  Only systems whose squares all have first
    row 0, 1, ..., n-1 are walked; each stands for the (n!)^k systems that
    relabel its squares' symbols, which share its extension count, so it
    adds (n!)^k to its histogram entry.
    """
    n = partition.order
    if kmax < 0:
        raise InvalidParams("kmax must be nonnegative")
    _check_limit(n, DEFAULT_MAX_EXT_LIMIT, "census over all systems")
    out: list[dict[int, int]] = [dict() for _ in range(kmax + 1)]
    fact = math.factorial(n)
    cols: list[tuple[int, ...]] = []
    base = system_to_noa(validate_mols([], partition))
    for noa in _system_arrays(base, kmax, cols, _root(n)):
        hist = out[len(cols)]
        cnt = count_extensions(noa).value.count
        hist[cnt] = hist.get(cnt, 0) + fact ** len(cols)
    for hist in out:
        # deterministic key order for reporting
        items = sorted(hist.items())
        hist.clear()
        hist.update(items)
    return out


# --------------------------------------------------------------------------
# the independent direct engine (no array machinery)


def _direct_walk(perms: Sequence[tuple[int, ...]], n: int, labels=None):
    """The row-wise walk over the Latin squares of order n.  ``perms`` are
    the n! permutations of range(n) in lexicographic order; a row is an
    index into them.

    Row p has the column code with bit j*n + p[j] per column j; a node walks
    its candidates in order and passes down those whose code misses the
    chosen row's.  ``labels``, an optional n x n grid of region labels, gives
    row i of p the region code with bit labels[i][j]*n + p[j], which must
    miss those of the rows above; without it the rows are the regions and
    cost nothing more.  Yields ``(rows, last)`` per node at row n-1, in
    lexicographic order: rows 0..n-2 (a reused buffer) and every row
    completing them.  Nothing is reduced: each square is one leaf.
    """
    code = [sum(1 << (j * n + p[j]) for j in range(n)) for p in perms]
    region = None
    if labels is not None:
        region = [[sum(1 << (lab[j] * n + p[j]) for j in range(n)) for p in perms]
                  for lab in labels]
    rows = [0] * (n - 1)
    last = n - 1
    if n == 1:
        return iter([(rows, [0])])

    def rec(i, cands, used):
        reg = None if region is None else region[i]
        for r in cands:
            u = used
            if reg is not None:
                if reg[r] & used:
                    continue
                u |= reg[r]
            rows[i] = r
            cr = code[r]
            nxt = [c for c in cands if not code[c] & cr]
            if i + 1 < last:
                yield from rec(i + 1, nxt, u)
            else:
                if region is not None:
                    below = region[last]
                    nxt = [c for c in nxt if not below[c] & u]
                yield rows, nxt

    return rec(0, list(range(len(perms))), 0)


def _count_direct(n: int, labels=None) -> int:
    perms = list(permutations(range(n)))
    return sum(len(last) for _, last in _direct_walk(perms, n, labels))


def iter_latin_direct(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every Latin square of order n, rows as tuples, in lexicographic
    order, from the row-wise walk :func:`_direct_walk`.  Shares nothing
    with the extension engine."""
    if n < 1:
        raise InvalidParams("order must be positive")
    perms = list(permutations(range(n)))
    for rows, last in _direct_walk(perms, n):
        head = tuple(perms[r] for r in rows)
        for c in last:
            yield head + (perms[c],)


def count_latin_direct(n: int) -> int:
    """Count Latin squares by the direct engine (fast, no witnesses)."""
    if n < 1:
        raise InvalidParams("order must be positive")
    return _count_direct(n)


def count_sudoku_direct(n: int) -> int:
    """Count order-n box-balanced Latin squares directly: the row-wise walk
    with the boxes as regions."""
    m = math.isqrt(n)
    if m * m != n:
        raise InvalidParams(f"order {n} is not a perfect square")
    return _count_direct(n, [[(i // m) * m + j // m for j in range(n)] for i in range(n)])


def count_mols_direct(n: int, k: int) -> int:
    """Tuple counts by the direct engine: full grids first, then pair checks.

    Supported for k <= 1 at any permitted order and k = 2 up to order 4;
    the cost is quadratic in the number of squares beyond that.  Every
    ordered pair (a, b) is checked: b is orthogonal to a exactly when the
    cell mask of each symbol class of b is in a's set of transversal masks
    (the permutations p whose cells (i, p[i]) hold distinct symbols of a).
    Most pairs fail at the first lookup.
    """
    if k == 0:
        return 1
    if k == 1:
        _check_limit(n, DEFAULT_MOLS_LIMIT, "direct tuple counting")
        return count_latin_direct(n)
    if k == 2 and n <= 4:
        perms = list(permutations(range(n)))
        cells = [sum(1 << (i * n + j) for i, j in enumerate(p)) for p in perms]
        squares = list(iter_latin_direct(n))
        classes = [[sum(1 << (i * n + row.index(s)) for i, row in enumerate(b)) for s in range(n)]
                   for b in squares]
        total = 0
        for a in squares:
            trans = {mask for mask, p in zip(cells, perms)
                     if len({row[j] for row, j in zip(a, p)}) == n}
            total += sum(map(trans.issuperset, classes))
        return total
    raise LimitExceeded(
        f"direct engine supports k <= 1 (any order) or k = 2 up to order 4; "
        f"got n={n}, k={k}"
    )


def gerechte_mates_direct(l: LatinSquare) -> int:
    """Mates of ``l`` by the row-wise walk with ``l``'s symbol classes as
    the regions: a square is a mate exactly when it is gerechte for them."""
    return _count_direct(l.order, l.grid)
