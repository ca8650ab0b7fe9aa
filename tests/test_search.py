import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molscope
import oracles
from molscope.arrays import NearlyOrthArray
from molscope.construct import GroupSpec, cayley_table, construct_for_constant, kronecker
from molscope.core import (
    Square,
    check_orthogonal,
    partition_boxes,
    partition_from_square,
    partition_rows,
    validate_gerechte,
    validate_latin,
    validate_mols,
)
from molscope.errors import InvalidParams, LimitExceeded
from molscope.search import (
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
    _aggregate,
    _array_codes,
    _autotopisms,
    _branch_limit,
    _cover_branch,
    _cover_orbits,
    _cover_tables,
    _cover_plan,
    _count_covers,
    _orbits,
    _transversal_branch,
    _transversals,
)

Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
K4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


def cayley(*factors):
    return cayley_table(GroupSpec(list(factors))).grid


Z5 = cayley(5)
Z2_CUBED = cayley(2, 2, 2)
Z3_BY_Z3 = kronecker(cayley_table(GroupSpec([3])), cayley_table(GroupSpec([3]))).grid


def L(grid):
    return validate_latin(Square(grid))


def _row_codes(grid):
    """The per-cell codes of the system {grid} on the rows: their
    transversals are the Latin transversals of the square."""
    return _array_codes(validate_mols([L(grid)], partition_rows(len(grid))))


def _grid(col, n):
    """A flat row-major symbol column as an n x n grid."""
    return [list(col[i * n : (i + 1) * n]) for i in range(n)]


def _system(grids, p):
    return validate_mols([L(g) for g in grids], p)


# --------------------------------------------------------------------------
# count values


def test_count_value_types():
    assert Exact(6).ln() == pytest.approx(1.791759469228055)
    assert Exact(0).ln() == float("-inf")
    with pytest.raises(InvalidParams):
        Exact(-1)


def test_search_options_validation():
    with pytest.raises(TypeError):
        SearchOptions(cap=1)  # a search only counts; the walks list
    with pytest.raises(InvalidParams):
        SearchOptions(stop_threshold=0)
    with pytest.raises(InvalidParams):
        SearchOptions(threads=0)


# --------------------------------------------------------------------------
# transversals against the oracle


@pytest.mark.parametrize("grid", [Z3, Z4, K4])
def test_transversals_match_oracle(grid):
    res = enumerate_transversals(L(grid))
    expected = oracles.transversals(grid)  # lexicographic in the column tuple
    assert res.value.count == len(expected)
    assert res.exact_flag
    assert list(iter_transversals(L(grid))) == expected


def test_transversal_known_counts():
    assert enumerate_transversals(L(Z3)).value.count == 3
    assert enumerate_transversals(L(Z4)).value.count == 0
    assert enumerate_transversals(L(K4)).value.count == 8


def test_transversals_without_cap_collect_nothing():
    # a count carries its value and flag only
    assert enumerate_transversals(L(K4)) == ExtensionCount(Exact(8), True)
    assert not hasattr(ExtensionCount(Exact(8), True), "witnesses")


# --------------------------------------------------------------------------
# partitions against the oracle


@pytest.mark.parametrize("grid,expected", [(Z3, 1), (Z4, 0), (K4, 2), (Z2_CUBED, 70272)])
def test_partition_counts(grid, expected):
    res = count_transversal_partitions(L(grid))
    assert res.value.count == expected
    assert res.exact_flag


def test_partitions_match_oracle_exactly():
    expected = oracles.transversal_partitions(K4)
    got = [frozenset(frozenset(part) for part in w) for w in iter_transversal_partitions(L(K4))]
    assert len(got) == count_transversal_partitions(L(K4)).value.count == len(expected)
    assert set(got) == {frozenset(p) for p in expected}


def test_partition_witnesses_are_partitions():
    for w in iter_transversal_partitions(L(K4)):
        cells = [c for part in w for c in part]
        assert len(cells) == 16 and len(set(cells)) == 16
        for part in w:
            assert len({i for i, _ in part}) == 4
            assert len({j for _, j in part}) == 4
            assert len({K4[i][j] for i, j in part}) == 4


# --------------------------------------------------------------------------
# exact cover: witness order, determinism, literature anchors

ORDER_CASES = {
    "Z3": Z3,
    "Z4": Z4,
    "K4": K4,
    "Z5": Z5,
    "kron(Z2,Z2)": kronecker(cayley_table(GroupSpec([2])), cayley_table(GroupSpec([2]))).grid,
    "Z7": cayley(7),
    "Z2^3": Z2_CUBED,
}


@pytest.mark.parametrize("cap", [1, 2, 50])
@pytest.mark.parametrize("name", ORDER_CASES)
def test_partition_witnesses_in_reference_order(name, cap):
    grid = ORDER_CASES[name]
    want = tuple(itertools.islice(oracles.lexicographic_partitions(grid), cap))
    assert tuple(itertools.islice(iter_transversal_partitions(L(grid)), cap)) == want


def test_reference_order_counts_match_oracle():
    for grid in (Z3, Z4, K4, Z5):
        ref = list(oracles.lexicographic_partitions(grid))
        assert {frozenset(frozenset(p) for p in w) for w in ref} == {
            frozenset(p) for p in oracles.transversal_partitions(grid)
        }
        assert len(ref) == count_transversal_partitions(L(grid)).value.count


@pytest.mark.parametrize("grid", [K4, Z5, Z2_CUBED], ids=["K4", "Z5", "Z2^3"])
def test_cover_pooled_equals_sequential(grid):
    seq = count_transversal_partitions(L(grid))
    par = count_transversal_partitions(L(grid), SearchOptions(threads=2))
    assert seq == par
    assert seq.exact_flag


def test_cover_threshold_reports_exactly_threshold():
    # thresholds met inside the first branch, at and around the total
    full = count_transversal_partitions(L(Z2_CUBED))
    assert full.value.count == 70272
    for threshold in (1, 1000, 46656, 70271, 70272, 70273):
        runs = [
            count_transversal_partitions(
                L(Z2_CUBED), SearchOptions(stop_threshold=threshold, threads=threads)
            )
            for threads in (None, 2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].value.count == min(threshold, 70272)
        assert runs[0].exact_flag is (threshold > 70272)


def test_cover_threshold_on_product_square():
    # the certify-product instance: 46,656 partitions are met inside branch 0
    runs = [
        count_transversal_partitions(
            L(Z3_BY_Z3),
            SearchOptions(stop_threshold=46656, threads=threads),
        )
        for threads in (None, 2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].value.count == 46656 and not runs[0].exact_flag


PERMUTED = [(K4, 2), (Z5, 3), (Z2_CUBED, 70272)]


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, len(PERMUTED) - 1), data=st.data())
def test_partition_count_isotopy_invariant(index, data):
    grid, want = PERMUTED[index]
    n = len(grid)
    rows, cols, syms = (data.draw(st.permutations(range(n))) for _ in range(3))
    iso = [[syms[grid[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]
    res = count_transversal_partitions(L(iso))
    assert res.value.count == want and res.exact_flag


@pytest.mark.parametrize(
    "grid, expected",
    [(cayley(7), 133), (cayley(9), 2025), (Z3_BY_Z3, 2241), (Z2_CUBED, 384)],
    ids=["Z7", "Z9", "Z3xZ3", "Z2^3"],
)
def test_transversal_literature_anchors(grid, expected):
    # OEIS A006717 for Z7 and Z9; 2,241 is the largest count at order 9
    # (McKay, McLeod & Wanless 2006)
    res = enumerate_transversals(L(grid))
    assert res.value.count == expected and res.exact_flag


# --------------------------------------------------------------------------
# mates: engine == factorial identity == oracle == direct engine


@pytest.mark.parametrize("grid", [Z3, Z4, K4])
def test_mates_three_ways(grid):
    n = len(grid)
    engine = count_mates(L(grid)).value.count
    brute = len(oracles.mates(grid))
    parts = count_transversal_partitions(L(grid)).value.count
    import math

    assert engine == brute == parts * math.factorial(n)
    assert gerechte_mates_direct(L(grid)) == engine


def test_mate_witnesses_verify():
    cols = list(iter_extensions(validate_mols([L(Z3)], partition_rows(3))))
    assert len(cols) == count_mates(L(Z3)).value.count == 6
    for col in cols:
        mate = L([list(col[i * 3 : (i + 1) * 3]) for i in range(3)])
        assert check_orthogonal(L(Z3), mate)
    # lexicographic order of flattened mates
    assert cols == sorted(cols)


# --------------------------------------------------------------------------
# the extension engine against brute force


def test_extension_columns_equal_brute_force_mates():
    cols = list(iter_extensions(validate_mols([L(Z3)], partition_rows(3))))
    expected = {
        tuple(x for row in m for x in row) for m in oracles.mates(Z3)
    }
    assert set(cols) == expected
    assert cols == sorted(cols)


def test_extensions_respect_gerechte_partition():
    res = count_extensions(validate_mols([], partition_boxes(4)))
    assert res.value.count == 288
    squares = oracles.brute_latin_squares(4)
    labels = [(i // 2) * 2 + (j // 2) for i in range(4) for j in range(4)]
    brute = [s for s in squares if oracles.gerechte(s, labels)]
    assert len(brute) == 288


BOXES_4_SQUARE = [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]
EXTENSION_SYSTEMS = {
    "boxes-4": ([], partition_boxes(4)),
    "boxes-4-one-square": ([BOXES_4_SQUARE], partition_boxes(4)),
    "k4-symbol-classes": ([], partition_from_square(Square(K4))),
    "rows-5-two-squares": ([Z5, [[(i + 2 * j) % 5 for j in range(5)] for i in range(5)]],
                           partition_rows(5)),
}


@pytest.mark.parametrize("name", EXTENSION_SYSTEMS)
def test_extension_columns_equal_brute_force_extensions(name):
    grids, p = EXTENSION_SYSTEMS[name]
    want = sorted(oracles.extensions(grids, p.labels))
    assert want and list(iter_extensions(_system(grids, p))) == want


# sha256 of the first 1,000 columns of iter_extensions, one line of digits
# per column
Z7_PAIR = [cayley(7), [[(i + 2 * j) % 7 for j in range(7)] for i in range(7)]]
EXTENSION_DIGESTS = {
    "z7-mates": ([cayley(7)], partition_rows(7),
                 "8e56f4294895ee94e77caa479ad1a88f79881d2cb75dbd02c8148a4ab0821a03"),
    "boxes-9": ([], partition_boxes(9),
                "5fc5d4b35a52512f239a34e19044003f25f485f5a66af357ff2179b1033f49af"),
    "z7-pair": (Z7_PAIR, partition_rows(7),
                "a83325d4fed5a5cddf4919168d440b0b48e453549c12ea40bdf7fd6e5f22246f"),
}


@pytest.mark.parametrize("name", EXTENSION_DIGESTS)
def test_first_extension_columns_are_pinned(name):
    grids, p, digest = EXTENSION_DIGESTS[name]
    cols = list(itertools.islice(iter_extensions(_system(grids, p)), 1000))
    assert len(cols) == 1000
    h = hashlib.sha256()
    for col in cols:
        h.update(("".join(map(str, col)) + "\n").encode())
    assert h.hexdigest() == digest


def test_count_extensions_matches_with_column_validation():
    # every reported extension column must validate as one more square of
    # the system, by the core checks alone, and the count must match
    for grids, p in (([Z3], partition_rows(3)), ([], partition_boxes(4))):
        system = _system(grids, p)
        cols = list(iter_extensions(system))
        for col in cols:
            validate_mols([*system.squares, L(_grid(col, p.order))], p)  # raises on any engine bug
        assert len(set(cols)) == len(cols) == count_extensions(system).value.count > 0


# --------------------------------------------------------------------------
# chained counts


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (1, 1, 1),
        (1, 2, 1),  # order-1 chains: each cover is one part
        (1, 3, 1),
        (2, 1, 2),
        (3, 1, 12),
        (4, 1, 576),
        (3, 2, 72),
        (4, 2, 6912),
        (4, 3, 165888),
        (2, 2, 0),  # k > n-1
        (3, 0, 1),
    ],
)
def test_count_mols_values(n, k, expected):
    assert count_mols(n, k).value.count == expected


def test_count_mols_matches_oracle_small():
    assert count_mols(3, 2).value.count == oracles.mols_tuples(3, 2)
    squares4 = oracles.brute_latin_squares(4)
    assert count_mols(4, 1).value.count == len(squares4)


def test_direct_engine_agrees():
    for n in range(1, 5):
        assert count_latin_direct(n) == count_mols(n, 1).value.count
    assert count_mols_direct(4, 2) == 6912
    assert count_mols_direct(3, 2) == 72
    assert count_mols_direct(5, 0) == 1
    assert count_latin_direct(5) == 161280
    with pytest.raises(LimitExceeded):
        count_mols_direct(5, 2)


def test_direct_engine_stops_at_its_reach(monkeypatch):
    # order 6 would walk all 812,851,200 squares: refused at once, even
    # with the order limit raised
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "6")
    with pytest.raises(LimitExceeded, match="k = 1 up to order 5"):
        count_mols_direct(6, 1)


def test_count_sudoku_direct():
    assert count_sudoku_direct(4) == 288
    assert count_sudoku_direct(1) == 1
    for bad in (0, -4):
        with pytest.raises(InvalidParams, match="order must be positive"):
            count_sudoku_direct(bad)
    with pytest.raises(InvalidParams, match="not a perfect square"):
        count_sudoku_direct(8)


def test_direct_engine_refuses_order_8_before_building_its_table(monkeypatch):
    # the row table takes (n!)^2/8 bytes, 16 GB at order 9: refused before
    # even the permutations are listed
    import molscope.search as search

    def forbidden(*args):
        raise AssertionError("the direct engine built its rows")

    monkeypatch.setattr(search, "permutations", forbidden)
    calls = [(count_sudoku_direct, 9), (count_latin_direct, 8), (count_latin_direct, 9),
             (lambda n: next(iter_latin_direct(n)), 8)]
    for engine, n in calls:
        with pytest.raises(LimitExceeded, match=f"orders up to 7: its row table at order {n} "):
            engine(n)


@pytest.mark.parametrize("n, k", [(0, 0), (0, 1), (3, -1), (-1, 2)])
def test_direct_engine_refuses_what_count_mols_refuses(n, k):
    # InvalidParams (exit 4), not LimitExceeded (exit 3), and never a count
    for engine in (count_mols_direct, count_mols):
        with pytest.raises(InvalidParams, match=r"need n >= 1 and k >= 0"):
            engine(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_iter_latin_direct_matches_product_oracle(n):
    # same squares, same lexicographic order
    assert tuple(iter_latin_direct(n)) == oracles.product_latin_squares(n)


def test_iter_latin_direct_5_is_sorted_and_latin():
    # the walk decodes its last row's candidate set lowest bit first, so the
    # squares come in strictly increasing lexicographic order
    squares = list(iter_latin_direct(5))
    assert len(squares) == 161280
    assert all(a < b for a, b in zip(squares, squares[1:]))
    symbols = set(range(5))
    assert all(set(line) == symbols for sq in squares for line in (*sq, *zip(*sq)))


def test_count_mols_direct_matches_naive_pair_check():
    assert count_mols_direct(4, 2) == oracles.orthogonal_pairs(oracles.product_latin_squares(4))


def _forbid_all_but_direct(monkeypatch):
    """Make every function of the search module raise, except the direct
    engine and the limit helpers; returns the names made to raise."""
    import inspect

    import molscope.search as search

    def forbidden(*args, **kwargs):
        raise AssertionError("a direct engine called the extension or cover engine")

    keep = {"_direct_walk", "_count_direct", "order_limit", "_check_limit"}
    names = {name for name, fn in vars(search).items()
             if inspect.isfunction(fn) and fn.__module__ == search.__name__
             and name not in keep and not name.endswith("_direct")}
    for name in names:
        monkeypatch.setattr(search, name, forbidden)
    return names


def test_direct_engines_share_no_code(monkeypatch):
    forbidden = _forbid_all_but_direct(monkeypatch)
    assert {"iter_extensions", "_transversals", "_cover_branch", "_covers", "count_mols"} <= forbidden
    assert [count_latin_direct(n) for n in range(1, 6)] == [1, 2, 12, 576, 161280]
    assert count_mols_direct(3, 2) == 72
    assert count_mols_direct(4, 2) == 6912
    assert count_sudoku_direct(4) == 288
    squares = list(iter_latin_direct(4))
    grids = [squares[0], squares[1], squares[100], squares[575], Z4, K4]
    assert [gerechte_mates_direct(L(g)) for g in grids] == [48, 0, 48, 48, 0, 48]


# --------------------------------------------------------------------------
# determinism, thresholds, caps, parallelism


def test_parallel_equals_sequential():
    seq = count_mates(L(K4))
    par = count_mates(L(K4), SearchOptions(threads=3))
    assert par.value == seq.value
    assert par.exact_flag and seq.exact_flag

    seqt = enumerate_transversals(L(K4))
    part = enumerate_transversals(L(K4), SearchOptions(threads=3))
    assert seqt == part


def test_threshold_reports_exactly_threshold():
    for threads in (None, 3):
        opts = SearchOptions(stop_threshold=10, threads=threads)
        res = count_mates(L(K4), opts)
        assert res.value.count == 10
        assert not res.exact_flag


def test_threshold_above_total_is_exact():
    res = count_mates(L(K4), SearchOptions(stop_threshold=100))
    assert res.value.count == 48
    assert res.exact_flag


def _emitted(cli, tmp_path, argv):
    """The count field and the witness files of a count run with
    ``--emit-witnesses``."""
    out = tmp_path / "w"
    code, raw, _ = cli([*argv, "--emit-witnesses", str(out), "--format", "structured"])
    assert code == 0
    field = next(f for f in json.loads(raw)["results"] if f.get("unit") == "exact count")
    files = [f.read_text() for f in sorted(out.iterdir())] if out.exists() else []
    return field, files


def test_threshold_with_witnesses_truncates(cli, tmp_path):
    field, files = _emitted(cli, tmp_path, ["count", "mates", "--square", "cayley:2x2",
                                            "--threshold", "10", "--cap", "48"])
    assert (field["value"], field["exact"]) == ("10", False)
    assert len(files) == 10


def test_cap_truncates_witnesses_but_not_count(cli, tmp_path):
    argv = ["count", "mates", "--square", "cayley:2x2"]
    field, files = _emitted(cli, tmp_path / "7", [*argv, "--cap", "7"])
    assert (field["value"], field["exact"]) == ("48", True)
    _, full = _emitted(cli, tmp_path / "48", [*argv, "--cap", "48"])
    assert len(full) == 48 and files == full[:7]


# --------------------------------------------------------------------------
# branches count, witnesses come from one sequential walk


def _isotope(grid, seed):
    rng = random.Random(seed)
    n = len(grid)
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return [[syms[grid[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]


TRANSVERSAL_CASES = {
    "Z5": Z5,
    "Z7": cayley(7),
    "Z2^3": Z2_CUBED,
    "Z7-isotope": _isotope(cayley(7), 1),
}


@pytest.mark.parametrize("name", TRANSVERSAL_CASES)
def test_transversal_witnesses_are_the_first_leaves(name):
    grid = TRANSVERSAL_CASES[name]
    want = oracles.transversals(grid)  # lexicographic in the column tuple
    assert list(iter_transversals(L(grid))) == want
    for threads in (None, 2):
        for threshold in (None, 7, 30):
            opts = SearchOptions(stop_threshold=threshold, threads=threads)
            res = enumerate_transversals(L(grid), opts)
            stopped = threshold is not None and threshold <= len(want)
            assert res.value.count == (threshold if stopped else len(want))
            assert res.exact_flag is not stopped


def _random_latin(n, seed):
    """A Latin square of order n filled cell by cell in a seeded random
    symbol order (backtracking on dead ends)."""
    rng = random.Random(seed)
    grid = [[-1] * n for _ in range(n)]

    def fill(c):
        if c == n * n:
            return True
        i, j = divmod(c, n)
        used = set(grid[i][:j]) | {grid[r][j] for r in range(i)}
        xs = [x for x in range(n) if x not in used]
        rng.shuffle(xs)
        for x in xs:
            grid[i][j] = x
            if fill(c + 1):
                return True
        grid[i][j] = -1
        return False

    fill(0)
    return grid


RANDOM_7 = _random_latin(7, 1)
RANDOM_8 = _random_latin(8, 2)


STOPPED_POOLS = """
from molscope.construct import GroupSpec, cayley_table
from molscope.search import (SearchOptions, count_mates, count_transversal_partitions,
                             enumerate_transversals)
z2cubed, z7 = cayley_table(GroupSpec([2, 2, 2])), cayley_table(GroupSpec([7]))
for i in range(150):
    count_transversal_partitions(z2cubed, SearchOptions(stop_threshold=1 + i % 50, threads=2))
    enumerate_transversals(z7, SearchOptions(stop_threshold=1 + i % 7, threads=2))
    count_mates(z7, SearchOptions(stop_threshold=1 + i % 30, threads=2))
"""


def test_threshold_stopped_pools_never_hang():
    # A threshold stop kills the workers mid-branch.  Two processes stopping
    # pools at once keep the CPUs busy, so workers are often killed while
    # sending a result: a worker killed holding a lock it shares with the
    # pool would hang the teardown for good.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(molscope.__file__)))
    procs = [subprocess.Popen([sys.executable, "-c", STOPPED_POOLS], env=env) for _ in range(2)]
    try:
        assert [p.wait(timeout=120) for p in procs] == [0, 0]
    finally:
        for p in procs:
            p.kill()
            p.wait()


def _fails_on_branch_1(limit, idx):
    if idx == 1:
        raise LimitExceeded("branch 1 is past its limit")
    return 1


def _exits_on_branch_1(limit, idx):
    if idx == 1:
        os._exit(3)
    return 1


def test_pool_failures_reach_the_caller_and_leave_no_worker():
    # a branch's exception crosses its pipe and is raised again in the
    # parent; a worker that dies without answering closes its pipe, which
    # the parent reads as an error rather than waiting for it forever
    items = [(idx, 1) for idx in range(4)]
    with pytest.raises(LimitExceeded, match="^branch 1 is past its limit$"):
        _aggregate((_fails_on_branch_1, (), items), SearchOptions(threads=2))
    assert multiprocessing.active_children() == []
    with pytest.raises(EOFError):
        _aggregate((_exits_on_branch_1, (), items), SearchOptions(threads=2))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("threads", [None, 1, 2])
@pytest.mark.parametrize("threshold", [None, 7])
def test_transversal_branches_are_the_row_0_columns(monkeypatch, threads, threshold):
    # a transversal count branches on the smallest column of each orbit of
    # row 0's columns, with the orbit's size, whatever the pool and
    # threshold options: Z5's autotopisms join all five columns, and a
    # random square has no autotopism but the identity
    import molscope.search as search

    seen = []

    def recording(state, opts, weight=1):
        seen.append(list(state[2]))
        return aggregate(state, opts, weight)

    aggregate = search._aggregate
    monkeypatch.setattr(search, "_aggregate", recording)
    for grid, want in ((Z5, [((0,), 5)]), (RANDOM_7, [((j,), 1) for j in range(7)])):
        seen.clear()
        total = len(oracles.transversals(grid))
        res = enumerate_transversals(L(grid), SearchOptions(stop_threshold=threshold, threads=threads))
        assert seen == [want]
        assert res.value.count == min(threshold or total, total)


def test_capped_mate_count_is_reduced():
    # the count is reduced (first row fixed, times 7!), while the walk that
    # lists the mates is not, and yields its first columns at once; an
    # unreduced count of this tree takes minutes
    rows = validate_mols([L(cayley(7))], partition_rows(7))
    res = count_mates(L(cayley(7)))
    assert res.value.count == 3200400 and res.exact_flag
    first = list(itertools.islice(iter_extensions(rows), 5))
    assert first == sorted(first) and len(set(first)) == 5
    for col in first:
        validate_mols([L(cayley(7)), L(_grid(col, 7))], partition_rows(7))


def test_transversals_through_origin_match_oracle():
    # every order-4 square, and a spread of order-5 squares, whose cells lie
    # on different numbers of transversals
    order5 = itertools.islice(iter_latin_direct(5), 0, 20000, 101)
    for g in itertools.chain(iter_latin_direct(4), order5):
        want = sum(1 for t in oracles.transversals(g) if (0, 0) in t)
        assert _transversal_branch(_row_codes(g), len(g), None, (0,)) == want


# --------------------------------------------------------------------------
# one-branch sequential path against the cut and pooled paths

PARTITIONS_4 = {
    "rows": partition_rows(4),
    "boxes": partition_boxes(4),
    "symbol-classes": partition_from_square(Square(K4)),
}


def _chain_systems(p):
    """The empty system on ``p`` and its first extension at depths 1 and 2."""
    systems = [validate_mols([], p)]
    for _ in range(2):
        first = next(iter_extensions(systems[-1]), None)
        if first is None:
            break
        systems.append(validate_mols([*systems[-1].squares, L(_grid(first, p.order))], p))
    return systems


# named by the width k + 3 of the system's array: coordinates, regions, squares
SYSTEMS_4 = [(name, s) for name, p in PARTITIONS_4.items() for s in _chain_systems(p)]


def test_arrays_4_reach_symbol_columns():
    assert {s.k for _, s in SYSTEMS_4} == {0, 1, 2}


@pytest.mark.parametrize("name, a", SYSTEMS_4, ids=[f"{n}-w{s.k + 3}" for n, s in SYSTEMS_4])
def test_one_branch_equals_pooled(name, a):
    exts = list(iter_extensions(a))
    pooled = SearchOptions(threads=2)
    seq = count_extensions(a)
    assert seq == count_extensions(a, pooled)
    assert seq.value.count == len(exts) and seq.exact_flag

    for threshold in (1, max(len(exts) // 2, 1), len(exts) + 1):
        one = count_extensions(a, SearchOptions(stop_threshold=threshold))
        two = count_extensions(a, SearchOptions(stop_threshold=threshold, threads=2))
        assert one == two
        stopped = threshold <= len(exts)
        assert one.value.count == (threshold if stopped else len(exts))
        assert one.exact_flag is not stopped


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, len(SYSTEMS_4) - 1),
    threshold=st.none() | st.integers(1, 400),
)
def test_one_branch_matches_enumeration(index, threshold):
    # With a threshold the tree is cut into branches; without one it is one
    # branch.  Both must agree with plain enumeration.
    _, a = SYSTEMS_4[index]
    exts = list(iter_extensions(a))
    res = count_extensions(a, SearchOptions(stop_threshold=threshold))
    stopped = threshold is not None and threshold <= len(exts)
    assert res.value.count == (threshold if stopped else len(exts))
    assert res.exact_flag is not stopped


@pytest.mark.parametrize("threads", [None, 2])
def test_chain_paths_agree(threads):
    opts = SearchOptions(threads=threads)
    assert count_mols(4, 2, opts).value.count == 6912
    stopped = count_mols(4, 2, SearchOptions(stop_threshold=1000, threads=threads))
    assert stopped.value.count == 1000 and not stopped.exact_flag


# --------------------------------------------------------------------------
# capped branches and the closed-form last two parts, against the oracles


def _check_stops(count, want, thresholds=None):
    """``count(threshold)`` reports min(threshold, want), flagged "at least"
    exactly when the threshold is met, at ``thresholds`` (by default, those
    around ``want``)."""
    if thresholds is None:
        thresholds = sorted({1, max(want // 2, 1), max(want - 1, 1), max(want, 1), want + 1})
    for threshold in thresholds:
        res = count(threshold)
        stopped = threshold <= want
        assert res.value.count == (threshold if stopped else want)
        assert res.exact_flag is not stopped


# Squares whose orbits differ in size: in Z3² (12,445,836 partitions) and
# Z9 (2,049,219) option 0 is an orbit of one, and the seed-2 isotope of Z11,
# whose first orbit of ten options alone lies in over 10⁴ partitions, has
# orbits of 10, 5, 2 and 1.  math.inf: above every threshold.
LARGEST_ORBIT_FIRST_CASES = {
    "Z3^2": (cayley(3, 3), 12445836),
    "Z9": (cayley(9), 2049219),
    "Z11-iso2": (_isotope(cayley(11), 2), math.inf),
}


@pytest.mark.parametrize("name", LARGEST_ORBIT_FIRST_CASES)
def test_threshold_counts_with_the_largest_orbit_first(name):
    grid, want = LARGEST_ORBIT_FIRST_CASES[name]
    plan = _cover_plan(validate_mols([L(grid)], partition_rows(len(grid))))
    for threads in (1, 2):
        _check_stops(lambda t: _count_covers(plan, SearchOptions(stop_threshold=t, threads=threads)),
                     want, (1, 10, 10**3, 10**4))


@pytest.mark.parametrize("threshold, order", [(None, [9, 10, 1, 4, 5, 33, 0]), (100, [9, 10, 1])])
def test_branches_run_in_decreasing_orbit_size(threshold, order):
    # the first branches of Z3²'s plan: decreasing size, ties in increasing
    # representative order, each counting up to its own share of the threshold
    items = [(0, 1), (1, 16), (4, 8), (5, 8), (9, 48), (10, 48), (33, 6)]
    seen = []

    def branch(limit, rep):
        seen.append((rep, limit))
        return 1

    res = _aggregate((branch, (), items), SearchOptions(stop_threshold=threshold, threads=1))
    assert [rep for rep, _ in seen] == order
    sizes = dict(items)
    assert [limit for _, limit in seen] == [_branch_limit(SearchOptions(stop_threshold=threshold), sizes[rep])
                                            for rep in order]
    assert res.value.count == min(threshold or 135, 135)


@pytest.mark.parametrize("seed", [None, 1])
def test_product_certificate_runs_one_branch_on_its_largest_orbit(monkeypatch, cli, tmp_path, seed):
    # the threshold 46,656 = ⌈bound / 9!⌉ is reached by the first branch run:
    # an orbit of 48 options needs ⌈46,656 / 48⌉ = 972 partitions, where
    # branch 0, an orbit of one, would need all 46,656
    import molscope.search as search
    from molscope.cli import format_document

    base = Z3 if seed is None else _isotope(Z3, seed)
    path = tmp_path / "base.txt"
    path.write_text(format_document([base]))
    calls = []
    cover_branch = search._cover_branch

    def spy(*args):
        sub = cover_branch(*args)
        calls.append((args[-1], args[-2], sub))
        return sub

    monkeypatch.setattr(search, "_cover_branch", spy)
    code, out, _ = cli(["certify", "product", "--base", str(path), "--format", "structured",
                        "--threads", "1"])
    assert code == 0 and b"46656" in out
    capped = [call for call in calls if call[1] is not None]  # not the base's mate count
    assert len(capped) == 1 and capped[0][1:] == (972, 972)
    product = kronecker(L(base), L(base))
    sizes = dict(_cover_plan(validate_mols([product], partition_rows(9)))[2])
    assert sizes[capped[0][0]] == max(sizes.values()) == 48


def test_a_cover_past_the_option_cap_is_refused_before_its_tables(monkeypatch, cli, capsys):
    # Z7 has 133 transversals: a cap of 100 refuses its cover before any
    # table is built, in the counts, the listing walk and the CLI (exit 3)
    import molscope.search as search

    def forbidden(*args):
        raise AssertionError("built the tables of a cover past the cap")

    monkeypatch.setattr(search, "COVER_MAX_OPTIONS", 133)
    assert count_transversal_partitions(L(cayley(7))).value.count == 635
    monkeypatch.setattr(search, "COVER_MAX_OPTIONS", 100)
    monkeypatch.setattr(search, "_cover_tables", forbidden)
    for walk in (count_transversal_partitions, count_mates,
                 lambda sq: next(iter_transversal_partitions(sq))):
        with pytest.raises(LimitExceeded, match="more than 100 options"):
            walk(L(cayley(7)))
    capsys.readouterr()
    assert cli(["count", "partitions", "--square", "cayley:7"])[:2] == (3, b"")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "more than 100 options" in err


CLOSED_FORM_GRIDS = [
    (f"{name}-iso{seed}", _isotope(grid, seed))
    for name, grid, seeds in (
        ("K4", K4, (1, 2, 3)),
        ("Z5", Z5, (1, 2, 3)),
        ("Z7", cayley(7), (1, 2)),
        ("Z2^3", Z2_CUBED, (1,)),
    )
    for seed in seeds
]


def test_partition_count_oracle_agrees_with_enumeration():
    for grid in (Z3, Z4, K4, Z5, _isotope(Z5, 1)):
        assert oracles.partition_count(grid) == len(oracles.transversal_partitions(grid))


@pytest.mark.parametrize("name, grid", CLOSED_FORM_GRIDS, ids=[name for name, _ in CLOSED_FORM_GRIDS])
def test_capped_partition_and_mate_counts_match_oracle(name, grid):
    n = len(grid)
    want = oracles.partition_count(grid)
    _check_stops(lambda t: count_transversal_partitions(L(grid), SearchOptions(stop_threshold=t)), want)
    mates = want * math.factorial(n)
    if n <= 4:
        assert mates == len(oracles.mates(grid))
    assert count_mates(L(grid)).value.count == mates
    # the array path, each cover worth n!: thresholds off multiples of n! too
    _check_stops(lambda t: count_mates(L(grid), SearchOptions(stop_threshold=t)), mates)


GERECHTE_PARTITIONS = {
    "boxes4": partition_boxes(4),
    "classes4": partition_from_square(Square(K4)),
    "classes4-Z4": partition_from_square(Square(Z4)),
    "classes3": partition_from_square(Square(Z3)),
}


@pytest.mark.parametrize("name", GERECHTE_PARTITIONS)
def test_capped_gerechte_counts_match_oracle(name):
    # every 5th gerechte square (and the empty system) of the oracle
    p = GERECHTE_PARTITIONS[name]
    systems = list(oracles.all_systems(p.order, p.labels, 1))
    for squares, ext in systems[::5]:
        a = _system(squares, p)
        assert count_extensions(a).value.count == ext
        _check_stops(lambda t: count_extensions(a, SearchOptions(stop_threshold=t)), ext)


def _oracle_tuples(n, k):
    """Ordered k-tuples: the extension counts of the oracle's (k-1)-systems."""
    systems = oracles.all_systems(n, partition_rows(n).labels, k - 1)
    return sum(ext for squares, ext in systems if len(squares) == k - 1)


@pytest.mark.parametrize("n, k", [(4, 2), (4, 3), (5, 2)])
def test_capped_chain_counts_match_oracle(n, k):
    if n == 5:
        # ordered pairs (A, B): relabelling A's symbols and permuting rows
        # 1..n-1 of both act freely, with one reduced A per orbit
        fact = math.factorial(n)
        reduced = oracles.reduced_latin_squares(n)
        want = fact * math.factorial(n - 1) * fact * sum(map(oracles.partition_count, reduced))
    else:
        want = _oracle_tuples(n, k)
    assert count_mols(n, k).value.count == want
    for threads in (None, 2):
        _check_stops(lambda t: count_mols(n, k, SearchOptions(stop_threshold=t, threads=threads)), want)


def _branches(options, n):
    tables = _cover_tables(options, n)
    return tables, (1 << len(options)) - 1, [t for t, m in enumerate(tables[0]) if m & 1]


def test_capped_branch_is_the_full_branch_capped():
    # the certify-product instance: branch 0 holds 110,580 partitions
    tables, every, first = _branches(list(_transversals(_row_codes(Z3_BY_Z3), 9, ())), 9)
    ends = (first[0], first[-1])
    full = [_cover_branch(*tables, 1, every, None, b) for b in ends]
    assert full == [110580, 44751]
    for b, count, limits in zip(ends, full, ((1, 1000, 46656, full[0] + 1), (1, full[1] // 2))):
        for limit in limits:
            assert _cover_branch(*tables, 1, every, limit, b) == min(count, limit)


def test_capped_chain_branch_is_the_full_branch_capped():
    empty = validate_mols([], partition_rows(4))
    tables, every, first = _branches(list(_transversals(_array_codes(empty), 4, ())), 4)
    for squares in (1, 2, 3):
        for b in first:
            full = _cover_branch(*tables, squares, every, None, b)
            assert full > 0
            for limit in range(1, full + 2):
                assert _cover_branch(*tables, squares, every, limit, b) == min(full, limit)


def test_branch_limit_is_the_least_count_reaching_the_threshold():
    assert _branch_limit(SearchOptions()) is None
    for weight in (1, 2, 24, 120, 14400):
        for threshold in (1, 2, weight - 1, weight, weight + 1, 7 * weight + 3, 46656):
            if threshold < 1:
                continue
            limit = _branch_limit(SearchOptions(stop_threshold=threshold), weight)
            assert limit * weight >= threshold > (limit - 1) * weight


def test_capped_transversal_branch_is_the_full_branch_capped():
    codes = _row_codes(cayley(7))
    for prefix in ((), (0,), (0, 2)):
        full = _transversal_branch(codes, 7, None, prefix)
        assert full > 1
        for limit in range(1, full + 2):
            assert _transversal_branch(codes, 7, limit, prefix) == min(full, limit)


# --------------------------------------------------------------------------
# orbit-weighted branches: autotopisms, orbits and the plain per-branch sums


def _check_maps(grid, maps, fix_cell):
    # three permutations each, with L[α(i)][β(j)] = γ(L[i][j]) at every cell
    n = len(grid)
    assert maps
    for a, b, g in maps:
        assert sorted(a) == sorted(b) == sorted(g) == list(range(n))
        assert all(grid[a[i]][b[j]] == g[grid[i][j]] for i in range(n) for j in range(n))
        assert a[0] == 0 and (b[0] == 0 or not fix_cell)


def _check_orbits(orbits, points, perms, plain):
    # the orbits split the points, each named by its smallest member, in
    # increasing order, and every member's branch counts as many leaves
    assert [rep for rep, _ in orbits] == sorted(rep for rep, _ in orbits)
    covered = set()
    for rep, size in orbits:
        members, todo = {rep}, [rep]
        while todo:
            p = todo.pop()
            for perm in perms:
                if perm[p] not in members:
                    members.add(perm[p])
                    todo.append(perm[p])
        assert min(members) == rep and len(members) == size
        assert {plain[p] for p in members} == {plain[rep]}
        covered |= members
    assert covered == set(points)


def _isotopes(cases, seed=1):
    return {**cases, **{f"{name}-iso{seed}": _isotope(g, seed) for name, g in cases.items()}}


ORBIT_TRANSVERSAL_CASES = {
    **_isotopes({"Z5": Z5, "Z7": cayley(7), "Z2^3": Z2_CUBED, "Z3xZ3": Z3_BY_Z3}),
    "random7": RANDOM_7,
    "random8": RANDOM_8,
}
ORBIT_PARTITION_CASES = {
    **_isotopes({"Z7": cayley(7), "Z2^3": Z2_CUBED}),
    "random7": RANDOM_7,
    "random8": RANDOM_8,
}


@pytest.mark.parametrize("name", ORBIT_TRANSVERSAL_CASES)
def test_orbit_weighted_transversals_equal_plain_sums(name):
    grid = ORBIT_TRANSVERSAL_CASES[name]
    n = len(grid)
    codes = _row_codes(grid)
    plain = [_transversal_branch(codes, n, None, (j,)) for j in range(n)]
    maps = _autotopisms(grid, False)
    _check_maps(grid, maps, False)
    perms = [b for _, b, _ in maps]
    orbits = _orbits(range(n), perms)
    _check_orbits(orbits, range(n), perms, plain)
    # a group table's autotopisms join every column of row 0; a random
    # square has only the identity
    assert orbits == ([(j, 1) for j in range(n)] if name.startswith("random") else [(0, n)])
    assert sum(size * plain[j] for j, size in orbits) == sum(plain)
    assert enumerate_transversals(L(grid)).value.count == sum(plain)
    if n <= 8:
        assert sum(plain) == len(oracles.transversals(grid))


@pytest.mark.parametrize("name", ORBIT_PARTITION_CASES)
def test_orbit_weighted_partitions_equal_plain_sums(name):
    grid = ORBIT_PARTITION_CASES[name]
    n = len(grid)
    options = list(_transversals(_row_codes(grid), n, ()))
    tables, every, first = _branches(options, n)
    plain = {t: _cover_branch(*tables, 1, every, None, t) for t in first}
    maps = _autotopisms(grid, True)
    _check_maps(grid, maps, True)
    index = {cols: t for t, cols in enumerate(options)}

    def image(a, b, t):
        cells = sorted((a[i], b[j]) for i, j in enumerate(options[t]))
        return index[tuple(j for _, j in cells)]

    perms = [{t: image(a, b, t) for t in first} for a, b, _ in maps]
    orbits = _cover_orbits(grid, options)
    _check_orbits(orbits, first, perms, plain)
    if name.startswith("random"):
        assert orbits == [(t, 1) for t in first]
    total = sum(plain.values())
    assert sum(size * plain[t] for t, size in orbits) == total
    assert count_transversal_partitions(L(grid)).value.count == total
    assert total == oracles.partition_count(grid)


SWEEP_CASES = {
    "transversals-Z7": (enumerate_transversals, iter_transversals, _isotope(cayley(7), 2), 133,
                        oracles.transversals),
    "transversals-random7": (enumerate_transversals, iter_transversals, RANDOM_7, 22,
                             oracles.transversals),
    "partitions-Z7": (count_transversal_partitions, iter_transversal_partitions,
                      _isotope(cayley(7), 2), 635, oracles.lexicographic_partitions),
    "partitions-Z2^3": (count_transversal_partitions, iter_transversal_partitions,
                        _isotope(Z2_CUBED, 2), 70272, oracles.lexicographic_partitions),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", SWEEP_CASES)
def test_orbit_weighted_stops_and_witnesses_match_the_plain_walk(name, threads):
    # the count and flag are those of the unreduced search, min(threshold,
    # total), for thresholds within, at and past orbit limits; the listing
    # walk gives the first leaves of the oracle's lexicographic walk
    count, walk, grid, total, oracle = SWEEP_CASES[name]
    assert list(itertools.islice(walk(L(grid)), 20)) == list(itertools.islice(oracle(grid), 20))
    for threshold in sorted({1, 2, 7, 8, 25, total // 3, total // 2, total - 1, total, total + 1}):
        res = count(L(grid), SearchOptions(stop_threshold=threshold, threads=threads))
        stopped = threshold <= total
        assert res.value.count == (threshold if stopped else total)
        assert res.exact_flag is not stopped


RANDOM_5 = _random_latin(5, 1)  # its only autotopism fixing cell 0 is the identity
MATE_CASES = {"K4": K4, "Z5": Z5, "Z2^3-iso": _isotope(Z2_CUBED, 4), "random5": RANDOM_5}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", MATE_CASES)
def test_mates_are_the_extensions_of_the_square_on_the_rows(name, threads):
    # the same count and flag as count_extensions of {l} on the rows:
    # min(threshold, total) against the unreduced branch sum
    grid = MATE_CASES[name]
    n = len(grid)
    rows = validate_mols([L(grid)], partition_rows(n))
    options, tables, _ = _cover_plan(rows)
    every = (1 << len(options)) - 1
    covers = sum(_cover_branch(*tables, 1, every, None, t) for t, cols in enumerate(options) if cols[0] == 0)
    total = math.factorial(n) * covers
    for threshold in [None] + sorted({1, 2, 7, total // 3, total // 2, total - 1, total, total + 1} - {0, -1}):
        opts = SearchOptions(stop_threshold=threshold, threads=threads)
        res = count_mates(L(grid), opts)
        assert res == count_extensions(rows, opts)
        stopped = threshold is not None and threshold <= total
        assert res.value.count == (threshold if stopped else total)
        assert res.exact_flag is not stopped
    if name == "random5":
        assert len(_autotopisms(grid, True)) == 1 and total == 0


def test_the_cover_plan_takes_orbits_only_for_one_square_on_the_rows():
    def plain(options):
        return [(t, 1) for t, cols in enumerate(options) if cols[0] == 0]

    # Z2^3 on the rows: its 48 transversals through cell 0 in 2 orbits
    _, _, branches = _cover_plan(validate_mols([L(Z2_CUBED)], partition_rows(8)))
    assert [size for _, size in branches] == [24, 24]
    # a square gerechte for the boxes: some of its maps send an option to a
    # transversal that misses a box, so its orbits are not the plan's
    boxed = [[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]
    system = validate_mols([L(boxed)], partition_boxes(4))
    options, _, branches = _cover_plan(system)
    assert branches == plain(options)
    with pytest.raises(KeyError):
        _cover_orbits(boxed, options)
    labels = partition_boxes(4).labels
    brute = [m for m in oracles.mates(boxed) if oracles.gerechte(m, labels)]
    assert count_extensions(system).value.count == len(brute)
    # the empty system on the rows has no square to take maps from
    options, _, branches = _cover_plan(validate_mols([], partition_rows(4)))
    assert branches == plain(options) and len(branches) == 6


def test_a_cut_short_finder_only_splits_orbits(monkeypatch):
    # fewer maps give finer orbits and the same counts
    import molscope.search as search

    grid = _isotope(Z2_CUBED, 3)
    want = (384, 70272)
    splits = []
    for work in (search.AUTOTOPISM_WORK, 2000, 300, 0):
        monkeypatch.setattr(search, "AUTOTOPISM_WORK", work)
        maps = _autotopisms(grid, False)
        if maps:
            _check_maps(grid, maps, False)
        splits.append(len(_orbits(range(8), [b for _, b, _ in maps])))
        assert enumerate_transversals(L(grid)).value.count == want[0]
        assert count_transversal_partitions(L(grid)).value.count == want[1]
    assert splits[0] == 1 and splits[-1] == 8 and splits == sorted(splits)


ORDER_16 = {"Z2^4": cayley(2, 2, 2, 2), "Z4xZ4": cayley(4, 4), "Z16": cayley(16), "random16": _random_latin(16, 1)}


@pytest.mark.parametrize("name", ORDER_16)
def test_autotopism_finder_is_cheap_at_order_16(name):
    grid = ORDER_16[name]
    for fix_cell in (False, True):
        seconds = []
        for _ in range(3):
            started = time.process_time()
            maps = _autotopisms(grid, fix_cell)
            seconds.append(time.process_time() - started)
        assert min(seconds) < 0.2
        _check_maps(grid, maps, fix_cell)


def test_transversal_threshold_at_order_16():
    # one branch stands for all 16 columns of row 0, so a million
    # transversals of Z2^4 take one capped branch of 62,500
    res = enumerate_transversals(L(cayley(2, 2, 2, 2)), SearchOptions(stop_threshold=10**6))
    assert res.value.count == 10**6 and not res.exact_flag


# --------------------------------------------------------------------------
# symmetry reduction: counts fix the new column's first row and multiply by n!


FIRST5 = next(iter_latin_direct(5))  # a square of order 5 with no mate
Z5_TWICE = [[(2 * i + j) % 5 for j in range(5)] for i in range(5)]  # a mate of Z5
REDUCED_CASES = (
    [(f"{name}-w{s.k + 3}", s) for name, s in SYSTEMS_4]
    + [
        ("n1-rows", _system([], partition_rows(1))),
        ("n1-rows-w4", _system([[[0]]], partition_rows(1))),
        ("n2-rows", _system([], partition_rows(2))),
        ("n2-rows-w4", _system([[[0, 1], [1, 0]]], partition_rows(2))),
        ("n3-rows", _system([], partition_rows(3))),
        ("n3-rows-w4", _system([Z3], partition_rows(3))),
        ("n3-classes", _system([], partition_from_square(Square(Z3)))),
        ("n4-rows-Z4", _system([Z4], partition_rows(4))),
        ("n4-boxes-w4", _system([[[0, 1, 2, 3], [2, 3, 0, 1], [1, 0, 3, 2], [3, 2, 1, 0]]], partition_boxes(4))),
        ("n5-rows-Z5", _system([Z5], partition_rows(5))),
        ("n5-rows-first", _system([FIRST5], partition_rows(5))),
        ("n5-classes-Z5", _system([Z5_TWICE], partition_from_square(Square(Z5)))),
    ]
)


@pytest.mark.parametrize("name, a", REDUCED_CASES, ids=[name for name, _ in REDUCED_CASES])
def test_reduced_count_equals_enumeration(name, a):
    want = len(list(iter_extensions(a)))
    for threads in (None, 2):
        res = count_extensions(a, SearchOptions(threads=threads))
        assert res == count_extensions(a) and res.value.count == want and res.exact_flag
        for threshold in (1, max(want // 2, 1), max(want, 1), want + 1):
            stop = count_extensions(
                a, SearchOptions(stop_threshold=threshold, threads=threads)
            )
            stopped = threshold <= want
            assert stop.value.count == (threshold if stopped else want)
            assert stop.exact_flag is not stopped


def test_reduced_cases_are_not_trivial():
    counts = {name: count_extensions(a).value.count for name, a in REDUCED_CASES}
    assert counts["n5-rows-Z5"] == 360 and counts["n5-rows-first"] == 0
    assert counts["n1-rows"] == counts["n1-rows-w4"] == 1
    assert counts["n2-rows"] == 2 and counts["n2-rows-w4"] == 0
    assert counts["n5-classes-Z5"] > 0
    assert {s.k for _, s in REDUCED_CASES} == {0, 1, 2}


RELABEL_CASES = [s for _, s in REDUCED_CASES if s.k > 0]


@settings(max_examples=40, deadline=None)
@given(index=st.integers(0, len(RELABEL_CASES) - 1), data=st.data())
def test_extension_count_invariant_under_symbol_relabelling(index, data):
    # the fact the reduction rests on: permuting the symbols of one square
    # of the system keeps its extension count
    system = RELABEL_CASES[index]
    b = data.draw(st.integers(0, system.k - 1))
    perm = data.draw(st.permutations(range(system.order)))
    grids = [s.grid for s in system.squares]
    grids[b] = [[perm[x] for x in row] for row in grids[b]]
    relabelled = _system(grids, system.partition)
    assert count_extensions(relabelled) == count_extensions(system)


# (partition, kmax): order 1 extends by 1 at every level, and order 2 has
# no system at level 2
SYSTEM_PARTITIONS = {
    "rows1": (partition_rows(1), 3),
    "rows2": (partition_rows(2), 2),
    "rows3": (partition_rows(3), 2),
    "classes3": (partition_from_square(Square(Z3)), 2),
    "rows4": (partition_rows(4), 2),
    "boxes4": (partition_boxes(4), 2),
    "classes4": (partition_from_square(Square(K4)), 2),
}


@pytest.mark.parametrize("name", SYSTEM_PARTITIONS)
def test_census_matches_unreduced_walk(name):
    p, kmax = SYSTEM_PARTITIONS[name]
    want = [dict() for _ in range(kmax + 1)]
    for squares, ext in oracles.all_systems(p.order, p.labels, kmax):
        hist = want[len(squares)]
        hist[ext] = hist.get(ext, 0) + 1
    got = extension_census(p, kmax)
    assert got == want
    assert [list(h) for h in got] == [sorted(h) for h in want]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_max_extensions_matches_unreduced_walk(n):
    systems = list(oracles.all_systems(n, partition_rows(n).labels, 2))
    for k in range(3):
        best, best_sys = -1, None
        for squares, ext in systems:
            if len(squares) == k and ext > best:
                best, best_sys = ext, squares
        res, witness = max_extensions(n, k)
        if best_sys is None:
            assert res.value.count == 0 and witness is None
        else:
            assert res.value.count == best and res.exact_flag
            assert [s.grid for s in witness.squares] == list(best_sys)


FIRST_ROW_5 = list(itertools.takewhile(lambda g: g[0] == tuple(range(5)), iter_latin_direct(5)))


def test_count_mols_5_2_by_transversal_partitions():
    # A second route: the first squares come from the direct engine and
    # their mates from partition counts.  It shares _cover_branch with
    # count_mols, so the mate counts are also checked against the direct
    # engine alone (test_mates_match_direct_engine_order_5).  The pairs whose
    # first square has first row 0..4, summed over those squares as
    # partitions * 5! (symbol maps of the mate), times 5! (relabellings of
    # the first square).  iter_latin_direct is lexicographic, so those
    # squares come first.
    parts = [count_transversal_partitions(L(g)).value.count for g in FIRST_ROW_5]
    assert len(parts) == 161280 // 120
    route = sum(parts) * math.factorial(5) ** 2
    assert route == count_mols(5, 2).value.count == 6220800


def test_mates_match_direct_engine_order_5(monkeypatch):
    # every 17th order-5 square with first row 0..4: the cover against the
    # direct walk with the square's symbol classes as regions
    sample = [L(g) for g in FIRST_ROW_5[::17]]
    covers = [count_mates(l).value.count for l in sample]
    _forbid_all_but_direct(monkeypatch)
    assert len(sample) == 80 and set(covers) == {0, 360}
    assert covers == [gerechte_mates_direct(l) for l in sample]


@pytest.mark.parametrize("dims, mates", [((8,), 0), ((2, 2, 2), 70272 * math.factorial(8))])
def test_mates_of_order_8_tables(dims, mates):
    # Z8 has no transversal; Z2^3 has 70,272 transversal partitions
    res = count_mates(L(cayley(*dims)))
    assert res.value.count == mates and res.exact_flag


def test_count_mols_order_6(monkeypatch):
    # OEIS A002860: 812,851,200 Latin squares of order 6
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "6")
    assert count_mols(6, 1) == ExtensionCount(Exact(812851200), True)


# --------------------------------------------------------------------------
# system iteration, maximisation, census


def test_max_extensions_small():
    res, witness = max_extensions(3, 1)
    assert res.value.count == 6
    assert witness is not None and witness.k == 1
    # the lexicographically first 1-system achieving 6 is the cyclic table
    assert witness.squares[0].grid == tuple(tuple(r) for r in Z3)

    res0, w0 = max_extensions(3, 0)
    assert res0.value.count == 12
    assert w0 is not None and w0.k == 0


@pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 1)])
def test_max_extensions_matches_system_iteration(n, k):
    # the oracle's k-systems come in lexicographic order of their grids, so
    # the first one with the most extensions is the witness
    best, best_sys = -1, None
    for squares, ext in oracles.all_systems(n, partition_rows(n).labels, k):
        if len(squares) == k and ext > best:
            best, best_sys = ext, squares
    res, witness = max_extensions(n, k)
    assert res.value.count == best
    assert [s.grid for s in witness.squares] == list(best_sys)
    assert witness.partition == partition_rows(n)


@pytest.mark.parametrize("n, k, count", [(3, 1, 6), (4, 0, 576), (4, 1, 48), (4, 2, 24)])
def test_max_extensions_witness_recounts_to_the_maximum(n, k, count):
    # the witness carries the partition the census walked, so it recounts
    res, witness = max_extensions(n, k)
    assert res.value.count == count_extensions(witness).value.count == count


MAX_EXT_5 = [(161280, []),
             (360, ["0123412340234013401240123"]),
             (240, ["0123412340234013401240123", "0123423401401231234034012"]),
             (120, ["0123412340234013401240123", "0123423401401231234034012",
                    "0123434012123404012323401"])]


def test_order_5_anchors(monkeypatch):
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "5")
    for k, (count, grids) in enumerate(MAX_EXT_5):
        res, witness = max_extensions(5, k)
        assert res == ExtensionCount(Exact(count), True)
        assert ["".join(map(str, itertools.chain(*s.grid))) for s in witness.squares] == grids
    assert extension_census(partition_rows(5), 3) == [
        {161280: 1}, {0: 144000, 360: 17280}, {240: 6220800}, {120: 1492992000}]
    for n in range(1, 6):
        census = extension_census(partition_rows(n), 3)
        assert [sum(h.values()) for h in census] == [
            count_mols(n, k).value.count for k in range(4)]


def test_census_builds_no_per_system_array(monkeypatch):
    # the census and the maximum come from one walk of the chain tree: no
    # per-system extension count, column append or column-walk plan
    import molscope.search as search

    def forbidden(*args, **kwargs):
        raise AssertionError("the census searched one system")

    for name in ("count_extensions", "iter_extensions"):
        monkeypatch.setattr(search, name, forbidden)
    monkeypatch.setattr(NearlyOrthArray, "with_column", forbidden)
    assert extension_census(partition_boxes(4), 2) == [{288: 1}, {0: 192, 24: 96}, {0: 2304}]
    res, witness = max_extensions(4, 2)
    assert res.value.count == 24
    assert [s.grid for s in witness.squares] == [
        ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
        ((0, 1, 2, 3), (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2))]


def test_no_engine_builds_an_array(monkeypatch, cli, tmp_path):
    # the engines read validated systems; the array types are never built
    def forbidden(*args, **kwargs):
        raise AssertionError("an engine built an array")

    monkeypatch.setattr(NearlyOrthArray, "__init__", forbidden)
    monkeypatch.setattr(NearlyOrthArray, "with_column", forbidden)
    z3 = validate_mols([L(Z3)], partition_rows(3))
    assert len(list(iter_extensions(z3))) == count_extensions(z3).value.count == 6
    assert len(list(iter_transversals(L(K4)))) == 8
    assert len(list(iter_transversal_partitions(L(K4)))) == 2
    assert count_mates(L(K4)).value.count == 48
    assert count_mols(4, 2).value.count == 6912
    assert extension_census(partition_boxes(4), 1)[1] == {0: 192, 24: 96}
    assert max_extensions(4, 1)[0].value.count == 48
    for argv in (["count", "extensions", "--square", "cayley:3", "--emit-witnesses", str(tmp_path)],
                 ["count", "sudoku", "--n", "4"],
                 ["certify", "gerechte", "--n", "4", "--partition", "boxes:4"]):
        assert cli(argv)[0] == 0, argv


def test_extension_engines_require_a_partition():
    plain = validate_mols([L(Z3)])
    with pytest.raises(InvalidParams, match="no partition"):
        count_extensions(plain)
    with pytest.raises(InvalidParams, match="no partition"):
        next(iter_extensions(plain))


def test_max_extensions_matches_census():
    census = extension_census(partition_rows(3), 1)
    assert census[0] == {12: 1}
    assert census[1] == {6: 12}
    res, _ = max_extensions(3, 1)
    assert res.value.count == max(census[1])


def test_census_sudoku():
    census = extension_census(partition_boxes(4), 1)
    assert census[0] == {288: 1}
    assert set(census[1]) == {0, 24}
    assert sum(census[1].values()) == 288
    assert sum(c * m for c, m in census[1].items()) == 2304


def test_census_symbol_classes_order3():
    p = partition_from_square(Square(Z3))
    census = extension_census(p, 1)
    assert census[0] == {6: 1}
    assert census[1] == {0: 6}


# --------------------------------------------------------------------------
# limits


def _lower_limits(monkeypatch, n):
    """Lower every default order limit to ``n`` (MOLSCOPE_LIMIT_N only
    raises them)."""
    import molscope.construct as construct_mod
    import molscope.search as search

    monkeypatch.delenv("MOLSCOPE_LIMIT_N", raising=False)
    monkeypatch.setattr(search, "DEFAULT_ENUM_LIMIT", n)
    monkeypatch.setattr(search, "DEFAULT_MOLS_LIMIT", n)
    monkeypatch.setattr(construct_mod, "DEFAULT_CONSTRUCT_LIMIT", n)


def test_order_limits(monkeypatch):
    with pytest.raises(LimitExceeded):
        count_mols(6, 1)
    with pytest.raises(LimitExceeded):
        max_extensions(6, 1)
    _lower_limits(monkeypatch, 3)
    with pytest.raises(LimitExceeded):
        count_mols(4, 1)
    with pytest.raises(LimitExceeded):
        enumerate_transversals(L(Z4))
    assert count_mols(3, 1).value.count == 12
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "bogus")
    with pytest.raises(InvalidParams):
        count_mols(3, 1)


# every exhaustive walk, given an order-4 input under a limit of 3
EXHAUSTIVE_WALKS = {
    "enumerate_transversals": lambda: enumerate_transversals(L(Z4)),
    "count_transversal_partitions": lambda: count_transversal_partitions(L(Z4)),
    "count_extensions": lambda: count_extensions(validate_mols([L(Z4)], partition_rows(4))),
    "count_mates": lambda: count_mates(L(Z4)),
    "count_mols": lambda: count_mols(4, 1),
    "extension_census": lambda: extension_census(partition_rows(4), 1),
    "max_extensions": lambda: max_extensions(4, 1),
    # no order-2 or order-3 square has 1.3^(m^2) mates, so the walk reaches 4
    "construct_for_constant": lambda: construct_for_constant(1.3, search_limit=4),
}


@pytest.mark.parametrize("walk", list(EXHAUSTIVE_WALKS))
def test_every_exhaustive_walk_refuses_an_order_past_its_limit(monkeypatch, walk):
    _lower_limits(monkeypatch, 3)
    started = time.monotonic()
    with pytest.raises(LimitExceeded) as err:
        EXHAUSTIVE_WALKS[walk]()
    assert time.monotonic() - started < 0.5
    assert "at order 4 exceeds the configured limit 3" in str(err.value)
    if walk == "count_mates":
        assert str(err.value).startswith("extension counting")


def test_the_limit_variable_only_raises_limits(monkeypatch):
    # raised for the census walks, it leaves the higher limits where they are
    import molscope.search as search

    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "6")
    assert search.order_limit(search.DEFAULT_MOLS_LIMIT) == 6
    assert search.order_limit(search.DEFAULT_ENUM_LIMIT) == 16
    assert cayley_table(GroupSpec([8])).order == 8
    assert enumerate_transversals(L(cayley(7))).value.count == 133


def test_invalid_search_params():
    with pytest.raises(InvalidParams):
        count_mols(0, 1)
    with pytest.raises(InvalidParams):
        count_mols(3, -1)
    with pytest.raises(InvalidParams):
        extension_census(partition_rows(3), -1)


# --------------------------------------------------------------------------
# direct-engine iteration sanity


def test_iter_latin_direct_lexicographic_and_latin():
    grids = list(iter_latin_direct(3))
    assert len(grids) == 12
    flat = [tuple(x for row in g for x in row) for g in grids]
    assert flat == sorted(flat)
    for g in grids:
        assert oracles.is_latin(g)


def test_order4_mate_distribution():
    # order-4 mate counts take exactly the values 0 and 48
    values = {}
    squares = [validate_latin(Square(g)) for g in iter_latin_direct(4)]
    for l in squares:
        m = count_mates(l).value.count
        values[m] = values.get(m, 0) + 1
    assert values == {0: 432, 48: 144}
    # the independent direct engine agrees on a sample
    for l in squares[:12] + squares[-12:]:
        assert gerechte_mates_direct(l) == count_mates(l).value.count
