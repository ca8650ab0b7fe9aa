import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molscope.arrays import (
    CellProfile,
    NearlyOrthArray,
    OrthArray,
    cell_profile,
    coordinate_columns,
    vectors_orthogonal,
)
from molscope.core import (
    RegionPartition,
    Square,
    partition_boxes,
    partition_from_square,
    partition_rows,
    validate_latin,
    validate_mols,
)
from molscope.errors import (
    InvalidNOA,
    InvalidOA,
    InvalidParams,
    LengthMismatch,
)
from molscope.search import count_extensions, iter_extensions, iter_latin_direct

Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z3_MATE = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


def _sys(grids, partition=None):
    return validate_mols([validate_latin(Square(g)) for g in grids], partition)


def _noa(system):
    """The array of a system with a partition: rows [i, j, region, symbols...]."""
    n = system.order
    return NearlyOrthArray(n, [[i, j, system.partition.labels[i * n + j]]
                               + [s.grid[i][j] for s in system.squares]
                               for i in range(n) for j in range(n)])


def test_coordinate_columns():
    v1, v2 = coordinate_columns(2)
    assert v1 == (0, 0, 1, 1)
    assert v2 == (0, 1, 0, 1)


def test_vectors_orthogonal():
    v1, v2 = coordinate_columns(3)
    assert vectors_orthogonal(v1, v2)
    assert not vectors_orthogonal(v1, v1)
    with pytest.raises(LengthMismatch):
        vectors_orthogonal((0, 1), (0, 1, 1, 0))
    with pytest.raises(InvalidParams):
        vectors_orthogonal((0, 1, 0), (0, 1, 1))  # length 3 not a square
    with pytest.raises(InvalidParams):
        vectors_orthogonal((0, 5, 0, 1), (0, 1, 1, 0))  # symbol out of range


def test_oa_validation():
    v1, v2 = coordinate_columns(2)
    rows = [[v1[l], v2[l]] for l in range(4)]
    assert OrthArray(2, rows).width == 2
    bad = [[v1[l], v1[l]] for l in range(4)]
    with pytest.raises(InvalidOA):
        OrthArray(2, bad)
    with pytest.raises(InvalidOA):
        OrthArray(2, [[0], [0], [1], [1]])  # width 1
    with pytest.raises(InvalidOA):
        OrthArray(2, rows[:3])  # wrong row count


def test_noa_round_trip_and_validation():
    sys = _sys([Z3], partition_from_square(Square(Z3_MATE)))
    a = _noa(sys)
    assert a.width == 4
    # the region and symbol columns read back as the same system
    back = _sys([[a.column(3)[i * 3 : (i + 1) * 3] for i in range(3)]],
                RegionPartition(3, a.column(2)))
    assert back.partition == sys.partition
    assert [s.grid for s in back.squares] == [s.grid for s in sys.squares]

    rows = [list(r) for r in a.rows]
    rows[0][0] = 1  # break the forced first column
    with pytest.raises(InvalidNOA):
        NearlyOrthArray(3, rows)

    rows = [list(r) for r in a.rows]
    rows[0][2] = rows[1][2]  # region column stays balanced? no: unbalance it
    # making cell 0's region equal cell 1's leaves region counts 2/4/3 -> bad
    with pytest.raises(InvalidNOA):
        NearlyOrthArray(3, rows)

    rows = [list(r) for r in a.rows]
    rows[0][3], rows[1][3] = rows[1][3], rows[0][3]  # break Latinness of col 4
    with pytest.raises(InvalidNOA):
        NearlyOrthArray(3, rows)


def test_noa_region_column_exempt_from_orthogonality():
    # the rows partition's label column equals the row-index column, which is
    # NOT orthogonal to column 1 -- and must still be accepted
    a = _noa(_sys([Z3], partition_rows(3)))
    assert a.column(2) == a.column(0)


def test_with_column():
    a = _noa(_sys([Z3], partition_rows(3)))
    mate_col = tuple(x for row in Z3_MATE for x in row)
    b = a.with_column(mate_col)
    assert b.width == 5
    with pytest.raises(InvalidNOA):
        a.with_column(tuple(x for row in Z3 for x in row))  # not orthogonal


def _flat(grid):
    return tuple(x for row in grid for x in row)


def _appended(a, x):
    """The full constructor on the rows of ``a`` with ``x`` appended."""
    return NearlyOrthArray(a.order, [row + (v,) for row, v in zip(a.rows, x)])


def _outcome(build):
    try:
        return build().rows
    except Exception as exc:
        return type(exc), str(exc)


K4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
LATIN_4 = [_flat(g) for g in iter_latin_direct(4)]


def _arrays_4():
    """(system, array) pairs of order 4 under rows, boxes and a symbol-class
    partition, with zero, one and two symbol columns."""
    out = []
    for p in (partition_rows(4), partition_boxes(4), partition_from_square(Square(K4))):
        system = validate_mols([], p)
        a = _noa(system)
        out.append((system, a))
        for _ in range(2):
            x = next(iter_extensions(system), None)
            if x is None:
                break
            system = _sys([*(s.grid for s in system.squares), [x[i * 4 : (i + 1) * 4] for i in range(4)]], p)
            a = _appended(a, x)
            out.append((system, a))
    return out


ARRAYS_4 = _arrays_4()


def test_arrays_4_cover_widths():
    assert sorted(a.width for _, a in ARRAYS_4) == [3, 3, 3, 4, 4, 4, 5, 5, 5]


@pytest.mark.parametrize("system, a", ARRAYS_4, ids=[f"w{a.width}-{a.column(2)[:4]}" for _, a in ARRAYS_4])
def test_with_column_equals_full_constructor(system, a):
    cases = list(LATIN_4)  # every Latin column: valid, or failing some pair
    cases += [x[:-1] for x in LATIN_4[:3]]  # too short
    cases += [x[:5] + (4,) + x[6:] for x in LATIN_4[:3]]  # out of range
    cases += [x[:2] + (-1,) + x[3:-1] for x in LATIN_4[:3]]  # short and out of range
    cases.append(a.column(0))  # not orthogonal to a coordinate
    cases.append(a.column(2))  # the region column itself
    cases += [a.column(j) for j in range(3, a.width)]  # an earlier symbol column
    valid = 0
    for x in cases:
        want = _outcome(lambda: _appended(a, x))
        assert _outcome(lambda: a.with_column(x)) == want
        valid += want[0] is not InvalidNOA
    # the valid cases are exactly the extensions the engine counts
    assert valid == count_extensions(system).value.count


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(0, len(ARRAYS_4) - 1),
    square=st.integers(0, len(LATIN_4) - 1),
    edits=st.lists(st.tuples(st.integers(0, 15), st.integers(-1, 4)), max_size=2),
    drop=st.integers(0, 2),
)
def test_with_column_equals_full_constructor_random(index, square, edits, drop):
    _, a = ARRAYS_4[index]
    x = list(LATIN_4[square])
    for l, v in edits:
        x[l] = v
    x = x[: len(x) - drop]
    assert _outcome(lambda: a.with_column(x)) == _outcome(lambda: _appended(a, x))


def test_with_column_rejects_a_long_column():
    _, a = ARRAYS_4[0]
    with pytest.raises(InvalidNOA, match="expected 16 rows, got 17"):
        a.with_column(LATIN_4[0] + (0,))


def test_cell_profiles():
    p = cell_profile(partition_rows(3))
    assert p.r == (2,) * 9 and p.c == (0,) * 9

    p = cell_profile(partition_boxes(4))
    assert p.r == (1,) * 16 and p.c == (1,) * 16

    p = cell_profile(partition_from_square(Square(Z3)))
    assert p.r == (0,) * 9 and p.c == (0,) * 9


def test_cell_profile_invariants():
    with pytest.raises(InvalidParams):
        CellProfile(3, (0,) * 8, (0,) * 9)  # wrong length
    with pytest.raises(InvalidParams):
        CellProfile(3, (2,) * 9, (1,) * 9)  # r + c > n - 1
    ok = CellProfile(3, (1,) * 9, (1,) * 9)
    assert ok.order == 3
