import pytest

from molscope.core import (
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
from molscope.errors import (
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

Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z4 = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
K4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
# a mate of Z3 (columns shifted)
Z3_MATE = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]


def test_square_accepts_and_freezes():
    s = Square(Z3)
    assert s.order == 3
    assert s.grid[1] == (1, 2, 0)
    assert s.value(2, 0) == 2
    assert s[0] == (0, 1, 2)
    with pytest.raises(AttributeError):
        s.grid = ()


def test_square_shape_errors():
    with pytest.raises(MalformedSquare):
        Square([])
    with pytest.raises(MalformedSquare):
        Square([[0, 1], [0]])
    with pytest.raises(MalformedSquare):
        Square([[0, 3], [1, 0]])  # symbol out of range
    with pytest.raises(MalformedSquare):
        Square([[0, -1], [1, 0]])


def test_validate_latin_ok():
    l = validate_latin(Square(Z3))
    assert isinstance(l, LatinSquare)
    assert l.order == 3
    assert l.value(1, 1) == 2


def test_violation_row_before_column():
    # row 1 has a duplicate AND column 0 has one; the row must win
    bad = Square([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    with pytest.raises(ViolationAt) as e:
        validate_latin(bad)
    assert (e.value.kind, e.value.index, e.value.symbol) == ("row", 1, 1)


def test_violation_column_identity():
    # rows all fine, column 1 repeats symbol 1
    bad = Square([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ViolationAt) as e:
        validate_latin(bad)
    assert e.value.kind == "column"
    # first offending column in increasing order: col 1? col 2 also bad;
    # scan order says the smaller index is reported
    assert e.value.index == 1
    assert e.value.symbol == 1
    assert "column 2" in str(e.value)  # 1-based message


def test_violation_scan_order_first_row_hit():
    bad = Square([[0, 0, 1], [1, 1, 2], [2, 2, 0]])
    with pytest.raises(ViolationAt) as e:
        validate_latin(bad)
    assert (e.value.kind, e.value.index, e.value.symbol) == ("row", 0, 0)


def test_region_partition_validation():
    p = partition_rows(3)
    assert p.region_of(2, 1) == 2
    assert p.cells_of(1) == ((1, 0), (1, 1), (1, 2))
    assert p.as_square().grid == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    with pytest.raises(MalformedPartition):
        RegionPartition(2, [0, 0, 0, 1])  # region sizes 3 and 1
    with pytest.raises(MalformedPartition):
        RegionPartition(2, [0, 1, 2, 1])  # label out of range
    with pytest.raises(MalformedPartition):
        RegionPartition(2, [0, 1, 0])  # wrong length


def test_partition_boxes():
    p = partition_boxes(4)
    assert p.region_of(0, 0) == 0
    assert p.region_of(0, 2) == 1
    assert p.region_of(2, 0) == 2
    assert p.region_of(3, 3) == 3
    with pytest.raises(NotPerfectSquare):
        partition_boxes(3)


def test_partition_from_square():
    # reading the "rows" pattern gives exactly partition_rows
    rows_pattern = Square([[i] * 3 for i in range(3)])
    assert partition_from_square(rows_pattern) == partition_rows(3)
    # a Latin square's symbol classes form a valid partition
    p = partition_from_square(Square(Z3))
    assert p.cells_of(0) == ((0, 0), (1, 2), (2, 1))
    with pytest.raises(UnbalancedSymbols):
        partition_from_square(Square([[0, 0], [0, 1]]))


def test_transversal_checks():
    l = validate_latin(Square(Z3))
    diag = [(0, 0), (1, 1), (2, 2)]
    assert is_transversal(l, diag)
    t = Transversal.of(l, diag)
    assert t.sorted_cells() == ((0, 0), (1, 1), (2, 2))
    assert not is_transversal(l, [(0, 0), (1, 0), (2, 2)])  # column repeat
    assert not is_transversal(l, [(0, 0), (1, 1)])  # wrong size
    assert not is_transversal(l, [(0, 0), (1, 1), (3, 2)])  # out of range
    # symbol repeat: cells (0,0)=0,(1,2)=0 share the symbol
    assert not is_transversal(l, [(0, 0), (1, 2), (2, 1)])
    with pytest.raises(NotATransversal):
        Transversal.of(l, [(0, 0), (1, 0), (2, 2)])
    with pytest.raises(NotATransversal):
        Transversal(3, [(0, 0), (1, 1)])


def test_orthogonality():
    a = validate_latin(Square(Z3))
    b = validate_latin(Square(Z3_MATE))
    assert check_orthogonal(a, b)
    assert not check_orthogonal(a, a)
    with pytest.raises(OrderMismatch):
        check_orthogonal(a, validate_latin(Square(Z4)))


def test_gerechte_check():
    l = validate_latin(Square(Z3))
    assert validate_gerechte(l, partition_rows(3))
    classes = partition_from_square(Square(Z3_MATE))
    assert validate_gerechte(l, classes)  # mate <=> balanced on classes
    assert not validate_gerechte(l, partition_from_square(Square(Z3)))
    with pytest.raises(OrderMismatch):
        validate_gerechte(l, partition_rows(4))


def test_mols_system_happy_path():
    a = validate_latin(Square(Z3))
    b = validate_latin(Square(Z3_MATE))
    sys = validate_mols([a, b])
    assert sys.k == 2 and sys.order == 3 and sys.partition is None
    sys2 = validate_mols([a], partition_rows(3))
    assert sys2.partition == partition_rows(3)
    empty = validate_mols([], order=5)
    assert empty.k == 0 and empty.order == 5


def test_mols_system_error_order():
    a = validate_latin(Square(Z3))
    b = validate_latin(Square(Z3_MATE))
    # size cap fires before any orthogonality check: 3 squares of order 3
    # with a non-orthogonal pair must still raise TooManySquares
    with pytest.raises(TooManySquares) as e:
        validate_mols([a, a, b])
    assert (e.value.k, e.value.n) == (3, 3)
    with pytest.raises(NotOrthogonal) as e2:
        validate_mols([a, a])
    assert (e2.value.i, e2.value.j) == (0, 1)
    # first bad pair in lexicographic order: (0,1) not (1,2)
    c4 = validate_latin(Square(Z4))
    k4 = validate_latin(Square(K4))
    with pytest.raises(NotOrthogonal) as e3:
        validate_mols([c4, c4, k4])
    assert (e3.value.i, e3.value.j) == (0, 1)
    with pytest.raises(NotGerechte) as e4:
        validate_mols([a], partition_from_square(Square(Z3)))
    assert e4.value.i == 0
    # an order mismatch names the culprit
    with pytest.raises(OrderMismatch, match="^the partition has order 4, but the system has order 3$"):
        validate_mols([a], partition_rows(4))
    with pytest.raises(OrderMismatch, match="^square 2 has order 4, but the system has order 3$"):
        validate_mols([a, c4])
    with pytest.raises(OrderMismatch):
        validate_mols([], None)


def test_mols_system_order_one_is_permissive():
    one = validate_latin(Square([[0]]))
    sys = validate_mols([one], order=1)
    assert sys.k == 1  # k = n allowed only in the degenerate order-1 case


def test_mols_system_direct_constructor():
    a = validate_latin(Square(Z3))
    with pytest.raises(TooManySquares):
        MolsSystem(3, (a, a, a))
