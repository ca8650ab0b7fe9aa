import math
import time
from fractions import Fraction
from itertools import islice

import pytest

import oracles
from molscope.construct import (
    GroupSpec,
    MateCertificate,
    cayley_table,
    construct_for_constant,
    kronecker,
    power,
    power_exponent,
    power_mate_bound,
    product_mate_bound,
    product_mate_bound_exact,
    translate_mates,
)
from molscope.core import (
    LatinSquare,
    Square,
    Transversal,
    check_orthogonal,
    is_transversal,
    validate_latin,
)
from molscope.errors import (
    InvalidParams,
    LimitExceeded,
    NotATransversal,
    NotFoundWithinLimit,
)
from molscope.search import count_mates, iter_latin_direct, iter_transversals


def test_group_spec_arithmetic():
    g = GroupSpec([2, 3])
    assert g.order == 6
    es = g.elements()
    assert es[0] == (0, 0) and es[-1] == (1, 2)
    assert es == sorted(es)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.index_of((1, 0)) == 3
    assert GroupSpec([]).order == 1
    with pytest.raises(InvalidParams):
        GroupSpec([1, 3])
    with pytest.raises(InvalidParams):
        GroupSpec([0])


def test_cayley_tables():
    z3 = cayley_table(GroupSpec([3]))
    assert z3.grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    k4 = cayley_table(GroupSpec([2, 2]))
    assert k4.grid == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def test_kronecker_orders_and_latin():
    a = cayley_table(GroupSpec([2]))
    b = cayley_table(GroupSpec([3]))
    prod = kronecker(a, b)
    assert prod.order == 6
    assert oracles.is_latin(prod.grid)


def test_kronecker_of_group_tables_is_product_group_table():
    a = cayley_table(GroupSpec([3]))
    prod = kronecker(a, a)
    direct = cayley_table(GroupSpec([3, 3]))
    assert prod.grid == direct.grid


def test_power():
    z2 = cayley_table(GroupSpec([2]))
    assert power(z2, 1).grid == z2.grid
    p = power(z2, 3)
    assert p.order == 8
    assert p.grid == cayley_table(GroupSpec([2, 2, 2])).grid
    with pytest.raises(InvalidParams):
        power(z2, 0)


def test_construct_order_limit(monkeypatch):
    import molscope.construct as construct_mod

    z8 = GroupSpec([8])
    monkeypatch.delenv("MOLSCOPE_LIMIT_N", raising=False)
    with monkeypatch.context() as m:
        m.setattr(construct_mod, "DEFAULT_CONSTRUCT_LIMIT", 7)
        with pytest.raises(LimitExceeded):
            cayley_table(z8)
    big = cayley_table(GroupSpec([8]))
    with pytest.raises(LimitExceeded):
        power(big, 3)  # 512 > default 64
    # the exponent bound is exact: 2^6 = 64 fits, 2^7 does not
    z2 = cayley_table(GroupSpec([2]))
    assert power(z2, 6).order == 64
    with pytest.raises(LimitExceeded, match=r"order 2\^7 exceeds"):
        power(z2, 7)
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "128")
    assert power(z2, 7).order == 128


# --------------------------------------------------------------------------
# translate mates


def test_translate_mates_z3():
    g = GroupSpec([3])
    table = cayley_table(g)
    t = Transversal.of(table, [(0, 0), (1, 1), (2, 2)])
    partition, mates = translate_mates(g, t)
    # the tiling is a partition into transversals containing the original
    for h in range(3):
        assert is_transversal(table, partition.cells_of(h))
    assert frozenset(t.cells) in {
        frozenset(partition.cells_of(h)) for h in range(3)
    }
    emitted = list(mates)
    assert len(emitted) == math.factorial(3)
    for m in emitted:
        assert check_orthogonal(table, m)
    flat = [tuple(x for row in m.grid for x in row) for m in emitted]
    assert flat == sorted(flat)
    assert len(set(flat)) == 6


def test_translate_mates_klein_four():
    g = GroupSpec([2, 2])
    table = cayley_table(g)
    # find a transversal of the Klein table: (0,0),(1,1),(2,3),(3,2)?
    cells = [(0, 0), (1, 2), (2, 3), (3, 1)]
    assert is_transversal(table, cells)
    t = Transversal.of(table, cells)
    partition, mates = translate_mates(g, t)
    emitted = list(islice(mates, 5))
    assert len(emitted) == 5
    for m in emitted:
        assert check_orthogonal(table, m)


@pytest.mark.parametrize("factors", [[3], [2, 2], [2, 4], [3, 3], [2, 2, 2], [5]])
def test_translate_mates_shifts_by_group_addition(factors):
    # shift h moves cell (i, j) of the transversal to (i, j + h), read off
    # the group's own arithmetic rather than its table
    g = GroupSpec(factors)
    table = cayley_table(g)
    cells = next(iter_transversals(table))
    partition, _ = translate_mates(g, Transversal.of(table, cells))
    elems = g.elements()
    for i, j in cells:
        for h, shift in enumerate(elems):
            assert partition.region_of(i, g.index_of(g.add(elems[j], shift))) == h


def test_translate_mates_rejects_non_transversal():
    g = GroupSpec([3])
    with pytest.raises(NotATransversal):
        translate_mates(g, Transversal(3, [(0, 0), (1, 0), (2, 0)]))


def test_translate_mates_count_matches_engine():
    # every mate of the cyclic table arises from its single partition
    g = GroupSpec([3])
    table = cayley_table(g)
    t = Transversal.of(table, [(0, 0), (1, 1), (2, 2)])
    _, mates = translate_mates(g, t)
    assert len(list(mates)) == count_mates(table).value.count


# --------------------------------------------------------------------------
# certified arithmetic


def test_product_bound_exact_frozen_value():
    assert product_mate_bound_exact(3, 3, 6, 6) == 16930529280
    assert product_mate_bound_exact(3, 3, 6, 6) == oracles.product_bound_exact(3, 3, 6, 6)
    assert 16930529280 // math.factorial(9) == 46656
    assert 16930529280 % math.factorial(9) == 0


def test_product_bound_log_matches_exact():
    exact = product_mate_bound_exact(3, 3, 6, 6)
    logv = product_mate_bound(3, 3, math.log(6), math.log(6))
    assert logv == pytest.approx(math.log(exact), rel=1e-12)


def test_product_bound_inf_propagation():
    assert product_mate_bound(3, 3, float("-inf"), math.log(6)) == float("-inf")
    assert product_mate_bound(2, 2, 0.0, 0.0) == pytest.approx(math.log(3))
    with pytest.raises(InvalidParams):
        product_mate_bound(0, 3, 0.0, 0.0)
    with pytest.raises(InvalidParams):
        product_mate_bound_exact(3, 3, -1, 6)


def test_power_exponent():
    assert power_exponent(3, 1) == 1
    assert power_exponent(3, 2) == 10
    assert power_exponent(3, 3) == 91
    assert power_exponent(2, 4) == 85
    with pytest.raises(InvalidParams):
        power_exponent(1, 2)
    with pytest.raises(InvalidParams):
        power_exponent(3, 0)


def test_power_mate_bound():
    assert power_mate_bound(3, math.log(6), 2) == pytest.approx(10 * math.log(6))
    assert power_mate_bound(3, 0.0, 4) == 0.0


def test_power_recursion_chain():
    # the product bound applied to (m^k, m) dominates the next power bound
    for m in (2, 3):
        for q in (1, 6):
            logq = math.log(q)
            for k in range(1, 5):
                lhs = product_mate_bound(m**k, m, power_mate_bound(m, logq, k), logq)
                rhs = power_mate_bound(m, logq, k + 1)
                assert lhs >= rhs - 1e-9


# --------------------------------------------------------------------------
# constant-target search


def test_construct_for_constant_small():
    cert = construct_for_constant(1.2, search_limit=3, k=2)
    assert isinstance(cert, MateCertificate)
    assert cert.base.order == 3
    assert cert.base_mates == 6
    assert cert.order == 9
    assert cert.log_lower_bound == pytest.approx(10 * math.log(6))
    assert cert.log_lower_bound >= 81 * math.log(1.2) - 1e-9


def test_construct_for_constant_order4():
    cert = construct_for_constant(1.27, search_limit=4, k=2)
    assert cert.base.order == 4
    assert cert.base_mates == 48
    assert cert.order == 16
    # the certified bound really covers C^(n^2)
    assert cert.log_lower_bound >= 256 * math.log(1.27) - 1e-9


def test_construct_for_constant_not_found():
    with pytest.raises(NotFoundWithinLimit):
        construct_for_constant(1.3, search_limit=4)
    # the default limit walks every order-5 square with row 0 = 0, ..., 4
    with pytest.raises(NotFoundWithinLimit):
        construct_for_constant(1.3)
    with pytest.raises(InvalidParams):
        construct_for_constant(0.0)
    for C in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams):
            construct_for_constant(C)
    with pytest.raises(InvalidParams):
        construct_for_constant(1.1, search_limit=1)


def _first_base(C, limit):
    """The oracle: the first square of the direct walk, over orders 2 to
    ``limit``, whose mate count reaches C^(m^2); None if there is none."""
    for m in range(2, limit + 1):
        need = Fraction(C) ** (m * m)
        threshold = math.ceil(need) if need > 1 else 1
        for g in iter_latin_direct(m):
            mates = count_mates(LatinSquare(Square(g))).value.count
            if mates >= threshold:
                return g, mates
    return None


# every order-3 square has 6 mates (6^(1/9) = 1.2203...), and the order-4
# squares have 0 or 48 (48^(1/16) = 1.2739...): bases of order 3 and 4
@pytest.mark.parametrize("C", [0.5, 1.0, 1.1, 1.2, 1.22, 1.221, 1.25, 1.27, 1.2739, 1.274, 1.3])
@pytest.mark.parametrize("limit", [3, 4])
def test_construct_for_constant_matches_direct_walk(C, limit):
    want = _first_base(C, limit)
    if want is None:
        with pytest.raises(NotFoundWithinLimit):
            construct_for_constant(C, search_limit=limit)
        return
    grid, mates = want
    m = len(grid)
    cert = construct_for_constant(C, search_limit=limit)
    assert cert.base.grid == LatinSquare(Square(grid)).grid
    assert cert.base_mates == mates
    assert cert.log_lower_bound == power_mate_bound(m, math.log(mates), 2)
    assert cert.order == m * m


def test_construct_for_constant_checks_each_order_against_the_census_limit(monkeypatch):
    monkeypatch.delenv("MOLSCOPE_LIMIT_N", raising=False)
    # order 3 qualifies, so the orders past the limit are never reached
    assert construct_for_constant(1.1, search_limit=7).base.order == 3
    # no square up to order 5 qualifies, and order 6 is past the limit
    started = time.monotonic()
    with pytest.raises(LimitExceeded, match="at order 6 exceeds the configured limit 5"):
        construct_for_constant(1.3, search_limit=6)
    assert time.monotonic() - started < 1.0


def test_construct_for_constant_trivial_target():
    cert = construct_for_constant(1.0, search_limit=3, k=1)
    assert cert.base_mates >= 1
    assert cert.log_lower_bound >= 0.0
