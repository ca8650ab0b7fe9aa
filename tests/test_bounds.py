import math
from fractions import Fraction

import pytest

import oracles
from molscope.arrays import CellProfile
from molscope.bounds import (
    MAX_INTEGRALS,
    BoundEntry,
    _alternating_sum,
    c_beta,
    closed_form_estimate,
    estimate_grid,
    estimate_sweep,
    extension_bound_general,
    extension_bound_mols,
    extension_entries,
    integral_I,
    log_factorial,
    mols_count_bound,
    sudoku_extension_bound,
)
from molscope.errors import InvalidParams, LimitExceeded, NotPerfectSquare

TOL = 1e-9


def values(entries) -> dict:
    """A bound evaluator's entries by name."""
    return {e.name: e.value for e in entries}


# --------------------------------------------------------------------------
# the per-cell integral


@pytest.mark.parametrize(
    "n,d",
    [(2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (10, 3), (10, 10), (50, 7), (1000, 2),
     (100, 30), (1000, 49), (10**4, 36), (1000, 1000), (2, 7), (2.5, 3)],
)
def test_integral_matches_mpmath(n, d):
    assert integral_I(n, d) == pytest.approx(
        float(oracles.integral_I_mp(n, d)), abs=1e-12
    )


@pytest.mark.parametrize("a,d", [(2, 2), (2, 7), (3, 3), (9, 2), (999, 49), (999, 1000)])
def test_the_accelerated_series_is_within_its_remainder_bound(a, d):
    # exact terms: the CVZ sum, the 200-term partial sum, and the bound
    # b_200 on that partial sum's own tail, all as Fractions
    terms = [Fraction(1, a ** (m + 1) * (d * (m + 1) - 1)) for m in range(201)]
    accelerated, remainder = _alternating_sum(terms)
    plain = sum((-1) ** m * b for m, b in enumerate(terms[:200]))
    assert abs(accelerated - plain) <= remainder + terms[200]
    assert remainder < Fraction(1, 10**18) * terms[0]
    # and the float sum that integral_I runs stays within rounding of it
    got, float_remainder = _alternating_sum([float(b) for b in terms])
    assert got == pytest.approx(float(plain), rel=1e-15)
    assert float_remainder == pytest.approx(float(remainder), rel=1e-15)


def test_integral_closed_forms():
    # I(2,2) = log 2 - 2 + pi/2
    assert integral_I(2, 2) == pytest.approx(math.log(2) - 2 + math.pi / 2, abs=TOL)
    # I(2,1) = 2 log 2 - 1
    assert integral_I(2, 1) == pytest.approx(2 * math.log(2) - 1, abs=TOL)


def test_bound_extension_at_order_1000_does_not_read_low():
    # n^2 I_49 at n = 1000; Simpson at 1e-9 read 493830.7327
    assert extension_bound_mols(1000, 47) == pytest.approx(493830.78122243774, abs=1e-6)


def test_integral_domain():
    with pytest.raises(InvalidParams):
        integral_I(1, 2)
    with pytest.raises(InvalidParams):
        integral_I(3, 0)


def test_closed_form_estimate_values():
    # n=2, d=2: log 1 - 2 + 2*1 + 3/2 = 1.5
    assert closed_form_estimate(2, 2) == pytest.approx(1.5, abs=1e-12)
    s = 9.0 ** (-0.5)
    assert closed_form_estimate(10, 2) == pytest.approx(
        math.log(9) - 2 + 2 * s + 1.5 * s, abs=1e-12
    )


def test_closed_form_estimate_domain():
    for bad in [(10, 1), (10, 11), (1.5, 2)]:
        with pytest.raises(InvalidParams):
            closed_form_estimate(*bad)
    # the boundary cases are allowed
    closed_form_estimate(2, 2)
    closed_form_estimate(1000, 1000)


def test_estimate_huge_d_no_overflow():
    val = closed_form_estimate(1000, 1000)
    assert math.isfinite(val)
    assert val > integral_I(1000, 1000) - 2e-9


@pytest.fixture(scope="module")
def estimate_reference():
    """Per point of the full estimate grid: (integral_I, closed-form estimate)."""
    return {(n, d): (integral_I(n, d), closed_form_estimate(n, d))
            for n, d in estimate_grid(1000)}


def test_estimate_dominates_integral_on_grid(estimate_reference):
    assert len(estimate_reference) == 2822
    assert max(full - est for full, est in estimate_reference.values()) <= 2e-9


def _series_part(n, d):
    """sum_{m>=0} (-1)^m a^(-(m+1)) / ((m+1)(d(m+1)-1)) with a = n - 1, summed
    apart from the program: at a = 1 (only n = d = 2 on the grid) it is
    2 (pi/4) - log 2; for a >= 2, 60 terms leave a tail below 2^-60."""
    a = n - 1
    if a == 1:
        assert d == 2
        return math.pi / 2 - math.log(2)
    return math.fsum((-1) ** m / (a ** (m + 1) * (m + 1) * (d * (m + 1) - 1))
                     for m in range(60))


def test_the_estimate_gap_splits_into_two_nonnegative_parts(estimate_reference):
    # closed_form_estimate's theorem, point by point
    for (n, d), (full, est) in estimate_reference.items():
        series = _series_part(n, d)
        sine = (n - 1) ** (-1 / d) * (d + 3 / d - math.pi / math.sin(math.pi / d))
        assert series >= 0 and sine >= 0, (n, d)
        assert series + sine == pytest.approx(est - full, abs=1e-12), (n, d)


def test_estimate_sweep_domain():
    with pytest.raises(InvalidParams):
        estimate_sweep(1)
    assert estimate_grid(1) == []
    assert estimate_grid(3) == [(2, 2), (3, 2), (3, 3)]


# --------------------------------------------------------------------------
# extension bounds


def test_extension_bound_mols_values():
    assert extension_bound_mols(4, 0) == pytest.approx(16 * integral_I(4, 2), abs=TOL)
    assert extension_bound_mols(4, 0) == pytest.approx(9.5279029964118, abs=1e-9)
    assert extension_bound_mols(4, 1) == pytest.approx(7.311722153239566, abs=1e-9)
    assert extension_bound_mols(4, 2) == pytest.approx(5.925548896196619, abs=1e-9)
    with pytest.raises(InvalidParams):
        extension_bound_mols(4, 3)  # k > n-2
    with pytest.raises(InvalidParams):
        extension_bound_mols(1, 0)


def test_general_bound_reduces_to_plain_for_row_regions():
    # profile (n-1, 0) at width d: integrand log(1 + (n-1) t^(d-1)),
    # which is the plain integral at exponent d-1
    n = 5
    prof = CellProfile(n, (n - 1,) * (n * n), (0,) * (n * n))
    for d in (3, 4, 5):
        assert extension_bound_general(prof, d) == pytest.approx(
            n * n * integral_I(n, d - 1), abs=1e-8
        )


def test_general_bound_matches_mpmath():
    prof = CellProfile(9, (2,) * 81, (2,) * 81)
    got = extension_bound_general(prof, 3)
    want = 81 * float(oracles.general_integral_mp(9, 2, 2, 3))
    assert got == pytest.approx(want, abs=1e-6)


def test_general_bound_buckets_mixed_profile():
    # half the cells (n-1,0), half (0,0): sum must equal the two buckets
    n = 4
    r = (3,) * 8 + (0,) * 8
    c = (0,) * 16
    prof = CellProfile(n, r, c)
    got = extension_bound_general(prof, 3)
    want = 8 * float(oracles.general_integral_mp(4, 3, 0, 3)) + 8 * float(
        oracles.general_integral_mp(4, 0, 0, 3)
    )
    assert got == pytest.approx(want, abs=1e-7)


def test_general_bound_domain():
    prof = CellProfile(4, (0,) * 16, (0,) * 16)
    with pytest.raises(InvalidParams):
        extension_bound_general(prof, 2)


def test_log_factorial():
    for m in (0, 1, 2, 5, 20, 100):
        assert log_factorial(m) == pytest.approx(math.lgamma(m + 1), abs=1e-9)
    with pytest.raises(InvalidParams):
        log_factorial(-1)
    with pytest.raises(InvalidParams):
        log_factorial(10**6 + 1)


# --------------------------------------------------------------------------
# the correction factor


@pytest.mark.parametrize("beta", [2.0**-10, 0.5, 1.0, 2.0, 10.0, 100.0, 1024.0])
def test_c_beta_matches_mpmath(beta):
    assert c_beta(beta) == pytest.approx(float(oracles.c_beta_mp(beta)), abs=1e-7)


def test_c_beta_frozen_values():
    assert c_beta(2.0**-10) == pytest.approx(0.9995117188, abs=1e-9)
    assert c_beta(0.5) == pytest.approx(0.7650666899, abs=1e-9)
    assert c_beta(1.0) == pytest.approx(0.6096919672, abs=1e-9)
    assert c_beta(2.0) == pytest.approx(0.4432087286, abs=1e-9)


def test_c_beta_range_and_large_beta_window():
    for e in range(-10, 11):
        v = c_beta(2.0**e)
        assert 0.0 <= v <= 1.0
    beta = 100.0
    assert abs(c_beta(beta) - math.log(beta) / (2 * beta)) < 2 / beta
    with pytest.raises(InvalidParams):
        c_beta(0.0)


# --------------------------------------------------------------------------
# bound evaluators


def test_mols_count_bound_structure():
    entries = mols_count_bound(10, 1)
    assert all(isinstance(e, BoundEntry) for e in entries)
    names = [e.name for e in entries]
    assert names == [
        "summed_quadrature",
        "estimate_per_cell",
        "regime_i",
        "regime_ii",
        "regime_iii",
        "trivial",
        "asymptotic_reference",
        "quadrature_error",
    ]
    rep = values(entries)
    assert rep["summed_quadrature"] == pytest.approx(
        100 * integral_I(10, 2), abs=1e-7
    )
    assert rep["trivial"] == pytest.approx(100 * math.log(10), abs=1e-9)
    asym = {e.name: e.asymptotic_only for e in entries}
    assert asym["regime_ii"] and asym["asymptotic_reference"]
    assert not asym["summed_quadrature"] and not asym["trivial"]
    assert entries[-1] == BoundEntry("quadrature_error", rep["quadrature_error"], "quadrature")
    assert rep["quadrature_error"] < 1e-6


def test_mols_count_bound_refuses_too_many_integrals():
    with pytest.raises(LimitExceeded, match=f"needs {MAX_INTEGRALS + 1} per-cell integrals"):
        mols_count_bound(1e12, MAX_INTEGRALS + 1)
    with pytest.raises(InvalidParams):  # an invalid k is reported as such first
        mols_count_bound(10, MAX_INTEGRALS + 1)


def test_mols_count_bound_sums_integrals():
    rep = values(mols_count_bound(8, 3))
    want = 64 * sum(integral_I(8, d) for d in range(2, 5))
    assert rep["summed_quadrature"] == pytest.approx(want, abs=1e-7)


def test_mols_count_bound_is_valid_for_known_counts():
    # log L(n) and log of pair counts stay below the quadrature bound
    known = {(3, 1): 12, (4, 1): 576, (5, 1): 161280, (3, 2): 72, (4, 2): 6912}
    for (n, k), count in known.items():
        rep = values(mols_count_bound(n, k))
        assert math.log(count) <= rep["summed_quadrature"] + 1e-9


def test_mols_count_bound_domain():
    with pytest.raises(InvalidParams):
        mols_count_bound(10, 0)
    with pytest.raises(InvalidParams):
        mols_count_bound(10, 10)
    mols_count_bound(10.5, 2)  # fractional orders fine for exploration


def test_reference_asymptotics_formulas():
    nn, logn = 10000.0, math.log(100)
    assert values(mols_count_bound(100, 1))["asymptotic_reference"] == pytest.approx(
        nn * (logn - 2), abs=1e-9
    )
    assert values(mols_count_bound(100, 2))["asymptotic_reference"] == pytest.approx(
        nn * (2 * logn - 5), abs=1e-9
    )
    entries = extension_entries(100, 2)
    assert [e.name for e in entries] == ["extension_bound", "average_extensions"]
    assert entries[0].value == extension_bound_mols(100, 2)
    assert entries[1].value == pytest.approx(nn * (logn - 4), abs=1e-9)
    mates = {e.name: e for e in extension_entries(100, 1)}
    assert mates["max_mates"].value == pytest.approx(
        nn * (logn - 2 - 1 / math.e), abs=1e-9
    )
    assert [e.asymptotic_only for e in mates.values()] == [False, True, True]


def test_sudoku_bound_report():
    entries = sudoku_extension_bound(9, 0)
    assert [e.name for e in entries] == [
        "general_quadrature", "split_integral", "correction_limit", "split_total",
        "quadrature_error",
    ]
    assert entries[-1].source == "quadrature" and not entries[-1].asymptotic_only
    rep = values(entries)
    general = rep["general_quadrature"]
    assert general == pytest.approx(77.695197343441, abs=1e-6)
    assert rep["split_total"] == pytest.approx(109.35955574435972, abs=1e-6)
    assert general <= rep["split_total"] + 1e-9
    assert rep["split_integral"] == pytest.approx(
        81 * integral_I(9, 3), abs=1e-7
    )
    assert rep["correction_limit"] == pytest.approx(
        81 * 2 * math.log(9) / (3 * math.sqrt(8)), abs=1e-9
    )
    assert 0 < rep["quadrature_error"] < 1e-6


def test_sudoku_bound_split_dominates_across_orders():
    for n, k in [(4, 0), (4, 1), (9, 0), (9, 2), (16, 0), (25, 1)]:
        rep = values(sudoku_extension_bound(n, k))  # raises internally if violated
        assert rep["general_quadrature"] <= rep["split_total"] + 1e-9


def test_sudoku_bound_admits_known_counts():
    assert math.log(288) <= values(sudoku_extension_bound(4, 0))["general_quadrature"]
    assert math.log(24) <= values(sudoku_extension_bound(4, 1))["general_quadrature"]


def test_sudoku_bound_domain():
    with pytest.raises(NotPerfectSquare):
        sudoku_extension_bound(8, 0)
    with pytest.raises(InvalidParams):
        sudoku_extension_bound(4, -1)
    # a k-system and its extension hold k + 1 <= n - 1 squares
    with pytest.raises(InvalidParams, match=r"n = m\^2 >= 4 and 0 <= k <= n-2; got n=4, k=3"):
        sudoku_extension_bound(4, 3)
