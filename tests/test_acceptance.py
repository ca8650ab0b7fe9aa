"""Acceptance gate: the ten primary criteria, one PASS/FAIL line each.

Every criterion prints "[PRIMARY] criterion N: PASS|FAIL" to the real stdout
so the lines are visible in a plain ``pytest -v`` run.  CLI-backed criteria
share their executions through the session-scoped report cache, and the
determinism criterion re-uses those same runs at a different thread count.
"""

import contextlib
import json
import math
import sys
import time

import oracles
from molscope.bounds import c_beta, mols_count_bound, sudoku_extension_bound
from molscope.construct import (
    GroupSpec,
    cayley_table,
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
)
from molscope.search import (
    SearchOptions,
    count_mates,
    enumerate_transversals,
    iter_latin_direct,
    iter_transversals,
)

CLI_RUNS = {
    "c1-mols-1": ["count", "mols", "--n", "1", "--k", "1"],
    "c1-mols-2": ["count", "mols", "--n", "2", "--k", "1"],
    "c1-mols-3": ["count", "mols", "--n", "3", "--k", "1"],
    "c1-mols-4": ["count", "mols", "--n", "4", "--k", "1"],
    "c1-mols-5": ["count", "mols", "--n", "5", "--k", "1"],
    "c2-mates-z3": ["count", "mates", "--square", "cayley:3"],
    "c2-mols-3-2": ["count", "mols", "--n", "3", "--k", "2"],
    "c3-ext-2": ["certify", "extension", "--n", "2", "--all-k"],
    "c3-ext-3": ["certify", "extension", "--n", "3", "--all-k"],
    "c3-ext-4": ["certify", "extension", "--n", "4", "--all-k"],
    "c4-ger-3": ["certify", "gerechte", "--n", "3"],
    "c4-ger-4": ["certify", "gerechte", "--n", "4"],
    "c4-sudoku": ["count", "sudoku", "--n", "4"],
    "c5-estimate": ["certify", "estimate", "--max-n", "1000"],
    "c6-product": ["certify", "product", "--base", "cayley:3"],
}


def _say(num: int, ok: bool) -> None:
    line = f"[PRIMARY] criterion {num}: {'PASS' if ok else 'FAIL'}"
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


@contextlib.contextmanager
def criterion(num: int):
    checks: list[bool] = []
    try:
        yield checks.append
    except Exception:
        _say(num, False)
        raise
    ok = bool(checks) and all(checks)
    _say(num, ok)
    assert ok, f"criterion {num} failed"


def fields(raw: bytes) -> dict:
    return {f["name"]: f for f in json.loads(raw)["results"]}


def test_criterion_1_exact_count_anchors(report_cache):
    expected = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
    with criterion(1) as check:
        total = 0.0
        for n, want in expected.items():
            code, out, elapsed = report_cache(
                f"c1-mols-{n}", CLI_RUNS[f"c1-mols-{n}"], threads=1
            )
            total += elapsed
            check(code == 0)
            f = fields(out)
            check(f["count"]["value"] == str(want))
            check(f["count"]["exact"] is True)
            check(f["direct_count"]["value"] == str(want))
            check(f["engines_agree"]["value"] is True)
        check(total < 60.0)


def test_criterion_2_order_three_mates(report_cache):
    with criterion(2) as check:
        started = time.monotonic()
        code, out, e1 = report_cache("c2-mates-z3", CLI_RUNS["c2-mates-z3"], threads=1)
        check(code == 0)
        check(fields(out)["mates"]["value"] == "6")

        grids = list(iter_latin_direct(3))
        check(len(grids) == 12)
        for g in grids:
            sq = LatinSquare(Square(g))
            check(count_mates(sq).value.count == 6)
            check(len(oracles.mates([list(r) for r in g])) == 6)

        code, out, e2 = report_cache("c2-mols-3-2", CLI_RUNS["c2-mols-3-2"], threads=1)
        check(code == 0)
        f = fields(out)
        check(f["count"]["value"] == "72")
        check(f["direct_count"]["value"] == "72")
        check(f["engines_agree"]["value"] is True)
        check((time.monotonic() - started) + e1 + e2 < 1.0)


def test_criterion_3_extension_bound_dominates(report_cache):
    with criterion(3) as check:
        total = 0.0
        for n in (2, 3, 4):
            name = f"c3-ext-{n}"
            code, out, elapsed = report_cache(name, CLI_RUNS[name], threads=1)
            total += elapsed
            check(code == 0)
            doms = [f for f in json.loads(out)["results"]
                    if f["name"].startswith("dominates_k")]
            check(bool(doms))
            check(all(f["value"] is True for f in doms))
        check(total < 600.0)


def test_criterion_4_gerechte_bound_dominates(report_cache):
    with criterion(4) as check:
        total = 0.0
        for name in ("c4-ger-3", "c4-ger-4"):
            code, out, elapsed = report_cache(name, CLI_RUNS[name], threads=1)
            total += elapsed
            check(code == 0)
            doms = [f for f in json.loads(out)["results"]
                    if "_dominates_k" in f["name"]]
            check(bool(doms))
            check(all(f["value"] is True for f in doms))

        code, out, elapsed = report_cache("c4-sudoku", CLI_RUNS["c4-sudoku"], threads=1)
        total += elapsed
        check(code == 0)
        f = fields(out)
        check(f["sudoku_squares"]["value"] == "288")
        check(f["engines_agree"]["value"] is True)

        rep = {e.name: e.value for e in sudoku_extension_bound(4, 0)}
        check(math.log(288) <= rep["general_quadrature"] + 1e-6)
        check(math.log(288) <= rep["split_total"] + 1e-6)
        check(total < 300.0)


def test_criterion_5_closed_form_dominates_integral(report_cache):
    with criterion(5) as check:
        code, out, elapsed = report_cache(
            "c5-estimate", CLI_RUNS["c5-estimate"], threads=1
        )
        check(code == 0)
        f = fields(out)
        check(f["grid_points"]["value"] == "2822")
        check(f["worst_gap"]["value"] <= 2e-9)
        check(f["dominates"]["value"] is True)
        check(elapsed < 30.0)


def test_criterion_6_product_certification(report_cache):
    with criterion(6) as check:
        code, out, _ = report_cache(
            "c6-product", CLI_RUNS["c6-product"], threads=1
        )
        check(code == 0)
        f = fields(out)
        check(product_mate_bound_exact(3, 3, 6, 6) == 16930529280)
        check(46656 * math.factorial(9) == 16930529280)
        check(f["bound_exact"]["value"] == "16930529280")
        check(f["partitions_threshold"]["value"] == "46656")
        check(f["partitions_found"]["value"] == "46656")
        check(f["partitions_found"]["exact"] is False)
        check(f["mates_certified"]["value"] == "16930529280")
        check(f["certified"]["value"] is True)


def test_criterion_7_power_recursion():
    with criterion(7) as check:
        for m in (2, 3):
            for q in (1, 6):
                logq = math.log(q)
                for k in range(1, 5):
                    lhs = product_mate_bound(
                        m**k, m, power_mate_bound(m, logq, k), logq
                    )
                    rhs = power_mate_bound(m, logq, k + 1)
                    check(lhs >= rhs - 1e-9)


def test_criterion_8_correction_factor_properties():
    with criterion(8) as check:
        for e in range(-10, 11):
            v = c_beta(2.0**e)
            check(0.0 <= v <= 1.0)
        n = math.exp(20.0)
        for k in (120, 160, 240, 320, 400):
            rep = {e.name: e.value for e in mols_count_bound(n, k)}
            summed = rep["summed_quadrature"]
            regime = rep["regime_ii"]
            check(abs(regime - summed) / summed < 0.05)


def test_criterion_9_translate_mates():
    with criterion(9) as check:
        started = time.monotonic()
        for factors in ([3], [2, 2]):
            g = GroupSpec(factors)
            table = cayley_table(g)
            n = g.order
            check(enumerate_transversals(table, SearchOptions(stop_threshold=1)).value.count == 1)
            t = Transversal.of(table, next(iter_transversals(table)))
            partition, mates = translate_mates(g, t)
            for h in range(n):
                check(is_transversal(table, partition.cells_of(h)))
            emitted = list(mates)
            check(len(emitted) == math.factorial(n))
            for m in emitted:
                check(check_orthogonal(table, m))
        check(time.monotonic() - started < 1.0)


def test_criterion_10_thread_count_determinism(report_cache):
    with criterion(10) as check:
        for name, argv in CLI_RUNS.items():
            code1, out1, _ = report_cache(name, argv, threads=1)
            code8, out8, _ = report_cache(name, argv, threads=8)
            check(code1 == code8)
            check(out1 == out8)
            check(b"elapsed" not in out1)
