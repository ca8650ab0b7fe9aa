"""Self-test of the benchmark's checks: `python3 bench/selftest.py`.

1. Derives again, with the benchmark's own enumerators, the constants that
   do not come from the literature, after checking those enumerators
   against literature values.
2. Builds a correct output for every check and confirms that it passes.
   Then it corrupts each checked report field and each kind of witness file
   in turn and confirms that the check rejects it.

Exits 0 when every corruption was caught.  Imports nothing from molscope.
Most of its time goes to mpmath over the 2,822 points of the estimate grid.
"""

from __future__ import annotations

import copy
import math
import random
import sys
from itertools import combinations, permutations

import checks
from run import Tally
from workloads import Op, cayley, isotope

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corruptions(fields: dict):
    """(description, corrupted copy) for every value and exact flag."""
    for name, f in fields.items():
        for key in ("value", "exact"):
            if key not in f:
                continue
            v = f[key]
            if isinstance(v, bool):
                bad = not v
            elif isinstance(v, str):
                bad = str(int(v) + 1)
            else:
                bad = v - 1e-3 * max(1.0, abs(v))
            g = copy.deepcopy(fields)
            g[name][key] = bad
            yield f"{name}.{key}", g


def field(value, exact=None) -> dict:
    f = {"value": value}
    if exact is not None:
        f["exact"] = exact
    return f


def report_checks() -> None:
    n4 = {k: checks.mp_extension_bound(4, k) for k in range(3)}
    ext = {}
    for k, systems in ((0, 1), (1, checks.L4), (2, checks.PAIRS4)):
        ext[f"systems_k{k}"] = field(str(systems), True)
        ext[f"max_extensions_k{k}"] = field(str(checks.MAX_EXTENSIONS4[k]), True)
        ext[f"bound_k{k}"] = field(n4[k])
        ext[f"dominates_k{k}"] = field(True)

    boxes = [[(i // 2) * 2 + j // 2 for j in range(4)] for i in range(4)]
    census = checks.gerechte_census(boxes)
    gbounds = {k: checks.mp_general_bound(boxes, k + 3) for k in range(3)}
    ger = {}
    for k in range(3):
        for key in ("systems", "max_extensions"):
            ger[f"P_{key}_k{k}"] = field(str(census[f"{key}_k{k}"]), True)
        ger[f"P_bound_k{k}"] = field(gbounds[k])
        ger[f"P_dominates_k{k}"] = field(True)

    sample = [(n, d, checks.mp_integral(n, d)) for n, d in [checks.WORST_POINT, (7, 3), (500, 41)]]
    worst = sample[0][2] - checks.closed_form(*checks.WORST_POINT)
    est = {"grid_points": field("2822"), "worst_gap": field(worst),
           "tolerance": field(checks.ESTIMATE_TOL), "dominates": field(True)}

    bound = 16_930_529_280  # 6 * 6^9 * 9! / (3! * 3!^3)
    prod = {"base_mates": field("6", True), "product_order": field("9"),
            "bound_exact": field(str(bound)), "bound_nats": field(math.log(bound)),
            "partitions_threshold": field("46656"), "partitions_found": field("46656", False),
            "mates_certified": field(str(46656 * math.factorial(9)), False),
            "certified": field(True)}
    expect(checks.product_bound(3, 6) == bound, "product bound arithmetic gives 16,930,529,280")

    cases = [
        ("certify extension", ext, lambda f: checks.check_extension(f, n4)),
        ("certify gerechte", ger, lambda f: checks.check_gerechte(f, "P", census, gbounds)),
        ("certify estimate", est, lambda f: checks.check_estimate(f, sample)),
        ("certify product", prod, lambda f: checks.check_product(f, 3, 6)),
        ("count mols 5 1", {"count": field(str(checks.L5), True),
                            "direct_count": field(str(checks.L5), True),
                            "engines_agree": field(True)},
         lambda f: checks.check_mols(f, checks.L5)),
        ("count sudoku 4", {"sudoku_squares": field("288", True),
                            "direct_count": field("288", True), "engines_agree": field(True)},
         checks.check_sudoku),
        ("count transversals", {"transversals": field("37851", True)},
         lambda f: checks.check_count(f, "transversals", 37_851)),
    ]
    for name, good, check in cases:
        problems = check(good)
        expect(not problems, f"{name}: correct report passes {problems or ''}")
        for what, bad in corruptions(good):
            expect(bool(check(bad)), f"{name}: rejects corrupted {what}")


def doc(grids, partition=None, cells=None) -> str:
    parts = [checks.format_grid(g) for g in grids]
    if partition is not None:
        parts.append("PARTITION\n" + "\n".join(" ".join(str(x + 1) for x in r) for r in partition) + "\n")
    if cells is not None:
        parts.append("TRANSVERSAL\n" + "\n".join(f"{i + 1} {j + 1}" for i, j in cells) + "\n")
    return "\n".join(parts)


def witness_checks() -> None:
    grid = isotope(cayley([5]), random.Random(7))
    n = len(grid)
    trs = checks.transversals(grid)
    tr_docs = [doc([grid], cells=list(enumerate(t))) for t in trs]
    partitions = [  # sets of n pairwise disjoint transversals
        chosen for chosen in combinations(trs, n)
        if all(len({t[i] for t in chosen}) == n for i in range(n))
    ]
    labels = [[[next(p for p, t in enumerate(ch) if t[i] == j) for j in range(n)] for i in range(n)]
              for ch in partitions]
    pa_docs = [doc([grid], partition=lab) for lab in labels]
    mates = [[[perm[lab[i][j]] for j in range(n)] for i in range(n)]
             for lab in labels for perm in permutations(range(n))]
    ma_docs = [doc([grid, m]) for m in mates]

    other = isotope(cayley([5]), random.Random(8))
    cases = [
        ("transversal", tr_docs, lambda d: checks.check_transversal_witnesses(d, grid, len(tr_docs)),
         [("a moved cell", lambda d: [d[0].replace("TRANSVERSAL\n1 ", "TRANSVERSAL\n2 ", 1)] + d[1:]),
          ("a repeat", lambda d: d[:-1] + [d[0]]),
          ("another square", lambda d: [d[0].replace(checks.format_grid(grid), checks.format_grid(other))] + d[1:]),
          ("one missing", lambda d: d[:-1])]),
        ("partition", pa_docs, lambda d: checks.check_partition_witnesses(d, grid, len(pa_docs)),
         [("two cells swapped between parts", lambda d: [doc([grid], partition=_swap(labels[0]))] + d[1:]),
          ("a repeat", lambda d: d[:-1] + [d[0]]),
          ("one missing", lambda d: d[:-1])]),
        ("mate", ma_docs, lambda d: checks.check_mate_witnesses(d, grid, len(ma_docs), len(pa_docs)),
         [("a non-orthogonal mate", lambda d: [doc([grid, grid])] + d[1:]),
          ("a repeat", lambda d: d[:-1] + [d[0]]),
          ("a mate that is not Latin", lambda d: [doc([grid, _swap(mates[0])])] + d[1:]),
          ("one missing", lambda d: d[:-1])]),
    ]
    expect(len(trs) == 15 and len(partitions) == checks.Z5_PARTITIONS and len(ma_docs) == checks.Z5_MATES,
           "Z5 isotope: 15 transversals, 3 partitions, 360 mates by brute force")
    for name, docs, check, corrupt in cases:
        problems = check(docs)
        expect(not problems, f"{name} witnesses: correct files pass {problems[:3] or ''}")
        for what, fn in corrupt:
            expect(bool(check(fn(docs))), f"{name} witnesses: rejects {what}")

    short_rows = doc([grid]) + "\nPARTITION\n1 2\n"
    tally = Tally()
    tally.record(Op("partition", lambda threads: [], lambda code, stdout: checks.check_partition_witnesses(
        [short_rows], grid, 1)), 1, 0, "")
    expect(not tally.correct and not tally.failed, "a checker that cannot parse a witness file marks the run incorrect")

    paths = ["a.txt", "b.txt"]
    good = "a.txt: ok\nb.txt: ok\n"
    expect(not checks.check_verify(0, good, paths), "verify: all files ok passes")
    expect(bool(checks.check_verify(0, "a.txt: ok\n", paths)), "verify: rejects a missing ok line")
    expect(bool(checks.check_verify(1, good, paths)), "verify: rejects a non-zero exit code")


def _swap(grid):
    """grid with its first two cells exchanged."""
    bad = [row[:] for row in grid]
    bad[0][0], bad[0][1] = bad[0][1], bad[0][0]
    return bad


def constants() -> None:
    expect(len(checks.transversals(cayley([9]))) == checks.TRANSVERSALS[9], "own enumerator: Z9 has 2,025 transversals")
    expect(len(checks.transversals(cayley([11]))) == checks.TRANSVERSALS[11], "own enumerator: Z11 has 37,851 transversals")
    z8 = cayley([2, 2, 2])
    expect(len(checks.transversals(z8)) == checks.TRANSVERSALS_Z2_CUBED, "own enumerator: Z2^3 has 384 transversals")
    expect(checks.count_partitions(z8) == checks.Z2_CUBED_PARTITIONS, "own exact cover: Z2^3 has 70,272 partitions")
    expect(checks.count_partitions(cayley([5])) == checks.Z5_PARTITIONS, "own exact cover: Z5 has 3 partitions")
    expect(checks.count_partitions(cayley([3])) * 6 == checks.ORDER3_MATES, "own exact cover: Z3 has 6 mates")
    boxes = [[(i // 2) * 2 + j // 2 for j in range(4)] for i in range(4)]
    expect(len(checks.gerechte_squares(boxes)) == checks.SUDOKU4, "own enumerator: 288 Sudoku squares of order 4")
    rows = [[i] * 4 for i in range(4)]
    census = checks.gerechte_census(rows)  # rows as regions: plain Latin squares
    expect((census["systems_k1"], census["systems_k2"], census["max_extensions_k1"], census["max_extensions_k2"])
           == (checks.L4, checks.PAIRS4, checks.MAX_EXTENSIONS4[1], checks.MAX_EXTENSIONS4[2]),
           "own census on rows: 576 squares, 6,912 pairs, 48 mates, 24 completions")
    expect(len(checks.estimate_grid()) == 2822, "estimate grid has 2,822 points")
    worst = max(checks.estimate_grid(), key=lambda p: checks.mp_integral(*p) - checks.closed_form(*p))
    expect(worst == checks.WORST_POINT, f"worst estimate point is {checks.WORST_POINT} (mpmath over the full grid)")

def main() -> int:
    constants()
    report_checks()
    witness_checks()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
