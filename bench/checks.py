"""Independent checks for the benchmark's outputs.

Nothing here imports molscope.  Expected values come from the literature,
from integer arithmetic done here, from mpmath quadrature, or from the small
enumerators below, which share no code with the program.  Every check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

# --------------------------------------------------------------------------
# literature constants

L4 = 576  # Latin squares of order 4 (OEIS A002860)
L5 = 161_280  # Latin squares of order 5 (OEIS A002860)
SUDOKU4 = 288  # Latin squares of order 4 balanced on the 2x2 boxes
PAIRS4 = 144 * 48  # ordered orthogonal pairs of order 4: 144 squares with 48 mates each
MAX_EXTENSIONS4 = {0: L4, 1: 48, 2: math.factorial(4)}  # k = 2 completes uniquely up to symbols
TRANSVERSALS = {9: 2_025, 11: 37_851}  # cyclic groups (OEIS A006717)
TRANSVERSALS_Z2_CUBED = 384  # McKay, McLeod & Wanless 2006: the maximum at order 8
Z5_PARTITIONS = 3
Z5_MATES = Z5_PARTITIONS * math.factorial(5)  # 360
ORDER3_MATES = 6  # every order-3 Latin square: one transversal partition times 3!
# Transversal partitions of Z2 x Z2 x Z2, derived by count_partitions() below
# (selftest.py derives it again on every self-test run).
Z2_CUBED_PARTITIONS = 70_272
ESTIMATE_TOL = 2e-9  # the tolerance `certify estimate` certifies against
# The grid point of `certify estimate --max-n 1000` with the largest gap
# (mpmath over all 2,822 points; selftest.py searches the grid again).
WORST_POINT = (1000, 1000)
BOUND_RTOL = 1e-8  # quadrature agreement required with mpmath


# --------------------------------------------------------------------------
# the file format, read without the program's parser


def parse_doc(text: str):
    """(squares, partition, transversal), all 0-based; partition is a grid of
    region labels and transversal a list of (row, col)."""
    blocks, cur = [], []
    for line in text.splitlines():
        if line.strip():
            cur.append(line.split())
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    squares, partition, transversal = [], None, None
    for block in blocks:
        if block[0] == ["PARTITION"]:
            partition = [[int(x) - 1 for x in row] for row in block[1:]]
        elif block[0] == ["TRANSVERSAL"]:
            transversal = [(int(r) - 1, int(c) - 1) for r, c in block[1:]]
        else:
            n = int(block[0][0])
            grid = [[int(x) - 1 for x in row] for row in block[1:]]
            if len(grid) != n or any(len(row) != n for row in grid):
                raise ValueError("square block has the wrong shape")
            squares.append(grid)
    return squares, partition, transversal


def format_grid(grid) -> str:
    return "\n".join([str(len(grid))] + [" ".join(str(x + 1) for x in row) for row in grid]) + "\n"


# --------------------------------------------------------------------------
# combinatorial predicates and small enumerators


def is_latin(grid) -> bool:
    n = len(grid)
    full = set(range(n))
    return all(set(row) == full for row in grid) and all(
        {grid[i][j] for i in range(n)} == full for j in range(n)
    )


def is_transversal(grid, cells) -> bool:
    n = len(grid)
    cells = list(cells)
    return (
        len(cells) == n
        and {i for i, _ in cells} == set(range(n))
        and {j for _, j in cells} == set(range(n))
        and {grid[i][j] for i, j in cells} == set(range(n))
    )


def orthogonal(a, b) -> bool:
    n = len(a)
    return len({(a[i][j], b[i][j]) for i in range(n) for j in range(n)}) == n * n


def transversals(grid) -> list[tuple[int, ...]]:
    """Every transversal as the tuple of its columns, row by row."""
    n = len(grid)
    out = []

    def walk(i, cols, used_cols, used_syms):
        if i == n:
            out.append(tuple(cols))
            return
        for j in range(n):
            s = grid[i][j]
            if j not in used_cols and s not in used_syms:
                cols.append(j)
                used_cols.add(j)
                used_syms.add(s)
                walk(i + 1, cols, used_cols, used_syms)
                used_syms.discard(s)
                used_cols.discard(j)
                cols.pop()

    walk(0, [], set(), set())
    return out


def count_partitions(grid) -> int:
    """Partitions of the cells into transversals, by exact cover over bitsets:
    always cover the uncovered cell with the fewest parts still disjoint from
    everything chosen (Knuth's Algorithm X with the fewest-options rule)."""
    n = len(grid)
    parts = [sum(1 << (i * n + c) for i, c in enumerate(t)) for t in transversals(grid)]
    through = [0] * (n * n)  # per cell: bitset of the parts that contain it
    for p, mask in enumerate(parts):
        for cell in range(n * n):
            if mask >> cell & 1:
                through[cell] |= 1 << p
    disjoint = [sum(1 << q for q, other in enumerate(parts) if not mask & other) for mask in parts]

    def cover(uncovered: int, allowed: int) -> int:
        if not uncovered:
            return 1
        best = None
        rest = uncovered
        while rest:
            cell = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            opts = through[cell] & allowed
            if best is None or opts.bit_count() < best.bit_count():
                best = opts
                if not opts:
                    return 0
        total = 0
        while best:
            p = (best & -best).bit_length() - 1
            best &= best - 1
            total += cover(uncovered & ~parts[p], allowed & disjoint[p])
        return total

    return cover((1 << n * n) - 1, (1 << len(parts)) - 1)


def gerechte_squares(labels) -> list[tuple[tuple[int, ...], ...]]:
    """Latin squares whose every region (label grid) holds each symbol once."""
    n = len(labels)
    grid = [[-1] * n for _ in range(n)]
    out = []

    def walk(cell):
        if cell == n * n:
            out.append(tuple(tuple(r) for r in grid))
            return
        i, j = divmod(cell, n)
        region = labels[i][j]
        taken = set(grid[i]) | {grid[r][j] for r in range(n)} | {
            grid[r][c] for r in range(n) for c in range(n) if labels[r][c] == region
        }
        for s in range(n):
            if s not in taken:
                grid[i][j] = s
                walk(cell + 1)
                grid[i][j] = -1

    walk(0)
    return out


def gerechte_census(labels) -> dict[str, int]:
    """Per k = 0, 1, 2: systems of k pairwise orthogonal gerechte squares and
    the most squares extending any one of them."""
    squares = gerechte_squares(labels)
    mates = [
        {b for b, other in enumerate(squares) if orthogonal(sq, other)} for sq in squares
    ]
    pairs = [(a, b) for a in range(len(squares)) for b in mates[a]]
    return {
        "systems_k0": 1,
        "max_extensions_k0": len(squares),
        "systems_k1": len(squares),
        "max_extensions_k1": max(len(m) for m in mates),
        "systems_k2": len(pairs),
        "max_extensions_k2": max((len(mates[a] & mates[b]) for a, b in pairs), default=0),
    }


def cell_profile(labels) -> list[tuple[int, int]]:
    """(r, c) per cell: other cells sharing its row and region, and its
    column and region."""
    n = len(labels)
    return [
        (
            sum(1 for c in range(n) if c != j and labels[i][c] == labels[i][j]),
            sum(1 for r in range(n) if r != i and labels[r][j] == labels[i][j]),
        )
        for i in range(n)
        for j in range(n)
    ]


# --------------------------------------------------------------------------
# quadrature references (mpmath)

_BREAKS = [0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1]


def mp_integral(n, d) -> float:
    """int_0^1 log(1 + (n-1) t^d) dt to 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        return float(mpmath.quad(lambda t: mpmath.log1p((n - 1) * t**d), _BREAKS))


def mp_extension_bound(n: int, k: int) -> float:
    return n * n * mp_integral(n, k + 2)


def mp_general_bound(labels, d: int) -> float:
    """sum over cells of int_0^1 log(1 + (r+c) t^(d-1) + (n-r-c-1) t^d) dt."""
    import mpmath

    n = len(labels)
    buckets: dict[tuple[int, int], int] = {}
    for rc in cell_profile(labels):
        buckets[rc] = buckets.get(rc, 0) + 1
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for (r, c), mult in sorted(buckets.items()):
            total += mult * mpmath.quad(
                lambda t: mpmath.log1p((r + c) * t ** (d - 1) + (n - r - c - 1) * t**d),
                _BREAKS,
            )
        return float(total)


def closed_form(n, d) -> float:
    s = (n - 1.0) ** (-1.0 / d)
    return math.log(n - 1.0) - d + d * s + 3.0 * s / d


def estimate_grid() -> list[tuple[int, int]]:
    """The (n, d) points of `certify estimate --max-n 1000`."""
    ns = list(range(2, 51)) + [100, 500, 1000]
    return [(n, d) for n in ns for d in range(2, n + 1)]


def product_bound(n1: int, q: int) -> int:
    """q^(1 + n1^2) (n1^2)! / (n1! (n1!)^n1) for the product of a base with itself."""
    bound = Fraction(q * q ** (n1 * n1) * math.factorial(n1 * n1),
                     math.factorial(n1) * math.factorial(n1) ** n1)
    if bound.denominator != 1:
        raise ValueError("the product bound is not an integer")
    return bound.numerator


# --------------------------------------------------------------------------
# report checks: `fields` maps result name -> {"value", "exact", ...}


def _want(problems, fields, name, value, exact=None):
    f = fields.get(name)
    if f is None:
        problems.append(f"{name}: missing")
        return
    if f["value"] != value:
        problems.append(f"{name}: {f['value']!r}, expected {value!r}")
    if exact is not None and f.get("exact") is not exact:
        problems.append(f"{name}: exact={f.get('exact')!r}, expected {exact!r}")


def _near(problems, fields, name, value, rtol=BOUND_RTOL):
    f = fields.get(name)
    if f is None or not isinstance(f["value"], float):
        problems.append(f"{name}: missing or not a number")
    elif abs(f["value"] - value) > rtol * max(1.0, abs(value)):
        problems.append(f"{name}: {f['value']!r}, expected {value!r}")


def check_extension(fields, bounds: dict[int, float]) -> list[str]:
    """certify extension --n 4 --all-k; bounds[k] are mpmath values."""
    p: list[str] = []
    for k, systems in ((0, 1), (1, L4), (2, PAIRS4)):
        _want(p, fields, f"systems_k{k}", str(systems), True)
        _want(p, fields, f"max_extensions_k{k}", str(MAX_EXTENSIONS4[k]), True)
        _near(p, fields, f"bound_k{k}", bounds[k])
        if math.log(MAX_EXTENSIONS4[k]) > bounds[k]:
            p.append(f"k={k}: the bound does not dominate")
        _want(p, fields, f"dominates_k{k}", True)
    return p


def check_gerechte(fields, label: str, census: dict[str, int], bounds: dict[int, float]) -> list[str]:
    """certify gerechte --n 4 --partition FILE; census from gerechte_census."""
    p: list[str] = []
    if census["max_extensions_k0"] != SUDOKU4 or census["systems_k1"] != SUDOKU4:
        p.append("the partition is not equivalent to the 2x2 boxes")
    for k in range(3):
        for key in ("systems", "max_extensions"):
            _want(p, fields, f"{label}_{key}_k{k}", str(census[f"{key}_k{k}"]), True)
        _near(p, fields, f"{label}_bound_k{k}", bounds[k])
        mx = census[f"max_extensions_k{k}"]
        if mx and math.log(mx) > bounds[k]:
            p.append(f"k={k}: the bound does not dominate")
        _want(p, fields, f"{label}_dominates_k{k}", True)
    return p


def check_estimate(fields, sample: list[tuple[int, int, float]]) -> list[str]:
    """certify estimate --max-n 1000; sample holds (n, d, mpmath integral)
    and starts with WORST_POINT, where the reported worst gap must lie."""
    p: list[str] = []
    _want(p, fields, "grid_points", str(len(estimate_grid())))
    _want(p, fields, "tolerance", ESTIMATE_TOL)
    _want(p, fields, "dominates", True)
    gaps = [(n, d, ref - closed_form(n, d)) for n, d, ref in sample]
    _near(p, fields, "worst_gap", gaps[0][2], rtol=1e-8)
    for n, d, gap in gaps:
        if gap > ESTIMATE_TOL:
            p.append(f"(n={n}, d={d}): mpmath gap {gap!r} exceeds the tolerance")
        if gap > gaps[0][2]:
            p.append(f"(n={n}, d={d}): mpmath gap {gap!r} exceeds the gap at {WORST_POINT}")
    return p


def check_mols(fields, count: int) -> list[str]:
    p: list[str] = []
    _want(p, fields, "count", str(count), True)
    _want(p, fields, "direct_count", str(count), True)
    _want(p, fields, "engines_agree", True)
    return p


def check_sudoku(fields) -> list[str]:
    p: list[str] = []
    _want(p, fields, "sudoku_squares", str(SUDOKU4), True)
    _want(p, fields, "direct_count", str(SUDOKU4), True)
    _want(p, fields, "engines_agree", True)
    return p


def check_product(fields, base_order: int, base_mates: int) -> list[str]:
    """certify product on an order-3 base with base_mates mates."""
    p: list[str] = []
    n = base_order * base_order
    bound = product_bound(base_order, base_mates)
    need = -(-bound // math.factorial(n))
    _want(p, fields, "base_mates", str(base_mates), True)
    _want(p, fields, "product_order", str(n))
    _want(p, fields, "bound_exact", str(bound))
    _near(p, fields, "bound_nats", math.log(bound), rtol=1e-12)
    _want(p, fields, "partitions_threshold", str(need))
    _want(p, fields, "partitions_found", str(need), False)
    _want(p, fields, "mates_certified", str(need * math.factorial(n)), False)
    _want(p, fields, "certified", need * math.factorial(n) >= bound)
    return p


def check_count(fields, name: str, value: int) -> list[str]:
    p: list[str] = []
    _want(p, fields, name, str(value), True)
    return p


# --------------------------------------------------------------------------
# witness checks: docs is a list of file texts


def check_transversal_witnesses(docs, grid, expected: int) -> list[str]:
    p: list[str] = []
    if len(docs) != expected:
        p.append(f"{len(docs)} transversal files, expected {expected}")
    seen = set()
    for idx, text in enumerate(docs, 1):
        squares, _, cells = parse_doc(text)
        if squares != [grid]:
            p.append(f"transversal file {idx}: wrong square")
        elif cells is None or not is_transversal(grid, cells):
            p.append(f"transversal file {idx}: not a transversal")
        key = tuple(sorted(cells or ()))
        if key in seen:
            p.append(f"transversal file {idx}: repeated")
        seen.add(key)
    return p


def check_partition_witnesses(docs, grid, expected: int) -> list[str]:
    p: list[str] = []
    n = len(grid)
    if len(docs) != expected:
        p.append(f"{len(docs)} partition files, expected {expected}")
    seen = set()
    for idx, text in enumerate(docs, 1):
        squares, labels, _ = parse_doc(text)
        if squares != [grid] or labels is None or len(labels) != n:
            p.append(f"partition file {idx}: wrong square or no partition")
            continue
        regions: dict[int, list] = {}
        for i in range(n):
            for j in range(n):
                regions.setdefault(labels[i][j], []).append((i, j))
        if len(regions) != n or not all(is_transversal(grid, c) for c in regions.values()):
            p.append(f"partition file {idx}: a part is not a transversal")
        key = frozenset(frozenset(c) for c in regions.values())
        if key in seen:
            p.append(f"partition file {idx}: repeated")
        seen.add(key)
    return p


def check_mate_witnesses(docs, grid, expected: int, partitions: int) -> list[str]:
    """Each mate is orthogonal to grid; the mates' symbol classes give
    exactly `partitions` transversal partitions, n! mates each."""
    p: list[str] = []
    n = len(grid)
    if len(docs) != expected:
        p.append(f"{len(docs)} mate files, expected {expected}")
    seen = set()
    induced: dict[frozenset, int] = {}
    for idx, text in enumerate(docs, 1):
        squares, _, _ = parse_doc(text)
        if len(squares) != 2 or squares[0] != grid:
            p.append(f"mate file {idx}: wrong square")
            continue
        mate = squares[1]
        if not is_latin(mate) or not orthogonal(grid, mate):
            p.append(f"mate file {idx}: not an orthogonal mate")
        key = tuple(map(tuple, mate))
        if key in seen:
            p.append(f"mate file {idx}: repeated")
        seen.add(key)
        classes = frozenset(
            frozenset((i, j) for i in range(n) for j in range(n) if mate[i][j] == s) for s in range(n)
        )
        induced[classes] = induced.get(classes, 0) + 1
    if sorted(induced.values()) != [math.factorial(n)] * partitions:
        p.append(f"mates fall into {len(induced)} partitions, expected {partitions} of {math.factorial(n)}")
    return p


def check_verify(code: int, stdout: str, paths: list[str]) -> list[str]:
    ok = {line[: -len(": ok")] for line in stdout.splitlines() if line.endswith(": ok")}
    missing = [path for path in paths if path not in ok]
    p = [f"verify exit code {code}"] if code else []
    if missing:
        p.append(f"verify did not pass {len(missing)} of {len(paths)} files")
    return p
