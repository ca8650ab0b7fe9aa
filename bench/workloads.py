"""The four workloads: seeded inputs, the CLI commands, and their checks.

A workload is a list of operations.  An operation is one `molscope`
invocation plus the checks on its output; `argv(threads)` gives its
arguments and `check(code, stdout)` returns the problems found.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks

NAMES = ("census", "tuples", "product", "witnesses")
DEFAULT_SEED = 1
ESTIMATE_SAMPLE = 6  # certify-estimate grid points re-checked with mpmath per run


@dataclass
class Op:
    name: str
    argv: Callable[[int], list[str]]
    check: Callable[[int, str], list[str]]
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    ops: list[Op]
    witness_dirs: list[Path] = field(default_factory=list)


def cayley(dims: list[int]) -> list[list[int]]:
    """The Cayley table of Z_d1 x Z_d2 x ..., elements in mixed-radix order."""
    elems = [[]]
    for d in dims:
        elems = [e + [x] for e in elems for x in range(d)]
    index = {tuple(e): i for i, e in enumerate(elems)}
    return [
        [index[tuple((x + y) % d for x, y, d in zip(a, b, dims))] for b in elems]
        for a in elems
    ]


def isotope(grid, rng: random.Random) -> list[list[int]]:
    """A random row, column and symbol permutation of grid."""
    n = len(grid)
    rows, cols, syms = (rng.sample(range(n), n) for _ in range(3))
    return [[syms[grid[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]


def fields_of(stdout: str) -> dict:
    return {f["name"]: f for f in json.loads(stdout)["results"]}


def structured(check_fields: Callable[[dict], list[str]]) -> Callable[[int, str], list[str]]:
    """A check on a structured report that must come with exit code 0."""

    def check(code: int, stdout: str) -> list[str]:
        if code:
            return [f"exit code {code}"]
        try:
            fields = fields_of(stdout)
        except (ValueError, KeyError) as exc:
            return [f"unreadable report: {exc}"]
        return check_fields(fields)

    return check


def _cmd(*args: str) -> Callable[[int], list[str]]:
    return lambda threads: [*args, "--threads", str(threads), "--format", "structured"]


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def census(seed: int, work: Path) -> Workload:
    """Thousands of tiny extension counts, one per system, plus quadrature."""
    rng = random.Random(seed)
    boxes = [[(i // 2) * 2 + j // 2 for j in range(4)] for i in range(4)]
    labels = isotope(boxes, rng)  # row, column and region-label permutation
    part = _write(work / "partition.txt",
                  "PARTITION\n" + "\n".join(" ".join(str(x + 1) for x in r) for r in labels) + "\n")
    ext_bounds = {k: checks.mp_extension_bound(4, k) for k in range(3)}
    ger_bounds = {k: checks.mp_general_bound(labels, k + 3) for k in range(3)}
    ger_census = checks.gerechte_census(labels)
    points = [checks.WORST_POINT, *rng.sample(checks.estimate_grid(), ESTIMATE_SAMPLE)]
    sample = [(n, d, checks.mp_integral(n, d)) for n, d in points]
    return Workload([
        Op("certify-extension", _cmd("certify", "extension", "--n", "4", "--all-k"),
           structured(lambda f: checks.check_extension(f, ext_bounds))),
        Op("certify-gerechte", _cmd("certify", "gerechte", "--n", "4", "--partition", part),
           structured(lambda f: checks.check_gerechte(f, part, ger_census, ger_bounds))),
        Op("certify-estimate", _cmd("certify", "estimate", "--max-n", "1000"),
           structured(lambda f: checks.check_estimate(f, sample))),
    ])


def tuples(seed: int, work: Path) -> Workload:
    """A few large single counts; no square inputs, so the seed is unused."""
    return Workload([
        Op("count-mols-5-1", _cmd("count", "mols", "--n", "5", "--k", "1"),
           structured(lambda f: checks.check_mols(f, checks.L5))),
        Op("count-mols-4-2", _cmd("count", "mols", "--n", "4", "--k", "2"),
           structured(lambda f: checks.check_mols(f, checks.PAIRS4))),
        Op("count-sudoku-4", _cmd("count", "sudoku", "--n", "4"),
           structured(checks.check_sudoku)),
    ])


def product(seed: int, work: Path) -> Workload:
    """One exact-cover search stopped at a threshold, on an isotope of Z3."""
    base = isotope(cayley([3]), random.Random(seed))
    path = _write(work / "base.txt", checks.format_grid(base))
    mates = checks.count_partitions(base) * math.factorial(3)
    if mates != checks.ORDER3_MATES:
        raise RuntimeError(f"the benchmark's own count gives {mates} mates of an order-3 square")
    return Workload([
        Op("certify-product", _cmd("certify", "product", "--base", path),
           structured(lambda f: checks.check_product(f, 3, mates))),
    ])


WITNESS_CAP = 1000  # the CLI's default cap on emitted witnesses


def witnesses(seed: int, work: Path) -> Workload:
    """Three engines in collect mode, witness files written, then verified."""
    rng = random.Random(seed)
    specs = {"z11": [11], "z2x2x2": [2, 2, 2], "z5": [5]}
    grids = {key: isotope(cayley(dims), rng) for key, dims in specs.items()}
    paths = {key: _write(work / f"{key}.txt", checks.format_grid(g)) for key, g in grids.items()}
    dirs = {key: work / f"witness-{key}" for key in specs}

    def docs(key: str) -> list[str]:
        return [p.read_text(encoding="utf-8") for p in sorted(dirs[key].glob("witness-*.txt"))]

    def emitted() -> list[str]:
        return [str(p) for key in specs for p in sorted(dirs[key].glob("witness-*.txt"))]

    def clear() -> None:
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)

    def count_op(name, kind, key, check_fields):
        argv = _cmd("count", kind, "--square", paths[key], "--emit-witnesses", str(dirs[key]))
        return Op(name, argv, structured(check_fields))

    tr_count = checks.TRANSVERSALS[11]
    pa_count = checks.Z2_CUBED_PARTITIONS
    ops = [
        count_op("count-transversals-z11", "transversals", "z11", lambda f: (
            checks.check_count(f, "transversals", tr_count)
            + checks.check_transversal_witnesses(docs("z11"), grids["z11"], min(tr_count, WITNESS_CAP)))),
        count_op("count-partitions-z2x2x2", "partitions", "z2x2x2", lambda f: (
            checks.check_count(f, "transversal_partitions", pa_count)
            + checks.check_count(f, "mates_implied", pa_count * math.factorial(8))
            + checks.check_partition_witnesses(docs("z2x2x2"), grids["z2x2x2"], min(pa_count, WITNESS_CAP)))),
        count_op("count-mates-z5", "mates", "z5", lambda f: (
            checks.check_count(f, "mates", checks.Z5_MATES)
            + checks.check_mate_witnesses(docs("z5"), grids["z5"], min(checks.Z5_MATES, WITNESS_CAP),
                                          checks.Z5_PARTITIONS))),
    ]
    ops[0].prepare = clear
    ops.append(Op("verify-witnesses",
                  lambda threads: ["verify", *emitted(), "--threads", str(threads)],
                  lambda code, stdout: checks.check_verify(code, stdout, emitted())))
    return Workload(ops, list(dirs.values()))


BUILDERS = {"census": census, "tuples": tuples, "product": product, "witnesses": witnesses}


def build(name: str, seed: int, work: Path) -> Workload:
    """Make the workload's inputs under work (emptied first)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return BUILDERS[name](seed, work)
