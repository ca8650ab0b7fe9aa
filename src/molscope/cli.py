"""Command-line surface: text formats, report documents, and subcommands.

Files are diff-friendly plain text, 1-based: a square is a line "n" followed
by n rows of n integers; a partition looks the same but holds region labels;
a system file is square blocks separated by blank lines with an optional
trailing block opened by a "PARTITION" line (and, for witnesses, a
"TRANSVERSAL" block of cell coordinates).  Inline generator specs avoid
file plumbing: cayley:3, cayley:2x2, kron:(A,B), power:(A,2), rows:3,
boxes:4, classes:(A).

Every kind of a command is one row of ``KINDS``: the flags it reads with
their defaults, and its run.  The parser has one sub-parser per kind, built
from that table, so a flag the kind does not read, or a missing flag it
needs, is a usage error.

Exit codes: 0 ok, 1 validation failure, 2 I/O, parse or usage error, 3
search limit exceeded, 4 invalid parameters, 5 certified inequality
violated, 6 internal error (a broken invariant or any other unexpected
exception).  A package error's class fixes its code (``exit_code``, see
``molscope.errors``).

Structured reports are deterministic: exact counts are decimal strings,
every value carries a unit and the operation that produced it, and nothing
schedule- or time-dependent (thread counts, timings) is included.  Tables
are for people and may show timings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

from . import bounds as bounds_mod
from . import construct as construct_mod
from .arrays import CellProfile, cell_profile
from .core import (
    LatinSquare,
    MolsSystem,
    RegionPartition,
    Square,
    Transversal,
    partition_boxes,
    partition_from_square,
    partition_rows,
    validate_latin,
    validate_mols,
)
from .errors import (
    FormatError,
    InvalidParams,
    LimitExceeded,
    MolscopeError,
    NotFoundWithinLimit,
)
from .search import (
    DEFAULT_ENUM_LIMIT,
    Exact,
    ExtensionCount,
    SearchOptions,
    _check_limit,
    check_census_order,
    count_extensions,
    count_mates,
    count_mols,
    count_mols_direct,
    count_sudoku_direct,
    count_transversal_partitions,
    enumerate_transversals,
    extension_census,
    iter_extensions,
    iter_transversal_partitions,
    iter_transversals,
)

EXIT_OK = 0
EXIT_VIOLATION = 5
EXIT_INTERNAL = 6


# --------------------------------------------------------------------------
# text formats (1-based externally)


def _block(head: object, rows: Iterable[Sequence[int]]) -> str:
    """The line ``head``, then each row of 0-based integers as 1-based values."""
    lines = [str(head)]
    for row in rows:
        lines.append(" ".join(str(x + 1) for x in row))
    return "\n".join(lines) + "\n"


def format_document(
    squares: Sequence[Sequence[Sequence[int]]],
    partition: Optional[RegionPartition] = None,
    transversal: Optional[Sequence[tuple[int, int]]] = None,
) -> str:
    """Each square under its order, then the optional ``PARTITION`` and
    ``TRANSVERSAL`` blocks, one blank line between blocks."""
    parts = [_block(len(g), g) for g in squares]
    if partition is not None:
        n, labels = partition.order, partition.labels
        parts.append(_block("PARTITION", (labels[i * n : (i + 1) * n] for i in range(n))))
    if transversal is not None:
        parts.append(_block("TRANSVERSAL", sorted(transversal)))
    return "\n".join(parts)


@dataclass
class ParsedDocument:
    squares: list[Square]
    partition: Optional[RegionPartition]
    transversal: Optional[list[tuple[int, int]]]


def _parse_int_row(line: str, lineno: int) -> list[int]:
    out = []
    for tok in line.split():
        try:
            out.append(int(tok))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {tok!r} is not an integer") from exc
    return out


def parse_document(text: str) -> ParsedDocument:
    """Parse a square/system document (see module docstring for the grammar)."""
    lines = text.splitlines()
    blocks: list[list[tuple[int, str]]] = []
    cur: list[tuple[int, str]] = []
    for no, raw in enumerate(lines, 1):
        if raw.strip():
            cur.append((no, raw.strip()))
        elif cur:
            blocks.append(cur)
            cur = []
    if cur:
        blocks.append(cur)
    if not blocks:
        raise FormatError("empty document")

    squares: list[Square] = []
    partition: Optional[RegionPartition] = None
    transversal: Optional[list[tuple[int, int]]] = None
    for block in blocks:
        no0, head = block[0]
        if head == "PARTITION":
            if partition is not None:
                raise FormatError(f"line {no0}: second PARTITION block")
            rows = [_parse_int_row(s, no) for no, s in block[1:]]
            n = len(rows)
            if n == 0 or any(len(r) != n for r in rows):
                raise FormatError(f"line {no0}: PARTITION block must be square")
            labels = [x - 1 for row in rows for x in row]
            if any(not 0 <= x < n for x in labels):
                raise FormatError(f"line {no0}: region labels must be 1..{n}")
            try:
                partition = RegionPartition(n, labels)
            except MolscopeError as exc:
                raise FormatError(f"line {no0}: {exc}") from exc
        elif head == "TRANSVERSAL":
            if transversal is not None:
                raise FormatError(f"line {no0}: second TRANSVERSAL block")
            transversal = []
            for no, s in block[1:]:
                row = _parse_int_row(s, no)
                if len(row) != 2:
                    raise FormatError(f"line {no}: expected 'row col'")
                transversal.append((row[0] - 1, row[1] - 1))
        else:
            head_row = _parse_int_row(head, no0)
            if len(head_row) != 1:
                raise FormatError(
                    f"line {no0}: a square block starts with its order on a line"
                )
            n = head_row[0]
            if n < 1:
                raise FormatError(f"line {no0}: a square's order must be at least 1, got {n}")
            body = block[1:]
            if len(body) != n:
                raise FormatError(
                    f"line {no0}: expected {n} rows after the order line, got {len(body)}"
                )
            rows = []
            for no, s in body:
                row = _parse_int_row(s, no)
                if len(row) != n:
                    raise FormatError(f"line {no}: expected {n} entries")
                if any(not 1 <= x <= n for x in row):
                    raise FormatError(f"line {no}: symbols must be 1..{n}")
                rows.append([x - 1 for x in row])
            squares.append(Square(rows))
    return ParsedDocument(squares, partition, transversal)


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _split_top_level(s: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError(f"unbalanced parentheses in {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise FormatError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _spec_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise FormatError(f"{what}: {text!r} is not an integer") from exc


def resolve_square_spec(spec: str) -> LatinSquare:
    """A square from an inline generator spec or from a file path."""
    spec = spec.strip()
    if spec.startswith("cayley:"):
        dims = [_spec_int(d, "cayley spec") for d in spec[7:].split("x")]
        return construct_mod.cayley_table(construct_mod.GroupSpec(dims))
    if spec.startswith("kron:(") and spec.endswith(")"):
        args = _split_top_level(spec[6:-1])
        if len(args) != 2:
            raise FormatError("kron:(A,B) takes exactly two arguments")
        return construct_mod.kronecker(
            resolve_square_spec(args[0]), resolve_square_spec(args[1])
        )
    if spec.startswith("power:(") and spec.endswith(")"):
        args = _split_top_level(spec[7:-1])
        if len(args) != 2:
            raise FormatError("power:(A,k) takes exactly two arguments")
        return construct_mod.power(
            resolve_square_spec(args[0]), _spec_int(args[1], "power spec")
        )
    doc = parse_document(_read_file(spec))
    if len(doc.squares) != 1:
        raise FormatError(f"{spec}: expected exactly one square")
    return validate_latin(doc.squares[0])


def _searchable_order(n: int) -> int:
    """``n``, refused when it is not positive or past the extension-counting
    limit, before any n×n partition is built."""
    if n < 1:
        raise InvalidParams("order must be positive")
    _check_limit(n, DEFAULT_ENUM_LIMIT, "extension counting")
    return n


def resolve_partition_spec(spec: str) -> RegionPartition:
    """A partition from rows:n, boxes:n, classes:(SPEC), or a file path."""
    spec = spec.strip()
    if spec.startswith("rows:"):
        return partition_rows(_searchable_order(_spec_int(spec[5:], "rows spec")))
    if spec.startswith("boxes:"):
        return partition_boxes(_searchable_order(_spec_int(spec[6:], "boxes spec")))
    if spec.startswith("classes:(") and spec.endswith(")"):
        inner = resolve_square_spec(spec[9:-1])
        return partition_from_square(inner.square)
    doc = parse_document(_read_file(spec))
    if doc.partition is not None and not doc.squares:
        return doc.partition
    if len(doc.squares) == 1 and doc.partition is None:
        # a bare square-shaped grid of labels
        return RegionPartition(
            doc.squares[0].order, [x for row in doc.squares[0].grid for x in row]
        )
    raise FormatError(f"{spec}: expected a partition document")


# --------------------------------------------------------------------------
# report documents


@dataclass
class ReportField:
    name: str
    value: object
    unit: Optional[str] = None  # "exact count" | "nats" | None
    provenance: Optional[str] = None  # operation id
    exact: Optional[bool] = None  # for counts: full count vs "at least"
    asymptotic_only: Optional[bool] = None


@dataclass
class ReportDocument:
    command: str
    params: dict
    fields: list[ReportField] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, name, value, **kw) -> None:
        self.fields.append(ReportField(name, value, **kw))

    def to_structured(self) -> str:
        def render_value(v):
            if isinstance(v, bool):
                return v
            if isinstance(v, int):
                return str(v)  # decimal string: arbitrary precision survives
            if isinstance(v, float) and not math.isfinite(v):
                return repr(v)  # keep the JSON strictly valid
            return v

        results = []
        for f in self.fields:
            item: dict = {"name": f.name, "value": render_value(f.value)}
            if f.unit is not None:
                item["unit"] = f.unit
            if f.provenance is not None:
                item["provenance"] = f.provenance
            if f.exact is not None:
                item["exact"] = f.exact
            if f.asymptotic_only:
                item["asymptotic_only"] = True
            results.append(item)
        doc = {
            "command": self.command,
            "params": {k: render_value(v) for k, v in self.params.items()},
            "results": results,
        }
        if self.notes:
            doc["notes"] = list(self.notes)
        return json.dumps(doc, indent=2) + "\n"

    def to_table(self, elapsed: Optional[float] = None) -> str:
        lines = [f"== {self.command} =="]
        if self.params:
            lines.append(
                "   " + "  ".join(f"{k}={v}" for k, v in self.params.items())
            )
        width = max((len(f.name) for f in self.fields), default=0)
        for f in self.fields:
            val = f.value
            unit = f" {f.unit}" if f.unit else ""
            prov = f"  [{f.provenance}]" if f.provenance else ""
            extra = ""
            if f.exact is False:
                extra += "  (at least: search stopped at threshold)"
            if f.asymptotic_only:
                extra += "  (asymptotic reference, not a valid finite-n bound)"
            lines.append(f"  {f.name.ljust(width)}  {val}{unit}{prov}{extra}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if elapsed is not None:
            lines.append(f"  elapsed: {elapsed:.3f} s")
        return "\n".join(lines) + "\n"


def _count_field(
    doc: ReportDocument, name: str, res: ExtensionCount, provenance: str
) -> None:
    doc.add(
        name,
        res.value.count,
        unit="exact count",
        provenance=provenance,
        exact=res.exact_flag,
    )


# --------------------------------------------------------------------------
# witness emission


def _column_grid(col: Sequence[int], n: int) -> list[list[int]]:
    """A flat row-major symbol column as an n x n grid."""
    return [list(col[i * n : (i + 1) * n]) for i in range(n)]


def _write_witnesses(args, docs: list[str]) -> int:
    outdir = args.emit_witnesses
    try:
        os.makedirs(outdir, exist_ok=True)
        for idx, text in enumerate(docs, 1):
            path = os.path.join(outdir, f"witness-{idx:06d}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write witnesses to {outdir}: {exc}") from exc
    return len(docs)


def _witness_cap(args) -> Optional[int]:
    """How many witnesses a count writes: none unless they are emitted."""
    if args.cap <= 0:
        raise InvalidParams("cap must be positive")
    return args.cap if args.emit_witnesses else None


def _threads(args) -> int:
    return args.threads if args.threads is not None else (os.cpu_count() or 1)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


# --------------------------------------------------------------------------
# subcommand: verify


def cmd_verify(args) -> int:
    code = EXIT_OK
    for path in args.paths:
        try:
            doc = parse_document(_read_file(path))
            latins = [validate_latin(s) for s in doc.squares]
            if latins:
                validate_mols(latins, doc.partition)
            if doc.transversal is not None:
                if not latins:
                    raise FormatError("TRANSVERSAL block without a square")
                Transversal.of(latins[0], doc.transversal)
            print(f"{path}: ok")
        except MolscopeError as exc:
            label = "parse error" if isinstance(exc, FormatError) else "invalid"
            print(f"{path}: {label}: {exc}", file=sys.stderr)
            code = max(code, exc.exit_code)
    return code


# --------------------------------------------------------------------------
# subcommand: count


def _read_square(args) -> tuple[LatinSquare, dict]:
    if len(args.square) != 1:
        raise FormatError("this operation takes exactly one --square")
    return resolve_square_spec(args.square[0]), {"square": args.square[0]}


def _read_system(args) -> tuple[MolsSystem, dict]:
    params = {k: v for k, v in (("system", args.system), ("squares", args.square),
                                ("partition", args.partition)) if v}
    if args.system:
        if args.square or args.partition:
            raise FormatError("--system takes neither --square nor --partition")
        doc = parse_document(_read_file(args.system))
        if not doc.squares and doc.partition is None:
            raise FormatError(f"{args.system}: a system document needs a square "
                              f"or a PARTITION block")
        latins = [validate_latin(s) for s in doc.squares]
        partition = doc.partition
        if partition is None:
            partition = partition_rows(latins[0].order)
        return validate_mols(latins, partition), params
    squares = [resolve_square_spec(s) for s in args.square or []]
    if not squares and not args.partition:
        raise FormatError("need --system, --square, or --partition")
    # every input's flag and order, so that a mismatch names its flags
    named = [(f"--square {spec}", sq.order) for spec, sq in zip(args.square or [], squares)]
    partition = None
    if args.partition:
        partition = resolve_partition_spec(args.partition)
        named.append((f"--partition {args.partition}", partition.order))
    (first, order), *rest = named
    for flag, n in rest:
        if n != order:
            raise InvalidParams(f"{first} has order {order}, but {flag} has order {n}")
    return validate_mols(squares, partition or partition_rows(order)), params


def _partition_doc(square: LatinSquare, parts) -> str:
    labels = [0] * (square.order**2)
    for t, part in enumerate(parts):
        for i, j in part:
            labels[i * square.order + j] = t
    return format_document([square.grid], partition=RegionPartition(square.order, labels))


def _extension_doc(system: MolsSystem, col) -> str:
    grids = [s.grid for s in system.squares] + [_column_grid(col, system.order)]
    return format_document(grids, partition=system.partition)


def _mates_implied(doc: ReportDocument, square: LatinSquare, res: ExtensionCount) -> None:
    """Each transversal partition of a square gives n! of its mates."""
    if res.exact_flag:
        doc.add("mates_implied", res.value.count * math.factorial(square.order),
                unit="exact count", provenance="partitions-times-factorial", exact=True)


def _cross_check(direct: Callable) -> Callable:
    """Recount an exact count with ``direct``, an engine that shares no code
    with the first; where it does not reach it raises ``LimitExceeded`` and
    the report notes the skip."""

    def check(doc: ReportDocument, source, res: ExtensionCount) -> None:
        if not res.exact_flag:
            doc.notes.append("direct cross-check skipped: the count stopped at its threshold")
            return
        try:
            value = direct(source)
        except LimitExceeded as exc:
            doc.notes.append(f"direct cross-check skipped: {exc}")
            return
        doc.add("direct_count", value, unit="exact count",
                provenance="direct-backtracking", exact=True)
        doc.add("engines_agree", value == res.value.count, provenance="cross-check")

    return check


def _counter(read: Callable, engine: Callable, name: str, provenance: str,
             witnesses: Optional[tuple[Callable, Callable]] = None,
             then: Optional[Callable] = None) -> Callable:
    """The run of one ``count`` kind.  ``read`` gives the engine's input and
    the report params; ``then`` adds the fields that follow the count.  A
    kind with ``witnesses = (walk, doc)`` reads the ``WITNESS_FLAGS``; unless
    a comparison or cross-check failed, ``--emit-witnesses`` writes
    ``doc(source, w)`` for the first min(cap, count) ``w`` of ``walk(source)``.
    Rows call engines and walks through lambdas, which look them up by name
    at each call, so a test or tracer can substitute one."""

    def run(args, doc: ReportDocument) -> None:
        cap = _witness_cap(args) if witnesses else None
        opts = SearchOptions(stop_threshold=args.threshold, threads=_threads(args))
        source, doc.params = read(args)
        res = engine(source, opts)
        _count_field(doc, name, res, provenance)
        if then:
            then(doc, source, res)
        if cap and res.value.count and not _violated(doc):
            walk, witness_doc = witnesses
            found = islice(walk(source), min(cap, res.value.count))
            written = _write_witnesses(args, [witness_doc(source, w) for w in found])
            doc.notes.append(f"wrote {written} witness files")

    return run


# --------------------------------------------------------------------------
# subcommand: bound


def _bound(evaluate: Callable, integer: bool = False) -> Callable:
    """The run of one ``bound`` kind: one field per entry of
    ``evaluate(n, k)``.  An ``integer`` kind refuses a fractional --n."""

    def run(args, doc: ReportDocument) -> None:
        n = int(args.n) if float(args.n).is_integer() else args.n
        if integer and not isinstance(n, int):
            raise InvalidParams(f"{doc.command} needs an integer --n, got {args.n}")
        if not math.isfinite(args.n):
            raise InvalidParams(f"{doc.command} needs a finite --n, got {args.n}")
        doc.params = {"n": n, "k": args.k}
        try:
            entries = evaluate(n, args.k)
        except OverflowError as exc:
            raise InvalidParams(f"{doc.command} overflows at --n {args.n}") from exc
        for e in entries:
            if not math.isfinite(e.value):
                raise InvalidParams(f"{doc.command} at --n {args.n}: {e.name} is not finite")
            doc.add(e.name, e.value, unit="nats", provenance=e.source,
                    asymptotic_only=e.asymptotic_only or None)

    return run


# --------------------------------------------------------------------------
# subcommand: certify


def _decide(doc: ReportDocument, name: str, low, high, slack=0) -> None:
    """Add the comparison ``name``: whether low <= high + slack.  Every
    certificate decides here, and its caller says why its slack is there.
    The default slack 0 keeps a comparison of integers exact; a NaN on
    either side fails."""
    doc.add(name, low <= high + slack, provenance="comparison")


def _dominance(doc: ReportDocument, prefix: str, k: int, hist: dict[int, int],
               systems_from: str, bound: float, bound_from: str) -> None:
    """Report census level k ({extension count: systems}) and whether
    ln(max) <= bound + 1e-6."""
    mx = max(hist, default=0)
    doc.add(f"{prefix}systems_k{k}", sum(hist.values()), unit="exact count",
            provenance=systems_from, exact=True)
    doc.add(f"{prefix}max_extensions_k{k}", mx, unit="exact count",
            provenance="extension-engine", exact=True)
    doc.add(f"{prefix}bound_k{k}", bound, unit="nats", provenance=bound_from)
    # extension: the closed-form I_d rounds by about 1e-14 per cell (2.5e-13
    # at worst), not yet enclosed; gerechte: Simpson buckets at DEFAULT_TOL
    _decide(doc, f"{prefix}dominates_k{k}", Exact(mx).ln(), bound, 1e-6)


def _certify_extension(args, doc: ReportDocument) -> None:
    n = args.n
    if args.all_k and args.k is not None:
        raise FormatError("certify extension takes --k or --all-k, not both")
    ks = list(range(n - 1)) if args.all_k else [args.k or 0]
    if not args.all_k and ks[0] < 0:
        raise InvalidParams(f"certify extension needs a nonnegative --k, got {args.k}")
    doc.params = {"n": n, "k": "all" if args.all_k else ks[0]}
    ks = [k for k in ks if k <= n - 2]
    if not ks:
        raise InvalidParams(f"certify extension --n {n}: nothing to compare, "
                            f"since k must be at most n - 2 = {n - 2}")
    check_census_order(n)
    census = extension_census(partition_rows(n), max(ks))
    for k in ks:
        _dominance(doc, "", k, census[k], "chained-extension-engine",
                   bounds_mod.extension_bound_mols(n, k), "per-cell-integral")


def _certify_gerechte(args, doc: ReportDocument) -> None:
    n = args.n
    if n < 1:
        raise InvalidParams("order must be positive")
    if not args.partition:
        check_census_order(n)  # both suites are censuses at order n
    doc.params = {"n": n}
    kmax = max(n - 2, 0)
    suites = []  # (label, census levels 0..kmax, profile of the partition)
    if args.partition or (n >= 4 and math.isqrt(n) ** 2 == n):
        p = resolve_partition_spec(args.partition) if args.partition else partition_boxes(n)
        if p.order != n:
            raise InvalidParams(f"certify gerechte --n {n} does not match the "
                                f"order {p.order} of partition {args.partition}")
        suites.append((args.partition or "boxes", extension_census(p, kmax),
                       cell_profile(p)))
    if not args.partition:
        # k-systems gerechte for a square's symbol classes are the (k+1)-systems
        # on the rows that start with it; its classes have r = c = 0 everywhere
        suites.append(("symbol-classes", extension_census(partition_rows(n), kmax + 1)[1:],
                       CellProfile(n, (0,) * (n * n), (0,) * (n * n))))
    for label, census, profile in suites:
        for k, hist in enumerate(census):
            _dominance(doc, f"{label}_", k, hist, "extension-engine",
                       bounds_mod.extension_bound_general(profile, k + 3),
                       "general-profile-bound")


def _certify_product(args, doc: ReportDocument) -> None:
    base = resolve_square_spec(args.base)
    doc.params = {"base": args.base}
    n1 = base.order
    mates = count_mates(base).value
    q, logq = mates.count, mates.ln()
    product = construct_mod.kronecker(base, base)
    n = product.order
    bound_exact = construct_mod.product_mate_bound_exact(n1, n1, q, q)
    fact = math.factorial(n)
    threshold = max(1, -(-bound_exact // fact))  # ceil
    res = count_transversal_partitions(product, SearchOptions(stop_threshold=threshold))
    mates_certified = res.value.count * fact
    doc.add("base_mates", q, unit="exact count", provenance="extension-engine", exact=True)
    doc.add("product_order", n, provenance="block-product")
    doc.add("bound_exact", bound_exact, unit="exact count", provenance="product-bound")
    doc.add("bound_nats", construct_mod.product_mate_bound(n1, n1, logq, logq),
            unit="nats", provenance="product-bound")
    doc.add("partitions_threshold", threshold, unit="exact count", provenance="product-bound")
    _count_field(doc, "partitions_found", res, "exact-cover")
    doc.add("mates_certified", mates_certified, unit="exact count",
            provenance="partitions-times-factorial", exact=res.exact_flag)
    _decide(doc, "certified", bound_exact, mates_certified)  # exact integers: no slack


def _certify_power(args, doc: ReportDocument) -> None:
    if args.m < 2:
        raise InvalidParams(f"certify power --m {args.m}: the base order must be at least 2")
    if args.q < 0:
        raise InvalidParams(f"certify power --q {args.q}: a mate count cannot be negative")
    if args.k < 1:
        raise InvalidParams(f"certify power --k {args.k}: nothing to compare, "
                            f"since k must be at least 1")
    # step k needs log (m^(k+1))!
    top = 0  # the last step in reach
    while args.m ** (top + 2) <= bounds_mod.MAX_FACTORIAL:
        top += 1
    if args.k > top:
        reach = f"--m {args.m} runs up to --k {top}" if top else "--m must be at most 1000"
        raise InvalidParams(f"certify power --m {args.m} --k {args.k}: step k needs "
                            f"log (m^(k+1))!, defined here up to 10^6, so {reach}")
    doc.params = {"m": args.m, "q": args.q, "k": args.k}
    logq = Exact(args.q).ln()
    for kk in range(1, args.k + 1):
        lhs = construct_mod.product_mate_bound(
            args.m**kk, args.m, construct_mod.power_mate_bound(args.m, logq, kk), logq)
        rhs = construct_mod.power_mate_bound(args.m, logq, kk + 1)
        doc.add(f"step_bound_k{kk}", lhs, unit="nats", provenance="product-bound")
        doc.add(f"power_bound_k{kk + 1}", rhs, unit="nats", provenance="power-bound")
        # lhs - rhs is ln of the ways to split m^(k+1) items into m^k blocks of
        # m, at least ln 3: that margin, not the 1e-9 slack, decides the step
        _decide(doc, f"recursion_holds_k{kk}", rhs, lhs, 1e-9)


def _certify_constant(args, doc: ReportDocument) -> None:
    doc.params = {"constant": args.constant, "limit": args.limit, "power": args.power}
    cert = construct_mod.construct_for_constant(args.constant, args.limit, args.power)
    need = cert.order**2 * math.log(args.constant)
    doc.add("base_order", cert.base.order, provenance="exhaustive-search")
    doc.add("base_mates", cert.base_mates, unit="exact count", provenance="exact-cover",
            exact=True)
    doc.add("construction", cert.description, provenance="power-bound")
    doc.add("certified_log_mates", cert.log_lower_bound, unit="nats",
            provenance="power-bound")
    doc.add("required_log_mates", need, unit="nats", provenance="target-constant")
    # float rounding of the exponent * ln q sum and of n^2 ln C
    _decide(doc, "certified", need, cert.log_lower_bound, 1e-9)


def _certify_estimate(args, doc: ReportDocument) -> None:
    doc.params = {"max_n": args.max_n}
    tol = 2e-9
    points, worst = bounds_mod.estimate_sweep(args.max_n)
    doc.add("grid_points", points, unit="exact count", provenance="quadrature-sweep")
    doc.add("worst_gap", worst, unit="nats", provenance="quadrature-sweep")
    doc.add("tolerance", tol, unit="nats", provenance="quadrature-sweep")
    _decide(doc, "dominates", worst, tol)  # the slack is the tolerance it reports


# --------------------------------------------------------------------------
# subcommand: construct


def _group(args) -> construct_mod.GroupSpec:
    return construct_mod.GroupSpec([_spec_int(d, "--group") for d in args.group.split("x")])


def _square_kind(flags: dict, build: Callable) -> tuple[dict, Callable]:
    """The row of a ``construct`` kind that reads ``flags`` and prints the
    square ``build(args, doc)`` returns, with those flags as the report
    params."""

    def run(args, doc: ReportDocument) -> str:
        doc.params = {_dest(f): getattr(args, _dest(f)) for f in flags}
        return format_document([build(args, doc).grid])

    return flags, run


def _constant_base(args, doc: ReportDocument) -> LatinSquare:
    cert = construct_mod.construct_for_constant(args.constant, args.limit, args.power)
    doc.add("construction", cert.description, provenance="power-bound")
    doc.add("base_mates", cert.base_mates, unit="exact count", provenance="exact-cover",
            exact=True)
    doc.add("certified_log_mates", cert.log_lower_bound, unit="nats",
            provenance="power-bound")
    return cert.base


def _translate_mates(args, doc: ReportDocument) -> str:
    g = _group(args)
    table = construct_mod.cayley_table(g)
    if args.count is not None and args.count < 0:
        raise InvalidParams(f"cannot emit a negative number of mates ({args.count})")
    if args.transversal:
        tdoc = parse_document(_read_file(args.transversal))
        if tdoc.transversal is None:
            raise FormatError(f"{args.transversal}: no TRANSVERSAL block")
        cells = tdoc.transversal
    else:
        # count on orbits first: a bare walk exhausts a table with none
        if not enumerate_transversals(table, SearchOptions(stop_threshold=1)).value.count:
            raise NotFoundWithinLimit(f"the order-{g.order} table has no transversal")
        cells = next(iter_transversals(table))
    t = Transversal.of(table, cells)
    partition, mates = construct_mod.translate_mates(g, t)
    if args.emit_witnesses:  # only the mates written are built and checked
        _write_witnesses(args, [format_document([table.grid, mate.grid])
                                for mate in islice(mates, args.count)])
    everything = math.factorial(g.order)
    emitted = everything if args.count is None else min(args.count, everything)
    doc.params = {"group": args.group, "count": args.count}
    doc.add("mates_emitted", emitted, unit="exact count",
            provenance="translate-construction", exact=True)
    doc.add("partition_parts", partition.order, provenance="translate-construction")
    return format_document([table.grid], partition=partition, transversal=t.sorted_cells())


# --------------------------------------------------------------------------
# the kind table, its parser and its dispatcher


NEEDED = object()  # the default of a flag its kind cannot run without
# the flags of a kind that writes witness files, with their defaults
WITNESS_FLAGS = {"--cap": 1000, "--emit-witnesses": None}
EXTENSION_WITNESSES = (lambda system: iter_extensions(system), _extension_doc)


# KINDS[command][kind] = (flags, run).  ``flags`` maps each flag the kind
# reads, beside those COMMANDS gives its whole command, to its default, or
# to NEEDED, which makes the flag required; ``run(args, doc)`` sets the
# report's params, adds its fields and returns the document a ``construct``
# kind prints (None for the other commands).
KINDS: dict[str, dict[str, tuple[dict, Callable]]] = {
    "count": {
        "transversals": ({"--square": NEEDED, **WITNESS_FLAGS}, _counter(
            _read_square, lambda sq, opts: enumerate_transversals(sq, opts),
            "transversals", "row-backtracking",
            (lambda sq: iter_transversals(sq),
             lambda sq, cells: format_document([sq.grid], transversal=cells)))),
        "partitions": ({"--square": NEEDED, **WITNESS_FLAGS}, _counter(
            _read_square, lambda sq, opts: count_transversal_partitions(sq, opts),
            "transversal_partitions", "exact-cover",
            (lambda sq: iter_transversal_partitions(sq), _partition_doc), _mates_implied)),
        "mates": ({"--square": NEEDED, **WITNESS_FLAGS}, _counter(
            _read_square, lambda sq, opts: count_mates(sq, opts), "mates", "extension-engine",
            (lambda sq: iter_extensions(validate_mols([sq], partition_rows(sq.order))),
             lambda sq, col: format_document([sq.grid, _column_grid(col, sq.order)])))),
        "extensions": ({"--system": None, "--square": None, "--partition": None,
                        **WITNESS_FLAGS}, _counter(
            _read_system, lambda system, opts: count_extensions(system, opts),
            "extensions", "extension-engine", EXTENSION_WITNESSES)),
        "mols": ({"--n": NEEDED, "--k": 1}, _counter(
            lambda args: ((args.n, args.k), {"n": args.n, "k": args.k}),
            lambda nk, opts: count_mols(*nk, opts), "count", "chained-extension-engine",
            then=_cross_check(lambda nk: count_mols_direct(*nk)))),
        # a Sudoku square is an extension of the empty system on the boxes
        "sudoku": ({"--n": NEEDED, **WITNESS_FLAGS}, _counter(
            lambda args: (validate_mols([], partition_boxes(_searchable_order(args.n))),
                          {"n": args.n}),
            lambda system, opts: count_extensions(system, opts), "sudoku_squares",
            "extension-engine", EXTENSION_WITNESSES,
            _cross_check(lambda system: count_sudoku_direct(system.order)))),
    },
    "bound": {
        "extension": ({"--k": 1}, _bound(bounds_mod.extension_entries, integer=True)),
        "mols-count": ({"--k": 1}, _bound(bounds_mod.mols_count_bound)),
        "sudoku": ({"--k": 1}, _bound(bounds_mod.sudoku_extension_bound, integer=True)),
    },
    "certify": {
        "extension": ({"--n": NEEDED, "--k": None, "--all-k": False}, _certify_extension),
        "gerechte": ({"--n": NEEDED, "--partition": None}, _certify_gerechte),
        "product": ({"--base": NEEDED}, _certify_product),
        "power": ({"--m": NEEDED, "--q": NEEDED, "--k": NEEDED}, _certify_power),
        "constant": ({"--constant": NEEDED, "--limit": 5, "--power": 2}, _certify_constant),
        "estimate": ({"--max-n": 50}, _certify_estimate),
    },
    "construct": {
        "cayley": _square_kind({"--group": NEEDED},
                               lambda args, doc: construct_mod.cayley_table(_group(args))),
        "kron": _square_kind({"--a": NEEDED, "--b": NEEDED}, lambda args, doc: (
            construct_mod.kronecker(resolve_square_spec(args.a), resolve_square_spec(args.b)))),
        "power": _square_kind({"--base": NEEDED, "--k": 2}, lambda args, doc: (
            construct_mod.power(resolve_square_spec(args.base), args.k))),
        "translate-mates": ({"--group": NEEDED, "--transversal": None, "--count": None,
                             "--emit-witnesses": None}, _translate_mates),
        "constant": _square_kind({"--constant": NEEDED, "--limit": 5, "--power": 2},
                                 _constant_base),
    },
}

# COMMANDS[command] = (help, the flags every kind of it reads beside --format).
# verify and certify read no --threads, but take it: bench/run.py passes it
# to every command it times.
COMMANDS = {
    "verify": ("validate square/system documents", ("--threads",)),
    "count": ("exact enumeration", ("--threads", "--threshold")),
    "bound": ("numeric bound evaluation", ()),
    "certify": ("check a bound against exact counts", ("--threads",)),
    "construct": ("emit constructed objects", ()),
}

# Each flag's argparse keywords.  A kind's own flag takes its default from
# the kind's row; a flag COMMANDS gives a whole command defaults to None,
# but --format to table.
FLAGS = {
    "--square": dict(action="append", help="square spec (file or generator); repeatable"),
    "--system": dict(help="system document file"),
    "--partition": dict(help="partition spec"),
    "--n": dict(type=int),
    "--k": dict(type=int),
    "--all-k": dict(action="store_true"),
    "--base": dict(help="base square spec"),
    "--m": dict(type=int, help="base order"),
    "--q": dict(type=int, help="base mate count"),
    "--constant": dict(type=float, help="target constant"),
    "--limit": dict(type=int, help="max base order"),
    "--power": dict(type=int, help="power for the certificate"),
    "--max-n": dict(type=int, help="estimate sweep limit"),
    "--group": dict(help="cyclic factors, e.g. 3 or 2x2"),
    "--a": dict(help="first factor square spec"),
    "--b": dict(help="second factor square spec"),
    "--transversal": dict(help="file with a TRANSVERSAL block"),
    "--count": dict(type=int, help="how many mates to emit"),
    "--threads": dict(type=int, help="worker processes of a count (default: all "
                                     "cores); verify and certify run in-process"),
    "--cap": dict(type=int, help="max witness files to emit with --emit-witnesses "
                                 "(default %(default)s); must be positive even without it"),
    "--threshold": dict(type=int, help="stop counting once at least this many are found"),
    "--emit-witnesses": dict(metavar="DIR", help="write witness files to this directory"),
    "--format": dict(choices=("table", "structured"), default="table", help="report format"),
}


def _violated(doc: ReportDocument) -> bool:
    """True when a comparison or a cross-check of the report failed."""
    return any(f.value is False and f.provenance in ("comparison", "cross-check")
               for f in doc.fields)


def cmd_kind(args) -> int:
    """Run one kind of ``count``, ``bound``, ``certify`` or ``construct``
    (its parser has checked its flags): print its report, and exit 5 when one
    of the report's comparisons or cross-checks failed."""
    started = time.monotonic()
    _, run = KINDS[args.command][args.kind]
    doc = ReportDocument(f"{args.command} {args.kind}", {})
    text = run(args, doc)
    if args.format == "structured":
        if text is not None:
            doc.add("document", text)
        sys.stdout.write(doc.to_structured())
    else:
        # a construct's table is its document, then any result fields
        if text is not None:
            sys.stdout.write(text)
        if text is None or doc.fields:
            sys.stdout.write(doc.to_table(elapsed=time.monotonic() - started))
    return EXIT_VIOLATION if _violated(doc) else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per command, and under each command but verify one
    per kind, with the flags COMMANDS and KINDS give it.  Each of these sets
    ``parser`` to itself, so ``_parse_args`` can refuse an unread flag there."""
    ap = argparse.ArgumentParser(
        prog="molscope",
        description="Workbench for mutually orthogonal Latin squares and "
                    "gerechte designs: validate, count, bound, certify, "
                    "construct.",
    )
    commands = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, shared) in COMMANDS.items():
        common = argparse.ArgumentParser(add_help=False)
        for flag in (*shared, "--format"):
            common.add_argument(flag, **FLAGS[flag])
        if command == "bound":
            common.add_argument("--n", type=float, required=True)
        if command == "verify":
            p = commands.add_parser(command, help=help_text, parents=[common])
            p.add_argument("paths", nargs="+")
            p.set_defaults(parser=p)
            continue
        kinds = commands.add_parser(command, help=help_text).add_subparsers(
            dest="kind", required=True, help=", ".join(KINDS[command]),
            metavar="target" if command == "certify" else "kind")
        for kind, (flags, _) in KINDS[command].items():
            k = kinds.add_parser(kind, parents=[common])
            for flag, default in flags.items():
                k.add_argument(flag, default=None if default is NEEDED else default,
                               required=default is NEEDED, **FLAGS[flag])
            k.set_defaults(parser=k)
    return ap


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    """The parsed argv.  argparse hands a flag the kind does not take back to
    the top parser, so it is refused here by the kind's own parser, whose
    usage lists the flags the kind takes.  The parsers are not kept."""
    args, unread = build_parser().parse_known_args(argv)
    parser = vars(args).pop("parser")
    if unread:
        parser.error(f"unrecognized arguments: {' '.join(unread)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  A package error prints
    ``error: <message>`` and exits with its class's ``exit_code``; any other
    exception is a bug and exits 6.  Either is one stderr line."""
    args = _parse_args(argv)
    try:
        return (cmd_verify if args.command == "verify" else cmd_kind)(args)
    except MolscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except RuntimeError as exc:  # a broken internal invariant
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other unexpected failure is a bug too
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
