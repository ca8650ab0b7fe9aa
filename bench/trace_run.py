"""The traced run: per-layer metrics for one workload.

The workload's commands run in this process through `molscope.cli.main` at
--threads 1, three times:

1. untraced, timing only the pool-capable search calls that the CLI makes;
2. traced: every public function of core, arrays, search, bounds,
   construct and cli (and the validating constructors) is wrapped from here,
   and each call records a span (name, start, end, parent) in memory;
3. the pool-capable calls of pass 1 again at $(nproc) processes, timed from
   outside.

Self time of a span is its duration minus its children's.  Tracing overhead
is the wall time of pass 2 minus that of pass 1.  Spans are written to
spans.tsv in the work directory at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYERS = ("core", "arrays", "search", "bounds", "construct", "cli")
# Methods traced besides module-level functions: constructors that validate
# their invariants, the column append of the census, and report rendering.
METHODS = {
    "core": [("Square", "__init__"), ("LatinSquare", "__post_init__"),
             ("RegionPartition", "__init__"), ("MolsSystem", "__init__"),
             ("Transversal", "of")],
    "arrays": [("NearlyOrthArray", "__init__"), ("NearlyOrthArray", "with_column"),
               ("OrthArray", "__init__"), ("CellProfile", "__post_init__")],
    "cli": [("ReportDocument", "to_structured"), ("ReportDocument", "to_table")],
}
# Search spans grouped by engine; the census group is every function that
# walks all systems.
SEARCH_GROUPS = {
    "extension": ("count_extensions", "count_mates"),
    "chain": ("count_mols",),
    "census": ("max_extensions", "extension_census", "iter_mols_systems",
               "iter_extensions", "columns_to_system"),
    "direct": ("count_latin_direct", "count_sudoku_direct", "count_mols_direct",
               "iter_latin_direct", "gerechte_mates_direct"),
    "transversal": ("enumerate_transversals",),
    "cover": ("count_transversal_partitions",),
}
CLI_GROUPS = {
    "parse": ("parse_document", "resolve_square_spec", "resolve_partition_spec"),
    "verify": ("cmd_verify",),
    "render": ("format_square", "format_partition_block", "format_transversal_block",
               "format_document", "ReportDocument.to_structured", "ReportDocument.to_table"),
}
# What each search function adds to a work counter: per returned value, or
# per item a generator yields.
RESULT_COUNTERS = {
    "search.count_extensions": ("extension_leaves", lambda r: r.value.count),
    "search.count_mols": ("chain_leaves", lambda r: r.value.count),
    "search.extension_census": ("census_systems", lambda r: sum(sum(h.values()) for h in r)),
    "search.count_latin_direct": ("direct_squares", lambda r: r),
    "search.count_sudoku_direct": ("direct_squares", lambda r: r),
    "search.enumerate_transversals": ("transversals_found", lambda r: r.value.count),
    "search.count_transversal_partitions": ("cover_partitions", lambda r: r.value.count),
}
YIELD_COUNTERS = {
    "search.iter_extensions": "extension_leaves",
    "search.iter_mols_systems": "census_systems",
    "search.iter_latin_direct": "direct_squares",
}
POOLED = ("count_extensions", "count_mates", "count_mols",
          "enumerate_transversals", "count_transversal_partitions")
IMPORT_SAMPLES = 7


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter
        if inspect.isgeneratorfunction(fn):
            counter = YIELD_COUNTERS.get(name)

            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:  # one span per resumption
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1] if stack else -1
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        spans[idx] = (name, t0, clock(), parent)
                        stack.pop()
                    if counter:
                        counters[counter] = counters.get(counter, 0) + 1
                    yield item

            return traced_gen

        counter, amount = RESULT_COUNTERS.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if counter:
                counters[counter] = counters.get(counter, 0) + amount(result)
            return result

        return traced


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "molscope" or name.startswith("molscope.")]


def _patch(replacements: dict) -> list:
    """Rebind every module global that refers to a replaced function."""
    undo = []
    for mod in _package_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                undo.append((mod, attr, obj))
                setattr(mod, attr, replacements[obj])
    return undo


def install(tracer: Tracer) -> list:
    replacements = {}
    undo = []
    for layer in LAYERS:
        mod = importlib.import_module(f"molscope.{layer}")
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replacements[obj] = tracer.wrap(f"{layer}.{attr}", obj)
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            undo.append((cls, meth, orig))
            if isinstance(orig, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(f"{layer}.{cls_name}.{meth}", orig.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", orig))
    return undo + _patch(replacements)


def uninstall(undo: list) -> None:
    for owner, attr, obj in reversed(undo):
        setattr(owner, attr, obj)


class PoolRecorder:
    """Times the pool-capable search calls the CLI makes with options."""

    def __init__(self, search_mod):
        self.calls: list = []  # (fn, args, kwargs, wall s, cpu s)
        self.search = search_mod

    def install(self) -> list:
        def timed(fn):
            def call(*args, **kwargs):
                if not any(isinstance(a, self.search.SearchOptions) for a in (*args, *kwargs.values())):
                    return fn(*args, **kwargs)
                t0, c0 = time.perf_counter(), _cpu()
                result = fn(*args, **kwargs)
                self.calls.append((fn, args, kwargs, time.perf_counter() - t0, _cpu() - c0))
                return result
            return call

        cli = sys.modules["molscope.cli"]
        undo = []
        for name in POOLED:
            if hasattr(cli, name):
                undo.append((cli, name, getattr(cli, name)))
                setattr(cli, name, timed(getattr(cli, name)))
        return undo

    def pooled(self, nproc: int):
        """(1-process wall, nproc wall, nproc cpu - 1-process cpu) over the calls."""
        def widen(a):
            if isinstance(a, self.search.SearchOptions):
                return dataclasses.replace(a, parallel=True, threads=nproc)
            return a

        wall1 = walln = extra = 0.0
        for fn, args, kwargs, wall, cpu in self.calls:
            t0, c0 = time.perf_counter(), _cpu()
            fn(*map(widen, args), **{k: widen(v) for k, v in kwargs.items()})
            walln += time.perf_counter() - t0
            extra += _cpu() - c0 - cpu
            wall1 += wall
        return wall1, walln, extra


def _cpu() -> float:
    """CPU seconds of this process and every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _run_ops(wl, tally, cli) -> float:
    """Run every op in-process at --threads 1; returns the total wall time."""
    total = 0.0
    for op in wl.ops:
        if op.prepare:
            op.prepare()
        argv = op.argv(1)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        total += time.perf_counter() - t0
        if code:
            sys.stderr.write(err.getvalue())
        tally.record(op, 1, code, out.getvalue())
    return total


def _pool_start(search, construct, nproc: int) -> float:
    """Median extra wall time of a tiny pooled call (Z5 transversals, 32
    branches) over the same call in one process: pool start and teardown."""
    z5 = construct.cayley_table(construct.GroupSpec([5]))
    one = search.SearchOptions()
    many = search.SearchOptions(parallel=True, threads=nproc)
    diffs = []
    for _ in range(5):
        t0 = time.perf_counter()
        search.enumerate_transversals(z5, one)
        t1 = time.perf_counter()
        search.enumerate_transversals(z5, many)
        diffs.append(time.perf_counter() - t1 - (t1 - t0))
    return statistics.median(diffs)


def _import_seconds(src: Path, work: Path) -> float:
    code = ("import time; t = time.perf_counter(); import molscope.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], cwd=work, env=env,
                             capture_output=True, text=True, check=True).stdout
        samples.append(float(out))
    return statistics.median(samples)


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (name, start, end, parent), c in zip(spans, child)]


def _group_of(name: str):
    layer, _, rest = name.partition(".")
    if layer == "search":
        return next((f"search.{g}" for g, names in SEARCH_GROUPS.items() if rest in names), None)
    if layer == "cli":
        return next((f"cli.{g}" for g, names in CLI_GROUPS.items() if rest in names), None)
    return layer


def layer_metrics(spans, counters: dict) -> dict:
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        group = _group_of(name)
        busy[group] = busy.get(group, 0.0) + own
        calls[group] = calls.get(group, 0) + 1
        calls[name] = calls.get(name, 0) + 1

    def s(group):
        return {"value": busy.get(group, 0.0), "unit": "s"}

    def n(value):
        return {"value": value, "unit": "count"}

    def c(counter):
        return n(counters.get(counter, 0))

    return {
        "core.validate_s": s("core"),
        "core.validate_calls": n(calls.get("core", 0)),
        "arrays.noa_s": s("arrays"),
        "arrays.noa_builds": n(calls.get("arrays.NearlyOrthArray.__init__", 0)),
        "search.extension_s": s("search.extension"),
        "search.extension_calls": n(calls.get("search.count_extensions", 0)),
        "search.extension_leaves": c("extension_leaves"),
        "search.chain_s": s("search.chain"),
        "search.chain_leaves": c("chain_leaves"),
        "search.census_s": s("search.census"),
        "search.census_systems": c("census_systems"),
        "search.direct_s": s("search.direct"),
        "search.direct_squares": c("direct_squares"),
        "search.transversal_s": s("search.transversal"),
        "search.transversals_found": c("transversals_found"),
        "search.cover_s": s("search.cover"),
        "search.cover_partitions": c("cover_partitions"),
        "bounds.quad_s": s("bounds"),
        "bounds.quad_calls": n(calls.get("bounds", 0)),
        "construct.build_s": s("construct"),
        "cli.parse_s": s("cli.parse"),
        "cli.verify_s": s("cli.verify"),
        "cli.render_s": s("cli.render"),
        "trace.spans": n(len(spans)),
    }


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart\tend\tparent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def traced(wl, work: Path, tally, src: Path) -> dict:
    sys.path.insert(0, str(src))
    import molscope.cli as cli
    from molscope import construct, search

    nproc = os.cpu_count() or 1
    recorder = PoolRecorder(search)
    undo = recorder.install()
    try:
        untraced_wall = _run_ops(wl, tally, cli)
    finally:
        uninstall(undo)

    tracer = Tracer()
    undo = install(tracer)
    try:
        traced_wall = _run_ops(wl, tally, cli)
    finally:
        uninstall(undo)
    files = [p for d in wl.witness_dirs for p in d.glob("witness-*.txt")]

    metrics = layer_metrics(tracer.spans, tracer.counters)
    if recorder.calls:
        wall1, walln, extra = recorder.pooled(nproc)
        speedup = wall1 / walln
    else:  # no pool-capable call: both paths run the same code
        speedup, extra = 1.0, 0.0
    metrics.update({
        "search.pool_start_s": {"value": _pool_start(search, construct, nproc), "unit": "s"},
        "search.pool_speedup": {"value": speedup, "unit": "ratio"},
        "search.pool_extra_cpu_s": {"value": extra, "unit": "s"},
        "cli.witness_files": {"value": len(files), "unit": "count"},
        "cli.witness_bytes": {"value": sum(p.stat().st_size for p in files), "unit": "B"},
        "setup.import_s": {"value": _import_seconds(src, work), "unit": "s"},
        "repo.src_lines": {"value": sum(len(p.read_text(encoding="utf-8").splitlines())
                                        for p in sorted(src.rglob("*.py"))), "unit": "lines"},
        "trace.overhead_s": {"value": traced_wall - untraced_wall, "unit": "s"},
    })
    write_spans(tracer.spans, work / "spans.tsv")
    return metrics
