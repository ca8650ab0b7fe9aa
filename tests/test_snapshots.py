"""Report snapshots: structured reports, table reports and witness files
stay byte-identical to the files under ``tests/snapshots/``.

The snapshots cover the structured reports of the acceptance runs
(``CLI_RUNS``), one ``count`` command per kind that has witnesses, with
``--emit-witnesses`` (report, then each witness file under a
``--- witness-NNNNNN.txt`` line), and one run of every ``bound``,
``certify`` and ``construct`` kind the others leave out (``KIND_RUNS``):
its structured report, and for ``bound`` and ``construct`` its table too
(without the ``elapsed:`` line).  To rewrite every snapshot from the
current code, run

    PYTHONPATH=src python tests/test_snapshots.py

and review the diff: a changed snapshot is a changed report.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from conftest import run_cli
from test_acceptance import CLI_RUNS

SNAPSHOTS = Path(__file__).with_name("snapshots")

WITNESS_RUNS = {
    "count-transversals": ["count", "transversals", "--square", "cayley:5"],
    "count-partitions": ["count", "partitions", "--square", "kron:(cayley:2,cayley:2)"],
    "count-mates": ["count", "mates", "--square", "cayley:3"],
    "count-extensions": ["count", "extensions", "--square", "kron:(cayley:2,cayley:2)",
                         "--partition", "rows:4", "--cap", "4"],
    "count-sudoku": ["count", "sudoku", "--n", "4", "--cap", "3"],
}
KIND_RUNS = {
    "bound-extension": ["bound", "extension", "--n", "4", "--k", "0"],
    "bound-mols-count": ["bound", "mols-count", "--n", "5", "--k", "2"],
    "bound-sudoku": ["bound", "sudoku", "--n", "9", "--k", "1"],
    "certify-power": ["certify", "power", "--m", "3", "--q", "6", "--k", "3"],
    "certify-constant": ["certify", "constant", "--constant", "1.2", "--limit", "3"],
    "construct-cayley": ["construct", "cayley", "--group", "2x3"],
    "construct-kron": ["construct", "kron", "--a", "cayley:2", "--b", "cayley:3"],
    "construct-power": ["construct", "power", "--base", "cayley:2", "--k", "2"],
    "construct-translate-mates": ["construct", "translate-mates", "--group", "5", "--count", "2"],
    "construct-constant": ["construct", "constant", "--constant", "1.2", "--limit", "3"],
}


def _ok(code, out) -> bytes:
    assert code == 0, out.decode()
    return out


def acceptance_report(report, name) -> bytes:
    code, out, _ = report(name, CLI_RUNS[name], threads=1)
    return _ok(code, out)


def witness_report(run, name, workdir: Path) -> bytes:
    outdir = workdir / name
    code, out, _ = run(WITNESS_RUNS[name] + [
        "--emit-witnesses", str(outdir), "--format", "structured", "--threads", "1"])
    parts = [_ok(code, out)]
    for path in sorted(outdir.glob("witness-*.txt")):
        parts += [f"--- {path.name}\n".encode(), path.read_bytes()]
    return b"".join(parts)


def kind_reports(run, name) -> dict:
    argv = KIND_RUNS[name]
    files = {f"{name}.json": _ok(*run(argv + ["--format", "structured"])[:2])}
    if argv[0] in ("bound", "construct"):
        lines = _ok(*run(argv)[:2]).splitlines(keepends=True)
        files[f"{name}.table.txt"] = b"".join(
            line for line in lines if not line.startswith(b"  elapsed: "))
    return files


def _expected(filename: str) -> bytes:
    return (SNAPSHOTS / filename).read_bytes()


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_acceptance_report_snapshot(report_cache, name):
    assert acceptance_report(report_cache, name) == _expected(f"{name}.json")


@pytest.mark.parametrize("name", list(WITNESS_RUNS))
def test_witness_snapshot(cli, tmp_path, name):
    assert witness_report(cli, name, tmp_path) == _expected(f"{name}.txt")


@pytest.mark.parametrize("name", list(KIND_RUNS))
def test_kind_snapshot(cli, name):
    for filename, got in kind_reports(cli, name).items():
        assert got == _expected(filename), filename


def main() -> int:
    def report(name, argv, threads):
        return run_cli(list(argv) + ["--format", "structured", "--threads", str(threads)])

    SNAPSHOTS.mkdir(exist_ok=True)
    files = {f"{name}.json": acceptance_report(report, name) for name in CLI_RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WITNESS_RUNS:
            files[f"{name}.txt"] = witness_report(run_cli, name, Path(tmp))
    for name in KIND_RUNS:
        files.update(kind_reports(run_cli, name))
    for filename, data in files.items():
        (SNAPSHOTS / filename).write_bytes(data)
    print(f"wrote {len(files)} snapshots to {SNAPSHOTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
