"""Report snapshots: structured reports, table reports and witness files
stay byte-identical to the files under ``tests/snapshots/``.

The snapshots cover the structured reports of the acceptance runs
(``CLI_RUNS``), one ``count`` command per kind that has witnesses, with
``--emit-witnesses`` (report, then each witness file under a
``--- witness-NNNNNN.txt`` line), and ``construct constant`` in both
formats (the table without its ``elapsed:`` line).  To rewrite every snapshot from the current code, run

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
CONSTANT = ["construct", "constant", "--constant", "1.2", "--limit", "3"]


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


def constant_reports(run) -> dict:
    structured = _ok(*run(CONSTANT + ["--format", "structured"])[:2])
    table = _ok(*run(CONSTANT)[:2])
    lines = table.splitlines(keepends=True)
    return {
        "construct-constant.json": structured,
        "construct-constant.table.txt": b"".join(
            line for line in lines if not line.startswith(b"  elapsed: ")),
    }


def _expected(filename: str) -> bytes:
    return (SNAPSHOTS / filename).read_bytes()


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_acceptance_report_snapshot(report_cache, name):
    assert acceptance_report(report_cache, name) == _expected(f"{name}.json")


@pytest.mark.parametrize("name", list(WITNESS_RUNS))
def test_witness_snapshot(cli, tmp_path, name):
    assert witness_report(cli, name, tmp_path) == _expected(f"{name}.txt")


def test_construct_constant_snapshot(cli):
    for filename, got in constant_reports(cli).items():
        assert got == _expected(filename), filename


def main() -> int:
    def report(name, argv, threads):
        return run_cli(list(argv) + ["--format", "structured", "--threads", str(threads)])

    SNAPSHOTS.mkdir(exist_ok=True)
    files = {f"{name}.json": acceptance_report(report, name) for name in CLI_RUNS}
    with tempfile.TemporaryDirectory() as tmp:
        for name in WITNESS_RUNS:
            files[f"{name}.txt"] = witness_report(run_cli, name, Path(tmp))
    files.update(constant_reports(run_cli))
    for filename, data in files.items():
        (SNAPSHOTS / filename).write_bytes(data)
    print(f"wrote {len(files)} snapshots to {SNAPSHOTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
