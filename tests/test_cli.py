import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import molscope
import oracles
from molscope import bounds as bounds_mod, cli as cli_mod, construct as construct_mod, errors
from molscope.cli import (
    _split_top_level,
    format_document,
    parse_document,
    resolve_partition_spec,
    resolve_square_spec,
)
from molscope.construct import GroupSpec, cayley_table
from molscope.core import RegionPartition, Square, partition_from_square, partition_rows, validate_mols
from molscope.errors import FormatError
from molscope.search import Exact, ExtensionCount, count_mols, extension_census, max_extensions

Z3_TEXT = "3\n1 2 3\n2 3 1\n3 1 2\n"


# --------------------------------------------------------------------------
# text formats


def test_format_square_is_one_based():
    z3 = cayley_table(GroupSpec([3]))
    assert format_document([z3.grid]) == Z3_TEXT


def test_document_round_trip():
    z3 = cayley_table(GroupSpec([3]))
    part = partition_rows(3)
    cells = [(0, 0), (1, 1), (2, 2)]
    text = format_document([z3.grid, z3.grid], partition=part, transversal=cells)
    doc = parse_document(text)
    assert len(doc.squares) == 2
    assert doc.squares[0].grid == z3.grid
    assert doc.partition.labels == part.labels
    assert doc.transversal == cells
    # blocks are separated by exactly one blank line
    assert "\n\n\n" not in text


def test_parse_square_only():
    doc = parse_document(Z3_TEXT)
    assert len(doc.squares) == 1
    assert doc.partition is None and doc.transversal is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty document"),
        ("3\n1 2 x\n2 3 1\n3 1 2\n", "line 2: 'x' is not an integer"),
        ("3\n1 2 3\n2 3 1\n", "expected 3 rows after the order line, got 2"),
        ("2\n1 2\n2 3\n", "line 3: symbols must be 1..2"),
        ("2\n1 2 1\n2 1\n", "line 2: expected 2 entries"),
        ("2 2\n1 2\n2 1\n", "square block starts with its order"),
        ("PARTITION\n1 2\n2 1\n\nPARTITION\n1 2\n2 1\n", "second PARTITION"),
        ("PARTITION\n1 2 1\n2 1 2\n", "must be square"),
        ("PARTITION\n1 3\n3 1\n", "region labels must be 1..2"),
        ("TRANSVERSAL\n1 1 1\n", "expected 'row col'"),
        ("0\n", "line 1: a square's order must be at least 1, got 0"),
        (Z3_TEXT + "\nTRANSVERSAL\n1 1\n\nTRANSVERSAL\n2 2\n", "second TRANSVERSAL"),
    ],
)
def test_parse_errors_carry_line_numbers(text, message):
    with pytest.raises(FormatError, match=message):
        parse_document(text)


def test_split_top_level():
    assert _split_top_level("a,b") == ["a", "b"]
    assert _split_top_level("kron:(a,b),c") == ["kron:(a,b)", "c"]
    assert _split_top_level("x") == ["x"]
    with pytest.raises(FormatError):
        _split_top_level("a,(b")
    with pytest.raises(FormatError):
        _split_top_level("a)b")


# --------------------------------------------------------------------------
# inline specs


def test_square_specs_compose():
    k4 = resolve_square_spec("kron:(cayley:2,cayley:2)")
    assert k4.grid == cayley_table(GroupSpec([2, 2])).grid
    p8 = resolve_square_spec("power:(cayley:2,3)")
    assert p8.grid == cayley_table(GroupSpec([2, 2, 2])).grid
    nested = resolve_square_spec("kron:(cayley:2,kron:(cayley:2,cayley:2))")
    assert nested.order == 8
    assert resolve_square_spec("cayley:2x3").order == 6


def test_square_spec_errors():
    with pytest.raises(FormatError, match="exactly two"):
        resolve_square_spec("kron:(cayley:2)")
    with pytest.raises(FormatError, match="not an integer"):
        resolve_square_spec("cayley:x")
    with pytest.raises(FormatError, match="cannot read"):
        resolve_square_spec("no-such-file.txt")


def test_square_spec_from_file(tmp_path):
    path = tmp_path / "sq.txt"
    path.write_text(Z3_TEXT)
    assert resolve_square_spec(str(path)).grid == cayley_table(GroupSpec([3])).grid
    two = tmp_path / "two.txt"
    two.write_text(Z3_TEXT + "\n" + Z3_TEXT)
    with pytest.raises(FormatError, match="exactly one square"):
        resolve_square_spec(str(two))


def test_partition_specs(tmp_path):
    assert resolve_partition_spec("rows:3").labels == partition_rows(3).labels
    boxes = resolve_partition_spec("boxes:4")
    assert boxes.order == 4
    z3 = cayley_table(GroupSpec([3]))
    classes = resolve_partition_spec("classes:(cayley:3)")
    assert classes.labels == partition_from_square(z3.square).labels
    path = tmp_path / "part.txt"
    path.write_text("PARTITION\n1 1\n2 2\n")
    p = resolve_partition_spec(str(path))
    assert p.labels == RegionPartition(2, [0, 0, 1, 1]).labels
    bare = tmp_path / "bare.txt"
    bare.write_text("2\n1 1\n2 2\n")
    assert resolve_partition_spec(str(bare)).labels == p.labels


# --------------------------------------------------------------------------
# exit codes


def test_verify_ok_and_mixed(cli, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(Z3_TEXT)
    code, out, _ = cli(["verify", str(good)])
    assert code == 0
    assert out.decode() == f"{good}: ok\n"

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2\n1 2\n")
    code, out, _ = cli(["verify", str(good), str(bad)])
    assert code == 1
    assert b"ok" in out

    code, _, _ = cli(["verify", str(tmp_path / "missing.txt")])
    assert code == 2


def test_verify_transversal_block(cli, capsys, tmp_path):
    ok = tmp_path / "with-t.txt"
    ok.write_text(Z3_TEXT + "\nTRANSVERSAL\n1 1\n2 2\n3 3\n")
    assert cli(["verify", str(ok)])[0] == 0
    bad = tmp_path / "bad-t.txt"
    for cells in ("1 1\n2 1\n3 1\n",  # one column three times
                  "1 1\n2 2\n",  # too few cells
                  "1 1\n2 2\n3 3\n1 2\n",  # too many cells
                  "1 1\n2 2\n4 4\n"):  # a cell outside the square
        bad.write_text(Z3_TEXT + "\nTRANSVERSAL\n" + cells)
        assert cli(["verify", str(bad)])[0] == 1
        assert capsys.readouterr().err == (
            f"{bad}: invalid: cells do not hit every row, column, and symbol exactly once\n")
    orphan = tmp_path / "orphan.txt"
    orphan.write_text("TRANSVERSAL\n1 1\n")
    assert cli(["verify", str(orphan)])[0] == 2


def test_an_order_below_one_is_a_parse_error(cli, capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("0\n")
    says = "line 1: a square's order must be at least 1, got 0\n"
    assert cli(["verify", str(empty)])[:2] == (2, b"")
    assert capsys.readouterr().err == f"{empty}: parse error: {says}"
    assert cli(["count", "mates", "--square", str(empty)])[:2] == (2, b"")
    assert capsys.readouterr().err == f"error: {says}"


def test_verify_orthogonal_pair(cli, tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text(Z3_TEXT + "\n3\n1 2 3\n3 1 2\n2 3 1\n")
    assert cli(["verify", str(pair)])[0] == 0
    twice = tmp_path / "twice.txt"
    twice.write_text(Z3_TEXT + "\n" + Z3_TEXT)
    assert cli(["verify", str(twice)])[0] == 1  # not orthogonal to itself


def test_exit_limit_and_params(cli, capsys):
    code, _, _ = cli(["construct", "cayley", "--group", "9x9"])
    assert code == 3
    code, _, _ = cli(["construct", "translate-mates", "--group", "2"])
    assert code == 3  # the order-2 table has no transversal
    # a command-line shape the parser cannot state is a usage error
    code, _, _ = cli(
        ["count", "transversals", "--square", "cayley:3", "--square", "cayley:3"]
    )
    assert code == 2
    capsys.readouterr()
    assert cli(["count", "extensions"])[:2] == (2, b"")
    assert capsys.readouterr().err == "error: need --system, --square, or --partition\n"
    # a certificate that compares nothing is no pass
    for argv in (["extension", "--n", "4", "--k", "5"], ["extension", "--n", "1", "--all-k"],
                 ["estimate", "--max-n", "1"], ["power", "--m", "3", "--q", "6", "--k", "0"]):
        code, out, _ = cli(["certify", *argv])
        assert (code, out) == (4, b"")
        assert "nothing to compare" in capsys.readouterr().err
    # a negative --count is refused before any search: the order-2 table,
    # which has no transversal, exits 4 too
    for group in ("3", "2"):
        code, out, _ = cli(["construct", "translate-mates", "--group", group, "--count", "-1"])
        assert (code, out) == (4, b"")
        assert capsys.readouterr().err == "error: cannot emit a negative number of mates (-1)\n"
    # bad parameters are one error line, not a traceback or a report
    for argv, says in ((["certify", "power", "--m", "3", "--q", "-1", "--k", "1"], "--q -1"),
                       (["bound", "sudoku", "--n", "-4"], "n = m^2 >= 4"),
                       (["bound", "extension", "--n", "3", "--k", "-2"], "0 <= k <= n-2"),
                       (["certify", "extension", "--n", "4", "--k", "-1"],
                        "needs a nonnegative --k, got -1"),
                       (["certify", "gerechte", "--n", "3", "--partition", "boxes:4"],
                        "--n 3 does not match the order 4")):
        capsys.readouterr()
        assert cli(argv)[:2] == (4, b"")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and says in err
    # ... but --k with --all-k is a usage error, like any flag rule
    capsys.readouterr()
    assert cli(["certify", "extension", "--n", "4", "--k", "-2", "--all-k"])[:2] == (2, b"")
    assert capsys.readouterr().err == (
        "error: certify extension takes --k or --all-k, not both\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "sudoku", "--n", "5"],
        ["count", "sudoku", "--n", "5"],
        ["count", "extensions", "--partition", "boxes:5"],
    ],
)
def test_non_square_order_is_a_param_error(cli, capsys, argv):
    code, out, _ = cli(argv)
    assert code == 4
    assert out == b""
    assert "order 5 is not a perfect square" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_nonpositive_threads_is_a_param_error(cli, capsys, threads):
    code, out, _ = cli(["count", "mols", "--n", "3", "--k", "1", "--threads", threads])
    assert code == 4
    assert out == b""
    assert "threads must be positive" in capsys.readouterr().err


def test_bad_limit_env_is_a_param_error(cli, monkeypatch):
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "many")
    code, _, _ = cli(["count", "transversals", "--square", "cayley:3"])
    assert code == 4


def test_internal_error_exits_6(cli, monkeypatch, capsys):
    import molscope.cli as cli_mod

    def broken(*args):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(cli_mod, "extension_census", broken)
    code, out, _ = cli(["certify", "extension", "--n", "3", "--all-k"])
    assert code == 6
    assert out == b""
    err = capsys.readouterr().err
    assert err == "internal error: invariant broken\n"


def test_any_unexpected_exception_exits_6(cli, monkeypatch, capsys):
    import molscope.cli as cli_mod

    def broken(*args):
        raise KeyError("k9")

    monkeypatch.setattr(cli_mod, "extension_census", broken)
    code, out, _ = cli(["certify", "extension", "--n", "3", "--all-k"])
    assert code == 6
    assert out == b""
    assert capsys.readouterr().err == "internal error: KeyError: 'k9'\n"


# The exit code of each package error class; every class not named here
# keeps the base class's 1 (validation failure).
EXIT_CODES = {errors.MolscopeError: 1, errors.FormatError: 2, errors.LimitExceeded: 3,
              errors.NotFoundWithinLimit: 3, errors.InvalidParams: 4,
              errors.NotPerfectSquare: 4}
ERROR_ARGS = {errors.ViolationAt: ("row", 0, 1), errors.NotOrthogonal: (0, 1),
              errors.NotGerechte: (0,), errors.TooManySquares: (4, 3)}


@pytest.mark.parametrize("cls", [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.MolscopeError)
], ids=lambda c: c.__name__)
def test_an_error_class_fixes_its_exit_code(cli, monkeypatch, capsys, cls):
    assert cls.exit_code == EXIT_CODES.get(cls, 1)
    exc = cls(*ERROR_ARGS.get(cls, ("broken on purpose",)))

    def broken(*args):
        raise exc

    monkeypatch.setattr(cli_mod, "extension_census", broken)
    assert cli(["certify", "extension", "--n", "3", "--all-k"])[:2] == (cls.exit_code, b"")
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_a_file_that_is_not_utf8_is_an_input_error(cli, capsys, tmp_path):
    bad, ok = tmp_path / "bad.txt", tmp_path / "ok.txt"
    bad.write_bytes(b"\xff")
    ok.write_text(Z3_TEXT)
    # verify reports it and goes on to the next file
    assert cli(["verify", str(bad), str(ok)])[:2] == (2, f"{ok}: ok\n".encode())
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: parse error: cannot read {bad}: ") and err.count("\n") == 1
    assert cli(["count", "transversals", "--square", str(bad)])[:2] == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["count", "mates", "--square", "cayley:3"],
                                  ["construct", "translate-mates", "--group", "3"]])
def test_an_unwritable_witness_directory_is_an_output_error(cli, capsys, tmp_path, argv):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert cli([*argv, "--emit-witnesses", str(taken)])[:2] == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write witnesses to {taken}: ") and err.count("\n") == 1


# --------------------------------------------------------------------------
# counting through the CLI


def run_structured(cli, argv):
    threads = ["--threads", "1"] if argv[0] in ("verify", "count", "certify") else []
    code, out, _ = cli(list(argv) + ["--format", "structured", *threads])
    assert code == 0, out.decode()
    return json.loads(out)


def fields_by_name(doc):
    return {f["name"]: f for f in doc["results"]}


def test_count_transversals_structured(cli):
    doc = run_structured(cli, ["count", "transversals", "--square", "cayley:3"])
    assert doc["command"] == "count transversals"
    assert doc["params"] == {"square": "cayley:3"}
    f = fields_by_name(doc)["transversals"]
    assert f["value"] == "3"
    assert f["unit"] == "exact count"
    assert f["exact"] is True
    assert f["provenance"] == "row-backtracking"
    assert b"elapsed" not in json.dumps(doc).encode()


def test_count_transversals_of_z13(cli):
    # OEIS A006717; one branch per orbit makes this one branch of 13
    doc = run_structured(cli, ["count", "transversals", "--square", "cayley:13"])
    f = fields_by_name(doc)["transversals"]
    assert f["value"] == "1030367" and f["exact"] is True


def test_count_partitions_implies_mates(cli):
    doc = run_structured(
        cli, ["count", "partitions", "--square", "kron:(cayley:2,cayley:2)"]
    )
    f = fields_by_name(doc)
    assert f["transversal_partitions"]["value"] == "2"
    assert f["mates_implied"]["value"] == "48"
    assert f["mates_implied"]["provenance"] == "partitions-times-factorial"


def test_count_mates_cayley7_agrees_with_partitions(cli):
    mates = fields_by_name(run_structured(cli, ["count", "mates", "--square", "cayley:7"]))
    parts = fields_by_name(run_structured(cli, ["count", "partitions", "--square", "cayley:7"]))
    assert mates["mates"]["value"] == parts["mates_implied"]["value"] == "3200400"
    assert mates["mates"]["exact"] is True


def test_count_mates_from_file(cli, tmp_path):
    path = tmp_path / "z3.txt"
    path.write_text(Z3_TEXT)
    doc = run_structured(cli, ["count", "mates", "--square", str(path)])
    assert fields_by_name(doc)["mates"]["value"] == "6"


def test_count_extensions_square_and_system(cli, tmp_path):
    doc = run_structured(
        cli,
        ["count", "extensions", "--square", "cayley:3", "--partition", "rows:3"],
    )
    assert fields_by_name(doc)["extensions"]["value"] == "6"
    assert doc["params"]["squares"] == ["cayley:3"]

    sysfile = tmp_path / "sys.txt"
    sysfile.write_text(Z3_TEXT + "\n3\n1 2 3\n3 1 2\n2 3 1\n")
    doc = run_structured(cli, ["count", "extensions", "--system", str(sysfile)])
    assert fields_by_name(doc)["extensions"]["value"] == "0"


def test_count_extensions_refuses_a_system_without_square_or_partition(cli, capsys, tmp_path):
    # verify refuses the same file with the same exit code
    orphan = tmp_path / "orphan.txt"
    orphan.write_text("TRANSVERSAL\n1 1\n")
    assert cli(["count", "extensions", "--system", str(orphan)])[:2] == (2, b"")
    assert capsys.readouterr().err == (
        f"error: {orphan}: a system document needs a square or a PARTITION block\n")
    assert cli(["verify", str(orphan)])[0] == 2


@pytest.mark.parametrize("extra", [["--partition", "boxes:4"], ["--square", "cayley:3"]])
def test_count_extensions_refuses_a_system_with_square_or_partition(cli, capsys, tmp_path, extra):
    # the document holds the whole system: an extra flag is refused, not ignored
    sysfile = tmp_path / "sys.txt"
    sysfile.write_text(Z3_TEXT)
    assert cli(["count", "extensions", "--system", str(sysfile), *extra])[:2] == (2, b"")
    err = capsys.readouterr().err
    assert err.startswith("error: --system takes neither") and err.count("\n") == 1


@pytest.mark.parametrize("flags, message", [
    (["--square", "cayley:3", "--partition", "rows:4"],
     "--square cayley:3 has order 3, but --partition rows:4 has order 4"),
    (["--square", "cayley:3", "--square", "cayley:4"],
     "--square cayley:3 has order 3, but --square cayley:4 has order 4"),
])
def test_count_extensions_refuses_flags_of_different_orders(cli, capsys, flags, message):
    # a parameter error, like certify gerechte --n 3 --partition boxes:4
    assert cli(["count", "extensions", *flags])[:2] == (4, b"")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_count_extensions_refuses_a_system_document_of_mixed_orders(cli, capsys, tmp_path):
    # a document that fails validation stays a validation failure
    sysfile = tmp_path / "sys.txt"
    sysfile.write_text(Z3_TEXT + "\n" + format_document([cayley_table(GroupSpec([4])).grid]))
    assert cli(["count", "extensions", "--system", str(sysfile)])[:2] == (1, b"")
    assert capsys.readouterr().err == "error: square 2 has order 4, but the system has order 3\n"


@pytest.mark.parametrize("kind", ["certify", "construct"])
@pytest.mark.parametrize("constant", ["nan", "inf"])
def test_constant_refuses_a_non_finite_target(cli, capsys, kind, constant):
    assert cli([kind, "constant", "--constant", constant])[:2] == (4, b"")
    assert capsys.readouterr().err == f"error: C must be finite, got {constant}\n"


def test_count_extensions_partition_only(cli):
    doc = run_structured(cli, ["count", "extensions", "--partition", "boxes:4"])
    assert fields_by_name(doc)["extensions"]["value"] == "288"


def test_count_mols_cross_checks(cli):
    doc = run_structured(cli, ["count", "mols", "--n", "4", "--k", "1"])
    f = fields_by_name(doc)
    assert f["count"]["value"] == "576"
    assert f["direct_count"]["value"] == "576"
    assert f["engines_agree"]["value"] is True


LIGHT_START = """
import sys
from molscope.cli import main
code = main(["count", "mols", "--n", "4", "--k", "1", "--threads", "1", "--format", "structured"])
print(code, sorted({"multiprocessing", "fractions", "decimal"} & set(sys.modules)))
"""


def test_a_count_in_one_process_loads_neither_the_pool_nor_fractions():
    # a fresh interpreter, since the test session has imported both already
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(molscope.__file__)))
    run = subprocess.run([sys.executable, "-c", LIGHT_START], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("n, k, value", [
    ("4", "3", "165888"), ("5", "2", "6220800"), ("6", "1", "812851200")])
def test_count_mols_says_when_it_skips_the_cross_check(cli, monkeypatch, n, k, value):
    # order 6 passes the order limit only when raised; its direct count
    # would walk all 812,851,200 squares, so the cross-check is skipped
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "6")
    doc = run_structured(cli, ["count", "mols", "--n", n, "--k", k])
    f = fields_by_name(doc)
    assert f["count"]["value"] == value
    assert "direct_count" not in f
    assert doc["notes"] == [
        "direct cross-check skipped: direct engine supports k = 1 up to order 5 "
        f"or k = 2 up to order 4; got n={n}, k={k}"
    ]


@pytest.mark.parametrize("argv", [
    ["verify", "x.txt", "--cap", "3"],
    ["bound", "extension", "--n", "4", "--threshold", "5"],
    ["certify", "estimate", "--emit-witnesses", "w"],
    ["construct", "translate-mates", "--group", "3", "--cap", "2"],
    ["count", "mates", "--square", "cayley:3", "--tol", "1"],
    ["bound", "extension", "--n", "4", "--threads", "8"],
    ["construct", "cayley", "--group", "3", "--threads", "2"],
    ["certify", "product", "--base", "cayley:3", "--threshold", "5"],
    ["certify", "extension", "--n", "4", "--tol", "1"],
    ["bound", "mols-count", "--n", "5", "--k", "2", "--tol", "1e-3"],
    ["bound", "extension", "--n", "4", "--k", "0", "--tol", "0"],
    # each kind takes only the flags it reads, not every flag of its command
    ["certify", "extension", "--n", "4", "--partition", "boxes:4"],
    ["count", "mols", "--n", "3", "--square", "cayley:3"],
    ["count", "mates", "--square", "cayley:3", "--n", "9"],
    ["count", "sudoku", "--n", "4", "--k", "1"],
    ["certify", "gerechte", "--n", "4", "--k", "2"],
    ["certify", "estimate", "--n", "4"],
    ["construct", "cayley", "--group", "3", "--k", "2"],
    ["construct", "kron", "--a", "cayley:2", "--b", "cayley:2", "--limit", "3"],
    # only the kinds that write witnesses take the witness flags
    ["count", "mols", "--n", "3", "--cap", "3"],
    ["count", "mols", "--n", "3", "--emit-witnesses", "w"],
    ["construct", "cayley", "--group", "3", "--emit-witnesses", "w"],
    ["construct", "kron", "--a", "cayley:2", "--b", "cayley:2", "--emit-witnesses", "w"],
    ["construct", "power", "--base", "cayley:2", "--emit-witnesses", "w"],
    ["construct", "constant", "--constant", "1.1", "--emit-witnesses", "w"],
])
def test_commands_refuse_flags_they_do_not_read(cli, capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 2
    # the refusal comes from the kind's own parser, before anything is written
    kind = argv[:1] if argv[0] == "verify" else argv[:2]
    assert f"usage: molscope {' '.join(kind)} [-h]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_an_unread_flag_prints_the_usage_of_its_kind(cli, capsys):
    with pytest.raises(SystemExit) as exc:
        cli(["count", "mols", "--n", "3", "--square", "cayley:3"])
    assert exc.value.code == 2
    usage, error = capsys.readouterr().err.split("molscope count mols: error: ")
    assert usage.startswith("usage: molscope count mols ")
    assert "--n N" in usage and "--k K" in usage and "--square" not in usage
    assert error == "unrecognized arguments: --square cayley:3\n"


WITNESS_KINDS = {("count", kind) for kind in
                 ("transversals", "partitions", "mates", "extensions", "sudoku")}


def test_only_the_witness_kinds_take_the_witness_flags(capsys):
    takes = {"--emit-witnesses": set(), "--cap": set()}
    for command, kinds in cli_mod.KINDS.items():
        for kind in kinds:
            with pytest.raises(SystemExit):
                cli_mod.build_parser().parse_args([command, kind, "--help"])
            usage = capsys.readouterr().out
            for flag, kinds_taking in takes.items():
                if f"{flag} " in usage:
                    kinds_taking.add((command, kind))
    assert takes == {"--emit-witnesses": WITNESS_KINDS | {("construct", "translate-mates")},
                     "--cap": WITNESS_KINDS}


def test_every_flag_is_read_by_some_kind_or_command():
    declared = {"--format"}
    for _, shared in cli_mod.COMMANDS.values():
        declared.update(shared)
    for kinds in cli_mod.KINDS.values():
        for flags, _ in kinds.values():
            declared.update(flags)
    assert set(cli_mod.FLAGS) == declared


HELP_RUNS = [[command] for command in cli_mod.COMMANDS] + [
    [command, kind] for command, kinds in cli_mod.KINDS.items() for kind in kinds]


@pytest.mark.parametrize("argv", HELP_RUNS, ids=["-".join(argv) for argv in HELP_RUNS])
def test_help_renders_for_every_command_and_kind(cli, argv):
    with pytest.raises(SystemExit) as exc:
        cli([*argv, "--help"])
    assert exc.value.code == 0


NEEDS = [
    (["certify", "extension"], "--n"),
    (["certify", "gerechte"], "--n"),
    (["certify", "product"], "--base"),
    (["certify", "power", "--m", "3", "--k", "2"], "--q"),
    (["certify", "constant"], "--constant"),
    (["construct", "cayley"], "--group"),
    (["construct", "kron", "--a", "cayley:2"], "--b"),
    (["construct", "power"], "--base"),
    (["construct", "translate-mates"], "--group"),
    (["construct", "constant"], "--constant"),
    (["count", "mols"], "--n"),
    (["count", "sudoku"], "--n"),
    (["count", "transversals"], "--square"),
    (["count", "partitions", "--cap", "3"], "--square"),
    (["count", "mates"], "--square"),
]


@pytest.mark.parametrize("argv, flags", NEEDS, ids=["-".join(argv[:2]) for argv, _ in NEEDS])
def test_kinds_refuse_runs_without_the_flags_they_need(cli, capsys, argv, flags):
    with pytest.raises(SystemExit) as exc:
        cli(argv)
    assert exc.value.code == 2
    kind = " ".join(argv[:2])
    usage, error = capsys.readouterr().err.split(f"molscope {kind}: error: ")
    assert usage.startswith(f"usage: molscope {kind} ")
    assert error == f"the following arguments are required: {flags}\n"


@pytest.mark.parametrize("n", ["6", "100000"])
def test_certify_gerechte_checks_the_order_limit_first(cli, capsys, monkeypatch, n):
    # both targets census every system of order n on the rows partition; the
    # limit is checked before any n×n partition is built
    import molscope.cli as cli_mod

    def unbuilt(order):
        raise AssertionError(f"built an order-{order} partition past the limit")

    monkeypatch.setattr(cli_mod, "partition_rows", unbuilt)
    monkeypatch.setattr(cli_mod, "partition_boxes", unbuilt)
    for argv in (["certify", "gerechte", "--n", n],
                 ["certify", "extension", "--n", n, "--all-k"]):
        code, out, seconds = cli(argv)
        assert (code, out) == (3, b"")
        assert "exceeds the configured limit" in capsys.readouterr().err
        assert seconds < 0.5


@pytest.mark.parametrize("kind", ["certify", "construct"])
def test_constant_search_checks_each_order_against_the_census_limit(cli, capsys, monkeypatch, kind):
    monkeypatch.delenv("MOLSCOPE_LIMIT_N", raising=False)
    code, out, _ = cli([kind, "constant", "--constant", "1.1", "--limit", "7"])
    assert code == 0 and out  # answered at order 3, before any order past the limit
    # --limit 6, not 7: without the gate order 6 takes about 18 s and fails, order 7 never ends
    code, out, seconds = cli([kind, "constant", "--constant", "1.3", "--limit", "6"])
    assert (code, out) == (3, b"")
    assert "at order 6 exceeds the configured limit 5" in capsys.readouterr().err
    assert seconds < 1.0


@pytest.mark.parametrize("argv", [
    ["count", "sudoku", "--n", "100000"],
    ["count", "extensions", "--partition", "rows:100000"],
    ["certify", "gerechte", "--n", "100000", "--partition", "boxes:100000"],
])
def test_partition_specs_check_the_order_limit_first(cli, capsys, monkeypatch, argv):
    import molscope.cli as cli_mod

    def unbuilt(order):
        raise AssertionError(f"built an order-{order} partition past the limit")

    monkeypatch.setattr(cli_mod, "partition_rows", unbuilt)
    monkeypatch.setattr(cli_mod, "partition_boxes", unbuilt)
    code, out, seconds = cli(argv)
    assert (code, out) == (3, b"")
    assert "exceeds the configured limit" in capsys.readouterr().err
    assert seconds < 0.5


@pytest.mark.parametrize("argv, code", [
    (["count", "sudoku", "--n", "-4"], 4),
    (["count", "extensions", "--partition", "boxes:-4"], 4),
    (["certify", "gerechte", "--n", "-1"], 4),
    (["certify", "gerechte", "--n", "0"], 4),
    (["certify", "gerechte", "--n", "0", "--partition", "rows:3"], 4),
    (["count", "sudoku", "--n", "0"], 4),
    (["count", "extensions", "--partition", "rows:0"], 4),
])
def test_nonpositive_order_is_one_error_line(cli, capsys, argv, code):
    assert cli(argv)[:2] == (code, b"")
    assert capsys.readouterr().err == "error: order must be positive\n"


# files the input-error rows read, written to the working directory
INPUT_FILES = {"unbalanced.txt": "PARTITION\n1 1\n1 2\n",
               "pair.txt": Z3_TEXT + "\n3\n1 2 3\n3 1 2\n2 3 1\n",
               "z3.txt": Z3_TEXT}
UNBALANCED = "line 1: region 1 has 3 cells, expected 2\n"


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "unbalanced.txt"], 2, f"unbalanced.txt: parse error: {UNBALANCED}"),
    (["count", "extensions", "--partition", "unbalanced.txt"], 2, f"error: {UNBALANCED}"),
    (["count", "mates", "--square", "cayley:3", "--cap", "0"], 4, "error: cap must be positive\n"),
    (["count", "mates", "--square", "cayley:3", "--cap", "0", "--emit-witnesses", "w"], 4,
     "error: cap must be positive\n"),
    (["count", "mates", "--square", "power:(cayley:2)"], 2,
     "error: power:(A,k) takes exactly two arguments\n"),
    (["count", "extensions", "--partition", "pair.txt"], 2,
     "error: pair.txt: expected a partition document\n"),
    (["construct", "translate-mates", "--group", "3", "--transversal", "z3.txt"], 2,
     "error: z3.txt: no TRANSVERSAL block\n"),
    (["certify", "power", "--m", "1", "--q", "6", "--k", "3"], 4,
     "error: certify power --m 1: the base order must be at least 2\n"),
    (["certify", "power", "--m", "0", "--q", "6", "--k", "1"], 4,
     "error: certify power --m 0: the base order must be at least 2\n"),
    # a k-system and its extension hold k + 1 <= n - 1 squares
    (["bound", "sudoku", "--n", "4", "--k", "50"], 4,
     "error: need n = m^2 >= 4 and 0 <= k <= n-2; got n=4, k=50\n"),
], ids=["verify-unbalanced", "partition-unbalanced", "cap-0", "cap-0-witnesses",
        "power-one-argument", "partition-of-squares", "transversal-missing",
        "power-m-1", "power-m-0", "sudoku-k-past-n-2"])
def test_input_errors_are_one_error_line(cli, capsys, monkeypatch, tmp_path, argv, code, err):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    assert cli(argv)[:2] == (code, b"")
    assert capsys.readouterr().err == err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(INPUT_FILES)


def test_count_mols_threshold_is_not_exact(cli):
    doc = run_structured(
        cli, ["count", "mols", "--n", "3", "--k", "1", "--threshold", "5"]
    )
    f = fields_by_name(doc)["count"]
    assert f["value"] == "5"
    assert f["exact"] is False
    assert "direct_count" not in fields_by_name(doc)
    assert doc["notes"] == ["direct cross-check skipped: the count stopped at its threshold"]


def test_count_sudoku(cli):
    doc = run_structured(cli, ["count", "sudoku", "--n", "4"])
    f = fields_by_name(doc)
    assert f["sudoku_squares"]["value"] == "288"
    assert f["engines_agree"]["value"] is True


@pytest.mark.parametrize(
    "engine, argv",
    [
        ("count_mols_direct", ["count", "mols", "--n", "3", "--k", "1"]),
        ("count_sudoku_direct", ["count", "sudoku", "--n", "4", "--cap", "3",
                                 "--emit-witnesses", "w"]),
    ],
)
def test_count_cross_check_disagreement_exits_5(cli, monkeypatch, tmp_path, engine, argv):
    import molscope.cli as cli_mod

    monkeypatch.setattr(cli_mod, engine, lambda *args: 7)
    monkeypatch.chdir(tmp_path)
    code, out, _ = cli(argv + ["--format", "structured", "--threads", "1"])
    assert code == 5
    f = fields_by_name(json.loads(out))
    assert f["direct_count"]["value"] == "7"
    assert f["engines_agree"]["value"] is False
    assert not any(tmp_path.iterdir())  # a failed cross-check writes no witness


def test_cap_applies_only_to_emitted_witnesses(cli, monkeypatch, tmp_path):
    # the count runs alone; with --emit-witnesses the listing walk runs
    # after it, and only as far as the cap, or the count when that is less
    import molscope.cli as cli_mod

    pulled = []
    walk = cli_mod.iter_transversals

    def spy(square):
        pulled.append(0)
        for t in walk(square):
            pulled[-1] += 1
            yield t

    monkeypatch.setattr(cli_mod, "iter_transversals", spy)
    argv = ["count", "transversals", "--square", "cayley:5", "--threads", "1"]
    assert cli(argv + ["--cap", "7"])[0] == 0
    assert pulled == []
    for cap, threshold, written in ((7, None, 7), (7, 3, 3), (100, None, 15)):
        out = tmp_path / f"{cap}-{threshold}"
        extra = ["--threshold", str(threshold)] if threshold else []
        assert cli(argv + ["--cap", str(cap), "--emit-witnesses", str(out), *extra])[0] == 0
        assert pulled[-1] == written == len(list(out.iterdir()))


def test_table_format_shows_elapsed(cli):
    code, out, _ = cli(["count", "mates", "--square", "cayley:3"])
    assert code == 0
    text = out.decode()
    assert "== count mates ==" in text
    assert "elapsed:" in text
    assert "6 exact count" in text


def test_table_marks_threshold_stops(cli):
    code, out, _ = cli(
        ["count", "mols", "--n", "3", "--k", "1", "--threshold", "5"]
    )
    assert code == 0
    assert out.decode().count("at least: search stopped at threshold") == 1


# --------------------------------------------------------------------------
# witness emission and re-verification


def verify_all(cli, outdir):
    files = sorted(outdir.iterdir())
    assert files, "no witness files written"
    code, out, _ = cli(["verify"] + [str(f) for f in files])
    assert code == 0, out.decode()
    return files


def test_transversal_witnesses_verify(cli, tmp_path):
    out = tmp_path / "w"
    code, _, _ = cli(
        ["count", "transversals", "--square", "cayley:3",
         "--emit-witnesses", str(out)]
    )
    assert code == 0
    files = verify_all(cli, out)
    assert [f.name for f in files] == [
        "witness-000001.txt", "witness-000002.txt", "witness-000003.txt"
    ]


def test_partition_witnesses_verify(cli, tmp_path):
    out = tmp_path / "w"
    code, _, _ = cli(
        ["count", "partitions", "--square", "kron:(cayley:2,cayley:2)",
         "--emit-witnesses", str(out)]
    )
    assert code == 0
    files = verify_all(cli, out)
    assert len(files) == 2
    assert "PARTITION" in files[0].read_text()


def test_mate_witnesses_verify_and_cap(cli, tmp_path):
    out = tmp_path / "w"
    code, _, _ = cli(
        ["count", "mates", "--square", "cayley:3",
         "--emit-witnesses", str(out), "--cap", "2"]
    )
    assert code == 0
    files = verify_all(cli, out)
    assert len(files) == 2


WITNESS_RUNS = [
    (["count", "transversals", "--square", "cayley:7", "--cap", "300"], 133),
    (["count", "partitions", "--square", "cayley:2x2x2", "--threshold", "100", "--cap", "50"], 50),
    (["count", "mates", "--square", "cayley:2x2", "--cap", "10", "--threshold", "30"], 10),
    (["count", "sudoku", "--n", "4", "--cap", "50"], 50),
]


@pytest.mark.parametrize("argv, files", WITNESS_RUNS, ids=[argv[1] for argv, _ in WITNESS_RUNS])
def test_witness_runs_identical_across_threads(cli, tmp_path, argv, files):
    runs = []
    for threads in (1, 2):
        outdir = tmp_path / f"t{threads}"
        code, out, _ = cli(
            argv + ["--emit-witnesses", str(outdir), "--format", "structured",
                    "--threads", str(threads)]
        )
        assert code == 0, out.decode()
        runs.append((out, {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == files


def test_sudoku_witnesses_verify(cli, tmp_path):
    out = tmp_path / "w"
    code, _, _ = cli(
        ["count", "sudoku", "--n", "4", "--emit-witnesses", str(out),
         "--cap", "3"]
    )
    assert code == 0
    files = verify_all(cli, out)
    assert len(files) == 3


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind, field", [("transversals", "transversals"),
                                         ("partitions", "transversal_partitions"),
                                         ("mates", "mates"), ("extensions", "extensions")])
def test_order_1_square_has_one_of_each_witness(cli, tmp_path, kind, field, threads):
    # the one cell is a whole transversal before any search step
    one = tmp_path / "one.txt"
    one.write_text("1\n1\n")
    out = tmp_path / "w"
    code, raw, _ = cli(["count", kind, "--square", str(one), "--emit-witnesses", str(out),
                        "--format", "structured", "--threads", threads])
    assert code == 0, raw.decode()
    f = fields_by_name(json.loads(raw))[field]
    assert (f["value"], f["exact"]) == ("1", True)
    assert len(verify_all(cli, out)) == 1


# --------------------------------------------------------------------------
# bounds through the CLI


def test_bound_extension_structured(cli):
    doc = run_structured(cli, ["bound", "extension", "--n", "4", "--k", "0"])
    assert doc["params"] == {"n": "4", "k": "0"}
    f = fields_by_name(doc)["extension_bound"]
    assert f["unit"] == "nats"
    assert abs(f["value"] - 9.5279029964118) < 1e-10


def test_bound_mols_count_structured(cli):
    doc = run_structured(cli, ["bound", "mols-count", "--n", "8", "--k", "3"])
    f = fields_by_name(doc)
    assert "summed_quadrature" in f
    assert f["regime_ii"]["asymptotic_only"] is True
    assert "asymptotic_only" not in f["summed_quadrature"]
    assert f["quadrature_error"]["value"] < 1e-6


def test_bound_mols_count_refuses_too_many_integrals(cli, capsys):
    code, out, seconds = cli(["bound", "mols-count", "--n", "1e12", "--k", "100000000"])
    assert code == 3 and out == b"" and seconds < 1
    assert capsys.readouterr().err == ("error: k=100000000 needs 100000000 per-cell integrals, "
                                       "more than the limit 10000\n")
    doc = run_structured(cli, ["bound", "mols-count", "--n", "1000", "--k", "999"])
    assert math.isfinite(fields_by_name(doc)["summed_quadrature"]["value"])


def test_bound_accepts_fractional_n(cli):
    doc = run_structured(cli, ["bound", "mols-count", "--n", "8.5", "--k", "2"])
    assert doc["params"]["n"] == 8.5


@pytest.mark.parametrize(
    "kind, n", [("extension", "4.5"), ("sudoku", "9.5"), ("extension", "inf")]
)
def test_bound_integer_kinds_reject_fractional_n(cli, capsys, kind, n):
    code, out, _ = cli(["bound", kind, "--n", n, "--k", "0", "--format", "structured"])
    assert code == 4
    assert out == b""
    assert "integer --n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mols-count", "--n", "inf", "--k", "1"], "finite --n"),
        (["mols-count", "--n=-inf", "--k", "1"], "finite --n"),
        (["mols-count", "--n", "nan", "--k", "1"], "finite --n"),
        (["mols-count", "--n", "1e200"], "summed_quadrature is not finite"),
        (["extension", "--n", "1e154", "--k", "0"], "extension_bound is not finite"),
        (["extension", "--n", "1e200", "--k", "1"], "overflows"),
        (["sudoku", "--n", str(float(2**600)), "--k", "0"], "overflows"),
    ],
)
def test_bound_rejects_extreme_n(cli, capsys, argv, message):
    code, out, _ = cli(["bound", *argv, "--format", "structured"])
    assert code == 4
    assert out == b""
    err = capsys.readouterr().err
    assert message in err
    assert err.count("\n") == 1


def test_bound_sudoku_large_square_order(cli):
    # order 2^32 = (2^16)^2: one bucket of n^2 cells, never an n^2-long profile
    doc = run_structured(cli, ["bound", "sudoku", "--n", str(2**32), "--k", "1"])
    assert all(math.isfinite(item["value"]) for item in doc["results"])


def test_bound_integer_kinds_accept_integral_float_n(cli):
    doc = run_structured(cli, ["bound", "extension", "--n", "4.0", "--k", "0"])
    assert doc["params"]["n"] == "4"
    doc = run_structured(cli, ["bound", "sudoku", "--n", "9.0", "--k", "0"])
    assert doc["params"]["n"] == "9"


def test_bound_real_kinds_accept_fractional_n(cli):
    doc = run_structured(cli, ["bound", "mols-count", "--n", "100.5", "--k", "2"])
    assert doc["params"]["n"] == 100.5


def test_bound_sudoku_and_reference(cli):
    doc = run_structured(cli, ["bound", "sudoku", "--n", "9", "--k", "0"])
    f = fields_by_name(doc)
    assert f["general_quadrature"]["value"] <= f["split_total"]["value"] + 1e-9
    # extension_bound, then its asymptotics, which are never valid bounds
    doc = run_structured(cli, ["bound", "extension", "--n", "100", "--k", "1"])
    assert [(item["name"], item.get("asymptotic_only")) for item in doc["results"]] == [
        ("extension_bound", None), ("average_extensions", True), ("max_mates", True)]


# --------------------------------------------------------------------------
# certify and construct through the CLI


def test_certify_extension_small(cli):
    doc = run_structured(cli, ["certify", "extension", "--n", "3", "--all-k"])
    f = fields_by_name(doc)
    assert f["systems_k1"]["value"] == "12"
    assert f["max_extensions_k1"]["value"] == "6"
    assert f["dominates_k0"]["value"] is True
    assert f["dominates_k1"]["value"] is True


def test_certify_extension_order_5_matches_count_and_maximum(cli, monkeypatch):
    # the one rows census against a count and a maximisation per k
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "5")
    f = fields_by_name(run_structured(cli, ["certify", "extension", "--n", "5", "--all-k"]))
    for k in range(4):
        assert f[f"systems_k{k}"]["value"] == str(count_mols(5, k).value.count)
        assert f[f"max_extensions_k{k}"]["value"] == str(max_extensions(5, k)[0].value.count)
        assert f[f"dominates_k{k}"]["value"] is True


def test_certify_extension_order_5_needs_no_limit_override(cli, monkeypatch):
    monkeypatch.delenv("MOLSCOPE_LIMIT_N", raising=False)
    f = fields_by_name(run_structured(cli, ["certify", "extension", "--n", "5", "--all-k"]))
    assert [f[f"systems_k{k}"]["value"] for k in range(4)] == ["1", "161280", "6220800", "1492992000"]
    assert [f[f"max_extensions_k{k}"]["value"] for k in range(4)] == ["161280", "360", "240", "120"]
    bounds = [f[f"bound_k{k}"]["value"] for k in range(4)]
    assert bounds == [17.914665755704767, 13.805354329464784, 11.215020111171341, 9.438435715406577]
    assert bounds == pytest.approx([25 * float(oracles.integral_I_mp(5, k + 2)) for k in range(4)],
                                   abs=1e-12)
    assert all(f[f"dominates_k{k}"]["value"] is True for k in range(4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_certify_gerechte_symbol_classes_match_reduced_squares(cli, monkeypatch, n):
    # the census of each reduced square's symbol classes, standing for the
    # n!(n-1)! squares that relabel its symbols and permute its other rows
    monkeypatch.setenv("MOLSCOPE_LIMIT_N", "5")
    levels = range(max(n - 2, 0) + 1)
    weight = math.factorial(n) * math.factorial(n - 1)
    systems, maxima = [0] * len(levels), [0] * len(levels)
    for grid in oracles.reduced_latin_squares(n):
        for k, hist in enumerate(extension_census(partition_from_square(Square(grid)), levels[-1])):
            systems[k] += weight * sum(hist.values())
            maxima[k] = max(maxima[k], max(hist, default=0))
    f = fields_by_name(run_structured(cli, ["certify", "gerechte", "--n", str(n)]))
    assert [f[f"symbol-classes_systems_k{k}"]["value"] for k in levels] == list(map(str, systems))
    assert [f[f"symbol-classes_max_extensions_k{k}"]["value"] for k in levels] == list(map(str, maxima))
    if n == 5:
        assert maxima == [360, 240, 120, 0]
        assert systems == [161280, 6220800, 1492992000, 179159040000]


def test_certify_power_structured(cli):
    doc = run_structured(
        cli, ["certify", "power", "--m", "3", "--q", "6", "--k", "3"]
    )
    f = fields_by_name(doc)
    for kk in (1, 2, 3):
        assert f[f"recursion_holds_k{kk}"]["value"] is True
    assert abs(f["power_bound_k2"]["value"] - 10 * math.log(6)) < 1e-9


def test_certify_power_past_log_factorial_is_refused(cli, capsys):
    # step k needs log (m^(k+1))!, and 3^13 and 1001^2 pass 10^6
    for m, k, reach in (("3", "12", "--m 3 runs up to --k 11"),
                        ("1001", "1", "--m must be at most 1000")):
        code, out, _ = cli(["certify", "power", "--m", m, "--q", "6", "--k", k])
        assert (code, out) == (4, b"")
        assert capsys.readouterr().err == (
            f"error: certify power --m {m} --k {k}: step k needs log (m^(k+1))!, "
            f"defined here up to 10^6, so {reach}\n")
    # 3^12 is within reach
    f = fields_by_name(run_structured(cli, ["certify", "power", "--m", "3", "--q", "6",
                                            "--k", "11"]))
    assert f["recursion_holds_k11"]["value"] is True


def test_certify_constant_structured(cli):
    doc = run_structured(
        cli, ["certify", "constant", "--constant", "1.2", "--limit", "3"]
    )
    f = fields_by_name(doc)
    assert f["base_order"]["value"] == "3"
    assert f["base_mates"]["value"] == "6"
    assert f["certified"]["value"] is True


@pytest.mark.parametrize("command", ["certify", "construct"])
def test_constant_power_past_the_float_range_is_refused(cli, capsys, command):
    # --power 323 is the last whose log mate bound fits a float
    code, out, _ = cli([command, "constant", "--constant", "1.2", "--power", "400"])
    assert (code, out) == (4, b"")
    assert capsys.readouterr().err == (
        "error: the 400-fold power of the order-3 base overflows a float\n")


def test_certify_power_without_mates(cli):
    # q = 0 puts -inf on both sides of every step, and -inf <= -inf holds
    f = fields_by_name(run_structured(cli, ["certify", "power", "--m", "3", "--q", "0",
                                            "--k", "2"]))
    assert f["step_bound_k1"]["value"] == f["power_bound_k2"]["value"] == "-inf"
    assert f["recursion_holds_k1"]["value"] is f["recursion_holds_k2"]["value"] is True


@pytest.mark.parametrize("low, high, slack, holds", [
    (10**400, 10**400, 0, True),  # integers stay integers: no OverflowError
    (10**400 + 1, 10**400, 0, False),
    (float("-inf"), 0.0, 0, True),
    (float("-inf"), float("-inf"), 1e-9, True),
    (1.0 + 1e-7, 1.0, 1e-6, True),
    (float("nan"), 0.0, 1e-6, False),
    (0.0, float("nan"), 1e-6, False),
])
def test_decide(low, high, slack, holds):
    doc = cli_mod.ReportDocument("certify test", {})
    cli_mod._decide(doc, "holds", low, high, slack)
    assert [(f.name, f.value, f.provenance) for f in doc.fields] == [
        ("holds", holds, "comparison")]


_construct_for_constant = construct_mod.construct_for_constant

# per certificate: the function replaced (module, name, fake), a run that
# passes without the fake, and the comparison the fake flips
FAILING_CERTIFICATES = {
    "extension": (bounds_mod, "extension_bound_mols", lambda n, k: -1.0,
                  ["--n", "3", "--all-k"], "dominates_k0"),
    "gerechte": (bounds_mod, "extension_bound_general", lambda *args: -1.0,
                 ["--n", "3"], "symbol-classes_dominates_k0"),
    # the count, not the bound: a huge bound would make the cover run to its full count
    "product": (cli_mod, "count_transversal_partitions", lambda *args: ExtensionCount(Exact(0), True),
                ["--base", "cayley:3"], "certified"),
    "power": (construct_mod, "product_mate_bound", lambda *args: -1.0,
              ["--m", "3", "--q", "6", "--k", "2"], "recursion_holds_k1"),
    "constant": (construct_mod, "construct_for_constant",
                 lambda *args: replace(_construct_for_constant(*args), log_lower_bound=0.0),
                 ["--constant", "1.2", "--limit", "3"], "certified"),
    "estimate": (bounds_mod, "closed_form_estimate", lambda *args: -100.0,
                 ["--max-n", "5"], "dominates"),
}


@pytest.mark.parametrize("target", list(FAILING_CERTIFICATES))
def test_every_certificate_can_fail(cli, monkeypatch, target):
    module, name, fake, argv, field = FAILING_CERTIFICATES[target]
    monkeypatch.setattr(module, name, fake)
    code, out, _ = cli(["certify", target, *argv, "--format", "structured"])
    assert code == 5
    assert fields_by_name(json.loads(out))[field]["value"] is False


@pytest.mark.parametrize("target", list(FAILING_CERTIFICATES))
def test_every_comparison_is_decided_once(cli, monkeypatch, target):
    decide, names = cli_mod._decide, []

    def recording(doc, name, *args):
        names.append(name)
        decide(doc, name, *args)

    monkeypatch.setattr(cli_mod, "_decide", recording)
    out = run_structured(cli, ["certify", target, *FAILING_CERTIFICATES[target][3]])
    assert names and names == [
        f["name"] for f in out["results"] if f.get("provenance") == "comparison"]


def test_certify_estimate_catches_one_bad_interior_point(cli, monkeypatch):
    # the sweep must report whichever point is worst, not only (1000, 1000)
    true_estimate = bounds_mod.closed_form_estimate

    def one_bad(n, d):
        return true_estimate(n, d) - (1.0 if (n, d) == (500, 250) else 0.0)

    monkeypatch.setattr(bounds_mod, "closed_form_estimate", one_bad)
    code, out, _ = cli(["certify", "estimate", "--max-n", "1000", "--format", "structured"])
    assert code == 5
    f = fields_by_name(json.loads(out))
    assert f["dominates"]["value"] is False
    brute = max(bounds_mod.integral_I(n, d) - one_bad(n, d)
                for n, d in bounds_mod.estimate_grid(1000))
    assert f["worst_gap"]["value"] == brute


def test_certify_product_runs_in_process(cli, monkeypatch):
    import molscope.search as search_mod

    def unpooled(*args):
        raise AssertionError("certify product started a worker pool")

    monkeypatch.setattr(search_mod, "_pooled", unpooled)
    assert cli(["certify", "product", "--base", "cayley:3", "--threads", "2"])[0] == 0


def test_certify_product_mateless_base(cli):
    # an order-2 base has no mates: the certificate is vacuous but honest
    doc = run_structured(cli, ["certify", "product", "--base", "cayley:2"])
    f = fields_by_name(doc)
    assert f["base_mates"]["value"] == "0"
    assert f["bound_exact"]["value"] == "0"
    assert f["bound_nats"]["value"] == "-inf"
    assert f["certified"]["value"] is True


def test_construct_cayley_plain_output(cli):
    code, out, _ = cli(["construct", "cayley", "--group", "3"])
    assert code == 0
    assert out.decode() == Z3_TEXT


def test_construct_power_structured(cli):
    doc = run_structured(
        cli, ["construct", "power", "--base", "cayley:2", "--k", "2"]
    )
    f = fields_by_name(doc)["document"]
    parsed = parse_document(f["value"])
    assert parsed.squares[0].grid == cayley_table(GroupSpec([2, 2])).grid


def test_construct_translate_mates(cli, tmp_path):
    out = tmp_path / "w"
    code, raw, _ = cli(
        ["construct", "translate-mates", "--group", "3", "--count", "2",
         "--emit-witnesses", str(out)]
    )
    assert code == 0
    text = raw.decode()
    assert "PARTITION" in text and "TRANSVERSAL" in text
    files = verify_all(cli, out)
    assert len(files) == 2
    for f in files:
        assert len(parse_document(f.read_text()).squares) == 2


def test_construct_translate_mates_stops_at_the_first_transversal(cli, monkeypatch):
    # the built-in transversal is the first of the lexicographic walk: the
    # count that shows there is one stops at the first, and the walk is
    # read no further than its first transversal
    import molscope.cli as cli_mod
    from molscope.search import _array_codes, _transversals

    seen, pulled = [], []
    engine, walk = cli_mod.enumerate_transversals, cli_mod.iter_transversals

    def spy(square, opts):
        seen.append(opts)
        return engine(square, opts)

    def walk_spy(square):
        for t in walk(square):
            pulled.append(t)
            yield t

    monkeypatch.setattr(cli_mod, "enumerate_transversals", spy)
    monkeypatch.setattr(cli_mod, "iter_transversals", walk_spy)
    doc = run_structured(cli, ["construct", "translate-mates", "--group", "13", "--count", "2"])
    assert [o.stop_threshold for o in seen] == [1]
    assert len(pulled) == 1
    table = cayley_table(GroupSpec([13]))
    first = next(_transversals(_array_codes(validate_mols([table], partition_rows(13))), 13, ()))
    parsed = parse_document(fields_by_name(doc)["document"]["value"])
    assert parsed.transversal == list(enumerate(first))
    assert fields_by_name(doc)["mates_emitted"]["value"] == "2"
    code, out, _ = cli(["construct", "translate-mates", "--group", "2"])
    assert (code, out) == (3, b"")  # the order-2 table has no transversal


@pytest.mark.parametrize("group", ["2", "4"])
def test_construct_translate_mates_without_a_transversal_never_walks(cli, monkeypatch, capsys, group):
    # the orbit-reduced count settles that an even cyclic table has no
    # transversal; a bare walk would have to exhaust the table to learn it
    import molscope.cli as cli_mod

    def walk(square):
        raise AssertionError("walked the transversals of a table that has none")

    monkeypatch.setattr(cli_mod, "iter_transversals", walk)
    assert cli(["construct", "translate-mates", "--group", group])[:2] == (3, b"")
    assert capsys.readouterr().err == f"error: the order-{group} table has no transversal\n"


def test_construct_translate_mates_builds_only_the_mates_it_writes(cli, monkeypatch, tmp_path):
    import molscope.construct as construct_mod

    checked = []
    check = construct_mod.check_orthogonal
    monkeypatch.setattr(construct_mod, "check_orthogonal",
                        lambda a, b: checked.append(b) or check(a, b))
    for argv, emitted in ((["--group", "3x3"], 362880), (["--group", "5", "--count", "200"], 120),
                          (["--group", "7", "--count", "3"], 3)):
        doc = run_structured(cli, ["construct", "translate-mates", *argv])
        assert fields_by_name(doc)["mates_emitted"]["value"] == str(emitted)
    assert checked == []
    out = tmp_path / "w"
    doc = run_structured(cli, ["construct", "translate-mates", "--group", "3",
                               "--emit-witnesses", str(out)])
    assert fields_by_name(doc)["mates_emitted"]["value"] == "6"
    assert len(checked) == 6 and len(verify_all(cli, out)) == 6


def test_construct_translate_mates_from_file(cli, tmp_path):
    tfile = tmp_path / "t.txt"
    tfile.write_text("TRANSVERSAL\n1 1\n2 2\n3 3\n")
    doc = run_structured(
        cli,
        ["construct", "translate-mates", "--group", "3",
         "--transversal", str(tfile)],
    )
    f = fields_by_name(doc)
    assert f["mates_emitted"]["value"] == "6"
    assert f["partition_parts"]["value"] == "3"
    parsed = parse_document(f["document"]["value"])
    assert parsed.transversal == [(0, 0), (1, 1), (2, 2)]
