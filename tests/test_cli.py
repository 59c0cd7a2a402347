import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import residue_class_sums
import spt_kernel
from spt_kernel import cli, sptcrank
from spt_kernel.cli import (
    _BLOCK,
    _component_json,
    _emit,
    _parse,
    _row_json,
    _spt2_json,
    _table_json,
    main,
)
from spt_kernel.sptcrank import sb_series


def src_env() -> dict:
    return dict(os.environ,
                PYTHONPATH=str(Path(spt_kernel.__file__).resolve().parents[1]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestTable:
    def test_q8_mod5_row(self, capsys):
        code, out = run_cli(capsys, "table", "--order", "8", "--t", "5")
        assert code == 0
        assert "[5, 3, 2, 2, 3]" in out.splitlines()[-1]

    def test_row4_mod3(self, capsys):
        code, out = run_cli(capsys, "table", "--order", "4", "--t", "3")
        assert code == 0
        assert "[1, 1, 1]" in out.splitlines()[-1]

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "table", "--order", "8", "--t", "5",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,spt2,class0,class1,class2,class3,class4"
        assert lines[-1] == "8,15,5,3,2,2,3"

    def test_json_exact_strings(self, capsys):
        code, out = run_cli(capsys, "table", "--order", "4", "--format", "json")
        rows = [json.loads(line) for line in out.strip().splitlines()]
        assert rows[-1]["spt2"] == "3"
        assert all(isinstance(r["spt2"], str) for r in rows)

    def test_order_zero_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--order", "0"])
        assert exc.value.code == 2

    def test_modulus_above_row_width_is_usage_error(self, capsys, monkeypatch):
        import spt_kernel.cli as cli

        code, out = run_cli(capsys, "table", "--order", "5", "--t", "11",
                            "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].endswith(",class9,class10")

        def unreachable(order):
            raise AssertionError("series built before argument checks")

        def unreachable_residues(order, t):
            raise AssertionError("residues built before argument checks")

        monkeypatch.setattr(sptcrank, "sb_series", unreachable)
        monkeypatch.setattr(cli, "sb_rows", unreachable)
        monkeypatch.setattr(cli, "sb_residues", unreachable_residues)
        monkeypatch.setattr(cli, "sptbar2_series", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["table", "--order", "5", "--t", "1000000000"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["table", "--order", "5", "--t", "12"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("t", [1, 2, 3, 30, 31, 60, 61, 121])
    def test_classes_are_residue_sums_of_rows(self, capsys, monkeypatch, t):
        # every modulus up to 2N+1 reads the residues, never the rows
        import spt_kernel.cli as cli

        table = sb_series(60)

        def unreachable(order):
            raise AssertionError("table built the Laurent rows")

        monkeypatch.setattr(sptcrank, "sb_series", unreachable)
        monkeypatch.setattr(cli, "sb_rows", unreachable)
        code, out = run_cli(capsys, "table", "--order", "60", "--t", str(t),
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 60
        for n, line in enumerate(lines, 1):
            classes = [int(c) for c in line.split(",")[2:]]
            assert classes == residue_class_sums(table.rows[n], t)


@pytest.mark.parametrize("argv", [
    ["table"], ["verify"], ["export", "--what", "A2"],
], ids=["table", "verify", "export"])
@pytest.mark.parametrize("order", [10**20, sys.maxsize // 8 + 1],
                         ids=["1e20", "maxsize/8+1"])
def test_order_beyond_any_list_is_usage_error(capsys, argv, order):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", str(order)])
    assert exc.value.code == 2
    assert "--order must be at most" in capsys.readouterr().err


class TestVerify:
    def test_all_pass_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "--order", "24",
                            "--oracle-bound", "6", "--format", "json")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert len(reports) == 7
        assert all(r["status"] == "pass" for r in reports)

    def test_only_filter(self, capsys):
        code, out = run_cli(capsys, "verify", "--order", "20",
                            "--only", "theorem1", "--format", "json")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["check"] for r in reports] == ["theorem1"]

    def test_unknown_check_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--only", "theorem9"])
        assert exc.value.code == 2

    def test_oracle_bound_guard(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--oracle-bound", "40"])
        assert exc.value.code == 2

    def test_error_inside_a_check_is_not_a_usage_error(self, monkeypatch):
        # the arguments are valid; a ValueError raised while a check runs
        # (here from SB(zeta_3, q), which the congruences read) is a fault,
        # not exit code 2
        import spt_kernel.verify as verify

        def broken(order):
            raise ValueError("negative spt-crank residue sum")

        monkeypatch.setattr(verify, "sb_at_zeta3", broken)
        with pytest.raises(ValueError, match="negative"):
            main(["verify", "--order", "20", "--only", "congruences"])

    def test_byte_identical_runs(self, capsys):
        _, first = run_cli(capsys, "verify", "--order", "20",
                           "--oracle-bound", "5", "--format", "json")
        _, second = run_cli(capsys, "verify", "--order", "20",
                            "--oracle-bound", "5", "--format", "json")
        assert first == second


class TestExport:
    def test_a2_coefficients(self, capsys):
        code, out = run_cli(capsys, "export", "--what", "A2", "--order", "10",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[:3] == ["n,coefficient", "0,1", "1,2"]

    def test_spt2_csv(self, capsys):
        code, out = run_cli(capsys, "export", "--what", "spt2", "--order", "8",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert "4,3" in lines and "8,15" in lines

    def test_m2crank0_constant_term(self, capsys):
        code, out = run_cli(capsys, "export", "--what", "M2crank0",
                            "--order", "6", "--format", "csv")
        assert out.strip().splitlines()[1] == "0,1"

    def test_table_export_csv(self, capsys):
        code, out = run_cli(capsys, "export", "--what", "table", "--order", "8",
                            "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,coefficient"
        assert "8,0,5" in lines

    def test_negative_count_ends_the_export(self, capsys, tmp_path,
                                            monkeypatch):
        # a negative count at row 90 of the rows that sb_rows reads off
        # SB*D in Z[w] ends the export with the refusal SptCrankTable
        # gives.  The rows stream, so the blocks of _BLOCK lines that rows
        # below 90 filled have been written by then, and no line of row 90
        # or above
        argv = ["export", "--what", "table", "--order", "100", "--format",
                "csv"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        full = out.splitlines()
        original = sptcrank.numerator_rows

        def negated(values, bits, top):
            for n, (digits, o) in enumerate(original(values, bits, top)):
                if n == 90:
                    digits[o] = -digits[o]
                yield digits, o

        monkeypatch.setattr(sptcrank, "numerator_rows", negated)
        target = tmp_path / "rows.csv"
        with pytest.raises(ValueError, match=(
                r"negative spt-crank count at \(m=0, n=90\)")):
            main([*argv, "--out", str(target)])
        written = target.read_text().splitlines()
        assert written and len(written) % _BLOCK == 0
        assert written == full[:len(written)]
        assert all(int(line.split(",")[0]) < 90 for line in written[1:])

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "a2.csv"
        code, _ = run_cli(capsys, "export", "--what", "A2", "--order", "5",
                          "--format", "csv", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("n,coefficient")

    def test_out_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPT_KERNEL_OUT_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "export", "--what", "A2", "--order", "5",
                          "--format", "csv", "--out", "a2.csv")
        assert code == 0
        assert (tmp_path / "a2.csv").exists()

    def test_unwritable_path(self, capsys):
        code = main(["export", "--what", "A2", "--order", "5",
                     "--out", "/nonexistent-dir/a2.csv"])
        assert code == 1


@pytest.mark.parametrize("argv", [
    ["table"], ["verify"], ["export", "--what", "table"],
    ["export", "--what", "spt2"],
], ids=["table", "verify", "export-table", "export-spt2"])
def test_unwritable_path_fails_before_any_series(capsys, monkeypatch, argv):
    import spt_kernel.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("built before the output path was checked")

    for name in ("run_all", "sb_residues", "sb_rows", "sptbar2_series"):
        monkeypatch.setattr(cli, name, unreachable)
    monkeypatch.setattr(sptcrank, "sb_series", unreachable)
    code = main([*argv, "--order", "300", "--out", "/nonexistent-dir/r.json"])
    assert code == 1
    assert "cannot open output" in capsys.readouterr().err


def test_usage_error_leaves_existing_output(capsys, tmp_path):
    target = tmp_path / "r.json"
    target.write_text("kept\n")
    code = main(["verify", "--order", "5", "--out", str(target)])
    assert code == 2
    assert target.read_text() == "kept\n"


def test_usage_error_leaves_no_new_output(capsys, tmp_path):
    target = tmp_path / "new.json"
    code = main(["verify", "--order", "5", "--out", str(target)])
    assert code == 2
    assert "order must be >= 9" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("order, only, minimum", [
    (8, [], 9), (5, [], 9), (8, ["--only", "theorem3"], 9),
    (3, ["--only", "bailey_limit"], 4),
])
def test_order_too_small_runs_no_check(capsys, monkeypatch, tmp_path,
                                       order, only, minimum):
    import spt_kernel.verify as verify_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran before the order was checked")

    for name in verify_mod.CHECKS:
        monkeypatch.setitem(verify_mod.CHECKS, name, unreachable)
    target = tmp_path / "r.json"
    code = main(["verify", "--order", str(order), *only, "--out", str(target)])
    assert code == 2
    assert f"order must be >= {minimum}" in capsys.readouterr().err
    assert not target.exists()


@pytest.mark.parametrize("order, only, message", [
    (1, [], "order must be >= 9 (theorem3, theorem4)"),
    (8, [], "order must be >= 9 (theorem3, theorem4)"),
    (5, ["--only", "congruences"], "order must be >= 8 (congruences)"),
])
def test_order_message_states_the_largest_minimum(capsys, order, only,
                                                  message):
    # one message, at any order below it, not one minimum per retry
    code = main(["verify", "--order", str(order), *only])
    assert code == 2
    assert capsys.readouterr().err == f"spt-kernel: {message}\n"


def test_usage_error_comes_before_the_output_check(capsys):
    code = main(["verify", "--order", "5", "--out", "/nonexistent-dir/r.json"])
    assert code == 2
    assert "order must be >= 9" in capsys.readouterr().err


def test_output_probe_creates_and_truncates_nothing(capsys, tmp_path):
    from spt_kernel.cli import _probe_out

    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("kept\n")
    assert _probe_out(str(new)) and not new.exists()
    assert _probe_out(str(kept)) and kept.read_text() == "kept\n"
    assert not _probe_out(str(tmp_path / "no-dir" / "r.json"))
    assert "cannot open output" in capsys.readouterr().err


@pytest.mark.parametrize("argv, sort_keys", [
    (["table"], True),
    (["export", "--what", "table"], False),
    (["export", "--what", "spt2"], False),
    (["export", "--what", "A2"], False),
], ids=["table", "export-table", "export-spt2", "export-A2"])
@pytest.mark.parametrize("order", [1, 8, 60])
def test_json_records_match_the_encoder(capsys, argv, sort_keys, order):
    code, out = run_cli(capsys, *argv, "--order", str(order), "--format", "json")
    assert code == 0
    for line in out.splitlines():
        assert json.dumps(json.loads(line), sort_keys=sort_keys) == line


# negative, zero and wider than 64 bits
wide_ints = st.integers(min_value=-(2**200), max_value=2**200)


@given(wide_ints, wide_ints, wide_ints)
def test_row_record_is_json_dumps(n, m, c):
    # digits [0, c] at offset 1 - m: one record for c at m, none for 0
    assert _row_json(n, [0, c], 1 - m) == ([json.dumps(
        {"n": n, "m": m, "coefficient": str(c)})] if c else [])


@given(st.text(), wide_ints, st.lists(wide_ints))
def test_component_record_is_json_dumps(target, order, coeffs):
    assert _component_json(target, order, coeffs) == json.dumps({
        "target": target, "order": order,
        "coefficients": [str(c) for c in coeffs]})


@given(wide_ints, wide_ints)
def test_spt2_record_is_json_dumps(n, v):
    assert _spt2_json(n, v) == json.dumps({"n": n, "spt2": str(v)})


@given(wide_ints, wide_ints, wide_ints, st.lists(wide_ints, min_size=1))
def test_table_record_is_json_dumps(n, v, t, classes):
    assert _table_json(n, v, t, classes) == json.dumps({
        "n": n, "spt2": str(v), "t": t,
        "classes": [str(c) for c in classes],
    }, sort_keys=True)


EXPORT_TABLE = ["export", "--what", "table", "--order", "200", "--format", "csv"]


@pytest.mark.parametrize("argv, lines_read, unbuffered", [
    (EXPORT_TABLE, 1, False),
    (["table", "--order", "200", "--t", "401", "--format", "csv"], 1, False),
    (["verify", "--order", "20", "--only", "theorem1"], 0, False),
    (["export", "--what", "A2", "--order", "20"], 0, False),
    (EXPORT_TABLE, 1, True),
    (["export", "--what", "A2", "--order", "20"], 0, True),
], ids=["export-table", "table", "verify", "export-A2",
        "export-table-unbuffered", "export-A2-unbuffered"])
def test_closed_pipe_exits_one_and_writes_no_stderr(argv, lines_read,
                                                    unbuffered):
    # The rows (about 290 KB each, far more than a pipe buffer holds) break
    # the pipe inside the write loop; the short outputs, whose reader closes
    # before they are written, break it at the final flush, or, with
    # PYTHONUNBUFFERED set, at their one write.
    env = src_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"  # each write goes straight to the fd
    else:
        env.pop("PYTHONUNBUFFERED", None)  # block-buffered, the default
    with subprocess.Popen([sys.executable, "-m", "spt_kernel.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        lines = [proc.stdout.readline() for _ in range(lines_read)]
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
    assert all(line.startswith(b"n,") for line in lines)
    assert code == 1
    assert err == b""


def test_blocks_write_every_line_once(tmp_path):
    # two full blocks and a partial one: no line lost or merged at a seam
    lines = [f"line {i}" for i in range(2 * _BLOCK + 3)]
    out = tmp_path / "out.txt"
    assert _emit(lines, str(out)) == 0
    assert out.read_text() == "".join(line + "\n" for line in lines)
    # a generator is written the same, block by block
    assert _emit((line for line in lines), str(out)) == 0
    assert out.read_text() == "".join(line + "\n" for line in lines)
    assert _emit([], str(out)) == 0
    assert out.read_text() == ""


def cold_import_modules():
    """The modules a cold ``import spt_kernel.cli`` loads; -S leaves out
    whatever the site packages import."""
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c",
                          "import spt_kernel.cli"],
                         env=src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in run.stderr.splitlines()}
    assert "spt_kernel.cli" in loaded
    return loaded


def test_cold_import_loads_no_introspection_modules():
    # dataclasses imports inspect, ast, dis and tokenize, about 9 ms of every
    # cold start; the package's records are plain classes
    loaded = cold_import_modules()
    assert not loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_cold_import_loads_no_json():
    # the JSON lines are written without json (json_string and the record
    # f-strings), so no CLI path pays for its import
    assert "json" not in cold_import_modules()


# One run of each JSON output in a fresh interpreter (-S: no site
# packages), which reports the modules that importing the CLI and running
# it added to sys.modules.
FOOTPRINT = """
import sys
before = set(sys.modules)
from spt_kernel.cli import main
for argv in (["verify", "--order", "12", "--oracle-bound", "4",
              "--format", "json"],
             ["table", "--order", "10", "--format", "csv"],
             ["export", "--what", "A2", "--order", "10", "--format", "json"]):
    if main(argv):
        sys.exit(f"{argv} failed")
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cli_runs_load_no_argparse_gettext_locale_or_json():
    # argparse and the gettext and locale imports of its messages took
    # about 5 ms of every cold process, json 2.3 ms of a JSON output
    run = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT],
                         env=src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 0, run.stderr
    added = set(run.stderr.split())
    assert "spt_kernel.cli" in added
    assert not added & {"argparse", "gettext", "locale", "json"}


# -- the argv contract --------------------------------------------------------

# every argv the parser or main refuses, and a part of its message
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    (["--bogus", "verify"], "unrecognized arguments: --bogus"),
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "extra"], "unrecognized arguments: extra"),
    (["verify", "--or", "5"],
     "ambiguous option: --or could match --order, --oracle-bound"),
    (["table", "--o=5"], "ambiguous option: --o could match --order, --out"),
    (["verify", "--order"], "argument --order: expected one argument"),
    (["verify", "--out", "--order", "5"],
     "argument --out: expected one argument"),
    (["table", "--order", "x"], "argument --order: invalid int value: 'x'"),
    (["table", "--t=1.5"], "argument --t: invalid int value: '1.5'"),
    (["table", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', "
     "'text')"),
    (["export", "--what", "B7"], "argument --what: invalid choice: 'B7'"),
    (["export"], "the following arguments are required: --what"),
    (["verify", "--help=x"],
     "argument -h/--help: ignored explicit argument 'x'"),
    (["table", "--order", "0"], "--order must be >= 1"),
    (["table", "--order", "5", "--t", "12"],
     "--t must be between 1 and 2*order+1"),
    (["verify", "--oracle-bound", "-1"],
     "--oracle-bound must be between 0 and 30"),
    (["verify", "--only", "theorem9"], "unknown check 'theorem9'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(a) or "no-arguments"
                              for a, _ in USAGE_ERRORS])
def test_usage_error_exits_two_with_usage_and_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: spt-kernel")
    assert error.startswith("spt-kernel: error: ") and message in error


@cache
def argparse_reference() -> argparse.ArgumentParser:
    """argparse configured from the same option table: the reference for
    the syntax the table parser accepts."""
    parser = argparse.ArgumentParser(prog="spt-kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in cli._COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for name, dest, kind, default, help in options:
            kw = ({"choices": kind} if isinstance(kind, tuple)
                  else {"type": kind})
            if default is cli._REQUIRED:
                kw["required"] = True
            else:
                kw["default"] = default
            p.add_argument(name, dest=dest, help=help, **kw)
    return parser


def parse_outcome(parse, argv):
    """The parsed values as a dict, or the exit code parse raised."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code


SYNTAX = [
    ["verify", "--order=12", "--only=theorem1", "--format=json"],
    ["verify", "--ord", "12", "--on", "theorem1", "--f", "csv"],
    ["verify", "--ora=7", "--orde", "-3"],
    ["verify", "--order", "12", "--order", "13", "--format", "csv",
     "--format", "json"],
    ["table", "--t", "5", "--t=7", "--out", "-", "--out="],
    ["export", "--wh=table", "--what", "spt2", "--out", "-1.5"],
    ["table", "--out", "a b", "--order", " 8 "],
]


@pytest.mark.parametrize("argv", SYNTAX, ids=" ".join)
def test_option_syntax_parses_as_argparse_did(argv):
    assert parse_outcome(_parse, argv) == parse_outcome(
        argparse_reference().parse_args, argv)


def test_defaults():
    common = {"order": 100, "format": "text", "out": None}
    assert vars(_parse(["table"])) == {"command": "table", **common, "t": 3}
    assert vars(_parse(["verify"])) == {
        "command": "verify", **common, "oracle_bound": 20, "only": None}
    assert vars(_parse(["export", "--what", "A2"])) == {
        "command": "export", **common, "what": "A2"}


# An argv is a command and a list of items, each an option with a value
# it accepts (whole names, prefixes, "=value") or a noise word: unknown or
# ambiguous options, values that are not ints, choices or values at all;
# or it is any words at all.  No -h, whose place among errors argparse
# decides differently, and no "--", since no command takes a positional
# argument.
COMMON_ITEMS = [("--order", "12"), ("--ord", "-5"), ("--order", " 8 "),
                ("--order=7",), ("--format", "json"), ("--f", "csv"),
                ("--format=text",), ("--out", "a b"), ("--out", "-"),
                ("--out", "-.5"), ("--out=",)]
ITEMS = {
    "table": COMMON_ITEMS + [("--t", "5"), ("--t=2",)],
    "verify": COMMON_ITEMS + [("--oracle-bound", "7"), ("--ora=3",),
                              ("--only", "theorem1"), ("--on", "x")],
    "export": COMMON_ITEMS + [("--what", "A2"), ("--w", "table"),
                              ("--what=spt2",)],
}
NOISE = ["--or", "--o", "--o=7", "--t", "--what", "--bogus", "x", "", "-",
         "-x", "-5", "xml", "table"]


def argv_of(command):
    # an option with a value three times as often as a noise word
    items = st.sampled_from(3 * ITEMS[command] + [(w,) for w in NOISE])
    return st.lists(items, max_size=5).map(
        lambda items: [command, *(word for item in items for word in item)])


ARGVS = st.one_of(
    st.sampled_from(list(ITEMS)).flatmap(argv_of),
    st.lists(st.sampled_from([*ITEMS, *NOISE, "--order=7", "--only"]),
             max_size=6),
)


@given(ARGVS)
def test_any_argv_parses_or_fails_as_argparse_did(argv):
    assert parse_outcome(_parse, argv) == parse_outcome(
        argparse_reference().parse_args, argv)


OPTIONS = {
    "table": ["--order", "--format", "--out", "--t"],
    "verify": ["--order", "--format", "--out", "--oracle-bound", "--only"],
    "export": ["--order", "--format", "--out", "--what"],
}


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["--he"],
    *([command, flag] for command in OPTIONS for flag in ("-h", "--help")),
    ["verify", "--order", "5", "--he"], ["export", "-h", "--what", "B7"],
], ids=" ".join)
def test_help_exits_zero_and_names_every_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: spt-kernel")
    for name in ["-h, --help", *OPTIONS.get(argv[0], OPTIONS)]:
        assert name in out


@pytest.mark.parametrize("argv", [
    [], ["verify", "--bogus"], ["table", "--order", "x"], ["export"],
    ["verify", "--order", "5"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_error_in_a_process_leaves_no_traceback(argv):
    run = subprocess.run([sys.executable, "-m", "spt_kernel.cli", *argv],
                         env=src_env(), capture_output=True, text=True,
                         timeout=60)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith(("usage: spt-kernel", "spt-kernel: "))
    assert "Traceback" not in run.stderr
