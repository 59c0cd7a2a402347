import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import residue_class_sums
import spt_kernel
from spt_kernel import sptcrank
from spt_kernel.cli import (
    _BLOCK,
    _emit,
    _row_json,
    _spt2_json,
    _table_json,
    main,
)
from spt_kernel.sptcrank import sb_series


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
        # a negative count at row 90 of the SB reader ends the export with
        # the refusal SptCrankTable gives.  The rows stream, so the blocks
        # of _BLOCK lines that rows below 90 filled have been written by
        # then, and no line of row 90 or above
        argv = ["export", "--what", "table", "--order", "100", "--format",
                "csv"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        full = out.splitlines()
        original = sptcrank.full_rows

        def negated(build, order):
            for n, (digits, o) in enumerate(original(build, order)):
                if n == 90:
                    digits[o] = -digits[o]
                yield digits, o

        monkeypatch.setattr(sptcrank, "full_rows", negated)
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
], ids=["table", "export-table", "export-spt2"])
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
    env = dict(os.environ,
               PYTHONPATH=str(Path(spt_kernel.__file__).resolve().parents[1]))
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
    env = dict(os.environ,
               PYTHONPATH=str(Path(spt_kernel.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c",
                          "import spt_kernel.cli"],
                         env=env, capture_output=True, text=True, timeout=60)
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
    # json is imported where a JSON string is built, so the text outputs
    # never pay for it
    assert "json" not in cold_import_modules()
