"""Byte-identical output guard: every CLI invocation keyed in
bench/expected.json, run in process, must exit and print exactly as
recorded there (exit code and sha256 of stdout)."""

import hashlib
import json
from pathlib import Path

import pytest

from spt_kernel.cli import main

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "expected.json").read_text())


@pytest.mark.parametrize("invocation", sorted(EXPECTED))
def test_stdout_matches_recorded_digest(invocation, capsysbinary, monkeypatch):
    monkeypatch.delenv("SPT_KERNEL_OUT_DIR", raising=False)
    code = main(invocation.split())
    out = capsysbinary.readouterr().out
    want = EXPECTED[invocation]
    assert code == want["exit"]
    assert len(out) == want["bytes"]
    assert hashlib.sha256(out).hexdigest() == want["sha256"]
