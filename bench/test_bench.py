"""Tests of the benchmark itself: the correctness gate, the tracer and the
layer isolation its workloads promise.  Run with

    python3 -m pytest bench -q

They start the CLI as the benchmark does, so they take about half a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return run.load_expected()


def traced_layers(workload, expected):
    op = run.run_operation(run.WORKLOADS[workload], expected, True,
                           run.Calibrator())
    assert op["ok"], op["errors"]  # traced stdout matches the untraced digest
    return run.layer_metrics(run.merge_traces(op["traces"]), op["out_bytes"])


def test_every_invocation_has_an_expected_digest(expected):
    keys = {run.invocation_key(a) for inv in run.WORKLOADS.values() for a in inv}
    assert keys == set(expected)
    assert all(e["exit"] == 0 for e in expected.values())


def test_tampered_digest_counts_as_failure(expected):
    tampered = json.loads(json.dumps(expected))
    key = run.invocation_key(run.WORKLOADS["roots-cyclo"][1])
    tampered[key]["sha256"] = "0" * 64
    specs = run.load_metric_specs()
    report, result = run.bench("roots-cyclo", 0, 0.1, False, tampered, specs)
    assert report["operations"]["fail_ratio"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_roots_cyclo_makes_no_laurent_calls(expected):
    m = traced_layers("roots-cyclo", expected)
    assert m["rings.laurent_mul.calls"] == 0
    assert m["rings.laurent_add.calls"] == 0
    assert m["rings.cyclo_mul.calls"] > 0


@pytest.mark.parametrize("workload", ["table-laurent", "export-rows"])
def test_laurent_workloads_make_no_cyclotomic_calls(workload, expected):
    m = traced_layers(workload, expected)
    assert m["rings.cyclo_mul.calls"] == 0
    assert m["rings.cyclo_add.calls"] == 0
    assert m["rings.laurent_mul.calls"] > 0


def test_counts_repeat_exactly(expected):
    first = traced_layers("verify-suite", expected)
    second = traced_layers("verify-suite", expected)
    counts = {k for k, v in first.items() if isinstance(v, int)}
    assert {"cli.out_bytes", "rings.max_coeff_bits",
            "partitions.overpartitions.count"} <= counts
    assert all(first[k] > 0 for k in counts if k.startswith("series."))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_tracer_restores_every_reference():
    import spt_kernel
    from spt_kernel import cli, rings, series, sptcrank, verify

    def refs():
        mods = [spt_kernel, cli, rings, series, sptcrank, verify]
        return ([dict(vars(m)) for m in mods] + [dict(verify.CHECKS)]
                + [dict(vars(rings.LaurentPolynomial)),
                   dict(vars(rings.CyclotomicInteger))])

    before = refs()
    t = tracer.Tracer()
    t.install()
    try:
        assert sptcrank.mul_lists is series.mul_lists
        assert rings.LaurentPolynomial.__radd__ is rings.LaurentPolynomial.__add__
        assert verify.CHECKS["theorem1"] is verify.verify_theorem1
        assert vars(rings.LaurentPolynomial)["__mul__"] is not before[-2]["__mul__"]
        sptcrank.sb_series(12)
    finally:
        t.restore()
    assert refs() == before
    stats = t.snapshot()["spans"]
    assert stats["sptcrank.sb_laurent"][0] == 1
    assert stats["series.mul_lists"][0] > 0
    assert stats["rings.laurent_mul"][0] > 0


def test_refuses_a_directory_without_the_program():
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        root = Path(tmp)
        shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", root)
        shutil.copytree(BENCH_DIR, root / "bench",
                        ignore=shutil.ignore_patterns("tmp*", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "roots-cyclo",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
