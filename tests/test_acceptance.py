"""Acceptance gate: one test per criterion, exact match everywhere.

Each test prints a single PASS line on success so a -s run reads as a
checklist.  All expected values are either taken from the source results
being verified or frozen from the independent enumeration oracles.
"""

import subprocess
import sys
import time

import pytest

from helpers import div_binomial, gauss_theta, pair_crank_series
from spt_kernel.partitions import spt_family
from spt_kernel.rings import LAURENT, ZZ, LaurentPolynomial, residue_class_sums
from spt_kernel.series import TruncatedSeries, pochhammer_inf
from spt_kernel.sptcrank import (
    partition_pair_oracle,
    sb_series,
    sptbar2_series,
    vector_partition_oracle,
)
from spt_kernel.verify import (
    gauss_psi,
    jtp_psi_dissection,
    verify_bailey_limit,
    verify_bailey_pair,
    verify_congruences,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)


def _ok(label):
    print(f"ACCEPTANCE {label}: PASS")


def _spt_variant_series(order, overlined, parity):
    """Smallest-part generating functions, summed by smallest part n:
    q^n * [(-q^{n+1};q)_inf if overpartitions] / ((1-q^n)^2 (q^{n+1};q)_inf),
    optionally restricted to odd/even smallest part."""
    acc = TruncatedSeries(ZZ, order)
    for n in range(1, order + 1):
        if parity == "odd" and n % 2 == 0:
            continue
        if parity == "even" and n % 2 == 1:
            continue
        term = pochhammer_inf(ZZ, 1, n + 1, 1, order).invert()
        if overlined:
            term = term * pochhammer_inf(ZZ, -1, n + 1, 1, order)
        acc = acc + div_binomial(div_binomial(term.shift(n), 1, n), 1, n)
    return acc


def test_criterion_01_spt_values_at_four():
    start = time.monotonic()
    expected = {"spt": 10, "sptbar": 13, "sptbar1": 10, "sptbar2": 3}
    assert {v: spt_family(4, v) for v in expected} == expected
    series = {
        "spt": _spt_variant_series(8, False, "any"),
        "sptbar": _spt_variant_series(8, True, "any"),
        "sptbar1": _spt_variant_series(8, True, "odd"),
        "sptbar2": _spt_variant_series(8, True, "even"),
    }
    assert {v: s.coefficient(4) for v, s in series.items()} == expected
    for variant, s in series.items():
        for n in range(1, 9):
            assert s.coefficient(n) == spt_family(n, variant), (variant, n)
    assert time.monotonic() - start < 1.0
    _ok("1 (spt family values at n=4)")


def test_criterion_02_q8_test_vector():
    table = sb_series(8)
    assert table.row(8) == LaurentPolynomial(
        {3: 1, 2: 1, 1: 3, 0: 5, -1: 3, -2: 1, -3: 1})
    assert residue_class_sums(table.row(8), 5) == [5, 3, 2, 2, 3]
    assert table.spt2(8) == 15
    assert 15 % 5 == 0
    # unequal classes: row 8 is nonzero at a primitive 5th root of unity
    assert len(set(residue_class_sums(table.row(8), 5))) > 1
    _ok("2 (q^8 residue classes mod 5)")


def test_criterion_03_congruences_to_300():
    start = time.monotonic()
    report = verify_congruences(300)
    assert report.passed, report.to_json()
    assert time.monotonic() - start < 120
    _ok("3 (congruences and mod-3 refinement, n <= 300)")


def test_criterion_04_theorem1_to_150():
    report = verify_theorem1(150)
    assert report.passed, report.to_json()
    _ok("4 (theorem 1 dissection to order 150)")


def test_criterion_05_theorem2_to_120():
    report = verify_theorem2(120, n_oracle=20)
    assert report.passed, report.to_json()
    _ok("5 (rank-minus-crank identity to order 120, enumeration to 20)")


def test_criterion_06_theorems3_and_4_to_150():
    r3 = verify_theorem3(150)
    r4 = verify_theorem4(150)
    assert r3.passed, r3.to_json()
    assert r4.passed, r4.to_json()
    _ok("6 (rank and crank dissections to order 150)")


def test_criterion_07_bailey_pair_and_limit():
    rp = verify_bailey_pair(order=120)
    rl = verify_bailey_limit(60)
    assert rp.passed, rp.to_json()
    assert rl.passed, rl.to_json()
    _ok("7 (Bailey pair n <= 30 at order 120; limit identity at order 60)")


def test_criterion_08_oracle_equivalence_to_20():
    table = sb_series(20)
    pcs = pair_crank_series(20)
    for n in range(1, 21):
        row = table.row(n)
        pair = partition_pair_oracle(n)
        assert vector_partition_oracle(n) == row, n
        assert pair == row, n
        assert pcs.coefficient(n) == row, n
        assert all(c >= 0 for c in pair.c.values()), n
    _ok("8 (vector/pair/series/q-binomial equivalence, n <= 20)")


def test_criterion_09_proof_step_identities_to_200():
    psi = gauss_psi(200)
    assert psi == gauss_theta(200)
    assert psi == jtp_psi_dissection(200)

    pentagonal = TruncatedSeries(ZZ, 200)
    pentagonal.coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= 200:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= 200:
                pentagonal.coeffs[e] = -1 if k % 2 else 1
        k += 1
    assert pochhammer_inf(ZZ, 1, 1, 1, 200) == pentagonal
    _ok("9 (Gauss, Jacobi-triple-product and pentagonal identities to 200)")


@pytest.mark.parametrize("fmt", ["json"])
def test_criterion_10_determinism_and_runtime(fmt):
    cmd = [sys.executable, "-m", "spt_kernel.cli", "verify",
           "--order", "100", "--format", fmt]
    runs = []
    for _ in range(2):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, check=False)
        assert time.monotonic() - start < 120
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    _ok("10 (byte-identical verify runs at order 100 within budget)")
