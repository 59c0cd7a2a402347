import json

import pytest

from helpers import bailey_pair_rhs_from_scratch, gauss_theta
from spt_kernel import sptcrank, verify
from spt_kernel.rings import ZZ
from spt_kernel.series import SeriesError, TruncatedSeries, packed_residues
from spt_kernel.verify import (
    VerificationReport,
    _compare,
    a2_formula,
    bailey_beta,
    bailey_betas,
    bailey_pair_rhs,
    gauss_psi,
    jtp_psi_dissection,
    run_all,
    verify_bailey_limit,
    verify_bailey_pair,
    verify_congruences,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
    verify_theorem4,
)

ORDER = 45


@pytest.fixture(scope="module")
def reports():
    return {r.check: r for r in run_all(ORDER, oracle_bound=10)}


def test_all_checks_pass(reports):
    assert len(reports) == 7
    for r in reports.values():
        assert r.passed, r.to_json()
        assert r.first_failure is None


def test_reports_are_deterministic():
    a = [r.to_json() for r in run_all(20, oracle_bound=6)]
    b = [r.to_json() for r in run_all(20, oracle_bound=6)]
    assert a == b


def test_report_json_schema(reports):
    data = json.loads(reports["theorem1"].to_json())
    assert set(data) == {"check", "order", "status", "first_failure"}
    assert data["status"] == "pass"


def test_report_is_an_immutable_value():
    report = VerificationReport("theorem1", 30, "pass")
    assert report == VerificationReport("theorem1", 30, "pass", None)
    assert report != VerificationReport("theorem1", 30, "fail", {"n": 1})
    assert repr(report) == ("VerificationReport(check='theorem1', order=30, "
                            "status='pass', first_failure=None)")
    with pytest.raises(AttributeError):
        report.status = "fail"


def test_a2_low_coefficients():
    a2 = a2_formula(10)
    assert a2.coefficient(0) == 1
    assert a2.coefficient(1) == 2


def test_gauss_identity():
    assert gauss_psi(80) == gauss_theta(80)


def test_jtp_dissection():
    assert gauss_psi(80) == jtp_psi_dissection(80)


def test_theorem_implication_chain():
    # the deduction: theorems 2-4 passing forces theorem 1 to pass
    assert verify_theorem2(ORDER, 8).passed
    assert verify_theorem3(ORDER).passed
    assert verify_theorem4(ORDER).passed
    assert verify_theorem1(ORDER).passed


def test_bailey_checks_at_spot_orders():
    assert verify_bailey_pair(order=40).passed
    assert verify_bailey_limit(40).passed


def test_walked_bailey_rhs_matches_from_scratch_sum():
    walked = bailey_pair_rhs(120, 30)
    assert len(walked) == 31
    for n, rhs in enumerate(walked):
        assert rhs == bailey_pair_rhs_from_scratch(n, 120), n


def test_walked_bailey_betas_match_definition():
    walked = bailey_betas(120, 30)
    assert len(walked) == 31
    for n, beta in enumerate(walked):
        assert beta == bailey_beta(n, 120), n


def test_fault_in_one_beta_coefficient_is_reported_exactly(monkeypatch):
    original = verify.bailey_betas

    def faulty(order, n_max):
        betas = original(order, n_max)
        betas[3].coeffs[11] += 1
        return betas

    monkeypatch.setattr(verify, "bailey_betas", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only="bailey_pair")
    # beta_3 = (q;q^2)_3^2 / (q^2;q^2)_6 = 1 - 2q + ... - 56 q^11 + ...;
    # beta_0..beta_2 and beta_3 below q^11 still equal their right sides
    assert bailey_beta(3, ORDER).coefficient(11) == -56
    assert rep.first_failure == {
        "n": 11, "expected": "-56", "actual": "-55", "where": "n=3"}


def test_fault_in_one_alpha_term_is_reported_exactly(monkeypatch):
    original = verify.bailey_alpha

    def faulty(r, order):
        s = original(r, order)
        if r == 2:
            s.coeffs[7] += 1
        return s

    monkeypatch.setattr(verify, "bailey_alpha", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only="bailey_pair")
    # beta_2 = rhs_2 holds at q^7 without the fault, and the fault adds
    # q^7 / ((q^2;q^2)_0 (q^2;q^2)_4), which starts with q^7
    beta = bailey_beta(2, ORDER).coefficient(7)
    assert rep.first_failure == {
        "n": 7, "expected": str(beta + 1), "actual": str(beta),
        "where": "n=2"}


def test_run_builds_each_shared_series_once(monkeypatch):
    # the numerators by name, and the residue sums by the builder they
    # read: SB's sums mod 3 are shared by theorem1 and the congruences
    calls = {"crank_numerator": 0, "rank_numerator": 0, "sb_numerator": 0}
    residues = {}

    def counted(name):
        original = getattr(verify, name)

        def build(*args):
            calls[name] += 1
            return original(*args)

        return build

    def counted_residues(build, order, t):
        key = build.__name__
        residues[key] = residues.get(key, 0) + 1
        return packed_residues(build, order, t)

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    monkeypatch.setattr(verify, "packed_residues", counted_residues)
    assert all(r.passed for r in run_all(60, oracle_bound=6))
    assert calls == {"crank_numerator": 1, "rank_numerator": 1,
                     "sb_numerator": 1}
    assert residues == {"_sb_walk": 1, "_rank_coeffs": 1,
                        "_crank_coeffs": 1}


def test_congruences_small():
    assert verify_congruences(60).passed


def test_failure_reporting_is_exact():
    lhs = TruncatedSeries(ZZ, 5, [1, 2, 3])
    rhs = TruncatedSeries(ZZ, 5, [1, 2, 4])
    rep = _compare("fault", 5, [("injected", lhs, rhs)])
    assert rep.status == "fail"
    assert rep.first_failure == {
        "n": 2, "expected": "4", "actual": "3", "where": "injected"}


# check, the builder it calls, the first argument that selects the faulty
# call (None: every call), the coefficient changed, the subcheck that sees it;
# bailey_pair's row is test_fault_in_one_beta_coefficient_is_reported_exactly
FAULTS = [
    ("bailey_limit", "rank_numerator", None, 17, "bailey-vs-rank"),
    ("congruences", "sptbar2_series", None, 7, "z=1-consistency"),
    ("theorem1", "a2_formula", None, 4, "A2"),
    ("theorem2", "crank_numerator", None, 9, "rank-crank"),
    ("theorem3", "rank_component", 1, 5, "N2rank1"),
    ("theorem4", "crank_component", 2, 6, "M2crank2"),
]


@pytest.mark.parametrize("check, builder, selector, n, where", FAULTS,
                         ids=[f[0] for f in FAULTS])
def test_fault_in_one_coefficient_is_reported_exactly(
        monkeypatch, check, builder, selector, n, where):
    original = getattr(verify, builder)

    def faulty(*args):
        s = original(*args)
        if selector is None or args[0] == selector:
            s.coeffs[n] = s.coeffs[n] + s.ring.one
        return s

    monkeypatch.setattr(verify, builder, faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only=check)
    assert rep.status == "fail"
    assert (rep.first_failure["n"], rep.first_failure["where"]) == (n, where)
    assert rep.first_failure["expected"] != rep.first_failure["actual"]


# rows 24 of u*SB and of rank - crank with the faulty term, u = -z + 2 - 1/z,
# and of the Bailey side and of the rank with the faulty term
_U_SB_24 = ("-1*z^-12 + z^-11 + -2*z^-10 + -2*z^-9 + -4*z^-8 + -8*z^-7 + "
            "-16*z^-6 + -22*z^-5 + -34*z^-4 + -35*z^-3 + z^-2 + {} + "
            "z^2 + -35*z^3 + -34*z^4 + -22*z^5 + -16*z^6 + -8*z^7 + "
            "-4*z^8 + -2*z^9 + -2*z^10 + z^11 + -1*z^12")
_BAILEY_24 = ("4*z^-11 + 8*z^-10 + 24*z^-9 + 56*z^-8 + 124*z^-7 + 256*z^-6 + "
              "510*z^-5 + 952*z^-4 + 1660*z^-3 + 2620*z^-2 + {} + "
              "2620*z^2 + 1660*z^3 + 952*z^4 + 510*z^5 + 256*z^6 + "
              "124*z^7 + 56*z^8 + 24*z^9 + 8*z^10 + 4*z^11")
RANK_TERM_FAULTS = [
    ("theorem2", {
        "n": 24, "where": "rank-crank",
        "expected": _U_SB_24.format("72*z^-1 + 100 + 72*z"),
        "actual": _U_SB_24.format("68*z^-1 + 108 + 68*z")}),
    ("bailey_limit", {
        "n": 24, "where": "bailey-vs-rank",
        "expected": _BAILEY_24.format("3566*z^-1 + 3968 + 3566*z"),
        "actual": _BAILEY_24.format("3562*z^-1 + 3976 + 3562*z")}),
]


@pytest.mark.parametrize("check, failure", RANK_TERM_FAULTS,
                         ids=[f[0] for f in RANK_TERM_FAULTS])
def test_fault_in_one_rank_lambert_term_is_reported_exactly(
        monkeypatch, check, failure):
    # the sign of Lambert term n = 4, which starts at q^{4^2 + 2*4} = q^24,
    # flipped in the rank series (not in its majorant): the rank changes by
    # 4 (2 - z - 1/z) there, and both checks report rows of the series
    # themselves, not of their numerators
    original = sptcrank._rank_term

    def faulty(ring, n, start, bound):
        term = original(ring, n, start, bound)
        return [-x for x in term] if n == 4 and not bound else term

    monkeypatch.setattr(sptcrank, "_rank_term", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only=check)
    assert rep.first_failure == failure


def test_order_mismatch_is_an_error():
    lhs = TruncatedSeries(ZZ, 5, [1, 2, 3])
    rhs = TruncatedSeries(ZZ, 4, [1, 2, 3])
    with pytest.raises(SeriesError):
        _compare("mismatch", 5, [("short-rhs", lhs, rhs)])


def test_preconditions():
    with pytest.raises(ValueError):
        verify_theorem1(4)
    with pytest.raises(ValueError):
        run_all(30, only="theorem9")
