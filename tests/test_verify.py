import json

import pytest

from helpers import bailey_pair_rhs_from_scratch, gauss_theta
from spt_kernel import series, sptcrank, verify
from spt_kernel.rings import ZZ
from spt_kernel.series import SeriesError, TruncatedSeries
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
    with pytest.raises(AttributeError):
        report.note = 1
    with pytest.raises(AttributeError):
        del report.check
    assert hash(report) == hash(VerificationReport("theorem1", 30, "pass"))
    failed = VerificationReport("theorem2", 60, "fail", {
        "n": 3, "where": "rank", "expected": "1", "actual": "-2"})
    assert failed.to_json() == (
        '{"check": "theorem2", "first_failure": {"actual": "-2", '
        '"expected": "1", "n": 3, "where": "rank"}, "order": 60, '
        '"status": "fail"}')


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


@pytest.mark.parametrize("r", [3, 5])
def test_fault_at_the_head_of_an_alpha_tail_is_reported_exactly(
        monkeypatch, r):
    # alpha_r's own coefficient at q^{r^2}, the first entry of term r's
    # tail, off by one: term r starts at n = r, and its fault is
    # q^{r^2} / ((q^2;q^2)_0 (q^2;q^2)_{2r}), which starts at q^{r^2}; a
    # tail added one place off would be reported at another n, or in an
    # earlier subcheck
    original = verify.bailey_alpha

    def faulty(k, order):
        s = original(k, order)
        if k == r:
            s.coeffs[r * r] += 1
        return s

    monkeypatch.setattr(verify, "bailey_alpha", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only="bailey_pair")
    beta = bailey_beta(r, ORDER).coefficient(r * r)
    assert rep.first_failure == {
        "n": r * r, "expected": str(beta + 1), "actual": str(beta),
        "where": f"n={r}"}


def test_run_builds_each_shared_series_once(monkeypatch):
    # the builders by name: SB(zeta_3, q) is shared by theorem1 and the
    # congruences, and u*SB*D by theorem2 and bailey_limit, which reads
    # SB*D once; the values at zeta_3 are walks over Z, and no check reads
    # residue sums off the packed ring
    names = ("crank_at_zeta3", "crank_numerator", "rank_at_zeta3",
             "rank_numerator", "sb_at_one", "sb_at_zeta3", "sb_numerator",
             "u_sb_numerator")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(verify, name)

        def build(*args):
            calls[name] += 1
            return original(*args)

        return build

    def unreachable(*args):
        raise AssertionError("a check read packed residue sums")

    for name in names:
        monkeypatch.setattr(verify, name, counted(name))
    monkeypatch.setattr(series, "packed_residues", unreachable)
    monkeypatch.setattr(sptcrank, "packed_residues", unreachable)
    assert all(r.passed for r in run_all(60, oracle_bound=6))
    assert calls == dict.fromkeys(names, 1)
    # the memo is per run: a second run builds every series again
    assert all(r.passed for r in run_all(60, oracle_bound=6))
    assert calls == dict.fromkeys(names, 2)


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


def test_fault_in_one_zeta3_rank_lambert_term_is_reported_exactly(
        monkeypatch):
    # the sign of Lambert term n = 4 of the rank at zeta_3 flipped: the
    # term, 6 q^24 (1 - q^8)/(1 - q^24), is subtracted where it was added,
    # so the rank at zeta_3 drops by 12 at q^24 = q^{3*8}, in component 0
    original = sptcrank._zeta3_rank_term

    def faulty(inner, n):
        if n != 4:
            return original(inner, n)
        term = [0] * len(inner)
        original(term, n)
        inner[:] = [x - y for x, y in zip(inner, term)]

    monkeypatch.setattr(sptcrank, "_zeta3_rank_term", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only="theorem3")
    assert rep.first_failure == {
        "n": 8, "where": "N2rank0", "expected": "20", "actual": "8"}


# SB(zeta_3, q) off by d at q^6, where SB(1, q) is spt2bar(6) = 6 and
# SB(zeta_3, q) is 0: for d = 1, A - C = 5 is no multiple of 3, and for
# d = 3 the classes read s_1 = s_2 = (6 - 3)/3 = 1 and s_0 = 6 - 2 = 4
ZETA3_SB_FAULTS = [
    (1, "SB(1) - SB(zeta_3) = 5, not 0 (mod 3)"),
    (3, "[4, 1, 1]"),
]


@pytest.mark.parametrize("d, actual", ZETA3_SB_FAULTS,
                         ids=[str(f[0]) for f in ZETA3_SB_FAULTS])
def test_fault_in_sb_at_zeta3_fails_the_refinement(monkeypatch, d, actual):
    original = verify.sb_at_zeta3

    def faulty(order):
        s = original(order)
        s.coeffs[6] += d
        return s

    monkeypatch.setattr(verify, "sb_at_zeta3", faulty)
    (rep,) = run_all(ORDER, oracle_bound=6, only="congruences")
    assert rep.first_failure == {
        "n": 6, "where": "mod3-refinement",
        "expected": "equal residue classes", "actual": actual}


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


@pytest.mark.parametrize("only", [None, "theorem2", "bailey_pair"])
def test_negative_oracle_bound_runs_no_check(monkeypatch, only):
    def unreachable(*args, **kwargs):
        raise AssertionError("a check ran before the oracle bound was checked")

    for name in verify.CHECKS:
        monkeypatch.setitem(verify.CHECKS, name, unreachable)
    with pytest.raises(ValueError, match="oracle bound must be >= 0, not -1"):
        run_all(30, oracle_bound=-1, only=only)
