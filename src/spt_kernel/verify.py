"""Identity and congruence checks, one per theorem / proof step.

Every check compares two independently constructed truncated series with
exact ring equality and returns a machine-readable VerificationReport.
There are no tolerances anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

from .partitions import m2_rank_distribution, residual_m2_crank_distribution
from .rings import CYCLO3, LAURENT, ZZ, LaurentPolynomial
from .series import (
    SeriesError,
    TruncatedSeries,
    binomials,
    div_binomial_list,
    lambert_sum,
    packed_laurent,
    packed_residues,
    poch_quotient,
    summand_walk,
)
from .sptcrank import (
    _crank_coeffs,
    _rank_coeffs,
    at_zeta3,
    crank_series,
    rank_series,
    sb_residues,
    sb_series,
    sb_summand_ratio,
    sptbar2_series,
)


@dataclass(frozen=True)
class VerificationReport:
    check: str
    order: int
    status: str  # "pass" | "fail"
    first_failure: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps({
            "check": self.check,
            "order": self.order,
            "status": self.status,
            "first_failure": self.first_failure,
        }, sort_keys=True)


def _compare(check: str, order: int, subchecks) -> VerificationReport:
    """subchecks: iterable of (label, lhs_series, rhs_series); the two series
    of a subcheck must have the same order and are compared coefficient-wise
    at every index up to it."""
    for label, lhs, rhs in subchecks:
        if lhs.order != rhs.order:
            raise SeriesError(f"{check} subcheck {label!r} pairs orders "
                              f"{lhs.order} and {rhs.order}")
        for n in range(lhs.order + 1):
            a, b = lhs.coefficient(n), rhs.coefficient(n)
            if a != b:
                return VerificationReport(check, order, "fail", {
                    "n": n,
                    "expected": rhs.ring.render(b),
                    "actual": lhs.ring.render(a),
                    "where": label,
                })
    return VerificationReport(check, order, "pass")


def _call(fn, *args):
    """The default ``build`` of a check: build the series afresh."""
    return fn(*args)


def _run_memo():
    """A ``build`` that calls fn(*args) once per key and returns that result
    to every later caller, for the checks of one run.  The key holds the
    function object the check looked up when it called, so a builder
    replaced in the check's module is called as the replacement."""
    built = {}

    def build(fn, *args):
        key = (fn, *args)
        if key not in built:
            built[key] = fn(*args)
        return built[key]

    return build


# The smallest order each check accepts.
_MIN_ORDER = {
    "bailey_limit": 4,
    "bailey_pair": 1,
    "congruences": 8,
    "theorem1": 8,
    "theorem2": 4,
    "theorem3": 9,
    "theorem4": 9,
}


def _require_order(check: str, order: int) -> None:
    if order < _MIN_ORDER[check]:
        raise ValueError(f"order must be >= {_MIN_ORDER[check]}")


# ---------------------------------------------------------------------------
# Shared formula pieces (all over Z; callers embed into Z[zeta_3] as needed)
# ---------------------------------------------------------------------------

def lambert_theorem1(order: int) -> TruncatedSeries:
    """sum_{n in Z} (-1)^n q^{3n^2+6n} / (1 - q^{6n+2}), over Z."""
    return lambert_sum(
        ZZ,
        lambda n: -1 if n % 2 else 1,
        lambda n: 3 * n * n + 6 * n,
        lambda n: 6 * n + 2,
        order,
    )


def _eta_quotient_piece(order: int) -> TruncatedSeries:
    """(q^6;q^6)^4 / ((q^2;q^2)(q^3;q^3)^2)."""
    return poch_quotient(ZZ, order, [(1, 6, 6, None)] * 4,
                         [(1, 2, 2, None)] + [(1, 3, 3, None)] * 2)


def _lambert_piece(order: int) -> TruncatedSeries:
    """q (-q^3;q^3)/(q^3;q^3) * the theorem-1 Lambert sum."""
    return poch_quotient(ZZ, order, [(-1, 3, 3, None)], [(1, 3, 3, None)],
                         start=lambert_theorem1(order)).shift(1)


def a2_formula(order: int) -> TruncatedSeries:
    """The nonzero 3-dissection component of SB(zeta_3, q)."""
    return _eta_quotient_piece(order) + _lambert_piece(order).scale(2)


def rank_component(j: int, order: int) -> TruncatedSeries:
    """Component formulas of the M2-rank 3-dissection."""
    if j == 0:
        return poch_quotient(ZZ, order, [(-1, 1, 1, None)] + [(1, 3, 3, None)] * 2,
                             [(1, 1, 1, None)] + [(-1, 3, 3, None)] * 2)
    if j == 1:
        return poch_quotient(ZZ, order, [(1, 3, 3, None), (1, 6, 6, None)],
                             [(1, 1, 1, None)]).scale(2)
    if j == 2:
        return _eta_quotient_piece(order).scale(4) + _lambert_piece(order).scale(6)
    raise ValueError("component index must be 0, 1 or 2")


def crank_component(j: int, order: int) -> TruncatedSeries:
    """Component formulas of the residual-crank dissection."""
    if j in (0, 1):
        return rank_component(j, order)  # identical product formulas
    if j == 2:
        return _eta_quotient_piece(order)
    raise ValueError("component index must be 0, 1 or 2")


def gauss_psi(order: int) -> TruncatedSeries:
    """(q^2;q^2)_inf / (q;q^2)_inf."""
    return poch_quotient(ZZ, order, [(1, 2, 2, None)], [(1, 1, 2, None)])


def jtp_psi_dissection(order: int) -> TruncatedSeries:
    """(-q^6,-q^3,q^9;q^9)_inf + q(-q^9,-q^9,q^9;q^9)_inf."""
    first = poch_quotient(ZZ, order, [(-1, 6, 9, None), (-1, 3, 9, None),
                                      (1, 9, 9, None)])
    second = poch_quotient(ZZ, order, [(-1, 9, 9, None)] * 2 + [(1, 9, 9, None)])
    return first + second.shift(1)


def bailey_alpha(r: int, order: int) -> TruncatedSeries:
    """alpha_0 = 1 and alpha_r = (-1)^r 2 q^{r^2}."""
    return TruncatedSeries.monomial(ZZ, (-1) ** r * 2 if r else 1, r * r, order)


def bailey_beta(n: int, order: int) -> TruncatedSeries:
    """beta_n = (q;q^2)_n^2 / (q^2;q^2)_{2n}."""
    return poch_quotient(ZZ, order, [(1, 1, 2, n)] * 2, [(1, 2, 2, 2 * n)])


def bailey_pair_rhs(order: int, n_max: int) -> list[TruncatedSeries]:
    """sum_{r<=n} alpha_r / ((q^2;q^2)_{n-r} (q^2;q^2)_{n+r}) for
    n = 0..n_max, walked in n.

    Term r starts at n = r as alpha_r / (q^2;q^2)_{2r}; going from n - 1
    to n divides it by (1 - q^{2(n-r)}) (1 - q^{2(n+r)}), two binomial
    passes.  Terms with r^2 > order are zero and never start.
    """
    terms: list[list[int]] = []
    out = []
    for n in range(n_max + 1):
        for r, term in enumerate(terms):
            div_binomial_list(term, 1, 2 * (n - r))
            div_binomial_list(term, 1, 2 * (n + r))
        if n * n <= order:
            terms.append(poch_quotient(ZZ, order, denom=[(1, 2, 2, 2 * n)],
                                       start=bailey_alpha(n, order)).coeffs)
        out.append(TruncatedSeries(ZZ, order, [sum(c) for c in zip(*terms)]))
    return out


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def verify_theorem1(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """3-dissection of SB(zeta_3,q): components 0 and 1 vanish, component 2
    is the product-plus-Lambert formula.  SB(zeta_3, q) is read off SB's
    residue sums mod 3, shared with the congruences."""
    _require_order("theorem1", order)
    comps = at_zeta3(build(sb_residues, order, 3)).dissect(3)
    subchecks = [
        ("A0", comps[0], TruncatedSeries(CYCLO3, comps[0].order)),
        ("A1", comps[1], TruncatedSeries(CYCLO3, comps[1].order)),
        ("A2", comps[2], a2_formula(comps[2].order).embed(CYCLO3)),
    ]
    return _compare("theorem1", order, subchecks)


def verify_theorem2(order: int, n_oracle: int = 12,
                    build=_call) -> VerificationReport:
    """Cleared-denominator rank-minus-crank identity:
    (-z + 2 - 1/z) * [q^n] SB(z,q) = [q^n] rank - [q^n] crank, plus an
    enumeration cross-check of the rank and crank rows up to n_oracle."""
    _require_order("theorem2", order)
    table = sb_series(order)
    rank = build(rank_series, order)
    crank = crank_series(order)
    u = LaurentPolynomial({1: -1, 0: 2, -1: -1})
    lhs = table.as_series().scale(u)
    rhs = rank - crank
    subchecks = [("rank-crank", lhs, rhs)]
    top = min(n_oracle, order)
    rank_enum = TruncatedSeries(
        LAURENT, top, [m2_rank_distribution(n) for n in range(top + 1)])
    crank_enum = TruncatedSeries(
        LAURENT, top, [residual_m2_crank_distribution(n) for n in range(top + 1)])
    subchecks.append(("rank-enumeration", rank.truncate(top), rank_enum))
    subchecks.append(("crank-enumeration", crank.truncate(top), crank_enum))
    return _compare("theorem2", order, subchecks)


def verify_theorem3(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """3-dissection of the M2-rank generating function at zeta_3, read
    off its residue sums mod 3."""
    _require_order("theorem3", order)
    comps = at_zeta3(packed_residues(_rank_coeffs, order, 3)).dissect(3)
    subchecks = [
        (f"N2rank{j}", comps[j], rank_component(j, comps[j].order).embed(CYCLO3))
        for j in range(3)
    ]
    return _compare("theorem3", order, subchecks)


def verify_theorem4(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """Residual-crank dissection at zeta_3, with its proof steps:
    (i) the zeta_3 product simplification, (ii) the Jacobi-triple-product
    3-dissection of psi, (iii) the three component formulas.

    M2crank0 = N2rank0 needs no subcheck of its own: ``crank_component(0)``
    is ``rank_component(0)``, so ``M2crank0`` here and ``N2rank0`` in
    theorem3 compare both sides of it with the same product formula.  The
    crank at zeta_3 is read off its residue sums mod 3."""
    _require_order("theorem4", order)
    lhs = at_zeta3(packed_residues(_crank_coeffs, order, 3))
    psi = gauss_psi(order)
    simplified = poch_quotient(ZZ, order, [(1, 2, 2, None)],
                               [(1, 1, 2, None), (1, 6, 6, None)],
                               start=psi).embed(CYCLO3)
    subchecks = [
        ("zeta3-simplification", lhs, simplified),
        ("jtp-dissection", psi, jtp_psi_dissection(order)),
    ]
    comps = lhs.dissect(3)
    for j in range(3):
        subchecks.append(
            (f"M2crank{j}", comps[j],
             crank_component(j, comps[j].order).embed(CYCLO3)))
    return _compare("theorem4", order, subchecks)


def verify_bailey_pair(order: int, n_oracle: int = 0,
                       build=_call) -> VerificationReport:
    """Defining relation of the Bailey pair relative to (1, q^2):
    beta_n = sum_{r<=n} alpha_r / ((q^2;q^2)_{n-r} (q^2;q^2)_{n+r})
    with alpha_0 = 1 and alpha_r = (-1)^r 2 q^{r^2}, for
    n = 0..min(30, order // 4), at least to n = 1.  beta_n is built from
    its definition for each n; the right side is walked in n
    (``bailey_pair_rhs``)."""
    _require_order("bailey_pair", order)
    n_max = min(30, max(1, order // 4))
    subchecks = [(f"n={n}", bailey_beta(n, order), rhs)
                 for n, rhs in enumerate(bailey_pair_rhs(order, n_max))]
    return _compare("bailey_pair", order, subchecks)


def bailey_side(ring, z, z_inv, order: int, bound: bool = False) -> list:
    """Coefficients 0..order of the Bailey side of the limiting Bailey Lemma
    instance (rho_1 = z, rho_2 = 1/z, a = 1, base q^2) times its prefactor:

        (q^2;q^2)_inf / ((z q^2, z_inv q^2; q^2)_inf (q;q^2)_inf^2)
        * sum_{n>=0} q^{2n} (z, z_inv; q^2)_n beta_n;

    with bound, over Z at z = z_inv = 1, its majorant (see ``binomials``).
    """
    # the summand ratio is SB's with c = 1, walked from the n = 0 summand, 1
    step = sb_summand_ratio(z, z_inv, 1)
    start = [ring.one] + [ring.zero] * order
    acc = summand_walk(ring, start, 0, order, lambda n: binomials(*step(n), bound))
    return poch_quotient(
        ring, order, *binomials(
            [(1, 2, 2, None)],
            [(z, 2, 2, None), (z_inv, 2, 2, None)] + [(1, 1, 2, None)] * 2, bound),
        start=TruncatedSeries(ring, order, acc)).coeffs


def verify_bailey_limit(order: int, n_oracle: int = 0,
                        build=_call) -> VerificationReport:
    """The limiting Bailey Lemma instance in the cleared-denominator form:
    the Bailey side with its infinite-product prefactor equals the closed
    rank generating function, over the Laurent ring (both run on packed
    integers)."""
    _require_order("bailey_limit", order)
    lhs = TruncatedSeries(LAURENT, order, packed_laurent(bailey_side, order))
    rhs = build(rank_series, order)
    return _compare("bailey_limit", order, [("bailey-vs-rank", lhs, rhs)])


def verify_congruences(order: int, n_oracle: int = 0,
                       build=_call) -> VerificationReport:
    """The three spt congruences and the mod-3 crank refinement:
    spt2bar(3n), spt2bar(3n+1) divisible by 3; spt2bar(5n+3) divisible by
    5; residue classes of the spt-crank mod 3 all equal at 3n and 3n+1.

    The residue sums mod 3 of SB's rows (``sb_residues``) give
    ``mod3-refinement``; their total, the row at z = 1, is compared with
    ``sptbar2_series`` (``z=1-consistency``).  SB(zeta_3, q) at 3n and
    3n+1, (s_0 - s_2, s_1 - s_2), is zero exactly when those sums are
    equal, so it needs no subcheck here; theorem1 checks its components
    A0 and A1 against zero on its own.
    """
    _require_order("congruences", order)
    s2 = sptbar2_series(order)
    residues = build(sb_residues, order, 3)

    def fail(n, expected, actual, where):
        return VerificationReport("congruences", order, "fail", {
            "n": n, "expected": expected, "actual": actual, "where": where,
        })

    for n in range(1, order + 1):
        v = s2.coefficient(n)
        sums = residues[n]
        if sum(sums) != v:
            return fail(n, str(v), str(sum(sums)), "z=1-consistency")
        if n % 3 in (0, 1):
            if v % 3:
                return fail(n, "0 (mod 3)", str(v), "mod3-congruence")
            if len(set(sums)) != 1:
                return fail(n, "equal residue classes", str(sums),
                            "mod3-refinement")
        if n % 5 == 3 and v % 5:
            return fail(n, "0 (mod 5)", str(v), "mod5-congruence")
    return VerificationReport("congruences", order, "pass")


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

# Every check is called as check(order, n_oracle, build).  n_oracle bounds
# the enumeration cross-checks; checks that make none ignore it.  build(fn,
# *args) returns fn(*args); run_all passes one that builds each series once
# per run.
CHECKS: dict[str, Callable[..., VerificationReport]] = {
    "bailey_limit": verify_bailey_limit,
    "bailey_pair": verify_bailey_pair,
    "congruences": verify_congruences,
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "theorem3": verify_theorem3,
    "theorem4": verify_theorem4,
}


def selected_checks(order: int, only: str | None = None) -> list[str]:
    """The names of the checks ``run_all`` runs, in deterministic (name)
    order; ValueError unless each accepts the order, so a run that cannot
    finish builds nothing."""
    names = sorted(CHECKS)
    if only is not None:
        if only not in CHECKS:
            raise ValueError(f"unknown check {only!r}; choose from {names}")
        names = [only]
    for name in names:
        _require_order(name, order)
    return names


def run_all(order: int, oracle_bound: int = 20,
            only: str | None = None) -> list[VerificationReport]:
    """Run the verification checks in deterministic (name) order, sharing
    each series they build within the run."""
    names = selected_checks(order, only)
    build = _run_memo()
    return [CHECKS[name](order, oracle_bound, build) for name in names]
