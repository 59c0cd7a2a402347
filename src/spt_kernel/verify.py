"""Identity and congruence checks, one per theorem / proof step.

Every check compares the two sides of an identity, each built by its own
formula, with exact ring equality and returns a machine-readable
VerificationReport.  There are no tolerances anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import add
from typing import Callable, Iterator

from .partitions import m2_rows
from .rings import LAURENT, ZZ
from .series import (
    SeriesError,
    TruncatedSeries,
    WindowError,
    apply_factors,
    div_binomial_list,
    div_d_at_zeta3,
    laurent_rows,
    mul_binomial_list,
    numerator_values,
    poch_quotient,
)
from .sptcrank import (
    crank_numerator,
    numerator_width,
    rank_at_zeta3,
    rank_numerator,
    sb_at_zeta3,
    sb_numerator,
    sptbar2_series,
)


class VerificationReport(namedtuple(
        "VerificationReport", "check order status first_failure",
        defaults=(None,))):
    """The outcome of one check: status "pass" or "fail", and for a failure
    the first differing coefficient.  Immutable, and equal when every
    field is."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        """The report as ``json.dumps(self._asdict(), sort_keys=True)``
        writes it, without loading json: the fields are strings, ints and
        None, and first_failure is None or a dict of strings and ints."""
        failure = "null" if self.first_failure is None else "{" + ", ".join(
            f"{json_string(k)}: "
            + (json_string(v) if isinstance(v, str) else str(v))
            for k, v in sorted(self.first_failure.items())) + "}"
        return (f'{{"check": {json_string(self.check)}, '
                f'"first_failure": {failure}, '
                f'"order": {self.order}, '
                f'"status": {json_string(self.status)}}}')


# json's escapes; any other character outside " " .. "~" is written as
# \uXXXX, one UTF-16 code unit each
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
                 "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_char(c: str) -> str:
    if c in _JSON_ESCAPES:
        return _JSON_ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"


def json_string(s: str) -> str:
    """s as ``json.dumps`` writes it (ensure_ascii, the default): quoted,
    every character outside " " .. "~" and every quote and backslash
    escaped.  Printable ASCII without either is written as it is."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    return '"' + "".join(map(_json_char, s)) + '"'


def _compare(check: str, order: int, subchecks) -> VerificationReport:
    """subchecks: iterable of (label, lhs_series, rhs_series) or (label,
    lhs_series, rhs_series, bits); the two series of a subcheck must have
    the same order and are compared coefficient-wise at every index up to
    it: as whole lists first, and n by n only when those differ, to find
    the first difference.  A fourth entry bits marks numerators X*D and
    Y*D, D = (z q^2, q^2/z; q^2)_inf, in Z[w], w = z + 1/z, each row
    packed as one plain integer at w -> 2^bits (``sptcrank.numerator_width``
    proves the packing exact, so equal integers are equal rows): D = 1
    mod q, so their first difference is X's and Y's, and only then are
    rows 0..n decoded and divided by D, so that the report shows rows n of
    X and Y as Laurent polynomials (``laurent_rows``)."""
    for label, lhs, rhs, *packed in subchecks:
        if lhs.order != rhs.order:
            raise SeriesError(f"{check} subcheck {label!r} pairs orders "
                              f"{lhs.order} and {rhs.order}")
        if lhs.coeffs == rhs.coeffs:
            continue
        for n in range(lhs.order + 1):
            a, b = lhs.coefficient(n), rhs.coefficient(n)
            if a != b:
                ring = lhs.ring
                if packed:
                    a, b = (laurent_rows(s.coeffs, *packed, n)[n]
                            for s in (lhs, rhs))
                    ring = LAURENT
                return VerificationReport(check, order, "fail", {
                    "n": n,
                    "expected": ring.render(b),
                    "actual": ring.render(a),
                    "where": label,
                })
    return VerificationReport(check, order, "pass")


def _call(fn, *args):
    """The default ``build`` of a check: build the series afresh."""
    return fn(*args)


# The enumeration bound of theorem 2's oracle cross-check: the default of
# ``run_all`` and of ``verify --oracle-bound``, and the largest the CLI
# accepts.
ORACLE_BOUND = 20
MAX_ORACLE_BOUND = 30

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
# Shared formula pieces, all over Z, where the checks also read every value
# at zeta_3
# ---------------------------------------------------------------------------

def lambert_theorem1(order: int) -> TruncatedSeries:
    """sum_{n in Z} (-1)^n q^{3n^2+6n} / (1 - q^{6n+2}), over Z, written
    out.  Term n >= 0 puts (-1)^n at q^{3n^2+6n} and every 6n + 2 after
    it.  Term n <= -1, by 1/(1 - q^{6n+2}) = -q^d/(1 - q^d) with
    d = -6n - 2, puts -(-1)^n at q^{3n^2-2} and every d after it; for
    n = -m - 1 that is (-1)^m at one past term m's first exponent, every
    6m + 4 after it, so one loop over m >= 0 writes both."""
    out = [0] * (order + 1)
    m = 0
    while (e := 3 * m * m + 6 * m) <= order:
        s = -1 if m % 2 else 1
        for i in range(e, order + 1, 6 * m + 2):
            out[i] += s
        for i in range(e + 1, order + 1, 6 * m + 4):
            out[i] += s
        m += 1
    return TruncatedSeries(ZZ, order, out)


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
    """beta_n = (q;q^2)_n^2 / (q^2;q^2)_{2n}, built from its definition.

    ``verify_bailey_pair`` reads the walk ``bailey_betas``; this stays as
    the definition the tests check that walk against, and for the
    benchmark tracer, which wraps it by name."""
    return poch_quotient(ZZ, order, [(1, 1, 2, n)] * 2, [(1, 2, 2, 2 * n)])


def bailey_betas(order: int, n_max: int) -> Iterator[TruncatedSeries]:
    """beta_n for n = 0..n_max, yielded as they are walked in n: beta_0 = 1
    and beta_n = beta_{n-1} (1 - q^{2n-1})^2 / ((1 - q^{4n-2}) (1 - q^{4n})),
    four binomial passes on beta_{n-1} in place; each series holds a copy."""
    beta = [0] * (order + 1)
    beta[0] = 1
    yield TruncatedSeries(ZZ, order, beta)
    for n in range(1, n_max + 1):
        mul_binomial_list(beta, 1, 2 * n - 1)
        mul_binomial_list(beta, 1, 2 * n - 1)
        div_binomial_list(beta, 1, 4 * n - 2)
        div_binomial_list(beta, 1, 4 * n)
        yield TruncatedSeries(ZZ, order, beta)


def bailey_pair_rhs(order: int, n_max: int) -> Iterator[TruncatedSeries]:
    """sum_{r<=n} alpha_r / ((q^2;q^2)_{n-r} (q^2;q^2)_{n+r}) for
    n = 0..n_max, walked in n and yielded one at a time.

    Term r starts at n = r as alpha_r / (q^2;q^2)_{2r}; going from n - 1
    to n divides it by (1 - q^{2(n-r)}) (1 - q^{2(n+r)}), two binomial
    passes.  Term r is held as its tail from q^{r^2}, its lowest nonzero
    power (alpha_r's coefficients from there on, ``bailey_alpha``), so its
    passes skip the r^2 zeros below; each sum adds the tails in at their
    offsets.  Terms with r^2 > order are zero and never start.
    """
    tails: list[list[int]] = []
    for n in range(n_max + 1):
        for r, tail in enumerate(tails):
            div_binomial_list(tail, 1, 2 * (n - r))
            div_binomial_list(tail, 1, 2 * (n + r))
        if n * n <= order:
            tail = bailey_alpha(n, order).coeffs[n * n:]
            tails.append(apply_factors(tail, denom=[(1, 2, 2, 2 * n)]))
        total = [0] * (order + 1)
        for r, tail in enumerate(tails):
            total[r * r:] = map(add, total[r * r:], tail)
        yield TruncatedSeries(ZZ, order, total)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

def verify_theorem1(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """3-dissection of SB(zeta_3,q): components 0 and 1 vanish, component 2
    is the product-plus-Lambert formula, all over Z.  SB(zeta_3, q) is
    its own walk over Z (``sb_at_zeta3``), not read off SB*D as the
    congruences read it: the two routes to it are checked apart."""
    _require_order("theorem1", order)
    comps = sb_at_zeta3(order).dissect(3)
    subchecks = [
        ("A0", comps[0], TruncatedSeries(ZZ, comps[0].order)),
        ("A1", comps[1], TruncatedSeries(ZZ, comps[1].order)),
        ("A2", comps[2], a2_formula(comps[2].order)),
    ]
    return _compare("theorem1", order, subchecks)


def verify_theorem2(order: int, n_oracle: int = ORACLE_BOUND,
                    build=_call) -> VerificationReport:
    """Cleared-denominator rank-minus-crank identity:
    (-z + 2 - 1/z) * [q^n] SB(z,q) = [q^n] rank - [q^n] crank, compared on
    the numerators times D = (z q^2, q^2/z; q^2)_inf, packed in Z[w] at
    the run's one width B (see ``_compare``): u SB*D, u = 2 - w, is
    2x - (x << B) for each row x of the run's SB*D.  An enumeration
    cross-check compares the rank and crank rows up to n_oracle, read off
    the same two numerators (``numerator_rows``), with both oracles' rows
    from one enumeration (``m2_rows``)."""
    _require_order("theorem2", order)
    bits = build(numerator_width, order)
    lhs = TruncatedSeries(ZZ, order, [
        (x << 1) - (x << bits)
        for x in build(sb_numerator, order, bits).coeffs])
    rank = build(rank_numerator, order, bits)
    crank = build(crank_numerator, order)
    subchecks = [("rank-crank", lhs, rank - crank, bits)]
    top = min(n_oracle, order)
    enumerated = m2_rows(top)
    for label, numerator, column in (
            ("rank-enumeration", rank, 0), ("crank-enumeration", crank, 1)):
        subchecks.append((label, TruncatedSeries(
            LAURENT, top, laurent_rows(numerator.coeffs, bits, top)),
            TruncatedSeries(LAURENT, top,
                            [row[column] for row in enumerated])))
    return _compare("theorem2", order, subchecks)


def verify_theorem3(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """3-dissection of the M2-rank generating function at zeta_3, over Z
    (``rank_at_zeta3``)."""
    _require_order("theorem3", order)
    comps = rank_at_zeta3(order).dissect(3)
    subchecks = [(f"N2rank{j}", comps[j], rank_component(j, comps[j].order))
                 for j in range(3)]
    return _compare("theorem3", order, subchecks)


def verify_theorem4(order: int, n_oracle: int = 0,
                    build=_call) -> VerificationReport:
    """Residual-crank dissection at zeta_3, with its proof steps:
    (i) the zeta_3 product simplification, (ii) the Jacobi-triple-product
    3-dissection of psi, (iii) the three component formulas.

    M2crank0 = N2rank0 needs no subcheck of its own: ``crank_component(0)``
    is ``rank_component(0)``, so ``M2crank0`` here and ``N2rank0`` in
    theorem3 compare both sides of it with the same product formula.  The
    crank at zeta_3 is the run's crank*D, z-free over Z, divided by
    D(zeta_3, q) (``div_d_at_zeta3``) on a copy."""
    _require_order("theorem4", order)
    lhs = TruncatedSeries(ZZ, order, div_d_at_zeta3(
        list(build(crank_numerator, order).coeffs)))
    psi = gauss_psi(order)
    simplified = poch_quotient(ZZ, order, [(1, 2, 2, None)],
                               [(1, 1, 2, None), (1, 6, 6, None)], start=psi)
    subchecks = [
        ("zeta3-simplification", lhs, simplified),
        ("jtp-dissection", psi, jtp_psi_dissection(order)),
    ]
    comps = lhs.dissect(3)
    for j in range(3):
        subchecks.append(
            (f"M2crank{j}", comps[j], crank_component(j, comps[j].order)))
    return _compare("theorem4", order, subchecks)


def verify_bailey_pair(order: int, n_oracle: int = 0,
                       build=_call) -> VerificationReport:
    """Defining relation of the Bailey pair relative to (1, q^2):
    beta_n = sum_{r<=n} alpha_r / ((q^2;q^2)_{n-r} (q^2;q^2)_{n+r})
    with alpha_0 = 1 and alpha_r = (-1)^r 2 q^{r^2}, for
    n = 0..min(30, order // 4), at least to n = 1.  Both sides are walked
    in n, each by its own step: beta_n by four binomial passes from
    beta_{n-1} (``bailey_betas``), the right side term by term
    (``bailey_pair_rhs``), and each pair is compared as it is walked."""
    _require_order("bailey_pair", order)
    n_max = min(30, max(1, order // 4))
    subchecks = ((f"n={n}", beta, rhs) for n, (beta, rhs) in enumerate(
        zip(bailey_betas(order, n_max), bailey_pair_rhs(order, n_max))))
    return _compare("bailey_pair", order, subchecks)


def verify_bailey_limit(order: int, n_oracle: int = 0,
                        build=_call) -> VerificationReport:
    """The limiting Bailey Lemma instance (rho_1 = z, rho_2 = 1/z, a = 1,
    base q^2): the Bailey side times its prefactor, (q^2;q^2)_inf / (D
    (q;q^2)_inf^2) * sum_{n>=0} q^{2n} (z, 1/z; q^2)_n beta_n with
    D = (z q^2, q^2/z; q^2)_inf, equals the rank generating function; both
    sides are compared times D, packed in Z[w] at the run's one width
    (see ``_compare``).

    Term by term, Bailey*D = crank*D + (2 - z - 1/z) SB*D, read off the
    run's numerators: the n = 0 term is (q^2;q^2)_inf / (q;q^2)_inf^2 =
    crank*D; for n >= 1, (z, 1/z; q^2)_n = (1 - z)(1 - 1/z)
    (z q^2, q^2/z; q^2)_{n-1}, and the prefactor times beta_n is
    (q^{4n+2};q^2)_inf / (q^{2n+1};q^2)_inf^2, which makes summand n of
    SB*D.  The left side is one list, c + 2x - (x << B) for the rows c of
    crank*D and x of SB*D.
    """
    _require_order("bailey_limit", order)
    bits = build(numerator_width, order)
    lhs = TruncatedSeries(ZZ, order, [
        c + (x << 1) - (x << bits) for c, x in zip(
            build(crank_numerator, order).coeffs,
            build(sb_numerator, order, bits).coeffs)])
    rhs = build(rank_numerator, order, bits)
    return _compare("bailey_limit", order, [("bailey-vs-rank", lhs, rhs, bits)])


def verify_congruences(order: int, n_oracle: int = 0,
                       build=_call) -> VerificationReport:
    """The three spt congruences and the mod-3 crank refinement:
    spt2bar(3n), spt2bar(3n+1) divisible by 3; spt2bar(5n+3) divisible by
    5; residue classes of the spt-crank mod 3 all equal at 3n and 3n+1.

    Row n of SB is unchanged under z <-> 1/z, so its residue sums mod 3
    have s_1 = s_2, and A = SB(1, q) and C = SB(zeta_3, q) at q^n are
    s_0 + 2 s_1 and s_0 - s_1: s_1 = s_2 = (A - C)/3 and s_0 = A - 2 s_1.
    Both are read off the run's SB*D, packed in Z[w] at the run's width
    B: w = z + 1/z is 2 at z = 1 and -1 at z = zeta_3, where a row p is
    p(2^B) mod 2^B - w (``numerator_values``).  That is exact: |p(2)| is
    at most the row's sum of |z-coefficients| and |p(-1)| its sum of
    |w-coefficients|, both below 2^(B_SB - 1) (``sptcrank._sb_majorant``),
    and B >= B_SB + 3 (``numerator_width``), so both are below half their
    modulus.  The lists are divided by D(1, q) = (q^2; q^2)_inf^2, two eta
    passes, and by D(zeta_3, q) (``div_d_at_zeta3``).  As 2 = -1 mod 3,
    A = C mod 3 at every n, so the ``mod3-refinement`` failure of an
    A - C that is no multiple of 3 guards the read-off; at 3n and 3n+1
    the classes are equal exactly when C = 0.  theorem1 checks C's
    components A0 and A1 against zero on its own walk over Z.

    A is compared with ``sptbar2_series`` (``z=1-consistency``), whose
    step is SB*D's walk's at z = 1, factor for factor (see its
    docstring): the route to A is other code, not another formula.
    """
    _require_order("congruences", order)
    s2 = sptbar2_series(order)
    bits = build(numerator_width, order)
    sb = build(sb_numerator, order, bits).coeffs
    ones = apply_factors(numerator_values(sb, bits, 2),
                         denom=[(1, 2, 2, None)] * 2)
    roots = div_d_at_zeta3(numerator_values(sb, bits, -1))

    def fail(n, expected, actual, where):
        return VerificationReport("congruences", order, "fail", {
            "n": n, "expected": expected, "actual": actual, "where": where,
        })

    for n in range(1, order + 1):
        v = s2.coefficient(n)
        a, c = ones[n], roots[n]
        if a != v:
            return fail(n, str(v), str(a), "z=1-consistency")
        if n % 3 in (0, 1) and v % 3:
            return fail(n, "0 (mod 3)", str(v), "mod3-congruence")
        s1, r = divmod(a - c, 3)  # exact once r = 0
        if r:
            return fail(n, "equal residue classes",
                        f"SB(1) - SB(zeta_3) = {a - c}, not 0 (mod 3)",
                        "mod3-refinement")
        if n % 3 in (0, 1) and c:
            return fail(n, "equal residue classes",
                        str([a - 2 * s1, s1, s1]), "mod3-refinement")
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
    finish builds nothing.  Its message states the largest minimum order
    of the selected checks and names the checks that need it."""
    names = sorted(CHECKS)
    if only is not None:
        if only not in CHECKS:
            raise ValueError(f"unknown check {only!r}; choose from {names}")
        names = [only]
    need = max(_MIN_ORDER[name] for name in names)
    if order < need:
        short = ", ".join(name for name in names if _MIN_ORDER[name] == need)
        raise ValueError(f"order must be >= {need} ({short})")
    return names


def run_all(order: int, oracle_bound: int = ORACLE_BOUND,
            only: str | None = None) -> list[VerificationReport]:
    """Run the verification checks in deterministic (name) order, sharing
    each series they build within the run.  A check whose packed rows leave
    their proven z-window (``WindowError``) fails at the first such row,
    and the other checks still run.  A negative oracle bound is refused
    with ValueError, as ``selected_checks`` refuses the order, before any
    check runs."""
    if oracle_bound < 0:
        raise ValueError(f"oracle bound must be >= 0, not {oracle_bound}")
    names = selected_checks(order, only)
    # Keyed on (fn, *args), fn the object the check looked up when it
    # called, so a builder replaced in the check's module is called as the
    # replacement.
    build = cache(_call)
    reports = []
    for name in names:
        try:
            reports.append(CHECKS[name](order, oracle_bound, build))
        except WindowError as exc:
            reports.append(VerificationReport(name, order, "fail", {
                "n": exc.n,
                "expected": f"z-exponents within [-{exc.reach - 1}, "
                            f"{exc.reach - 1}]",
                "actual": f"a nonzero digit at z^-{exc.reach} or "
                          f"z^{exc.reach}",
                "where": "z-window",
            }))
    return reports
