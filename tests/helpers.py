"""Small series, polynomial and enumeration helpers that only the tests use.

Most were members of the package with no production caller; each is a
direct definition, kept independent of the fast builders.
``pair_crank_series`` is a third route to SB(z,q), beside the fast walk and
the naive summands, that no check runs.  ``sb_side`` is SB itself off
``sptcrank._sb_walk``, which walks SB*D, divided by D's binomial passes.
``residue_pack`` and ``packed_rows`` pack Laurent polynomials on the
packed ring and read them back off one ring of t = 2S + 1 digits, for the
tests of that ring.
``wide_ring_rows`` and ``wide_ring_divided_by_d`` read full rows that way,
every row divided by D on that one ring: the reference for
``series.numerator_rows``, which reads each row off a numerator in Z[w]
and divides it by D at its own width.  ``narrow_ring_numerator`` reads a
numerator X*D off one ring of t = 2K + 1 digits, K = isqrt(N) + 2, as
Laurent rows in z: the reference for the numerators in Z[w], w = z + 1/z,
that the checks compare.  ``w_laurent`` decodes a packed element of Z[w]
to z by the binomial expansion of each power of w, the reference for the
Horner packing of ``series.numerator_rows``.  Every
reference here writes D out and divides by it through D's binomial
passes (``d_factors`` in ``apply_factors``, which ``series.d_list``
takes on the packed ring Z[z]/(z^t - 1) too), never through Jacobi's
triple product, so the theta kernels of ``series.d_list`` and
``series.div_d_list`` are checked against a route that shares nothing
with them (``test_sptcrank.TestReferencesShareNoThetaKernel`` counts
their calls).
``residue_class_sums`` is the dict-form reference for the residue sums the
packed ring reads off.  ``lambert_theorem1_by_terms`` is theorem 1's
Lambert sum built term by term, the reference for the written-out sum.
``accumulation_walk`` sums the summands of a walk
one by one into a total, the form ``series.summand_walk`` had before it
took Horner's; the references below run on it, never on the production
walk.  ``bailey_side`` walks the Bailey side of the limiting Bailey
instance from n = 0, with its own step: an independent route to the left
side that ``verify_bailey_limit`` reads off SB*D and crank*D.
``balanced_digits_by_loop`` takes balanced digits one at a time, the
reference for the 64-bit word route of ``rings._balanced_digits``.
``row_json`` and ``export_table_lines`` write the records of ``export
--what table`` one f-string a record: the reference for the CLI's bytes
template a row.
"""

from math import comb
from typing import Callable, Iterator

from spt_kernel.partitions import (
    Partition,
    enumerate_overpartitions,
    partition_list,
)
from spt_kernel.rings import (
    LAURENT,
    ZZ,
    LaurentPolynomial,
    PackedResidueRing,
    RingError,
    _balanced_digits,
)
from spt_kernel.series import (
    SeriesError,
    TruncatedSeries,
    WindowError,
    apply_factors,
    binomials,
    d_factors,
    div_binomial_list,
    poch_quotient,
    pochhammer_finite,
    mul_binomial_list,
    numerator_reach,
    pochhammer_inf,
)
from spt_kernel.sptcrank import _sb_walk


def one(ring, order):
    """The series 1 + O(q^{order+1}) over ring."""
    s = TruncatedSeries(ring, order)
    s.coeffs[0] = ring.one
    return s


def div_binomial(s, c, e):
    """s / (1 - c*q^e)."""
    out = list(s.coeffs)
    div_binomial_list(out, s.ring.coerce(c), e)
    return TruncatedSeries(s.ring, s.order, out)


def binomial_passes(a, c, exponents, side):
    """a times prod (1 - c q^e) over exponents for side 1, divided by it for
    side -1, one coefficient at a time: the plain recurrence, the reference
    for the slice and running-sum forms of ``mul_binomial_list`` and
    ``div_binomial_list``."""
    a = list(a)
    top = len(a) - 1
    for e in exponents:
        if e > top:
            break
        if side > 0:
            for i in range(top, e - 1, -1):
                a[i] = a[i] - c * a[i - e]
        else:
            for i in range(e, top + 1):
                a[i] = a[i] + c * a[i - e]
    return a


def inflate(s, t, order):
    """s with q -> q^t, truncated at the given order."""
    out = TruncatedSeries(s.ring, order)
    for i, c in enumerate(s.coeffs):
        if t * i > order:
            break
        out.coeffs[t * i] = c
    return out


def gauss_theta(order):
    """sum_{n>=0} q^{n(n+1)/2}."""
    s = TruncatedSeries(ZZ, order)
    n = 0
    while n * (n + 1) // 2 <= order:
        s.coeffs[n * (n + 1) // 2] = 1
        n += 1
    return s


def bailey_pair_rhs_from_scratch(n, order):
    """sum_{r<=n} alpha_r / ((q^2;q^2)_{n-r} (q^2;q^2)_{n+r}) with
    alpha_0 = 1 and alpha_r = (-1)^r 2 q^{r^2}, every term built on its
    own."""
    rhs = TruncatedSeries(ZZ, order)
    for r in range(n + 1):
        if r * r > order:
            break
        alpha = TruncatedSeries.monomial(
            ZZ, (-1) ** r * 2 if r else 1, r * r, order)
        rhs = rhs + poch_quotient(
            ZZ, order, denom=[(1, 2, 2, n - r), (1, 2, 2, n + r)],
            start=alpha)
    return rhs


def eval_at_one(p: LaurentPolynomial) -> int:
    """p(1), the sum of its coefficients."""
    return sum(p.c.values())


def support(p: LaurentPolynomial) -> list[int]:
    """The exponents of p's nonzero coefficients, increasing."""
    return sorted(p.c)


def residue_class_sums(p: LaurentPolynomial, t: int) -> list[int]:
    """Entry k is the sum of coefficients on exponents congruent to k mod t."""
    if t < 1:
        raise RingError("modulus t must be positive")
    out = [0] * t
    for e, v in p.c.items():
        out[e % t] += v
    return out


def spt2(table, n: int) -> int:
    """spt2bar(n), row n of an ``SptCrankTable`` at z = 1."""
    return eval_at_one(table.rows[n])


def is_symmetric(p: LaurentPolynomial) -> bool:
    """p(z) == p(1/z)."""
    return p.c == {-e: v for e, v in p.c.items()}


def count_partitions(n):
    return len(partition_list(n))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    yield from partition_list(n)


def count_overpartitions(n: int) -> int:
    return sum(1 for _ in enumerate_overpartitions(n))


def theta_sum(ring, exponent: Callable[[int], int],
              coefficient: Callable[[int], object],
              order: int, bilateral: bool = True) -> TruncatedSeries:
    """Sum of coefficient(n) * q^{exponent(n)} over n with exponent <= order,
    n in Z, or n >= 0 unless bilateral, scanned for |n| <= order + 2.

    The scan covers every contributing index only when the exponent grows
    at least linearly in |n|; a map whose exponent at an end of the scanned
    range is still within the order may have terms beyond it, so the sum
    is refused."""
    hi = order + 2
    for n in (-hi, hi) if bilateral else (hi,):
        if exponent(n) <= order:
            raise SeriesError(f"term n={n} at the end of the scanned range "
                              f"has exponent {exponent(n)} <= order {order}")
    s = TruncatedSeries(ring, order)
    for n in range(-hi if bilateral else 0, hi + 1):
        e = exponent(n)
        if 0 <= e <= order:
            s.coeffs[e] = s.coeffs[e] + ring.coerce(coefficient(n))
    return s


def lambert_theorem1_by_terms(order: int) -> TruncatedSeries:
    """Theorem 1's Lambert sum sum_{n in Z} (-1)^n q^{3n^2+6n}
    / (1 - q^{6n+2}) term by term, the reference for
    ``verify.lambert_theorem1``: each term is the geometric series
    1/(1 - q^d) of ``poch_quotient``, shifted to q^e and added or
    subtracted, a term with d = 6n + 2 < 0 first rewritten by
    1/(1 - q^d) = -q^{-d}/(1 - q^{-d}).  |n| <= order + 2 covers every
    term, since e >= n^2 - 2 after the rewrite."""
    acc = TruncatedSeries(ZZ, order)
    for n in range(-order - 2, order + 3):
        sign, e, d = -1 if n % 2 else 1, 3 * n * n + 6 * n, 6 * n + 2
        if d < 0:
            sign, e, d = -sign, e - d, -d
        if e <= order:
            term = poch_quotient(ZZ, order, denom=[(1, d, 1, 1)]).shift(e)
            acc = acc + term if sign > 0 else acc - term
    return acc


def pair_crank_series(order: int) -> TruncatedSeries:
    """The q-binomial two-sum decomposition of SB(z,q):

    sum_n q^{2n} / ((z q^{2n};q^2)_inf (q^{2n+1};q^2)_inf^2)
    + sum_{n,k>=1} q^{2n+2nk} z^{-k}
        / ((1 - z q^{2n}) (q^{2n+2};q^2)_k (z q^{2n+2k+2};q^2)_inf
           (q^{2n+1};q^2)_inf^2)
        * (q^2;q^2)_{n+k} / ((q^2;q^2)_k (q^2;q^2)_n).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ring = LAURENT
    z = LAURENT.z
    acc = TruncatedSeries(ring, order)
    for n in range(1, order // 2 + 1):
        wsq = pochhammer_inf(ring, ring.one, 2 * n + 1, 2, order)
        wsq = (wsq * wsq).invert()
        first = pochhammer_inf(ring, z, 2 * n, 2, order).invert() * wsq
        acc = acc + first.shift(2 * n)
        k = 1
        while 2 * n * (k + 1) <= order:
            term = poch_quotient(ring, order, denom=[(z, 2 * n, 1, 1)])
            term = term * pochhammer_finite(ring, ring.one, 2 * n + 2, 2, k, order).invert()
            if 2 * n + 2 * k + 2 <= order:
                term = term * pochhammer_inf(ring, z, 2 * n + 2 * k + 2, 2, order).invert()
            term = term * wsq
            qbin = (pochhammer_finite(ring, ring.one, 2, 2, n + k, order)
                    * (pochhammer_finite(ring, ring.one, 2, 2, k, order)
                       * pochhammer_finite(ring, ring.one, 2, 2, n, order)).invert())
            term = term * qbin
            zc = LaurentPolynomial.monomial(1, -k)
            acc = acc + term.shift(2 * n + 2 * n * k).scale(zc)
            k += 1
    return acc


def accumulation_walk(ring, state: list, n: int, order: int, step) -> list:
    """Coefficients 0..order of sum_{m>=n} q^{2m} s_m, summand by summand.

    state holds s_n to q^{order-2n} and is consumed.  step(m) returns the
    binomial factors (numer, denom), each a list of (c, e), that take s_m to
    s_{m+1} = s_m * prod_numer (1 - c*q^e) / prod_denom (1 - c*q^e).  Each
    step adds the state into the total at q^{2m}, drops the two top
    coefficients that s_{m+1} no longer reaches, and applies its factors,
    one binomial pass each.
    """
    total = [ring.zero] * (order + 1)
    while 2 * n <= order:
        base = 2 * n
        for i, x in enumerate(state):
            if x:
                total[base + i] = total[base + i] + x
        del state[-2:]
        numer, denom = step(n)
        for c, e in numer:
            mul_binomial_list(state, c, e)
        for c, e in denom:
            div_binomial_list(state, c, e)
        n += 1
    return total


def sb_by_accumulation(ring, order: int, bound: bool = False) -> list:
    """``sptcrank._sb_walk``'s walk of SB*D (and, with bound, the majorant
    of that walk) on ``accumulation_walk``: the first summand over q^2
    built first, over Z, and the step
    (1 - z q^{2n}) (1 - z_inv q^{2n}) (1 - q^{2n+1})^2
    / ((1 - c q^{4n+2}) (1 - c q^{4n+4})) in six passes, c = 1, or -1
    with z = z_inv = -1 for the majorant, z the ring's own."""
    if order < 2:
        return [ring.zero] * (order + 1)
    z, z_inv, c = ring.z, ring.z_inv, 1
    if bound:
        z = z_inv = c = -1
    top = order - 2
    w = poch_quotient(ZZ, top, [(c, 6, 2, None)], [(1, 3, 2, None)] * 2)
    state = [x * ring.one for x in w.coeffs]
    return accumulation_walk(ring, state, 1, order, lambda n: (
        [(z, 2 * n), (z_inv, 2 * n), (1, 2 * n + 1), (1, 2 * n + 1)],
        [(c, 4 * n + 2), (c, 4 * n + 4)]))


def sb_side(ring, order: int, bound: bool = False,
            cleared: bool = False) -> list:
    """Coefficients 0..order of SB(z,q), z the ring's own, or of SB*D with
    cleared: ``sptcrank._sb_walk``, which walks SB*D, divided by D through
    D's binomial passes (``d_factors``), not the theta kernels of
    ``series.div_d_list``.  With bound, over Z, SB's one majorant, which
    bounds SB*D too.  A builder for ``wide_ring_rows``."""
    walk = _sb_walk(ring, order, bound)
    if bound or cleared:
        return walk
    return apply_factors(walk, denom=d_factors(ring))


def sptbar2_by_accumulation(order: int) -> list:
    """``sptcrank.sptbar2_series``'s coefficients on ``accumulation_walk``,
    from its first summand over q^2 built over Z."""
    if order < 2:
        return [0] * (order + 1)
    state = poch_quotient(ZZ, order - 2, [(-1, 3, 1, None)],
                          [(1, 3, 1, None)] + [(1, 2, 1, 1)] * 2).coeffs
    return accumulation_walk(ZZ, state, 1, order, lambda n: (
        [(1, 2 * n), (1, 2 * n), (1, 2 * n + 1)],
        [(-1, 2 * n + 1), (1, 4 * n + 4)]))


def bailey_side(ring, order: int, bound: bool = False,
                cleared: bool = False) -> list:
    """Coefficients 0..order of the Bailey side of the limiting Bailey
    Lemma instance (rho_1 = z, rho_2 = 1/z, a = 1, base q^2, z the ring's
    own) times its prefactor:

        (q^2;q^2)_inf / ((z q^2, z_inv q^2; q^2)_inf (q;q^2)_inf^2)
        * sum_{n>=0} q^{2n} (z, z_inv; q^2)_n beta_n,

    beta_n = (q;q^2)_n^2 / (q^2;q^2)_{2n}, walked from the n = 0 summand,
    1, on ``accumulation_walk``: summand n+1 over summand n, divided by
    q^2, is
    (1 - z q^{2n}) (1 - z_inv q^{2n}) (1 - q^{2n+1})^2
    / ((1 - q^{4n+2}) (1 - q^{4n+4})).  A builder for ``wide_ring_rows``.

    With cleared, Bailey*D, D = (z q^2, z_inv q^2; q^2)_inf: the
    prefactor leaves out D, so summand n of Bailey*D is q^{2n}
    (z, z_inv; q^2)_n (q^{4n+2}; q^2)_inf / (q^{2n+1}; q^2)_inf^2: z^k needs
    q^{k(k-1)} in (z; q^2)_n and q^{2k} more in front.

    With bound, over Z, it returns a majorant.  Bailey*D's is the formula
    at z = z_inv = -1 with (-q^2; q^2)_inf for (q^2; q^2)_inf.  Summand n
    then becomes q^{2n} (-1, -1; q^2)_n (-q^2; q^2)_inf / ((q^2; q^2)_{2n}
    (q^{2n+1}; q^2)_inf^2), which has no negative coefficient and bounds
    summand n's, as (-q^2; q^2)_inf / (q^2; q^2)_{2n} >= (-q^{4n+2}; q^2)_inf
    coefficient-wise.  The Bailey side's own majorant divides it by
    (q^2; q^2)_inf^2, since 1/D has the majorant 1/(q^2; q^2)_inf^2.
    Without cleared, D divides through its binomial passes
    (``d_factors``), not the theta kernels of ``series.div_d_list``.
    """
    z, z_inv, c = ring.z, ring.z_inv, 1
    if bound:
        z = z_inv = c = -1
    start = [ring.one] + [ring.zero] * order
    acc = accumulation_walk(ring, start, 0, order, lambda n: (
        [(z, 2 * n), (z_inv, 2 * n), (1, 2 * n + 1), (1, 2 * n + 1)],
        [(1, 4 * n + 2), (1, 4 * n + 4)]))
    denom = [(1, 1, 2, None)] * 2
    if not cleared:
        denom += binomials((), d_factors(ring), bound)[1]
    return poch_quotient(ring, order, [(c, 2, 2, None)], denom,
                         start=TruncatedSeries(ring, order, acc)).coeffs


def pack(ring, coeffs):
    """The packed value of sum_e coeffs[e] z^e on ring: coefficient e goes
    to digit (e + S) mod t, S the ring's offset."""
    t, start, bits = ring.t, ring.start, ring.bits
    return sum(v << bits * ((e + start) % t) for e, v in coeffs.items())


def residue_pack(ring, p):
    """p packed in Z[z]/(z^t - 1) through the ring's own shifts, so powers
    of z that leave digits 0..t-1 pass through the fold or the rotation."""
    x = ring.zero
    for e, v in p.c.items():
        term = ring.one
        for _ in range(abs(e)):
            term = (ring.z if e > 0 else ring.z_inv) * term
        x = x + v * term
    return x


def packed_rows(make, order, majorant):
    """The Laurent rows of the packed values make(ring), on Z[z]/(z^t - 1)
    with t = 2S + 1, S = order//2 + 2, offset S and width B one bit more
    than majorant's bit length, read as ``wide_ring_rows`` reads them:
    entry e of ``unpack`` is the coefficient of z^e for e in [-S, S], and
    a row with a nonzero z^-S or z^S digit raises ``WindowError``."""
    s = order // 2 + 2
    ring = PackedResidueRing(majorant.bit_length() + 1, 2 * s + 1, s)
    return _wide_rows(ring, make(ring), s)


def _wide_rows(ring, values, s):
    """The Laurent rows of values on a ring of t = 2s + 1 digits: entry e
    of ``unpack`` is the coefficient of z^e for e in [-s, s]; a row with a
    nonzero z^-s or z^s digit raises ``WindowError(n, s)``."""
    rows = []
    for n, x in enumerate(values):
        digits = ring.unpack(x)
        if digits[s] or digits[-s]:
            raise WindowError(n, s)
        rows.append(LaurentPolynomial(
            {e: digits[e] for e in range(-s, s + 1)}))
    return rows


def wide_ring_rows(build, order):
    """Rows 0..order of build's series over Z[z,1/z] read as one ring of
    t = 2S + 1 digits, S = max(order//2 + 2, K + 1), K =
    ``numerator_reach(order)``, offset K and one bit more than X's
    majorant, build(ZZ, N, True, False): its numerator X*D, build(ring, N,
    False, True), divided by D once on that ring by D's binomial passes
    (``apply_factors`` with ``d_factors``), and
    entry e of ``unpack`` read as the coefficient of z^e for e in [-S, S].
    A row with a nonzero z^-S or z^S digit raises ``WindowError(n, S)``.
    The reference for ``series.numerator_rows``, which gives each row its
    own width."""
    s = max(order // 2 + 2, numerator_reach(order) + 1)
    bits = max(build(ZZ, order, True, False)).bit_length() + 1
    ring = PackedResidueRing(bits, 2 * s + 1, numerator_reach(order))
    values = apply_factors(build(ring, order, False, True),
                           denom=d_factors(ring))
    return _wide_rows(ring, values, s)


def narrow_ring_numerator(build, order):
    """Rows 0..order of a numerator X*D over Z[z,1/z], build(ring, N), read
    off one ring of t = 2K + 1 digits, K = ``numerator_reach(order)``,
    offset K and the width of the numerator's own majorant,
    build(ZZ, N, True): entry e of ``unpack`` is the coefficient of z^e
    for e in [-K, K], and a row with a nonzero z^-K or z^K digit raises
    ``WindowError(n, K)``.  build is a numerator builder
    (``sptcrank._sb_walk``, ``_rank_coeffs``, ``_crank_coeffs``) or the
    Bailey side's numerator form, with cleared; on this ring SB*D's walk
    takes z and 1/z as two binomial passes through the ring's ``z`` and
    ``z_inv``.  The reference for ``sptcrank.sb_numerator`` and
    ``rank_numerator``, which build the numerators in Z[w], w = z + 1/z,
    on plain integers."""
    reach = numerator_reach(order)
    bits = max(build(ZZ, order, True)).bit_length() + 1
    ring = PackedResidueRing(bits, 2 * reach + 1, reach)
    return _wide_rows(ring, build(ring, order), reach)


def wide_ring_divided_by_d(rows):
    """Rows 0..m of X, m = len(rows) - 1, from rows 0..m of its numerator
    X*D as Laurent polynomials, read by ``wide_ring_rows``: the rows
    packed as they are, at the width of sum_i |rows[i]| q^i /
    (q^2; q^2)_inf^2, |p| the sum of |coefficients| of p, which bounds
    the sum of |coefficients| of each row of X, as 1/(1 - z q^e) has the
    majorant 1/(1 - q^e)."""
    def build(ring, order, bound, cleared):
        if bound:
            return apply_factors([sum(map(abs, p.c.values()))
                                  for p in rows],
                                 denom=[(1, 2, 2, None)] * 2)
        return [pack(ring, p.c) for p in rows]

    return wide_ring_rows(build, len(rows) - 1)


def w_laurent(ring, x, k):
    """The Laurent polynomial that x packs on ``PackedSymmetricRing``,
    from its k balanced digits d_j: sum_j d_j w^j, with w^j = sum_i
    C(j, i) z^(j - 2i).  A carry out of the k digits is refused."""
    digits, carry = _balanced_digits(x, ring.bits, k)
    if carry:
        raise RingError(f"value does not decode into {k} digits of "
                        f"{ring.bits} bits")
    c = {}
    for j, d in enumerate(digits):
        if d:
            for i in range(j + 1):
                c[j - 2 * i] = c.get(j - 2 * i, 0) + d * comb(j, i)
    return LaurentPolynomial(c)


def balanced_digits_by_loop(x: int, b: int, k: int) -> tuple[list[int], int]:
    """The k lowest balanced base-2^b digits of x and the carry, one
    digit a step."""
    mask, half = (1 << b) - 1, 1 << (b - 1)
    digits = []
    for _ in range(k):
        d = x & mask
        if d >= half:
            d -= 1 << b
        digits.append(d)
        x = (x - d) >> b
    return digits, x


def row_json(n: int, digits, o: int) -> list[str]:
    """The JSON records of row n, one per nonzero digits[k], the count at
    m = k - o."""
    return [f'{{"n": {n}, "m": {k - o}, "coefficient": "{c}"}}'
            for k, c in enumerate(digits) if c]


def export_table_lines(rows, fmt: str) -> list[str]:
    """The lines of ``export --what table`` in format fmt for rows, the
    (digits, o) pairs of ``sptcrank.sb_rows``, one f-string a record."""
    rows = list(enumerate(rows))
    if fmt == "json":
        return [line for n, (digits, o) in rows
                for line in row_json(n, digits, o)]
    if fmt == "csv":
        return ["n,m,coefficient"] + [
            f"{n},{k - o},{c}" for n, (digits, o) in rows
            for k, c in enumerate(digits) if c]
    return [f"N_SB(m={k - o}, n={n}) = {c}" for n, (digits, o) in rows
            for k, c in enumerate(digits) if c]
