"""The two-variable spt-crank series SB(z,q) and its combinatorial oracles.

SB(z,q) = sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf (q^{2n+1};q)_inf
          / ( (z q^{2n}, z^{-1} q^{2n}; q^2)_inf (q^{2n+1}; q^2)_inf^2 ),

whose coefficient of z^m q^n counts spt-crank objects; z = 1 recovers the
even-smallest-part overpartition spt function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from .partitions import (
    Partition,
    distinct_partition_list,
    num_even_parts,
    partition_list,
)
from .rings import (
    CYCLO3,
    CYCLO5,
    LAURENT,
    ZZ,
    LaurentPolynomial,
    RingError,
    root_value,
)
from .series import (
    TruncatedSeries,
    binomials,
    geometric,
    mul_lists,
    packed_laurent,
    packed_residues,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
    summand_walk,
)


# ---------------------------------------------------------------------------
# Series construction
# ---------------------------------------------------------------------------

def sb_summand_ratio(z, z_inv, c):
    """Step of the SB walk: summand n+1 over summand n, divided by q^2, is

        (1 - z q^{2n}) (1 - z_inv q^{2n}) (1 - q^{2n+1})^2
        / ((1 - c q^{4n+2}) (1 - c q^{4n+4})),

    returned as the (numer, denom) binomial lists ``summand_walk`` takes.
    """
    return lambda n: ([(z, 2 * n), (z_inv, 2 * n),
                       (1, 2 * n + 1), (1, 2 * n + 1)],
                      [(c, 4 * n + 2), (c, 4 * n + 4)])


def _sb_walk(ring, z, z_inv, order: int, bound: bool = False) -> list:
    """Coefficients 0..order of

        sum_{n>=1} q^{2n} (c q^{4n+2}; q^2)_inf
                   / ((z q^{2n}, z_inv q^{2n}; q^2)_inf (q^{2n+1}; q^2)_inf^2)

    in one ``summand_walk``; summand n+1 differs from summand n by four
    binomial factors and two binomial divisors.  c = 1 gives SB(z,q), since
    (-q^{2n+1};q)_inf (q^{2n+1};q)_inf equals (q^{4n+2};q^2)_inf.  With
    bound, over Z at z = z_inv = 1, c = -1 gives a majorant: its
    coefficient of q^n bounds the sum of |coefficients| of row n of SB.
    The step factors cancel factors of the summands, so this product-form
    majorant is tighter than the one ``binomials`` would give.
    """
    if z * (z_inv * ring.one) != ring.one:
        raise RingError("z and z_inv must be inverse units")
    if order < 2:
        return [ring.zero] * (order + 1)
    c = -1 if bound else 1
    top = order - 2
    # summand 1 over q^2: the z-free factors over Z, then the z divisions
    w = poch_quotient(ZZ, top, [(c, 6, 2, None)], [(1, 3, 2, None)] * 2)
    start = TruncatedSeries(ring, top, [x * ring.one for x in w.coeffs])
    state = poch_quotient(ring, top, denom=[(z, 2, 2, None), (z_inv, 2, 2, None)],
                          start=start).coeffs
    return summand_walk(ring, state, 1, order, sb_summand_ratio(z, z_inv, c))


def sb_coefficients_naive(ring, z, z_inv, order: int) -> list:
    """Reference construction: every summand built from scratch.

    Kept as the mandatory cross-check for the incremental builder.
    """
    z = ring.coerce(z)
    z_inv = ring.coerce(z_inv)
    acc = TruncatedSeries(ring, order)
    for n in range(1, order // 2 + 1):
        num = (pochhammer_inf(ring, ring.coerce(-1), 2 * n + 1, 1, order)
               * pochhammer_inf(ring, ring.one, 2 * n + 1, 1, order))
        den = (pochhammer_inf(ring, z, 2 * n, 2, order)
               * pochhammer_inf(ring, z_inv, 2 * n, 2, order)
               * pochhammer_inf(ring, ring.one, 2 * n + 1, 2, order)
               * pochhammer_inf(ring, ring.one, 2 * n + 1, 2, order))
        acc = acc + (num * den.invert()).shift(2 * n)
    return acc.coeffs


@dataclass(frozen=True)
class SptCrankTable:
    """Rows n = 0..order of SB(z,q) as Laurent polynomials in z."""

    order: int
    rows: tuple[LaurentPolynomial, ...] = field(repr=False)

    def __post_init__(self):
        for n, row in enumerate(self.rows):
            for m, c in row.c.items():
                if c < 0:
                    raise ValueError(
                        f"negative spt-crank count at (m={m}, n={n})")

    def row(self, n: int) -> LaurentPolynomial:
        if not 0 <= n <= self.order:
            raise ValueError(f"row {n} outside 0..{self.order}")
        return self.rows[n]

    def spt2(self, n: int) -> int:
        return self.row(n).eval_at_one()

    def as_series(self) -> TruncatedSeries:
        return TruncatedSeries(LAURENT, self.order, list(self.rows))

    def csv_rows(self):
        """(n, m, coefficient) triples, exact integers, increasing in
        (n, m) whatever order each row's dict was filled in."""
        for n, row in enumerate(self.rows):
            for m, c in sorted(row.c.items()):
                yield n, m, c


def sb_series(order: int) -> SptCrankTable:
    """SB(z,q) over Z[z,1/z], built on packed integers (``packed_laurent``);
    each power of z comes with at least q^2, so row n has z-exponents in
    [-n/2, n/2]."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return SptCrankTable(order, tuple(packed_laurent(_sb_walk, order)))


def sb_residues(order: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of rows 0..order of SB(z,q), built over
    Z[z]/(z^t - 1) (``packed_residues``) without the rows.

    A residue sum adds counts, so a negative one is refused like a negative
    count in ``SptCrankTable``.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sums = packed_residues(_sb_walk, order, t)
    for n, row in enumerate(sums):
        if min(row) < 0:
            raise ValueError(f"negative spt-crank residue sum at n={n}: {row}")
    return sums


def _at_root(t: int, order: int, residues) -> TruncatedSeries:
    """The series over Z[zeta_t], t in {3, 5}, whose coefficient of q^n is
    ``root_value`` of entry n of residues(order, t); t is checked before
    anything is built."""
    ring = {3: CYCLO3, 5: CYCLO5}.get(t)
    if ring is None:
        raise RingError(f"unsupported root order t={t}")
    return TruncatedSeries(ring, order,
                           [root_value(s, t) for s in residues(order, t)])


def sb_at_root(t: int, order: int) -> TruncatedSeries:
    """SB(zeta_t, q) over Z[zeta_t], t in {3, 5}, read off the residue sums
    of ``sb_residues``."""
    return _at_root(t, order, sb_residues)


def sptbar2_series(order: int) -> TruncatedSeries:
    """Generating function of the even-smallest-part overpartition spt:

    sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf / ((1-q^{2n})^2 (q^{2n+1};q)_inf).

    Distinct from the z=1 specialization of SB(z,q), so the two act as
    cross-checks on each other.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order < 2:
        return TruncatedSeries(ZZ, order)
    # summand n+1 over summand n, divided by q^2, is
    # (1-q^{2n})^2 (1-q^{2n+1}) / ((1+q^{2n+1}) (1-q^{4n+4}))
    state = poch_quotient(ZZ, order - 2, [(-1, 3, 1, None)],
                          [(1, 3, 1, None)] + [(1, 2, 1, 1)] * 2).coeffs
    total = summand_walk(ZZ, state, 1, order, lambda n: (
        [(1, 2 * n), (1, 2 * n), (1, 2 * n + 1)],
        [(-1, 2 * n + 1), (1, 4 * n + 4)]))
    return TruncatedSeries(ZZ, order, total)


# ---------------------------------------------------------------------------
# Rank and residual-crank generating functions
# ---------------------------------------------------------------------------

def _rank_coeffs(ring, z, z_inv, order: int, bound: bool = False) -> list:
    """Coefficients 0..order of the rank generating function (see
    ``rank_series``); with bound, over Z at z = z_inv = 1, its majorant."""
    inner = [ring.zero] * (order + 1)
    inner[0] = ring.one
    n = 1
    while n * n + 2 * n <= order:
        # 2 (-1)^n (1-z)(1-1/z) / ((1-z q^{2n})(1-q^{2n}/z)), at q^{n^2+2n}
        e = n * n + 2 * n
        sign = -2 if n % 2 and not bound else 2
        term = poch_quotient(
            ring, order - e, *binomials(
                [(z, 0, 1, 1), (z_inv, 0, 1, 1)],
                [(z, 2 * n, 1, 1), (z_inv, 2 * n, 1, 1)], bound),
            start=TruncatedSeries(ring, order - e, [sign * ring.one]))
        for i, x in enumerate(term.coeffs, e):
            if x:
                inner[i] = inner[i] + x
        n += 1
    # the prefactor over Z acts by integer scalars on the dense inner sum
    pref = poch_quotient(ZZ, order, *binomials([(-1, 1, 1, None)],
                                               [(1, 1, 1, None)], bound))
    return mul_lists(pref.coeffs, inner, order, ring.zero)


def rank_series(order: int) -> TruncatedSeries:
    """M2-rank generating function in product-plus-Lambert form over
    Z[z,1/z], built on packed integers:

    (-q;q)_inf/(q;q)_inf * (1 + 2 sum_{n>=1} (1-z)(1-1/z)(-1)^n q^{n^2+2n}
                                / ((1-z q^{2n})(1-q^{2n}/z))).
    """
    return TruncatedSeries(LAURENT, order, packed_laurent(_rank_coeffs, order))


def rank_at_root(t: int, order: int) -> TruncatedSeries:
    """The rank generating function at z = zeta_t, t in {3, 5}, read off
    residue sums mod t built over Z[z]/(z^t - 1)."""
    return _at_root(t, order, partial(packed_residues, _rank_coeffs))


def rank_series_bailey_sum(ring, z, z_inv, order: int) -> TruncatedSeries:
    """The same rank generating function via the q-hypergeometric sum
    sum_{n>=0} (-1;q)_{2n} q^n / ((z q^2, q^2/z; q^2)_n).  O(N^3); use for
    modest orders as an independent route.
    """
    z = ring.coerce(z)
    z_inv = ring.coerce(z_inv)
    acc = TruncatedSeries(ring, order)
    for n in range(order + 1):
        num = pochhammer_finite(ring, ring.coerce(-1), 0, 1, 2 * n, order)
        den = (pochhammer_finite(ring, z, 2, 2, n, order)
               * pochhammer_finite(ring, z_inv, 2, 2, n, order))
        acc = acc + (num * den.invert()).shift(n)
    return acc


def _crank_coeffs(ring, z, z_inv, order: int, bound: bool = False) -> list:
    """Coefficients 0..order of the residual-crank generating function (see
    ``crank_series``); with bound, over Z at z = z_inv = 1, its majorant."""
    # the z-free part over Z, then the z divisions
    w = poch_quotient(ZZ, order, *binomials(
        [(-1, 1, 1, None), (1, 2, 2, None)], [(1, 1, 2, None)], bound))
    return poch_quotient(
        ring, order, *binomials((), [(z, 2, 2, None), (z_inv, 2, 2, None)], bound),
        start=TruncatedSeries(ring, order, [x * ring.one for x in w.coeffs])).coeffs


def crank_series(order: int) -> TruncatedSeries:
    """Residual-crank generating function over Z[z,1/z], built on packed
    integers:
    (-q;q)_inf (q^2;q^2)_inf / ((q;q^2)_inf (z q^2;q^2)_inf (q^2/z;q^2)_inf).
    """
    return TruncatedSeries(LAURENT, order, packed_laurent(_crank_coeffs, order))


def crank_at_root(t: int, order: int) -> TruncatedSeries:
    """The residual-crank generating function at z = zeta_t, t in {3, 5},
    read off residue sums mod t built over Z[z]/(z^t - 1)."""
    return _at_root(t, order, partial(packed_residues, _crank_coeffs))


# ---------------------------------------------------------------------------
# Combinatorial oracles
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _distinct_count_min(n: int, min_part: int) -> int:
    return len(distinct_partition_list(n, min_part))


def vector_partition_oracle(n: int) -> LaurentPolynomial:
    """Signed vector-partition count of the spt-crank.

    Quadruples (p1, p2, p3, p4) with p1 nonempty distinct with even smallest
    part s, p2 and p3 ordinary with smallest parts >= s, p4 distinct with
    smallest part > s; weight (-1)^{#p1 - 1}, crank #even(p2) - #even(p3).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: dict[int, int] = {}
    for n1 in range(2, n + 1):
        for p1 in distinct_partition_list(n1):
            s = p1[-1]
            if s % 2:
                continue
            w = -1 if len(p1) % 2 == 0 else 1
            rem = n - n1
            for n2 in range(rem + 1):
                for p2 in partition_list(n2, s):
                    e2 = num_even_parts(p2)
                    for n3 in range(rem - n2 + 1):
                        n4 = rem - n2 - n3
                        d4 = _distinct_count_min(n4, s + 1)
                        if not d4:
                            continue
                        for p3 in partition_list(n3, s):
                            m = e2 - num_even_parts(p3)
                            counts[m] = counts.get(m, 0) + w * d4
    return LaurentPolynomial(counts)


def _pp2_second_components(total: int, s: int):
    """Partitions of `total` with parts >= s whose even parts are <= 2s."""
    for p in partition_list(total, s):
        if all(x <= 2 * s for x in p if x % 2 == 0):
            yield p


def pair_statistic(p1: Partition, p2: Partition) -> int:
    """k(p1,p2): even parts of p1 equal to the smallest part, plus even
    parts exceeding s(p1) + 2*#even(p2)."""
    s = p1[-1]
    threshold = s + 2 * num_even_parts(p2)
    return sum(1 for x in p1 if x % 2 == 0 and (x == s or x > threshold))


def partition_pair_oracle(n: int) -> LaurentPolynomial:
    """Partition-pair count of the spt-crank (manifestly non-negative).

    Pairs (p1, p2) with p1 nonempty, s(p1) even, s(p1) <= s(p2), even parts
    of p2 at most 2 s(p1); crank c = k(p1,p2) - #even(p2) - 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counts: dict[int, int] = {}
    for n1 in range(2, n + 1):
        for p1 in partition_list(n1):
            s = p1[-1]
            if s % 2:
                continue
            for p2 in _pp2_second_components(n - n1, s):
                c = pair_statistic(p1, p2) - num_even_parts(p2) - 1
                counts[c] = counts.get(c, 0) + 1
    return LaurentPolynomial(counts)


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
    z, z_inv = LAURENT.z, LAURENT.z_inv
    acc = TruncatedSeries(ring, order)
    for n in range(1, order // 2 + 1):
        wsq = pochhammer_inf(ring, ring.one, 2 * n + 1, 2, order)
        wsq = (wsq * wsq).invert()
        first = pochhammer_inf(ring, z, 2 * n, 2, order).invert() * wsq
        acc = acc + first.shift(2 * n)
        k = 1
        while 2 * n * (k + 1) <= order:
            term = geometric(ring, z, 2 * n, order)
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
