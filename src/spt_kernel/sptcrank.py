"""The two-variable spt-crank series SB(z,q) and its combinatorial oracles.

SB(z,q) = sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf (q^{2n+1};q)_inf
          / ( (z q^{2n}, z^{-1} q^{2n}; q^2)_inf (q^{2n+1}; q^2)_inf^2 ),

whose coefficient of z^m q^n counts spt-crank objects; z = 1 recovers the
even-smallest-part overpartition spt function.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import (
    Partition,
    distinct_partition_list,
    num_even_parts,
    partition_list,
)
from .rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    LaurentPolynomial,
    root_value,
)
# mul_lists is not called here; bench/test_bench.py reads it as
# sptcrank.mul_lists
from .series import (  # noqa: F401
    TruncatedSeries,
    apply_factors,
    binomials,
    d_factors,
    mul_lists,
    packed_laurent,
    packed_residues,
    pochhammer_finite,
    pochhammer_inf,
    summand_walk,
)


# ---------------------------------------------------------------------------
# Series construction
# ---------------------------------------------------------------------------

def _sb_walk(ring, order: int, bound: bool = False,
             cleared: bool = False) -> list:
    """Coefficients 0..order of

        sum_{n>=1} q^{2n} (q^{4n+2}; q^2)_inf
                   / ((z q^{2n}, q^{2n}/z; q^2)_inf (q^{2n+1}; q^2)_inf^2)

    in one ``summand_walk``, z the ring's own, whose step from summand n
    to n+1 is q^2 times

        (1 - z q^{2n}) (1 - q^{2n}/z) (1 - q^{2n+1})
        / ((1 + q^{2n+1}) (1 - q^{4n+4})),

    (1 - q^{2n+1})^2 / ((1 - q^{4n+2}) (1 - q^{4n+4})) with the common
    factor 1 - q^{2n+1} cancelled: four passes, the z pair one of them on
    the packed ring.  This is SB(z,q), since (-q^{2n+1};q)_inf
    (q^{2n+1};q)_inf equals (q^{4n+2};q^2)_inf.  The walk's first summand
    over q^2, (q^6; q^2)_inf / ((q^3; q^2)_inf^2 D), D = (z q^2, q^2/z;
    q^2)_inf, is applied once at its end.

    With bound, over Z, it returns a majorant in product form, whose
    coefficient of q^n bounds the sum of |coefficients| of row n of SB:

        q^2 (-q^6; q^2)_inf / ((1 - q^2) (q^2; q^2)_inf^2 (q^3; q^2)_inf^2),

    in O(order sqrt(order)) through the eta route of ``apply_factors``.
    Coefficient-wise, for n >= 1 and |z| = 1: the numerator
    (q^{4n+2}; q^2)_inf is at most (-q^{4n+2}; q^2)_inf <= (-q^6; q^2)_inf;
    1/(z q^{2n}; q^2)_inf and 1/(q^{2n}/z; q^2)_inf are each at most
    1/(q^{2n}; q^2)_inf <= 1/(q^2; q^2)_inf; 1/(q^{2n+1}; q^2)_inf^2 <=
    1/(q^3; q^2)_inf^2; and sum_{n>=1} q^{2n} = q^2/(1 - q^2).  All these
    series have no negative coefficient, so their products keep the order.

    With cleared, the walk leaves D out of its first summand, so it
    returns SB*D, whose summand n is q^{2n} (z q^2, q^2/z; q^2)_{n-1}
    (q^{4n+2}; q^2)_inf / (q^{2n+1}; q^2)_inf^2: z^k needs q^{k(k+1)} there
    and q^{2k+2} more in front.  Its majorant is this walk in its
    uncancelled form, (1 - q^{2n+1})^2 / ((1 - c q^{4n+2}) (1 - c q^{4n+4})),
    with c = -1 and z = 1/z = -1, which turns the step's z-factors into
    (1 + q^{2n})^2.
    """
    if order < 2:
        return [ring.zero] * (order + 1)
    if bound and not cleared:
        return [0, 0] + apply_factors(
            ZZ, [1] + [0] * (order - 2), [(-1, 6, 2, None)],
            [(1, 2, 1, 1)] + [(1, 2, 2, None)] * 2 + [(1, 3, 2, None)] * 2)
    z, z_inv, c = ring.z, ring.z_inv, 1
    if bound:
        z = z_inv = c = -1
    first = ([(c, 6, 2, None)],
             [(1, 3, 2, None)] * 2 + ([] if cleared else d_factors(ring)))
    if bound:
        return summand_walk(ring, first, order, lambda n: (
            [(z, 2 * n), (z_inv, 2 * n), (1, 2 * n + 1), (1, 2 * n + 1)],
            [(c, 4 * n + 2), (c, 4 * n + 4)]))
    return summand_walk(ring, first, order, lambda n: (
        [(z, 2 * n), (z_inv, 2 * n), (1, 2 * n + 1)],
        [(-1, 2 * n + 1), (1, 4 * n + 4)]))


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


class SptCrankTable:
    """Rows n = 0..order of SB(z,q) as Laurent polynomials in z; immutable,
    and equal when the order and the rows are.  A negative count is
    refused."""

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: tuple[LaurentPolynomial, ...]):
        for n, row in enumerate(rows):
            for m, c in row.c.items():
                if c < 0:
                    raise ValueError(
                        f"negative spt-crank count at (m={m}, n={n})")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not SptCrankTable:
            return NotImplemented
        return (self.order, self.rows) == (other.order, other.rows)

    def __hash__(self) -> int:
        return hash((self.order, self.rows))

    def __repr__(self) -> str:
        return f"SptCrankTable(order={self.order!r})"

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


def sb_numerator(order: int) -> TruncatedSeries:
    """SB*D over Z[z,1/z], D = (z q^2, q^2/z; q^2)_inf, read off the narrow
    packed ring of ``packed_laurent`` with cleared."""
    return TruncatedSeries(LAURENT, order,
                           packed_laurent(_sb_walk, order, cleared=True))


def sb_residues(order: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of rows 0..order of SB(z,q), built over
    Z[z]/(z^t - 1) (``packed_residues``) without the rows, for the
    ``table`` command.  A residue sum adds counts, so a negative one is
    refused like a negative count in ``SptCrankTable``.  The checks read
    ``packed_residues`` of SB themselves: each compares every row with an
    independent series, so a wrong row, negative or not, is reported where
    it first differs.
    """
    sums = packed_residues(_sb_walk, order, t)
    for n, row in enumerate(sums):
        if min(row) < 0:
            raise ValueError(f"negative spt-crank residue sum at n={n}: {row}")
    return sums


def at_zeta3(sums) -> TruncatedSeries:
    """The series over Z[zeta_3] whose coefficient of q^n is ``root_value``
    of sums[n], the residue-class sums mod 3 of the Laurent row at q^n."""
    return TruncatedSeries(CYCLO3, len(sums) - 1, [root_value(s) for s in sums])


def sb_at_root(order: int) -> TruncatedSeries:
    """SB(zeta_3, q) over Z[zeta_3], read off the residue sums of
    ``sb_residues``.  The checks call ``at_zeta3`` on their shared residue
    sums; this name stays for the benchmark tracer's ``sptcrank.sb_cyclo``
    span, which wraps it."""
    return at_zeta3(sb_residues(order, 3))


def sptbar2_series(order: int) -> TruncatedSeries:
    """Generating function of the even-smallest-part overpartition spt:

    sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf / ((1-q^{2n})^2 (q^{2n+1};q)_inf).

    Distinct from the z=1 specialization of SB(z,q), so the two act as
    cross-checks on each other: ``table`` prints SB's z = 1 total, the sum
    of its residue classes, and the congruences check (``z=1-consistency``)
    and CI compare that total with this walk.  A ``summand_walk`` over Z
    from the first summand over q^2, (-q^3; q)_inf / ((q^3; q)_inf
    (1 - q^2)^2).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    # summand n+1 over summand n, divided by q^2, is
    # (1-q^{2n})^2 (1-q^{2n+1}) / ((1+q^{2n+1}) (1-q^{4n+4}))
    first = ([(-1, 3, 1, None)], [(1, 3, 1, None)] + [(1, 2, 1, 1)] * 2)
    total = summand_walk(ZZ, first, order, lambda n: (
        [(1, 2 * n), (1, 2 * n), (1, 2 * n + 1)],
        [(-1, 2 * n + 1), (1, 4 * n + 4)]))
    return TruncatedSeries(ZZ, order, total)


# ---------------------------------------------------------------------------
# Rank and residual-crank generating functions
# ---------------------------------------------------------------------------

def _rank_term(ring, n: int, start: list, bound: bool) -> list:
    """Lambert term n of the rank series over q^{n^2+2n}, with start in
    place of 1:

        2 (-1)^n (1 - z)(1 - 1/z) start / ((1 - z q^{2n})(1 - q^{2n}/z)),

    coefficients 0..len(start) - 1, z the ring's own; with bound, its
    majorant (see ``binomials``)."""
    sign = -2 if n % 2 and not bound else 2
    z, z_inv = ring.z, ring.z_inv
    return apply_factors(ring, [sign * x for x in start], *binomials(
        [(z, 0, 1, 1), (z_inv, 0, 1, 1)],
        [(z, 2 * n, 1, 1), (z_inv, 2 * n, 1, 1)], bound))


def _rank_coeffs(ring, order: int, bound: bool = False,
                 cleared: bool = False) -> list:
    """Coefficients 0..order of the rank generating function (see
    ``rank_series``); with bound, over Z at z = 1, its majorant.

    With cleared, the Lambert form runs with D = (z q^2, q^2/z; q^2)_inf in
    place of 1 and returns rank*D: term n is a copy of D times
    (1 - z)(1 - 1/z), divided by two of D's own factors, so z^k needs
    q^{k(k-1)} in it, as in D.  Its majorant is D's,
    (-q^2; q^2)_inf^2, with 4/(1 - q^{2n})^2 per term."""
    start = [ring.one] + [ring.zero] * order
    if cleared:
        apply_factors(ring, start, *binomials(d_factors(ring), (), bound))
    inner = list(start)
    n = 1
    while n * n + 2 * n <= order:
        e = n * n + 2 * n
        term = _rank_term(ring, n, start[:order - e + 1], bound)
        for i, x in enumerate(term, e):
            if x:
                inner[i] = inner[i] + x
        n += 1
    # the prefactor (-q;q)_inf/(q;q)_inf = (q^2;q^2)_inf/(q;q)_inf^2 on the
    # ring: one pentagonal multiplication and two divisions (apply_factors)
    return apply_factors(ring, inner, *binomials(
        [(-1, 1, 1, None)], [(1, 1, 1, None)], bound))


def rank_series(order: int) -> TruncatedSeries:
    """M2-rank generating function in product-plus-Lambert form over
    Z[z,1/z], built on packed integers:

    (-q;q)_inf/(q;q)_inf * (1 + 2 sum_{n>=1} (1-z)(1-1/z)(-1)^n q^{n^2+2n}
                                / ((1-z q^{2n})(1-q^{2n}/z))).
    """
    return TruncatedSeries(LAURENT, order, packed_laurent(_rank_coeffs, order))


def rank_numerator(order: int) -> TruncatedSeries:
    """rank*D over Z[z,1/z], D = (z q^2, q^2/z; q^2)_inf, read off the
    narrow packed ring of ``packed_laurent`` with cleared."""
    return TruncatedSeries(LAURENT, order,
                           packed_laurent(_rank_coeffs, order, cleared=True))


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


def _crank_coeffs(ring, order: int, bound: bool = False,
                  cleared: bool = False) -> list:
    """Coefficients 0..order of the residual-crank generating function (see
    ``crank_series``); with bound, over Z at z = 1, its majorant.  With
    cleared, crank*D, D = (z q^2, q^2/z; q^2)_inf: the z-free part, built
    over Z and returned as ring values."""
    w = apply_factors(ZZ, [1] + [0] * order, *binomials(
        [(-1, 1, 1, None), (1, 2, 2, None)], [(1, 1, 2, None)], bound))
    start = [x * ring.one for x in w]
    if cleared:
        return start
    return apply_factors(ring, start, *binomials((), d_factors(ring), bound))


def crank_series(order: int) -> TruncatedSeries:
    """Residual-crank generating function over Z[z,1/z], built on packed
    integers:
    (-q;q)_inf (q^2;q^2)_inf / ((q;q^2)_inf (z q^2;q^2)_inf (q^2/z;q^2)_inf).
    """
    return TruncatedSeries(LAURENT, order, packed_laurent(_crank_coeffs, order))


def crank_numerator(order: int) -> TruncatedSeries:
    """crank*D = (-q;q)_inf (q^2;q^2)_inf / (q;q^2)_inf, z-free, over Z."""
    return TruncatedSeries(ZZ, order, _crank_coeffs(ZZ, order, cleared=True))


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
