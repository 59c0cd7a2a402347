"""The two-variable spt-crank series SB(z,q) and its combinatorial oracles.

SB(z,q) = sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf (q^{2n+1};q)_inf
          / ( (z q^{2n}, z^{-1} q^{2n}; q^2)_inf (q^{2n+1}; q^2)_inf^2 ),

whose coefficient of z^m q^n counts spt-crank objects; z = 1 recovers the
even-smallest-part overpartition spt function.
"""

from __future__ import annotations

from collections import namedtuple
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
    PackedSymmetricRing,
    root_value,
)
# mul_lists is not called here; bench/test_bench.py reads it as
# sptcrank.mul_lists
from .series import (  # noqa: F401
    TruncatedSeries,
    _laurent,
    apply_factors,
    d_list,
    div_d_at_zeta3,
    div_w_pair_list,
    laurent_rows,
    mul_lists,
    numerator_residues,
    numerator_rows,
    pochhammer_finite,
    pochhammer_inf,
    summand_walk,
    symmetric_numerator,
)


# ---------------------------------------------------------------------------
# Series construction
# ---------------------------------------------------------------------------

def _sb_walk(ring, order: int) -> list:
    """Coefficients 0..order of SB*D, D = (z q^2, q^2/z; q^2)_inf, where

        SB = sum_{n>=1} q^{2n} (q^{4n+2}; q^2)_inf
                       / ((z q^{2n}, q^{2n}/z; q^2)_inf (q^{2n+1}; q^2)_inf^2),

    in one ``summand_walk``, z the ring's own, whose step from summand n
    to n+1 is q^2 times

        (1 - z q^{2n}) (1 - q^{2n}/z) (1 - q^{2n+1})
        / ((1 + q^{2n+1}) (1 - q^{4n+4})),

    (1 - q^{2n+1})^2 / ((1 - q^{4n+2}) (1 - q^{4n+4})) with the common
    factor 1 - q^{2n+1} cancelled: four passes, the z pair one of them in
    w.  This is SB(z,q), since (-q^{2n+1};q)_inf (q^{2n+1};q)_inf equals
    (q^{4n+2};q^2)_inf.  The walk's first summand over q^2 is (q^6;
    q^2)_inf / ((q^3; q^2)_inf^2 D): its z-free part is applied once at the
    walk's end, and D is left out, so summand n of SB*D is q^{2n}
    (z q^2, q^2/z; q^2)_{n-1} (q^{4n+2}; q^2)_inf / (q^{2n+1}; q^2)_inf^2:
    z^k needs q^{k(k+1)} there and q^{2k+2} more in front.  On
    ``PackedSymmetricRing`` the walk is that of SB*D in w = z + 1/z, each
    pair 1 - w q^{2n} + q^{4n}.  Its majorant is ``_sb_majorant``.
    """
    return summand_walk(
        ring, ([(1, 6, 2, None)], [(1, 3, 2, None)] * 2), order,
        lambda n: ([(ring.z, 2 * n), (ring.z_inv, 2 * n), (1, 2 * n + 1)],
                   [(-1, 2 * n + 1), (1, 4 * n + 4)]))


def _sb_majorant(order: int) -> list[int]:
    """Coefficients 0..order of SB's one majorant, over Z,

        q^2 (-q^6; q^2)_inf / ((1 - q^2) (q^2; q^2)_inf^2 (q^3; q^2)_inf^2),

    in O(order sqrt(order)) through the eta route of ``apply_factors``.
    Its coefficient of q^n bounds the sum of |coefficients| of row n of
    SB, and of SB*D (``_sb_walk``) in z and in w (``numerator_width``).
    Coefficient-wise, for n >= 1: (q^{4n+2}; q^2)_inf is at most
    (-q^6; q^2)_inf, 1/(q^{2n+1}; q^2)_inf^2 at most 1/(q^3; q^2)_inf^2,
    and sum_{n>=1} q^{2n} = q^2/(1 - q^2); SB's divisions by (z q^{2n},
    q^{2n}/z; q^2)_inf at |z| = 1, and SB*D's pairs (z q^2, q^2/z;
    q^2)_{n-1}, of norm (1 + q^e)^2 in z and 1 + q^e + q^{2e} in w, are
    each at most 1/(q^2; q^2)_inf^2.  All these series have no negative
    coefficient, so their products keep the order.
    """
    if order < 2:
        return [0] * (order + 1)
    return [0, 0] + apply_factors(
        [1] + [0] * (order - 2), [(-1, 6, 2, None)],
        [(1, 2, 1, 1)] + [(1, 2, 2, None)] * 2 + [(1, 3, 2, None)] * 2)


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


class SptCrankTable(namedtuple("SptCrankTable", "order rows")):
    """Rows n = 0..order of SB(z,q) as Laurent polynomials in z; immutable,
    and equal when the order and the rows are.  A negative count is
    refused, by ``_make`` and ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, order: int, rows: tuple[LaurentPolynomial, ...]):
        for n, row in enumerate(rows):
            for m, c in row.c.items():
                if c < 0:
                    raise ValueError(
                        f"negative spt-crank count at (m={m}, n={n})")
        return super().__new__(cls, order, rows)

    @classmethod
    def _make(cls, iterable):
        # through __new__, and so its check, for _replace too
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"SptCrankTable(order={self.order!r})"


def _sb_bits(order: int) -> int:
    """The width at which SB*D is packed in Z[w] for its rows and its
    residue sums: one bit more than the largest coefficient of SB's
    majorant (``_sb_majorant``), which bounds the sum of |coefficients| of
    each row of SB, and so each residue sum, and of SB*D in w
    (``numerator_width``); at least 2 bits, the least that packs in w
    (SB is 0 to q^1)."""
    return max(1, *_sb_majorant(order)).bit_length() + 1


def sb_rows(order: int):
    """Rows 0..order of SB(z,q), one at a time, as ``numerator_rows``
    yields them from SB*D in Z[w] (``sb_numerator``) at ``_sb_bits``:
    (digits, o), digits[k] the count of z^(k - o).  Each power of z comes
    with at least q^2, so row n has z-exponents in [-n/2, n/2].  A
    negative count is refused, as ``SptCrankTable`` refuses it, once its
    row is reached: the rows below it have been yielded by then."""
    if order < 1:
        raise ValueError("order must be >= 1")
    bits = _sb_bits(order)
    rows = numerator_rows(sb_numerator(order, bits).coeffs, bits, order)
    for n, (digits, o) in enumerate(rows):
        if min(digits) < 0:
            m = next(k for k, c in enumerate(digits) if c < 0) - o
            raise ValueError(f"negative spt-crank count at (m={m}, n={n})")
        yield digits, o


def sb_series(order: int) -> SptCrankTable:
    """SB(z,q) over Z[z,1/z], the rows of ``sb_rows`` collected."""
    return SptCrankTable(order, tuple(_laurent(digits, o)
                                      for digits, o in sb_rows(order)))


def numerator_width(order: int) -> int:
    """The width B at which a run packs SB*D, rank*D and crank*D in Z[w],
    w = z + 1/z (``sb_numerator``, ``rank_numerator``, ``crank_numerator``):
    B = max(B_SB + 2, B_rank, B_crank) + 1, each B_X one bit more than the
    largest coefficient of its numerator's majorant, ``_sb_majorant``,
    ``_rank_majorant`` and ``_crank_majorant``.

    Exactness.  Let |p| be the sum of the absolute values of the
    w-coefficients of p in Z[w]; it is subadditive and submultiplicative.
    In w the pair (1 - z q^e)(1 - q^e/z) is 1 - w q^e + q^{2e}, whose |.|,
    1 + q^e + q^{2e}, is at most the pair's sum of |z-coefficients|,
    (1 + q^e)^2, and u = (1 - z)(1 - 1/z) is 2 - w, of |.| 3: a majorant
    built factor by factor at |z| = 1 bounds |.| too.  SB*D is within
    ``_sb_majorant`` (the proof is there).  rank*D, built from the
    Lambert form (``_rank_coeffs``), is Lovejoy's definition of the M2-rank
    generating function, sum_{n>=0} (-1;q)_{2n} q^n / (z q^2, q^2/z;
    q^2)_n (Ann. Comb. 12 (2008)), times D: summand n is (-1;q)_{2n} q^n
    (z q^{2n+2}, q^{2n+2}/z; q^2)_inf, its pairs within (-q^2; q^2)_inf^2,
    (-1;q)_{2n} <= 2 (-q;q)_inf and sum_{n>=0} q^n = 1/(1 - q), so rank*D
    is within ``_rank_majorant``, in z and in w.
    This rests on the identity of the two forms, which the tests check
    (``rank_series`` against ``rank_series_bailey_sum``), as does theorem
    2's enumeration; ``symmetric_numerator``'s window check guards each
    run.  crank*D is z-free, within ``_crank_majorant``.
    So every w-coefficient of SB*D is below 2^(B_SB - 1), of u SB*D
    below 2^(B_SB + 1), of rank*D below 2^(B_rank - 1) and of crank*D
    below 2^(B_crank - 1), and every one of each side that the checks
    compare, u SB*D, rank*D - crank*D, crank*D + u SB*D or rank*D, is
    below 2^(B - 1).  Z[w] -> Z, w -> 2^B, is a ring map, and an integer
    has at most one expansion in balanced base-2^B digits below
    2^(B - 1): two sides whose packed integers are equal are equal
    polynomials, and two that differ pack different ones.
    """
    sb, rank, crank = (max(majorant(order)).bit_length() + 1
                       for majorant in (_sb_majorant, _rank_majorant,
                                        _crank_majorant))
    return max(sb + 2, rank, crank) + 1


def sb_numerator(order: int, bits: int) -> TruncatedSeries:
    """SB*D, D = (z q^2, q^2/z; q^2)_inf, in Z[w], w = z + 1/z: row n the
    plain integer p_n(2^bits) (``symmetric_numerator``), held over Z."""
    return TruncatedSeries(ZZ, order, symmetric_numerator(
        _sb_walk, order, bits))


def sb_residues(order: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of rows 0..order of SB(z,q), for the
    ``table`` command: read off SB*D in Z[w] (``sb_numerator``) at
    ``_sb_bits``, the walk that ``sb_rows`` and the checks read, without
    the rows: its rows are carried into Z[z]/(z^t - 1) and divided by D
    there (``numerator_residues``).  A residue sum adds counts, so a
    negative one is refused like a negative count in ``SptCrankTable``.
    The checks read SB's sums mod 3 off its values at z = 1 and
    z = zeta_3 over Z (``sb_at_one``, ``sb_at_zeta3``) instead.
    """
    bits = _sb_bits(order)
    sums = numerator_residues(sb_numerator(order, bits).coeffs, bits, t)
    for n, row in enumerate(sums):
        if min(row) < 0:
            raise ValueError(f"negative spt-crank residue sum at n={n}: {row}")
    return sums


def at_zeta3(sums) -> TruncatedSeries:
    """The series over Z[zeta_3] whose coefficient of q^n is ``root_value``
    of sums[n], the residue-class sums mod 3 of the Laurent row at q^n.
    The tests read Laurent rows at zeta_3 with it; the checks read values
    at zeta_3 over Z (``sb_at_zeta3``, ``rank_at_zeta3``,
    ``crank_at_zeta3``)."""
    return TruncatedSeries(CYCLO3, len(sums) - 1, [root_value(s) for s in sums])


def sb_at_root(order: int) -> TruncatedSeries:
    """SB(zeta_3, q) over Z[zeta_3]: ``sb_at_zeta3``, whose integer values
    v are the elements (v, 0).  The checks read ``sb_at_zeta3`` itself;
    this name stays for the benchmark tracer's ``sptcrank.sb_cyclo`` span,
    which wraps it."""
    return sb_at_zeta3(order).embed(CYCLO3)


# Row n of SB(z,q) is unchanged under z <-> 1/z, so its residue sums mod 3
# have s_1 = s_2, and its values at z = 1 and z = zeta_3 are the integers
# s_0 + 2 s_1 and s_0 - s_1: the two walks below give SB's sums mod 3 with
# no ring but Z.  In both, the summand walk's first summand over q^2 is
# ``_sb_walk``'s, (q^6; q^2)_inf / ((q^3; q^2)_inf^2 D).

def sb_at_one(order: int) -> TruncatedSeries:
    """SB(1, q) over Z: ``_sb_walk`` at z = 1, where the pair
    (1 - z q^{2n})(1 - q^{2n}/z) is (1 - q^{2n})^2 and D is
    (q^2; q^2)_inf^2, z-free, so D goes into the first summand."""
    walk = summand_walk(ZZ, ([(1, 6, 2, None)],
                             [(1, 3, 2, None)] * 2 + [(1, 2, 2, None)] * 2),
                        order, lambda n: (
                            [(1, 2 * n), (1, 2 * n), (1, 2 * n + 1)],
                            [(-1, 2 * n + 1), (1, 4 * n + 4)]))
    return TruncatedSeries(ZZ, order, walk)


def sb_at_zeta3(order: int) -> TruncatedSeries:
    """SB(zeta_3, q) over Z: ``_sb_walk`` at z = zeta_3, where the pair
    (1 - z q^{2n})(1 - q^{2n}/z) is 1 + q^{2n} + q^{4n}
    = (1 - q^{6n})/(1 - q^{2n}), and the finished walk is divided by
    D(zeta_3, q) through Jacobi's triple product (``div_d_at_zeta3``)."""
    walk = summand_walk(ZZ, ([(1, 6, 2, None)], [(1, 3, 2, None)] * 2),
                        order, lambda n: (
                            [(1, 6 * n), (1, 2 * n + 1)],
                            [(1, 2 * n), (-1, 2 * n + 1), (1, 4 * n + 4)]))
    return TruncatedSeries(ZZ, order, div_d_at_zeta3(walk))


def sptbar2_series(order: int) -> TruncatedSeries:
    """Generating function of the even-smallest-part overpartition spt:

    sum_{n>=1} q^{2n} (-q^{2n+1};q)_inf / ((1-q^{2n})^2 (q^{2n+1};q)_inf).

    A ``summand_walk`` over Z from the first summand over q^2,
    (-q^3; q)_inf / ((q^3; q)_inf (1 - q^2)^2).  Its step is the step of
    ``sb_at_one``, SB(z,q) at z = 1, factor for factor; only the first
    summand is factored differently there, as (q^6; q^2)_inf /
    ((q^3; q^2)_inf^2 (q^2; q^2)_inf^2).  So the congruences check
    (``z=1-consistency``), which compares the two walks, checks that the
    two factorings of the first summand agree through ``apply_factors``
    (its eta rewriting), not the shared step: it is no independent route
    to SB's z = 1 specialization.  ``table`` prints SB's z = 1 total, the
    sum of its residue classes, read off SB*D's walk in Z[w], and CI
    compares that total with this walk.
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

def _rank_term(ring, n: int, start: list) -> list:
    """Lambert term n of the rank series over q^{n^2+2n}, with start in
    place of 1:

        2 (-1)^n (1 - z)(1 - 1/z) start / ((1 - z q^{2n})(1 - q^{2n}/z)),

    coefficients 0..len(start) - 1, z the ring's own.  On
    ``PackedSymmetricRing``, (1 - z)(1 - 1/z) x is 2x - (x << B), and the
    pair's division its recurrence (``div_w_pair_list``)."""
    sign = -2 if n % 2 else 2
    if type(ring) is PackedSymmetricRing:
        term = [sign * ((x << 1) - (x << ring.bits)) for x in start]
        div_w_pair_list(term, ring, 2 * n)
        return term
    z, z_inv = ring.z, ring.z_inv
    return apply_factors([sign * x for x in start],
                         [(z, 0, 1, 1), (z_inv, 0, 1, 1)],
                         [(z, 2 * n, 1, 1), (z_inv, 2 * n, 1, 1)])


def _rank_coeffs(ring, order: int) -> list:
    """Coefficients 0..order of rank*D, D = (z q^2, q^2/z; q^2)_inf, the
    numerator of the rank generating function (see ``rank_series``).

    The Lambert form runs with D (``d_list``) in place of 1: term n is a
    copy of D times (1 - z)(1 - 1/z), divided by two of D's own factors,
    so z^k needs q^{k(k-1)} in it, as in D.  Its majorant is
    ``_rank_majorant``."""
    start = d_list(ring, order)
    inner = list(start)
    n = 1
    while n * n + 2 * n <= order:
        e = n * n + 2 * n
        term = _rank_term(ring, n, start[:order - e + 1])
        for i, x in enumerate(term, e):
            if x:
                inner[i] = inner[i] + x
        n += 1
    # the prefactor (-q;q)_inf/(q;q)_inf = (q^2;q^2)_inf/(q;q)_inf^2 on the
    # ring: one pentagonal multiplication and two divisions (apply_factors)
    return apply_factors(inner, [(-1, 1, 1, None)], [(1, 1, 1, None)])


def _rank_majorant(order: int) -> list[int]:
    """rank*D's one majorant over Z, 2 (-q;q)_inf (-q^2;q^2)_inf^2 / (1 - q),
    read off the rank's definition, in z and in w (``numerator_width``)."""
    return apply_factors([2] + [0] * order,
                         [(-1, 1, 1, None)] + [(-1, 2, 2, None)] * 2,
                         [(1, 1, 1, 1)])


def rank_series(order: int) -> TruncatedSeries:
    """M2-rank generating function in product-plus-Lambert form over
    Z[z,1/z]:

    (-q;q)_inf/(q;q)_inf * (1 + 2 sum_{n>=1} (1-z)(1-1/z)(-1)^n q^{n^2+2n}
                                / ((1-z q^{2n})(1-q^{2n}/z))),

    the rows of ``rank_numerator`` (``numerator_rows``) at the width of
    rank*D's majorant (``_rank_majorant``)."""
    bits = max(_rank_majorant(order)).bit_length() + 1
    return TruncatedSeries(LAURENT, order, laurent_rows(
        rank_numerator(order, bits).coeffs, bits, order))


def rank_numerator(order: int, bits: int) -> TruncatedSeries:
    """rank*D, D = (z q^2, q^2/z; q^2)_inf, in Z[w], w = z + 1/z: row n
    the plain integer p_n(2^bits) (``symmetric_numerator``), held over Z."""
    return TruncatedSeries(ZZ, order,
                           symmetric_numerator(_rank_coeffs, order, bits))


def _zeta3_rank_term(inner: list, n: int) -> None:
    """In place: inner += Lambert term n of the rank at z = zeta_3,

        6 (-1)^n q^{n^2+2n} (1 - q^{2n}) / (1 - q^{6n}),

    to q^(len(inner) - 1), written out: (1 - z)(1 - 1/z) is 3 there, and
    (1 - z q^{2n})(1 - q^{2n}/z) is (1 - q^{6n})/(1 - q^{2n}), so the
    term puts 6 (-1)^n at q^{n^2+2n} and every 6n after it, and its
    negative 2n above each of those."""
    s = -6 if n % 2 else 6
    e, step = n * n + 2 * n, 6 * n
    for i in range(e, len(inner), step):
        inner[i] += s
    for i in range(e + 2 * n, len(inner), step):
        inner[i] -= s


def rank_at_zeta3(order: int) -> TruncatedSeries:
    """The rank generating function at z = zeta_3 over Z (see
    ``rank_series``), from its Lambert form:

    (-q;q)_inf/(q;q)_inf * (1 + 6 sum_{n>=1} (-1)^n q^{n^2+2n}
                                (1 - q^{2n}) / (1 - q^{6n}))."""
    inner = [1] + [0] * order
    n = 1
    while n * n + 2 * n <= order:
        _zeta3_rank_term(inner, n)
        n += 1
    return TruncatedSeries(ZZ, order, apply_factors(
        inner, [(-1, 1, 1, None)], [(1, 1, 1, None)]))


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


def _crank_coeffs(ring, order: int) -> list:
    """Coefficients 0..order of crank*D, D = (z q^2, q^2/z; q^2)_inf, the
    numerator of the residual-crank generating function (see
    ``crank_series``): the z-free (-q;q)_inf (q^2;q^2)_inf / (q;q^2)_inf,
    built over Z and returned as ring values."""
    w = apply_factors([1] + [0] * order,
                      [(-1, 1, 1, None), (1, 2, 2, None)], [(1, 1, 2, None)])
    return [x * ring.one for x in w]


def _crank_majorant(order: int) -> list[int]:
    """crank*D's one majorant over Z, (-q;q)_inf (-q^2;q^2)_inf / (q;q^2)_inf:
    crank*D's numerator factors (1 - c q^e) taken as 1 + |c| q^e."""
    return apply_factors([1] + [0] * order,
                         [(-1, 1, 1, None), (-1, 2, 2, None)],
                         [(1, 1, 2, None)])


def crank_series(order: int) -> TruncatedSeries:
    """Residual-crank generating function over Z[z,1/z]:
    (-q;q)_inf (q^2;q^2)_inf / ((q;q^2)_inf (z q^2;q^2)_inf (q^2/z;q^2)_inf),
    the rows of ``crank_numerator`` (``numerator_rows``) at the width of
    crank*D's majorant (``_crank_majorant``)."""
    bits = max(_crank_majorant(order)).bit_length() + 1
    return TruncatedSeries(LAURENT, order, laurent_rows(
        crank_numerator(order).coeffs, bits, order))


def crank_numerator(order: int) -> TruncatedSeries:
    """crank*D = (-q;q)_inf (q^2;q^2)_inf / (q;q^2)_inf, z-free, over Z:
    each row a constant, so also its own packing in Z[w] at every width."""
    return TruncatedSeries(ZZ, order, _crank_coeffs(ZZ, order))


def crank_at_zeta3(order: int) -> TruncatedSeries:
    """The residual-crank generating function at z = zeta_3 over Z (see
    ``crank_series``): the z-free crank*D divided by D(zeta_3, q)
    (``div_d_at_zeta3``)."""
    return TruncatedSeries(ZZ, order, div_d_at_zeta3(_crank_coeffs(ZZ, order)))


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
