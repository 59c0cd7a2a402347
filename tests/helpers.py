"""Small series, polynomial and enumeration helpers that only the tests use.

Most were members of the package with no production caller; each is a
direct definition, kept independent of the fast builders.
``pair_crank_series`` is a third route to SB(z,q), beside the fast walk and
the naive summands, that no check runs.  ``residue_pack`` and
``packed_rows`` pack Laurent polynomials on the packed ring and read them
back through ``packed_laurent``, for the tests of that ring.
"""

from typing import Callable, Iterator

from spt_kernel.partitions import (
    Partition,
    enumerate_overpartitions,
    partition_list,
)
from spt_kernel.rings import LAURENT, ZZ, LaurentPolynomial
from spt_kernel.series import (
    TruncatedSeries,
    _scan_range,
    div_binomial_list,
    geometric,
    packed_laurent,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
)


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
    """Sum of coefficient(n) * q^{exponent(n)} over n with exponent <= order."""
    s = TruncatedSeries(ring, order)
    for n in _scan_range(order, exponent, bilateral):
        e = exponent(n)
        if 0 <= e <= order:
            s.coeffs[e] = s.coeffs[e] + ring.coerce(coefficient(n))
    return s


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
    """The rows ``packed_laurent`` reads off the packed values make(ring),
    on the ring it sets up for order: offset S = order//2 + 2, and width B
    one bit more than majorant's bit length."""
    def build(ring, z, z_inv, order, bound):
        return [majorant] if bound else make(ring)
    return packed_laurent(build, order)
