"""Truncated formal power series in q over a pluggable coefficient ring.

A series carries its ring tag and truncation order N; coefficients beyond N
are undefined, never silently zero.  Binary operations require matching ring
and order -- a mismatch while checking an identity is a bug, not data.
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from .rings import ZZ, LaurentPolynomial, PackedResidueRing, RingError


class SeriesError(ValueError):
    """Order/ring mismatch or an operation leaving the power-series ring."""


# -- list-level kernels (shared with the spt-crank builders) ----------------

def mul_lists(a, b, upto, zero):
    """Cauchy product of coefficient lists, coefficients 0..upto only."""
    out = [zero] * (upto + 1)
    for i, ai in enumerate(a):
        if i > upto:
            break
        if not ai:
            continue
        lim = upto - i
        for j, bj in enumerate(b):
            if j > lim:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def mul_binomial_list(a, c, e):
    """In place: a *= (1 - c*q^e)."""
    if e == 0:
        for i, ai in enumerate(a):
            if ai:
                a[i] = ai - c * ai
        return
    for i in range(len(a) - 1, e - 1, -1):
        lo = a[i - e]
        if lo:
            a[i] = a[i] - c * lo


def div_binomial_list(a, c, e):
    """In place: a *= 1/(1 - c*q^e) (geometric recurrence)."""
    if e <= 0:
        raise SeriesError("geometric division needs a positive q-exponent")
    for i in range(e, len(a)):
        prev = a[i - e]
        if prev:
            a[i] = a[i] + c * prev


def invert_list(a, ring):
    c0inv = ring.unit_inverse(a[0])
    n = len(a)
    b = [ring.zero] * n
    b[0] = c0inv
    trivial = a[0] == ring.one
    for m in range(1, n):
        s = ring.zero
        for k in range(1, m + 1):
            ak = a[k]
            if ak:
                bk = b[m - k]
                if bk:
                    s = s + ak * bk
        if s:
            b[m] = -s if trivial else -(c0inv * s)
    return b


class TruncatedSeries:
    __slots__ = ("ring", "order", "coeffs")

    def __init__(self, ring, order: int, coeffs: Sequence | None = None):
        if order < 0:
            raise SeriesError("order must be >= 0")
        self.ring = ring
        self.order = order
        if coeffs is None:
            self.coeffs = [ring.zero] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) > order + 1:
                raise SeriesError(f"{len(coeffs)} coefficients for order {order}")
            coeffs += [ring.zero] * (order + 1 - len(coeffs))
            self.coeffs = coeffs

    # -- constructors --------------------------------------------------------

    @staticmethod
    def monomial(ring, c, e: int, order: int) -> "TruncatedSeries":
        s = TruncatedSeries(ring, order)
        if 0 <= e <= order:
            s.coeffs[e] = ring.coerce(c)
        elif e < 0:
            raise SeriesError("negative q-exponent")
        return s

    # -- structure -----------------------------------------------------------

    def coefficient(self, n: int):
        if not 0 <= n <= self.order:
            raise SeriesError(f"coefficient {n} outside tracked range 0..{self.order}")
        return self.coeffs[n]

    def _compat(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise SeriesError("expected a TruncatedSeries")
        if self.ring != other.ring:
            raise SeriesError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        if self.order != other.order:
            raise SeriesError(f"order mismatch: {self.order} vs {other.order}")

    def __bool__(self) -> bool:
        return any(bool(c) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    __hash__ = None  # mutable coefficient list; not hashable

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        return TruncatedSeries(
            self.ring, self.order,
            [a + b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __sub__(self, other):
        self._compat(other)
        return TruncatedSeries(
            self.ring, self.order,
            [a - b for a, b in zip(self.coeffs, other.coeffs)],
        )

    def __neg__(self):
        return TruncatedSeries(self.ring, self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._compat(other)
        return TruncatedSeries(
            self.ring, self.order,
            mul_lists(self.coeffs, other.coeffs, self.order, self.ring.zero),
        )

    def scale(self, c) -> "TruncatedSeries":
        c = self.ring.coerce(c)
        return TruncatedSeries(self.ring, self.order, [a * c for a in self.coeffs])

    def shift(self, e: int) -> "TruncatedSeries":
        """Multiply by q^e; top e coefficients fall off the truncation."""
        if e < 0:
            raise SeriesError("negative shift would leave the power-series ring")
        e = min(e, self.order + 1)
        return TruncatedSeries(
            self.ring, self.order,
            [self.ring.zero] * e + self.coeffs[: self.order + 1 - e],
        )

    def invert(self) -> "TruncatedSeries":
        try:
            coeffs = invert_list(self.coeffs, self.ring)
        except RingError as exc:
            raise SeriesError(f"constant term is not a unit: {exc}") from exc
        return TruncatedSeries(self.ring, self.order, coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return TruncatedSeries(self.ring, order, self.coeffs[: order + 1])

    def embed(self, ring) -> "TruncatedSeries":
        """Coerce coefficients into another ring (e.g. Z into Z[zeta_3])."""
        return TruncatedSeries(ring, self.order, [ring.coerce(c) for c in self.coeffs])

    # -- dissection ----------------------------------------------------------

    def dissect(self, t: int) -> list["TruncatedSeries"]:
        """Split by q-exponent residue mod t; component j keeps order (N-j)//t."""
        if t < 1:
            raise SeriesError("dissection modulus must be positive")
        out = []
        for j in range(t):
            comp_order = (self.order - j) // t
            if comp_order < 0:
                out.append(TruncatedSeries(self.ring, 0))
                continue
            out.append(TruncatedSeries(
                self.ring, comp_order,
                [self.coeffs[t * i + j] for i in range(comp_order + 1)],
            ))
        return out

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                r = self.ring.render(c)
                terms.append(f"({r})*q^{n}" if n else f"({r})")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"

    def to_json(self) -> str:
        return json.dumps({
            "ring": self.ring.name,
            "order": self.order,
            "coefficients": [self.ring.render(c) for c in self.coeffs],
        })


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _poch_exponents(j: int, k: int, n: int | None, order: int) -> range:
    """Exponents e <= order of the factors (1 - c*q^e) of (c*q^j; q^k)_n."""
    if k < 1:
        raise SeriesError("pochhammer step must be positive")
    if n is None:
        if j < 1:
            raise SeriesError("pochhammer base exponent must be >= 1")
        return range(j, order + 1, k)
    if n < 0:
        raise SeriesError("pochhammer length must be >= 0")
    return range(j, min(order + 1, j + n * k), k)


def poch_quotient(ring, order: int, numer=(), denom=(),
                  start: TruncatedSeries | None = None) -> TruncatedSeries:
    """start * prod(numer) / prod(denom), truncated at q^order.

    A factor (c, j, k, n) stands for (c*q^j; q^k)_n, the product of
    (1 - c*q^{j+ik}) over 0 <= i < n, and n = None for the infinite product.
    c is a ring element or an integer scalar.  Each binomial factor whose
    exponent is at most the order is one O(order) pass -- a multiplication
    for the numerator, a geometric division for the denominator -- so no
    series is ever inverted.  start defaults to 1.
    """
    if start is None:
        out = [ring.zero] * (order + 1)
        out[0] = ring.one
    else:
        if start.ring != ring or start.order != order:
            raise SeriesError("start must have the quotient's ring and order")
        out = list(start.coeffs)
    for factors, apply in ((numer, mul_binomial_list), (denom, div_binomial_list)):
        for c, j, k, n in factors:
            for e in _poch_exponents(j, k, n, order):
                apply(out, c, e)
    return TruncatedSeries(ring, order, out)


def pochhammer_inf(ring, c, j: int, k: int, order: int) -> TruncatedSeries:
    """(c*q^j; q^k)_inf = prod_{i>=0} (1 - c*q^{j+ik}), truncated; j >= 1."""
    return poch_quotient(ring, order, [(c, j, k, None)])


def pochhammer_finite(ring, c, j: int, k: int, n: int, order: int) -> TruncatedSeries:
    """(c*q^j; q^k)_n, a finite product of n factors; j = 0 is allowed."""
    return poch_quotient(ring, order, [(c, j, k, n)])


def geometric(ring, c, e: int, order: int) -> TruncatedSeries:
    """1/(1 - c*q^e)."""
    return poch_quotient(ring, order, denom=[(c, e, 1, 1)])


def summand_walk(ring, state: list, n: int, order: int, step) -> list:
    """Coefficients 0..order of sum_{m>=n} q^{2m} s_m, in one pass.

    state holds s_n to q^{order-2n} and is consumed.  step(m) returns the
    binomial factors (numer, denom), each a list of (c, e), that take s_m to
    s_{m+1} = s_m * prod_numer (1 - c*q^e) / prod_denom (1 - c*q^e).  Each
    step adds the state into the total at q^{2m}, drops the two top
    coefficients that s_{m+1} no longer reaches, and applies its factors,
    one O(order) binomial pass each.
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


def binomials(numer, denom, bound: bool):
    """The factor lists (numer, denom) of a product, or, with bound, those
    of its majorant over Z at z = 1.

    A factor is a tuple whose first entry is the c of (1 - c*q^e); in the
    majorant each numerator factor becomes (1 + |c| q^e) and each
    denominator 1/(1 - |c| q^e).  Since the sum of |coefficients| of a
    Laurent polynomial is subadditive and submultiplicative, and |z| counts
    as 1, the majorant's coefficient of q^n bounds that sum for the
    product's coefficient of q^n -- whether or not its factors cancel.
    """
    if not bound:
        return numer, denom
    return ([(-abs(c), *rest) for c, *rest in numer],
            [(abs(c), *rest) for c, *rest in denom])


def _packing(build, order: int) -> tuple[int, int]:
    """The width B and offset S of a packed run of build: B is one bit more
    than the largest coefficient of its majorant build(ZZ, 1, 1, order,
    True), so the sum of |coefficients| of every Laurent polynomial it
    returns is below 2^(B-1), and S = order//2 + 2."""
    return max(build(ZZ, 1, 1, order, True)).bit_length() + 1, order // 2 + 2


def packed_laurent(build, order: int) -> list:
    """Coefficients 0..order of a series over Z[z,1/z], computed on packed
    integers and read off once.

    build(ring, z, z_inv, order, bound) returns a coefficient list over
    ring; build(ZZ, 1, 1, order, True) must return a majorant, whose
    coefficient of q^n bounds the sum of |coefficients| of the Laurent
    polynomial at q^n.  That fixes the width B, so every coefficient is
    below 2^(B-1) and the balanced digits are exact.  build runs on
    Z[z]/(z^t - 1) with t = 2S + 1 and S = order//2 + 2, which is exact
    whatever exponents an intermediate value reaches, and digit j of a
    result holds the exponents congruent to j - S mod t.  A row inside
    [-(S - 1), S - 1] is read exactly, digit j as the coefficient of
    z^(j - S); a row whose digit 0 or 2S (z^-S or z^S) is nonzero is at
    the edge of that window and raises RingError.
    """
    bits, offset = _packing(build, order)
    ring = PackedResidueRing(bits, 2 * offset + 1, offset)
    rows = []
    for x in build(ring, ring.z, ring.z_inv, order, False):
        digits = ring.digits(x)
        if digits[0] or digits[-1]:
            raise RingError(f"a row reaches z^-{offset} or z^{offset}, the "
                            f"edge of the packed window")
        row = LaurentPolynomial.__new__(LaurentPolynomial)
        row.c = {e: d for e, d in enumerate(digits, -offset) if d}
        rows.append(row)
    return rows


def packed_residues(build, order: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of coefficients 0..order of a series over
    Z[z,1/z]: entry n is ``residue_class_sums`` of the Laurent polynomial
    at q^n.  build is as for ``packed_laurent`` and runs on the same ring,
    ``PackedResidueRing`` with the same width and offset, at modulus t.
    """
    bits, offset = _packing(build, order)
    ring = PackedResidueRing(bits, t, offset)
    return [ring.unpack(x) for x in build(ring, ring.z, ring.z_inv, order, False)]


def _scan_range(order: int, exponent: Callable[[int], int],
                bilateral: bool = True) -> range:
    """Indices n with |n| <= order + 2 (n >= 0 unless bilateral).

    This covers every contributing index only when the exponent map grows at
    least linearly in |n|; a map whose exponent at an end of the range is
    still within the order may have terms beyond it, so the sum is refused.
    """
    hi = order + 2
    for n in ((-hi, hi) if bilateral else (hi,)):
        e = exponent(n)
        if e <= order:
            raise SeriesError(
                f"term n={n} at the end of the scanned range has exponent "
                f"{e} <= order {order}; the sum is not truncated there")
    return range(-hi if bilateral else 0, hi + 1)


def lambert_sum(ring, sign: Callable[[int], int],
                numerator_exponent: Callable[[int], int],
                denominator_exponent: Callable[[int], int],
                order: int) -> TruncatedSeries:
    """Sum of sign(n) * q^{e(n)} / (1 - q^{d(n)}), truncated.

    Terms with d(n) < 0 are first rewritten via
    1/(1 - q^{-m}) = -q^m/(1 - q^m); terms that are still not power series
    after the rewrite are an error, not a guess.
    """
    def rewritten_exponent(n):
        return numerator_exponent(n) - min(denominator_exponent(n), 0)

    acc = TruncatedSeries(ring, order)
    for n in _scan_range(order, rewritten_exponent):
        e = numerator_exponent(n)
        d = denominator_exponent(n)
        sgn = sign(n)
        if d < 0:
            e += -d
            d = -d
            sgn = -sgn
        if e > order:
            continue
        if d == 0:
            raise SeriesError(f"lambert term n={n} divides by the zero series")
        if e < 0:
            raise SeriesError(
                f"lambert term n={n} has negative valuation {e} after rewrite")
        term = geometric(ring, ring.one, d, order).shift(e)
        acc = acc + term if sgn > 0 else acc - term
    return acc
