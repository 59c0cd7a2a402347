"""Exact coefficient rings for the q-series kernel.

Three coefficient domains: plain Python integers, Laurent polynomials in a
single variable z with integer coefficients, and the cyclotomic integers
Z[zeta_3].  The checks read the spt-crank and its companions at a cube
root of unity over Z: each series is unchanged under z <-> 1/z, so its
value at zeta_3 is an integer, walked over Z by the builders of
``sptcrank``.  Z[zeta_3] stays for the naive reference builders, the
only ones that multiply in it, for ``root_value`` of residue-class sums
mod 3, and for the names the benchmark tracer wraps.  The fast series
builders run on one packed ring, Z[z]/(z^t - 1) with one integer per
element; at t wider than a series' z-range its elements are the Laurent
rows themselves.  Everything is exact; no floats anywhere.
"""

from __future__ import annotations

from typing import Mapping


class RingError(ValueError):
    """Mixing incompatible ring elements, or inverting a series whose
    constant term is not 1."""


# ---------------------------------------------------------------------------
# Laurent polynomials in z
# ---------------------------------------------------------------------------

class LaurentPolynomial:
    """Finitely supported map z-exponent -> integer coefficient.

    Canonical form: no stored zero coefficients.  Instances are treated as
    immutable; all operators return new objects.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        if coeffs:
            self.c = {e: v for e, v in coeffs.items() if v}
        else:
            self.c = {}

    @staticmethod
    def monomial(coeff: int, exp: int) -> "LaurentPolynomial":
        return LaurentPolynomial({exp: coeff})

    @staticmethod
    def from_int(n: int) -> "LaurentPolynomial":
        return LaurentPolynomial({0: n})

    def coefficient(self, m: int) -> int:
        return self.c.get(m, 0)

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.c == ({0: other} if other else {})
        if isinstance(other, LaurentPolynomial):
            return self.c == other.c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.from_int(other)
        elif not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out = dict(self.c)
        for e, v in other.c.items():
            s = out.get(e, 0) + v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.c = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial.from_int(other)
        elif not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return LaurentPolynomial()
            r = LaurentPolynomial.__new__(LaurentPolynomial)
            r.c = {e: v * other for e, v in self.c.items()}
            return r
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                s = out.get(e, 0) + v1 * v2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = LaurentPolynomial.__new__(LaurentPolynomial)
        r.c = out
        return r

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        terms = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                terms.append(f"{v}")
            elif e == 1:
                terms.append(f"{v}*z" if v != 1 else "z")
            else:
                terms.append(f"{v}*z^{e}" if v != 1 else f"z^{e}")
        return " + ".join(terms)


# ---------------------------------------------------------------------------
# Cyclotomic integers Z[zeta_3]
# ---------------------------------------------------------------------------

class CyclotomicInteger:
    """a + b*zeta in Z[zeta_3], zeta a primitive cube root of unity, stored
    as the pair coeffs = (a, b).  zeta^2 = -1 - zeta reduces every product
    to that form, and the form is unique, so x == 0 iff a = b = 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, a: int, b: int = 0):
        self.coeffs = (a, b)

    @staticmethod
    def root_power(k: int) -> "CyclotomicInteger":
        """zeta^k, reduced."""
        return (CyclotomicInteger(1), CyclotomicInteger(0, 1),
                CyclotomicInteger(-1, -1))[k % 3]

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == (other, 0)
        if isinstance(other, CyclotomicInteger):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger(other)
        elif not isinstance(other, CyclotomicInteger):
            return NotImplemented
        (a, b), (c, d) = self.coeffs, other.coeffs
        return CyclotomicInteger(a + c, b + d)

    __radd__ = __add__

    def __neg__(self):
        a, b = self.coeffs
        return CyclotomicInteger(-a, -b)

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger(other)
        elif not isinstance(other, CyclotomicInteger):
            return NotImplemented
        (a, b), (c, d) = self.coeffs, other.coeffs
        return CyclotomicInteger(a - c, b - d)

    def __mul__(self, other):
        a, b = self.coeffs
        if isinstance(other, int):
            return CyclotomicInteger(a * other, b * other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        # (a + b zeta)(c + d zeta) = ac + (ad + bc) zeta + bd zeta^2
        c, d = other.coeffs
        return CyclotomicInteger(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CyclotomicInteger{self.coeffs}"


def root_value(sums) -> CyclotomicInteger:
    """The value at z = zeta_3 of a Laurent polynomial whose residue-class
    sums mod 3 are sums = (s_0, s_1, s_2).

    p(zeta) is s_0 + s_1 zeta + s_2 zeta^2, and zeta^2 = -1 - zeta makes it
    (s_0 - s_2) + (s_1 - s_2) zeta (Andrews-Garvan, "Dyson's crank of a
    partition", Bull. AMS 18 (1988)).
    """
    if len(sums) != 3:
        raise RingError(f"need the 3 residue-class sums mod 3, got {len(sums)}")
    s0, s1, s2 = sums
    return CyclotomicInteger(s0 - s2, s1 - s2)


# ---------------------------------------------------------------------------
# Ring tags used by the series engine, one instance each (ZZ, LAURENT,
# CYCLO3), so they compare by identity
# ---------------------------------------------------------------------------

class IntegerRing:
    """Arbitrary-precision integers."""

    zero = 0
    one = 1
    z = z_inv = 1  # the builders' majorants run over Z at z = 1

    def coerce(self, n: int):
        return int(n)

    def render(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "Z"


class LaurentRing:
    """Laurent polynomials in z over Z."""

    zero = LaurentPolynomial()
    one = LaurentPolynomial.from_int(1)
    z = LaurentPolynomial.monomial(1, 1)
    z_inv = LaurentPolynomial.monomial(1, -1)

    def coerce(self, n):
        if isinstance(n, LaurentPolynomial):
            return n
        return LaurentPolynomial.from_int(n)

    def render(self, x) -> str:
        return repr(self.coerce(x))

    def __repr__(self):
        return "Z[z,z^-1]"


class CyclotomicRing:
    """Z[zeta_3]."""

    zero = CyclotomicInteger(0)
    one = CyclotomicInteger(1)
    zeta = CyclotomicInteger.root_power(1)
    zeta_inv = CyclotomicInteger.root_power(2)

    def coerce(self, n):
        """An integer or an element of Z[zeta_3]."""
        if isinstance(n, CyclotomicInteger):
            return n
        return CyclotomicInteger(int(n))

    def render(self, x) -> str:
        return str(self.coerce(x).coeffs)

    def __repr__(self):
        return "Z[zeta_3]"


# ---------------------------------------------------------------------------
# Z[z]/(z^t - 1) packed into integers (Kronecker substitution)
# ---------------------------------------------------------------------------

def _balanced_digits(x: int, b: int, k: int) -> tuple[list[int], int]:
    """The k lowest balanced base-2^b digits of x, lowest first, each in
    [-2^(b-1), 2^(b-1)), and the carry c with x = sum_j d_j 2^(bj) + c 2^(bk);
    b >= 2.  Runs above 24 digits split in halves: O(k log k), not O(k^2)."""
    if not x:
        return [0] * k, 0
    if k > 24:
        h = k // 2
        low, c = _balanced_digits(x & ((1 << b * h) - 1), b, h)
        high, c = _balanced_digits((x >> b * h) + c, b, k - h)
        return low + high, c
    mask, half = (1 << b) - 1, 1 << (b - 1)
    digits = []
    for _ in range(k):
        d = x & mask
        if d >= half:
            d -= 1 << b
        digits.append(d)
        x = (x - d) >> b
    return digits, x


class _ResidueShift:
    """z or 1/z on ``PackedResidueRing``, one subclass each."""

    __slots__ = ("bits", "width", "low", "high", "top")

    def __init__(self, bits: int, t: int):
        self.bits, self.width, self.top = bits, t * bits, (t - 1) * bits
        self.low, self.high = (1 << bits) - 1, (1 << t * bits) - 1


class _ZFold(_ResidueShift):
    """z: a shift left by B bits, the bits above tB folded back once
    |y| >= 2^(tB); a value below that, negative ones too, stays as it is."""

    def __mul__(self, x: int) -> int:
        y = x << self.bits
        if y.bit_length() > self.width:
            return (y & self.high) + (y >> self.width)
        return y


class _ZRotate(_ResidueShift):
    """1/z: a shift right by B bits, the low digit rotated to the top."""

    def __mul__(self, x: int) -> int:
        low = x & self.low
        if low:
            return (x >> self.bits) + (low << self.top)
        return x >> self.bits


class PackedResidueRing:
    """Z[z]/(z^t - 1), each element packed into one integer mod M = 2^(tB) - 1.

    sum_{k<t} s_k z^k is any integer congruent to sum_k s_k 2^(((k+S) mod t)B)
    mod M, for an offset S: Kronecker substitution (Schoenhage 1982;
    D. Harvey, J. Symbolic Comput. 44 (2009)) reduced mod 2^(tB) - 1, the
    cyclic convolution of Schoenhage-Strassen.  Sums, differences and
    integer multiples are plain integer operations, so a packed value is
    exact however large its coefficients grow.  As 2^(tB) = 1 mod M,
    ``z * x`` is y = x << B, with y >> tB added to y & M once
    |y| >= 2^(tB), and ``z_inv * x`` is (x >> B) + (x mod 2^B) 2^((t-1)B).
    While the exponents of a Laurent polynomial p stay in [-S, t - S) and
    its coefficients below 2^(B-1), negative ones too, x is p(2^B) 2^(BS)
    and both are plain shifts by B bits: nothing folds or rotates.

    ``digits`` and ``unpack`` are exact when the caller proves
    |s_k| < 2^(B-1) for every k: the digits (k + S) mod t run over 0..t-1,
    so the packed sum is at most (2^(B-1) - 1)(2^(tB) - 1)/(2^B - 1) < M/2
    in absolute value, the balanced residue mod M is that sum, and its t
    balanced digits are unique.

    Any integer c with c = sum_k m_k 2^(B (k mod t)) acts as the Laurent
    polynomial sum_k m_k z^k: x*c packs that polynomial times the one x
    packs.  The division by D of ``series.div_d_list`` never forms such
    a product: it grows (z^(1-n) + ... + z^(n-1)) x from the value
    for n - 1 by the two shifts z^(n-1) x and z^(1-n) x, folds that sum
    once mod M as it is kept, and folds the sum of a coefficient's terms
    once more.  Only the representative changes, so the widths and the
    proof above hold as they are.

    The offset need not be central.  ``series._packed`` and
    ``series.full_rows``, which build every ring of this kind that the
    CLI reads, put z^0 at K = ``series.numerator_reach(N)``.  A numerator
    X*D has its z-exponents in [-K, K], so on a ring of t > 2K + 1 digits
    its values stay (2K + 1) B bits wide.  A builder divides by D after
    every other pass, so its values are a numerator's until that one
    division fills the t digits; full rows leave the ring as X*D and are
    divided by D row by row, each row at its own width, on plain integers
    (``series._rows_over_d``).
    """

    zero = 0

    def __init__(self, bits: int, t: int, offset: int):
        if bits < 1 or t < 1 or offset < 0:
            raise RingError("packing needs bits >= 1, t >= 1 and offset >= 0")
        self.bits = bits
        self.t = t
        self.start = offset % t
        self.modulus = (1 << (t * bits)) - 1
        self.one = 1 << (bits * self.start)
        self.z = _ZFold(bits, t)
        self.z_inv = _ZRotate(bits, t)

    def digits(self, x: int) -> list[int]:
        """The t balanced base-2^B digits of the balanced residue of x mod
        M, lowest first: digit j holds class (j - S) mod t."""
        m = self.modulus
        x = (x + (m >> 1)) % m - (m >> 1)  # the balanced residue
        digits, carry = _balanced_digits(x, self.bits, self.t)
        if carry:
            raise RingError(f"residue does not decode into {self.t} digits "
                            f"of {self.bits} bits")
        return digits

    def unpack(self, x: int) -> list[int]:
        """The residue-class sums (s_0, ..., s_{t-1}) that x packs."""
        digits = self.digits(x)
        return digits[self.start:] + digits[:self.start]


ZZ = IntegerRing()
LAURENT = LaurentRing()
CYCLO3 = CyclotomicRing()
