"""Exact coefficient rings for the q-series kernel.

Three coefficient domains: plain Python integers, Laurent polynomials in a
single variable z with integer coefficients, and the cyclotomic integers
Z[zeta_3].  The checks read the spt-crank and its companions at a cube
root of unity over Z: each series is unchanged under z <-> 1/z, so its
value at zeta_3 is an integer, walked over Z by the builders of
``sptcrank``.  Z[zeta_3] stays for the naive reference builders, the
only ones that multiply in it, for ``root_value`` of residue-class sums
mod 3, and for the names the benchmark tracer wraps.  The fast series
builders run on Z[w], w = z + 1/z, packed with one integer per element:
the numerators X*D, unchanged under z <-> 1/z, that the checks compare
and that every Laurent row and residue sum is read off.  SB's
residue-class sums mod t are read on a second packed ring,
Z[z]/(z^t - 1), into which SB*D's finished rows are carried.
Everything is exact; no floats anywhere.
"""

from __future__ import annotations

import sys
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

# 2^63 in one little-endian 64-bit word; H, 2^63 in each of k words, is
# int.from_bytes(_HALF_WORD * k, "little"), built per call.  The cast of
# ``_balanced_digits`` reads native words, so a big-endian host keeps the
# digit loop at every width.
_HALF_WORD = bytes(7) + b"\x80"
_WORDS = sys.byteorder == "little"


def _balanced_digits(x: int, b: int, k: int) -> tuple[list[int], int]:
    """The k lowest balanced base-2^b digits of x, lowest first, each in
    [-2^(b-1), 2^(b-1)), and the carry c with x = sum_j d_j 2^(bj) + c 2^(bk);
    b >= 2.

    At b = 64 no digit is taken in Python.  With H = sum_j 2^63 2^(64j),
    x + H = sum_j (d_j + 2^63) 2^(64j) + c 2^(64k), each d_j + 2^63 in
    [0, 2^64), so c = (x + H) >> 64k, and d_j + 2^63 XOR 2^63 is d_j as a
    signed 64-bit word: one ``to_bytes`` of the low 64k bits of
    (x + H) ^ H, read through a ``memoryview`` cast to "q", is every
    digit.  Any other width takes the digits one at a time, and runs
    above 24 digits split in halves: O(k log k), not O(k^2)."""
    if not x:
        return [0] * k, 0
    if b == 64 and _WORDS:
        half = int.from_bytes(_HALF_WORD * k, "little")
        y = x + half
        carry = y >> 64 * k
        if carry:
            y -= carry << 64 * k
        words = (y ^ half).to_bytes(8 * k, "little")
        return memoryview(words).cast("q").tolist(), carry
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

    The division by D of ``series.div_d_list`` grows
    (z^(1-n) + ... + z^(n-1)) x from the value for n - 1 by the two
    shifts z^(n-1) x and z^(1-n) x, and folds sums once mod M as it keeps
    them: only the representative changes, so the proof above holds.

    The offset need not be central.  ``series.numerator_residues``, the
    one reader into this ring, for SB's residue sums, puts z^0 at K =
    ``series.numerator_reach(N)``, the z-reach of a numerator X*D, whose
    rows it carries in from Z[w] by w -> z + 1/z, a ring map, and divides
    by D once.  No walk runs on this ring; Laurent rows are read off
    numerators in Z[w] (``series.numerator_rows``).
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


# ---------------------------------------------------------------------------
# Z[w], w = z + 1/z, packed into integers
# ---------------------------------------------------------------------------

class PackedSymmetricRing:
    """Z[w], w = z + 1/z, each element packed into one plain integer.

    The Laurent polynomials unchanged under z <-> 1/z are the polynomials
    in w, and one of z-reach k has w-degree k, as z^k + z^-k is
    w (z^(k-1) + z^(1-k)) - (z^(k-2) + z^(2-k)).  sum_k d_k w^k is packed
    as sum_k d_k 2^(kB): Kronecker substitution w -> 2^B (see
    ``PackedResidueRing``), a ring map Z[w] -> Z, so sums, differences and
    integer multiples are plain integer operations, and w*x is x << B,
    with no offset, modulus, fold or rotation, since a polynomial in w
    has no negative powers.

    The pair (1 - z q^e)(1 - q^e/z) = 1 - w q^e + q^{2e} and
    u = (1 - z)(1 - 1/z) = 2 - w are in Z[w]; z and 1/z alone are not.
    ``z`` and ``z_inv`` are bare objects, names that
    ``series.summand_walk`` pairs at one exponent: a product with either
    alone raises ``TypeError``.

    ``window`` is exact when the caller proves |d_k| < 2^(B-1) for every
    k: the k balanced base-2^B digits of an integer, each in
    [-2^(B-1), 2^(B-1)), are unique when they exist.  The rows leave the
    ring as z-rows by Horner in w (``series.numerator_rows``), or as
    residue sums mod t by w -> z + 1/z (``series.numerator_residues``).
    """

    zero = 0
    one = 1

    def __init__(self, bits: int):
        if bits < 2:
            raise RingError("packing in w needs bits >= 2")
        self.bits = bits
        self.z, self.z_inv = object(), object()

    def window(self, k: int) -> tuple[int, int]:
        """The least and the greatest integer with k balanced digits and
        no carry: an element packs a polynomial of w-degree below k
        exactly when it lies between the two."""
        span = ((1 << k * self.bits) - 1) // ((1 << self.bits) - 1)
        half = 1 << (self.bits - 1)
        return -half * span, (half - 1) * span


ZZ = IntegerRing()
LAURENT = LaurentRing()
CYCLO3 = CyclotomicRing()
