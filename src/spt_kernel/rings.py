"""Exact coefficient rings for the q-series kernel.

Three coefficient domains: plain Python integers, Laurent polynomials in a
single variable z with integer coefficients, and cyclotomic integers
Z[zeta_t] for t in {3, 5}.  The fast series builders run on one packed
ring, Z[z]/(z^t - 1) with one integer per element; at t wider than a
series' z-range its elements are the Laurent rows themselves.  Everything
is exact; no floats anywhere.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class RingError(ValueError):
    """Mixing incompatible ring elements, or inverting a non-unit."""


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

    def support(self) -> list[int]:
        return sorted(self.c)

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

    def __rsub__(self, other):
        return (-self) + other

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

    def eval_at_one(self) -> int:
        return sum(self.c.values())

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
# Cyclotomic integers Z[zeta_t], t in {3, 5}
# ---------------------------------------------------------------------------

_SUPPORTED_T = (3, 5)


class CyclotomicInteger:
    """Element of Z[zeta_t] reduced modulo the t-th cyclotomic polynomial.

    Stored as a vector (a_0, ..., a_{t-2}) meaning a_0 + a_1*zeta + ... ;
    reduction uses zeta^{t-1} = -(1 + zeta + ... + zeta^{t-2}).  The
    representation is unique, so x == 0 iff all coordinates vanish.
    """

    __slots__ = ("t", "coeffs")

    def __init__(self, t: int, coeffs: Iterable[int]):
        if t not in _SUPPORTED_T:
            raise RingError(f"unsupported cyclotomic order t={t}")
        coeffs = tuple(coeffs)
        if len(coeffs) != t - 1:
            raise RingError(f"need {t - 1} coordinates for Z[zeta_{t}]")
        self.t = t
        self.coeffs = coeffs

    @staticmethod
    def from_int(t: int, n: int) -> "CyclotomicInteger":
        return CyclotomicInteger(t, (n,) + (0,) * (t - 2))

    @staticmethod
    def root_power(t: int, k: int) -> "CyclotomicInteger":
        """zeta_t^k, reduced."""
        k %= t
        if k < t - 1:
            v = [0] * (t - 1)
            v[k] = 1
            return CyclotomicInteger(t, v)
        return CyclotomicInteger(t, (-1,) * (t - 1))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other: "CyclotomicInteger") -> None:
        if self.t != other.t:
            raise RingError(f"mixed cyclotomic orders {self.t} and {other.t}")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == (other,) + (0,) * (self.t - 2)
        if isinstance(other, CyclotomicInteger):
            return self.t == other.t and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.t, self.coeffs))

    def __add__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.t, other)
        elif not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check(other)
        return CyclotomicInteger(
            self.t, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicInteger(self.t, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CyclotomicInteger.from_int(self.t, other)
        elif not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check(other)
        return CyclotomicInteger(
            self.t, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.t, tuple(a * other for a in self.coeffs))
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        self._check(other)
        t = self.t
        a, b = self.coeffs, other.coeffs
        # generic small convolution, fold with zeta^t = 1, then kill zeta^{t-1}
        conv = [0] * (2 * t - 3)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        folded = [0] * t
        for e, v in enumerate(conv):
            folded[e % t] += v
        top = folded[t - 1]
        return CyclotomicInteger(t, tuple(folded[i] - top for i in range(t - 1)))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self.t}, {self.coeffs})"


def eval_at_root(p: LaurentPolynomial, t: int) -> CyclotomicInteger:
    """Substitute z = zeta_t into a Laurent polynomial, t in {3, 5}."""
    return root_value(residue_class_sums(p, t), t)


def root_value(sums, t: int) -> CyclotomicInteger:
    """The value at z = zeta_t, t in {3, 5}, of a Laurent polynomial whose
    residue-class sums mod t are sums = (s_0, ..., s_{t-1}).

    p(zeta) is sum_k s_k zeta^k, and zeta^{t-1} = -(1 + ... + zeta^{t-2})
    makes the coordinate of zeta^k equal to s_k - s_{t-1} (Andrews-Garvan,
    "Dyson's crank of a partition", Bull. AMS 18 (1988)).
    """
    if t not in _SUPPORTED_T:
        raise RingError(f"unsupported cyclotomic order t={t}")
    if len(sums) != t:
        raise RingError(f"need {t} residue-class sums for Z[zeta_{t}]")
    return CyclotomicInteger(t, tuple(sums[k] - sums[t - 1] for k in range(t - 1)))


def residue_class_sums(p: LaurentPolynomial, t: int) -> list[int]:
    """Entry k is the sum of coefficients on exponents congruent to k mod t."""
    if t < 1:
        raise RingError("modulus t must be positive")
    out = [0] * t
    for e, v in p.c.items():
        out[e % t] += v
    return out


# ---------------------------------------------------------------------------
# Ring tags used by the series engine
# ---------------------------------------------------------------------------

class IntegerRing:
    """Arbitrary-precision integers."""

    zero = 0
    one = 1
    name = "Z"

    def coerce(self, n: int):
        return int(n)

    def unit_inverse(self, x):
        if x == 1:
            return 1
        if x == -1:
            return -1
        raise RingError(f"{x!r} is not a unit in Z")

    def render(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")

    def __repr__(self):
        return "Z"


class LaurentRing:
    """Laurent polynomials in z over Z."""

    zero = LaurentPolynomial()
    one = LaurentPolynomial.from_int(1)
    z = LaurentPolynomial.monomial(1, 1)
    z_inv = LaurentPolynomial.monomial(1, -1)
    name = "Z[z,z^-1]"

    def coerce(self, n):
        if isinstance(n, LaurentPolynomial):
            return n
        return LaurentPolynomial.from_int(n)

    def unit_inverse(self, x):
        x = self.coerce(x)
        if len(x.c) == 1:
            (e, v), = x.c.items()
            if v in (1, -1):
                return LaurentPolynomial.monomial(v, -e)
        raise RingError(f"{x!r} is not a unit in Z[z,z^-1]")

    def render(self, x) -> str:
        return repr(self.coerce(x))

    def __eq__(self, other):
        return isinstance(other, LaurentRing)

    def __hash__(self):
        return hash("Laurent")

    def __repr__(self):
        return "Z[z,z^-1]"


class CyclotomicRing:
    """Z[zeta_t] for t in {3, 5}."""

    def __init__(self, t: int):
        if t not in _SUPPORTED_T:
            raise RingError(f"unsupported cyclotomic order t={t}")
        self.t = t
        self.zero = CyclotomicInteger.from_int(t, 0)
        self.one = CyclotomicInteger.from_int(t, 1)
        self.zeta = CyclotomicInteger.root_power(t, 1)
        self.zeta_inv = CyclotomicInteger.root_power(t, t - 1)
        self.name = f"Z[zeta_{t}]"

    def coerce(self, n):
        """An integer, an element of Z[zeta_t], or a Laurent polynomial
        evaluated at z = zeta_t."""
        if isinstance(n, CyclotomicInteger):
            if n.t != self.t:
                raise RingError(f"mixed cyclotomic orders {n.t} and {self.t}")
            return n
        if isinstance(n, LaurentPolynomial):
            return eval_at_root(n, self.t)
        return CyclotomicInteger.from_int(self.t, n)

    def unit_inverse(self, x):
        x = self.coerce(x)
        for k in range(self.t):
            for s in (1, -1):
                cand = CyclotomicInteger.root_power(self.t, k) * s
                if x * cand == self.one:
                    return cand
        raise RingError(f"{x!r} has no unit inverse in {self.name}")

    def render(self, x) -> str:
        return str(tuple(self.coerce(x).coeffs))

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and other.t == self.t

    def __hash__(self):
        return hash(("cyclo", self.t))

    def __repr__(self):
        return self.name


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
CYCLO3 = CyclotomicRing(3)
CYCLO5 = CyclotomicRing(5)
