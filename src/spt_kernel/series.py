"""Truncated formal power series in q over a pluggable coefficient ring.

A series carries its ring tag and truncation order N; coefficients beyond N
are undefined, never silently zero.  Binary operations require matching ring
and order -- a mismatch while checking an identity is a bug, not data.
"""

from __future__ import annotations

from itertools import accumulate
from math import isqrt
from operator import add, neg, sub
from typing import Sequence

from .rings import (
    LaurentPolynomial,
    PackedResidueRing,
    PackedSymmetricRing,
    RingError,
    _balanced_digits,
)


class SeriesError(ValueError):
    """Order/ring mismatch or an operation leaving the power-series ring."""


class WindowError(RingError):
    """The refusal of row n of a packed read, which reaches z^-reach or
    z^reach, the edge of its window: in w, a row of w-degree reach or more
    (``symmetric_numerator``, ``numerator_rows``), or in z, a row of X
    divided by D (``_rows_over_d``)."""

    def __init__(self, n: int, reach: int):
        super().__init__(f"row {n} reaches z^-{reach} or z^{reach}, the "
                         f"edge of the packed window")
        self.n = n
        self.reach = reach


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


def _times(c, xs: list) -> list:
    """c*x for each x of xs: xs itself for c = 1."""
    if c == 1:
        return xs
    return [c * x for x in xs]


# Coefficients per slice operation of the kernels below.  Each slice makes
# its new values before it frees the old ones, so a bounded slice keeps the
# extra memory of a pass on wide packed values small and reuses it.
_CHUNK = 64


def mul_binomial_list(a, c, e):
    """In place: a *= (1 - c*q^e), from the top down in slices of at most
    ``_CHUNK`` coefficients, each one shifted slice subtraction (an
    addition for c = -1)."""
    op = sub
    if c == -1:
        op, c = add, 1
    for hi in range(len(a), e, -_CHUNK):
        lo = max(hi - _CHUNK, e)
        a[lo:hi] = map(op, a[lo:hi], _times(c, a[lo - e:hi - e]))


def div_binomial_list(a, c, e):
    """In place: a *= 1/(1 - c*q^e) (geometric recurrence), in one of two
    forms.

    For c the plain integer 1 or -1 with e^2 < len(a), each residue class
    mod e, a[r], a[r + e], ..., is replaced by its running sums, one
    ``accumulate`` per class (e classes of more than e coefficients each).
    For c = -1 the recurrence b_k = a_k - b_{k-1} is the same running sum
    on the class with every other sign flipped, so the signs are flipped
    before and after it.

    Otherwise, from the bottom up in slices of at most min(e, ``_CHUNK``)
    coefficients, each one slice addition of c times the slice e below it,
    which is final; that form makes about len(a)/e slice operations, few
    when e is large and one per coefficient at e = 1."""
    if e <= 0:
        raise SeriesError("geometric division needs a positive q-exponent")
    if type(c) is int and c in (1, -1) and e * e < len(a):
        for r in range(e):
            if c == 1:
                a[r::e] = accumulate(a[r::e])
                continue
            run = a[r::e]
            run[1::2] = map(neg, run[1::2])
            run = list(accumulate(run))
            run[1::2] = map(neg, run[1::2])
            a[r::e] = run
        return
    op = add
    if c == -1:
        op, c = sub, 1
    step = min(e, _CHUNK)
    for i in range(e, len(a), step):
        a[i:i + step] = map(op, a[i:i + step],
                            _times(c, a[i - e:i - e + step]))


def mul_w_pair_list(a, ring, e):
    """In place: a *= (1 - z q^e)(1 - q^e/z) = 1 - w q^e + q^{2e} on
    ``PackedSymmetricRing``: a_i - (a_{i-e} << B) + a_{i-2e}, from the top
    down in slices of at most ``_CHUNK`` coefficients, with no fold and no
    rotation."""
    bits = ring.bits
    for hi in range(len(a), e, -_CHUNK):
        lo = max(hi - _CHUNK, e)
        new = [x - (y << bits) for x, y in zip(a[lo:hi], a[lo - e:hi - e])]
        cut = max(2 * e - lo, 0)
        if cut < hi - lo:
            new[cut:] = map(add, new[cut:], a[lo + cut - 2 * e:hi - 2 * e])
        a[lo:hi] = new


def div_w_pair_list(a, ring, e):
    """In place: a /= 1 - w q^e + q^{2e} on ``PackedSymmetricRing``, e >= 1,
    by the recurrence b_i = a_i + (b_{i-e} << B) - b_{i-2e}, from the
    bottom up in slices of at most min(e, ``_CHUNK``) coefficients, each
    final once written.  Z[w] -> Z is a ring map, so b packs the quotient
    whatever its intermediate values."""
    if e <= 0:
        raise SeriesError("geometric division needs a positive q-exponent")
    bits = ring.bits
    step = min(e, _CHUNK)
    for lo in range(e, len(a), step):
        hi = min(lo + step, len(a))
        new = [x + (y << bits) for x, y in zip(a[lo:hi], a[lo - e:hi - e])]
        cut = max(2 * e - lo, 0)
        if cut < hi - lo:
            new[cut:] = map(sub, new[cut:], a[lo + cut - 2 * e:hi - 2 * e])
        a[lo:hi] = new


def _pentagonal(k: int, order: int) -> list:
    """The terms (e, s) of (q^k; q^k)_inf = 1 + sum s q^e with
    0 < e <= order, by increasing e.  Euler's pentagonal number theorem:
    (q; q)_inf = sum_m (-1)^m q^{m(3m-1)/2} over all integers m, so the
    exponents are k m(3m -+ 1)/2 for m >= 1, each with sign (-1)^m."""
    terms = []
    m = 1
    while k * m * (3 * m - 1) // 2 <= order:
        s = -1 if m % 2 else 1
        for e in (k * m * (3 * m - 1) // 2, k * m * (3 * m + 1) // 2):
            if e <= order:
                terms.append((e, s))
        m += 1
    return terms


def mul_eta_list(a, k: int):
    """In place: a *= (q^k; q^k)_inf, from the top down in slices of at
    most ``_CHUNK`` coefficients: each slice adds or subtracts the slice
    e_g below it, still unchanged, for each pentagonal term s_g q^{e_g}."""
    terms = _pentagonal(k, len(a) - 1)
    for hi in range(len(a), 0, -_CHUNK):
        lo = max(hi - _CHUNK, 0)
        acc = a[lo:hi]
        for e, s in terms:
            if e >= hi:
                break
            i = max(lo, e)
            acc[i - lo:] = map(add if s > 0 else sub, acc[i - lo:],
                               a[i - e:hi - e])
        a[lo:hi] = acc


def div_eta_list(a, k: int):
    """In place: a /= (q^k; q^k)_inf over its pentagonal terms
    (``div_sparse_list``)."""
    div_sparse_list(a, _pentagonal(k, len(a) - 1))


def div_sparse_list(a, terms):
    """In place: a /= 1 + sum s_g q^{e_g} over terms (e_g, s_g), s_g = 1
    or -1 and 0 < e_g < len(a), by increasing e_g, by the recurrence
    b[i] = a[i] - sum_g s_g b[i - e_g] over the terms with e_g <= i."""
    plus, minus = [], []
    t = 0
    for i in range(terms[0][0] if terms else len(a), len(a)):
        while t < len(terms) and terms[t][0] <= i:
            e, s = terms[t]
            (plus if s > 0 else minus).append(e)
            t += 1
        x = a[i]
        for e in minus:
            x = x + a[i - e]
        for e in plus:
            x = x - a[i - e]
        a[i] = x


def _theta_terms(order: int) -> list:
    """The terms (e, s, n) of E(z, q) = 1 + sum s chi_{2n-1}(z) q^e with
    0 < e <= order, by increasing e: e = n(n - 1) and s = (-1)^(n+1) for
    n >= 2, where chi_{2n-1}(z) = z^(1-n) + ... + z^(n-1).  Jacobi's
    triple product in base q^2 (Andrews, The Theory of Partitions,
    Thm 2.8), with n paired with 1 - n and divided by (1 - z), gives
    E = (z q^2, q^2/z; q^2)_inf (q^2; q^2)_inf."""
    terms = []
    n = 2
    while n * (n - 1) <= order:
        terms.append((n * (n - 1), 1 if n % 2 else -1, n))
        n += 1
    return terms


def div_d_at_zeta3(a) -> list:
    """In place: a /= D(zeta_3, q), D = (z q^2, q^2/z; q^2)_inf, over Z;
    returns a itself.  D = E / (q^2; q^2)_inf (``_theta_terms``), so a is
    multiplied by (q^2; q^2)_inf and divided by E(zeta_3, q)
    (``div_sparse_list``): chi_{2n-1}(zeta_3) is 1, 0 or -1 for
    2n - 1 = 1, 0 or 2 mod 3, the sum of 2n - 1 consecutive powers of
    zeta_3, so the terms of E there are sparse and all 1 or -1.  (As
    (zeta_3 q^2, q^2/zeta_3; q^2)_inf = (q^6; q^6)_inf / (q^2; q^2)_inf,
    E(zeta_3, q) is (q^6; q^6)_inf; the terms are read off the triple
    product all the same, so that the checks' right sides, eta quotients,
    stay independent of it.)"""
    mul_eta_list(a, 2)
    div_sparse_list(a, [(e, s if n % 3 == 1 else -s)
                        for e, s, n in _theta_terms(len(a) - 1)
                        if n % 3 != 2])
    return a


def _fold(x: int, width: int, mask: int) -> int:
    """x mod mask = 2^width - 1 as a value below 2^width in absolute value:
    the bits above width are added back to the low ones (2^width = 1 mod
    mask) until none are left, for negative x too."""
    while x.bit_length() > width:
        x = (x & mask) + (x >> width)
    return x


def theta_list(ring, order: int) -> list:
    """Coefficients 0..order of E on ``PackedSymmetricRing``
    (``_theta_terms``), written directly: s*chi_{2n-1} at q^{n(n-1)},
    chi_{2n-1} grown from chi_{2n-3} by V_{n-1} = z^(n-1) + z^(1-n), with
    V_m = w V_{m-1} - V_{m-2}, V_0 = 2 and V_1 = w, one shift each; no
    multiplication of series."""
    bits = ring.bits
    out = [0] * (order + 1)
    out[0] = chi = 1
    v, prev = 1 << bits, 2
    for e, s, _ in _theta_terms(order):
        chi = chi + v
        out[e] = s * chi
        v, prev = (v << bits) - prev, v
    return out


def div_theta_list(a, ring):
    """In place: a /= E on the packed ring, from the bottom up, by the
    recurrence b[i] = a[i] - sum s*chi_{2n-1}*b[i - n(n-1)] over the terms
    of ``_theta_terms`` with n(n-1) <= i, with no multiplication of
    values: chi[j] holds chi_{2n-1}*b[j] for the last term n that b[j]
    met, and the next term n + 1 (at i = j + n(n+1)) extends it to
    chi_{2n+1}*b[j] by z^n*b[j] + z^(-n)*b[j], two shifts whose sum with
    chi[j] is folded once modulo 2^(tB) - 1 as it is stored, which keeps
    chi[j] about t*B bits wide.  A term application costs O(t*B) bit
    operations whatever t is; b[j] joins chi once it is final, and chi[j]
    is dropped once its next term would be past the top.  Every b[i],
    i >= 2, is below 2^(tB) in absolute value."""
    bits, t, top = ring.bits, ring.t, len(a) - 1
    width, mask = t * bits, ring.modulus
    # term n meets b[j] at i = j + n(n-1), and term n + 1 at i + 2n
    terms = [(e, s, bits * ((n - 1) % t), bits * ((1 - n) % t), top - 2 * n)
             for e, s, n in _theta_terms(top)]
    chi = a[:2]
    live = 0
    for i in range(2, len(a)):
        if live < len(terms) and terms[live][0] <= i:
            live += 1
        plus = minus = 0
        for e, s, up, down, last in terms[:live]:
            j = i - e
            x = a[j]
            c = chi[j] + (x << up) + (x << down)
            c = (c & mask) + (c >> width)
            chi[j] = c if i <= last else None
            if s > 0:
                plus += c
            else:
                minus += c
        a[i] = _fold(a[i] - plus + minus, width, mask)
        chi.append(a[i])


def invert_list(a, ring):
    """The coefficients of 1/a, by b[m] = -sum_{k=1..m} a[k] b[m - k]; a
    constant term other than ``ring.one`` is refused with ``RingError``."""
    if a[0] != ring.one:
        raise RingError(f"constant term {a[0]!r} is not 1")
    n = len(a)
    b = [ring.zero] * n
    b[0] = ring.one
    for m in range(1, n):
        s = ring.zero
        for k in range(1, m + 1):
            ak = a[k]
            if ak:
                bk = b[m - k]
                if bk:
                    s = s + ak * bk
        if s:
            b[m] = -s
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
            raise SeriesError(f"cannot invert: {exc}") from exc
        return TruncatedSeries(self.ring, self.order, coeffs)

    def embed(self, ring) -> "TruncatedSeries":
        """Coerce coefficients into another ring (e.g. Z into Z[zeta_3])."""
        return TruncatedSeries(ring, self.order, [ring.coerce(c) for c in self.coeffs])

    # -- dissection ----------------------------------------------------------

    def dissect(self, t: int) -> list["TruncatedSeries"]:
        """Split by q-exponent residue mod t; component j keeps order (N-j)//t.
        A modulus t > N + 1 is refused: component N + 1 would hold no
        tracked coefficient."""
        if t < 1:
            raise SeriesError("dissection modulus must be positive")
        if t > self.order + 1:
            raise SeriesError(f"dissection modulus {t} exceeds order "
                              f"{self.order} + 1")
        return [TruncatedSeries(self.ring, (self.order - j) // t,
                                self.coeffs[j::t])
                for j in range(t)]

    # -- rendering -----------------------------------------------------------

    def __repr__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                r = self.ring.render(c)
                terms.append(f"({r})*q^{n}" if n else f"({r})")
        body = " + ".join(terms) if terms else "0"
        return f"{body} + O(q^{self.order + 1})"


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


def _eta_form(c, j: int, k: int):
    """(c*q^j; q^k)_inf for c the plain integer 1 or -1 as (powers,
    finite): powers maps m to the exponent of (q^m; q^m)_inf, and finite
    lists (side, factor), the finite factor (1, j', k', n') multiplying for
    side 1 and dividing for side -1.  None for any other c, or unless these
    identities give it:

        (q^j; q^k)_inf = (q^k; q^k)_inf / (q^k; q^k)_{j/k - 1}  if k | j;
        (q^j; q^k)_inf = (q^r; q^r)_inf
                         / ((q^k; q^k)_inf (q^r; q^k)_{(j-r)/k})
                                                  if k = 2r, j = r mod k;
        (-q^j; q^k)_inf = (q^{2j}; q^{2k})_inf / (q^j; q^k)_inf.
    """
    if type(c) is not int or c not in (1, -1):
        return None
    if c == -1:
        num, den = _eta_form(1, 2 * j, 2 * k), _eta_form(1, j, k)
        if num is None or den is None:
            return None
        powers = dict(num[0])
        for m, a in den[0].items():
            powers[m] = powers.get(m, 0) - a
        return powers, num[1] + [(-side, f) for side, f in den[1]]
    if j % k == 0:
        return {k: 1}, [(-1, (1, k, k, j // k - 1))]
    r = k // 2
    if k % 2 == 0 and j % k == r:
        return {r: 1, k: -1}, [(-1, (1, r, k, (j - r) // k))]
    return None


def apply_factors(a: list, numer=(), denom=()) -> list:
    """In place: a * prod(numer) / prod(denom), truncated at
    q^(len(a) - 1); returns a itself.

    A factor (c, j, k, n) stands for (c*q^j; q^k)_n, the product of
    (1 - c*q^{j+ik}) over 0 <= i < n, and n = None for the infinite product.
    c is a ring element or an integer scalar.  An infinite factor with c
    the integer 1 or -1 is rewritten by ``_eta_form`` into powers of
    (q^m; q^m)_inf and finite factors; the powers are summed over all
    factors, and each (q^m; q^m)_inf left is one sparse pass over its
    pentagonal terms (``mul_eta_list``, ``div_eta_list``).  Every other
    binomial factor whose exponent is at most the order is one O(order)
    pass -- a multiplication for the numerator, a geometric division for
    the denominator -- so no series is ever inverted.  D's factors
    (``d_factors``) are binomial passes here like any others; ``d_list``
    writes D through E in Z[w], and ``div_d_list`` divides by it through
    E on ``PackedResidueRing``.
    """
    order = len(a) - 1
    # every factor is validated before any is rewritten or applied
    factors = [(side, f, _poch_exponents(*f[1:], order))
               for side, fs in ((1, numer), (-1, denom)) for f in fs]
    etas: dict[int, int] = {}
    passes = []  # (side, c, exponents): side 1 multiplies, -1 divides
    for side, (c, j, k, n), exps in factors:
        form = None if n is not None else _eta_form(c, j, k)
        if form is None:
            passes.append((side, c, exps))
            continue
        powers, finite = form
        for m, p in powers.items():
            etas[m] = etas.get(m, 0) + side * p
        for s, (c1, j1, k1, n1) in finite:
            passes.append((side * s, c1, _poch_exponents(j1, k1, n1, order)))
    for m, p in sorted(etas.items()):
        for _ in range(abs(p)):
            (mul_eta_list if p > 0 else div_eta_list)(a, m)
    for side, c, exps in passes:
        apply = mul_binomial_list if side > 0 else div_binomial_list
        for e in exps:
            apply(a, c, e)
    return a


def poch_quotient(ring, order: int, numer=(), denom=(),
                  start: TruncatedSeries | None = None) -> TruncatedSeries:
    """start * prod(numer) / prod(denom), truncated at q^order, with the
    factors of ``apply_factors``; start defaults to 1.  ``apply_factors``
    works on a copy of start's coefficients, so start is unchanged."""
    if start is None:
        a = [ring.zero] * (order + 1)
        a[0] = ring.one
    elif start.ring != ring or start.order != order:
        raise SeriesError("start must have the quotient's ring and order")
    else:
        a = list(start.coeffs)
    return TruncatedSeries(ring, order, apply_factors(a, numer, denom))


def pochhammer_inf(ring, c, j: int, k: int, order: int) -> TruncatedSeries:
    """(c*q^j; q^k)_inf = prod_{i>=0} (1 - c*q^{j+ik}), truncated; j >= 1."""
    return poch_quotient(ring, order, [(c, j, k, None)])


def pochhammer_finite(ring, c, j: int, k: int, n: int, order: int) -> TruncatedSeries:
    """(c*q^j; q^k)_n, a finite product of n factors; j = 0 is allowed."""
    return poch_quotient(ring, order, [(c, j, k, n)])


def summand_walk(ring, first, order: int, step) -> list:
    """Coefficients 0..order of S = sum_{n>=1} q^{2n} s_n, in Horner form.

    first is the pair (numer, denom) of ``apply_factors`` factors of s_1.
    step(n) returns the binomial factors (numer, denom), each a list of
    (c, e), of the ratio r_n = s_{n+1}/s_n = prod_numer (1 - c*q^e) /
    prod_denom (1 - c*q^e).  S = q^2 s_1 T_1 with T_n = 1 + q^2 r_n T_{n+1}:
    n runs from order//2 - 1 down to 1, each step applies r_n to T_{n+1},
    held to q^{order-2n-2}, one O(order) binomial pass per factor, and puts
    [1, 0] in front.  s_1 is applied once, to T_1, by ``apply_factors``
    on the walk's own list; a caller whose s_1 has D in its denominator
    leaves D out of first: its walk is the numerator X*D.
    No summand is added into a total, and no series is wrapped.

    On ``PackedSymmetricRing``, where z and 1/z exist only as the pair,
    a numerator that holds the ring's own z and 1/z at one exponent e,
    matched by identity, applies the two as one pass
    (``mul_w_pair_list``).  On every other ring z and 1/z are binomial
    passes like any others.
    """
    if order < 2:
        return [ring.zero] * (order + 1)
    pair = type(ring) is PackedSymmetricRing
    tail = [ring.one] + [ring.zero] * (order % 2)
    for n in range(order // 2 - 1, 0, -1):
        numer, denom = step(n)
        if pair:
            numer = list(numer)
            for e in [e for c, e in numer if c is ring.z]:
                if (ring.z_inv, e) in numer:
                    numer.remove((ring.z, e))
                    numer.remove((ring.z_inv, e))
                    mul_w_pair_list(tail, ring, e)
        for c, e in numer:
            mul_binomial_list(tail, c, e)
        for c, e in denom:
            div_binomial_list(tail, c, e)
        tail[:0] = [ring.one, ring.zero]
    return [ring.zero] * 2 + apply_factors(tail, *first)


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


def d_factors(ring) -> list:
    """D = (z q^2, q^2/z; q^2)_inf as ``apply_factors`` factors, with the
    ring's own z and 1/z (both 1 over Z): D's binomial passes, on Z, the
    dict rings and ``PackedResidueRing`` (where ``d_list`` writes D out
    for rank*D's z read in the tests) and, through ``binomials``, the
    majorants.  D is the denominator of SB and of the rank and crank
    series; D = 1 mod q, so it is a unit and X = Y to q^N exactly when
    X*D = Y*D to q^N, with the same first differing q^n."""
    return [(ring.z, 2, 2, None), (ring.z_inv, 2, 2, None)]


def d_list(ring, order: int, bound: bool = False) -> list:
    """Coefficients 0..order of D, z the ring's own; with bound, over Z,
    its majorant (-q^2; q^2)_inf^2 (``binomials``).  On
    ``PackedSymmetricRing``, where rank*D starts from it,
    E = D (q^2; q^2)_inf is written out (``theta_list``) and divided by
    (q^2; q^2)_inf; on any other ring D's factors are applied to 1
    (``d_factors``)."""
    if type(ring) is PackedSymmetricRing:
        a = theta_list(ring, order)
        div_eta_list(a, 2)
        return a
    return apply_factors([ring.one] + [ring.zero] * order,
                         *binomials(d_factors(ring), (), bound))


def div_d_list(a, ring) -> list:
    """In place: a /= D on ``PackedResidueRing``; returns a itself.

    Through Jacobi's triple product, D = E / (q^2; q^2)_inf: a division
    by E (``div_theta_list``), then a multiplication by (q^2; q^2)_inf.
    Its ~(2/3) N^{3/2} term applications each cost O(t*B) bit operations,
    at any t, where D's ~N binomial passes make ~N^2/2 coefficient updates
    of that cost."""
    div_theta_list(a, ring)
    mul_eta_list(a, 2)
    return a


def numerator_reach(order: int) -> int:
    """K = isqrt(order) + 2, the z-reach of a numerator X*D to q^order.

    In (z q^2; q^2)_m the power z^k needs q^{k(k+1)}, and in (z; q^2)_m,
    or with a factor (1 - z) in front, it needs q^{k(k-1)}; the same holds
    for 1/z.  Every numerator is a sum of such products times z-free
    series (each builder's docstring says which), so a power z^k at
    q^i <= q^order has k(k - 1) <= order, hence |k| <= isqrt(order) + 1
    = K - 1: the rows lie strictly inside the window [-K, K].  A row
    unchanged under z <-> 1/z has a w-degree equal to its z-reach, so
    in w the window is the degree: ``symmetric_numerator`` refuses a row
    of w-degree K or more, which needs more than K digits.
    """
    return isqrt(order) + 2


def _laurent(digits: list, offset: int) -> LaurentPolynomial:
    """The Laurent polynomial whose coefficient of z^(k - offset) is
    digits[k]."""
    row = LaurentPolynomial.__new__(LaurentPolynomial)
    row.c = {k - offset: v for k, v in enumerate(digits) if v}
    return row


def symmetric_numerator(build, order: int, bits: int) -> list[int]:
    """Rows 0..order of a numerator X*D, D = (z q^2, q^2/z; q^2)_inf, in
    Z[w], w = z + 1/z: build(ring, order) on ``PackedSymmetricRing(bits)``,
    row n the plain integer p_n(2^bits).

    build returns the coefficient list of X*D over its ring, with the
    ring's own z and 1/z, and X and D are unchanged under z <-> 1/z, so
    every row is a polynomial in w.  The caller proves every w-coefficient
    below 2^(bits-1) in absolute value (``sptcrank.numerator_width``,
    ``sptcrank.sb_rows``).  Row n has z-reach, and so w-degree, at most
    K - 1, K = ``numerator_reach(order)``; a row that needs w^K or a
    higher power raises ``WindowError(n, K)``, as a z-row at z^-K or z^K.
    """
    ring = PackedSymmetricRing(bits)
    values = build(ring, order)
    reach = numerator_reach(order)
    lo, hi = ring.window(reach)
    for n, x in enumerate(values):
        if not lo <= x <= hi:
            raise WindowError(n, reach)
    return values


def _rows_over_d(values: list, bits: int, base: int, reach: int):
    """Rows 0..N of X = A/D, N = len(values) - 1, one at a time, from the
    plain integers values[i] = A_i(2^B) 2^(B*base) of the rows of its
    numerator A = X*D, which it consumes; B bounds X: every coefficient
    of X is below 2^(B-1) in absolute value.

    Row i is yielded as (digits, o) as soon as it is final: digits[k] is
    the coefficient of z^(k - o), k = 0..2o, with o = r + 1 and r =
    max(i//2 + 1, K), K = reach.  Its window is [-r, r]: a row with a
    nonzero digit at z^-o or z^o, or beyond them, raises ``WindowError(i,
    o)``, after the rows below it were yielded.  For the last row of a
    numerator read to q^N, o is max(N//2 + 2, K + 1).

    A is multiplied by (q^2; q^2)_inf first, while its values are narrow,
    and A' = A (q^2; q^2)_inf is then divided by E (``_theta_terms``)
    from the bottom up: X_i = A'_i - sum s chi_{2n-1} X_{i - n(n-1)}.
    There is no modulus, so nothing folds or rotates, and every step is
    exact on plain integers:

    - Row i is held at its own offset d_i = i//2 + 2 + lift, as
      X_i(2^B) 2^(B d_i).  A'_i moves there from base by a shift of
      B (d_i - base) bits; lift >= 0 is the least that makes every such
      shift to the right drop only zero bits, so each is exact.
    - c_j = (1 + z + ... + z^(2n-2)) X_j = z^(n-1) chi_{2n-1} X_j, for
      the last term n that met X_j, is all left shifts at offset d_j, and
      grows for term n + 1 by z^(2n-1) (1 + z) X_j, one shift of the
      pair (1 + z) X_j kept beside it.  Both are dropped once
      j + n(n+1) > N.
    - Term n takes X_j to row i = j + n(n-1), where d_i - d_j = n(n-1)/2,
      as chi_{2n-1} X_j = z^(1-n) c_j: c_j shifted left by B (d_i - d_j -
      (n - 1)) = B (n-1)(n-2)/2 bits, which is never negative.

    So the integer held for row i is X_i(2^B) 2^(B d_i) exactly.  As X_i's
    coefficients are below 2^(B-1), that integer has no term below
    z^-d_i (it would leave a fraction), its balanced base-2^B digits are
    unique, and each of its shifts to offset o, with the bits dropped
    checked to be zero, keeps it exact.  When the rows of X lie in
    [-(i//2 + 1), i//2 + 1], as those of SB, the rank, the crank and
    (2 - z - 1/z) SB do, so do those of X E, and lift is 0.
    """
    order = len(values) - 1
    mul_eta_list(values, 2)
    lift = 0
    for i, x in enumerate(values[:max(2 * base - 4, 0)]):  # i//2 + 2 < base
        if x:
            low = ((x & -x).bit_length() - 1) // bits
            lift = max(lift, base - low - i // 2 - 2)
    # (e, s, the growth shift z^(2n-3), the landing shift, the last i)
    terms = [(e, s, bits * (2 * n - 3), bits * ((n - 1) * (n - 2) // 2),
              order - 2 * n) for e, s, n in _theta_terms(order)]
    pairs, grown = [], []
    live = 0
    for i in range(order + 1):
        d = i // 2 + 2 + lift
        shift = bits * (d - base)
        x = values[i]
        values[i] = None
        x = x << shift if shift >= 0 else x >> -shift
        if live < len(terms) and terms[live][0] <= i:
            live += 1
        plus = minus = 0
        for e, s, up, land, last in terms[:live]:
            j = i - e
            c = grown[j] + (pairs[j] << up)
            if i <= last:
                grown[j] = c
            else:
                grown[j] = pairs[j] = None
            if s > 0:
                plus += c << land
            else:
                minus += c << land
        x = x - plus + minus
        pairs.append(x + (x << bits))
        grown.append(x)
        o = max(i // 2 + 1, reach) + 1
        shift = bits * (o - d)
        if shift < 0:
            if x & ((1 << -shift) - 1):
                raise WindowError(i, o)
            x >>= -shift
        digits, carry = _balanced_digits(x << max(shift, 0), bits, 2 * o + 1)
        if carry or digits[0] or digits[-1]:
            raise WindowError(i, o)
        yield digits, o


def _horner_in_z(digits: list, bits: int, offset: int) -> int:
    """p(2^bits) 2^(bits*offset), p = sum_j digits[j] w^j, w = z + 1/z,
    len(digits) <= offset, by Horner in w: x*w is (x << bits) +
    (x >> bits), exact as x has w-degree, so z-reach, offset - 2 or less."""
    x = 0
    for d in reversed(digits):
        x = (x << bits) + (x >> bits) + (d << bits * offset)
    return x


def _w_digits(values: list, bits: int, reach: int):
    """The reach balanced base-2^bits digits of each packed value, one row
    at a time, the w-coefficients d_0, ..., d_(reach-1) of its row; a
    carry out of them raises ``WindowError(n, reach)`` for row n."""
    for n, x in enumerate(values):
        digits, carry = _balanced_digits(x, bits, reach)
        if carry:
            raise WindowError(n, reach)
        yield digits


def numerator_rows(values: list, bits: int, top: int):
    """Rows 0..top of X over Z[z,1/z], one (digits, o) pair at a time
    (``_rows_over_d``, window ``numerator_reach(top)``), from rows 0..N,
    N >= top, of its numerator X*D in Z[w] packed at w -> 2^bits
    (``symmetric_numerator``); every w-coefficient is below 2^(bits-1).

    Each row is decoded to K + 1 balanced w-digits d_j, K =
    ``numerator_reach(N)``, one w-degree past X*D's window, as u = 2 - w
    raises SB*D's degree by one; a carry out of them raises
    ``WindowError(n, K + 1)``.  w^j has 2^j as its sum of |coefficients|
    in z, so row n of X has at most [q^n] of sum_i (sum_j |d_j| 2^j) q^i
    / (q^2; q^2)_inf^2, 1/D's majorant: X's width is one bit more than
    its largest coefficient.  Each row is packed in z at that width and
    offset K + 1 (``_horner_in_z``) and divided by D."""
    reach = numerator_reach(len(values) - 1) + 1
    rows = list(_w_digits(values[:top + 1], bits, reach))
    width = max(apply_factors(
        [sum(abs(d) << j for j, d in enumerate(row)) for row in rows],
        denom=[(1, 2, 2, None)] * 2)).bit_length() + 1
    return _rows_over_d([_horner_in_z(row, width, reach) for row in rows],
                        width, reach, numerator_reach(top))


def laurent_rows(values: list, bits: int, top: int) -> list:
    """The rows of ``numerator_rows`` as Laurent polynomials."""
    return [_laurent(*row) for row in numerator_rows(values, bits, top)]


def numerator_residues(values: list, bits: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of rows 0..N of X, N = len(values) - 1,
    from rows 0..N of its numerator X*D in Z[w] packed at w -> 2^bits
    (``symmetric_numerator``): entry k of row n is the sum of the
    coefficients of row n of X on the z-exponents congruent to k mod t.
    The caller proves every w-coefficient of X*D and every residue sum of
    X below 2^(bits-1) in absolute value (``sptcrank.sb_residues``).

    Each row is decoded into K balanced w-digits d_j, K =
    ``numerator_reach(N)`` (``_w_digits``; a carry raises
    ``WindowError(n, K)``), and carried into Z[z]/(z^t - 1) by the ring
    map w -> z + 1/z as sum_j d_j P_j, folded mod M = 2^(tB) - 1, with
    P_j = (z + 1/z)^j on ``PackedResidueRing(bits, t, K)``, each made
    from the last by the ring's ``z`` and ``z_inv``.  Any integer
    congruent mod M packs the same element, so nothing reduces before the
    one division by D (``div_d_list``), and the unpacked sums are exact.
    """
    reach = numerator_reach(len(values) - 1)
    ring = PackedResidueRing(bits, t, reach)
    powers = [ring.one]
    for _ in range(reach - 1):
        x = powers[-1]
        powers.append(ring.z * x + ring.z_inv * x)
    width, mask = t * bits, ring.modulus
    packed = [_fold(sum(d * p for d, p in zip(row, powers) if d),
                    width, mask)
              for row in _w_digits(values, bits, reach)]
    return [ring.unpack(x) for x in div_d_list(packed, ring)]
