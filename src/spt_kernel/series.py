"""Truncated formal power series in q over a pluggable coefficient ring.

A series carries its ring tag and truncation order N; coefficients beyond N
are undefined, never silently zero.  Binary operations require matching ring
and order -- a mismatch while checking an identity is a bug, not data.
"""

from __future__ import annotations

from math import isqrt
from operator import add, sub
from typing import Sequence

from .rings import (
    ZZ,
    LaurentPolynomial,
    PackedResidueRing,
    RingError,
    _ZFold,
    _ZRotate,
)


class SeriesError(ValueError):
    """Order/ring mismatch or an operation leaving the power-series ring."""


class WindowError(RingError):
    """``packed_laurent``'s refusal of row n, which reaches z^-reach or
    z^reach, the edge of its packed window."""

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
    """c*x for each x of xs: xs itself for c = 1, and for the packed ring's
    z and 1/z the shift, fold or rotate of ``_ZFold``/``_ZRotate`` inline,
    with no multiplication call per element."""
    if type(c) is _ZFold:
        bits, width, high = c.bits, c.width, c.high
        return [(y & high) + (y >> width)
                if (y := x << bits).bit_length() > width else y for x in xs]
    if type(c) is _ZRotate:
        bits, low, top = c.bits, c.low, c.top
        return [(x >> bits) + (r << top) if (r := x & low) else x >> bits
                for x in xs]
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
    """In place: a *= 1/(1 - c*q^e) (geometric recurrence), from the bottom
    up in slices of at most min(e, ``_CHUNK``) coefficients, each one slice
    addition of c times the slice e below it, which is final."""
    if e <= 0:
        raise SeriesError("geometric division needs a positive q-exponent")
    op = add
    if c == -1:
        op, c = sub, 1
    step = min(e, _CHUNK)
    for i in range(e, len(a), step):
        a[i:i + step] = map(op, a[i:i + step],
                            _times(c, a[i - e:i - e + step]))


def mul_pair_list(a, ring, e):
    """In place: a *= (1 - z q^e)(1 - q^e/z) = 1 - (z + 1/z) q^e + q^{2e}
    on ``PackedResidueRing``, from the top down in slices of at most
    ``_CHUNK`` coefficients: one comprehension per slice makes z*x + x/z
    with the fold and the rotate of ``_times`` inline, subtracted from the
    slice, and the slice 2e below is added.  One pass in place of the two
    of ``mul_binomial_list`` with z and then 1/z."""
    bits, width, high = ring.z.bits, ring.z.width, ring.z.high
    low, top = ring.z_inv.low, ring.z_inv.top
    for hi in range(len(a), e, -_CHUNK):
        lo = max(hi - _CHUNK, e)
        new = list(map(sub, a[lo:hi], [
            ((y & high) + (y >> width) if (y := x << bits).bit_length() > width
             else y)
            + ((x >> bits) + (r << top) if (r := x & low) else x >> bits)
            for x in a[lo - e:hi - e]]))
        cut = max(2 * e - lo, 0)
        if cut < hi - lo:
            new[cut:] = map(add, new[cut:], a[lo + cut - 2 * e:hi - 2 * e])
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
    """In place: a /= (q^k; q^k)_inf by the recurrence
    b[i] = a[i] - sum_g s_g b[i - e_g] over the pentagonal terms s_g q^{e_g}
    with e_g <= i."""
    terms = _pentagonal(k, len(a) - 1)
    plus, minus = [], []
    t = 0
    for i in range(k, len(a)):
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


def _theta_multipliers(ring, order: int) -> list:
    """(e, s*c_n) for each term (e, s, n) of ``_theta_terms``, on the packed
    ring: c_n = sum_{k=1-n}^{n-1} 2^(B (k mod t)) is chi_{2n-1}(z) as an
    integer, so x*c_n packs chi_{2n-1}*p when x packs p.  It has no offset
    and t digits, each at most ceil((2n - 1)/t)."""
    bits, t = ring.bits, ring.t
    out = []
    c, m = 1, 1
    for e, s, n in _theta_terms(order):
        while m < n:
            c += (1 << bits * (m % t)) + (1 << bits * (-m % t))
            m += 1
        out.append((e, s * c))
    return out


def _fold(x: int, width: int, mask: int) -> int:
    """x mod mask = 2^width - 1 as a value below 2^width in absolute value:
    the bits above width are added back to the low ones (2^width = 1 mod
    mask) until none are left, for negative x too."""
    while x.bit_length() > width:
        x = (x & mask) + (x >> width)
    return x


def theta_list(ring, order: int) -> list:
    """Coefficients 0..order of E on the packed ring (``_theta_terms``),
    written directly: s*chi_{2n-1} at q^{n(n-1)}, no multiplication of
    series."""
    width, mask = ring.t * ring.bits, ring.modulus
    out = [0] * (order + 1)
    out[0] = ring.one
    for e, m in _theta_multipliers(ring, order):
        out[e] = _fold(m * ring.one, width, mask)
    return out


def _theta_by_multipliers(a, ring):
    """a[i] -= sum s*chi_{2n-1}*a[i - n(n-1)] for i = 2, 3, ... in turn,
    over the terms of ``_theta_terms``, each a[i - n(n-1)] already divided:
    each product x*c_n of ``_theta_multipliers`` multiplies two values of
    up to t*B bits, and the products of one coefficient are summed
    unreduced and folded once."""
    terms = _theta_multipliers(ring, len(a) - 1)
    width, mask = ring.t * ring.bits, ring.modulus
    live = 0
    for i in range(2, len(a)):
        if live < len(terms) and terms[live][0] <= i:
            live += 1
        acc = sum([m * a[i - e] for e, m in terms[:live]])
        a[i] = _fold(a[i] - acc, width, mask)


def _theta_by_growth(a, ring):
    """As ``_theta_by_multipliers``, with no multiplication of values:
    chi[j] holds chi_{2n-1}*a[j] for the last term n that a[j] met, and
    the next term n + 1 (at i = j + n(n+1)) extends it to
    chi_{2n+1}*a[j] by z^n*a[j] + z^(-n)*a[j], two shifts folded once
    each modulo 2^(tB) - 1.  A term application costs O(t*B) bit
    operations whatever t is; a[j] joins chi once it is final, and chi[j]
    is dropped once its next term would be past the top."""
    bits, t, top = ring.bits, ring.t, len(a) - 1
    width, mask = t * bits, ring.modulus
    # term n meets a[j] at i = j + n(n-1), and term n + 1 at i + 2n
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
            y, w = x << up, x << down
            if y.bit_length() > width:
                y = (y & mask) + (y >> width)
            if w.bit_length() > width:
                w = (w & mask) + (w >> width)
            c = chi[j] + y + w
            chi[j] = c if i <= last else None
            if s > 0:
                plus += c
            else:
                minus += c
        a[i] = _fold(a[i] - plus + minus, width, mask)
        chi.append(a[i])


# The packed width t*B, in bits, from which ``_theta_by_growth`` applies a
# term faster than ``_theta_by_multipliers``: below it one product x*c_n
# costs less than the two shifts, folds and sums that replace it.  On
# random values the two cross at 560 bits (B = 80, t = 7) and below 755
# (B = 151, t = 5).
_GROWTH_BITS = 600


def div_theta_list(a, ring):
    """In place: a /= E on the packed ring, from the bottom up, by the
    recurrence b[i] = a[i] - sum s*chi_{2n-1}*b[i - n(n-1)] over the terms
    of ``_theta_terms`` with n(n-1) <= i, in the form that costs less at
    the ring's width t*B."""
    if ring.t * ring.bits >= _GROWTH_BITS:
        _theta_by_growth(a, ring)
    else:
        _theta_by_multipliers(a, ring)


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
        import json  # imported here: the text outputs never load it
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


def _theta_route(ring, factors: list, a: list) -> int:
    """The side, 1 for the numerator and -1 for the denominator, of the
    pair D = ``d_factors(ring)`` among factors, a list of (side, factor,
    exponents); ``apply_factors`` then applies it through
    E = D (q^2; q^2)_inf (``_theta_terms``) and the pair is removed from
    factors.  A D in the numerator is taken only when a is the series 1,
    as E written out (``theta_list``).  0, with factors unchanged, off
    ``PackedResidueRing`` or without such a pair.  On the packed ring the
    division is always taken: its ~(2/3) order^{3/2} term applications
    each cost O(t*B) bit operations (``div_theta_list``), where D's ~order
    binomial passes make ~order^2/2 coefficient updates of that cost.
    """
    if type(ring) is not PackedResidueRing:
        return 0
    is_one = a[0] == ring.one and not any(a[1:])
    for side in (1, -1) if is_one else (-1,):
        pair = []
        for z in (ring.z, ring.z_inv):
            pair += [i for i, (s, (c, *rest), _) in enumerate(factors)
                     if s == side and c is z and rest == [2, 2, None]][:1]
        if len(pair) < 2:
            continue
        for i in sorted(pair, reverse=True):
            del factors[i]
        return side
    return 0


def apply_factors(ring, a: list, numer=(), denom=()) -> list:
    """In place: a * prod(numer) / prod(denom), truncated at
    q^(len(a) - 1); returns a itself.

    A factor (c, j, k, n) stands for (c*q^j; q^k)_n, the product of
    (1 - c*q^{j+ik}) over 0 <= i < n, and n = None for the infinite product.
    c is a ring element or an integer scalar.  On ``PackedResidueRing``
    the pair D = (z q^2, q^2/z; q^2)_inf of ``d_factors(ring)`` is applied
    as E / (q^2; q^2)_inf (``_theta_route``), where it divides or, when a
    is the series 1, multiplies: E is written directly (``theta_list``)
    or divided by in O(order sqrt(order)) term applications of O(t*B)
    each (``div_theta_list``), and (q^2; q^2)_inf joins the eta powers.
    An infinite factor with c the integer 1 or -1 is rewritten by
    ``_eta_form`` into powers of (q^m; q^m)_inf and finite factors; the
    powers are summed over all factors, and each (q^m; q^m)_inf left is
    one sparse pass over its pentagonal terms (``mul_eta_list``,
    ``div_eta_list``).  Every other binomial factor whose exponent is at
    most the order is one O(order) pass -- a multiplication for the
    numerator, a geometric division for the denominator -- so no series
    is ever inverted.
    """
    order = len(a) - 1
    # every factor is validated before any is rewritten or applied
    factors = [(side, f, _poch_exponents(*f[1:], order))
               for side, fs in ((1, numer), (-1, denom)) for f in fs]
    theta = _theta_route(ring, factors, a)
    etas: dict[int, int] = {2: -theta} if theta else {}
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
    if theta > 0:
        a[:] = theta_list(ring, order)
    elif theta:
        div_theta_list(a, ring)
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
    return TruncatedSeries(ring, order, apply_factors(ring, a, numer, denom))


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
    on the walk's own list.  No summand is added into a total, and no
    series is wrapped.

    On ``PackedResidueRing`` a numerator that holds the ring's own z and
    1/z at one exponent e, matched by identity, applies the two as one
    pass (``mul_pair_list``).
    """
    if order < 2:
        return [ring.zero] * (order + 1)
    paired = type(ring) is PackedResidueRing
    tail = [ring.one] + [ring.zero] * (order % 2)
    for n in range(order // 2 - 1, 0, -1):
        numer, denom = step(n)
        if paired:
            numer = list(numer)
            for e in [e for c, e in numer if c is ring.z]:
                if (ring.z_inv, e) in numer:
                    numer.remove((ring.z, e))
                    numer.remove((ring.z_inv, e))
                    mul_pair_list(tail, ring, e)
        for c, e in numer:
            mul_binomial_list(tail, c, e)
        for c, e in denom:
            div_binomial_list(tail, c, e)
        tail[:0] = [ring.one, ring.zero]
    return [ring.zero] * 2 + apply_factors(ring, tail, *first)


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
    ring's own z and 1/z (both 1 over Z).  D is the denominator of SB and
    of the rank and crank series; D = 1 mod q, so it is a unit and X = Y
    to q^N exactly when X*D = Y*D to q^N, with the same first differing
    q^n.  On the packed ring ``apply_factors`` applies the pair through
    Jacobi's triple product, D = E / (q^2; q^2)_inf (``_theta_route``), in
    O(N sqrt(N)) steps of O(t*B) bit operations at any t: a series over
    Z[z,1/z] is built as its numerator X*D and divided by D once
    (``_packed``)."""
    return [(ring.z, 2, 2, None), (ring.z_inv, 2, 2, None)]


def numerator_reach(order: int) -> int:
    """K = isqrt(order) + 2, the z-reach of a numerator X*D to q^order.

    In (z q^2; q^2)_m the power z^k needs q^{k(k+1)}, and in (z; q^2)_m,
    or with a factor (1 - z) in front, it needs q^{k(k-1)}; the same holds
    for 1/z.  Every numerator is a sum of such products times z-free
    series (each builder's docstring says which), so a power z^k at
    q^i <= q^order has k(k - 1) <= order, hence |k| <= isqrt(order) + 1
    = K - 1: the rows lie strictly inside the window [-K, K] that
    ``packed_laurent`` checks.
    """
    return isqrt(order) + 2


def _packed(build, order: int, t: int, cleared: bool = False):
    """(ring, values): coefficients 0..order of build's series over
    Z[z,1/z] on ``PackedResidueRing`` at modulus t, the one place that
    picks the width, the ring and whether to divide by D.

    build(ring, order, bound, cleared) returns a coefficient list over
    ring, with z and 1/z the ring's own ``ring.z`` and ``ring.z_inv``, and
    with cleared the numerator X*D of its series X;
    build(ZZ, order, True, cleared), where z = 1, must return a majorant,
    whose coefficient of q^n bounds the sum of |coefficients| of the
    Laurent polynomial at q^n.  The width B is one bit more than the
    majorant's largest coefficient, so every coefficient and every residue
    sum is below 2^(B-1) and the ring's digits are exact.

    The ring's offset is K = ``numerator_reach(order)``.  With cleared, or
    at t <= 2K + 1, build runs as it is, and a value is at most t*B bits
    wide.  At t > 2K + 1 the ring is wider than a numerator's window, so
    build runs as X*D, whose values stay (2K + 1)*B bits wide whatever t
    is, and X is X*D divided by D once, in place (``apply_factors``),
    which fills the t digits.  Below that switch the division buys
    nothing: at t = 3 and order 300, in process (medians of 41 runs,
    Python 3.11.7, 2-CPU Xeon), rank's own walk takes 3.8 ms against
    6.0 ms for rank*D then / D, and SB 10.5 ms either way.
    """
    bits = max(build(ZZ, order, True, cleared)).bit_length() + 1
    reach = numerator_reach(order)
    ring = PackedResidueRing(bits, t, reach)
    if cleared or t <= 2 * reach + 1:
        return ring, build(ring, order, False, cleared)
    return ring, apply_factors(ring, build(ring, order, False, True),
                               denom=d_factors(ring))


def packed_laurent(build, order: int, cleared: bool = False) -> list:
    """Rows 0..order of build's series over Z[z,1/z], or with cleared of
    its numerator X*D, read once off ``_packed`` at t = 2S + 1, where S
    is their z-reach: S = K = ``numerator_reach(order)`` for a numerator,
    and S = max(order//2 + 2, K + 1) for full rows, which keeps them on
    the side of t > 2K + 1, X*D divided by D once.  Row n of SB lies in
    [-n/2, n/2] (``sptcrank.sb_series``).

    The ring is exact whatever exponents an intermediate value reaches,
    and a result's exponents congruent to e mod t share one digit: entry
    e of ``unpack``, read as the coefficient of z^e for e in [-S, S], a
    negative e indexing from the top.  A row inside [-(S - 1), S - 1] is
    read exactly; a row whose z^-S or z^S digit is nonzero is at the edge
    of that window and raises ``WindowError`` with its index.
    """
    reach = numerator_reach(order)
    s = reach if cleared else max(order // 2 + 2, reach + 1)
    ring, values = _packed(build, order, 2 * s + 1, cleared)
    rows = []
    for k, x in enumerate(values):
        values[k] = None  # each packed value is freed as its row is read
        digits = ring.unpack(x)
        if digits[s] or digits[-s]:
            raise WindowError(k, s)
        row = LaurentPolynomial.__new__(LaurentPolynomial)
        row.c = {e: digits[e] for e in range(-s, s + 1) if digits[e]}
        rows.append(row)
    return rows


def divided_by_d(rows: list) -> list:
    """Rows 0..m of X over Z[z,1/z], m = len(rows) - 1, from rows 0..m of
    its numerator X*D: the rows, packed, are the numerator that
    ``packed_laurent`` divides by D and reads off.

    The width comes from the rows themselves: the sum of |coefficients|
    of row n of X is at most [q^n] of sum_i |rows[i]| q^i / (q^2; q^2)_inf^2,
    |p| the sum of |coefficients| of p, since 1/(1 - z q^e) has the
    majorant 1/(1 - q^e).
    """
    # full rows are always read as the numerator divided by D, so build is
    # asked only for the majorant and the numerator
    def build(ring, order, bound, cleared):
        if bound:
            return apply_factors(ZZ, [sum(map(abs, p.c.values()))
                                      for p in rows],
                                 denom=[(1, 2, 2, None)] * 2)
        return [ring.pack(p.c) for p in rows]

    return packed_laurent(build, len(rows) - 1)


def packed_residues(build, order: int, t: int) -> list[list[int]]:
    """Residue-class sums mod t of coefficients 0..order of build's series
    over Z[z,1/z] (``_packed``): entry k of row n is the sum of the
    coefficients of the Laurent polynomial at q^n on the exponents
    congruent to k mod t."""
    ring, values = _packed(build, order, t)
    return [ring.unpack(x) for x in values]
