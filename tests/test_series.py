import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    binomial_passes,
    inflate,
    lambert_theorem1_by_terms,
    one,
    pack,
    packed_rows,
    residue_pack,
    theta_sum,
    w_laurent,
)
from spt_kernel import cli, series, sptcrank, verify
from spt_kernel.partitions import distinct_partition_list, partition_list
from spt_kernel.rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    LaurentPolynomial,
    PackedResidueRing,
    PackedSymmetricRing,
    _ZFold,
    _ZRotate,
)
from spt_kernel.series import (
    SeriesError,
    TruncatedSeries,
    WindowError,
    _eta_form,
    _fold,
    _theta_terms,
    apply_factors,
    d_factors,
    d_list,
    div_binomial_list,
    div_d_at_zeta3,
    div_d_list,
    div_eta_list,
    div_theta_list,
    div_w_pair_list,
    mul_binomial_list,
    mul_eta_list,
    mul_w_pair_list,
    numerator_reach,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
)
from spt_kernel.sptcrank import (
    _rank_coeffs,
    crank_series,
)


def pentagonal_series(order):
    """Euler's pentagonal-number theorem as an independent closed form."""
    s = TruncatedSeries(ZZ, order)
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                s.coeffs[e] = -1 if k % 2 else 1
        k += 1
    s.coeffs[0] = 1
    return s


class TestArithmetic:
    def test_telescoping(self):
        one_minus_q = TruncatedSeries(ZZ, 12, [1, -1])
        geom = TruncatedSeries(ZZ, 12, [1] * 13)
        assert one_minus_q * geom == one(ZZ, 12)

    def test_triangular_convolution(self):
        tri = theta_sum(ZZ, lambda n: n * (n + 1) // 2, lambda n: 1, 10,
                        bilateral=False)
        sq = tri * tri
        assert sq.coefficient(2) == 1  # only (1,1) contributes

    def test_monomial_shift_drops_top(self):
        s = TruncatedSeries(ZZ, 3, [1, 2, 3, 4])
        assert s.shift(2).coeffs == [0, 0, 1, 2]

    def test_shift_past_the_order_is_zero(self):
        s = TruncatedSeries(ZZ, 3, [1, 2, 3, 4])
        for e in (4, 5, 9):
            assert s.shift(e).coeffs == [0, 0, 0, 0], e

    def test_too_many_coefficients_is_an_error(self):
        # coefficients beyond the order are refused, never cut off
        with pytest.raises(SeriesError, match="5 coefficients for order 3"):
            TruncatedSeries(ZZ, 3, [1, 2, 3, 4, 5])

    def test_order_mismatch_is_an_error(self):
        with pytest.raises(SeriesError):
            one(ZZ, 4) + one(ZZ, 5)

    def test_ring_mismatch_is_an_error(self):
        with pytest.raises(SeriesError):
            one(ZZ, 4) * one(LAURENT, 4)

    def test_coefficient_beyond_order_is_an_error(self):
        with pytest.raises(SeriesError):
            one(ZZ, 4).coefficient(5)


class TestInvert:
    def test_geometric(self):
        s = TruncatedSeries(ZZ, 8, [1, -1])
        assert s.invert().coeffs == [1] * 9

    def test_laurent_geometric(self):
        z = LAURENT.z
        s = poch_quotient(LAURENT, 6, denom=[(z, 2, 1, 1)])
        for k in range(4):
            assert s.coefficient(2 * k).c == {k: 1}
        assert not s.coefficient(1)

    def test_euler_inverse_counts_partitions(self):
        inv = pochhammer_inf(ZZ, 1, 1, 1, 5).invert()
        assert inv.coeffs == [len(partition_list(n)) for n in range(6)]

    def test_nonunit_constant_term_rejected(self):
        # only a constant term of 1 is inverted: -1, z and zeta_3 are units
        # of their rings and are refused too
        for ring, c0 in ((ZZ, 2), (ZZ, -1), (LAURENT, LAURENT.z),
                         (CYCLO3, CYCLO3.zeta)):
            with pytest.raises(SeriesError):
                TruncatedSeries(ring, 4, [c0, ring.one]).invert()

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=10))
    @settings(max_examples=60)
    def test_invert_roundtrip(self, tail):
        a = TruncatedSeries(ZZ, len(tail), [1] + tail)
        assert a * a.invert() == one(ZZ, len(tail))


class TestPochhammer:
    def test_euler_pentagonal(self):
        assert pochhammer_inf(ZZ, 1, 1, 1, 60) == pentagonal_series(60)

    def test_distinct_partition_counts(self):
        s = pochhammer_inf(ZZ, -1, 1, 1, 6)
        assert s.coeffs == [len(distinct_partition_list(n)) for n in range(7)]

    def test_laurent_factors(self):
        s = pochhammer_inf(LAURENT, LAURENT.z, 2, 2, 5)
        assert s.coefficient(0) == 1
        assert s.coefficient(2).c == {1: -1}
        assert s.coefficient(4).c == {1: -1}

    def test_zero_divisor_base_rejected(self):
        with pytest.raises(SeriesError):
            pochhammer_inf(ZZ, 1, 0, 1, 5)

    def test_finite_allows_base_zero(self):
        # (-1;q)_2 = (1+1)(1+q) = 2 + 2q
        s = pochhammer_finite(ZZ, -1, 0, 1, 2, 4)
        assert s.coeffs[:2] == [2, 2]

    def test_packed_pass_at_exponent_zero_matches_dict_form(self):
        # (1 - z)(1 - 1/z)(1 - 3): the factors with no power of q; the
        # results keep |coefficients| <= 80 < 2^7 and exponents in [-3, 2],
        # read at order 4 (S = 4, rows in [-3, 3]) with B = 8
        rows = [LaurentPolynomial({0: 1}), LaurentPolynomial({-2: 3, 1: -5}),
                LaurentPolynomial()]

        def make(ring):
            packed = [residue_pack(ring, p) for p in rows]
            for c in (ring.z, ring.z_inv, 3):
                mul_binomial_list(packed, c, 0)
            return packed

        got = packed_rows(make, 4, 80)
        for c in (LAURENT.z, LAURENT.z_inv, 3):
            mul_binomial_list(rows, c, 0)
        assert got == rows
        assert rows[0] == LaurentPolynomial({-1: 2, 0: -4, 1: 2})


# (ring, strategy for a factor's c) for the differential test
RING_ELEMENTS = [
    (ZZ, st.integers(-3, 3)),
    (CYCLO3, st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda ab: ab[0] * CYCLO3.one + ab[1] * CYCLO3.zeta)),
    (LAURENT, st.builds(LaurentPolynomial.monomial,
                        st.integers(-2, 2), st.integers(-2, 2))),
]


@st.composite
def quotients(draw):
    ring, elements = draw(st.sampled_from(RING_ELEMENTS))
    order = draw(st.integers(0, 10))

    def factor(min_j):
        n = draw(st.none() | st.integers(0, 4))
        j = draw(st.integers(max(min_j, 1 if n is None else 0), 4))
        return draw(elements), j, draw(st.integers(1, 3)), n

    numer = [factor(0) for _ in range(draw(st.integers(0, 3)))]
    denom = [factor(1) for _ in range(draw(st.integers(0, 3)))]
    start = None
    if draw(st.booleans()):
        start = TruncatedSeries(ring, order, draw(
            st.lists(elements, min_size=order + 1, max_size=order + 1)))
    return ring, order, numer, denom, start


_PACKED = PackedResidueRing(20, 5, 4)
# (ring, numer, denom) for the in-place core: plain factors over Z, and D
# in the numerator and in the denominator on the packed ring
CORE_CASES = [
    (ZZ, [(1, 1, 1, 2), (-1, 3, 3, None)], [(2, 2, 1, 1)]),
    (_PACKED, d_factors(_PACKED), []),
    (_PACKED, [], d_factors(_PACKED)),
]


class TestPochQuotient:
    @given(quotients())
    @settings(max_examples=150, deadline=None)
    def test_matches_products_and_inversion(self, case):
        ring, order, numer, denom, start = case

        def poch(c, j, k, n):
            if n is None:
                return pochhammer_inf(ring, c, j, k, order)
            return pochhammer_finite(ring, c, j, k, n, order)

        want = start if start is not None else one(ring, order)
        den = one(ring, order)
        for f in numer:
            want = want * poch(*f)
        for f in denom:
            den = den * poch(*f)
        assert poch_quotient(ring, order, numer, denom, start) == want * den.invert()

    @pytest.mark.parametrize("ring, numer, denom", CORE_CASES,
                             ids=["Z", "packed-times-d", "packed-over-d"])
    def test_core_works_in_place_and_start_is_kept(self, ring, numer, denom):
        # apply_factors changes its list and returns that same list, also
        # with D's factors on the packed ring; poch_quotient works on a
        # copy, so one start used twice gives equal results
        mixed = TruncatedSeries(ring, 12, [(i % 4 + 1) * ring.one
                                           for i in range(13)])
        for start in (one(ring, 12), mixed):
            kept = list(start.coeffs)
            first = poch_quotient(ring, 12, numer, denom, start)
            assert start.coeffs == kept
            assert poch_quotient(ring, 12, numer, denom, start) == first
            a = list(kept)
            assert apply_factors(a, numer, denom) is a
            assert a == first.coeffs and a != kept

    @pytest.mark.parametrize("build", [
        lambda: pochhammer_inf(ZZ, 1, 1, 0, 5),           # step k < 1
        lambda: pochhammer_finite(ZZ, 1, 1, 0, 2, 5),
        lambda: pochhammer_finite(ZZ, 1, 1, 1, -1, 5),    # length n < 0
        lambda: pochhammer_inf(ZZ, 1, 0, 1, 5),           # base j < 1
        lambda: poch_quotient(ZZ, 5, denom=[(1, 0, 1, 1)]),  # divide at q^0
        lambda: poch_quotient(ZZ, 5, denom=[(1, -2, 1, 1)]),
        lambda: poch_quotient(ZZ, 5, denom=[(1, 0, 1, 2)]),
        lambda: poch_quotient(ZZ, 5, start=one(ZZ, 4)),
    ])
    def test_argument_errors(self, build):
        with pytest.raises(SeriesError):
            build()


def eta_rewritable(j, k):
    """Whether (+-q^j; q^k)_inf is a quotient of products (q^m; q^m)_inf
    and finite products: when k | j, or k is even and j = k/2 mod k."""
    return j % k == 0 or (k % 2 == 0 and j % k == k // 2)


# (c, j, k) of every rewritable infinite factor (c q^j; q^k)_inf
ETA_SHAPES = [(c, j, k) for c in (1, -1) for j in range(1, 13)
              for k in range(1, 10) if eta_rewritable(j, k)]
ETA_TOP = 60


@st.composite
def pair_cases(draw):
    """A packed ring, a list of its values and an exponent e for the pair
    (``TestPairPass``): t = 3 and 5, where z folds and 1/z rotates, or a
    wide ring; coefficients small enough that every result decodes, some
    representatives shifted by multiples of the modulus, negative ones
    too; lists over two slices of ``_CHUNK`` long; e up to past the end
    of the list."""
    bits, t = draw(st.sampled_from([(10, 3), (10, 5), (40, 41)]))
    ring = PackedResidueRing(bits, t, draw(st.integers(0, t - 1)))
    size = draw(st.integers(0, 140))
    terms = draw(st.lists(
        st.tuples(st.integers(-t, t),
                  st.integers(-(1 << bits - 4), 1 << bits - 4),
                  st.integers(-3, 3)),
        min_size=size, max_size=size))
    a = [pack(ring, {e: c}) + k * ring.modulus for e, c, k in terms]
    return ring, a, draw(st.integers(1, size + 3))


class TestGeometricDivision:
    """``div_binomial_list`` against ``binomial_passes``, one coefficient
    at a time, at every length 0..150 and every e from 1 to one past the
    end of the list: both sides of e^2 < len(a), where c = +-1 switches
    from the slices to the running sums per residue class."""

    def test_over_z(self):
        for length in range(151):
            a = [(7 * i * i + 3) % 11 - 5 for i in range(length)]
            for c in (1, -1):
                for e in range(1, length + 2):
                    got = list(a)
                    div_binomial_list(got, c, e)
                    assert got == binomial_passes(a, c, [e], -1), \
                        (length, c, e)

    def test_on_packed_ring(self):
        # z folds and 1/z rotates at t = 5; values are compared mod M
        ring = PackedResidueRing(12, 5, 2)
        m = ring.modulus
        for length in range(151):
            a = [pack(ring, {(i % 5) - 2: (7 * i * i + 3) % 11 - 5,
                             i % 3: i % 4 - 1}) for i in range(length)]
            for c in (1, -1, ring.z, ring.z_inv):
                for e in range(1, length + 2):
                    got = list(a)
                    div_binomial_list(got, c, e)
                    want = binomial_passes(a, c, [e], -1)
                    assert [x % m for x in got] == [x % m for x in want], \
                        (length, c, e)


class TestPairPass:
    """The pair (1 - z q^e)(1 - q^e/z) on ``PackedResidueRing`` as the
    tests' z reads of SB*D's walk apply it
    (``helpers.narrow_ring_numerator``, ``wide_ring_rows``): two
    ``mul_binomial_list`` passes, through the ring's ``z`` and then its
    ``z_inv``."""

    @staticmethod
    def pair_passes(ring, a, e):
        got = list(a)
        mul_binomial_list(got, ring.z, e)
        mul_binomial_list(got, ring.z_inv, e)
        return got

    @given(pair_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_two_binomial_passes(self, case):
        # against the pair written out, 1 - (z + 1/z) q^e + q^{2e}: z*x +
        # x/z subtracted e up and x added 2e up, from the unchanged input
        ring, a, e = case
        want = list(a)
        for i in range(e, len(a)):
            x = a[i - e]
            want[i] -= ring.z * x + ring.z_inv * x
            if i >= 2 * e:
                want[i] += a[i - 2 * e]
        got = self.pair_passes(ring, a, e)
        assert [ring.digits(x) for x in got] == \
            [ring.digits(x) for x in want]

    @pytest.mark.parametrize("e", [1, 2, 5, 64, 65, 130])
    def test_matches_binomial_passes_one_at_a_time(self, e):
        # a fixed mix of packed values across several slices, against
        # ``binomial_passes``, which updates one coefficient at a time
        ring = PackedResidueRing(12, 5, 2)
        a = [pack(ring, {(i % 5) - 2: (7 * i * i + 3) % 11 - 5,
                         i % 3: i % 4 - 1}) for i in range(200)]
        want = binomial_passes(binomial_passes(a, ring.z, [e], 1),
                               ring.z_inv, [e], 1)
        got = self.pair_passes(ring, a, e)
        assert [ring.digits(x) for x in got] == \
            [ring.digits(x) for x in want]


def w_values(length, bits):
    """A fixed mix of values of w-degree at most 2 on
    ``PackedSymmetricRing(bits)``, negative digits too."""
    return [(7 * i * i + 3) % 11 - 5 + ((i % 4 - 1) << bits)
            + ((i % 3 - 1) << 2 * bits) for i in range(length)]


class TestPairPassInW:
    """The pair (1 - z q^e)(1 - q^e/z) = 1 - w q^e + q^{2e} on
    ``PackedSymmetricRing``, multiplied (``mul_w_pair_list``) and divided
    (``div_w_pair_list``), against ``binomial_passes`` with z and then
    1/z over the dict Laurent ring, for lists over several slices of
    ``_CHUNK`` and e up to past the end of the list."""

    @pytest.mark.parametrize("e", [1, 2, 5, 64, 65, 130, 201])
    def test_multiplication(self, e):
        ring = PackedSymmetricRing(40)
        a = w_values(200, 40)
        rows = [w_laurent(ring, x, 3) for x in a]
        want = binomial_passes(binomial_passes(rows, LAURENT.z, [e], 1),
                               LAURENT.z_inv, [e], 1)
        got = list(a)
        mul_w_pair_list(got, ring, e)
        assert [w_laurent(ring, x, 4) for x in got] == want

    @pytest.mark.parametrize("e", [1, 2, 3, 7, 41])
    @pytest.mark.parametrize("length", [0, 1, 2, 5, 40])
    def test_division(self, e, length):
        # row i of the quotient has w-degree at most 2 + i/e, and its
        # digits stay below 2^63 to q^40
        ring = PackedSymmetricRing(64)
        a = w_values(length, 64)
        rows = [w_laurent(ring, x, 3) for x in a]
        want = binomial_passes(binomial_passes(rows, LAURENT.z, [e], -1),
                               LAURENT.z_inv, [e], -1)
        got = list(a)
        div_w_pair_list(got, ring, e)
        assert [w_laurent(ring, x, 3 + length) for x in got] == want
        mul_w_pair_list(got, ring, e)
        assert got == a

    def test_z_alone_is_refused(self):
        # only the pair is in Z[w]: a pass with z or 1/z alone fails
        ring = PackedSymmetricRing(8)
        for c in (ring.z, ring.z_inv):
            with pytest.raises(TypeError):
                mul_binomial_list([1, 2, 3], c, 1)


class TestHornerPacking:
    """A row of a numerator in Z[w] packed in z by Horner in w = z + 1/z
    (``series._horner_in_z``), against the comb decoder of the tests
    (``helpers.w_laurent``), and the carry that ``numerator_rows``
    refuses."""

    @given(st.lists(st.integers(-512, 511), min_size=1, max_size=12))
    @example([0, 0, 0, 0, 1])
    @example([3, 0, -5, 0, -1])
    @example([-512])
    @settings(max_examples=60)
    def test_matches_comb_decoder(self, digits):
        # negative digits, and a top digit at w^K for K + 1 digits packed
        # at offset K + 1, as numerator_rows packs them; the packing is a
        # plain integer at any z-width
        ring = PackedSymmetricRing(10)
        x = sum(d << 10 * j for j, d in enumerate(digits))
        offset = len(digits)
        row = w_laurent(ring, x, offset)
        for bits in (2, 13, 40):
            assert series._horner_in_z(digits, bits, offset) == sum(
                v << bits * (e + offset) for e, v in row.c.items())

    @pytest.mark.parametrize("sign", [1, -1])
    def test_top_digit_fits_and_a_carry_is_refused(self, sign):
        # at order 4, K = 4: w^4 on the top row is the row of X there, as
        # D = 1 mod q and the rows below are 0; w^5 leaves a carry out of
        # the K + 1 digits, refused as a row at the edge of the window
        order, bits = 4, 8
        reach = numerator_reach(order)
        values = [0] * (order + 1)
        values[order] = sign << bits * reach
        want = LaurentPolynomial({0: sign})
        for _ in range(reach):
            want = want * (LAURENT.z + LAURENT.z_inv)
        rows = [series._laurent(digits, o) for digits, o in
                series.numerator_rows(values, bits, order)]
        assert rows == [LAURENT.zero] * order + [want]
        values[order] <<= bits
        with pytest.raises(WindowError) as exc:
            series.numerator_rows(values, bits, order)
        assert (exc.value.n, exc.value.reach) == (order, reach + 1)


def eta_starts(name, with_start):
    """The ring and a start list to q^ETA_TOP: 1, or a fixed mix of values."""
    ring = {"Z": ZZ, "laurent": LAURENT,
            "packed": PackedResidueRing(24, 7, 3)}[name]
    if not with_start:
        return ring, [ring.one] + [ring.zero] * ETA_TOP
    values = [{(i % 5) - 2: (7 * i * i + 3) % 11 - 5, i % 3: i % 4 - 1}
              for i in range(ETA_TOP + 1)]
    if name == "Z":
        return ring, [sum(v.values()) for v in values]
    if name == "laurent":
        return ring, [LaurentPolynomial(v) for v in values]
    return ring, [pack(ring, v) for v in values]


# every order for Z and the packed ring; for the dict Laurent ring the
# orders below and at each k and j, and a few above
ETA_ORDERS = {"Z": range(ETA_TOP + 1), "packed": range(ETA_TOP + 1),
              "laurent": [0, 1, 2, 3, 5, 8, 9, 11, 12, 13, 30, ETA_TOP]}


class TestEtaRoute:
    """Infinite factors with c = +-1, which ``poch_quotient`` may rewrite
    into sparse passes over (q^m; q^m)_inf, against plain binomial passes."""

    @pytest.mark.parametrize("with_start", [False, True],
                             ids=["one", "start"])
    @pytest.mark.parametrize("name", ["Z", "laurent", "packed"])
    def test_matches_binomial_passes(self, name, with_start):
        ring, first = eta_starts(name, with_start)
        for c, j, k in ETA_SHAPES:
            for side in (1, -1):
                want = binomial_passes(first, c, range(j, ETA_TOP + 1, k),
                                       side)
                # the identities themselves, at any cost
                powers, finite = _eta_form(c, j, k)
                got = list(first)
                for m, a in powers.items():
                    apply = mul_eta_list if a * side > 0 else div_eta_list
                    for _ in range(abs(a)):
                        apply(got, m)
                for s, (c1, j1, k1, n1) in finite:
                    got = binomial_passes(got, c1, range(j1, j1 + n1 * k1, k1),
                                          side * s)
                assert got == want, (c, j, k, side)
                # poch_quotient, whichever route it takes, at each order
                factor = [(c, j, k, None)]
                numer, denom = (factor, ()) if side > 0 else ((), factor)
                for order in ETA_ORDERS[name]:
                    start = (TruncatedSeries(ring, order, first[:order + 1])
                             if with_start else None)
                    got = poch_quotient(ring, order, numer, denom, start)
                    assert got.coeffs == want[:order + 1], (
                        c, j, k, side, order)

    def test_partition_numbers(self):
        p = poch_quotient(ZZ, 1000, denom=[(1, 1, 1, None)]).coeffs
        assert p[:31] == [len(partition_list(n)) for n in range(31)]
        assert p[200] == 3972999029388
        assert p[1000] == 24061467864032622473692149727991

    def test_flipped_pentagonal_sign_is_reported(self, monkeypatch):
        # both sides of theorems 3 and 4 read (q^m; q^m)_inf through the
        # sparse passes; a sign flipped in one of its terms must still show
        original = series._pentagonal

        def flipped(k, order):
            return [(e, -s if e == 5 * k else s)
                    for e, s in original(k, order)]

        monkeypatch.setattr(series, "_pentagonal", flipped)
        reports = [verify.run_all(60, only=check)[0]
                   for check in ("theorem3", "theorem4")]
        assert all(r.first_failure is not None for r in reports), reports


THETA_TOP = 60
# t = 1, 2, 3, 5, 7, 2K + 1 and 2S + 1 at order THETA_TOP
THETA_MODULI = [1, 2, 3, 5, 7, 2 * numerator_reach(THETA_TOP) + 1,
                2 * (THETA_TOP // 2 + 2) + 1]


# moduli at which the division by E runs on its own: t = 1 to 13, where
# the 2n - 1 powers of chi_{2n-1} overlap on the ring for the last terms
# n <= 8 at order THETA_TOP, and 2K + 1 and 2S + 1, where they do not
FORM_MODULI = [1, 2, 3, 5, 7, 9, 11, 13, 2 * numerator_reach(THETA_TOP) + 1,
               2 * (THETA_TOP // 2 + 2) + 1]


def theta_series(order):
    """E(z, q) = sum_{n>=1} (-1)^{n+1} q^{n(n-1)} (z^{1-n} + ... + z^{n-1})
    over the dict Laurent ring, term by term."""
    coeffs = [LAURENT.zero] * (order + 1)
    n = 1
    while n * (n - 1) <= order:
        coeffs[n * (n - 1)] = LaurentPolynomial(
            {k: 1 if n % 2 else -1 for k in range(1 - n, n)})
        n += 1
    return coeffs


def d_passes(ring, first, side):
    """first times D = (z q^2, q^2/z; q^2)_inf for side 1, divided by it for
    side -1, by plain binomial passes."""
    out = first
    for c in (ring.z, ring.z_inv):
        out = binomial_passes(out, c, range(2, len(first), 2), side)
    return out


def theta_starts(ring, with_start):
    """1, or a fixed mix of packed values, to q^THETA_TOP on ring."""
    if not with_start:
        return [ring.one] + [ring.zero] * THETA_TOP
    return [pack(ring, {(i % 5) - 2: (7 * i * i + 3) % 11 - 5,
                        i % 3: i % 4 - 1})
            for i in range(THETA_TOP + 1)]


class TestThetaRoute:
    """D = (z q^2, q^2/z; q^2)_inf through E = D (q^2; q^2)_inf, Jacobi's
    triple product (``d_list`` in Z[w], ``div_d_list`` on the residue
    ring), against plain binomial passes."""

    def test_triple_product_identity(self):
        d_eta = binomial_passes(
            d_passes(LAURENT, [LAURENT.one] + [LAURENT.zero] * THETA_TOP, 1),
            1, range(2, THETA_TOP + 1, 2), 1)
        assert d_eta == theta_series(THETA_TOP)
        assert [e for e, _, _ in _theta_terms(THETA_TOP)] == [
            n * (n - 1) for n in range(2, 9)]

    def test_d_written_in_w(self):
        # D from E in w, chi_{2n-1} = 1 + V_1 + ... + V_{n-1}, divided by
        # (q^2; q^2)_inf, at every order
        ring = PackedSymmetricRing(48)
        want = d_passes(LAURENT, [LAURENT.one] + [LAURENT.zero] * THETA_TOP, 1)
        for order in range(THETA_TOP + 1):
            got = d_list(ring, order)
            reach = numerator_reach(order)
            assert [w_laurent(ring, x, reach) for x in got] == \
                want[:order + 1], order

    @pytest.mark.parametrize("with_start", [False, True],
                             ids=["one", "start"])
    @pytest.mark.parametrize("t", THETA_MODULI)
    def test_matches_binomial_passes(self, t, with_start):
        ring = PackedResidueRing(48, t, THETA_TOP // 2 + 2)
        first = theta_starts(ring, with_start)
        for side in (1, -1):
            want = [ring.digits(x) for x in d_passes(ring, first, side)]
            factors = d_factors(ring)
            numer, denom = (factors, ()) if side > 0 else ((), factors)
            for order in range(THETA_TOP + 1):
                # the named division by D in place; D written out takes
                # its binomial passes on this ring, and a product of D
                # with a start has no operation of its own
                if side < 0:
                    got = first[:order + 1]
                    assert div_d_list(got, ring) is got
                    assert [ring.digits(x) for x in got] == \
                        want[:order + 1], (side, order)
                # D's binomial passes through poch_quotient
                start = (TruncatedSeries(ring, order, first[:order + 1])
                         if with_start else None)
                got = poch_quotient(ring, order, numer, denom, start)
                assert [ring.digits(x) for x in got.coeffs] == \
                    want[:order + 1], (side, order)

    @pytest.mark.parametrize("start", ["one", "start", "wide"])
    @pytest.mark.parametrize("form", [div_theta_list], ids=["growth"])
    @pytest.mark.parametrize("t", FORM_MODULI)
    def test_both_forms_match_binomial_passes(self, t, form, start):
        # the one form of the division by E, each term grown by two shifts,
        # on its own at every order; "wide" adds multiples of the modulus
        # to the packed values, so they are negative or wider than t*B bits
        ring = PackedResidueRing(12, t, THETA_TOP // 2 + 2)
        first = theta_starts(ring, start != "one")
        if start == "wide":
            first = [x + (-1) ** i * (i * i + 1) * ring.modulus ** (1 + i % 3)
                     for i, x in enumerate(first)]
        want = [ring.digits(x) for x in d_passes(ring, first, -1)]
        for order in range(THETA_TOP + 1):
            got = first[:order + 1]
            form(got, ring)
            # every value the division writes is folded below 2^(tB)
            assert all(abs(x) < 1 << t * ring.bits for x in got[2:]), order
            mul_eta_list(got, 2)
            assert [ring.digits(x) for x in got] == want[:order + 1], order

    def test_division_at_zeta3_matches_binomial_passes(self):
        # D(zeta_3, q) = (zeta_3 q^2, q^2/zeta_3; q^2)_inf: its pair of
        # factors at q^e is 1 + q^e + q^{2e} = (1 - q^{3e})/(1 - q^e),
        # one multiplication and one division by binomials per e, against
        # the division through E(zeta_3, q) at every order
        start = [(-1) ** i * (i * i + 3) for i in range(THETA_TOP + 1)]
        for order in range(THETA_TOP + 1):
            want = start[:order + 1]
            for e in range(2, order + 1, 2):
                want = binomial_passes(want, 1, [e], 1)
                want = binomial_passes(want, 1, [3 * e], -1)
            got = start[:order + 1]
            assert div_d_at_zeta3(got) is got
            assert got == want, order

    @pytest.mark.parametrize("t, bits", [(1, 5), (3, 7), (7, 20)])
    def test_fold_keeps_the_residue(self, t, bits):
        width = t * bits
        mask = (1 << width) - 1
        values = [0, 1, -1, mask, -mask, mask + 1, -mask - 1, 1 << width,
                  -(1 << width), (1 << 3 * width) + 12345,
                  -(1 << 3 * width) - 12345, 7 ** 200, -(7 ** 200),
                  mask * (mask + 2), -mask * (mask + 2) + 5]
        for x in values:
            y = _fold(x, width, mask)
            assert y.bit_length() <= width, x
            assert (y - x) % mask == 0, x


class TestThetaRouteChoice:
    """Which route each production use of D takes on the packed ring."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        original = getattr(series, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(series, name, counted)
        return calls

    def test_full_crank_rows_divide_by_d_once(self, monkeypatch):
        # the full rows are read off crank*D, z-free (numerator_rows), and
        # divided by D once through E, row by row (_rows_over_d), not on
        # the packed ring
        divisions = self.count(monkeypatch, "div_binomial_list")
        thetas = self.count(monkeypatch, "div_theta_list")
        rows = self.count(monkeypatch, "_rows_over_d")
        crank_series(300)
        assert not [c for _, c, _ in divisions
                    if isinstance(c, (_ZFold, _ZRotate))]
        assert (len(thetas), len(rows)) == (0, 1)

    @pytest.mark.parametrize("t", [3, 2 * numerator_reach(300) + 2, 601])
    def test_sb_makes_no_binomial_division_by_z(self, monkeypatch, t):
        # SB's residues at every modulus, and its rows, divide only by
        # z-free binomials, in SB*D's walk in w; D goes through E, once on
        # the residue ring for the residues and row by row for the rows
        divisions = self.count(monkeypatch, "div_binomial_list")
        thetas = self.count(monkeypatch, "div_theta_list")
        rows = self.count(monkeypatch, "_rows_over_d")
        sptcrank.sb_residues(300, t)
        if t == 601:
            sptcrank.sb_series(300)
        assert not [c for _, c, _ in divisions if type(c) is not int]
        assert len(thetas) == 1
        assert len(rows) == (1 if t == 601 else 0)

    @pytest.mark.parametrize("t", [1, 3, 5, 2 * numerator_reach(300) + 1,
                                   2 * (300 // 2 + 2) + 1])
    def test_rank_times_d_writes_e(self, monkeypatch, t):
        # rank*D starts from D written out as E once in Z[w] (d_list); on
        # the residue ring, at every t, where only the tests' z read runs
        # rank*D, D is written by its binomial passes
        written = self.count(monkeypatch, "theta_list")
        passes = self.count(monkeypatch, "mul_binomial_list")
        ring = PackedSymmetricRing(170)
        _rank_coeffs(ring, 300)
        assert written == [(ring, 300)]
        residue = PackedResidueRing(170, t, 300 // 2 + 2)
        _rank_coeffs(residue, 300)
        assert written == [(ring, 300)]
        # D's passes, z and then 1/z at every even e; the Lambert terms'
        # passes of (1 - z)(1 - 1/z) are at q^0
        assert [(c, e) for _, c, e in passes
                if c in (residue.z, residue.z_inv) and e] == [
            (c, e) for c in (residue.z, residue.z_inv)
            for e in range(2, 301, 2)]

    def test_apply_factors_takes_no_theta_kernel(self, monkeypatch):
        # D reaches E only by name (d_list, div_d_list): among other
        # factors, on the packed ring too, it is two factors like any
        kernels = [self.count(monkeypatch, name)
                   for name in ("theta_list", "div_theta_list")]
        for ring, numer, denom in CORE_CASES:
            for start in ([ring.one] + [ring.zero] * 12,
                          [(i % 4 + 1) * ring.one for i in range(13)]):
                apply_factors(start, numer, denom)
        assert kernels == [[], []]

    @staticmethod
    def flip_theta_sign(monkeypatch):
        # the sign of the n = 3 term of E, at q^6, flipped: no identity has
        # E on both sides, so every check that reads D through it fails
        original = series._theta_terms

        def flipped(order):
            return [(e, -s if n == 3 else s, n)
                    for e, s, n in original(order)]

        monkeypatch.setattr(series, "_theta_terms", flipped)

    def test_flipped_theta_sign_is_reported(self, monkeypatch):
        self.flip_theta_sign(monkeypatch)
        reports = [verify.run_all(60, only=check)[0]
                   for check in ("theorem1", "theorem4", "congruences")]
        assert all(r.first_failure is not None for r in reports), reports
        # rank*D with a wrong D no longer cancels the Lambert terms'
        # (1 - z q^{2n}) divisors, so its rows leave the z-window that the
        # numerator proof gives (K = 9 at order 60); reading them is
        # refused, and the check fails at the first such row
        for check in ("theorem2", "bailey_limit"):
            (report,) = verify.run_all(60, only=check)
            assert report == verify.VerificationReport(check, 60, "fail", {
                "n": 21,
                "expected": "z-exponents within [-8, 8]",
                "actual": "a nonzero digit at z^-9 or z^9",
                "where": "z-window",
            })
            assert report.to_json() == json.dumps(report._asdict(),
                                                  sort_keys=True)

    def test_row_outside_window_is_a_report(self, monkeypatch, capsys):
        # the refusal ends the command with exit code 1 and a report on
        # stdout, not a traceback, and the other checks still run
        self.flip_theta_sign(monkeypatch)
        assert cli.main(["verify", "--order", "60", "--format", "json"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["check"] for r in reports] == sorted(verify.CHECKS)
        assert [r["first_failure"]["where"] for r in reports
                if r["check"] in ("bailey_limit", "theorem2")] == [
                    "z-window", "z-window"]


class TestThetaAndLambert:
    def test_gauss_triangular_support(self):
        s = theta_sum(ZZ, lambda n: n * (n + 1) // 2, lambda n: 1, 10,
                      bilateral=False)
        assert [n for n, c in enumerate(s.coeffs) if c] == [0, 1, 3, 6, 10]

    def test_bilateral_quadratic(self):
        s = theta_sum(ZZ, lambda n: (9 * n * n + 3 * n) // 2, lambda n: 1, 10)
        assert [n for n, c in enumerate(s.coeffs) if c] == [0, 3, 6]

    def test_empty_theta_is_zero(self):
        s = theta_sum(ZZ, lambda n: abs(n) + 100, lambda n: 1, 10)
        assert not s

    def test_lambert_theorem1_low_coefficients(self):
        # n=0 contributes 1 + q^2 + q^4, the rewritten n=-1 term q + q^5
        assert verify.lambert_theorem1(5).coeffs == [1, 1, 1, 0, 1, 1]

    def test_lambert_theorem1_matches_terms(self):
        # the sum written out against its terms one by one, at every order
        # to 300, where a term's first exponent or its step is off by one
        # shows, and at 1000
        for order in [*range(301), 1000]:
            assert verify.lambert_theorem1(order) == \
                lambert_theorem1_by_terms(order), order

    def test_divergent_sums_are_refused(self):
        # a constant exponent map gives a divergent sum; summing only the 15
        # scanned indices once returned 15 at q^0
        with pytest.raises(SeriesError, match="scanned range"):
            theta_sum(ZZ, lambda n: 0, lambda n: 1, 5)
        with pytest.raises(SeriesError, match="scanned range"):
            theta_sum(ZZ, lambda n: 0, lambda n: 1, 5, bilateral=False)


int_series = st.lists(st.integers(-9, 9), min_size=1, max_size=24).map(
    lambda c: TruncatedSeries(ZZ, len(c) - 1, c))


class TestDissection:
    def test_small_example(self):
        s = TruncatedSeries(ZZ, 3, [1, 1, 1, 1])
        comps = s.dissect(3)
        assert comps[0].coeffs == [1, 1]
        assert comps[1].coeffs == [1]
        assert comps[2].coeffs == [1]

    def test_trivial_modulus(self):
        s = TruncatedSeries(ZZ, 4, [5, 4, 3, 2, 1])
        assert s.dissect(1) == [s]

    @given(int_series, st.sampled_from([2, 3, 5]))
    @settings(max_examples=80)
    def test_roundtrip(self, s, t):
        assume(t <= s.order + 1)
        back = TruncatedSeries(ZZ, s.order)
        for j, comp in enumerate(s.dissect(t)):
            back = back + inflate(comp, t, s.order).shift(j)
        assert back == s

    def test_modulus_past_the_order_is_an_error(self):
        # component j > N would hold no tracked coefficient, not a 0
        s = TruncatedSeries(ZZ, 1, [5, 7])
        assert [c.coeffs for c in s.dissect(2)] == [[5], [7]]
        for t in (3, 4, 9):
            with pytest.raises(SeriesError, match=f"modulus {t} exceeds"):
                s.dissect(t)

    def test_inflate(self):
        s = TruncatedSeries(ZZ, 1, [1, 1])
        assert inflate(s, 3, 4).coeffs == [1, 0, 0, 1, 0]


class TestRendering:
    def test_sparse_text(self):
        s = TruncatedSeries(ZZ, 4, [1, 0, 2])
        assert "q^2" in repr(s) and "q^1" not in repr(s)
