import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    balanced_digits_by_loop,
    eval_at_one,
    packed_rows,
    residue_class_sums,
    residue_pack,
    support,
    w_laurent,
)
from spt_kernel.rings import (
    CYCLO3,
    LAURENT,
    CyclotomicInteger,
    LaurentPolynomial,
    PackedResidueRing,
    PackedSymmetricRing,
    RingError,
    _balanced_digits,
    root_value,
)

Z = LAURENT.z
ZI = LAURENT.z_inv

# the q^8 coefficient of the spt-crank series, used for the mod-5 classes
Q8_ROW = LaurentPolynomial({3: 1, 2: 1, 1: 3, 0: 5, -1: 3, -2: 1, -3: 1})


laurents = st.dictionaries(
    st.integers(-12, 12), st.integers(-9, 9), max_size=8
).map(LaurentPolynomial)


cyclos = st.builds(CyclotomicInteger, st.integers(-20, 20),
                   st.integers(-20, 20))


def at_zeta3(p):
    """p(zeta_3), through the residue sums mod 3, as the checks read it."""
    return root_value(residue_class_sums(p, 3))


class TestCyclotomic:
    def test_one_plus_zeta3_squared_is_zeta3(self):
        x = CYCLO3.one + CYCLO3.zeta
        assert x * x == CYCLO3.zeta

    def test_root_powers_reduce(self):
        # 1 + zeta + zeta^2 = 0, and zeta^3 = 1
        total = sum(
            (CyclotomicInteger.root_power(k) for k in range(3)),
            CYCLO3.zero,
        )
        assert not total
        assert CyclotomicInteger.root_power(3) == CYCLO3.one
        assert CYCLO3.zeta * CYCLO3.zeta * CYCLO3.zeta == CYCLO3.one

    def test_laurent_polynomial_is_not_coerced(self):
        # a Laurent polynomial reaches Z[zeta_3] only through root_value
        with pytest.raises(TypeError):
            CYCLO3.coerce(Z)

    @given(cyclos, cyclos, cyclos)
    @settings(max_examples=80)
    def test_ring_axioms_t3(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestLaurent:
    def test_exponent_cancellation(self):
        assert Z * ZI == 1

    def test_expand_and_collect(self):
        assert (Z - 1) * (ZI - 1) == LaurentPolynomial({1: -1, 0: 2, -1: -1})

    def test_canonical_no_zero_coeffs(self):
        p = LaurentPolynomial({2: 3, 5: 0})
        assert support(p) == [2]
        assert (p - p) == 0 and not (p - p)

    @given(laurents, laurents, laurents)
    @settings(max_examples=80)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestEvalAtRoot:
    """Values at z = zeta_3 read off residue sums mod 3 by ``root_value``."""

    def test_balanced_triple_vanishes(self):
        assert not at_zeta3(Z + 1 + ZI)

    def test_constant_fixed(self):
        assert at_zeta3(LaurentPolynomial.from_int(7)) == 7

    def test_q8_row_nonzero_at_zeta5(self):
        # 1, zeta_5, ..., zeta_5^3 are a basis and zeta_5^4 is minus their
        # sum, so p(zeta_5) = sum_k s_k zeta_5^k vanishes exactly when the
        # five residue sums s_k are equal; row 8's are not
        assert len(set(residue_class_sums(Q8_ROW, 5))) > 1

    def test_unsupported_order(self):
        # residue sums mod 7 are not read as a value at zeta_3
        with pytest.raises(RingError):
            root_value(residue_class_sums(Z, 7))

    @given(laurents)
    @settings(max_examples=120)
    def test_matches_sum_of_root_powers(self, p):
        # the definition: sum of v * zeta_3^e over the terms v z^e of p
        expected = CYCLO3.zero
        for e, v in p.c.items():
            expected = expected + CyclotomicInteger.root_power(e) * v
        assert at_zeta3(p) == expected


class TestResidueClassSums:
    def test_q8_row_mod5(self):
        assert residue_class_sums(Q8_ROW, 5) == [5, 3, 2, 2, 3]

    def test_balanced_triple(self):
        assert residue_class_sums(Z + 1 + ZI, 3) == [1, 1, 1]

    def test_zero_polynomial(self):
        assert residue_class_sums(LaurentPolynomial(), 4) == [0, 0, 0, 0]

    @given(laurents)
    @settings(max_examples=120)
    def test_vanishing_iff_equal_classes(self, p):
        # minimal-polynomial argument: zeta_3 evaluation vanishes exactly
        # when all residue classes carry the same total
        sums = residue_class_sums(p, 3)
        assert (not at_zeta3(p)) == (len(set(sums)) == 1)

    @given(laurents, st.integers(1, 7))
    @settings(max_examples=80)
    def test_classes_sum_to_z1_evaluation(self, p, t):
        assert sum(residue_class_sums(p, t)) == eval_at_one(p)


class TestPackedLaurent:
    """Laurent rows read off Z[z]/(z^t - 1) at t = 2S + 1
    (``helpers.packed_rows``), as the full-row reference
    ``helpers.wide_ring_rows`` reads them: S = order//2 + 2, and the
    majorant fixes B."""

    def test_round_trip_at_the_digit_bound(self):
        # order 12: S = 8, rows read in [-7, 7]; majorant 255: B = 9
        big = (1 << 8) - 1
        p = LaurentPolynomial({-4: -big, -3: big, -1: 1, 0: -big, 2: big,
                               5: -1, 7: big})
        assert packed_rows(lambda ring: [residue_pack(ring, p),
                                         -residue_pack(ring, p)],
                           12, big) == [p, -p]

    @given(laurents)
    @settings(max_examples=80)
    def test_ring_operations_match_dict_form(self, p):
        # laurents have |coefficients| <= 9 and exponents in [-12, 12], so
        # every result below keeps |coefficients| < 2^7 and exponents in
        # [-13, 13]; order 24: S = 14, rows read in [-13, 13]; B = 8
        def make(ring):
            x = residue_pack(ring, p)
            return [x, ring.z * x, ring.z_inv * x,
                    x + residue_pack(ring, Z * p), x - 3 * ring.one, -x]

        assert packed_rows(make, 24, (1 << 7) - 1) == [
            p, Z * p, ZI * p, p + Z * p, p - 3, -p]

    @given(st.sampled_from([2, 3, 8, 61]).flatmap(lambda b: st.tuples(
        st.just(b),
        st.dictionaries(
            st.integers(-60, 60),
            st.one_of(st.sampled_from([1 - (1 << b - 1), (1 << b - 1) - 1]),
                      st.integers(1 - (1 << b - 1), (1 << b - 1) - 1)),
            max_size=120))))
    @settings(max_examples=80)
    def test_round_trip_across_the_decoder_split(self, case):
        # order 118: S = 61, t = 123 digits, so the balanced decoder splits
        # them in halves; majorant 2^(b-1) - 1: B = b
        bits, coeffs = case
        p = LaurentPolynomial(coeffs)
        assert packed_rows(lambda ring: [residue_pack(ring, p),
                                         -residue_pack(ring, p)],
                           118, (1 << bits - 1) - 1) == [p, -p]

    def test_term_below_the_window_comes_back_exactly(self):
        # order 4: S = 4, t = 9.  Twice 1/z takes the z^-3 term to z^-5,
        # below z^-S, where a shift by B bits would lose it; z^-5 is z^4
        # in Z[z]/(z^9 - 1), and twice z brings it back.
        p = LaurentPolynomial({-3: 5, 2: 1})

        def make(ring):
            x = ring.z_inv * (ring.z_inv * residue_pack(ring, p))
            return [ring.z * (ring.z * x)]

        assert packed_rows(make, 4, 5) == [p]

    @pytest.mark.parametrize("exp", [-5, -4, 4, 5])
    def test_row_on_an_edge_digit_raises(self, exp):
        # order 4: S = 4, t = 9; z^-4 and z^5 are digit 0, z^4 and z^-5
        # digit 8 = 2S
        p = LaurentPolynomial({exp: 1, 0: 2})
        with pytest.raises(RingError, match="edge"):
            packed_rows(lambda ring: [residue_pack(ring, p)], 4, 3)


# where z^0 sits, at digit offset mod t: at the bottom, one above, at the
# top, and offsets of t and more
OFFSETS = (lambda t: 0, lambda t: 1, lambda t: t - 1, lambda t: t,
           lambda t: 7 * t + 3)


class TestPackedResidue:
    @given(laurents, st.integers(1, 7), st.integers(-3, 3),
           st.sampled_from(OFFSETS))
    @settings(max_examples=120)
    def test_ring_operations_match_residue_sums(self, p, t, k, offset_of):
        # laurents have at most 8 terms with |coefficients| <= 9, so every
        # residue sum below is at most 160 < 2^9 in absolute value
        ring = PackedResidueRing(bits=10, t=t, offset=offset_of(t))
        x = residue_pack(ring, p)
        assert ring.unpack(x) == residue_class_sums(p, t)
        # any representative mod 2^(tB) - 1 unpacks to the same sums
        assert ring.unpack(x + k * ring.modulus) == residue_class_sums(p, t)
        assert ring.unpack(ring.z * x) == residue_class_sums(Z * p, t)
        assert ring.unpack(ring.z_inv * x) == residue_class_sums(ZI * p, t)
        assert ring.unpack(ring.z_inv * -x) == residue_class_sums(-ZI * p, t)
        assert (ring.unpack(x + ring.z * x)
                == residue_class_sums(p + Z * p, t))
        assert ring.unpack(x - 3 * ring.one) == residue_class_sums(p - 3, t)
        assert ring.unpack(-x) == residue_class_sums(-p, t)

    def test_z_times_z_inv_is_one(self):
        for t in (1, 2, 3, 5):
            for offset_of in OFFSETS:
                ring = PackedResidueRing(bits=4, t=t, offset=offset_of(t))
                assert ring.z * (ring.z_inv * ring.one) == ring.one

    def test_residue_beyond_t_digits_raises(self):
        # three balanced digits of 4 bits reach 7*(1 + 16 + 256) = 1911 at
        # most, so the balanced residues 1912..2047 mod M = 4095 do not decode
        ring = PackedResidueRing(bits=4, t=3, offset=0)
        assert ring.unpack(1911) == [7, 7, 7]
        assert ring.unpack(-1911) == [-7, -7, -7]
        for x in (1912, ring.modulus // 2, 1912 - 5 * ring.modulus):
            with pytest.raises(RingError):
                ring.unpack(x)

    def test_bad_parameters_rejected(self):
        with pytest.raises(RingError):
            PackedResidueRing(bits=0, t=3, offset=0)
        with pytest.raises(RingError):
            PackedResidueRing(bits=4, t=0, offset=0)
        with pytest.raises(RingError):
            PackedResidueRing(bits=4, t=3, offset=-1)


class TestPackedSymmetric:
    """Z[w], w = z + 1/z, packed at w -> 2^B on plain integers."""

    @given(st.lists(st.integers(-7, 7), max_size=9))
    @settings(max_examples=60)
    def test_decodes_powers_of_w(self, digits):
        # sum_j d_j 2^(jB) decodes to sum_j d_j (z + 1/z)^j, a polynomial
        # unchanged under z <-> 1/z; w*x is x << B
        ring = PackedSymmetricRing(4)
        x = sum(d << 4 * j for j, d in enumerate(digits))
        want, power = LAURENT.zero, LAURENT.one
        for d in digits:
            want = want + power * d
            power = power * (Z + ZI)
        assert w_laurent(ring, x, len(digits)) == want
        assert w_laurent(ring, x << 4, len(digits) + 1) == want * (Z + ZI)
        assert want.c == {-e: v for e, v in want.c.items()}

    def test_window_is_the_k_digit_range(self):
        # three balanced digits of 4 bits, each in [-8, 7], span
        # [-8*273, 7*273]; one past either end leaves a carry
        ring = PackedSymmetricRing(4)
        lo, hi = ring.window(3)
        assert (lo, hi) == (-8 * 273, 7 * 273)
        assert w_laurent(ring, hi, 3) == \
            w_laurent(ring, 7 + (7 << 4) + (7 << 8), 3)
        w_laurent(ring, lo, 3)
        for x in (lo - 1, hi + 1):
            with pytest.raises(RingError):
                w_laurent(ring, x, 3)

    def test_z_alone_and_narrow_widths_are_refused(self):
        ring = PackedSymmetricRing(4)
        for half in (ring.z, ring.z_inv):
            with pytest.raises(TypeError):
                half * 3
            with pytest.raises(TypeError):
                3 * half
        with pytest.raises(RingError):
            PackedSymmetricRing(1)


# signed 64-bit words, the edges -2^63 and 2^63 - 1 drawn often
words = st.one_of(st.sampled_from([-2**63, -1, 0, 1, 2**63 - 1]),
                  st.integers(-2**63, 2**63 - 1))


class TestBalancedDigits:
    """The 64-bit word route of ``_balanced_digits``, one ``to_bytes`` and
    one ``memoryview`` cast, against the loop that takes one digit a
    step (``helpers.balanced_digits_by_loop``)."""

    @given(st.lists(words, min_size=1, max_size=300), st.integers(-3, 3))
    @settings(max_examples=60)
    def test_words_match_the_loop(self, digits, carry):
        k = len(digits)
        x = sum(d << 64 * j for j, d in enumerate(digits)) + (carry << 64 * k)
        assert _balanced_digits(x, 64, k) == (digits, carry)
        assert balanced_digits_by_loop(x, 64, k) == (digits, carry)

    @given(st.integers(-2**800, 2**800), st.integers(1, 12))
    def test_any_integer_matches_the_loop(self, x, k):
        assert _balanced_digits(x, 64, k) == balanced_digits_by_loop(x, 64, k)

    def test_edges_at_every_length(self):
        # every digit at an edge, negative x, and a carry out of the top
        # digit, k = 1..300
        for k in range(1, 301):
            top = 1 << 64 * k
            lows = sum(-2**63 << 64 * j for j in range(k))
            highs = sum((2**63 - 1) << 64 * j for j in range(k))
            for x in (lows, highs, lows - 1, highs + 1, -1, -top, top,
                      top // 2, -top // 2, top // 2 - 1, 3 * top - 5):
                assert (_balanced_digits(x, 64, k)
                        == balanced_digits_by_loop(x, 64, k)), (k, x)
            assert _balanced_digits(lows, 64, k) == ([-2**63] * k, 0)
            assert _balanced_digits(highs, 64, k) == ([2**63 - 1] * k, 0)
            assert _balanced_digits(top // 2, 64, k) == (
                [0] * (k - 1) + [-2**63], 1)
