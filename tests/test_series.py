import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import inflate, one, packed_rows, residue_pack, theta_sum
from spt_kernel.partitions import distinct_partition_list, partition_list
from spt_kernel.rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    LaurentPolynomial,
)
from spt_kernel.series import (
    SeriesError,
    TruncatedSeries,
    geometric,
    lambert_sum,
    mul_binomial_list,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
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
        s = geometric(LAURENT, z, 2, 6)
        for k in range(4):
            assert s.coefficient(2 * k).c == {k: 1}
        assert not s.coefficient(1)

    def test_euler_inverse_counts_partitions(self):
        inv = pochhammer_inf(ZZ, 1, 1, 1, 5).invert()
        assert inv.coeffs == [len(partition_list(n)) for n in range(6)]

    def test_nonunit_constant_term_rejected(self):
        with pytest.raises(SeriesError):
            TruncatedSeries(ZZ, 4, [2, 1]).invert()

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

    @pytest.mark.parametrize("build", [
        lambda: pochhammer_inf(ZZ, 1, 1, 0, 5),           # step k < 1
        lambda: pochhammer_finite(ZZ, 1, 1, 0, 2, 5),
        lambda: pochhammer_finite(ZZ, 1, 1, 1, -1, 5),    # length n < 0
        lambda: pochhammer_inf(ZZ, 1, 0, 1, 5),           # base j < 1
        lambda: geometric(ZZ, 1, 0, 5),                   # divide at q^0
        lambda: geometric(ZZ, 1, -2, 5),
        lambda: poch_quotient(ZZ, 5, denom=[(1, 0, 1, 2)]),
        lambda: poch_quotient(ZZ, 5, start=one(ZZ, 4)),
    ])
    def test_argument_errors(self, build):
        with pytest.raises(SeriesError):
            build()


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
        s = lambert_sum(ZZ, lambda n: -1 if n % 2 else 1,
                        lambda n: 3 * n * n + 6 * n,
                        lambda n: 6 * n + 2, 5)
        assert s.coeffs == [1, 1, 1, 0, 1, 1]

    def test_lambert_negative_denominator_rewrite(self):
        # (-1) q^-3/(1-q^-4) rewrites to +q/(1-q^4)
        def only_minus_one(f):
            return lambda n: f if n == -1 else 10**6

        s = lambert_sum(ZZ, lambda n: -1, only_minus_one(-3),
                        lambda n: -4 if n == -1 else 1, 9)
        assert [n for n, c in enumerate(s.coeffs) if c] == [1, 5, 9]
        assert all(c == 1 for c in s.coeffs if c)

    def test_lambert_zero_denominator_rejected(self):
        with pytest.raises(SeriesError, match="zero series"):
            lambert_sum(ZZ, lambda n: 1, lambda n: 0 if n == 0 else 10**6,
                        lambda n: 0, 4)

    def test_divergent_sums_are_refused(self):
        # constant exponent maps give divergent sums; summing only the 15
        # scanned indices once returned 15 at q^0 and 15 q^2/(1-q)
        with pytest.raises(SeriesError, match="scanned range"):
            theta_sum(ZZ, lambda n: 0, lambda n: 1, 5)
        with pytest.raises(SeriesError, match="scanned range"):
            lambert_sum(ZZ, lambda n: 1, lambda n: 2, lambda n: 1, 5)

    def test_lambert_negative_valuation_rejected(self):
        with pytest.raises(SeriesError):
            lambert_sum(ZZ, lambda n: 1,
                        lambda n: -1 if n == 0 else 10**6,
                        lambda n: 2, 4)


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
        back = TruncatedSeries(ZZ, s.order)
        for j, comp in enumerate(s.dissect(t)):
            back = back + inflate(comp, t, s.order).shift(j)
        assert back == s

    def test_inflate(self):
        s = TruncatedSeries(ZZ, 1, [1, 1])
        assert inflate(s, 3, 4).coeffs == [1, 0, 0, 1, 0]


class TestRendering:
    def test_json_exact_integer_strings(self):
        import json

        s = TruncatedSeries(ZZ, 2, [10**30, 0, -3])
        data = json.loads(s.to_json())
        assert data["coefficients"] == [str(10**30), "0", "-3"]
        assert data["order"] == 2

    def test_sparse_text(self):
        s = TruncatedSeries(ZZ, 4, [1, 0, 2])
        assert "q^2" in repr(s) and "q^1" not in repr(s)
