from functools import partial
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bailey_majorant,
    bailey_side,
    eval_at_one,
    is_symmetric,
    narrow_ring_numerator,
    pair_crank_series,
    residue_class_sums,
    sb_by_accumulation,
    sb_side,
    spt2,
    sptbar2_by_accumulation,
    w_laurent,
    wide_ring_divided_by_d,
    wide_ring_rows,
)
from spt_kernel import series, sptcrank
from spt_kernel.partitions import (
    enumerate_overpartitions,
    spt_family,
)
from spt_kernel.rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    LaurentPolynomial,
    PackedSymmetricRing,
    RingError,
)
from spt_kernel.series import (
    TruncatedSeries,
    WindowError,
    apply_factors,
    d_factors,
    div_d_at_zeta3,
    laurent_rows,
    numerator_reach,
    numerator_residues,
    numerator_values,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
    symmetric_numerator,
)
from spt_kernel.sptcrank import (
    SptCrankTable,
    _crank_coeffs,
    _crank_majorant,
    _rank_coeffs,
    _rank_majorant,
    _sb_majorant,
    _sb_walk,
    at_zeta3,
    crank_numerator,
    crank_series,
    numerator_width,
    partition_pair_oracle,
    rank_at_zeta3,
    rank_numerator,
    rank_series,
    rank_series_bailey_sum,
    sb_at_root,
    sb_at_zeta3,
    sb_coefficients_naive,
    sb_numerator,
    sb_residues,
    sb_rows,
    sb_series,
    sptbar2_series,
    vector_partition_oracle,
)

ROW4 = LaurentPolynomial({1: 1, 0: 1, -1: 1})
ROW8 = LaurentPolynomial({3: 1, 2: 1, 1: 3, 0: 5, -1: 3, -2: 1, -3: 1})


@pytest.fixture(scope="module")
def table():
    return sb_series(30)


def sb_read_off(order, w):
    """SB(z, q) over Z at w = z + 1/z = 2 (z = 1) or -1 (z = zeta_3), as
    the congruences read it: the rows of SB*D at the run's width read at w
    (``numerator_values``) and divided by D there, (q^2; q^2)_inf^2 at
    z = 1 and D(zeta_3, q) (``div_d_at_zeta3``) at zeta_3."""
    bits = numerator_width(order)
    values = numerator_values(sb_numerator(order, bits).coeffs, bits, w)
    if w == 2:
        return apply_factors(values, denom=[(1, 2, 2, None)] * 2)
    return div_d_at_zeta3(values)


def crank_read_at_zeta3(order):
    """The crank at zeta_3 over Z as theorem 4 reads it: crank*D, z-free,
    divided by D(zeta_3, q)."""
    return TruncatedSeries(ZZ, order,
                           div_d_at_zeta3(crank_numerator(order).coeffs))


def u_sb(order, bits):
    """u SB*D, u = 2 - w, in Z[w] at w -> 2^bits: 2x - (x << bits) for each
    row x of SB*D, as theorem 2 and bailey_limit form it."""
    return [(x << 1) - (x << bits) for x in sb_numerator(order, bits).coeffs]


class TestSbSeries:
    def test_low_rows(self, table):
        assert table.rows[2] == 1
        assert table.rows[3] == 0
        assert table.rows[4] == ROW4

    def test_q8_residue_classes_mod5(self, table):
        assert table.rows[8] == ROW8
        assert residue_class_sums(table.rows[8], 5) == [5, 3, 2, 2, 3]

    def test_rows_symmetric_up_to_bound(self, table):
        # observed property, not claimed by the theory; guarded here
        for n in range(table.order + 1):
            assert is_symmetric(table.rows[n])

    def test_incremental_matches_naive_laurent(self):
        assert (sb_side(LAURENT, 24)
                == sb_coefficients_naive(LAURENT, LAURENT.z, LAURENT.z_inv, 24))

    def test_incremental_matches_naive_cyclotomic(self):
        # the packed walk evaluated at zeta_3 against summands over Z[zeta_3]
        assert (sb_at_root(30).coeffs
                == sb_coefficients_naive(CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv, 30))

    # the walk over Z[z,1/z], and SB(zeta_3, q) read off the residue sums,
    # against every summand built from scratch over the same ring
    @pytest.mark.parametrize("build, ring, z, z_inv", [
        (lambda order: sb_at_root(order).coeffs,
         CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv),
        (lambda order: sb_side(LAURENT, order),
         LAURENT, LAURENT.z, LAURENT.z_inv),
    ], ids=["zeta3", "laurent"])
    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=15, deadline=None)
    def test_walk_matches_naive(self, build, ring, z, z_inv, order):
        assert build(order) == sb_coefficients_naive(ring, z, z_inv, order)

    @given(order=st.integers(1, 30))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=20, deadline=None)
    def test_packed_rows_match_naive(self, order):
        rows = sb_series(order).rows
        assert len(rows) == order + 1
        assert list(rows) == sb_coefficients_naive(
            LAURENT, LAURENT.z, LAURENT.z_inv, order)

    def test_table_is_an_immutable_value(self, table):
        assert table == SptCrankTable(30, table.rows)
        assert table != SptCrankTable(29, table.rows[:30])
        assert repr(table) == "SptCrankTable(order=30)"
        with pytest.raises(AttributeError):
            table.order = 31
        with pytest.raises(AttributeError):
            table.note = 1
        with pytest.raises(AttributeError):
            del table.rows
        assert hash(table) == hash(SptCrankTable(30, table.rows))
        with pytest.raises(ValueError,
                           match=r"negative spt-crank count at \(m=1, n=1\)"):
            SptCrankTable(1, (LaurentPolynomial(), LaurentPolynomial({1: -1})))

    def test_make_refuses_a_negative_count(self):
        rows = (LaurentPolynomial(), LaurentPolynomial({1: -1}))
        with pytest.raises(ValueError,
                           match=r"negative spt-crank count at \(m=1, n=1\)"):
            SptCrankTable._make((1, rows))
        table = SptCrankTable._make((1, rows[:1] + (LaurentPolynomial({1: 2}),)))
        assert table == SptCrankTable(1, table.rows)

    def test_replace_refuses_a_negative_count(self, table):
        with pytest.raises(ValueError,
                           match=r"negative spt-crank count at \(m=-1, n=0\)"):
            table._replace(rows=(LaurentPolynomial({-1: -1}),))
        shorter = table._replace(order=29, rows=table.rows[:30])
        assert shorter == SptCrankTable(29, table.rows[:30])


class TestSptbar2:
    def test_known_coefficients(self):
        s = sptbar2_series(10)
        assert s.coefficient(4) == 3
        assert s.coefficient(8) == 15

    def test_matches_enumeration(self):
        s = sptbar2_series(12)
        for n in range(1, 13):
            assert s.coefficient(n) == spt_family(n, "sptbar2")

    def test_matches_z1_specialization(self, table):
        s = sptbar2_series(table.order)
        for n in range(1, table.order + 1):
            assert s.coefficient(n) == spt2(table, n)


class TestSbAtRoot:
    def test_theorem1_vanishing_pattern(self):
        s = sb_at_root(25)
        for n in range(26):
            if n % 3 in (0, 1):
                assert not s.coefficient(n), n
        assert s.coefficient(2) == CYCLO3.one

    def test_zeta5_q8_nonzero(self):
        # SB's row 8 at zeta_5 vanishes exactly when its five residue sums
        # mod 5 are equal (see test_rings); they are not
        assert len(set(sb_residues(8, 5)[8])) > 1

    def test_unsupported_order(self):
        # the zeta_3 reader refuses residue sums of another modulus
        with pytest.raises(RingError):
            at_zeta3(sb_residues(10, 7))


class TestValuesAtRootsOverZ:
    """The values at z = zeta_3 (and SB's at z = 1) that the checks read,
    walked over Z or read off the numerators in Z[w], against the other
    routes: SB's residue sums mod 3 read off SB*D in Z[w]
    (``sb_residues``), or the numerators' decoded w-digits at w = -1; and
    the summands or products over Z[zeta_3]."""

    @pytest.mark.parametrize("order", [*range(61), 300, 1000])
    def test_match_packed_residues(self, order):
        # every row is unchanged under z <-> 1/z, so its sums mod 3 have
        # s_1 = s_2, its value at zeta_3 is s_0 - s_1, and at 1 s_0 + 2 s_1
        sums = sb_residues(order, 3)
        assert all(s1 == s2 for _, s1, s2 in sums)
        assert sb_at_zeta3(order).coeffs == [s0 - s1 for s0, s1, _ in sums]
        assert sb_read_off(order, -1) == [s0 - s1 for s0, s1, _ in sums]
        assert sb_read_off(order, 2) == [s0 + 2 * s1 for s0, s1, _ in sums]

    @pytest.mark.parametrize("order", [*range(61), 300, 1000])
    def test_match_numerators_at_w_minus_one(self, order):
        # w = z + 1/z is -1 at z = zeta_3, so a numerator row sum_k d_k w^k
        # is sum_k d_k (-1)^k there; it equals the value at zeta_3 times
        # D(zeta_3, q) = (q^6; q^6)_inf / (q^2; q^2)_inf, built by
        # poch_quotient, not by the division through E of div_d_at_zeta3
        bits, reach = numerator_width(order), numerator_reach(order)
        d = poch_quotient(ZZ, order, [(1, 6, 6, None)], [(1, 2, 2, None)])
        for at_root, numerator in (
                (sb_at_zeta3, sb_numerator(order, bits)),
                (rank_at_zeta3, rank_numerator(order, bits)),
                (crank_read_at_zeta3, crank_numerator(order))):
            at_minus_one = [sum(x if k % 2 == 0 else -x
                                for k, x in enumerate(row))
                            for row in w_digits(numerator.coeffs, bits, reach)]
            assert at_minus_one == (at_root(order) * d).coeffs, \
                at_root.__name__

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 17, 30])
    def test_match_references_over_cyclotomic_integers(self, order):
        zeta = (CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv, order)
        assert (sb_at_zeta3(order).embed(CYCLO3).coeffs
                == sb_coefficients_naive(*zeta))
        assert (rank_at_zeta3(order).embed(CYCLO3)
                == rank_series_bailey_sum(*zeta))
        assert (crank_read_at_zeta3(order).embed(CYCLO3)
                == crank_by_inversion(*zeta))
        assert sb_read_off(order, 2) == sb_coefficients_naive(
            ZZ, 1, 1, order)


class TestNumeratorValues:
    """``numerator_values`` reads a packed row p(2^B) at w = 2 and w = -1
    as its balanced remainder mod 2^B - w; it must equal the row's decoded
    w-digits evaluated there, and SB read off SB*D that way must equal
    its walks over Z."""

    @pytest.mark.parametrize("order", [*range(8, 61), 300])
    def test_match_decoded_digits(self, order):
        bits, reach = numerator_width(order), numerator_reach(order)
        for numerator in (sb_numerator(order, bits),
                          rank_numerator(order, bits)):
            rows = w_digits(numerator.coeffs, bits, reach)
            for w in (2, -1):
                assert numerator_values(numerator.coeffs, bits, w) == [
                    sum(d * w ** k for k, d in enumerate(row))
                    for row in rows], w

    @pytest.mark.parametrize("order", [8, 9, 10, 50, 100, 301, 1000])
    def test_sb_read_off_matches_walks(self, order):
        assert sb_read_off(order, 2) == sptbar2_series(order).coeffs
        assert sb_read_off(order, -1) == sb_at_zeta3(order).coeffs


class TestOracles:
    def test_vector_oracle_small_values(self):
        assert vector_partition_oracle(2) == 1
        assert vector_partition_oracle(3) == 0
        assert vector_partition_oracle(4) == ROW4

    def test_pair_oracle_small_values(self):
        assert partition_pair_oracle(2) == 1
        assert partition_pair_oracle(4) == ROW4
        assert partition_pair_oracle(8) == ROW8

    def test_oracles_match_series(self, table):
        for n in range(1, 13):
            row = table.rows[n]
            assert vector_partition_oracle(n) == row
            assert partition_pair_oracle(n) == row

    def test_pair_counts_nonnegative(self):
        for n in range(1, 13):
            assert all(c >= 0 for c in partition_pair_oracle(n).c.values())


class TestPairCrankSeries:
    def test_rows_match_table(self, table):
        pcs = pair_crank_series(16)
        for n in range(17):
            assert pcs.coefficient(n) == table.rows[n]

    def test_z1_collapse(self):
        pcs = pair_crank_series(14)
        s2 = sptbar2_series(14)
        for n in range(1, 15):
            assert eval_at_one(pcs.coefficient(n)) == s2.coefficient(n)


class TestRankSeriesRoutes:
    def test_sum_form_matches_product_form(self):
        # the rank generating function has a q-hypergeometric sum form and
        a = rank_series(24)
        # a closed product form; both must agree
        b = rank_series_bailey_sum(LAURENT, LAURENT.z, LAURENT.z_inv, 24)
        assert a == b

    def test_z1_counts_overpartitions(self):
        a = rank_series(16)
        for n in range(17):
            assert eval_at_one(a.coefficient(n)) == sum(
                1 for _ in enumerate_overpartitions(n))


def laurent_at_zeta3(series):
    """A series over Z[z,1/z] at z = zeta_3, row by row through its residue
    sums mod 3."""
    return at_zeta3([residue_class_sums(row, 3) for row in series.coeffs])


def crank_by_inversion(ring, z, z_inv, order):
    """The residual-crank product from Pochhammer products and .invert()."""
    num = (pochhammer_inf(ring, -1, 1, 1, order)
           * pochhammer_inf(ring, 1, 2, 2, order))
    den = (pochhammer_inf(ring, 1, 1, 2, order)
           * pochhammer_inf(ring, z, 2, 2, order)
           * pochhammer_inf(ring, z_inv, 2, 2, order))
    return num * den.invert()


def assert_within_majorant(rows, majorant, order):
    """Row n's sum of |coefficients| is at most the coefficient of q^n of
    majorant(order), so every coefficient is below 2^(B-1) for the
    packing width B."""
    majorant = majorant(order)
    width = max(majorant).bit_length() + 1
    for row, bound in zip(rows, majorant, strict=True):
        assert sum(abs(c) for c in row.c.values()) <= bound
        assert all(abs(c) < 1 << (width - 1) for c in row.c.values())


def bailey_side_by_inversion(order):
    """The Bailey side and its prefactor from Pochhammer products and
    .invert() over the dict Laurent ring."""
    ring, z, z_inv = LAURENT, LAURENT.z, LAURENT.z_inv
    acc = TruncatedSeries(ring, order)
    for n in range(order // 2 + 1):
        num = (pochhammer_finite(ring, z, 0, 2, n, order)
               * pochhammer_finite(ring, z_inv, 0, 2, n, order)
               * pochhammer_finite(ring, 1, 1, 2, n, order)
               * pochhammer_finite(ring, 1, 1, 2, n, order))
        beta_den = pochhammer_finite(ring, 1, 2, 2, 2 * n, order)
        acc = acc + (num * beta_den.invert()).shift(2 * n)
    den = (pochhammer_inf(ring, z, 2, 2, order)
           * pochhammer_inf(ring, z_inv, 2, 2, order)
           * pochhammer_inf(ring, 1, 1, 2, order)
           * pochhammer_inf(ring, 1, 1, 2, order))
    return pochhammer_inf(ring, 1, 2, 2, order) * den.invert() * acc


def laurent_numerator(build, majorant, order):
    """A numerator X*D over Z[z,1/z], build(ring, order), read off the
    narrow packed ring (``helpers.narrow_ring_numerator``)."""
    return TruncatedSeries(LAURENT, order,
                           narrow_ring_numerator(build, majorant, order))


def bailey_numerator(order):
    """Bailey*D over Z[z,1/z], read off the narrow packed ring."""
    return laurent_numerator(bailey_side, bailey_majorant, order)


def packing_bits(majorant, order):
    """One bit more than the largest coefficient of majorant(order)."""
    return max(majorant(order)).bit_length() + 1


def sb_laurent_rows(order):
    """Rows 0..order of SB(z,q), read off SB*D in Z[w] (``sb_rows``), as
    a list of Laurent polynomials."""
    return list(sb_series(order).rows)


def rows_over_d(rows):
    """Rows 0..m of X over Z[z,1/z], m = len(rows) - 1, from rows 0..m of
    its numerator X*D as Laurent polynomials, which need not be
    symmetric: packed in z at one offset as plain integers and divided by
    D row by row (``series._rows_over_d``, window K =
    ``numerator_reach(m)``), at the width of
    ``helpers.wide_ring_divided_by_d``."""
    bits = max(apply_factors([sum(map(abs, p.c.values())) for p in rows],
                             denom=[(1, 2, 2, None)] * 2)).bit_length() + 1
    base = max([-e for p in rows for e in p.c] + [0])
    values = [sum(v << bits * (e + base) for e, v in p.c.items())
              for p in rows]
    return [series._laurent(digits, o) for digits, o in series._rows_over_d(
        values, bits, base, numerator_reach(len(rows) - 1))]


class TestPackedSeries:
    """The rank, crank and Bailey-side rows, read off their numerators,
    against dict-Laurent references built by another formula or by Cauchy
    products and .invert(), and the numerators within the majorants that
    fixed their packing width."""

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_rank_matches_bailey_sum(self, order):
        rank = rank_series(order)
        assert rank == rank_series_bailey_sum(
            LAURENT, LAURENT.z, LAURENT.z_inv, order)
        assert_within_majorant(
            narrow_ring_numerator(_rank_coeffs, _rank_majorant, order),
            _rank_majorant, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_crank_matches_inverted_products(self, order):
        crank = crank_series(order)
        assert crank == crank_by_inversion(LAURENT, LAURENT.z, LAURENT.z_inv,
                                           order)
        assert_within_majorant(crank_numerator(order).embed(LAURENT).coeffs,
                               _crank_majorant, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_bailey_side_matches_inverted_products(self, order):
        # the rows of the Bailey side, back from its numerator Bailey*D
        numerator = bailey_numerator(order).coeffs
        want = bailey_side_by_inversion(order).coeffs
        assert wide_ring_divided_by_d(numerator) == want
        assert_within_majorant(numerator, bailey_majorant, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_rank_at_zeta3_matches_bailey_sum(self, order):
        want = rank_series_bailey_sum(CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv,
                                      order)
        assert laurent_at_zeta3(rank_series(order)) == want

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_crank_at_zeta3_matches_inverted_products(self, order):
        want = crank_by_inversion(CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv, order)
        assert laurent_at_zeta3(crank_series(order)) == want

    def test_sb_rows_within_majorant(self):
        assert_within_majorant(sb_series(40).rows, _sb_majorant, 40)


class TestWordRows:
    """Rows of X whose proven width is at most 64 bits are packed at 64,
    where ``rings._balanced_digits`` reads whole machine words; read at
    the proven width plus one bit, where it takes one digit a step, the
    same numerator gives the same rows."""

    @pytest.mark.parametrize("order", [200, 250])
    def test_sb_rows_match_the_digit_loop(self, monkeypatch, order):
        original = series._rows_over_d
        widths = []

        def recorded(values, bits, base, reach):
            widths.append(bits)
            return original(values, bits, base, reach)

        monkeypatch.setattr(series, "_rows_over_d", recorded)
        rows = list(sb_rows(order))
        assert widths == [64]
        bits = sptcrank._sb_bits(order)
        reach = numerator_reach(order) + 1
        w_rows = list(series._w_digits(sb_numerator(order, bits).coeffs,
                                       bits, reach))
        width = max(apply_factors(
            [sum(abs(d) << j for j, d in enumerate(row)) for row in w_rows],
            denom=[(1, 2, 2, None)] * 2)).bit_length() + 2
        assert width < 64
        assert rows == list(original(
            [series._horner_in_z(row, width, reach) for row in w_rows],
            width, reach, numerator_reach(order)))


# name, numerator X*D, the full rows of X, the majorant of X*D; the Bailey
# side has no builder of its own full rows: they are the reference read of
# its numerator (``helpers.wide_ring_divided_by_d``), compared with
# inverted products in TestPackedSeries
NUMERATORS = [
    ("sb", partial(laurent_numerator, _sb_walk, _sb_majorant),
     lambda order: TruncatedSeries(LAURENT, order, sb_laurent_rows(order)),
     _sb_majorant),
    ("rank", partial(laurent_numerator, _rank_coeffs, _rank_majorant),
     rank_series, _rank_majorant),
    ("crank", lambda order: crank_numerator(order).embed(LAURENT),
     crank_series, _crank_majorant),
    ("bailey", bailey_numerator,
     lambda order: TruncatedSeries(LAURENT, order, wide_ring_divided_by_d(
         bailey_numerator(order).coeffs)),
     bailey_majorant),
]


class TestNumerators:
    """The numerators X*D, D = (z q^2, q^2/z; q^2)_inf, that theorem 2 and
    the limiting Bailey instance compare, read off the ring of z-reach
    K = isqrt(N) + 2, against the full rows of X times D in the dict
    Laurent ring."""

    @pytest.mark.parametrize("order", [*range(1, 61), 300])
    def test_bailey_side_is_crank_plus_u_sb(self, order):
        # the left side of bailey_limit, crank*D + (2 - z - 1/z) SB*D,
        # against the Bailey-lemma walk from n = 0 with its own step
        u = LaurentPolynomial({1: -1, 0: 2, -1: -1})
        lhs = (crank_numerator(order).embed(LAURENT)
               + laurent_numerator(_sb_walk, _sb_majorant, order).scale(u))
        assert lhs.coeffs == narrow_ring_numerator(bailey_side,
                                                   bailey_majorant, order)

    @pytest.mark.parametrize("order", [4, 5, 9, 40, 41, 100])
    @pytest.mark.parametrize("name, numerator, full, majorant", NUMERATORS,
                             ids=[n[0] for n in NUMERATORS])
    def test_full_rows_times_d(self, name, numerator, full, majorant, order):
        num, rows = numerator(order), full(order)
        d = poch_quotient(LAURENT, order, d_factors(LAURENT))
        assert num == rows * d
        reach = numerator_reach(order) - 1
        assert all(abs(e) <= reach for row in num.coeffs for e in row.c)
        assert_within_majorant(num.coeffs, majorant, order)
        # the rows of X back from X*D by the reference read
        assert wide_ring_divided_by_d(num.coeffs) == rows.coeffs

    @pytest.mark.parametrize("side", ["z", "z_inv"])
    def test_row_at_the_reach_raises(self, side):
        # a z^K or z^-K term added to the top row of SB*D at order 40, K = 8
        order = 40
        power = numerator_reach(order)

        def build(ring, order):
            rows = _sb_walk(ring, order)
            x = ring.one
            for _ in range(power):
                x = (ring.z if side == "z" else ring.z_inv) * x
            rows[order] = rows[order] + x
            return rows

        with pytest.raises(RingError, match="edge"):
            narrow_ring_numerator(build, _sb_majorant, order)


class TestReferencesShareNoThetaKernel:
    """The z reads that the numerators in Z[w] and the full rows are
    checked against write D out and divide by it through D's binomial
    passes (``d_factors``), never through Jacobi's triple product, the
    route of the kernels under test."""

    @pytest.mark.parametrize("order", [12, 40])
    def test_no_theta_call(self, monkeypatch, order):
        calls = []

        def counted(name):
            original = getattr(series, name)

            def kernel(*args):
                calls.append(name)
                return original(*args)
            return kernel

        for name in ("theta_list", "div_theta_list"):
            monkeypatch.setattr(series, name, counted(name))
        numerators = [(_sb_walk, _sb_majorant), (_rank_coeffs, _rank_majorant),
                      (_crank_coeffs, _crank_majorant),
                      (bailey_side, bailey_majorant)]
        for build, majorant in numerators:
            narrow_ring_numerator(build, majorant, order)
        for build, majorant in (numerators[0], numerators[3]):
            wide_ring_rows(build, majorant, order)
        wide_ring_divided_by_d(narrow_ring_numerator(_rank_coeffs, _rank_majorant, order))
        assert calls == []
        # the production routes do reach them: rank*D writes E in w, and
        # SB's residues divide by it
        rank_numerator(order, numerator_width(order))
        sb_residues(order, 3)
        assert calls == ["theta_list", "div_theta_list"]


def w_digits(values, bits, digits):
    """The balanced base-2^bits digits of each packed value, lowest first,
    with no carry left."""
    rows = []
    for x in values:
        row, carry = series._balanced_digits(x, bits, digits)
        assert not carry
        rows.append(row)
    return rows


@pytest.fixture(scope="module")
def top_numerators():
    """For N = 400 and 1000: the width B of ``numerator_width(N)``, and
    SB*D and rank*D to q^N, each as its rows in Z[w] packed at B and as
    the z read of the narrow packed ring (``narrow_ring_numerator``)."""
    out = {}
    for top in (400, 1000):
        bits = numerator_width(top)
        out[top] = bits, [
            (numerator(top, bits).coeffs,
             narrow_ring_numerator(build, majorant, top))
            for numerator, build, majorant in (
                (sb_numerator, _sb_walk, _sb_majorant),
                (rank_numerator, _rank_coeffs, _rank_majorant))]
    return out


class TestSymmetricNumerators:
    """SB*D and rank*D in Z[w], w = z + 1/z, on plain integers at a run's
    one width (``numerator_width``), against the z read of the narrow
    packed ring (``helpers.narrow_ring_numerator``), and that width
    against the digits it must bound."""

    @pytest.mark.parametrize("top", [400, 1000])
    def test_decode_to_z_reference(self, top_numerators, top):
        bits, numerators = top_numerators[top]
        ring = PackedSymmetricRing(bits)
        reach = numerator_reach(top)
        for values, rows in numerators:
            assert [w_laurent(ring, x, reach) for x in values] == rows

    @pytest.mark.parametrize("order", range(0, 401))
    def test_every_order_matches_z_reference(self, top_numerators, order):
        # row n of a numerator to q^N is the same for every N >= n, so at
        # the width of order 400, the widest any order below needs, the
        # rows built to q^order are the first rows built to q^400, which
        # decode to the z read (test_decode_to_z_reference)
        bits, numerators = top_numerators[400]
        for numerator, (values, _) in zip((sb_numerator, rank_numerator),
                                          numerators):
            got = numerator(order, bits)
            assert (got.ring, got.order) == (ZZ, order)
            assert got.coeffs == values[:order + 1], numerator.__name__

    @pytest.mark.parametrize("order", range(0, 301))
    def test_width_bounds_every_digit(self, order):
        # each side the checks compare, built 16 bits wider than the run's
        # width B: every w-digit is below 2^(B-1), so at B the packing is
        # exact, and SB*D's and rank*D's digits sum to at most their
        # majorants (SB's product majorant for SB*D), as the proof in
        # numerator_width's docstring has it
        bits = numerator_width(order)
        wide = bits + 16
        digits = numerator_reach(order) + 1
        sb = sb_numerator(order, wide).coeffs
        u_sb = [(x << 1) - (x << wide) for x in sb]
        rank = rank_numerator(order, wide).coeffs
        crank = crank_numerator(order).coeffs
        sides = {
            "sb": sb, "u-sb": u_sb, "rank": rank,
            "rank-minus-crank": [a - b for a, b in zip(rank, crank)],
            "crank-plus-u-sb": [a + b for a, b in zip(crank, u_sb)],
        }
        for name, values in sides.items():
            for n, row in enumerate(w_digits(values, wide, digits)):
                assert max(map(abs, row)) < 1 << (bits - 1), (name, n)
        for values, majorant in ((sb, _sb_majorant), (rank, _rank_majorant)):
            bound = majorant(order)
            for n, row in enumerate(w_digits(values, wide, digits)):
                assert sum(map(abs, row)) <= bound[n], (majorant, n)

    @pytest.mark.parametrize("order", [0, 1, 4, 40, 300])
    def test_width_is_one_bit_above_the_widest_side(self, order):
        # B = max(B_SB + 2, B_rank, B_crank) + 1: u = 2 - w takes SB*D two
        # bits wider, and a sum of two sides one more
        assert numerator_width(order) == max(
            packing_bits(_sb_majorant, order) + 2,
            packing_bits(_rank_majorant, order),
            packing_bits(_crank_majorant, order)) + 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_row_at_the_reach_raises(self, sign):
        # w^(K-1) added to the top row of SB*D at order 40, K = 8, fits its
        # K digits; w^K or w^(K+1) is refused as a z-row at z^-K or z^K is
        order = 40
        reach, bits = numerator_reach(order), numerator_width(order)
        for power in (reach - 1, reach, reach + 1):
            def build(ring, order):
                rows = _sb_walk(ring, order)
                rows[order] += sign << bits * power
                return rows

            if power < reach:
                # w^(K-1) = (z + 1/z)^(K-1) on the row, the others as they are
                term = LaurentPolynomial({0: sign})
                for _ in range(power):
                    term = term * (LAURENT.z + LAURENT.z_inv)
                rows = symmetric_numerator(build, order, bits)
                want = laurent_numerator(_sb_walk, _sb_majorant, order).coeffs
                want[order] = want[order] + term
                ring = PackedSymmetricRing(bits)
                assert [w_laurent(ring, x, reach) for x in rows] == want
                continue
            with pytest.raises(WindowError) as exc:
                symmetric_numerator(build, order, bits)
            assert (exc.value.n, exc.value.reach) == (order, reach)


class TestSbMajorant:
    """SB's one majorant, the product ``_sb_majorant``, as the bound of
    SB*D in Z[w] that ``numerator_width`` proves: it dominates the
    majorant of SB*D's walk (``helpers.sb_by_accumulation`` with bound,
    z = 1/z = -1 in the uncancelled step), and with the other two
    products it gives the run its width."""

    def test_dominates_the_walk_majorant(self):
        for order in range(301):
            product = _sb_majorant(order)
            walk = sb_by_accumulation(ZZ, order, True)
            assert len(product) == len(walk) == order + 1
            assert all(p >= w for p, w in zip(product, walk)), order

    def test_bounds_every_w_row(self):
        # Sigma |w-digits| of every row of SB*D to q^300, packed 16 bits
        # wider than the width the product sets
        order = 300
        majorant = _sb_majorant(order)
        bits = max(majorant).bit_length() + 1
        rows = w_digits(sb_numerator(order, bits + 16).coeffs, bits + 16,
                        numerator_reach(order))
        for n, row in enumerate(rows):
            assert sum(map(abs, row)) <= majorant[n], n
            assert max(map(abs, row)) < 1 << (bits - 1), n

    def test_width_is_the_product_majorants(self):
        # the width max(B_SB + 2, B_rank, B_crank) + 1 from the three
        # products, at every order 4..400
        for order in range(4, 401):
            assert numerator_width(order) == max(
                packing_bits(_sb_majorant, order) + 2,
                packing_bits(_rank_majorant, order),
                packing_bits(_crank_majorant, order)) + 1, order


def lambert_rank_majorant(order):
    """The majorant that rank*D's Lambert form gives term by term, over Z
    at |z| = 1: D's (-q^2; q^2)_inf^2 plus, for each n >= 1 with
    n^2 + 2n <= order, 8 q^{n^2+2n} (-q^2; q^2)_inf^2 / (1 - q^{2n})^2,
    times the prefactor's (-q;q)_inf / (q;q)_inf."""
    d = poch_quotient(ZZ, order, [(-1, 2, 2, None)] * 2).coeffs
    inner = list(d)
    n = 1
    while n * n + 2 * n <= order:
        e = n * n + 2 * n
        term = apply_factors([8 * x for x in d[:order - e + 1]],
                             denom=[(1, 2 * n, 1, 1)] * 2)
        for i, x in enumerate(term, e):
            inner[i] += x
        n += 1
    return apply_factors(inner, [(-1, 1, 1, None)], [(1, 1, 1, None)])


class TestRankMajorant:
    """rank*D's one majorant, the product ``_rank_majorant`` read off the
    rank's definition, as the bound of rank*D in z and in Z[w] that
    ``numerator_width`` proves, and the run's width that it leaves to
    SB's product from order 18 up."""

    def test_bounds_every_z_row(self):
        for order in range(61):
            majorant = _rank_majorant(order)
            rows = _rank_coeffs(LAURENT, order)
            assert len(rows) == len(majorant) == order + 1
            for n, (row, bound) in enumerate(zip(rows, majorant)):
                assert sum(map(abs, row.c.values())) <= bound, (order, n)

    @pytest.mark.parametrize("order", [*range(61), 300])
    def test_bounds_every_w_row(self, order):
        # Sigma |w-digits| of every row of rank*D, packed 16 bits wider
        # than the run's width
        majorant = _rank_majorant(order)
        wide = numerator_width(order) + 16
        rows = w_digits(rank_numerator(order, wide).coeffs, wide,
                        numerator_reach(order))
        for n, row in enumerate(rows):
            assert sum(map(abs, row)) <= majorant[n], n

    def test_width_is_sb_majorant_from_order_18(self):
        # B_SB + 2 + 1 with B_SB one bit more than SB's largest coefficient
        for order in range(18, 401):
            assert numerator_width(order) == \
                max(_sb_majorant(order)).bit_length() + 4, order

    def test_never_wider_than_the_lambert_width(self):
        # the width with rank*D's Lambert majorant in place of the product:
        # never narrower from order 3 up, and 1 bit narrower at orders 1
        # and 2, below every check's least order
        for order in range(1, 401):
            lambert = max(packing_bits(_sb_majorant, order) + 2,
                          max(lambert_rank_majorant(order)).bit_length() + 1,
                          packing_bits(_crank_majorant, order)) + 1
            assert numerator_width(order) <= lambert + (order < 3), order
            if order < 3:
                assert numerator_width(order) == lambert + 1, order

    @pytest.mark.parametrize("order, bits", [
        (4, 8), (10, 11), (18, 15), (40, 25), (100, 43), (300, 81),
        (1000, 157), (2000, 228), (4000, 329), (6000, 407)])
    def test_pinned_widths(self, order, bits):
        assert numerator_width(order) == bits


def record_sb_residues(build, order, t):
    """build(order, t), ``sb_residues``, recorded: (walks, calls), the ring
    and the widest value of every summand walk, and every list kernel
    called inside ``numerator_residues``, as (name, its arguments after
    the list, the widest value handed in)."""
    walks, calls, inside = [], [], []
    with pytest.MonkeyPatch.context() as patch:
        walk = sptcrank.summand_walk

        def walked(ring, *args):
            values = walk(ring, *args)
            walks.append((ring, max(abs(x).bit_length() for x in values)))
            return values

        residues = sptcrank.numerator_residues

        def read(*args):
            inside.append(True)
            try:
                return residues(*args)
            finally:
                inside.pop()

        def recorded(name):
            original = getattr(series, name)

            def kernel(a, *args):
                if inside:
                    calls.append((name, args, max(
                        (abs(x).bit_length() for x in a), default=0)))
                return original(a, *args)
            return kernel

        patch.setattr(sptcrank, "summand_walk", walked)
        patch.setattr(sptcrank, "numerator_residues", read)
        for name in ("mul_binomial_list", "div_binomial_list",
                     "mul_w_pair_list", "div_w_pair_list", "mul_eta_list",
                     "div_eta_list", "div_theta_list"):
            patch.setattr(series, name, recorded(name))
        build(order, t)
    return walks, calls


def structure_moduli(order):
    """t = 1, 3, 2K + 2 (the first ring wider than a numerator's window,
    K = ``numerator_reach(order)``) and 2N + 1, the widest."""
    return 1, 3, 2 * numerator_reach(order) + 2, 2 * order + 1


class TestNumeratorShape:
    """SB's residue sums at every t, read off one walk, SB*D in Z[w],
    whose values hold K = isqrt(N) + 2 w-digits whatever t is, and
    divided by D once on the residue ring; and SB's full rows against the
    dict references."""

    @pytest.mark.parametrize("order", [40, 300])
    def test_walk_stays_numerator_wide(self, order):
        # one summand walk, on PackedSymmetricRing, at most K*B bits wide;
        # on the residue ring no binomial or pair pass
        reach = numerator_reach(order)
        for t in structure_moduli(order):
            walks, calls = record_sb_residues(sb_residues, order, t)
            assert [type(ring) for ring, _ in walks] == \
                [PackedSymmetricRing], t
            ((ring, widest),) = walks
            assert widest <= reach * ring.bits, t
            assert not [name for name, _, _ in calls
                        if "binomial" in name or "pair" in name], t

    @pytest.mark.parametrize("order", [40, 300])
    @pytest.mark.parametrize("build", [sb_residues], ids=["sb"])
    def test_d_is_divided_last(self, build, order):
        # on the residue ring exactly one division by E, then the
        # multiplication by (q^2; q^2)_inf, D's other factor, and nothing
        # else; every value handed to the division is below 2^(tB)
        for t in structure_moduli(order):
            _, calls = record_sb_residues(build, order, t)
            assert [(name, args[0] if name == "mul_eta_list" else None)
                    for name, args, _ in calls] == [
                ("div_theta_list", None), ("mul_eta_list", 2)], t
            (_, (ring,), widest) = calls[0]
            assert ring.t == t
            assert widest <= t * ring.bits, t

    def test_full_rows_match_dict_references(self):
        # orders 1..40 take in rows whose window [-r, r],
        # r = max(n//2 + 1, K), is set by K = isqrt(order) + 2 (the low
        # rows, and every row at orders 1 to 5) and by n//2 + 1; the
        # references to order 40 truncate to each lower order.  SB's rows
        # are read off SB*D in Z[w], the Bailey side's by the reference
        # read of one wide ring
        top = 40
        sb = sb_coefficients_naive(LAURENT, LAURENT.z, LAURENT.z_inv, top)
        bailey = bailey_side_by_inversion(top).coeffs
        for order in range(1, top + 1):
            assert sb_laurent_rows(order) == sb[:order + 1], order
            assert wide_ring_rows(bailey_side, bailey_majorant, order) == \
                bailey[:order + 1], order


# u = 2 - z - 1/z: u*SB*D is theorem 2's left side, and its rows reach one
# power of z further than SB's
U = LaurentPolynomial({1: -1, 0: 2, -1: -1})

# the numerators whose rows a failing check divides by D: as Laurent rows
# from the narrow ring or the Bailey side's own walk, and in Z[w] at a
# run's width, as the checks build them (bailey_limit's left side
# crank*D + u SB*D)
REPORTED = [
    ("u-sb",
     lambda order: laurent_numerator(_sb_walk, _sb_majorant, order).scale(U).coeffs,
     u_sb),
    ("rank-minus-crank", lambda order: (
        laurent_numerator(_rank_coeffs, _rank_majorant, order)
        - crank_numerator(order).embed(LAURENT)).coeffs,
     lambda order, bits: (rank_numerator(order, bits)
                          - crank_numerator(order)).coeffs),
    ("bailey", lambda order: bailey_numerator(order).coeffs,
     lambda order, bits: list(map(add, crank_numerator(order).coeffs,
                                  u_sb(order, bits)))),
]


# the full rows of each series, read off their numerators in Z[w]
# (``numerator_rows``), and their reference on one ring of t = 2S + 1
# digits: SB's from its walk, the rank's and the crank's from the z read
# of their numerators
FULL_ROWS = [
    ("sb", sb_laurent_rows, partial(wide_ring_rows, _sb_walk, _sb_majorant)),
    ("rank", lambda order: rank_series(order).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_rank_coeffs, _rank_majorant, order))),
    ("crank", lambda order: crank_series(order).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_crank_coeffs, _crank_majorant, order))),
]


class TestFullRows:
    """The full rows, each read off a numerator in Z[w] and divided by D
    at its own width, against the reference that reads every row off one
    ring of t = 2S + 1 digits (``helpers.wide_ring_rows``)."""

    @pytest.mark.parametrize("order", [*range(1, 13), 60, 300])
    @pytest.mark.parametrize("rows, reference",
                             [f[1:] for f in FULL_ROWS],
                             ids=[f[0] for f in FULL_ROWS])
    def test_matches_wide_ring(self, rows, reference, order):
        assert rows(order) == reference(order)

    @pytest.mark.parametrize("order", [*range(1, 13), 60, 300])
    @pytest.mark.parametrize("name, numerator, packed", REPORTED,
                             ids=[r[0] for r in REPORTED])
    def test_divided_by_d_matches_wide_ring(self, name, numerator, packed,
                                            order):
        # the rows a failing check reports (``numerator_rows``), against
        # the reference read of the same numerator built in z
        bits = numerator_width(order)
        assert laurent_rows(packed(order, bits), bits, order) == \
            wide_ring_divided_by_d(numerator(order))

    @pytest.mark.parametrize("order", [4, 5, 9, 12, 40, 41, 100])
    @pytest.mark.parametrize("sign", [1, -1], ids=["z", "z_inv"])
    def test_last_row_window(self, order, sign):
        # the window of row n of the division by D is [-r, r],
        # r = max(n//2 + 1, K): at the orders below 12, K = isqrt(n) + 2
        # is the larger.  A term two powers out is refused too, wherever
        # the row is held.  Rows in Z[w] are symmetric, so the one-sided
        # term goes on a z-row of SB*D, divided by D as numerator_rows
        # divides its rows (rows_over_d)
        reach = max(order // 2 + 1, numerator_reach(order))
        want = sb_series(order).rows[order]
        for power, fits in ((reach, True), (reach + 1, False),
                            (reach + 2, False)):
            rows = laurent_numerator(_sb_walk, _sb_majorant, order).coeffs
            term = LaurentPolynomial({sign * power: 1})
            rows[order] = rows[order] + term
            if fits:
                assert rows_over_d(rows)[order] == want + term
                continue
            with pytest.raises(WindowError) as exc:
                rows_over_d(rows)
            assert (exc.value.n, exc.value.reach) == (order, reach + 1)

    def test_each_row_has_its_own_offset(self):
        # o = max(i//2 + 1, K) + 1: K + 1 for the first rows, N//2 + 2 for
        # the last, rising by at most one from row to row
        rows = sb_rows(300)
        digits, o = next(rows)
        assert (digits, o) == ([0] * (2 * o + 1), numerator_reach(300) + 1)
        offsets = [o for _, o in rows]
        assert offsets[-1] == 300 // 2 + 2
        assert all(b - a in (0, 1) for a, b in zip(offsets, offsets[1:]))


class TestHornerWalk:
    """The Horner-form ``summand_walk`` against the summand-by-summand walk
    of the test helpers, over Z and the dict Laurent ring, where z and 1/z
    are two binomial passes (in Z[w] the walk pairs them:
    ``TestSymmetricNumerators`` reads it in z)."""

    @pytest.mark.parametrize("order", [*range(1, 61), 301])
    def test_matches_accumulation(self, order):
        # SB's majorant is a product, not a walk (TestSbMajorant)
        assert _sb_walk(ZZ, order) == sb_by_accumulation(ZZ, order)
        assert sptbar2_series(order).coeffs == sptbar2_by_accumulation(order)
        if order <= 60:
            assert _sb_walk(LAURENT, order) == \
                sb_by_accumulation(LAURENT, order)


def residue_moduli(order):
    """Small moduli, order + 1 and 2*order + 1, and t = 2K + 1 and
    2K + 2, K = ``numerator_reach(order)``: the widest ring a numerator's
    window fills, and the first one wider."""
    reach = numerator_reach(order)
    return sorted({1, 2, 3, 5, 7, 2 * reach + 1, 2 * reach + 2, order + 1,
                   2 * order + 1})


def residue_width(order, rows):
    """A width for ``numerator_residues`` of a numerator whose quotient
    has these Laurent rows: ``numerator_width(order)``, which bounds the
    w-digits of each numerator the checks compare, or one bit more than
    the largest sum of |coefficients| of a row, which bounds its residue
    sums, whichever is wider."""
    return max(numerator_width(order), max(
        sum(map(abs, row.c.values())) for row in rows).bit_length() + 1)


# the numerators X*D in Z[w] whose residue sums ``numerator_residues``
# reads, each named after the builder of X*D, with X's rows by another
# route: SB's off the same walk by the row reader (``sb_rows``), the
# rank's and the crank's by the reference read of their numerators in z,
# and the Bailey side's, crank*D + u SB*D, off its own walk
RESIDUE_NUMERATORS = [
    ("_sb_walk", lambda order, bits: sb_numerator(order, bits).coeffs,
     sb_laurent_rows),
    ("_rank_coeffs", lambda order, bits: rank_numerator(order, bits).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_rank_coeffs, _rank_majorant, order))),
    ("_crank_coeffs", lambda order, bits: crank_numerator(order).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_crank_coeffs, _crank_majorant, order))),
    ("bailey_side", lambda order, bits: list(map(
        add, crank_numerator(order).coeffs, u_sb(order, bits))),
     partial(wide_ring_rows, bailey_side, bailey_majorant)),
]


@pytest.fixture(scope="module")
def naive_rows():
    """SB's rows to q^40, every summand built from scratch; row n is the
    same at every order from n up."""
    return sb_coefficients_naive(LAURENT, LAURENT.z, LAURENT.z_inv, 40)


class TestPackedResidues:
    """Residue sums mod t read off a numerator X*D in Z[w], its rows
    carried into Z[z]/(z^t - 1) and divided by D there
    (``numerator_residues``, ``sb_residues``), against the residue sums of
    X's Laurent rows from other routes."""

    # every order to 12 is an example: there K = isqrt(order) + 2 sets the
    # window of the last rows of the full rows, not order//2 + 1
    @pytest.mark.parametrize("name, numerator, rows", RESIDUE_NUMERATORS,
                             ids=[r[0] for r in RESIDUE_NUMERATORS])
    @given(order=st.integers(1, 60))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @example(order=4)
    @example(order=5)
    @example(order=6)
    @example(order=7)
    @example(order=8)
    @example(order=9)
    @example(order=10)
    @example(order=11)
    @example(order=12)
    @settings(max_examples=8, deadline=None)
    def test_matches_laurent_rows(self, name, numerator, rows, order):
        want = rows(order)
        bits = residue_width(order, want)
        values = numerator(order, bits)
        for t in residue_moduli(order):
            assert numerator_residues(values, bits, t) == [
                residue_class_sums(row, t) for row in want], t

    @pytest.mark.parametrize("name", ["sb", "rank"])
    def test_matches_laurent_rows_at_order_300(self, name):
        # t = 3, 5, 2K + 1, 2K + 2 and 2N + 1; SB's through sb_residues
        order = 300
        reach = numerator_reach(order)
        if name == "sb":
            want = sb_laurent_rows(order)
            read = partial(sb_residues, order)
        else:
            want = rank_series(order).coeffs
            bits = residue_width(order, want)
            read = partial(numerator_residues,
                           rank_numerator(order, bits).coeffs, bits)
        for t in (3, 5, 2 * reach + 1, 2 * reach + 2, 2 * order + 1):
            assert read(t) == [residue_class_sums(row, t) for row in want], t

    def test_sb_residues_match_naive_rows(self, naive_rows):
        # an independent route: SB*D's walk shares nothing with the
        # summands built one by one over the dict Laurent ring
        for order in range(1, 41):
            for t in residue_moduli(order):
                assert sb_residues(order, t) == [
                    residue_class_sums(row, t)
                    for row in naive_rows[:order + 1]], (order, t)

    def test_sb_residues_match_table(self, table):
        assert sb_residues(table.order, 5) == [
            residue_class_sums(table.rows[n], 5)
            for n in range(table.order + 1)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_digit_at_the_reach_raises(self, sign):
        # at order 4, K = 4, with the rows below zero: w^(K-1) on the top
        # row of X*D is the top row of X, as D = 1 mod q; a w-digit at w^K
        # on row 2 leaves a carry out of the K digits, refused as a row at
        # the edge of the window
        order, bits = 4, 8
        reach = numerator_reach(order)
        values = [0] * (order + 1)
        values[order] = sign << bits * (reach - 1)
        top = LaurentPolynomial({0: sign})
        for _ in range(reach - 1):
            top = top * (LAURENT.z + LAURENT.z_inv)
        for t in (1, 3, 2 * reach + 1):
            assert numerator_residues(values, bits, t) == \
                [[0] * t] * order + [residue_class_sums(top, t)], t
        values[2] = sign << bits * reach
        with pytest.raises(WindowError) as exc:
            numerator_residues(values, bits, 3)
        assert (exc.value.n, exc.value.reach) == (2, reach)

    def test_negative_residue_sum_refused(self, monkeypatch):
        monkeypatch.setattr(sptcrank, "numerator_residues",
                            lambda values, bits, t: [[0] * t, [1, -1, 0]])
        with pytest.raises(ValueError, match="negative"):
            sb_residues(1, 3)
