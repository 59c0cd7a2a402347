from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bailey_side,
    eval_at_one,
    is_symmetric,
    narrow_ring_numerator,
    pair_crank_series,
    residue_class_sums,
    sb_by_accumulation,
    spt2,
    sptbar2_by_accumulation,
    w_laurent,
    wide_ring_divided_by_d,
    wide_ring_rows,
)
from spt_kernel import series
from spt_kernel.partitions import (
    enumerate_overpartitions,
    spt_family,
)
from spt_kernel.rings import (
    CYCLO3,
    LAURENT,
    ZZ,
    LaurentPolynomial,
    PackedResidueRing,
    PackedSymmetricRing,
    RingError,
)
from spt_kernel.series import (
    TruncatedSeries,
    WindowError,
    apply_factors,
    d_factors,
    laurent_rows,
    numerator_reach,
    packed_residues,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
    symmetric_numerator,
)
from spt_kernel.sptcrank import (
    SptCrankTable,
    _crank_coeffs,
    _rank_coeffs,
    _sb_walk,
    at_zeta3,
    crank_at_zeta3,
    crank_numerator,
    crank_series,
    numerator_width,
    partition_pair_oracle,
    rank_at_zeta3,
    rank_numerator,
    rank_series,
    rank_series_bailey_sum,
    sb_at_one,
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
from spt_kernel.verify import u_sb_numerator

# SB's numerator SB*D: the SB walk with cleared, as every numerator
# builder is called, build(ring, order) and build(ZZ, order, True); the
# latter is SB's one majorant, which bounds SB*D too
SB_NUMERATOR = partial(_sb_walk, cleared=True)

ROW4 = LaurentPolynomial({1: 1, 0: 1, -1: 1})
ROW8 = LaurentPolynomial({3: 1, 2: 1, 1: 3, 0: 5, -1: 3, -2: 1, -3: 1})


@pytest.fixture(scope="module")
def table():
    return sb_series(30)


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
        assert (_sb_walk(LAURENT, 24)
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
        (lambda order: _sb_walk(LAURENT, order),
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
    walked over Z, against the two other routes: SB's residue sums mod 3
    on the packed ring, or the rank's and crank's numerators in Z[w] read
    at w = -1; and the summands or products over Z[zeta_3]."""

    @pytest.mark.parametrize("order", [*range(61), 300, 1000])
    def test_match_packed_residues(self, order):
        # every row is unchanged under z <-> 1/z, so its sums mod 3 have
        # s_1 = s_2, its value at zeta_3 is s_0 - s_1, and at 1 s_0 + 2 s_1
        sums = packed_residues(_sb_walk, order, 3)
        assert all(s1 == s2 for _, s1, s2 in sums)
        assert sb_at_zeta3(order).coeffs == [s0 - s1 for s0, s1, _ in sums]
        assert sb_at_one(order).coeffs == [s0 + 2 * s1 for s0, s1, _ in sums]

    @pytest.mark.parametrize("order", [*range(61), 300, 1000])
    def test_match_numerators_at_w_minus_one(self, order):
        # w = z + 1/z is -1 at z = zeta_3, so a numerator row sum_k d_k w^k
        # is sum_k d_k (-1)^k there; it equals the value at zeta_3 times
        # D(zeta_3, q) = (q^6; q^6)_inf / (q^2; q^2)_inf, built by
        # poch_quotient, not by the division through E of div_d_at_zeta3
        bits, reach = numerator_width(order), numerator_reach(order)
        d = poch_quotient(ZZ, order, [(1, 6, 6, None)], [(1, 2, 2, None)])
        for at_root, numerator in (
                (rank_at_zeta3, rank_numerator(order, bits)),
                (crank_at_zeta3, crank_numerator(order))):
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
        assert (crank_at_zeta3(order).embed(CYCLO3)
                == crank_by_inversion(*zeta))
        assert sb_at_one(order).coeffs == sb_coefficients_naive(
            ZZ, 1, 1, order)


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


def assert_within_majorant(rows, build, order):
    """Row n's sum of |coefficients| is at most the coefficient of q^n of
    build's majorant, build(ZZ, order, True), so every coefficient is
    below 2^(B-1) for the packing width B."""
    majorant = build(ZZ, order, True)
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


# the Bailey side's numerator Bailey*D, as SB_NUMERATOR is SB's
BAILEY_NUMERATOR = partial(bailey_side, cleared=True)


def laurent_numerator(build, order):
    """A numerator X*D over Z[z,1/z], build(ring, order), read off the
    narrow packed ring (``helpers.narrow_ring_numerator``)."""
    return TruncatedSeries(LAURENT, order, narrow_ring_numerator(build, order))


def bailey_numerator(order):
    """Bailey*D over Z[z,1/z], read off the narrow packed ring."""
    return laurent_numerator(BAILEY_NUMERATOR, order)


def packing_bits(build, order):
    """The width B that ``series._packed`` gives build's packed values:
    one bit more than its majorant's largest coefficient."""
    return max(build(ZZ, order, True)).bit_length() + 1


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
        assert_within_majorant(narrow_ring_numerator(_rank_coeffs, order),
                               _rank_coeffs, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_crank_matches_inverted_products(self, order):
        crank = crank_series(order)
        assert crank == crank_by_inversion(LAURENT, LAURENT.z, LAURENT.z_inv,
                                           order)
        assert_within_majorant(crank_numerator(order).embed(LAURENT).coeffs,
                               _crank_coeffs, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_bailey_side_matches_inverted_products(self, order):
        # the rows of the Bailey side, back from its numerator Bailey*D
        numerator = bailey_numerator(order).coeffs
        want = bailey_side_by_inversion(order).coeffs
        assert wide_ring_divided_by_d(numerator) == want
        assert_within_majorant(numerator, BAILEY_NUMERATOR, order)

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
        assert_within_majorant(sb_series(40).rows, _sb_walk, 40)


# name, numerator X*D, the full rows of X, the builder of X*D; the Bailey
# side has no builder of its own full rows: they are the reference read of
# its numerator (``helpers.wide_ring_divided_by_d``), compared with
# inverted products in TestPackedSeries
NUMERATORS = [
    ("sb", partial(laurent_numerator, SB_NUMERATOR),
     lambda order: TruncatedSeries(LAURENT, order, sb_laurent_rows(order)),
     SB_NUMERATOR),
    ("rank", partial(laurent_numerator, _rank_coeffs), rank_series,
     _rank_coeffs),
    ("crank", lambda order: crank_numerator(order).embed(LAURENT),
     crank_series, _crank_coeffs),
    ("bailey", bailey_numerator,
     lambda order: TruncatedSeries(LAURENT, order, wide_ring_divided_by_d(
         bailey_numerator(order).coeffs)),
     BAILEY_NUMERATOR),
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
               + laurent_numerator(SB_NUMERATOR, order).scale(u))
        assert lhs.coeffs == narrow_ring_numerator(BAILEY_NUMERATOR, order)

    @pytest.mark.parametrize("order", [4, 5, 9, 40, 41, 100])
    @pytest.mark.parametrize("name, numerator, full, build", NUMERATORS,
                             ids=[n[0] for n in NUMERATORS])
    def test_full_rows_times_d(self, name, numerator, full, build, order):
        num, rows = numerator(order), full(order)
        d = poch_quotient(LAURENT, order, d_factors(LAURENT))
        assert num == rows * d
        reach = numerator_reach(order) - 1
        assert all(abs(e) <= reach for row in num.coeffs for e in row.c)
        assert_within_majorant(num.coeffs, build, order)
        # the rows of X back from X*D by the reference read
        assert wide_ring_divided_by_d(num.coeffs) == rows.coeffs

    @pytest.mark.parametrize("side", ["z", "z_inv"])
    def test_row_at_the_reach_raises(self, side):
        # a z^K or z^-K term added to the top row of SB*D at order 40, K = 8
        order = 40
        power = numerator_reach(order)

        def build(ring, order, bound=False):
            rows = SB_NUMERATOR(ring, order, bound)
            x = ring.one
            for _ in range(power):
                x = (ring.z if side == "z" else ring.z_inv) * x
            rows[order] = rows[order] + x
            return rows

        with pytest.raises(RingError, match="edge"):
            narrow_ring_numerator(build, order)


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
        for build in (SB_NUMERATOR, _rank_coeffs, _crank_coeffs,
                      BAILEY_NUMERATOR):
            narrow_ring_numerator(build, order)
        for build in (_sb_walk, bailey_side):
            wide_ring_rows(build, order)
        wide_ring_divided_by_d(narrow_ring_numerator(_rank_coeffs, order))
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
            (numerator(top, bits).coeffs, narrow_ring_numerator(build, top))
            for numerator, build in ((sb_numerator, SB_NUMERATOR),
                                     (rank_numerator, _rank_coeffs))]
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
        for values, build in ((sb, SB_NUMERATOR), (rank, _rank_coeffs)):
            majorant = build(ZZ, order, True)
            for n, row in enumerate(w_digits(values, wide, digits)):
                assert sum(map(abs, row)) <= majorant[n], (build, n)

    @pytest.mark.parametrize("order", [0, 1, 4, 40, 300])
    def test_width_is_one_bit_above_the_widest_side(self, order):
        # B = max(B_SB + 2, B_rank, B_crank) + 1: u = 2 - w takes SB*D two
        # bits wider, and a sum of two sides one more
        assert numerator_width(order) == max(
            packing_bits(SB_NUMERATOR, order) + 2,
            packing_bits(_rank_coeffs, order),
            packing_bits(_crank_coeffs, order)) + 1

    @pytest.mark.parametrize("sign", [1, -1])
    def test_row_at_the_reach_raises(self, sign):
        # w^(K-1) added to the top row of SB*D at order 40, K = 8, fits its
        # K digits; w^K or w^(K+1) is refused as a z-row at z^-K or z^K is
        order = 40
        reach, bits = numerator_reach(order), numerator_width(order)
        for power in (reach - 1, reach, reach + 1):
            def build(ring, order):
                rows = SB_NUMERATOR(ring, order)
                rows[order] += sign << bits * power
                return rows

            if power < reach:
                # w^(K-1) = (z + 1/z)^(K-1) on the row, the others as they are
                term = LaurentPolynomial({0: sign})
                for _ in range(power):
                    term = term * (LAURENT.z + LAURENT.z_inv)
                rows = symmetric_numerator(build, order, bits)
                want = laurent_numerator(SB_NUMERATOR, order).coeffs
                want[order] = want[order] + term
                ring = PackedSymmetricRing(bits)
                assert [w_laurent(ring, x, reach) for x in rows] == want
                continue
            with pytest.raises(WindowError) as exc:
                symmetric_numerator(build, order, bits)
            assert (exc.value.n, exc.value.reach) == (order, reach)


class TestSbMajorant:
    """SB's one majorant, the product of ``_sb_walk(ZZ, N, True)``, as the
    bound of SB*D in Z[w] that ``numerator_width`` proves: it dominates
    the majorant of SB*D's walk (``helpers.sb_by_accumulation`` with bound
    and cleared, z = 1/z = -1 in the uncancelled step), and gives the
    run the width that walk gave."""

    def test_dominates_the_walk_majorant(self):
        for order in range(301):
            product = _sb_walk(ZZ, order, True)
            walk = sb_by_accumulation(ZZ, order, True, True)
            assert len(product) == len(walk) == order + 1
            assert all(p >= w for p, w in zip(product, walk)), order

    def test_bounds_every_w_row(self):
        # Sigma |w-digits| of every row of SB*D to q^300, packed 16 bits
        # wider than the width the product sets
        order = 300
        majorant = _sb_walk(ZZ, order, True)
        bits = max(majorant).bit_length() + 1
        rows = w_digits(sb_numerator(order, bits + 16).coeffs, bits + 16,
                        numerator_reach(order))
        for n, row in enumerate(rows):
            assert sum(map(abs, row)) <= majorant[n], n
            assert max(map(abs, row)) < 1 << (bits - 1), n

    def test_width_is_the_walk_majorants(self):
        # the width max(B_SB + 2, B_rank, B_crank) + 1 with B_SB from the
        # walk majorant, at every order 4..400
        for order in range(4, 401):
            walk = sb_by_accumulation(ZZ, order, True, True)
            assert numerator_width(order) == max(
                max(walk).bit_length() + 3,
                packing_bits(_rank_coeffs, order),
                packing_bits(_crank_coeffs, order)) + 1, order


class TestNumeratorShape:
    """SB's walk on a ring of offset K = isqrt(N) + 2: the numerator SB*D
    that the tests read in z, and residues at every t, whose walk divides
    by D after every other pass, so that until then its values are a
    numerator's, at most (2K + 1)*B bits wide."""

    @pytest.mark.parametrize("order", [40, 300])
    def test_walk_stays_numerator_wide(self, monkeypatch, order):
        # every state of SB*D's walk, after each of its binomial and pair
        # passes, and the walk's total: at most (2K + 1)*B bits, at
        # t = 2S + 1 as at t = 2N + 1, though the ring's modulus has t*B bits
        widest = []

        def recorded(name):
            original = getattr(series, name)

            def apply(a, c, e):
                original(a, c, e)
                widest.append(max((abs(x).bit_length() for x in a),
                                  default=0))
            return apply

        for name in ("mul_binomial_list", "div_binomial_list",
                     "mul_pair_list"):
            monkeypatch.setattr(series, name, recorded(name))
        bits, offset = packing_bits(_sb_walk, order), order // 2 + 2
        reach = numerator_reach(order)
        for t in (2 * offset + 1, 2 * order + 1):
            ring = PackedResidueRing(bits, t, reach)
            widest.clear()
            total = _sb_walk(ring, order, cleared=True)
            # steps n = order//2 - 1 .. 1, four passes each: the z pair,
            # 1 - q^{2n+1}, 1/(1 + q^{2n+1}) and 1/(1 - q^{4n+4})
            assert len(widest) >= 4 * (order // 2 - 1)
            widest.append(max(abs(x).bit_length() for x in total))
            assert max(widest) <= (2 * reach + 1) * bits, t

    @pytest.mark.parametrize("order", [40, 300])
    @pytest.mark.parametrize("build", [_sb_walk], ids=["sb"])
    def test_d_is_divided_last(self, monkeypatch, build, order):
        # every eta, binomial and pair pass of the walk at t = 2S + 1,
        # with the width of its input: the one division by E reads values
        # at most (2K + 1)*B bits wide, and only the multiplication by
        # (q^2; q^2)_inf, D's other factor, runs after it
        passes = []

        def recorded(name):
            original = getattr(series, name)

            def apply(a, *args):
                k = args[0] if name.endswith("_eta_list") else None
                passes.append((name, k, max((abs(x).bit_length() for x in a),
                                            default=0)))
                original(a, *args)
            return apply

        for name in ("mul_eta_list", "div_eta_list", "mul_binomial_list",
                     "div_binomial_list", "mul_pair_list", "div_theta_list"):
            monkeypatch.setattr(series, name, recorded(name))
        bits, reach = packing_bits(build, order), numerator_reach(order)
        ring = PackedResidueRing(bits, 2 * (order // 2 + 2) + 1, reach)
        build(ring, order)
        names = [name for name, _, _ in passes]
        assert names.count("div_theta_list") == 1
        last = names.index("div_theta_list")
        assert [(name, k) for name, k, _ in passes[last + 1:]] == [
            ("mul_eta_list", 2)]
        assert max(width for _, _, width in passes[:last + 1]) <= \
            (2 * reach + 1) * bits

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
            assert wide_ring_rows(bailey_side, order) == \
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
     lambda order: laurent_numerator(SB_NUMERATOR, order).scale(U).coeffs,
     lambda order, bits: u_sb_numerator(order, bits).coeffs),
    ("rank-minus-crank", lambda order: (
        laurent_numerator(_rank_coeffs, order)
        - crank_numerator(order).embed(LAURENT)).coeffs,
     lambda order, bits: (rank_numerator(order, bits)
                          - crank_numerator(order)).coeffs),
    ("bailey", lambda order: bailey_numerator(order).coeffs,
     lambda order, bits: (crank_numerator(order)
                          + u_sb_numerator(order, bits)).coeffs),
]


# the full rows of each series, read off their numerators in Z[w]
# (``numerator_rows``), and their reference on one ring of t = 2S + 1
# digits: SB's from its walk, the rank's and the crank's from the z read
# of their numerators
FULL_ROWS = [
    ("sb", sb_laurent_rows, partial(wide_ring_rows, _sb_walk)),
    ("rank", lambda order: rank_series(order).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_rank_coeffs, order))),
    ("crank", lambda order: crank_series(order).coeffs,
     lambda order: wide_ring_divided_by_d(
         narrow_ring_numerator(_crank_coeffs, order))),
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
            rows = laurent_numerator(SB_NUMERATOR, order).coeffs
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
    of the test helpers, on every ring an SB walk runs on; packed values
    are compared modulo the ring's modulus, the ring's own equality."""

    @pytest.mark.parametrize("order", [*range(1, 61), 301])
    def test_matches_accumulation(self, order):
        # SB's majorant is a product, not a walk (TestSbMajorant)
        for bound, cleared in ((False, True), (False, False)):
            assert _sb_walk(ZZ, order, bound, cleared) == \
                sb_by_accumulation(ZZ, order, bound, cleared), \
                (bound, cleared)
        assert sptbar2_series(order).coeffs == sptbar2_by_accumulation(order)
        reach = numerator_reach(order)
        bits, offset = packing_bits(_sb_walk, order), order // 2 + 2
        numer_bits = packing_bits(SB_NUMERATOR, order)
        # t = 3 (the table's residues, SB itself), the numerator ring
        # t = 2K + 1 and the full rows' ring t = 2S + 1 (SB*D)
        for ring, cleared in (
                (PackedResidueRing(bits, 3, reach), False),
                (PackedResidueRing(numer_bits, 2 * reach + 1, reach), True),
                (PackedResidueRing(bits, 2 * offset + 1, reach), True)):
            m = ring.modulus
            got = _sb_walk(ring, order, cleared=cleared)
            want = sb_by_accumulation(ring, order, cleared=cleared)
            assert [x % m for x in got] == [x % m for x in want], ring.t


BUILDERS = [_sb_walk, _rank_coeffs, _crank_coeffs, bailey_side]


def builder_rows(build, order):
    """The Laurent rows of what build makes: SB's rows, the Bailey side's
    full rows by the reference read, and rank*D and crank*D, the
    numerators that the rank's and the crank's builders make, read off
    the narrow ring."""
    if build is _sb_walk:
        return sb_laurent_rows(order)
    if build is bailey_side:
        return wide_ring_rows(bailey_side, order)
    return narrow_ring_numerator(build, order)


def residue_moduli(order):
    """Small moduli, order + 1 and 2*order + 1, and t = 2K + 1 and
    2K + 2, K = ``numerator_reach(order)``: the widest ring a numerator's
    window fills, and the first one wider."""
    reach = numerator_reach(order)
    return sorted({1, 2, 3, 5, 7, 2 * reach + 1, 2 * reach + 2, order + 1,
                   2 * order + 1})


class TestPackedResidues:
    """Residue sums built over Z[z]/(z^t - 1) against the residue sums of
    the packed Laurent rows of the same builder.  The CLI reads SB's
    alone; the rank's and the crank's numerators run on this ring as the
    z read of ``helpers.narrow_ring_numerator``, with z and 1/z passes of
    their own (the rank's), which SB's walk pairs."""

    # every order to 12 is an example: there K = isqrt(order) + 2 sets the
    # window of the last rows of the full rows, not order//2 + 1
    @pytest.mark.parametrize("build", BUILDERS,
                             ids=[b.__name__ for b in BUILDERS])
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
    def test_matches_laurent_rows(self, build, order):
        rows = builder_rows(build, order)
        for t in residue_moduli(order):
            assert packed_residues(build, order, t) == [
                residue_class_sums(row, t) for row in rows], t

    @pytest.mark.parametrize("build", [_sb_walk, _rank_coeffs],
                             ids=["sb", "rank"])
    def test_matches_laurent_rows_at_order_300(self, build):
        rows = builder_rows(build, 300)
        for t in (3, 5):
            assert packed_residues(build, 300, t) == [
                residue_class_sums(row, t) for row in rows], t

    def test_sb_residues_match_table(self, table):
        assert sb_residues(table.order, 5) == [
            residue_class_sums(table.rows[n], 5)
            for n in range(table.order + 1)]

    def test_rank_stays_as_narrow_as_its_laurent_rows(self):
        # rank*D's builder hands negative values to z; at t = 2N+1, as at
        # t = 2S+1, nothing folds, so the packed values have the same
        # widths
        order, t = 300, 601
        bits, offset = packing_bits(_rank_coeffs, order), order // 2 + 2
        rings = (PackedResidueRing(bits, 2 * offset + 1, offset),
                 PackedResidueRing(bits, t, offset))
        laurent, residue = (_rank_coeffs(r, order) for r in rings)
        assert [x.bit_length() for x in residue] == [
            x.bit_length() for x in laurent]
        assert packed_residues(_rank_coeffs, order, t) == [
            residue_class_sums(row, t)
            for row in narrow_ring_numerator(_rank_coeffs, order)]

    def test_negative_residue_sum_refused(self, monkeypatch):
        import spt_kernel.sptcrank as sptcrank

        monkeypatch.setattr(sptcrank, "packed_residues",
                            lambda build, order, t: [[0] * t, [1, -1, 0]])
        with pytest.raises(ValueError, match="negative"):
            sb_residues(1, 3)
