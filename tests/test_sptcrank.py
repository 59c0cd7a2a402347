from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    bailey_side,
    eval_at_one,
    is_symmetric,
    pair_crank_series,
    residue_class_sums,
    sb_by_accumulation,
    spt2,
    sptbar2_by_accumulation,
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
    RingError,
)
from spt_kernel.series import (
    TruncatedSeries,
    WindowError,
    d_factors,
    divided_by_d,
    full_rows,
    numerator_reach,
    packed_laurent,
    packed_residues,
    poch_quotient,
    pochhammer_finite,
    pochhammer_inf,
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
    sb_series,
    sptbar2_series,
    vector_partition_oracle,
)

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
    walked over Z, against the two other routes: the residue sums mod 3 of
    the packed ring, and the summands or products over Z[zeta_3]."""

    BUILDS = [(sb_at_zeta3, _sb_walk), (rank_at_zeta3, _rank_coeffs),
              (crank_at_zeta3, _crank_coeffs)]

    @pytest.mark.parametrize("order", [*range(61), 300, 1000])
    def test_match_packed_residues(self, order):
        # every row is unchanged under z <-> 1/z, so its sums mod 3 have
        # s_1 = s_2, its value at zeta_3 is s_0 - s_1, and at 1 s_0 + 2 s_1
        for at_root, build in self.BUILDS:
            sums = packed_residues(build, order, 3)
            assert all(s1 == s2 for _, s1, s2 in sums), build.__name__
            assert at_root(order).coeffs == [
                s0 - s1 for s0, s1, _ in sums], build.__name__
            if build is _sb_walk:
                assert sb_at_one(order).coeffs == [
                    s0 + 2 * s1 for s0, s1, _ in sums]

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
    """Row n's sum of |coefficients| is at most the majorant's coefficient
    of q^n, so every coefficient is below 2^(B-1) for the packing width B."""
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


def bailey_numerator(order):
    """Bailey*D over Z[z,1/z], read off the narrow packed ring."""
    return TruncatedSeries(LAURENT, order,
                           packed_laurent(bailey_side, order, cleared=True))


def packing_bits(build, order, cleared=False):
    """The width B that ``series._packed`` gives build's packed values:
    one bit more than its majorant's largest coefficient."""
    return max(build(ZZ, order, True, cleared)).bit_length() + 1


class TestPackedSeries:
    """The packed rank, crank and Bailey-side rows against dict-Laurent
    references built by another formula or by Cauchy products and
    .invert(), and within the majorants that fixed their packing width."""

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_rank_matches_bailey_sum(self, order):
        rank = rank_series(order)
        assert rank == rank_series_bailey_sum(
            LAURENT, LAURENT.z, LAURENT.z_inv, order)
        assert_within_majorant(rank.coeffs, _rank_coeffs, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_crank_matches_inverted_products(self, order):
        crank = crank_series(order)
        assert crank == crank_by_inversion(LAURENT, LAURENT.z, LAURENT.z_inv,
                                           order)
        assert_within_majorant(crank.coeffs, _crank_coeffs, order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @settings(max_examples=10, deadline=None)
    def test_bailey_side_matches_inverted_products(self, order):
        # the rows of the Bailey side, back from its numerator Bailey*D
        numerator = bailey_numerator(order).coeffs
        want = bailey_side_by_inversion(order).coeffs
        assert divided_by_d(numerator) == want
        assert_within_majorant(numerator, partial(bailey_side, cleared=True),
                               order)

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_rank_at_zeta3_matches_bailey_sum(self, order):
        want = rank_series_bailey_sum(CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv,
                                      order)
        assert laurent_at_zeta3(rank_series(order)) == want
        assert at_zeta3(packed_residues(_rank_coeffs, order, 3)) == want

    @given(order=st.integers(1, 40))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=10, deadline=None)
    def test_crank_at_zeta3_matches_inverted_products(self, order):
        want = crank_by_inversion(CYCLO3, CYCLO3.zeta, CYCLO3.zeta_inv, order)
        assert laurent_at_zeta3(crank_series(order)) == want
        assert at_zeta3(packed_residues(_crank_coeffs, order, 3)) == want

    def test_sb_rows_within_majorant(self):
        assert_within_majorant(sb_series(40).rows, _sb_walk, 40)


# name, numerator X*D, the full rows of X, the builder of X*D; the Bailey
# side has no builder of its own full rows: they are divided_by_d of its
# numerator, compared with inverted products in TestPackedSeries
NUMERATORS = [
    ("sb", sb_numerator,
     lambda order: TruncatedSeries(LAURENT, order, list(sb_series(order).rows)),
     partial(_sb_walk, cleared=True)),
    ("rank", rank_numerator, rank_series, partial(_rank_coeffs, cleared=True)),
    ("crank", lambda order: crank_numerator(order).embed(LAURENT),
     crank_series, partial(_crank_coeffs, cleared=True)),
    ("bailey", bailey_numerator,
     lambda order: TruncatedSeries(
         LAURENT, order, divided_by_d(bailey_numerator(order).coeffs)),
     partial(bailey_side, cleared=True)),
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
        lhs = crank_numerator(order).embed(LAURENT) + sb_numerator(order).scale(u)
        assert lhs.coeffs == packed_laurent(bailey_side, order, cleared=True)

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
        # what a failing check reports: the rows of X, back from X*D
        assert divided_by_d(num.coeffs) == rows.coeffs

    @pytest.mark.parametrize("side", ["z", "z_inv"])
    def test_row_at_the_reach_raises(self, side):
        # a z^K or z^-K term added to the top row of SB*D at order 40, K = 8
        order = 40
        power = numerator_reach(order)

        def build(ring, order, bound=False, cleared=False):
            rows = _sb_walk(ring, order, bound, cleared)
            x = ring.one
            for _ in range(power):
                x = (ring.z if side == "z" else ring.z_inv) * x
            rows[order] = rows[order] + x
            return rows

        with pytest.raises(RingError, match="edge"):
            packed_laurent(build, order, cleared=True)


class TestNumeratorShape:
    """Builders on a ring of offset K = isqrt(N) + 2: full rows built as
    the numerator X*D and divided by D once, and residues at every t,
    whose builders divide by D after every other pass, so that until then
    their values are a numerator's, at most (2K + 1)*B bits wide."""

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
    @pytest.mark.parametrize("build", [_sb_walk, _crank_coeffs],
                             ids=["sb", "crank"])
    def test_d_is_divided_last(self, monkeypatch, build, order):
        # every eta, binomial and pair pass of the builder at t = 2S + 1,
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
        # references to order 40 truncate to each lower order
        top = 40
        sb = sb_coefficients_naive(LAURENT, LAURENT.z, LAURENT.z_inv, top)
        bailey = bailey_side_by_inversion(top).coeffs
        for order in range(1, top + 1):
            assert packed_laurent(_sb_walk, order) == sb[:order + 1], order
            assert packed_laurent(bailey_side, order) == \
                bailey[:order + 1], order


# u = 2 - z - 1/z: u*SB*D is theorem 2's left side, and its rows reach one
# power of z further than SB's
U = LaurentPolynomial({1: -1, 0: 2, -1: -1})

# the numerators whose rows a failing check divides by D
REPORTED = [
    ("u-sb", lambda order: sb_numerator(order).scale(U).coeffs),
    ("rank-minus-crank", lambda order: (
        rank_numerator(order) - crank_numerator(order).embed(LAURENT)).coeffs),
    ("bailey", lambda order: bailey_numerator(order).coeffs),
]


class TestFullRows:
    """``full_rows``, each row divided by D at its own width, against the
    reference that reads every row off one ring of t = 2S + 1 digits
    (``helpers.wide_ring_rows``)."""

    @pytest.mark.parametrize("order", [*range(1, 13), 60, 300])
    @pytest.mark.parametrize("build", [_sb_walk, _rank_coeffs, _crank_coeffs],
                             ids=["sb", "rank", "crank"])
    def test_matches_wide_ring(self, build, order):
        rows = [series._laurent(digits, o)
                for digits, o in full_rows(build, order)]
        assert rows == wide_ring_rows(build, order)

    @pytest.mark.parametrize("order", [*range(1, 13), 60, 300])
    @pytest.mark.parametrize("name, numerator", REPORTED,
                             ids=[r[0] for r in REPORTED])
    def test_divided_by_d_matches_wide_ring(self, name, numerator, order):
        rows = numerator(order)
        assert divided_by_d(rows) == wide_ring_divided_by_d(rows)

    @pytest.mark.parametrize("order", [4, 5, 9, 12, 40, 41, 100])
    @pytest.mark.parametrize("sign", [1, -1], ids=["z", "z_inv"])
    def test_last_row_window(self, order, sign):
        # the window of row n is [-r, r], r = max(n//2 + 1, K): at the
        # orders below 12, K = isqrt(n) + 2 is the larger.  A term two
        # powers out is refused too, wherever the row is held
        reach = max(order // 2 + 1, numerator_reach(order))
        want = sb_series(order).rows[order]
        for power, fits in ((reach, True), (reach + 1, False),
                            (reach + 2, False)):
            rows = sb_numerator(order).coeffs
            term = LaurentPolynomial({sign * power: 1})
            rows[order] = rows[order] + term
            if fits:
                assert divided_by_d(rows)[order] == want + term
                continue
            with pytest.raises(WindowError) as exc:
                divided_by_d(rows)
            assert (exc.value.n, exc.value.reach) == (order, reach + 1)

    def test_each_row_has_its_own_offset(self):
        # o = max(i//2 + 1, K) + 1: K + 1 for the first rows, N//2 + 2 for
        # the last, rising by at most one from row to row
        rows = full_rows(_sb_walk, 300)
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
        for bound, cleared in ((True, True), (False, True), (False, False)):
            assert _sb_walk(ZZ, order, bound, cleared) == \
                sb_by_accumulation(ZZ, order, bound, cleared), \
                (bound, cleared)
        assert sptbar2_series(order).coeffs == sptbar2_by_accumulation(order)
        reach = numerator_reach(order)
        bits, offset = packing_bits(_sb_walk, order), order // 2 + 2
        numer_bits = packing_bits(_sb_walk, order, cleared=True)
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


def laurent_residues(build, order, t):
    return [residue_class_sums(row, t) for row in packed_laurent(build, order)]


BUILDERS = [_sb_walk, _rank_coeffs, _crank_coeffs, bailey_side]


def residue_moduli(order):
    """Small moduli, order + 1 and 2*order + 1, and t = 2K + 1 and
    2K + 2, K = ``numerator_reach(order)``: the widest ring a numerator's
    window fills, and the first one wider."""
    reach = numerator_reach(order)
    return sorted({1, 2, 3, 5, 7, 2 * reach + 1, 2 * reach + 2, order + 1,
                   2 * order + 1})


class TestPackedResidues:
    """Residue sums built over Z[z]/(z^t - 1) against the residue sums of
    the packed Laurent rows of the same builder."""

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
        rows = packed_laurent(build, order)
        for t in residue_moduli(order):
            assert packed_residues(build, order, t) == [
                residue_class_sums(row, t) for row in rows], t

    @pytest.mark.parametrize("build", [_sb_walk, _rank_coeffs],
                             ids=["sb", "rank"])
    def test_matches_laurent_rows_at_order_300(self, build):
        rows = packed_laurent(build, 300)
        for t in (3, 5):
            assert packed_residues(build, 300, t) == [
                residue_class_sums(row, t) for row in rows], t

    def test_sb_residues_match_table(self, table):
        assert sb_residues(table.order, 5) == [
            residue_class_sums(table.rows[n], 5)
            for n in range(table.order + 1)]

    def test_rank_stays_as_narrow_as_its_laurent_rows(self):
        # the rank walk hands negative values to z; at t = 2N+1, as at
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
            for row in packed_laurent(_rank_coeffs, order)]

    def test_negative_residue_sum_refused(self, monkeypatch):
        import spt_kernel.sptcrank as sptcrank

        monkeypatch.setattr(sptcrank, "packed_residues",
                            lambda build, order, t: [[0] * t, [1, -1, 0]])
        with pytest.raises(ValueError, match="negative"):
            sb_residues(1, 3)
