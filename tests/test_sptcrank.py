import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import is_symmetric, pair_crank_series
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
    residue_class_sums,
)
from spt_kernel.series import (
    TruncatedSeries,
    _packing,
    packed_laurent,
    packed_residues,
    pochhammer_finite,
    pochhammer_inf,
)
from spt_kernel.sptcrank import (
    SptCrankTable,
    _crank_coeffs,
    _rank_coeffs,
    _sb_walk,
    at_zeta3,
    crank_series,
    partition_pair_oracle,
    rank_series,
    rank_series_bailey_sum,
    sb_at_root,
    sb_coefficients_naive,
    sb_residues,
    sb_series,
    sptbar2_series,
    vector_partition_oracle,
)
from spt_kernel.verify import bailey_side

ROW4 = LaurentPolynomial({1: 1, 0: 1, -1: 1})
ROW8 = LaurentPolynomial({3: 1, 2: 1, 1: 3, 0: 5, -1: 3, -2: 1, -3: 1})


@pytest.fixture(scope="module")
def table():
    return sb_series(30)


class TestSbSeries:
    def test_low_rows(self, table):
        assert table.row(2) == 1
        assert table.row(3) == 0
        assert table.row(4) == ROW4

    def test_q8_residue_classes_mod5(self, table):
        assert table.row(8) == ROW8
        assert residue_class_sums(table.row(8), 5) == [5, 3, 2, 2, 3]

    def test_rows_symmetric_up_to_bound(self, table):
        # observed property, not claimed by the theory; guarded here
        for n in range(table.order + 1):
            assert is_symmetric(table.row(n))

    def test_incremental_matches_naive_laurent(self):
        assert (_sb_walk(LAURENT, LAURENT.z, LAURENT.z_inv, 24)
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
        (lambda order: _sb_walk(LAURENT, LAURENT.z, LAURENT.z_inv, order),
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

    def test_csv_rows_exact(self, table):
        triples = dict(((n, m), c) for n, m, c in table.csv_rows())
        assert triples[(8, 0)] == 5
        assert triples[(8, -3)] == 1
        assert all(isinstance(c, int) for c in triples.values())

    def test_csv_rows_increase_whatever_the_dict_order(self):
        rows = (LaurentPolynomial({2: 1, -1: 3, 0: 5}),
                LaurentPolynomial({1: 7, -3: 2}))
        triples = list(SptCrankTable(1, rows).csv_rows())
        assert triples == [(0, -1, 3), (0, 0, 5), (0, 2, 1),
                           (1, -3, 2), (1, 1, 7)]
        keys = [(n, m) for n, m, _ in triples]
        assert all(a < b for a, b in zip(keys, keys[1:]))


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
            assert s.coefficient(n) == table.spt2(n)


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
            row = table.row(n)
            assert vector_partition_oracle(n) == row
            assert partition_pair_oracle(n) == row

    def test_pair_counts_nonnegative(self):
        for n in range(1, 13):
            assert all(c >= 0 for c in partition_pair_oracle(n).c.values())


class TestPairCrankSeries:
    def test_rows_match_table(self, table):
        pcs = pair_crank_series(16)
        for n in range(17):
            assert pcs.coefficient(n) == table.row(n)

    def test_z1_collapse(self):
        pcs = pair_crank_series(14)
        s2 = sptbar2_series(14)
        for n in range(1, 15):
            assert pcs.coefficient(n).eval_at_one() == s2.coefficient(n)


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
            assert a.coefficient(n).eval_at_one() == sum(
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
    majorant = build(ZZ, 1, 1, order, True)
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
        rows = packed_laurent(bailey_side, order)
        assert rows == bailey_side_by_inversion(order).coeffs
        assert_within_majorant(rows, bailey_side, order)

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


def laurent_residues(build, order, t):
    return [residue_class_sums(row, t) for row in packed_laurent(build, order)]


BUILDERS = [_sb_walk, _rank_coeffs, _crank_coeffs, bailey_side]


class TestPackedResidues:
    """Residue sums built over Z[z]/(z^t - 1) against the residue sums of
    the packed Laurent rows of the same builder."""

    @pytest.mark.parametrize("build", BUILDERS,
                             ids=[b.__name__ for b in BUILDERS])
    @given(order=st.integers(1, 60))
    @example(order=1)
    @example(order=2)
    @example(order=3)
    @settings(max_examples=8, deadline=None)
    def test_matches_laurent_rows(self, build, order):
        rows = packed_laurent(build, order)
        for t in sorted({1, 2, 3, 5, 7, order + 1, 2 * order + 1}):
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
            residue_class_sums(table.row(n), 5)
            for n in range(table.order + 1)]

    def test_rank_stays_as_narrow_as_its_laurent_rows(self):
        # the rank walk hands negative values to z; at t = 2N+1, as at the
        # t = 2S+1 its Laurent rows are read at, nothing folds, so the
        # packed values have the same widths
        order, t = 300, 601
        bits, offset = _packing(_rank_coeffs, order)
        rings = (PackedResidueRing(bits, 2 * offset + 1, offset),
                 PackedResidueRing(bits, t, offset))
        laurent, residue = (_rank_coeffs(r, r.z, r.z_inv, order) for r in rings)
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
