import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    count_overpartitions,
    count_partitions,
    enumerate_partitions,
    eval_at_one,
    is_symmetric,
)
from spt_kernel.partitions import (
    Overpartition,
    ag_crank,
    distinct_partition_list,
    enumerate_overpartitions,
    m2_rank,
    m2_rank_distribution,
    m2_statistics,
    partition_list,
    residual_crank_weight,
    residual_m2_crank_distribution,
    spt_family,
)
from spt_kernel.rings import ZZ, LaurentPolynomial
from spt_kernel.series import pochhammer_inf
from spt_kernel.sptcrank import crank_series, rank_series


def overpartition(*parts):
    return Overpartition(tuple(parts))


class TestEnumeration:
    def test_partitions_of_four(self):
        assert sorted(enumerate_partitions(4), reverse=True) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_fourteen_overpartitions_of_four(self):
        ops = list(enumerate_overpartitions(4))
        assert len(ops) == 14
        assert len(set(ops)) == 14

    def test_n_zero(self):
        assert list(enumerate_partitions(0)) == [()]
        assert list(enumerate_overpartitions(0)) == [Overpartition(())]

    def test_partition_counts_match_euler_product(self):
        from spt_kernel.rings import ZZ

        n_max = 14
        inv_euler = pochhammer_inf(ZZ, 1, 1, 1, n_max).invert()
        for n in range(n_max + 1):
            assert count_partitions(n) == inv_euler.coefficient(n)

    def test_overpartition_counts_match_product(self):
        from spt_kernel.rings import ZZ

        n_max = 12
        gf = pochhammer_inf(ZZ, -1, 1, 1, n_max) * \
            pochhammer_inf(ZZ, 1, 1, 1, n_max).invert()
        for n in range(n_max + 1):
            assert count_overpartitions(n) == gf.coefficient(n)


class TestSptFamily:
    def test_known_values_at_four(self):
        assert spt_family(4, "spt") == 10
        assert spt_family(4, "sptbar") == 13
        assert spt_family(4, "sptbar1") == 10
        assert spt_family(4, "sptbar2") == 3

    def test_small_even_cases_vanish(self):
        assert spt_family(1, "sptbar2") == 0
        assert spt_family(3, "sptbar2") == 0

    def test_split_is_consistent(self):
        for n in range(1, 10):
            assert (spt_family(n, "sptbar1") + spt_family(n, "sptbar2")
                    == spt_family(n, "sptbar"))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            spt_family(4, "sptbar3")


class TestM2Rank:
    def test_hand_evaluations(self):
        assert m2_rank(overpartition((2, False))) == 0
        assert m2_rank(overpartition((3, False))) == 1
        assert m2_rank(overpartition((1, True), (1, False))) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m2_rank(Overpartition(()))

    def test_distribution_n2_all_rank_zero(self):
        assert m2_rank_distribution(2) == 4

    def test_distribution_n0(self):
        assert m2_rank_distribution(0) == 1

    def test_distribution_matches_series(self):
        rank = rank_series(12)
        for n in range(13):
            assert rank.coefficient(n) == m2_rank_distribution(n)

    @given(st.integers(0, 10))
    @settings(max_examples=11, deadline=None)
    def test_symmetry_and_total(self, n):
        dist = m2_rank_distribution(n)
        assert is_symmetric(dist)
        assert eval_at_one(dist) == count_overpartitions(n)


class TestResidualCrank:
    def test_ag_crank_examples(self):
        assert ag_crank((4,)) == 4
        assert ag_crank((1,)) == -1  # the classical n=1 anomaly
        assert ag_crank((2, 1, 1)) == -2

    def test_ag_crank_empty_rejected(self):
        with pytest.raises(ValueError):
            ag_crank(())

    def test_distribution_n2(self):
        expected = LaurentPolynomial({0: 2, 1: 1, -1: 1})
        assert residual_m2_crank_distribution(2) == expected

    def test_distribution_n0(self):
        assert residual_m2_crank_distribution(0) == 1

    def test_distribution_matches_series(self):
        # the failure-case weight z + 1/z - 1 is what makes this exact
        crank = crank_series(12)
        for n in range(13):
            assert crank.coefficient(n) == residual_m2_crank_distribution(n)

    @given(st.integers(0, 10))
    @settings(max_examples=11, deadline=None)
    def test_symmetry(self, n):
        assert is_symmetric(residual_m2_crank_distribution(n))


def test_shared_walk_matches_enumeration():
    # one walk gives both oracles; it must agree with the statistics of each
    # Overpartition that enumerate_overpartitions builds, visiting each once
    for n in range(1, 17):
        ranks = {}
        cranks = LaurentPolynomial()
        for op in enumerate_overpartitions(n):
            ranks[m2_rank(op)] = ranks.get(m2_rank(op), 0) + 1
            cranks = cranks + residual_crank_weight(op)
        assert m2_statistics(n) == (LaurentPolynomial(ranks), cranks,
                                    count_overpartitions(n))


@pytest.mark.parametrize("min_part", [1, 2, 3, 4])
def test_part_lists_are_ordered_and_complete(min_part):
    # each list is every partition of n with parts >= min_part (into
    # distinct parts for distinct_partition_list), once, in reverse-
    # lexicographic order; the counts are the coefficients of
    # 1/(q^min_part;q)_inf and (-q^min_part;q)_inf
    n_max = 25
    plain_gf = pochhammer_inf(ZZ, 1, min_part, 1, n_max).invert()
    distinct_gf = pochhammer_inf(ZZ, -1, min_part, 1, n_max)
    for n in range(n_max + 1):
        for parts, strict, gf in (
                (partition_list(n, min_part), False, plain_gf),
                (distinct_partition_list(n, min_part), True, distinct_gf)):
            assert list(parts) == sorted(set(parts), reverse=True), n
            for p in parts:
                assert sum(p) == n and all(x >= min_part for x in p), p
                steps = list(zip(p, p[1:]))
                if strict:
                    assert all(a > b for a, b in steps), p
                else:
                    assert all(a >= b for a, b in steps), p
            assert len(parts) == gf.coefficient(n), (n, strict)
