from collections import Counter

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
    _distinct_walk,
    _ordinary_walk,
    ag_crank,
    distinct_partition_list,
    enumerate_overpartitions,
    m2_rank,
    m2_rank_distribution,
    m2_rows,
    m2_statistics,
    num_even_parts,
    partition_list,
    residual_crank_weight,
    residual_m2_crank_distribution,
    spt_family,
)
from spt_kernel.rings import ZZ, LaurentPolynomial
from spt_kernel.series import pochhammer_inf
from spt_kernel.sptcrank import crank_series, rank_series
from spt_kernel.verify import MAX_ORACLE_BOUND


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
        assert list(enumerate_overpartitions(0)) == [()]

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

    def test_overpartitions_are_canonical_tuples(self):
        # m2_rank reads the largest part and its overline from op[0], so
        # every overpartition must come in canonical order: values weakly
        # decreasing, the overlined copy first among equal values
        n_max = 10
        gf = pochhammer_inf(ZZ, -1, 1, 1, n_max) * \
            pochhammer_inf(ZZ, 1, 1, 1, n_max).invert()
        for n in range(n_max + 1):
            ops = list(enumerate_overpartitions(n))
            for op in ops:
                assert type(op) is tuple, op
                assert all(type(v) is int and type(o) is bool
                           for v, o in op), op
                assert sum(v for v, _ in op) == n, op
                assert list(op) == sorted(op, key=lambda p: (-p[0], not p[1]))
                overlined = [v for v, o in op if o]
                assert len(overlined) == len(set(overlined)), op
            assert len(set(ops)) == len(ops) == gf.coefficient(n), n


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
        assert m2_rank(((2, False),)) == 0
        assert m2_rank(((3, False),)) == 1
        assert m2_rank(((1, True), (1, False))) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            m2_rank(())

    def test_distribution_n2_all_rank_zero(self):
        assert m2_rank_distribution(2) == 4

    def test_distribution_n0(self):
        assert m2_rank_distribution(0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            m2_rank_distribution(-1)
        with pytest.raises(ValueError, match="bound must be >= 0"):
            m2_rows(-1)

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

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            residual_m2_crank_distribution(-1)

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
    # one walk gives both oracles' rows 0..MAX_ORACLE_BOUND; each row must
    # agree with the statistics of each overpartition that
    # enumerate_overpartitions yields, visiting each once, up to n = 20,
    # the oracle bound of a default verify run, and at n = 25 and at the
    # largest bound the CLI accepts
    rows = m2_rows(MAX_ORACLE_BOUND)
    assert rows[0] == (1, 1, 1)
    for n in [*range(1, 21), 25, MAX_ORACLE_BOUND]:
        ranks = Counter()
        cranks = Counter()
        for op in enumerate_overpartitions(n):
            ranks[m2_rank(op)] += 1
            cranks.update(residual_crank_weight(op).c)
        assert rows[n] == (LaurentPolynomial(ranks),
                           LaurentPolynomial(cranks),
                           count_overpartitions(n)), n
        assert m2_statistics(n) == rows[n], n


def test_walks_visit_each_partition_once():
    # every node adds 1 to one class and, for an ordinary partition, to one
    # crank slot: the counts of size k are its nodes, and the classes are
    # those of the part lists, (largest part, #even parts) of each
    # partition and (largest part, #parts) of each into distinct parts
    tops, cranks = _ordinary_walk(MAX_ORACLE_BOUND)
    classes = _distinct_walk(MAX_ORACLE_BOUND)
    for k in range(MAX_ORACLE_BOUND + 1):
        plain = partition_list(k)
        distinct = distinct_partition_list(k)
        assert sum(map(sum, tops[k])) == sum(cranks[k]) == len(plain), k
        assert sum(map(sum, classes[k])) == len(distinct), k
        walked = Counter({(top, evens): c
                          for top, by_evens in enumerate(tops[k])
                          for evens, c in enumerate(by_evens) if c})
        assert walked == Counter((p[0] if p else 0, num_even_parts(p))
                                 for p in plain), k
        walked = Counter({(top, parts): c
                          for top, by_parts in enumerate(classes[k])
                          for parts, c in enumerate(by_parts) if c})
        assert walked == Counter((p[0] if p else 0, len(p))
                                 for p in distinct), k


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
