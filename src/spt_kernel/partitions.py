"""Partitions, overpartitions, and their rank/crank/spt statistics.

Everything here is brute-force enumeration.  These functions are the
independent oracles the series engine is checked against, so they must stay
free of generating-function shortcuts.  A partition is the tuple of its
parts, and an overpartition the tuple of its (value, overlined) parts, in
the canonical order of ``Overpartition``.  The part lists are memoized by
(size, largest part allowed, smallest part allowed), so a suffix list is
built once; ``m2_statistics`` still reads every part list one at a time,
and only multiplies the sizes of statistic classes where it would pair
each overlined list with each ordinary one.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import ceil
from typing import Iterator

from .rings import LaurentPolynomial

Partition = tuple[int, ...]  # weakly decreasing positive parts
# (value, overlined) parts, at most one overline per value; canonical order:
# values weakly decreasing, the overlined copy first among equal values
Overpartition = tuple[tuple[int, bool], ...]


@lru_cache(maxsize=None)
def _partitions_at_most(n: int, max_part: int,
                        min_part: int) -> tuple[Partition, ...]:
    """Partitions of n >= 0 with parts in [min_part, max_part], max_part
    <= n, in reverse-lexicographic order: by first part from the largest
    down, each followed by the memoized list of its suffixes."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(max_part, min_part - 1, -1)
                 for rest in _partitions_at_most(
                     n - first, min(first, n - first), min_part))


@lru_cache(maxsize=None)
def _distinct_at_most(n: int, max_part: int,
                      min_part: int) -> tuple[Partition, ...]:
    """Partitions of n >= 0 into distinct parts in [min_part, max_part],
    max_part <= n, in reverse-lexicographic order."""
    if n == 0:
        return ((),)
    return tuple((first,) + rest
                 for first in range(max_part, min_part - 1, -1)
                 for rest in _distinct_at_most(
                     n - first, min(first - 1, n - first), min_part))


def partition_list(n: int, min_part: int = 1) -> tuple[Partition, ...]:
    """All partitions of n with every part >= min_part, in
    reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _partitions_at_most(n, n, min_part)


def distinct_partition_list(n: int,
                            min_part: int = 1) -> tuple[Partition, ...]:
    """All partitions of n into distinct parts, each >= min_part, in
    reverse-lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _distinct_at_most(n, n, min_part)


def num_even_parts(p: Partition) -> int:
    return sum(1 for x in p if x % 2 == 0)


# ---------------------------------------------------------------------------
# Overpartitions
# ---------------------------------------------------------------------------

def enumerate_overpartitions(n: int) -> Iterator[Overpartition]:
    """Each overpartition of n exactly once, as the tuple of its parts in
    canonical order.

    Generated as (distinct overlined subset) x (ordinary partition), which
    mirrors the product (-q;q)_inf / (q;q)_inf and makes counting audits
    trivial.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    for m in range(n + 1):
        for over in distinct_partition_list(m):
            for plain in partition_list(n - m):
                parts = [(v, True) for v in over] + [(v, False) for v in plain]
                parts.sort(key=lambda p: (-p[0], not p[1]))
                yield tuple(parts)


# ---------------------------------------------------------------------------
# spt family
# ---------------------------------------------------------------------------

def spt(n: int) -> int:
    """Total occurrences of the smallest part over partitions of n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for p in partition_list(n):
        s = p[-1]
        total += sum(1 for x in p if x == s)
    return total


def spt_family(n: int, variant: str) -> int:
    """spt, sptbar, sptbar1 or sptbar2.

    The overpartition variants count, over overpartitions of n in which no
    copy of the smallest part value is overlined, the multiplicity of the
    smallest part; sptbar1/sptbar2 restrict to odd/even smallest part.
    """
    if variant == "spt":
        return spt(n)
    if variant not in ("sptbar", "sptbar1", "sptbar2"):
        raise ValueError(f"unknown spt variant {variant!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for op in enumerate_overpartitions(n):
        s = op[-1][0]
        if (s, True) in op:
            continue
        if variant == "sptbar1" and s % 2 == 0:
            continue
        if variant == "sptbar2" and s % 2 == 1:
            continue
        total += sum(1 for v, _ in op if v == s)
    return total


# ---------------------------------------------------------------------------
# M2-rank
# ---------------------------------------------------------------------------

def m2_rank(op: Overpartition) -> int:
    """ceil(l/2) - #parts + #(non-overlined odd parts) - chi, with the
    largest part l and its overline read from op[0] (canonical order)."""
    if not op:
        raise ValueError("rank of the empty overpartition is undefined")
    largest, largest_over = op[0]
    odd_nonover = sum(1 for v, o in op if v % 2 == 1 and not o)
    chi = 1 if (largest % 2 == 1 and not largest_over) else 0
    return ceil(largest / 2) - len(op) + odd_nonover - chi


def m2_rank_distribution(n: int) -> LaurentPolynomial:
    """Sum of z^{m2_rank(pi)} over overpartitions of n; 1 for n = 0."""
    if n == 0:
        return LaurentPolynomial.from_int(1)
    return m2_statistics(n)[0]


# ---------------------------------------------------------------------------
# Residual crank
# ---------------------------------------------------------------------------

def ag_crank(p: Partition) -> int:
    """Andrews-Garvan crank of an ordinary partition.

    Largest part when there are no ones; otherwise (#parts greater than the
    number of ones) minus (number of ones).
    """
    if not p:
        raise ValueError("crank of the empty partition is undefined")
    ones = sum(1 for x in p if x == 1)
    if ones == 0:
        return p[0]
    mu = sum(1 for x in p if x > ones)
    return mu - ones


# Weight for the failure case pi_e/2 == (1): the crank generating function
# assigns the partition of 1 the q-coefficient z + 1/z - 1, not z^{crank}.
_FAILURE_WEIGHT = LaurentPolynomial({1: 1, -1: 1, 0: -1})


def residual_crank_weight(op: Overpartition) -> LaurentPolynomial:
    """z^crank of the even non-overlined parts of op, each halved; 1 when
    there are none, and z + 1/z - 1 when they halve to (1,)."""
    halved = tuple(v // 2 for v, o in op if not o and v % 2 == 0)
    if not halved:
        return LaurentPolynomial.from_int(1)
    if halved == (1,):
        return _FAILURE_WEIGHT
    return LaurentPolynomial.monomial(1, ag_crank(halved))


def residual_m2_crank_distribution(n: int) -> LaurentPolynomial:
    """Residual-crank distribution over overpartitions of n.

    Matches the coefficient of q^n in the residual crank generating
    function exactly, including the repaired failure case.
    """
    if n == 0:
        return LaurentPolynomial.from_int(1)
    return m2_statistics(n)[1]


def _ordinary_statistics(plain: Partition):
    """(largest part, #even parts, residual-crank weight as (exponent,
    coefficient) pairs) of the ordinary parts of an overpartition: all that
    the M2-rank reads of them, and the residual crank, which depends on
    them alone."""
    halved = tuple(v // 2 for v in plain if v % 2 == 0)
    if not halved:
        weight = ((0, 1),)
    elif halved == (1,):
        weight = tuple(_FAILURE_WEIGHT.c.items())
    else:
        weight = ((ag_crank(halved), 1),)
    return (plain[0] if plain else 0), len(halved), weight


@lru_cache(maxsize=None)
def _plain_classes(k: int) -> tuple:
    """The partitions of k read one at a time (``_ordinary_statistics``):
    ((largest part, #even parts), how many) for each class that occurs,
    and the sum of their residual-crank weights as (exponent, coefficient)
    pairs.  Every n > k reuses them."""
    classes: Counter = Counter()
    weights: Counter = Counter()
    for plain in partition_list(k):
        top, evens, weight = _ordinary_statistics(plain)
        classes[top, evens] += 1
        for e, v in weight:
            weights[e] += v
    return tuple(classes.items()), tuple(weights.items())


@lru_cache(maxsize=None)
def _overlined_classes(m: int) -> tuple:
    """((largest part, #parts), how many) over the partitions of m into
    distinct parts, read one at a time: all that the M2-rank reads of the
    overlined parts of an overpartition."""
    return tuple(Counter(((over[0] if over else 0), len(over))
                         for over in distinct_partition_list(m)).items())


@lru_cache(maxsize=None)
def m2_statistics(n: int) -> tuple[LaurentPolynomial, LaurentPolynomial, int]:
    """(M2-rank distribution, residual-crank distribution, overpartitions
    counted) over the overpartitions of n >= 1, in one enumeration.

    Each overpartition is a pair (distinct overlined parts of size m,
    ordinary parts of size n - m), as in ``enumerate_overpartitions``.
    Every part list is still generated and read one at a time, but no
    overpartition tuple is built and the pairs are counted by class: the
    M2-rank reads only (largest part, #parts) of the overlined list and
    (largest part, #even parts) of the ordinary one, so a pair of classes
    adds the product of their sizes to one rank; the largest part is
    overlined when the overlined list reaches it (the overlined copy comes
    first among equal values).  The residual crank reads the ordinary
    parts alone, so the sum of its weights over the partitions of n - m
    counts once for each distinct partition of m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks: dict[int, int] = {}
    cranks: dict[int, int] = {}
    visits = 0
    for m in range(n + 1):
        plains, weights = _plain_classes(n - m)
        overs = len(distinct_partition_list(m))
        visits += overs * len(partition_list(n - m))
        for (top_over, parts_over), c_over in _overlined_classes(m):
            for (top, evens), c in plains:
                largest = max(top, top_over)
                # chi: the largest part is odd and carries no overline
                chi = 1 if largest % 2 and top > top_over else 0
                r = (largest + 1) // 2 - parts_over - evens - chi
                ranks[r] = ranks.get(r, 0) + c_over * c
        for e, v in weights:
            cranks[e] = cranks.get(e, 0) + overs * v
    return LaurentPolynomial(ranks), LaurentPolynomial(cranks), visits
