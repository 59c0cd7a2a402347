"""Partitions, overpartitions, and their rank/crank/spt statistics.

Everything here is brute-force enumeration.  These functions are the
independent oracles the series engine is checked against, so they must stay
free of generating-function shortcuts.  A partition is the tuple of its
parts, and an overpartition the tuple of its (value, overlined) parts, in
the canonical order of ``Overpartition``.  The part lists are memoized by
(size, largest part allowed, smallest part allowed), so a suffix list is
built once.  ``m2_statistics`` still reads every part list one at a time:
an ordinary one once, through the list of its even parts, which gives its
class (largest part, #even parts) and its residual crank.  It multiplies
the sizes of statistic classes where it would pair each overlined list
with each ordinary one, and pairs each overlined class, of largest part
T, with the ordinary classes split at T: those whose largest part is at
most T, where the M2-rank reads T, summed into one count per #even parts,
and those above T, where it reads their own largest part, summed by the
rank they give.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from math import ceil
from operator import neg
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


@lru_cache(maxsize=None)
def _plain_classes(k: int) -> tuple:
    """The partitions of k, each read once through the list of its even
    parts: (below, above, weights).

    The M2-rank reads only (largest part top, #even parts) of the ordinary
    parts, split at the overlined largest part T (``m2_statistics``):
    below[T], for T = 0..k, is ((-#evens, how many), ...) over the
    partitions with top <= T, and above[T] is ((top//2 - #evens, how
    many), ...) over those with top > T; an overlined largest part above k
    reads below[k] and above[k] = ().  weights is the sum of their
    residual-crank weights (``ag_crank`` of the halved even parts,
    inlined) as (exponent, coefficient) pairs.  Every n > k reuses them."""
    tops = []  # (largest part, #even parts) of each partition
    cranks = []  # ag_crank of its halved even parts, but for (1,)
    failures = 0  # partitions whose even parts halve to (1,)
    for plain in partition_list(k):
        evens = [v for v in plain if not v & 1]
        tops.append((plain[0] if plain else 0, len(evens)))
        if not evens:
            cranks.append(0)
        elif ones := evens.count(2):
            if len(evens) == 1:
                failures += 1
                continue
            # #halved parts greater than the number of ones, less that
            # number; the even parts decrease, so a bisection counts them
            cranks.append(bisect_left(evens, -2 * ones, key=neg) - ones)
        else:
            cranks.append(evens[0] >> 1)
    weights = Counter(cranks)
    for e, v in _FAILURE_WEIGHT.c.items():
        weights[e] += failures * v
    by_top: list[list] = [[] for _ in range(k + 1)]
    for (top, evens), c in Counter(tops).items():
        by_top[top].append((evens, c))
    below, above = [], [()] * (k + 1)
    acc: dict[int, int] = {}
    for counts in by_top:
        for evens, c in counts:
            acc[-evens] = acc.get(-evens, 0) + c
        below.append(tuple(acc.items()))
    acc = {}
    for top in range(k, -1, -1):
        above[top] = tuple(acc.items())
        for evens, c in by_top[top]:
            acc[top // 2 - evens] = acc.get(top // 2 - evens, 0) + c
    return below, above, tuple(weights.items())


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
    overpartition tuple is built and the pairs are counted by class.  The
    M2-rank reads only (largest part T, #parts P) of the overlined list
    and (largest part top, #even parts) of the ordinary one, so each
    overlined class is paired with the ordinary classes split at T
    (``_plain_classes``).  Where top <= T the largest part is overlined
    (the overlined copy comes first among equal values) and the rank is
    ceil(T/2) - P - #evens; above T it is ceil(top/2) - P - #evens - chi,
    with chi = 1 for odd top, which is top//2 - P - #evens.  The residual
    crank reads the ordinary parts alone, so the sum of its weights over
    the partitions of n - m counts once for each distinct partition of m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = [0] * (2 * n + 1)  # ranks[n + r]: every M2-rank is in [-n, n]
    cranks: dict[int, int] = {}
    visits = 0
    for m in range(n + 1):
        k = n - m
        below, above, weights = _plain_classes(k)
        overs = len(distinct_partition_list(m))
        visits += overs * len(partition_list(k))
        for (top_over, parts_over), c_over in _overlined_classes(m):
            t = min(top_over, k)
            h = n + (top_over + 1) // 2 - parts_over
            for d, c in below[t]:
                ranks[h + d] += c_over * c
            h = n - parts_over
            for d, c in above[t]:
                ranks[h + d] += c_over * c
        for e, v in weights:
            cranks[e] = cranks.get(e, 0) + overs * v
    return (LaurentPolynomial({r - n: c for r, c in enumerate(ranks) if c}),
            LaurentPolynomial(cranks), visits)
