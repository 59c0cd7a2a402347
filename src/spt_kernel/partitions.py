"""Partitions, overpartitions, and their rank/crank/spt statistics.

Everything here is brute-force enumeration.  These functions are the
independent oracles the series engine is checked against, so they must stay
free of generating-function shortcuts.  A partition is the tuple of its
parts, and an overpartition the tuple of its (value, overlined) parts, in
the canonical order of ``Overpartition``.  The part lists are memoized by
(size, largest part allowed, smallest part allowed), so a suffix list is
built once; the spt oracles read them.

The M2-rank and residual-crank oracles build no part list.  ``m2_rows``
walks the partition tree once for every size up to its bound, adding parts
in nondecreasing order, so each partition is one node, visited once, and
each node carries what the two statistics read of it: its largest part,
its even parts and its 2s (``_ordinary_walk``).  A second walk visits the
partitions into distinct parts, the overlined parts, by largest part and
number of parts (``_distinct_walk``).  Each overlined class, of largest
part T, is paired with the ordinary classes split at T: those whose
largest part is at most T, where the M2-rank reads T, and those above T,
where it reads their own largest part.  The class counts are multiplied
as rows packed in ints, not pair by pair.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, isqrt
from operator import mul
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
    if n < 0:
        raise ValueError("n must be >= 0")
    return m2_rows(n)[n][0]


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
    if n < 0:
        raise ValueError("n must be >= 0")
    return m2_rows(n)[n][1]


# ---------------------------------------------------------------------------
# The enumeration oracle: one walk of the partition tree
# ---------------------------------------------------------------------------

def _ordinary_walk(bound: int) -> tuple[list, list]:
    """Every partition of every k <= bound, each visited once, as a node of
    a depth-first walk that adds its parts in nondecreasing order.

    Returns (tops, cranks).  tops[k][top][evens] counts the partitions of
    k by largest part and number of even parts: all that the M2-rank reads
    of the ordinary parts of an overpartition.  cranks[k][half + c], with
    half = bound // 2, counts them by the crank c of their halved even
    parts (``ag_crank``, 0 when there are none), and cranks[k][-1] those
    whose even parts halve to (1,), which weigh ``_FAILURE_WEIGHT``.

    A node carries (size, largest part, #even parts, #2s, #even parts
    above twice the #2s, crank slot), and the crank is read off these,
    not off the parts.  With no 2s the halved parts have no ones, and the
    crank is the largest even part halved, the last one added; otherwise
    it is the number of halved parts greater than the #2s, less that
    number.  Every 2 comes before any larger part, so the #2s is final
    when a larger even part is compared with it.  An odd part leaves the
    even parts, and so the crank slot, as they are."""
    half = bound // 2
    fail = 2 * half + 1
    tops = [[[0] * (k // 2 + 1) for _ in range(k + 1)]
            for k in range(bound + 1)]
    cranks = [[0] * (fail + 1) for _ in range(bound + 1)]
    tops[0][0][0] = cranks[0][half] = 1  # the empty partition, the root
    stack = [(0, 1, 0, 0, 0, half)]  # the root's parts start at 1
    pop = stack.pop
    push = stack.append
    while stack:
        size, low, evens, twos, above, slot = pop()
        rest = bound - size
        # the child that adds part v has children of its own if 2v <= rest
        for v in range(low | 1, rest + 1, 2):
            k = size + v
            tops[k][v][evens] += 1
            cranks[k][slot] += 1
            if 2 * v <= rest:
                push((k, v, evens, twos, above, slot))
        evens += 1
        for v in range(low + (low & 1), rest + 1, 2):
            k = size + v
            tops[k][v][evens] += 1
            if v == 2:
                # every even part is a 2: one halves to (1,), the failure,
                # and more to ones only, of crank -#2s
                s = half - evens if twos else fail
                cranks[k][s] += 1
                if 4 <= rest:
                    push((k, 2, evens, twos + 1, 0, s))
                continue
            if twos:
                a = above + (v > 2 * twos)
                s = half + a - twos
            else:
                a = 0
                s = half + (v >> 1)
            cranks[k][s] += 1
            if 2 * v <= rest:
                push((k, v, evens, twos, a, s))
    return tops, cranks


def _distinct_walk(bound: int) -> list:
    """Every partition into distinct parts of every m <= bound, each
    visited once, as a node of a depth-first walk that adds its parts in
    increasing order: classes[m][T][P] counts those of m with largest part
    T and P parts, all that the M2-rank reads of the overlined parts of an
    overpartition.  P(P + 1)/2 <= m <= bound bounds P, so each list of
    counts by P has ``most`` + 1 entries."""
    most = (isqrt(8 * bound + 1) - 1) // 2
    classes = [[[0] * (most + 1) for _ in range(m + 1)]
               for m in range(bound + 1)]
    stack = [(0, 0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        size, top, parts = pop()
        classes[size][top][parts] += 1
        parts += 1
        for v in range(top + 1, bound - size + 1):
            push((size + v, v, parts))
    return classes


def _pack(row: list[int], width: int) -> int:
    """The counts of row, row[0] lowest, width bits each, in one int.

    The oracle keeps its own packing, apart from ``rings``' decoders: the
    rows it is compared with are read through those."""
    x = 0
    for c in reversed(row):
        x = x << width | c
    return x


def _unpack(x: int, width: int, count: int) -> list[int]:
    """The lowest count slots of x, width bits each, lowest first."""
    mask = (1 << width) - 1
    out = []
    for _ in range(count):
        out.append(x & mask)
        x >>= width
    return out


@lru_cache(maxsize=None)
def m2_rows(bound: int) -> tuple[
        tuple[LaurentPolynomial, LaurentPolynomial, int], ...]:
    """(M2-rank distribution, residual-crank distribution, overpartitions
    counted) of each n = 0..bound, from one walk over the partitions and
    one over the partitions into distinct parts of every size up to bound.

    Each overpartition of n is a pair (distinct overlined parts of size m,
    ordinary parts of size k = n - m), as in ``enumerate_overpartitions``.
    The M2-rank reads only (largest part T, #parts P) of the overlined
    parts and (largest part, #even parts e) of the ordinary ones, so the
    pairs are counted by class, split at T.  Where the ordinary largest
    part is at most T the largest part is overlined (the overlined copy
    comes first among equal values) and the rank is ceil(T/2) - P - e;
    above T it is ceil(top/2) - P - e - chi, with chi = 1 for odd top,
    which is top//2 - P - e.  So the ordinary classes of k give, at each
    T, one row S[k][T] by exponent: z^ceil(T/2) z^-e over those with top
    <= T and z^(top//2 - e) over those above; the overlined classes of m
    with largest part T give one row O[m][T], of z^-P; and the ranks of n
    are the sum over m and T of O[m][T] S[n - m][T].  Each row is packed
    in one int, a count to a slot as wide as the p̄(bound) overpartitions
    of bound (every count is >= 0 and none is larger), so one product of two
    ints is the product of two rows.  The residual crank reads the
    ordinary parts alone: the row of n sums, over m, the row of n - m
    once for each distinct partition of m.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    tops, cranks = _ordinary_walk(bound)
    classes = _distinct_walk(bound)
    plain = [sum(map(sum, by_top)) for by_top in tops]
    distinct = [sum(map(sum, by_top)) for by_top in classes]
    counted = [sum(map(mul, distinct[:n + 1], plain[n::-1]))
               for n in range(bound + 1)]
    width = counted[-1].bit_length()
    half = bound // 2  # the slot of exponent 0 in S and in the crank rows
    most = len(classes[0][0]) - 1  # the slot of exponent 0 in O
    base = most + half  # the slot of exponent 0 in their products
    over = [[_pack(by_parts[::-1], width) for by_parts in by_top]
            for by_top in classes]
    split = []
    for k, by_top in enumerate(tops):
        lift = (half - k // 2) * width
        rows = [_pack(by_evens[::-1], width) << lift for by_evens in by_top]
        below = sum(rows)  # the classes with top <= T; all of them for T >= k
        row = [below << ((t + 1) // 2 * width) for t in range(bound + 1)]
        above = 0  # the classes with top > T
        for t in range(k, -1, -1):
            row[t] = (below << ((t + 1) // 2 * width)) + above
            below -= rows[t]
            above += rows[t] << (t // 2 * width)
        split.append(row)
    weights = [_pack(row, width) for row in cranks]
    out = []
    for n in range(bound + 1):
        ranks = sum(sum(map(mul, over[m], split[n - m]))
                    for m in range(n + 1))
        crank = _unpack(sum(map(mul, distinct[:n + 1], weights[n::-1])),
                        width, 2 * half + 2)
        failures = crank.pop()
        crank = {e - half: c for e, c in enumerate(crank)}
        for e, v in _FAILURE_WEIGHT.c.items():
            crank[e] = crank.get(e, 0) + failures * v
        out.append((LaurentPolynomial({r - base: c for r, c in enumerate(
                        _unpack(ranks, width, base + n + 1))}),
                    LaurentPolynomial(crank), counted[n]))
    return tuple(out)


def m2_statistics(n: int) -> tuple[LaurentPolynomial, LaurentPolynomial, int]:
    """(M2-rank distribution, residual-crank distribution, overpartitions
    counted) over the overpartitions of n >= 1: the last row of
    ``m2_rows(n)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return m2_rows(n)[n]
