"""Exponent-vector kernels.

Exponent lists come back deduplicated, minimal under componentwise
divisibility, and sorted by (total degree, lex).  Callers rely on that order:
the first generator has minimal degree, and sorted tuples serve as memo keys.

For every length but 2 (in use, d >= 3) the divisibility kernel is one
bitset index over all candidates.  Only a point of strictly lower total
degree can divide another, and a divisor need not be minimal itself, so a
point is minimal iff no candidate of lower degree divides it.  The distinct
points are sorted into the canonical order, point ``j`` getting bit ``j``.
For each coordinate ``i`` a running OR over the sorted distinct values maps
a value ``v`` to the bits of the points with ``a_i <= v``.  A point's mask
starts as the bits of every point of lower degree and is ANDed with the
running OR at each of its coordinates: what is left are its divisors, so it
is minimal iff the mask ends at 0.  Each AND is one C-level operation on an
integer of at most one bit per candidate, and when every point has the same
degree nothing is indexed at all.

Vectors of length 2 skip the index: a staircase needs no divisibility
test.  Sorted by first coordinate (then second), a point is minimal exactly
when its second coordinate is below that of every point before it, so one
sweep that compares with the last point kept finds the minimal set, and a
final sort restores the canonical order.  The input's dimension picks the
kernel.
"""

from __future__ import annotations

from operator import add

BACKEND: str = "python"


def _minimal_index(points: set) -> list:
    """The divisibility-minimal points of a set of d-vectors, in canonical order."""
    points = sorted(points)
    points.sort(key=sum)  # stable: ties of degree stay in lex order
    if sum(points[0]) == sum(points[-1]):
        return points  # distinct points of one degree never divide each other
    at_most = []  # per coordinate: value v -> bits of the points at most v there
    for i in range(len(points[0])):
        bits: dict = {}
        for j, p in enumerate(points):
            bits[p[i]] = bits.get(p[i], 0) | 1 << j
        run = 0
        for v in sorted(bits):
            run = bits[v] = run | bits[v]
        at_most.append(bits)
    kept = []
    deg = None
    for j, p in enumerate(points):
        if sum(p) != deg:
            deg, lower = sum(p), (1 << j) - 1
        mask = lower
        for bits, v in zip(at_most, p):
            mask &= bits[v]
        if not mask:
            kept.append(p)
    return kept


def minimal_staircase(points) -> list:
    """The minimal points among 2-vectors, sorted by first coordinate."""
    kept = []
    low = None  # second coordinate of the last point kept, the least so far
    # equal first coordinates sort by the second, so a repeat or a point
    # above an earlier one with the same first coordinate is dropped too
    for p in sorted(points):
        if low is None or p[1] < low:
            kept.append(p)
            low = p[1]
    return kept


def _minimal(points: set) -> list:
    """The divisibility-minimal points of a set of tuples, in canonical order."""
    if len(points) <= 1:
        return list(points)
    if len(next(iter(points))) != 2:
        return _minimal_index(points)
    # first coordinates of a staircase are distinct, so a stable sort by
    # degree leaves ties of degree in lex order
    stair = minimal_staircase(points)
    stair.sort(key=sum)
    return stair


def minimalize_exponents(gens) -> list:
    """Keep only the divisibility-minimal exponent vectors."""
    return _minimal(set(map(tuple, gens)))


def product_exponents(a_gens, b_gens) -> list:
    """Minimal generators of the product: pairwise sums, then minimalize."""
    return _minimal({tuple(map(add, a, b)) for a in a_gens for b in b_gens})


def intersect_exponents(a_gens, b_gens) -> list:
    """Minimal generators of the intersection: pairwise lcm (componentwise max)."""
    return _minimal({tuple(map(max, a, b)) for a in a_gens for b in b_gens})


def divides_any(exp, gens) -> bool:
    """True iff some generator divides ``exp`` componentwise."""
    return any(all(g <= e for g, e in zip(gen, exp)) for gen in gens)
