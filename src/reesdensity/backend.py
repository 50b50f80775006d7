"""Exponent-vector kernels.

Exponent lists come back deduplicated, minimal under componentwise
divisibility, and sorted by (total degree, lex).  Callers rely on that order:
the first generator has minimal degree, and sorted tuples serve as memo keys.

The divisibility kernel works on packed integers.  Exponents must be
nonnegative integers.  If ``m`` is the largest exponent a call can produce
(for the product, the largest sum), each coordinate gets a field of
``w = m.bit_length() + 1`` bits, the first coordinate in the most
significant field, and the total degree sits in the bits above all ``d``
fields:

    P(a) = deg(a) << (d*w)  |  a_1 << ((d-1)*w)  |  ...  |  a_d

The top bit of every field is a guard bit, always 0 in a packed vector; ``G``
has exactly the guard bits set.  Then ``a`` divides ``b`` iff
``((P(b) | G) - P(a)) & G == G``: each field computes ``b_i + 2^(w-1) - a_i``,
which never borrows from the field above and keeps its guard bit exactly
when ``a_i <= b_i``.  Comparing packed integers compares degrees first and
then the coordinates from the first, so sorting them gives the canonical
(total degree, lex) order directly.  Sums of packed vectors are the packed
sums as long as the fields are wide enough for the summed exponents, which
lets the product skip building a tuple per pair.

Vectors of length 2 skip the packing: a staircase needs no divisibility
test.  Sorted by first coordinate (then second), a point is minimal exactly
when its second coordinate is below that of every point before it, so one
sweep that compares with the last point kept finds the minimal set, and a
final sort restores the canonical order.  The input's dimension picks the
kernel.
"""

from __future__ import annotations

BACKEND: str = "python"


def _pack(exp, width: int) -> int:
    packed = sum(exp)
    for a in exp:
        packed = packed << width | a
    return packed


def _minimal_packed(packed, dim: int, width: int) -> list:
    """The divisibility-minimal packed vectors, ascending (canonical order)."""
    shift = dim * width
    guards = 0
    for i in range(dim):
        guards |= 1 << (i * width + width - 1)
    below: list = []  # kept vectors of degree lower than the current one
    level: list = []  # kept vectors of the current degree
    deg = -1
    for p in sorted(packed):
        if p >> shift != deg:
            deg = p >> shift
            below += level
            level = []
        # equal-degree distinct vectors never divide each other
        q = p | guards
        for k in below:
            if (q - k) & guards == guards:
                break
        else:
            level.append(p)
    below += level
    return below


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


def _staircase(points) -> list:
    """The minimal points among 2-vectors, in canonical order."""
    return sorted(minimal_staircase(points), key=degree_lex)


def degree_lex(exp: tuple) -> tuple:
    """Sort key of the canonical (total degree, lex) order."""
    return sum(exp), exp


def minimalize_exponents(gens) -> list:
    """Keep only the divisibility-minimal exponent vectors."""
    uniq = set(map(tuple, gens))
    if len(uniq) <= 1:
        return list(uniq)
    dim = len(next(iter(uniq)))
    if dim == 2:
        return _staircase(uniq)
    width = max(map(max, uniq)).bit_length() + 1
    by_packed = {_pack(g, width): g for g in uniq}
    return [by_packed[p] for p in _minimal_packed(by_packed, dim, width)]


def product_exponents(a_gens, b_gens) -> list:
    """Minimal generators of the product: pairwise sums, then minimalize."""
    if not a_gens or not b_gens:
        return []
    dim = len(a_gens[0])
    if dim == 2:
        return _staircase([(a0 + b0, a1 + b1) for a0, a1 in a_gens for b0, b1 in b_gens])
    width = (max(map(max, a_gens)) + max(map(max, b_gens))).bit_length() + 1
    a_packed = [_pack(a, width) for a in a_gens]
    b_packed = [_pack(b, width) for b in b_gens]
    sums = {pa + pb for pa in a_packed for pb in b_packed}
    mask = (1 << width) - 1
    fields = range((dim - 1) * width, -1, -width)
    return [
        tuple([p >> s & mask for s in fields])
        for p in _minimal_packed(sums, dim, width)
    ]


def intersect_exponents(a_gens, b_gens) -> list:
    """Minimal generators of the intersection: pairwise lcm (componentwise max)."""
    joins = {
        tuple(max(x, y) for x, y in zip(a, b))
        for a in a_gens
        for b in b_gens
    }
    return minimalize_exponents(joins)


def divides_any(exp, gens) -> bool:
    """True iff some generator divides ``exp`` componentwise."""
    return any(all(g <= e for g, e in zip(gen, exp)) for gen in gens)
