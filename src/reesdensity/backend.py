"""Exponent-vector kernels.

Exponent lists come back deduplicated, minimal under componentwise
divisibility, and sorted by (total degree, lex).  Callers rely on that order:
the first generator has minimal degree, and sorted tuples serve as memo keys.
"""

from __future__ import annotations

BACKEND: str = "python"


def _canonical(gens) -> list:
    return sorted(set(map(tuple, gens)), key=lambda t: (sum(t), t))


def minimalize_exponents(gens) -> list:
    """Keep only the divisibility-minimal exponent vectors."""
    uniq = _canonical(gens)
    if len(uniq) <= 1:
        return uniq
    kept: list = []
    kept_degs: list = []
    for exp in uniq:
        deg = sum(exp)
        dominated = False
        for kdeg, kexp in zip(kept_degs, kept):
            # equal-degree distinct vectors never divide each other
            if kdeg < deg and all(g <= e for g, e in zip(kexp, exp)):
                dominated = True
                break
        if not dominated:
            kept.append(exp)
            kept_degs.append(deg)
    return kept


def product_exponents(a_gens, b_gens) -> list:
    """Minimal generators of the product: pairwise sums, then minimalize."""
    sums = {
        tuple(x + y for x, y in zip(a, b))
        for a in a_gens
        for b in b_gens
    }
    return minimalize_exponents(sums)


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
