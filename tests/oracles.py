"""Independent brute-force oracles used to pin down expected values in tests.

Everything here is deliberately naive: direct enumeration, pairwise scans,
fixpoint iteration.  Nothing is shared with the package internals, so an
agreement failure always implicates the fast path.  ``degree_truncation``
wraps its enumerated generators in a ``TermModule`` so they can be handed to
the engine's ladders, ``quotient_monomials`` reads ``TermModule``
components and returns (exponents, basis_exponents) pairs,
``density_polynomial_from_fit`` reads a ``BigradedFit``'s polynomial, and
``diagonal_by_ladder``, ``truncation_totals`` and ``graded_mixed`` read the
lengths of a ``LengthLadder`` the slow way, as references for the engine's
readings of one bigraded fit.  ``ray_by_period_search`` is the ray reader
that searched its period, kept as the reference for the engine's one reading
at the period the generator degrees bound; it shares the engine's
stabilization reader and differs only in the period it reads at.
``ray_chamber_polynomials`` is the chamber fit that interpolated exact ray
limits at rational nodes inside each chamber (by Lagrange's formula, no
elimination), kept as the reference for the engine's one bigraded fit per
chamber cone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

from reesdensity import FitNotConvergedError, InternalInvariantError, TermModule
from reesdensity.counting import MAX_LADDER_N
from reesdensity.density import RAY_N_FLOOR, floor_times, ray_extrapolate
from reesdensity.polyfit import (
    FIT_MARGINS,
    MAX_PERIOD,
    STABLE_WINDOW,
    difference_rows,
    fit_poly2_triangular,
    poly2_eval,
    poly_eval,
    poly_trim,
    stabilized_difference,
)


class CensusOverflowError(InternalInvariantError):
    """The census search passed its node cap: the quotient is not of finite length."""


def monomials_of_degree(d, t):
    """All exponent vectors of length d with coordinate sum t."""
    if t < 0:
        return []
    if d == 0:
        return [()] if t == 0 else []
    if d == 1:
        return [(t,)]
    out = []
    for first in range(t + 1):
        for rest in monomials_of_degree(d - 1, t - first):
            out.append((first,) + rest)
    return out


def divides(g, e):
    return all(a <= b for a, b in zip(g, e))


def ideal_members_at_degree(gens, d, t):
    """Set of degree-t monomials lying in the ideal generated by ``gens``."""
    return {
        exp
        for exp in monomials_of_degree(d, t)
        if any(divides(g, exp) for g in gens)
    }


def count_by_inclusion_exclusion(gens, d, t):
    """Count degree-t members via lcm inclusion-exclusion (use for <= 12 gens)."""
    from math import comb

    gens = sorted(set(map(tuple, gens)))
    if len(gens) > 12:
        raise ValueError("inclusion-exclusion oracle limited to 12 generators")
    total = 0
    for r in range(1, len(gens) + 1):
        sign = 1 if r % 2 == 1 else -1
        for subset in combinations(gens, r):
            lcm = tuple(max(col) for col in zip(*subset))
            rem = t - sum(lcm)
            if rem >= 0:
                total += sign * comb(rem + d - 1, d - 1)
    return total


def taylor_numerator(gens):
    """N_I(t) of HS(A/I) = N_I(t) / (1-t)^d from Taylor's resolution:
    the sum over subsets S of the generators of (-1)^|S| t^(deg lcm S).

    Any generator list works, repeats and non-minimal ones included (use for
    <= 12 gens).  Coefficients from degree 0 up, with no trailing zeros, so
    the unit ideal gives [0].
    """
    gens = [tuple(g) for g in gens]
    if len(gens) > 12:
        raise ValueError("Taylor numerator oracle limited to 12 generators")
    coeffs = {}
    for r in range(len(gens) + 1):
        for subset in combinations(gens, r):
            degree = sum(max(col) for col in zip(*subset)) if subset else 0
            coeffs[degree] = coeffs.get(degree, 0) + (-1) ** r
    out = [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def pivot_numerator(gens, memo=None):
    """N_I(t) of HS(A/I) = N_I(t) / (1-t)^d by Bigatti's pivot recursion
    (Bigatti, "Computation of Hilbert-Poincare series", JPAA 1997).

    N(I) = N(I + (p)) + t^(deg p) N(I : p) on a pure power p = x_s^e of a
    variable that divides the most generators, e their median exponent (or
    1 when x_s^e lies in I; x_s does not, as it divides two minimal
    generators), down to ideals whose generators have pairwise
    disjoint supports, where N = prod(1 - t^(deg g)).  Both branches are
    strictly larger ideals generated by divisors of lcm(I), so it
    terminates.  Same conventions as ``taylor_numerator``, with no
    generator limit; ``memo`` may be shared across calls.
    """
    memo = {} if memo is None else memo
    key = tuple(minimalize_oracle(gens))
    if key in memo:
        return memo[key]
    counts = [sum(1 for g in key if g[s]) for s in range(len(key[0]))] if key else [0]
    if max(counts) <= 1:
        out = [1]
        for g in key:
            out = _add_shifted(out, out, sum(g), -1)
    else:
        s = counts.index(max(counts))
        exps = sorted(g[s] for g in key if g[s])
        e = exps[len(exps) // 2]
        if any(g[s] == sum(g) <= e for g in key):
            e = 1
        pure = tuple(e if k == s else 0 for k in range(len(key[0])))
        plus = pivot_numerator(key + (pure,), memo)
        colon = pivot_numerator(
            [g[:s] + (max(0, g[s] - e),) + g[s + 1 :] for g in key], memo
        )
        out = _add_shifted(plus, colon, e, 1)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    memo[key] = out
    return out


def _add_shifted(a, b, shift, sign):
    """a(t) + sign * t^shift * b(t) on coefficient lists."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for k, v in enumerate(b):
        out[k + shift] += sign * v
    return out


def minimalize_oracle(gens):
    """Divisibility-minimal elements, found by a full pairwise scan."""
    uniq = set(map(tuple, gens))
    kept = {
        g
        for g in uniq
        if not any(h != g and divides(h, g) for h in uniq)
    }
    return sorted(kept, key=lambda t: (sum(t), t))


def product_oracle(a_gens, b_gens):
    """Minimal generators of the product ideal."""
    sums = {
        tuple(x + y for x, y in zip(a, b))
        for a in a_gens
        for b in b_gens
    }
    return minimalize_oracle(sums)


def intersect_oracle(a_gens, b_gens):
    """Minimal generators of the intersection ideal."""
    joins = {
        tuple(max(x, y) for x, y in zip(a, b))
        for a in a_gens
        for b in b_gens
    }
    return minimalize_oracle(joins)


def power_oracle(gens, n):
    if n == 0:
        return [tuple(0 for _ in gens[0])]
    out = list(map(tuple, gens))
    for _ in range(n - 1):
        out = product_oracle(out, gens)
    return minimalize_oracle(out)


def single_colon_variable(gens, i):
    """(I : x_i), monomial ideal version: decrement the i-th exponent once."""
    out = set()
    for g in map(tuple, gens):
        if g[i] > 0:
            out.add(g[:i] + (g[i] - 1,) + g[i + 1 :])
        else:
            out.add(g)
    return minimalize_oracle(out)


def colon_saturation_oracle(gens, i):
    """(I : x_i^inf) by iterating single colons to a fixpoint."""
    cur = minimalize_oracle(gens)
    while True:
        nxt = single_colon_variable(cur, i)
        if nxt == cur:
            return cur
        cur = nxt


def saturation_oracle_components(components):
    """Saturate a term module given as {basis_exponent: [monomial exponents]}.

    Intersects the per-variable colon saturations, computed componentwise by
    fixpoint iteration.  Components that come out empty are dropped.
    """
    out = {}
    for basis, gens in components.items():
        if not gens:
            continue
        d = len(next(iter(gens)))
        cur = None
        for i in range(d):
            sat_i = colon_saturation_oracle(gens, i)
            cur = sat_i if cur is None else intersect_oracle(cur, sat_i)
        if cur:
            out[basis] = cur
    return out


def module_members_at_degree(components, shifts, m):
    """All terms of internal degree m in a term module.

    ``components`` maps basis exponents to generator lists; ``shifts`` are the
    degrees of the basis vectors of the ambient free module.  Returns a set of
    (monomial exponents, basis exponent) pairs.
    """
    out = set()
    for basis, gens in components.items():
        if not gens:
            continue
        d = len(next(iter(gens)))
        base = sum(a * f for a, f in zip(basis, shifts))
        t = m - base
        for exp in ideal_members_at_degree(gens, d, t):
            out.add((exp, basis))
    return out


def degree_truncation(m, c):
    """Submodule M_{>=c} of a TermModule, generated by all its terms of degree c."""
    d = m.ambient.ring.dim
    comps = []
    for basis, gens in m.components:
        t = c - m.ambient.basis_degree(basis)
        bucket = {
            tuple(x + y for x, y in zip(g, extra))
            for g in gens
            for extra in monomials_of_degree(d, t - sum(g))
        }
        if bucket:
            comps.append((basis, tuple(bucket)))
    return TermModule(m.ambient, m.level, tuple(comps))


def chamber_index(breakpoints, x):
    """Index of the open chamber that holds x, counting the breakpoints below
    it: 0 for (-inf, d_1), i for (d_i, d_(i+1)), l for (d_l, inf).  None at a
    breakpoint, which no chamber holds."""
    if x in breakpoints:
        return None
    return sum(1 for b in breakpoints if b < x)


def term_degree(m, term):
    """Degree of an (exponents, basis_exponents) pair in the ambient of ``m``."""
    exp, basis = term
    return sum(exp) + m.ambient.basis_degree(basis)


def quotient_monomials(m, msat, max_nodes=2_000_000):
    """The finite set of terms lying in ``msat`` but not in ``m``, as
    (exponents, basis_exponents) pairs sorted by degree, basis, exponents.

    Searches from the generators of ``msat`` outside ``m``, multiplying by
    variables and pruning branches that enter ``m``.  The pruning is complete
    because divisor chains inside ``msat`` that start outside ``m`` stay
    outside ``m`` until they enter it for good.  The node cap turns a quotient
    that is not of finite length into ``CensusOverflowError`` rather than a
    hang.  ``LengthLadder`` reads the same lengths as differences of the
    graded lengths of the saturation and the module, from K-polynomials;
    this enumeration is the reference they are tested against.
    """
    d = m.ambient.ring.dim
    seen = set()
    frontier = []

    def visit(exp, basis):
        node = (exp, basis)
        if node in seen or any(divides(g, exp) for g in m.component(basis)):
            return
        seen.add(node)
        if len(seen) > max_nodes:
            raise CensusOverflowError(
                f"quotient census exceeded {max_nodes} nodes; "
                "the quotient should have finite length"
            )
        frontier.append(node)

    for exp, basis in msat.generators():
        visit(exp, basis)
    while frontier:
        exp, basis = frontier.pop()
        for i in range(d):
            visit(exp[:i] + (exp[i] + 1,) + exp[i + 1 :], basis)
    return sorted(seen, key=lambda t: (term_degree(m, t), t[1], t[0]))


def density_polynomial_from_fit(fit, d, e):
    """Top-chamber density polynomial implied by a bigraded fit's P-bar.

    The graded lengths P-bar(X, n) - P-bar(X-1, n) have as leading form the
    X-derivative G of P-bar's degree-T form; len((M^n)_{xn})/n^{T-1} tends
    to G(x, 1), and multiplying by (d+e-1)! gives the adic density on
    [d_M, infinity).
    """
    t = fit.total_degree_bound
    coeffs = [Fraction(0)] * t
    for (i, j), coeff in fit.poly.items():
        if i + j == t and i > 0:
            coeffs[i - 1] += i * coeff * factorial(d + e - 1)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def graded_mixed(table, c):
    """(e, status) of the module of ``table``, a ``LengthLadder``, read off
    the polynomial P of its graded lengths, len((M^n)_X) = P(X, n) deep in
    the cone: the reference for the engine's reading e_i = e-bar_{i+1} off
    its cumulative fit.  It shares the engine's elimination and margins and
    differs in the lengths it fits.

    P has total degree t = d+e-2 and is fitted at X = c*n + margin + k on a
    triangular grid from n0 = max(t + 2, 4), then checked on four held-out
    samples, the margin doubling through ``FIT_MARGINS``.  e_i = i! (t-i)!
    coeff(X^i Y^{t-i}) for i < d; the status is "suspect" when P's leading
    form has a term X^i Y^j with i >= d or an e_i is no integer, and
    "undetermined", with e None, when no margin validates.
    """
    m = table.module
    d = m.ambient.ring.dim
    t = d + m.ambient.rank - 2
    n0 = max(t + 2, 4)
    grid = [(k, n0 + j) for j in range(t + 1) for k in range(t + 1 - j)]
    top = n0 + t + 1
    held_out = [(0, top), (1, top), (t + 1, n0), (t + 2, n0 + 1)]

    def sample(margin, k, n):
        x = c * n + margin + k
        return x, n, table.length(n, x)

    for margin in FIT_MARGINS:
        poly = fit_poly2_triangular([sample(margin, k, n) for k, n in grid], t)
        if all(poly2_eval(poly, x, n) == v for x, n, v in (sample(margin, *p) for p in held_out)):
            break
    else:
        return None, "undetermined"
    lead = {i: v for (i, j), v in poly.items() if i + j == t}
    es = tuple(lead.get(i, Fraction(0)) * factorial(i) * factorial(t - i) for i in range(d))
    suspect = any(i >= d for i in lead) or any(v.denominator != 1 for v in es)
    return es, "suspect" if suspect else "ok"


def growth_by_differences(ns, values, max_order, window=3):
    """{"dimension", "multiplicity"} of a sequence sampled at the arithmetic
    progression ``ns``, read off its difference table: the least order k <=
    ``max_order`` whose next difference row ends in ``window`` zeros gives
    dimension k + 1 and multiplicity the last k-th difference over step^k,
    which is k! times the leading coefficient.  None when no order does.
    """
    step = ns[1] - ns[0]
    row = [Fraction(v) for v in values]
    for order in range(max_order + 1):
        nxt = [b - a for a, b in zip(row, row[1:])]
        if len(nxt) >= window and not any(nxt[-window:]):
            return {"dimension": order + 1, "multiplicity": row[-1] / step**order}
        row = nxt
    return None


def diagonal_by_ladder(table, c, ns):
    """(base-ring, extension) diagonals of slope c, read by
    ``growth_by_differences`` off the lengths len((M^n)_{cn}) and the
    cumulative lengths of ``table``, a ``LengthLadder``, at the consecutive
    ``ns``.  The slow reference for the rows the engine reads off one
    cumulative bigraded fit."""
    ns = list(ns)
    ambient = table.module.ambient
    big_d = ambient.ring.dim + ambient.rank - 1
    return (
        growth_by_differences(ns, [table.length(n, c * n) for n in ns], big_d),
        growth_by_differences(ns, [table.cumulative(n, c * n) for n in ns], big_d + 1),
    )


def truncation_totals(table, c, totals):
    """Saturation-quotient totals of the truncation M_{>=c}, never built.

    ``totals`` maps n to t_n(M), for the module of ``table``, a
    ``LengthLadder``.  For c at least every generator degree of M,
    (M_{>=c})^n = (M^n)_{>=nc}, and M^n/(M^n)_{>=nc} has finite length, so
    both saturate to sat(M^n) and t_n(M_{>=c}) = t_n(M) + sum_{j < nc}
    len((M^n)_j), the cumulative length at degree nc - 1.  Slopes up to d_M
    are refused, as ``check_dependence`` refuses them.
    """
    m = table.module
    if m.max_degree is None or c <= m.max_degree:
        raise InternalInvariantError(
            f"truncation census needs c > d_M = {m.max_degree}, got {c}"
        )
    return {n: t + table.cumulative(n, n * c - 1) for n, t in totals.items()}


def ray_by_period_search(table, x):
    """Limit of the adic density at x read along the ray n = n0 + jq, trying
    the periods p = 1..``MAX_PERIOD`` in turn and taking the first whose
    (r + 1 + STABLE_WINDOW) * p + 1 samples stabilize at lag p and whose
    held-out next sample continues them (r = d+e-2).  A period whose last
    sample lies above ``MAX_LADDER_N`` is never sampled."""
    m = table.module
    r = m.ambient.ring.dim + m.ambient.rank - 2
    q = x.denominator
    n0 = q * max(2, -(-RAY_N_FLOOR // q))
    vals = []
    for period in range(1, MAX_PERIOD + 1):
        ns = range(n0, n0 + ((r + 1 + STABLE_WINDOW) * period + 2) * q, q)
        if ns[-1] > MAX_LADDER_N:
            raise FitNotConvergedError(f"the ray at x = {x} passes the power bound")
        vals += [table.length(n, floor_times(x, n)) for n in ns[len(vals) :]]
        ext = stabilized_difference(ns[:-1], vals[:-1], r, period)
        if ext is None:
            continue
        degree = ext["degree"]
        if difference_rows(vals[-(degree + 1) * period - 1 :], degree + 1, period)[-1][0]:
            continue
        return (r + 1) * ext["normalized"] if degree == r else Fraction(0)
    raise FitNotConvergedError(f"no stable ray at x = {x} with period <= {MAX_PERIOD}")


def chamber_nodes(lo, hi, count):
    """Low-denominator sample points in the chamber (lo, hi], cheapest first:
    the p/q in lowest terms for q = 1, 2, ....  The last chamber (lo, inf)
    (``hi`` None) is sampled on (lo, lo + count]: no node is a breakpoint.
    Breakpoints are integers, so each q adds lo + 1/q and the loop ends."""
    hi = lo + count if hi is None else hi
    nodes = []
    q = 1
    while len(nodes) < count:
        nodes.extend(
            Fraction(p, q)
            for p in range(lo * q + 1, hi * q + 1)
            if gcd(p, q) == 1
        )
        q += 1
    return nodes[:count]


def lagrange_coefficients(xs, ys):
    """Ascending coefficients of the polynomial of degree < len(xs) through
    the points (xs[i], ys[i]), by Lagrange's formula."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, denominator = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                # multiply by (X - xj)
                basis = [a - xj * b for a, b in zip([Fraction(0), *basis], [*basis, Fraction(0)])]
                denominator *= xi - xj
        coeffs = [c + yi * b / denominator for c, b in zip(coeffs, basis)]
    return coeffs


def ray_chamber_polynomials(table):
    """The chamber polynomials of the adic density of the module of
    ``table``, a ``LengthLadder``, one per chamber of ``detect_chambers``
    (the empty one below d_1 first): each interpolated through d+e-1 exact
    ray limits (``ray_extrapolate``) at ``chamber_nodes`` and held to two
    more, else ``FitNotConvergedError``."""
    m = table.module
    fit_nodes = m.ambient.ring.dim + m.ambient.rank - 1
    bps = m.generator_degrees
    polys = [()]
    for lo, hi in zip(bps, [*bps[1:], None]):
        nodes = chamber_nodes(lo, hi, fit_nodes + 2)
        values = [ray_extrapolate(table, x) for x in nodes]
        poly = poly_trim(lagrange_coefficients(nodes[:fit_nodes], values[:fit_nodes]))
        for x, v in zip(nodes[fit_nodes:], values[fit_nodes:]):
            if poly_eval(poly, x) != v:
                raise FitNotConvergedError(f"held-out x = {x} disagrees with the chamber fit")
        polys.append(poly)
    return tuple(polys)
