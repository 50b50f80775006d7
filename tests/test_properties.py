"""Structural invariants checked on randomized inputs."""

import random
from fractions import Fraction as F
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from util import (
    RING_XY,
    RING_XYZ,
    census_by_enumeration,
    census_by_lengths,
    ideal,
    module,
    random_module,
)

from reesdensity import (
    FitNotConvergedError,
    LengthLadder,
    TermModule,
    default_grid,
    check_dependence,
    epsilon_multiplicity,
    fit_bigraded_polynomial,
    is_submodule,
    length_component,
    load_corpus_module,
    mixed_multiplicities,
    power,
    product,
    ray_extrapolate,
    sample_adic,
    sample_saturated,
    saturate,
    term_module,
)
from reesdensity.backend import intersect_exponents, minimalize_exponents, product_exponents
from reesdensity.core import GradedFreeModule
from reesdensity.density import _chamber_nodes
from reesdensity.multiplicity import extract_polynomial_growth
from reesdensity.polyfit import STABLE_WINDOW, stabilized_difference

# Exponent vectors in two variables, total degree <= 4.
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
    lambda t: sum(t) <= 4
)


@st.composite
def term_modules(draw, max_rank=2, shifts=None):
    if shifts is None:
        e = draw(st.integers(1, max_rank))
        shifts = tuple(draw(st.integers(-1, 1)) for _ in range(e))
    e = len(shifts)
    comps = {}
    for i in range(e):
        gens = draw(st.lists(exponents, min_size=1, max_size=4))
        low = min(sum(g) for g in gens)
        if low + shifts[i] < 0:  # keep every generator in nonnegative degree
            gens = [(g[0] - shifts[i], g[1]) for g in gens]
        comps[i] = gens
    return module(comps, shifts)


@st.composite
def full_rank_ideals(draw):
    gens = draw(st.lists(exponents, min_size=1, max_size=5))
    return module({0: gens}, (0,))


@given(term_modules())
@settings(max_examples=60, deadline=None)
def test_minimalize_idempotent(m):
    for _, gens in m.components:
        once = minimalize_exponents(gens)
        assert minimalize_exponents(once) == once


# exponents at 2^k - 1 and 2^k, and one far larger than the rest
_EDGE_EXPONENTS = [0, 10**6] + [2**k - j for k in (1, 2, 3, 8, 16, 31, 32, 64) for j in (0, 1)]


@st.composite
def exponent_list_pairs(draw):
    d = draw(st.integers(1, 6))
    point = st.tuples(*[st.one_of(st.integers(0, 6), st.sampled_from(_EDGE_EXPONENTS))] * d)
    a, b = (draw(st.lists(point, min_size=1, max_size=10)) for _ in range(2))
    return a + a[: draw(st.integers(0, len(a)))], b  # repeats


@given(exponent_list_pairs())
@example(([(3, 1, 4)], [(3, 1, 4)]))  # a single point
@example(([(2, 0, 1), (0, 2, 1), (1, 1, 1), (3, 0, 0), (2, 0, 1)], [(1, 0, 0), (0, 1, 0)]))
@example(([(10**6, 0, 0), (0, 2**16, 2**16 - 1), (10**6, 1, 0), (1, 2**16, 2**16)], [(1, 1, 1)]))
@settings(max_examples=100, deadline=None)
def test_kernels_match_oracles(pair):
    a, b = pair
    assert minimalize_exponents(a) == oracles.minimalize_oracle(a)
    assert product_exponents(a, b) == oracles.product_oracle(a, b)
    assert intersect_exponents(a, b) == oracles.intersect_oracle(a, b)


@st.composite
def module_pairs(draw):
    a = draw(term_modules())
    return a, draw(term_modules(shifts=a.ambient.shifts))


@given(module_pairs())
# both e1*e2 and e2*e1 land on basis (1, 1); their union {(2, 0), (2, 2)} is
# not minimal
@example((
    module({0: [(1, 0)], 1: [(2, 1)]}, (0, -1)),
    module({0: [(0, 1)], 1: [(1, 0)]}, (0, -1)),
))
# rank 3: basis exponents of the product first appear out of order
@example((
    module({0: [(1, 0)], 1: [(0, 1)], 2: [(1, 1)]}, (0, 0, -1)),
    module({0: [(0, 2)], 1: [(1, 0)], 2: [(2, 0)]}, (0, 0, -1)),
))
@example((
    ideal([(2, 0, 0), (1, 1, 0), (0, 0, 3)], ring=RING_XYZ),
    ideal([(1, 0, 1), (0, 2, 0)], ring=RING_XYZ),
))
@settings(max_examples=40, deadline=None)
def test_product_and_intersect_are_already_canonical(pair):
    # product and saturate, which intersects colon ideals, skip TermModule
    # validation; constructing the same components again must change nothing
    a, b = pair
    ab = product(a, b)
    for result in (ab, product(ab, a), saturate(ab), saturate(a)):
        assert result == TermModule(result.ambient, result.level, result.components)


@given(term_modules(), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_power_additivity(m, a, b):
    assert product(power(m, a), power(m, b)) == power(m, a + b)


@given(term_modules())
@settings(max_examples=30, deadline=None)
def test_saturation_contains_and_idempotent(m):
    s = saturate(m)
    assert is_submodule(m, s)
    assert saturate(s) == s


@given(full_rank_ideals(), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_power_level_and_component_count(m, n):
    p = power(m, n)
    assert p.level == n
    # rank-one symmetric powers stay rank one
    assert len(p.components) == 1


@given(term_modules(max_rank=2), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_full_rank_power_component_count(m, n):
    p = power(m, n)
    e = m.ambient.rank
    assert len(p.components) == comb(n + e - 1, e - 1)


@given(full_rank_ideals(), st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_length_dominated_by_polynomial_count(m, deg):
    # the quotient length never exceeds the ambient graded piece
    ell = length_component(m, deg)
    assert 0 <= ell <= deg + 1


@given(full_rank_ideals(), st.integers(1, 4), st.integers(0, 10))
@settings(max_examples=20, deadline=None)
def test_power_piece_injects_into_next(m, n, deg):
    # multiplying by a fixed minimal generator embeds (M^n)_m in (M^{n+1})_{m+d1}
    d1 = min(m.generator_degrees)
    ladder = LengthLadder(m)
    assert ladder.length(n, deg) <= ladder.length(n + 1, deg + d1)


@given(full_rank_ideals(), st.integers(4, 10))
@settings(max_examples=15, deadline=None)
def test_adic_at_most_saturated(m, n):
    xs = (F(1, 2), F(1), F(3, 2), F(2))
    a = sample_adic(m, xs, [n])
    s = sample_saturated(m, xs, [n])
    for i in range(len(xs)):
        assert a.samples[n][i] <= s.samples[n][i]


@given(full_rank_ideals())
@settings(max_examples=15, deadline=None)
def test_default_grid_covers_support(m):
    xs = default_grid(m)
    assert xs[0] < 0 <= xs[-1]
    assert m.max_degree < xs[-1]
    steps = {b - a for a, b in zip(xs, xs[1:])}
    assert len(steps) == 1 and steps.pop() > 0


@given(term_modules())
@settings(max_examples=30, deadline=None)
def test_canonical_equality_round_trip(m):
    clone = term_module(m.ambient, m.level, [
        (exp, basis)
        for basis, gens in m.components
        for exp in gens
    ])
    assert clone == m


@given(st.lists(exponents, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_saturation_of_primary_is_unit(gens):
    # adding both pure powers makes the ideal m-primary, so saturation is (1)
    full = gens + [(5, 0), (0, 5)]
    m = module({0: full}, (0,))
    s = saturate(m)
    assert s.generator_degrees == (0,)


@given(full_rank_ideals(), st.integers(1, 3))
@example(module({0: [(1, 0), (0, 2)], 1: [(2, 1), (1, 2)]}, (0, -1)), 2)
@example(ideal([(2, 0, 0), (1, 1, 0), (1, 0, 1)], ring=RING_XYZ), 2)
@settings(max_examples=15, deadline=None)
def test_saturated_quotient_is_finite_length(m, n):
    # the quotient census is supported in finitely many degrees; beyond the
    # last one the power and its saturation have equal graded pieces, so
    # sat_length - length is the enumerated census and then zero
    ladder = LengthLadder(m)
    total, census = census_by_enumeration(ladder.power(n), ladder.sat_power(n))
    top = (max(census) if census else ladder.power(n).max_degree) + 4
    assert ladder.sat_quotient_total(n) == total
    assert census_by_lengths(ladder, n, top) == census


@given(term_modules(), st.integers(1, 3))
@example(module({0: [(2, 0), (1, 1)], 1: [(0, 1)]}, (-1, 0)), 2)
@example(ideal([(2, 0, 0), (1, 1, 0), (0, 1, 2)], ring=RING_XYZ), 2)
@settings(max_examples=15, deadline=None)
def test_ladder_lengths_match_enumeration(m, n):
    # graded, saturated and cumulative lengths of M^n, term by term
    ladder = LengthLadder(m)
    p, s = ladder.power(n), ladder.sat_power(n)
    shifts = m.ambient.shifts

    def members(mod, deg):
        comps = {b: list(g) for b, g in mod.components}
        return len(oracles.module_members_at_degree(comps, shifts, deg))

    running = 0
    for deg in range(s.min_degree - 1, p.max_degree + 3):
        running += members(p, deg)
        assert ladder.length(n, deg) == members(p, deg)
        assert ladder.sat_length(n, deg) == members(s, deg)
        assert ladder.cumulative(n, deg) == running


def _assert_fit_matches_enumeration(m, cumulative):
    # P-bar(X, n), or with cumulative False the graded length P-bar(X, n) -
    # P-bar(X-1, n), against terms of M^n counted one by one, at n past
    # every sampled n, with offsets k = X - c*n - margin inside and beyond
    # the sampled ones
    ladder = LengthLadder(m)
    fit = fit_bigraded_polynomial(m, table=ladder)
    top = fit.n_base + fit.total_degree_bound + 1
    for n in (top + 1, top + 2):
        p = ladder.power(n)
        comps = {b: list(g) for b, g in p.components}
        counts = {
            deg: len(oracles.module_members_at_degree(comps, m.ambient.shifts, deg))
            for deg in range(p.min_degree, fit.c * n + fit.margin + 8)
        }
        for k in (0, 3, 7):
            x = fit.c * n + fit.margin + k
            below = sum(v for deg, v in counts.items() if deg <= x)
            if cumulative:
                assert fit.evaluate(x, n) == below
            else:
                assert fit.evaluate(x, n) - fit.evaluate(x - 1, n) == counts[x]


@pytest.mark.parametrize("cumulative", [False, True])
@pytest.mark.parametrize("name", ["mixed_rank2", "ideal_x2_xy_shifted", "three_vars"])
def test_bigraded_fit_matches_enumeration_off_its_grid(name, cumulative):
    _assert_fit_matches_enumeration(load_corpus_module(name), cumulative)


@given(term_modules(), st.booleans())
# fits that validate only at margins 8 and 2 past c*n
@example(module({0: [(11, 0), (0, 12)]}, (0,)), False)
@example(module({0: [(11, 0), (0, 12)]}, (0,)), True)
@example(module({0: [(8, 0), (0, 9)], 1: [(0, 1), (4, 0)]}, (0, 1)), False)
@settings(max_examples=30, deadline=None)
def test_bigraded_fit_matches_enumeration_on_random_modules(m, cumulative):
    # one fit per margin on consecutive n: past X = d_M*n the lengths are a
    # polynomial in (X, n), with no residue classes in n to search
    _assert_fit_matches_enumeration(m, cumulative)


@st.composite
def random_modules(draw):
    """``util.random_module`` over 2 or 3 variables, of rank 1 to 3."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_module(rng, draw(st.integers(2, 3)), draw(st.integers(1, 3)))


@given(random_modules(), st.integers(1, 2))
# margins 16 and 64 for the graded lengths, 16 and 32 for P-bar; the last
# validates at no margin up to the cap on either route
@example(ideal([(20, 0), (0, 21)]), 1)
@example(ideal([(38, 0), (0, 39)]), 1)
@example(ideal([(80, 0), (0, 81)]), 1)
@settings(max_examples=40, deadline=None)
def test_plain_mixed_vector_matches_the_graded_fit(m, step):
    # e read off P-bar as e_i = e-bar_{i+1} against e read off a fit of the
    # graded lengths, at the slopes d_M + 1 and d_M + 2
    c = m.max_degree + step
    table = LengthLadder(m)
    rep = mixed_multiplicities(m, c=c, table=table)
    assert (rep.values["e"], rep.status) == oracles.graded_mixed(table, c)


@given(term_modules())
@example(module({0: [(2, 0), (1, 1)], 1: [(0, 1), (3, 0)]}, (0, -1)))
@example(ideal([(2, 0, 0), (1, 1, 0), (0, 1, 2)], ring=RING_XYZ))
@example(module({0: [(3, 0), (2, 2)]}, (-2,)))
@settings(max_examples=15, deadline=None)
def test_truncation_totals_match_built_truncation(m):
    # (M_{>=c})^n = (M^n)_{>=nc} for c >= d_M: the census of the truncation
    # is the census of M^n plus the lengths of M^n below degree nc
    ladder = LengthLadder(m)
    totals = {n: ladder.sat_quotient_total(n) for n in range(1, 7)}
    for c in (m.max_degree + 1, m.max_degree + 2):
        built = LengthLadder(oracles.degree_truncation(m, c))
        assert oracles.truncation_totals(ladder, c, totals) == {
            n: built.sat_quotient_total(n) for n in totals
        }


@given(term_modules())
@example(ideal([(2, 0, 0), (1, 1, 0), (0, 1, 2)], ring=RING_XYZ))
@settings(max_examples=10, deadline=None)
def test_check_rows_read_off_one_fit_match_the_slow_readings(m):
    # check reads its diagonal rows at c and c + 1 and its stand-in off one
    # cumulative fit and epsilon; the slow routes read the diagonals off the
    # ladder's difference tables, and the stand-in as the epsilon of the
    # truncation M_{>=c}, built term by term
    ladder = tuple(range(1, 17))
    v = check_dependence(m, m, ladder=ladder, robustness_c=True)
    rows = {cr.name: cr.left for cr in v.criteria}
    lengths = LengthLadder(m)
    for slope, suffix in ((v.c, ""), (v.c + 1, "+1")):
        slow = oracles.diagonal_by_ladder(lengths, slope, ladder)
        for version, want in zip("as", slow):
            if want is not None:
                assert rows[f"diagonal-{version}{suffix}"] == (
                    want["dimension"], want["multiplicity"]
                )
    built = oracles.degree_truncation(m, v.c)
    truncation = epsilon_multiplicity(built, ladder, cross_check=False).values["exact"]
    if truncation is not None and rows["epsilon"] is not None:
        assert rows["epsilon-truncation"] == truncation


def test_ambient_hash_and_equality():
    a = GradedFreeModule(RING_XY, (0, -1))
    b = GradedFreeModule(RING_XY, (0, -1))
    assert a == b
    assert hash(a) == hash(b)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(lambda c: c[-1] != 0),
    st.integers(0, 5),
    st.integers(1, 4),
    st.lists(st.integers(-50, 50), max_size=3),
    st.integers(0, 4),
)
@settings(max_examples=150, deadline=None)
def test_stabilized_difference_reads_polynomial_samples(coeffs, a, h, prefix, extra):
    # samples of a degree-D integer polynomial at n = a + j*h, after a
    # prefix of arbitrary values; D + 1 + STABLE_WINDOW polynomial samples
    # put the whole trailing window of the (D+1)-st differences past it; a
    # lower row is a nonzero polynomial of degree <= 2 there, which cannot
    # end in STABLE_WINDOW zeros, so the least stabilizing order is D
    degree = len(coeffs) - 1
    count = len(prefix) + degree + 1 + STABLE_WINDOW + extra
    ns = [a + j * h for j in range(count)]
    values = prefix + [
        sum(c * n**i for i, c in enumerate(coeffs)) for n in ns[len(prefix):]
    ]
    got = stabilized_difference(ns, values, 3)
    assert got["degree"] == degree
    assert got["normalized"] == factorial(degree) * coeffs[-1]
    assert got["step"] == h
    # the (D+1)-st difference at position k, straight from the binomial sum
    diffs = [
        sum((-1) ** (degree + 1 - i) * comb(degree + 1, i) * values[k + i]
            for i in range(degree + 2))
        for k in range(count - degree - 1)
    ]
    onset = next(k for k in range(len(diffs)) if not any(diffs[k:]))
    assert got["onset_n"] == ns[onset]
    assert stabilized_difference(ns[:STABLE_WINDOW], values[:STABLE_WINDOW], 3) is None


def _lag_differences(values, order, lag):
    """The order-th differences at lag ``lag``, each from its binomial sum."""
    return [
        sum((-1) ** (order - i) * comb(order, i) * values[k + i * lag] for i in range(order + 1))
        for k in range(len(values) - order * lag)
    ]


@given(
    st.integers(0, 3),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 5),
    st.sampled_from([a for a in range(-5, 6) if a]),
    st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=6, max_size=6),
    st.lists(st.integers(-50, 50), max_size=3),
    st.integers(0, 4),
)
# n + (n mod 6) on n = 0..29: the last five samples lie on the line 2n - 24,
# so period 1 fits the tail window and reads slope 2 from n = 24 on
@example(1, 6, 1, 0, 1, [[c, 0, 0] for c in range(6)], [], 0)
@settings(max_examples=150, deadline=None)
def test_growth_reader_reads_quasi_polynomial_samples(
    degree, period, h, a0, lead, lower, prefix, extra
):
    # samples at n = a0 + j*h of f(n) = a*n^D + sum_{k<D} c[n mod p][k]*n^k,
    # one leading coefficient a for every residue class, after a junk prefix
    count = len(prefix) + (degree + 1 + STABLE_WINDOW) * period + extra
    ns = [a0 + j * h for j in range(count)]
    values = prefix + [
        lead * n**degree + sum(c * n**k for k, c in enumerate(lower[n % period][:degree]))
        for n in ns[len(prefix):]
    ]
    got = extract_polynomial_growth(ns, values, 3)
    assert got["step"] % h == 0 and 1 <= got["step"] // h <= period
    lag = got["step"] // h
    if any(_lag_differences(values[len(prefix):], degree + 1, lag)):
        # a shorter period that fits only the tail window: the reading holds
        # from its onset on
        tail = values[ns.index(got["onset_n"]):]
        assert not any(_lag_differences(tail, got["degree"] + 1, lag))
        return
    assert got["degree"] == degree
    assert got["normalized"] == factorial(degree) * lead
    assert got["onset_n"] <= ns[len(prefix)]


@st.composite
def ray_modules(draw):
    """Full-rank modules in d = 2 or 3 variables, of rank 1 or 2, with shifts
    in -1..1 and every generator in degree 0..3."""
    d = draw(st.integers(2, 3))
    shifts = tuple(draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2)))
    comps = {}
    for i, shift in enumerate(shifts):
        degrees = draw(st.lists(st.integers(max(0, -shift), 3 - shift), min_size=1, max_size=3))
        comps[i] = [draw(st.sampled_from(oracles.monomials_of_degree(d, k))) for k in degrees]
    return module(comps, shifts, RING_XY if d == 2 else RING_XYZ)


def _ray_outcome(read, table, x):
    try:
        return read(table, x)
    except FitNotConvergedError:
        return "not converged"


@given(ray_modules())
# degrees {0, 2}: L = 2, the period of the ray at x = 1/3
@example(module({0: [(2, 0), (1, 1)], 1: [(0, 1)]}, (0, -1)))
# degrees {0, 2, 3}: L = 6
@example(module({0: [(0, 0, 2), (1, 1, 1)], 1: [(0, 0, 1)]}, (0, -1), RING_XYZ))
@settings(max_examples=30, deadline=None)
def test_ray_read_at_the_module_period_matches_the_period_search(m):
    # along a ray the lengths are a quasi-polynomial whose period divides
    # L = lcm |delta - delta'| over the generator degrees, so one reading at
    # lag L gives what the search over p = 1..12 found first; two nodes per
    # chamber keep every denominator at most 2 (a ray at x = p/q samples
    # powers up to n ~ 44q at L = 6 and d + e = 5)
    table = LengthLadder(m)
    bps = m.generator_degrees
    nodes = [x for lo, hi in zip(bps, [*bps[1:], None]) for x in _chamber_nodes(lo, hi, 2)]
    for x in [*map(F, bps), *nodes]:
        assert _ray_outcome(ray_extrapolate, table, x) == _ray_outcome(
            oracles.ray_by_period_search, table, x
        ), x
