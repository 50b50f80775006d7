"""Graded-piece length counting against enumeration and closed forms."""

import random
import sys
import threading
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from util import (
    M_SCALE_D4,
    RING_XYZ,
    census_by_enumeration,
    census_by_lengths,
    components_of,
    ideal,
    module,
    random_module,
)

from reesdensity import (
    InternalInvariantError,
    LengthLadder,
    RingSpec,
    length_component,
    power,
    saturate,
)
from reesdensity import counting
from reesdensity.backend import minimalize_exponents
from reesdensity.counting import count_ideal_degree, k_polynomial


# -- monomial counting primitive -------------------------------------------------


def test_count_unit_ideal():
    assert count_ideal_degree([(0, 0)], 5) == 6


def test_count_x2_xy_degree_3():
    assert count_ideal_degree([(2, 0), (1, 1)], 3) == 3


def test_count_square_degree_5():
    assert count_ideal_degree([(4, 0), (3, 1), (2, 2)], 5) == 4


def test_count_empty_and_negative():
    assert count_ideal_degree([], 3) == 0
    assert count_ideal_degree([(1, 0)], -1) == 0


def test_count_below_min_degree():
    assert count_ideal_degree([(2, 1), (0, 4)], 2) == 0


def test_count_single_variable():
    assert count_ideal_degree([(3,)], 7) == 1
    assert count_ideal_degree([(3,)], 2) == 0


def _random_gens_with_edge_cases(rng, cases, max_exp, max_gens):
    """Random generator lists for d = 2, 3, then ten for d = 1, then the unit
    and zero ideals."""
    for dims in [(2, 3)] * cases + [(1,)] * 10:
        d = rng.choice(dims)
        yield d, [
            tuple(rng.randint(0, max_exp) for _ in range(d))
            for _ in range(rng.randint(1, max_gens))
        ]
    for d in (1, 2, 3):
        yield d, [(0,) * d]
        yield d, []


def test_count_matches_enumeration_oracle():
    rng = random.Random(7)
    for d, gens in _random_gens_with_edge_cases(rng, 60, 4, 6):
        for t in range(0, 13):
            want = len(oracles.ideal_members_at_degree(gens, d, t))
            assert count_ideal_degree(gens, t) == want


def test_count_matches_inclusion_exclusion():
    rng = random.Random(13)
    for d, gens in _random_gens_with_edge_cases(rng, 40, 3, 8):
        for t in range(0, 11):
            assert count_ideal_degree(gens, t) == oracles.count_by_inclusion_exclusion(gens, d, t)


# -- module lengths -----------------------------------------------------------------


def test_length_component_maximal_power():
    m = ideal([(1, 0), (0, 1)])
    for n in range(1, 5):
        p = power(m, n)
        for deg in range(n, 9):
            assert length_component(p, deg) == deg + 1


def test_length_component_below_support():
    m = ideal([(1, 0), (0, 1)], shift=0)
    assert length_component(power(m, 3), 2) == 0


def test_length_component_respects_shift():
    m = ideal([(2, 0), (1, 1)], shift=-2)
    assert length_component(m, 0) == 2
    assert length_component(m, -1) == 0
    assert length_component(m, 1) == 3


def test_length_component_rank2():
    m = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    # degree 1: x e1 and y e2
    assert length_component(m, 1) == 2
    # degree 2: x^2, xy on e1; xy, y^2 on e2
    assert length_component(m, 2) == 4


def test_length_matches_module_enumeration():
    rng = random.Random(31)
    for _ in range(30):
        m = random_module(rng, 2, rng.choice((1, 2)))
        comps = components_of(m)
        shifts = m.ambient.shifts
        for deg in range(-2, 9):
            want = len(oracles.module_members_at_degree(comps, shifts, deg))
            assert length_component(m, deg) == want


def test_cumulative_length_maximal_ideal():
    ladder = LengthLadder(ideal([(1, 0), (0, 1)]))
    assert ladder.cumulative(1, 2) == 5
    assert ladder.cumulative(1, 0) == 0


def test_cumulative_matches_summed_enumeration():
    # a rank-2 module with shift -1 and a d = 3 ideal
    cases = [
        module({0: [(2, 0), (1, 1)], 1: [(0, 1)]}, (-1, 0)),
        ideal([(2, 0, 0), (1, 1, 0), (0, 1, 2)], ring=RING_XYZ),
    ]
    for m in cases:
        comps = components_of(m)
        shifts = m.ambient.shifts
        ladder = LengthLadder(m)
        running = 0
        for deg in range(-3, 9):
            running += len(oracles.module_members_at_degree(comps, shifts, deg))
            assert ladder.cumulative(1, deg) == running


def test_cumulative_telescopes():
    m = ideal([(2, 0), (1, 1)])
    ladder = LengthLadder(m)
    for deg in range(0, 8):
        assert ladder.cumulative(1, deg) - ladder.cumulative(1, deg - 1) == length_component(m, deg)


# -- saturation quotient censuses ------------------------------------------------------


def test_census_x_times_maximal_powers():
    # sat((x^2, xy)^n) = (x^n), so the quotient lives in degrees n .. 2n-1
    m = ideal([(2, 0), (1, 1)])
    ladder = LengthLadder(m)
    for n in range(1, 13):
        p = power(m, n)
        assert ladder.sat_quotient_total(n) == n * (n + 1) // 2
        assert (ladder.sat_quotient_total(n), census_by_lengths(ladder, n, 2 * n + 3)) == (
            census_by_enumeration(p, saturate(p))
        )


def test_census_saturated_module_is_zero():
    ladder = LengthLadder(ideal([(1, 0)]))
    assert ladder.sat_quotient_total(1) == 0
    assert census_by_lengths(ladder, 1, 6) == {}


def test_census_square_maximal():
    ladder = LengthLadder(power(ideal([(1, 0), (0, 1)]), 2))
    assert ladder.sat_quotient_total(1) == 3
    assert census_by_lengths(ladder, 1, 6) == {0: 1, 1: 2}


def test_census_degrees_track_shift():
    ladder = LengthLadder(ideal([(2, 0), (1, 1)], shift=-2))
    assert ladder.sat_quotient_total(1) == 1
    assert census_by_lengths(ladder, 1, 4) == {-1: 1}


def test_k_polynomial_of_x2_xy():
    # HS(A/(x^2, xy)) = (1 - 2t^2 + t^3) / (1-t)^2
    assert k_polynomial([(2, 0), (1, 1)]) == [1, 0, -2, 1]
    assert k_polynomial([(0, 0)]) == [0]
    assert k_polynomial([]) == [1]


def _two_variable_gens(rng, d):
    x, y = rng.sample(range(d), 2)
    gens = []
    for _ in range(rng.randint(1, 8)):
        g = [0] * d
        g[x], g[y] = rng.randint(0, 6), rng.randint(0, 6)
        gens.append(tuple(g))
    return gens


def _staircase_node(gens):
    """Generators in exactly two variables, two of them sharing one: a node
    that only the two-variable closed form closes."""
    supports = [{s for s, v in enumerate(g) if v} for g in gens]
    return len(set().union(*supports)) == 2 and any(
        a & b for a, b in combinations(supports, 2)
    )


def test_k_polynomial_matches_taylor_numerator():
    rng = random.Random(41)
    two_variable = [_two_variable_gens(rng, d) for d in (2, 3, 4) for _ in range(40)]
    edge = [
        [(0, 0)],
        [(0, 0, 0)],
        [(5, 0)],
        [(0, 0, 4)],
        [(2, 1), (2, 1), (1, 3)],
        [(1, 2, 0), (1, 2, 0), (0, 1, 1), (3, 0, 0)],
    ]
    for gens in two_variable + edge:
        got = k_polynomial(gens)
        assert got == oracles.taylor_numerator(gens)
        # one convention: no trailing zeros, and the unit ideal gives [0]
        assert got[-1] != 0 or got == [0]
    assert k_polynomial([(0, 0)]) == k_polynomial([(0, 0, 0)]) == [0]
    # mixed supports in d = 4, where a node in four used variables is sliced
    # into memoized nodes and one in three into staircases: every memoized
    # node, those closed as two-variable staircases among them, matches the
    # oracle; a node in exactly two variables is rarer here than in d = 3,
    # hence 200 ideals
    reaching = 0
    for _ in range(200):
        gens = [tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(3, 8))]
        memo = {}
        k_polynomial(gens, memo)
        for key, poly in memo.items():
            assert poly == oracles.taylor_numerator(key)
            assert poly[-1] != 0 or poly == [0]
        reaching += any(map(_staircase_node, memo))
    assert reaching >= 10


def _three_of_d_variables(rng, d):
    """Random generators in d variables that use exactly three of them."""
    cols = rng.sample(range(d), 3)
    while True:
        gens = []
        for _ in range(rng.randint(1, 8)):
            g = [0] * d
            for s in cols:
                g[s] = rng.randint(0, 4)
            gens.append(tuple(g))
        if all(any(g[s] for g in gens) for s in cols):
            return gens


def test_node_in_three_used_variables_matches_taylor_numerator():
    rng = random.Random(43)
    ideals = [
        [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 9))]
        for _ in range(150)
    ]
    ideals += [_three_of_d_variables(rng, d) for d in (4, 5) for _ in range(40)]
    ideals += [
        # gaps between the levels of the sliced variable
        [(3, 0, 0), (0, 3, 0), (1, 1, 3), (0, 1, 6), (2, 0, 9)],
        # a pure power of it, alone on its level or beside other generators
        [(2, 1, 0), (0, 3, 1), (0, 0, 3)],
        [(2, 1, 0), (0, 4, 1), (1, 0, 2), (0, 0, 2)],
        [(0, 2, 0, 0, 1), (3, 0, 0, 0, 0), (0, 0, 0, 0, 4)],
        # the unit ideal and single generators
        [(0, 0, 0)],
        [(2, 3, 1)],
        [(0, 2, 0, 1, 3)],
    ]
    for gens in ideals:
        memo = {}
        assert k_polynomial(gens, memo) == oracles.taylor_numerator(gens), gens
        # the root's levels are staircases in the two other used variables,
        # closed by their formula, so the root is the only memoized node
        assert len(memo) == 1, gens
    # four variables with disjoint supports are sliced like any other ideal
    # in four variables
    gens = [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)]
    assert k_polynomial(gens) == oracles.taylor_numerator(gens)


@st.composite
def ideals_in_four_to_six_variables(draw):
    """Generators in d = 4-6 variables, exponents <= 3, sometimes squared."""
    d = draw(st.integers(4, 6))
    vector = st.tuples(*[st.integers(0, 3)] * d)
    gens = draw(st.lists(vector, min_size=1, max_size=7))
    return oracles.power_oracle(gens, draw(st.integers(1, 2)))


@given(ideals_in_four_to_six_variables())
# pure powers with disjoint supports, the unit ideal, a root that uses three
# of six variables, and (x^2, y^2, z^2, w^3, xyz)^2
@example([(1, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 3, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 2)])
@example([(0, 0, 0, 0)])
@example([(2, 0, 1, 0, 0, 0), (0, 0, 3, 0, 0, 1), (1, 0, 0, 0, 0, 1)])
@example(oracles.power_oracle([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 1, 0)], 2))
@settings(max_examples=60, deadline=None)
def test_k_polynomial_matches_pivot_oracle_in_four_to_six_variables(gens):
    # every node the slicing recursion visits, against Bigatti's pivot
    # recursion and, where it is small enough, Taylor's resolution
    memo, pivot_memo = {}, {}
    got = k_polynomial(gens, memo)
    assert got == oracles.pivot_numerator(gens, pivot_memo)
    for key, poly in memo.items():
        assert poly == oracles.pivot_numerator(key, pivot_memo), key
        if len(key) <= 12:
            assert poly == oracles.taylor_numerator(key), key


def test_k_polynomial_slices_only_used_variables():
    # four generators that use four of 400 variables: one slice on a used
    # variable gives two nodes in three used variables, each sliced into
    # staircases, and no node is spent on an unused variable
    gens = [tuple(int(k in (i, (i + 1) % 4)) for k in range(400)) for i in range(4)]
    memo = {}
    assert k_polynomial(gens, memo) == oracles.taylor_numerator(gens) == [1, 0, -4, 4, -1]
    assert len(memo) == 3


def test_rank2_four_variable_ladder_matches_enumeration():
    ring = RingSpec(("x", "y", "z", "w"))
    rng = random.Random(47)
    for _ in range(6):
        comps = {
            i: [tuple(rng.randint(0, 2) for _ in range(4)) for _ in range(rng.randint(1, 3))]
            for i in range(2)
        }
        m = module(comps, tuple(rng.randint(-1, 1) for _ in range(2)), ring)
        ladder = LengthLadder(m)
        for n in (1, 2, 3):
            p = power(m, n)
            running = 0
            for deg in range(p.min_degree - 1, p.max_degree + 3):
                want = len(oracles.module_members_at_degree(components_of(p), m.ambient.shifts, deg))
                running += want
                assert ladder.length(n, deg) == want, (comps, n, deg)
                assert ladder.cumulative(n, deg) == running, (comps, n, deg)


def test_census_of_infinite_quotient_is_internal_error(monkeypatch):
    # a wrong saturation: (x) over (x^2), and a component missing from the
    # smaller module; both quotients are nested but of infinite length
    cases = [
        (ideal([(2, 0)]), ideal([(1, 0)])),
        (module({0: [(1, 0)]}, (0, 0)), module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))),
    ]
    # one wrong component in a sum: (x)/(x^2) is infinite, and A/(x, y) has
    # length 1, so only the sum of the components' quotients is checked
    cases.append((
        module({0: [(2, 0)], 1: [(1, 0), (0, 1)]}, (0, 0)),
        module({0: [(1, 0)], 1: [(0, 0)]}, (0, 0)),
    ))
    for m, wrong_sat in cases:
        ladder = LengthLadder(m)
        monkeypatch.setattr(ladder, "sat_power", lambda n, s=wrong_sat: s)
        with pytest.raises(InternalInvariantError, match=r"sat\(M\^1\)"):
            ladder.sat_quotient_total(1)


# -- shared ladder ------------------------------------------------------------------


def test_length_ladder_consistency():
    m = ideal([(2, 0), (1, 1)])
    ladder = LengthLadder(m)
    for n in (1, 2, 5):
        p = power(m, n)
        for deg in range(2 * n, 2 * n + 4):
            assert ladder.length(n, deg) == length_component(p, deg)
            assert ladder.sat_length(n, deg) == length_component(saturate(p), deg)
        assert (ladder.sat_quotient_total(n), census_by_lengths(ladder, n, 2 * n + 3)) == (
            census_by_enumeration(p, saturate(p))
        )
        assert ladder.cumulative(n, 2 * n + 3) == LengthLadder(p).cumulative(1, 2 * n + 3)


def _row_fits_its_numerator(row, mod, numerator) -> bool:
    """A power's or saturation's row starts at the least basis degree and
    holds at most max(max_i(b_i - low + deg N_i), d) + 1 entries."""
    basis_degree = mod.ambient.basis_degree
    low = min(basis_degree(b) for b, _ in mod.components)
    deg = max(basis_degree(b) - low + len(numerator(g)) - 1 for b, g in mod.components)
    return row.low == low and len(row._coeffs) <= max(deg, mod.ambient.ring.dim) + 1


def test_length_ladder_rows_end_at_their_numerator():
    # a degree below the support reads 0; a low degree, then degrees far
    # above every numerator's degree, are read from one row per power whose
    # table ends at its summed numerator
    cases = [
        module({0: [(2, 0), (1, 1)], 1: [(0, 2), (1, 0)]}, (-1, 0)),
        ideal([(2, 0, 0), (1, 1, 0), (0, 1, 2)], ring=RING_XYZ),
    ]
    for m in cases:
        ladder = LengthLadder(m)

        def members(components, j):
            return len(oracles.module_members_at_degree(components, m.ambient.shifts, j))

        assert ladder.length(1, m.min_degree - 1) == 0
        assert ladder.cumulative(1, m.min_degree - 1) == 0
        for n in (1, 2):
            p = power(m, n)
            comps = components_of(p)
            sat = oracles.saturation_oracle_components(comps)
            top = p.min_degree + max(len(k_polynomial(g)) for _, g in p.components)
            degrees = [p.min_degree, p.min_degree + 1, top + 12, p.min_degree + 3, top + 20]
            for deg in degrees:
                assert ladder.length(n, deg) == members(comps, deg)
                assert ladder.sat_length(n, deg) == members(sat, deg)
                assert ladder.cumulative(n, deg) == sum(
                    members(comps, j) for j in range(p.min_degree, deg + 1)
                )
            # the row holds at most max(max_i(b_i - low + deg N_i), d) + 1
            # entries, however far past the numerator it was asked
            assert _row_fits_its_numerator(ladder._row(n, False), p, k_polynomial)


def _row_cases(rng):
    """Random ideals in d = 2..4, then rank-2 modules with shifts -1..1, from
    generators of degrees close enough that few of them divide another."""

    def gens(d, count, low, high):
        out = []
        for _ in range(count):
            g = [0] * d
            for _ in range(rng.randint(low, high)):
                g[rng.randrange(d)] += 1
            out.append(tuple(g))
        return out

    for d in (2, 2, 2, 3, 3, 3, 4, 4, 4):
        ring = RingSpec(tuple(f"x{i}" for i in range(d)))
        yield ideal(gens(d, rng.randint(1, 4), 2, 5 - d // 2), ring=ring)
    for d in (2, 2, 2, 3, 3, 3):
        ring = RingSpec(tuple(f"x{i}" for i in range(d)))
        comps = {i: gens(d, rng.randint(1, 3), 1, 3) for i in range(2)}
        yield module(comps, tuple(rng.randint(-1, 1) for _ in range(2)), ring)


def test_length_rows_are_exact_past_their_table():
    # enumeration through each table and five degrees past it, where the rows
    # answer from their Newton forms; far past it, where enumerating in
    # d = 4 is too slow, the lcm inclusion-exclusion of the oracles (for the
    # cumulative lengths, in one more variable that no generator uses)
    rng = random.Random(53)
    for m in _row_cases(rng):
        d = m.ambient.ring.dim
        shifts = m.ambient.shifts
        ladder = LengthLadder(m)
        for n in (1, 2):
            p, sat = ladder.power(n), ladder.sat_power(n)
            comps, sat_comps = components_of(p), components_of(sat)
            top = max(
                m.ambient.basis_degree(b) + len(oracles.taylor_numerator(g)) - 1
                for mod in (p, sat)
                for b, g in mod.components
            )

            def exclusion(components, deg, cumulative=False):
                pad = (0,) if cumulative else ()
                return sum(
                    oracles.count_by_inclusion_exclusion(
                        [g + pad for g in gens], d + len(pad), deg - m.ambient.basis_degree(b)
                    )
                    for b, gens in components.items()
                )

            running = 0
            for deg in range(sat.min_degree - 1, top + 6):
                want = len(oracles.module_members_at_degree(comps, shifts, deg))
                running += want
                assert ladder.length(n, deg) == want, (m, n, deg)
                assert ladder.cumulative(n, deg) == running, (m, n, deg)
                assert ladder.sat_length(n, deg) == len(
                    oracles.module_members_at_degree(sat_comps, shifts, deg)
                ), (m, n, deg)
            for deg in (top + 17, top + 60, 10**6, 10**30):
                assert ladder.length(n, deg) == exclusion(comps, deg), (m, n, deg)
                assert ladder.sat_length(n, deg) == exclusion(sat_comps, deg), (m, n, deg)
                assert ladder.cumulative(n, deg) == exclusion(comps, deg, True), (m, n, deg)
            for is_sat, mod in ((False, p), (True, sat)):
                row = ladder._row(n, is_sat)
                assert _row_fits_its_numerator(row, mod, oracles.taylor_numerator), (m, n, is_sat)


def test_ladder_rows_never_minimalize_their_generators_again(monkeypatch):
    # the components of a power are canonical already: a row hands them to
    # the numerator as they are, and only the slices below the root are
    # minimalized
    ring = RingSpec(("x", "y", "z", "w"))
    m = ideal([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 1, 0)], ring=ring)
    ladder = LengthLadder(m)
    for n in (1, 2):
        ladder.sat_power(n)
    minimalized = []

    def record(points):
        points = tuple(points)
        minimalized.append(points)
        return minimalize_exponents(points)

    monkeypatch.setattr(counting, "minimalize_exponents", record)
    for n in (1, 2):
        ladder.length(n, 2 * n + 3)
        ladder.cumulative(n, 40)
        ladder.sat_quotient_total(n)
    roots = {
        gens for n in (1, 2) for mod in (ladder.power(n), ladder.sat_power(n))
        for _, gens in mod.components
    }
    assert minimalized and not roots & set(minimalized)


def test_shared_ladder_answers_threads_as_one_thread():
    # a row is built whole before the lock publishes it, and a power the
    # ladder dropped is built again equal, so four threads on one ladder,
    # switching often, read what one thread reads; each thread starts at
    # its own point of the list
    m = module({0: [(2, 0, 1), (1, 1, 0)], 1: [(0, 2, 0), (1, 0, 2)]}, (0, -1), RING_XYZ)
    queries = [
        (kind, n, deg)
        for n in (1, 2, 3)
        for kind in ("length", "sat_length", "cumulative")
        for deg in (-1, 1, 2 * n, 3 * n + 2, 6 * n + 9, 10**6)
    ] + [("sat_quotient_total", n, None) for n in (1, 2, 3)]

    def ask(ladder, kind, n, deg):
        method = getattr(ladder, kind)
        return method(n) if deg is None else method(n, deg)

    want = {q: ask(LengthLadder(m), *q) for q in queries}
    shared = LengthLadder(m)
    got: dict = {}

    def work(k):
        cut = k * len(queries) // 4
        got[k] = {q: ask(shared, *q) for q in queries[cut:] + queries[:cut]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {k: want for k in range(4)}


def test_length_ladder_shares_power_cache():
    m = ideal([(2, 0), (1, 1)])
    ladder = LengthLadder(m)
    p1 = ladder.power(6)
    p2 = ladder.power(6)
    assert p1 is p2


@pytest.mark.parametrize("m", [
    M_SCALE_D4,
    module({0: [(2, 0, 1), (1, 1, 0)], 1: [(0, 2, 0), (1, 0, 2)]}, (0, -1), RING_XYZ),
], ids=["scale-d4", "rank2-d3"])
def test_ladder_holds_only_the_newest_power(m):
    # the census up to n = 8 leaves M^0, M^1 and M^8 in the ladder, the same
    # saturations and the same powers on every colon ladder; no memoized
    # K-polynomial is keyed by the components of a power or saturation
    ladder = LengthLadder(m)
    for n in range(1, 9):
        ladder.sat_quotient_total(n)
    assert set(ladder._powers) <= {0, 1, 8}
    assert set(ladder._sat) <= {0, 1, 8}
    for colon in ladder._colons:
        assert set(colon._powers) <= {0, 1, 8}
    fresh = LengthLadder(m)
    roots = {
        gens for n in range(1, 9) for mod in (fresh.power(n), fresh.sat_power(n))
        for _, gens in mod.components
    }
    assert not roots & set(ladder._kpoly)
