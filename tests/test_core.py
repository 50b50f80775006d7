"""Exact algebra of term modules: minimality, products, powers, saturation."""

import json
import random
import sys
import threading

import pytest

import oracles
import reesdensity
from util import RING_XY, components_of, fresh_python, ideal, module, random_module

from reesdensity import (
    GradedFreeModule,
    InputError,
    InternalInvariantError,
    LengthLadder,
    RingSpec,
    Term,
    colon_variable_saturation,
    intersect,
    is_submodule,
    membership,
    power,
    product,
    saturate,
    term_module,
    unit_module,
    zero_module,
)
from reesdensity.backend import (
    BACKEND,
    intersect_exponents,
    minimalize_exponents,
    product_exponents,
)
from reesdensity.core import module_to_payload


def gens_of(m):
    comps = dict(m.components)
    assert len(comps) == 1
    return sorted(next(iter(comps.values())))


def test_package_names_resolve_to_their_definitions():
    for name in reesdensity.__all__:
        value = getattr(reesdensity, name)
        home = reesdensity.backend if name == "BACKEND" else sys.modules[value.__module__]
        assert value is getattr(home, name), name
    assert reesdensity.BACKEND == "python"
    assert {"__all__", *reesdensity.__all__} <= set(dir(reesdensity))
    with pytest.raises(AttributeError):
        reesdensity.no_such_name


def test_package_loads_a_submodule_on_first_use_of_its_names():
    state = fresh_python("""
import json, sys
import reesdensity
before = sorted(name for name in sys.modules if name.startswith("reesdensity."))
reesdensity.check_dependence
print(json.dumps({"before": before, "cached": "check_dependence" in vars(reesdensity),
                  "loaded": "reesdensity.dependence" in sys.modules}))
""")
    assert state == {"before": [], "cached": True, "loaded": True}


# -- canonical form and minimality ---------------------------------------------


def test_minimalize_divisible_pair():
    assert gens_of(ideal([(2, 0), (3, 0)])) == [(2, 0)]


def test_minimalize_incomparable_pair():
    assert gens_of(ideal([(2, 0), (1, 1)])) == [(1, 1), (2, 0)]


def test_minimalize_with_duplicate():
    m = ideal([(4, 0), (3, 1), (2, 2), (3, 1)])
    assert gens_of(m) == [(2, 2), (3, 1), (4, 0)]


def test_minimalize_matches_oracle_on_random_sets():
    rng = random.Random(5)
    for _ in range(40):
        gens = [
            tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(rng.randint(1, 8))
        ]
        m = ideal(gens, ring=RingSpec(("x", "y", "z")))
        assert gens_of(m) == sorted(oracles.minimalize_oracle(gens))


def test_minimalize_output_is_sorted_and_minimal():
    # gens_of sorts before comparing; this checks the kernel's own order
    assert BACKEND == "python"
    rng = random.Random(15)
    for _ in range(40):
        gens = [
            tuple(rng.randrange(0, 4) for _ in range(4)) for _ in range(rng.randrange(1, 9))
        ]
        got = minimalize_exponents(gens)
        assert got == sorted(got, key=lambda t: (sum(t), t))
        assert got == oracles.minimalize_oracle(gens)


def _wide_cases():
    # fields are sized from the largest exponent, so probe both sides of
    # every power of two a field width could be off by one at
    rng = random.Random(16)
    for k in (1, 2, 3, 7, 8, 16, 31, 32, 64):
        values = (0, 2**k - 1, 2**k)
        yield [(a, b, c) for a in values for b in values for c in values]
    yield [(10**6, 0), (0, 1), (10**6, 1), (999_999, 2), (1, 10**6)]
    yield [(5,), (3,), (8,), (3,)]
    yield [tuple(rng.randrange(0, 10) for _ in range(5)) for _ in range(30)]
    yield [(0, 0, 0), (1, 2, 3), (0, 0, 1)]
    yield [(1, 2), (2, 1), (1, 2), (2, 1), (2, 2)]
    yield [(k, 6 - k) for k in range(7)]


@pytest.mark.parametrize("gens", list(_wide_cases()))
def test_kernels_match_oracles_on_edge_cases(gens):
    # the oracles return canonical (total degree, lex) order
    assert minimalize_exponents(gens) == oracles.minimalize_oracle(gens)
    half = gens[: len(gens) // 2 + 1]
    assert product_exponents(half, gens) == oracles.product_oracle(half, gens)
    assert intersect_exponents(half, gens) == oracles.intersect_oracle(half, gens)


_STAIRCASE_EDGE_CASES = {
    "origin": [(0, 0)],
    "single-point": [(3, 2)],
    "pure-powers": [(0, 4), (4, 0)],
    "repeats-and-multiples": [(0, 4), (4, 0), (2, 2), (0, 4), (5, 0), (2, 2)],
    "ties-in-each-coordinate": [(2, k) for k in range(5)] + [(k, 1) for k in range(5)],
    "origin-among-others": [(1, 1), (0, 0), (0, 3)],
}


@pytest.mark.parametrize("gens", list(_STAIRCASE_EDGE_CASES.values()),
                         ids=list(_STAIRCASE_EDGE_CASES))
def test_two_variable_kernels_match_oracles(gens):
    # d = 2 takes the one-sweep staircase kernel; the oracles give the order
    rng = random.Random(len(gens))
    other = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)] + [(1, 1)]
    assert minimalize_exponents(gens) == oracles.minimalize_oracle(gens)
    for a, b in ((gens, gens), (gens, other), (other, gens)):
        assert product_exponents(a, b) == oracles.product_oracle(a, b)
        assert intersect_exponents(a, b) == oracles.intersect_oracle(a, b)


def test_two_variable_kernels_match_oracles_on_random_sets():
    rng = random.Random(18)
    for _ in range(60):
        a, b = (
            [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(rng.randint(1, 12))]
            for _ in range(2)
        )
        assert minimalize_exponents(a) == oracles.minimalize_oracle(a)
        assert product_exponents(a, b) == oracles.product_oracle(a, b)
        assert intersect_exponents(a, b) == oracles.intersect_oracle(a, b)


def test_generators_all_at_module_level():
    m = ideal([(2, 0), (1, 1)])
    for t in m.generators():
        assert sum(t.basis_exponents) == m.level == 1


# -- product and power -----------------------------------------------------------


def test_product_of_ideal_with_itself():
    m = ideal([(2, 0), (1, 1)])
    assert gens_of(product(m, m)) == [(2, 2), (3, 1), (4, 0)]


def test_product_with_unit_is_identity():
    m = ideal([(2, 0), (1, 1)])
    one = unit_module(m.ambient)
    assert product(m, one) == m
    assert product(one, m) == m


def test_product_rank2_free_pair():
    m = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    sq = product(m, m)
    comps = dict(sq.components)
    assert comps[(2, 0)] == ((2, 0),)
    assert comps[(1, 1)] == ((1, 1),)
    assert comps[(0, 2)] == ((0, 2),)


def test_power_of_maximal_ideal():
    m = ideal([(1, 0), (0, 1)])
    assert gens_of(power(m, 3)) == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_power_matches_product_oracle():
    m = ideal([(2, 0), (1, 1)])
    assert gens_of(power(m, 2)) == sorted(oracles.power_oracle([(2, 0), (1, 1)], 2))


def test_power_additivity_small_random():
    rng = random.Random(11)
    for _ in range(10):
        m = random_module(rng, 2, 1)
        for a in range(0, 4):
            for b in range(0, 4 - a):
                assert product(power(m, a), power(m, b)) == power(m, a + b)


def test_power_zero_is_unit():
    m = ideal([(2, 0)])
    assert power(m, 0) == unit_module(m.ambient)


def test_power_rejects_negative():
    with pytest.raises(InputError):
        power(ideal([(1, 0)]), -1)


# -- membership ------------------------------------------------------------------


def test_membership_true_case():
    m = ideal([(4, 0), (3, 1), (2, 2)])
    assert membership(Term((3, 1), (1,)), m)


def test_membership_false_case():
    m = ideal([(4, 0), (3, 1), (2, 2)])
    assert not membership(Term((1, 3), (1,)), m)


def test_membership_in_computed_power():
    sq = power(ideal([(2, 0), (1, 1)]), 2)
    assert membership(Term((2, 3), (2,)), sq)


def test_is_submodule_via_generators():
    assert is_submodule(ideal([(2, 0), (0, 2)]), ideal([(2, 0), (1, 1), (0, 2)]))
    assert not is_submodule(ideal([(1, 0)]), ideal([(0, 1)]))


# -- colon saturation and intersection ---------------------------------------------


def test_colon_saturation_zeroes_variable():
    m = ideal([(2, 0), (1, 1)])
    assert gens_of(colon_variable_saturation(m, 1)) == [(1, 0)]


def test_colon_saturation_of_variable_free_ideal():
    m = ideal([(1, 0)])
    assert colon_variable_saturation(m, 1) == m


def test_colon_saturation_componentwise():
    m = module({0: [(2, 0)], 1: [(0, 3)]}, (0, 0))
    out = colon_variable_saturation(m, 0)
    comps = dict(out.components)
    assert comps[(1, 0)] == ((0, 0),)
    assert comps[(0, 1)] == ((0, 3),)


def test_intersect_principal():
    assert gens_of(intersect(ideal([(1, 0)]), ideal([(0, 1)]))) == [(1, 1)]


def test_intersect_with_minimalization():
    out = intersect(ideal([(2, 0), (0, 1)]), ideal([(1, 0)]))
    assert gens_of(out) == [(1, 1), (2, 0)]


def test_intersect_idempotent():
    m = ideal([(2, 0), (1, 1)])
    assert intersect(m, m) == m


def test_saturate_m_primary_power_is_unit():
    for n in range(1, 5):
        m = power(ideal([(1, 0), (0, 1)]), n)
        assert saturate(m) == term_module(m.ambient, n, [((0, 0), (n,))])


def test_saturate_already_saturated():
    m = ideal([(1, 0)])
    assert saturate(m) == m


def test_saturate_matches_oracle_components():
    rng = random.Random(23)
    for _ in range(25):
        m = random_module(rng, 2, 2)
        got = components_of(saturate(m))
        want = oracles.saturation_oracle_components(components_of(m))
        assert {b: sorted(g) for b, g in got.items()} == {
            b: sorted(g) for b, g in want.items()
        }


# -- quotient enumeration -----------------------------------------------------------


def test_quotient_monomials_single_term():
    m = ideal([(2, 0), (1, 1)])
    terms = oracles.quotient_monomials(m, saturate(m))
    assert [(t.exponents, t.basis_exponents) for t in terms] == [((1, 0), (1,))]


def test_quotient_monomials_empty_for_saturated():
    m = ideal([(1, 0)])
    assert oracles.quotient_monomials(m, saturate(m)) == []


def test_quotient_monomials_square_maximal():
    m = power(ideal([(1, 0), (0, 1)]), 2)
    terms = oracles.quotient_monomials(m, saturate(m))
    assert sorted(t.exponents for t in terms) == [(0, 0), (0, 1), (1, 0)]


def test_quotient_census_overflow_is_internal_error():
    m = ideal([(2, 0), (1, 1)])
    with pytest.raises(InternalInvariantError):
        oracles.quotient_monomials(m, saturate(m), max_nodes=0)


# -- rank, degrees, truncation -------------------------------------------------------


def test_rank_of_ideal_is_one():
    assert ideal([(2, 0), (1, 1)]).rank == 1


def test_rank_of_free_pair_is_two():
    assert module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0)).rank == 2


def test_full_rank_power_component_count():
    from math import comb

    m = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    for n in range(1, 5):
        assert power(m, n).rank == comb(n + 2 - 1, 2 - 1)


def test_generator_degrees_with_shift():
    m = ideal([(2, 0), (1, 1)], shift=-2)
    assert m.generator_degrees == (0,)
    assert m.max_degree == 0
    assert m.ambient.c0 == 2


def test_degree_truncation_of_x2_xy():
    m = ideal([(2, 0), (1, 1)])
    t = oracles.degree_truncation(m, 3)
    assert gens_of(t) == [(1, 2), (2, 1), (3, 0)]


def test_degree_truncation_respects_shift():
    m = ideal([(2, 0), (1, 1)], shift=-2)
    t = oracles.degree_truncation(m, 1)
    assert all(
        sum(term.exponents) + m.ambient.shifts[0] == 1 for term in t.generators()
    )


def test_zero_module_is_legal():
    z = zero_module(GradedFreeModule(RING_XY, (0,)))
    assert z.is_zero
    assert z.rank == 0
    assert z.num_generators == 0


def test_power_cache_consistency():
    m = ideal([(2, 0), (1, 1)])
    table = LengthLadder(m)
    assert table.power(4) == power(m, 4)
    assert table.power(2) == power(m, 2)


def test_power_cache_disk_round_trip(tmp_path):
    m = ideal([(2, 0), (1, 1)])
    p3 = LengthLadder(m, tmp_path).power(3)
    fresh = LengthLadder(m, tmp_path)
    assert fresh.power(3) == p3
    assert any(f.suffix == ".json" for f in tmp_path.iterdir())


def test_power_cache_writes_only_the_requested_power(tmp_path):
    m = ideal([(2, 0), (1, 1)])
    assert LengthLadder(m, tmp_path).power(5) == power(m, 5)
    assert [f.name for f in tmp_path.iterdir()] == [f"{m.content_key}.5.json"]


# M^3 of m = (x^2, xy) damaged on disk: each maps (m, the good file) to a bad one
DAMAGED_POWER_FILES = {
    "wrong level": lambda m, good: json.dumps(module_to_payload(power(m, 2))),
    "wrong ambient": lambda m, good: json.dumps(
        module_to_payload(power(ideal([(2, 0), (1, 1)], shift=1), 3))
    ),
    "zero module": lambda m, good: json.dumps(
        module_to_payload(zero_module(m.ambient, 3))
    ),
    "other generators": lambda m, good: json.dumps(
        module_to_payload(power(ideal([(3, 0), (0, 3)]), 3))
    ),
    "degree above n*d_max": lambda m, good: json.dumps(
        module_to_payload(power(ideal([(2, 0), (0, 3)]), 3))
    ),
    "degree below n*d_min": lambda m, good: json.dumps(
        module_to_payload(power(ideal([(1, 0), (0, 1)]), 3))
    ),
    "wrong shape": lambda m, good: "[1, 2, 3]",
    "truncated": lambda m, good: good[: len(good) // 2],
}


@pytest.mark.parametrize("damage", list(DAMAGED_POWER_FILES))
def test_power_cache_rejects_and_rewrites_damaged_file(tmp_path, damage):
    m = ideal([(2, 0), (1, 1)])
    LengthLadder(m, tmp_path).power(3)
    (path,) = tmp_path.glob("*.3.json")
    good = path.read_text(encoding="utf-8")
    path.write_text(DAMAGED_POWER_FILES[damage](m, good), encoding="utf-8")
    assert LengthLadder(m, tmp_path).power(3) == power(m, 3)
    assert path.read_text(encoding="utf-8") == good
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_power_cache_two_concurrent_writers(tmp_path):
    m = ideal([(3, 0), (1, 2), (0, 4)])
    ladder = range(2, 8)
    want = [power(m, n) for n in ladder]
    start = threading.Barrier(2, timeout=30)
    results = {}

    def fill(name):
        table = LengthLadder(m, tmp_path)  # separate memory, shared directory
        start.wait()
        results[name] = [table.power(n) for n in ladder]

    threads = [threading.Thread(target=fill, args=(name,)) for name in "ab"]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == {"a": want, "b": want}
    names = sorted(f.name for f in tmp_path.iterdir())
    assert names == sorted(f"{m.content_key}.{n}.json" for n in ladder)
    fresh = LengthLadder(m, tmp_path)
    assert [fresh.power(n) for n in ladder] == want


def test_ambient_mismatch_rejected():
    a = ideal([(1, 0)])
    b = ideal([(1, 0)], shift=-1)
    with pytest.raises(InputError):
        product(a, b)
