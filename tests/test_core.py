"""Exact algebra of term modules: minimality, products, powers, saturation."""

import json
import random
import sys
import threading
from fractions import Fraction
from itertools import product as iter_product

import pytest

import oracles
import reesdensity
from util import RING_XY, RING_XYZ, components_of, fresh_python, ideal, module, random_module

from reesdensity import (
    GradedFreeModule,
    InputError,
    InternalInvariantError,
    LengthLadder,
    RingSpec,
    TermModule,
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
from reesdensity.core import module_to_payload, payload_crc


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
    # exponents on both sides of powers of two, one far larger than the rest,
    # one variable, ties and repeats: any width or order assumption shows here
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
    for exponents, basis in m.generators():
        assert sum(basis) == m.level == 1


def test_generators_are_plain_pairs():
    m = module({0: [(2, 0), (1, 1)], 1: [(0, 1)]}, (0, 0))
    gens = list(m.generators())
    # components in basis order, each generator an (exponents, basis) pair
    assert gens == [((0, 1), (0, 1)), ((1, 1), (1, 0)), ((2, 0), (1, 0))]
    assert all(type(t) is tuple for t in gens)
    assert "Term" not in dir(reesdensity)
    assert not hasattr(reesdensity, "Term")


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


def _component_ideals(m):
    """{basis index: generators} of a level-1 module."""
    return {basis.index(1): gens for basis, gens in m.components}


def _power_by_oracle(ideals: dict, e: int, n: int) -> dict:
    """{beta: generators} of M^n, each component prod_i I_i^(beta_i) by oracles."""
    want = {}
    for beta in iter_product(range(n + 1), repeat=e):
        if sum(beta) != n or any(b and i not in ideals for i, b in enumerate(beta)):
            continue
        gens = [tuple(0 for _ in next(iter(ideals.values()))[0])]
        for i, b in enumerate(beta):
            if b:
                gens = oracles.product_oracle(gens, oracles.power_oracle(ideals[i], b))
        want[beta] = gens
    return want


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("e", [1, 2, 3])
def test_powers_match_oracle_componentwise(d, e):
    rng = random.Random(1000 + 10 * d + e)
    for _ in range(4):
        m = random_module(rng, d, e, max_degree=3)
        ideals = _component_ideals(m)
        ladder = LengthLadder(m)
        for n in range(1, 5):
            want = _power_by_oracle(ideals, e, n)
            for got in (ladder.power(n), power(m, n)):
                assert {b: list(g) for b, g in got.components} == want
                assert got == TermModule(got.ambient, got.level, got.components)


def test_power_of_a_component_subset_matches_oracle():
    # a level-1 module missing a basis component: M^n never reaches it
    m = module({0: [(2, 0, 1), (0, 1, 1)], 2: [(1, 1, 0), (0, 0, 2)]}, (1, 0, -1), RING_XYZ)
    ladder = LengthLadder(m)
    for n in range(1, 5):
        want = _power_by_oracle(_component_ideals(m), 3, n)
        assert {b: list(g) for b, g in ladder.power(n).components} == want
        assert {b: list(g) for b, g in power(m, n).components} == want


def test_power_of_level_two_module_is_the_product_chain(tmp_path):
    # e1*e1 * e2*e2 and (e1*e2)^2 both land on e1^2 e2^2 with other ideals,
    # so a level-2 power needs the full product
    ambient = GradedFreeModule(RING_XY, (0, 1))
    m2 = TermModule(
        ambient, 2, (((2, 0), ((1, 0),)), ((1, 1), ((0, 1),)), ((0, 2), ((1, 0),)))
    )
    chain = m2
    for n in range(2, 5):
        chain = product(chain, m2)
        assert power(m2, n) == chain
        assert LengthLadder(m2).power(n) == chain
        assert LengthLadder(m2, tmp_path).power(n) == chain
    assert dict(power(m2, 2).components)[(2, 2)] == ((0, 2), (2, 0))


def test_power_zero_is_unit():
    m = ideal([(2, 0)])
    assert power(m, 0) == unit_module(m.ambient)


def test_ring_refuses_names_that_are_not_strings_before_hashing_them():
    with pytest.raises(InputError, match="nonempty strings"):
        RingSpec((["x"], "y"))


def test_power_rejects_negative():
    with pytest.raises(InputError):
        power(ideal([(1, 0)]), -1)


M_XY_INT = ideal([(1, 0), (0, 1)])
# id: (the name the error gives the argument, the call)
_NOT_INTEGERS = {
    "slope c of a check": ("the slope c", lambda: reesdensity.check_dependence(
        M_XY_INT, M_XY_INT, c=Fraction(5, 2))),
    "n_max of a check": ("n_max", lambda: reesdensity.check_dependence(
        M_XY_INT, M_XY_INT, n_max=2.5)),
    "n_max of a search": ("n_max", lambda: reesdensity.direct_reduction_search(
        M_XY_INT, M_XY_INT, 2.5)),
    "diagonal slope": ("the slope c", lambda: reesdensity.diagonal_multiplicity(M_XY_INT, 2.9)),
    "mixed slope": ("the slope c", lambda: reesdensity.mixed_multiplicities(M_XY_INT, c=True)),
    "ladder entry": ("a ladder entry", lambda: reesdensity.epsilon_multiplicity(
        M_XY_INT, ladder=(1.5, 3))),
    "exponent": ("an exponent", lambda: ideal([(1.7, 0), (0, 2)])),
    "bool exponent": ("an exponent", lambda: ideal([(True, 0), (0, 2)])),
    "shift": ("a shift", lambda: ideal([(1, 0), (0, 1)], shift=Fraction(1, 2))),
    "basis exponent": ("a basis exponent", lambda: term_module(
        GradedFreeModule(RING_XY, (0,)), 1, [((1, 0), (True,))])),
    "level": ("the level", lambda: TermModule(GradedFreeModule(RING_XY, (0,)), True, ())),
    "power exponent": ("the power exponent", lambda: LengthLadder(M_XY_INT).power(2.0)),
    "bool power exponent": ("the power exponent", lambda: LengthLadder(M_XY_INT).power(True)),
}


@pytest.mark.parametrize("name, call", list(_NOT_INTEGERS.values()), ids=list(_NOT_INTEGERS))
def test_integer_arguments_are_refused_never_rounded(name, call):
    with pytest.raises(InputError, match=f"^{name} must be an integer, got"):
        call()


# -- membership ------------------------------------------------------------------


def test_membership_true_case():
    m = ideal([(4, 0), (3, 1), (2, 2)])
    assert membership(((3, 1), (1,)), m)


def test_membership_false_case():
    m = ideal([(4, 0), (3, 1), (2, 2)])
    assert not membership(((1, 3), (1,)), m)


def test_membership_in_computed_power():
    sq = power(ideal([(2, 0), (1, 1)]), 2)
    assert membership(((2, 3), (2,)), sq)


def test_is_submodule_via_generators():
    assert is_submodule(ideal([(2, 0), (0, 2)]), ideal([(2, 0), (1, 1), (0, 2)]))
    assert not is_submodule(ideal([(1, 0)]), ideal([(0, 1)]))


# -- saturation ---------------------------------------------------------------------


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


RINGS = {2: RING_XY, 3: RING_XYZ, 4: RingSpec(("x", "y", "z", "w"))}


def _random_saturation_module(rng, d, pure):
    """Random level-1 module of rank 1-3 with shifts; with ``pure``, each
    component gets pure powers of a random nonempty set of variables (all of
    them now and then), else no generator is a pure power."""
    e = rng.randint(1, 3)
    comps = {}
    for i in range(e):
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(0, 3) for _ in range(d)]
            for s in rng.sample(range(d), 2):  # at least two variables
                g[s] = max(g[s], 1)
            gens.append(tuple(g))
        if pure:
            for s in rng.sample(range(d), rng.randint(1, d)):
                gens.append(tuple(rng.randint(1, 5) if k == s else 0 for k in range(d)))
        comps[i] = gens
    shifts = tuple(rng.randint(-1, 1) for _ in range(e))
    return module(comps, shifts, RINGS[d])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("pure", [False, True], ids=["no-pure-powers", "pure-powers"])
def test_saturate_matches_oracle_with_and_without_pure_powers(d, pure):
    # sat(M^n) is read from the colon ladders, never from M^n, so the oracle
    # saturates the power the ladder builds for it
    rng = random.Random(2000 + 10 * d + pure)
    for _ in range(15):
        m = _random_saturation_module(rng, d, pure)
        ladder = LengthLadder(m)
        for n in (1, 2, 3):
            mn = components_of(ladder.power(n))
            # M^n : x_i^inf = (M : x_i^inf)^n
            for i, colon in enumerate(ladder._colons):
                assert components_of(colon.power(n)) == {
                    basis: oracles.colon_saturation_oracle(gens, i) for basis, gens in mn.items()
                }
            got = ladder.sat_power(n)
            assert components_of(got) == oracles.saturation_oracle_components(mn)
            assert got == TermModule(got.ambient, got.level, got.components)
        assert saturate(m) == ladder.sat_power(1)
        assert saturate(ladder.power(2)) == ladder.sat_power(2)


# -- quotient enumeration -----------------------------------------------------------


def test_quotient_monomials_single_term():
    m = ideal([(2, 0), (1, 1)])
    terms = oracles.quotient_monomials(m, saturate(m))
    assert terms == [((1, 0), (1,))]


def test_quotient_monomials_empty_for_saturated():
    m = ideal([(1, 0)])
    assert oracles.quotient_monomials(m, saturate(m)) == []


def test_quotient_monomials_square_maximal():
    m = power(ideal([(1, 0), (0, 1)]), 2)
    terms = oracles.quotient_monomials(m, saturate(m))
    assert sorted(exponents for exponents, _ in terms) == [(0, 0), (0, 1), (1, 0)]


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
        sum(exponents) + m.ambient.shifts[0] == 1 for exponents, _ in t.generators()
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


def _cache_file(stored, power_module) -> str:
    """The text of a cache file: the stored module's payload beside a power
    and that power's valid checksum."""
    power_payload = module_to_payload(power_module)
    return json.dumps(
        {
            "module": module_to_payload(stored),
            "power": power_payload,
            "checksum": payload_crc(power_payload),
        }
    )


def _edit_file(good: str, edit) -> str:
    """The good file with ``edit`` applied to its parsed object in place."""
    data = json.loads(good)
    edit(data)
    return json.dumps(data)


# M^3 of m = (x^2, xy) damaged on disk: each maps (m, the good file) to a bad
# one.  The cases named for a check on the power store M's own payload and a
# valid checksum, so that check is what rejects them, not the stored-module
# comparison or the checksum.
DAMAGED_POWER_FILES = {
    "wrong level": lambda m, good: _cache_file(m, power(m, 2)),
    "wrong ambient": lambda m, good: _cache_file(
        m, power(ideal([(2, 0), (1, 1)], shift=1), 3)
    ),
    "zero module": lambda m, good: _cache_file(m, zero_module(m.ambient, 3)),
    "other generators": lambda m, good: _cache_file(m, power(ideal([(3, 0), (0, 3)]), 3)),
    "degree above n*d_max": lambda m, good: _cache_file(
        m, power(ideal([(2, 0), (0, 3)]), 3)
    ),
    "degree below n*d_min": lambda m, good: _cache_file(
        m, power(ideal([(1, 0), (0, 1)]), 3)
    ),
    "wrong shape": lambda m, good: "[1, 2, 3]",
    "truncated": lambda m, good: good[: len(good) // 2],
    # json.loads raises RecursionError, not a ValueError
    "nested past the stack": lambda m, good: "[" * 100000,
    # (x^2, y^2)^3 has the degrees of (x^2, xy)^3, so only the stored module
    # tells the two apart: what a key collision leaves under M's name
    "another module's file": lambda m, good: _cache_file(
        ideal([(2, 0), (0, 2)]), power(ideal([(2, 0), (0, 2)]), 3)
    ),
    "stored module not M": lambda m, good: _cache_file(
        ideal([(2, 0), (1, 1), (0, 2)]), power(m, 3)
    ),
    # x^5 y dropped from x^3 (x, y)^3: the degrees still fit, so only the
    # checksum, left as written, tells the file from M^3
    "generator dropped": lambda m, good: _edit_file(
        good, lambda data: data["power"]["components"][0]["generators"].pop(1)
    ),
    "checksum mismatch": lambda m, good: _edit_file(
        good, lambda data: data.update(checksum="00000000")
    ),
    "no checksum": lambda m, good: _edit_file(good, lambda data: data.pop("checksum")),
}
STORED_MODULE_CASES = (
    "wrong shape", "truncated", "nested past the stack", "another module's file",
    "stored module not M",
)
CHECKSUM_CASES = ("generator dropped", "checksum mismatch", "no checksum")


def test_damaged_power_files_store_m_unless_named_for_it():
    m = ideal([(2, 0), (1, 1)])
    good = _cache_file(m, power(m, 3))
    for damage, make in DAMAGED_POWER_FILES.items():
        if damage in STORED_MODULE_CASES:
            continue
        data = json.loads(make(m, good))
        assert data["module"] == module_to_payload(m), damage
        valid = data.get("checksum") == payload_crc(data["power"])
        assert valid == (damage not in CHECKSUM_CASES), damage


@pytest.mark.parametrize("damage", list(DAMAGED_POWER_FILES))
def test_power_cache_rejects_and_rewrites_damaged_file(tmp_path, damage):
    m = ideal([(2, 0), (1, 1)])
    LengthLadder(m, tmp_path).power(3)
    (path,) = tmp_path.glob("*.3.json")
    good = path.read_text(encoding="utf-8")
    assert json.loads(good) == json.loads(_cache_file(m, power(m, 3)))
    path.write_text(DAMAGED_POWER_FILES[damage](m, good), encoding="utf-8")
    assert LengthLadder(m, tmp_path).power(3) == power(m, 3)
    assert path.read_text(encoding="utf-8") == good
    assert [f.name for f in tmp_path.iterdir()] == [path.name]


def test_power_cache_key_collision_costs_a_miss(tmp_path):
    # two modules forced onto one key take turns rewriting the shared file,
    # and each still reads its own powers
    m = ideal([(2, 0), (1, 1)])
    other = ideal([(2, 0), (0, 2)])
    other.__dict__["content_key"] = m.content_key
    for mod in (m, other, m):
        assert LengthLadder(mod, tmp_path).power(3) == power(mod, 3)
        (path,) = tmp_path.iterdir()
        assert json.loads(path.read_text(encoding="utf-8"))["module"] == module_to_payload(mod)


def test_content_key_is_eight_hex_digits_of_the_payload():
    m = ideal([(2, 0), (1, 1)])
    assert len(m.content_key) == 8 and set(m.content_key) <= set("0123456789abcdef")
    assert m.content_key == ideal([(1, 1), (2, 0), (3, 0)]).content_key
    assert m.content_key != ideal([(2, 0), (1, 1)], shift=1).content_key


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
