"""Epsilon, diagonal, and mixed multiplicities with exact expectations."""

from fractions import Fraction as F
from math import comb

import pytest

import oracles
from util import M_SCALE_D4, ideal, module

from reesdensity import counting
from reesdensity import (
    InputError,
    LengthLadder,
    diagonal_multiplicity,
    epsilon_multiplicity,
    fit_bigraded_polynomial,
    mixed_multiplicities,
)
from reesdensity.multiplicity import extract_polynomial_growth

M_XY = ideal([(1, 0), (0, 1)])
M_X2_XY = ideal([(2, 0), (1, 1)])
M_SQ = ideal([(2, 0), (1, 1), (0, 2)])
M_CI = ideal([(2, 0), (0, 2)])


# -- growth extraction helper -------------------------------------------------------


def test_extract_growth_quadratic():
    ns = list(range(1, 11))
    vals = [3 * n * n + n + 2 for n in ns]
    got = extract_polynomial_growth(ns, vals, 3)
    assert got["degree"] == 2
    assert got["normalized"] == 6      # 2! * 3
    assert got["onset_n"] == 1


def test_extract_growth_with_substep_quasi_period():
    ns = list(range(1, 17))
    vals = [n * n if n % 2 == 0 else n * n + 1 for n in ns]
    got = extract_polynomial_growth(ns, vals, 2)
    assert got is not None
    assert got["degree"] == 2
    assert got["normalized"] == 2
    assert got["step"] == 2


def test_extract_growth_none_on_noise():
    import random

    rng = random.Random(3)
    vals = [rng.randint(0, 1000) for _ in range(12)]
    assert extract_polynomial_growth(list(range(12)), vals, 3) is None


# -- epsilon -------------------------------------------------------------------------


def test_epsilon_x2_xy_exact_one():
    rep = epsilon_multiplicity(M_X2_XY)
    assert rep.status == "ok"
    assert rep.values["exact"] == 1
    for n, total in rep.values["totals"].items():
        assert total == n * (n + 1) // 2
    assert rep.diagnostics["integral_ok"]


def test_equal_epsilon_calls_give_equal_reports():
    first, second = epsilon_multiplicity(M_X2_XY), epsilon_multiplicity(M_X2_XY)
    assert first is not second and first == second
    assert first != epsilon_multiplicity(M_SQ)


def test_epsilon_maximal_ideal_exact_one():
    rep = epsilon_multiplicity(M_XY)
    assert rep.values["exact"] == 1
    # t_n = ell(A/m^n) = n(n+1)/2
    assert rep.values["totals"][10] == 55


def test_epsilon_square_maximal_exact_four():
    rep = epsilon_multiplicity(M_SQ)
    assert rep.values["exact"] == 4
    # t_n = ell(A/m^{2n}) = n(2n+1)
    assert rep.values["totals"][10] == 210


def test_epsilon_of_the_d4_ideal_is_its_multiplicity():
    # every variable has a pure power in I, so each I : x_i^inf is the unit
    # ideal, t_n = l(A/I^n) and eps = e(I); (xyz)^2 lies in (x^2, y^2, z^2)^3,
    # so xyz is integral over the pure powers and e(I) = 2 * 2 * 2 * 3 = 24
    rep = epsilon_multiplicity(M_SCALE_D4)
    assert rep.status == "ok"
    assert rep.values["exact"] == 24
    # A/I: x^a y^b z^c w^k with a, b, c <= 1 and k <= 2, less the 3 with abc = 1
    assert rep.values["totals"][1] == 2 * 2 * 2 * 3 - 3


def test_epsilon_saturated_module_zero():
    m = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    rep = epsilon_multiplicity(m, tuple(range(1, 9)))
    assert rep.values["exact"] == 0
    assert rep.values["estimate"] == 0


def test_epsilon_estimate_and_diagnostic():
    rep = epsilon_multiplicity(M_X2_XY, tuple(range(1, 41)), cross_check=False)
    assert rep.values["estimate"] == F(2 * 820, 1600)
    assert rep.diagnostics["reference_n"] == 20
    assert rep.diagnostics["halfway_gap"] == abs(F(2 * 820, 1600) - F(2 * 210, 400))


def test_epsilon_estimate_only_on_tiny_ladder():
    rep = epsilon_multiplicity(M_X2_XY, (1, 2), cross_check=False)
    assert rep.status == "estimate-only"
    assert rep.values["exact"] is None


@pytest.mark.parametrize("ladder", [(1,), (1, 2), (3,), (1, 2, 3, 4, 5)])
def test_epsilon_cross_check_builds_no_power_above_the_ladder(ladder, monkeypatch):
    # the cross-check samples the epsilon density at the n_max/2 rung and at
    # n_max; a ladder topping at 1 has no rung 2 to sample
    built = []
    real = counting.next_power

    def recording(cur, m):
        built.append(cur.level + 1)
        return real(cur, m)

    monkeypatch.setattr(counting, "next_power", recording)
    rep = epsilon_multiplicity(M_X2_XY, ladder)
    assert "integral" in rep.diagnostics
    assert max(built, default=1) == ladder[-1]


# -- diagonal ------------------------------------------------------------------------


def test_diagonal_maximal_ideal_c2():
    rep = diagonal_multiplicity(M_XY, 2)
    assert rep.status == "ok"
    a = rep.values["a_version"]
    s = rep.values["s_version"]
    assert (a["dimension"], a["multiplicity"]) == (2, 2)
    assert (s["dimension"], s["multiplicity"]) == (3, 3)
    assert a["onset_n"] == 1


def test_diagonal_square_maximal_c3():
    rep = diagonal_multiplicity(M_SQ, 3)
    a = rep.values["a_version"]
    s = rep.values["s_version"]
    assert (a["dimension"], a["multiplicity"]) == (2, 3)
    assert (s["dimension"], s["multiplicity"]) == (3, 5)


def test_diagonal_reduction_pair_agrees():
    ra = diagonal_multiplicity(M_CI, 3)
    rb = diagonal_multiplicity(M_SQ, 3)
    for version in ("a_version", "s_version"):
        va, vb = ra.values[version], rb.values[version]
        assert (va["dimension"], va["multiplicity"]) == (vb["dimension"], vb["multiplicity"])


@pytest.mark.parametrize("c", [4, 10**3, 10**8])
def test_diagonal_closed_forms_of_x2_y3(c):
    # M = (x^2, y^3) is m-primary, so len((M^n)_{cn}) = cn + 1 and the
    # cumulative length is C(cn + 2, 2) - len(A/M^n) = (c^2 - 6) n^2 / 2 + O(n),
    # as e(M) = 6; degrees cn = 10^8 n lie far past every numerator, where
    # the rows answer from their Hilbert polynomials
    rep = diagonal_multiplicity(ideal([(2, 0), (0, 3)]), c)
    a, s = rep.values["a_version"], rep.values["s_version"]
    assert (a["dimension"], a["multiplicity"]) == (2, c)
    assert (s["dimension"], s["multiplicity"]) == (3, c * c - 6)


def test_diagonal_requires_c_past_generator_degrees():
    with pytest.raises(InputError):
        diagonal_multiplicity(M_SQ, 2)


@pytest.mark.parametrize("m", [M_XY, M_SQ, M_X2_XY])
def test_diagonal_slope_defaults_to_one_past_generator_degrees(m):
    # the same default as the bigraded fit: c = d_M + 1
    assert vars(diagonal_multiplicity(m)) == vars(diagonal_multiplicity(m, m.max_degree + 1))
    assert diagonal_multiplicity(m).values["c"] == fit_bigraded_polynomial(m).c


def test_diagonal_undetermined_on_tiny_ladder():
    rep = diagonal_multiplicity(M_XY, 2, ladder=(1, 2))
    assert rep.status == "undetermined"
    assert rep.values["a_version"] is None


def test_ladder_of_another_module_is_rejected():
    # the ladder of (x, y)^2 would answer epsilon 4 for (x^2, xy), whose epsilon is 1
    with pytest.raises(InputError):
        epsilon_multiplicity(M_X2_XY, table=LengthLadder(M_SQ))
    # a ladder of an equal module built apart is the module's own
    rep = epsilon_multiplicity(M_X2_XY, table=LengthLadder(ideal([(2, 0), (1, 1)])))
    assert rep.values["exact"] == 1


def test_diagonal_dimension_claims_recorded():
    rep = diagonal_multiplicity(M_XY, 2)
    claims = rep.diagnostics["dimension_claims"]
    assert claims == {"stated": 1, "example": 2}


# -- bigraded fits ----------------------------------------------------------------------


def test_bigraded_fit_maximal_ideal_is_x_plus_1():
    fit = fit_bigraded_polynomial(M_XY)
    assert fit.poly == {(1, 0): F(1), (0, 0): F(1)}
    assert fit.h == 1


def test_bigraded_fit_whole_free_module():
    fit = fit_bigraded_polynomial(ideal([(0, 0)]))
    assert fit.poly == {(1, 0): F(1), (0, 0): F(1)}


def test_bigraded_fit_x2_xy():
    fit = fit_bigraded_polynomial(M_X2_XY)
    assert fit.poly == {(1, 0): F(1), (0, 1): F(-1), (0, 0): F(1)}


def test_bigraded_fit_evaluates_lengths_exactly():
    fit = fit_bigraded_polynomial(M_SQ)
    table = LengthLadder(M_SQ)
    for n in (5, 9):
        for m_deg in (3 * n + 2, 3 * n + 7):
            assert fit.evaluate(m_deg, n) == table.length(n, m_deg)


def test_bigraded_fit_cumulative_raises_degree():
    fit = fit_bigraded_polynomial(M_XY, cumulative=True)
    assert fit.total_degree_bound == 2
    table = LengthLadder(M_XY)
    for n in (6, 11):
        assert fit.evaluate(2 * n + 3, n) == table.cumulative(n, 2 * n + 3)


def test_density_polynomial_from_fit_matches_top_chamber():
    from reesdensity import fit_piecewise, sample_adic

    fit = fit_bigraded_polynomial(M_XY)
    assert oracles.density_polynomial_from_fit(fit, 2, 1) == (F(0), F(2))
    # (x^2, xy): lengths m - n + 1 deep in the cone, so the density is 2x - 2
    fit2 = fit_bigraded_polynomial(M_X2_XY)
    assert oracles.density_polynomial_from_fit(fit2, 2, 1) == (F(-2), F(2))
    table = LengthLadder(M_X2_XY)
    chamber_fit = fit_piecewise(sample_adic(M_X2_XY, None, None, table=table), table=table)
    assert chamber_fit.polynomials[-1] == oracles.density_polynomial_from_fit(fit2, 2, 1)


def test_diagonal_from_fit_matches_direct_extraction():
    for m, c in ((M_XY, 2), (M_SQ, 3), (M_X2_XY, 3)):
        fit = fit_bigraded_polynomial(m, c)
        implied = oracles.diagonal_from_fit(fit)
        direct = diagonal_multiplicity(m, c).values["a_version"]
        assert implied["dimension"] == direct["dimension"]
        assert implied["multiplicity"] == direct["multiplicity"]


# -- mixed -------------------------------------------------------------------------------


def test_mixed_maximal_ideal():
    rep = mixed_multiplicities(M_XY)
    assert rep.status == "ok"
    assert rep.values["e"] == (0, 1)


def test_mixed_x2_xy():
    rep = mixed_multiplicities(M_X2_XY)
    assert rep.status == "ok"
    assert rep.values["e"] == (-1, 1)


def test_mixed_unit_module():
    one_gen = ideal([(0, 0)])
    rep = mixed_multiplicities(one_gen)
    assert rep.values["e"] == (0, 1)


def test_mixed_extended_reduction_pair_equal():
    ra = mixed_multiplicities(M_CI, extended=True, c=3)
    rb = mixed_multiplicities(M_SQ, extended=True, c=3)
    assert ra.values["e"] == rb.values["e"] == (-4, 0, 1)


def test_mixed_values_are_integers():
    for m in (M_XY, M_X2_XY, M_SQ, M_CI):
        rep = mixed_multiplicities(m, extended=True, c=m.max_degree + 1)
        assert all(isinstance(v, int) for v in rep.values["e"])


def test_mixed_fit_doubles_its_margin_past_the_regularity():
    # (A/I^n)_X of I = (x^20, y^21) vanishes from X = 21n + 19 on, past the
    # first fit region X >= 22n + 2 at n0 = 4; the margin doubles to 16
    m = ideal([(20, 0), (0, 21)])
    table = LengthLadder(m)
    rep = mixed_multiplicities(m, table=table)
    assert rep.values["e"] == (0, 1)
    assert rep.diagnostics["fit"]["margin"] == 16
    ext = mixed_multiplicities(m, extended=True, table=table)
    assert ext.values["e"] == (-20 * 21, 0, 1)  # (-e(I), 0, 1)
    assert ext.diagnostics["fit"]["margin"] == 16
    fit = fit_bigraded_polynomial(m, table=table)
    cumulative = fit_bigraded_polynomial(m, cumulative=True, table=table)
    for x, n in ((22 * 7 + 16, 7), (22 * 9 + 17, 9), (22 * 10 + 40, 10)):
        gens = oracles.power_oracle([(20, 0), (0, 21)], n)
        assert fit.evaluate(x, n) == len(oracles.ideal_members_at_degree(gens, 2, x))
        # cumulative length C(X+2, 2) - e(I) n(n+1)/2 past the regularity
        assert cumulative.evaluate(x, n) == comb(x + 2, 2) - 420 * n * (n + 1) // 2
