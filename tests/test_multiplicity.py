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
    load_corpus_module,
    mixed_multiplicities,
)
from reesdensity.multiplicity import FIT_MARGINS, extract_polynomial_growth

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


def test_extract_growth_reads_period_four():
    # n^2 + (n mod 4): every residue class mod 4 is n^2 plus a constant, so
    # the lag-4 second differences are 2 * 4^2 on every n
    ns = list(range(1, 41))
    got = extract_polynomial_growth(ns, [n * n + n % 4 for n in ns], 2)
    assert got["degree"] == 2
    assert got["normalized"] == 2
    assert got["step"] == 4


def test_extract_growth_needs_every_residue_class():
    # the even class is n^2, but the odd class n^2 + (n^2 mod 7) has period
    # 14 in n: no period up to MAX_PERIOD reads both classes
    ns = list(range(1, 41))
    vals = [n * n if n % 2 == 0 else n * n + n * n % 7 for n in ns]
    assert extract_polynomial_growth(ns, vals, 2) is None


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


@pytest.mark.parametrize("ladder, integral, gap", [
    ((1, 2), F(1), F(0)),
    ((1, 2, 3), F(7, 8), F(1, 8)),
])
def test_epsilon_cross_check_compares_limits(ladder, integral, gap):
    # no exact value on these ladders, so the integral of the epsilon
    # density is compared with the Richardson estimate, 1 on both: 2 * 2 - 3
    # from the rungs 1 and 2 (t_n = n(n+1)/2), (3 * 4/3 - 2) / 2 from 1 and 3
    rep = epsilon_multiplicity(load_corpus_module("ideal_x2_xy"), ladder)
    assert rep.values["exact"] is None
    assert rep.diagnostics["integral"] == integral
    assert rep.diagnostics["integral_gap"] == gap
    assert rep.diagnostics["integral_ok"]


def test_epsilon_estimate_only_on_tiny_ladder():
    rep = epsilon_multiplicity(M_X2_XY, (1, 2), cross_check=False)
    assert rep.status == "estimate-only"
    assert rep.values["exact"] is None


@pytest.mark.parametrize("ladder", [(1,), (1, 2), (3,), (1, 2, 3, 4, 5)])
def test_epsilon_cross_check_builds_no_power_above_the_ladder(ladder, monkeypatch):
    # the cross-check samples the epsilon density at the ladder's reference
    # rung and at n_max, never above the top
    built = []
    real = counting.next_power

    def recording(cur, m):
        built.append(cur.level + 1)
        return real(cur, m)

    monkeypatch.setattr(counting, "next_power", recording)
    rep = epsilon_multiplicity(M_X2_XY, ladder)
    assert "integral" in rep.diagnostics
    assert max(built, default=1) == ladder[-1]


def test_epsilon_cross_check_makes_rows_only_on_the_ladder():
    # the cross-check samples the ladder's own reference rung, 7 here, and
    # the top; no length row is made at a rung off the ladder (n_max/2 = 10)
    m = load_corpus_module("ideal_x2_xy")
    table = LengthLadder(m)
    rep = epsilon_multiplicity(m, (3, 7, 20), table=table)
    assert rep.diagnostics["reference_n"] == 7
    assert "integral" in rep.diagnostics
    assert {n for n, _ in table._rows} == {3, 7, 20}


# -- diagonal ------------------------------------------------------------------------


def test_diagonal_maximal_ideal_c2():
    rep = diagonal_multiplicity(M_XY, 2)
    assert rep.status == "ok"
    a = rep.values["a_version"]
    s = rep.values["s_version"]
    assert (a["dimension"], a["multiplicity"]) == (2, 2)
    assert (s["dimension"], s["multiplicity"]) == (3, 3)


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


@pytest.mark.parametrize("a, b, c", [
    *(pytest.param(2, 3, c, id=str(c)) for c in (4, 10**3, 10**8)),
    pytest.param(20, 21, 22, id="x20_y21-22"),
])
def test_diagonal_closed_forms_of_x2_y3(a, b, c):
    # M = (x^a, y^b) is m-primary, so len((M^n)_{cn}) = cn + 1 for large n and
    # the cumulative length is C(cn + 2, 2) - len(A/M^n) = (c^2 - ab) n^2 / 2
    # + O(n), as e(M) = ab.  For (x^20, y^21) at c = 22, x^i y^(22n-i) lies in
    # M^n exactly when some integer lies in [(i - n)/21, i/20], an interval of
    # length (i + 20n)/420 >= 1 once n >= 21.  Degrees cn = 10^8 n lie far
    # past every numerator, where the rows answer from their Hilbert
    # polynomials
    rep = diagonal_multiplicity(ideal([(a, 0), (0, b)]), c)
    base, ext = rep.values["a_version"], rep.values["s_version"]
    assert (base["dimension"], base["multiplicity"]) == (2, c)
    assert (ext["dimension"], ext["multiplicity"]) == (3, c * c - a * b)


def test_diagonal_requires_c_past_generator_degrees():
    with pytest.raises(InputError):
        diagonal_multiplicity(M_SQ, 2)


@pytest.mark.parametrize("m", [M_XY, M_SQ, M_X2_XY])
def test_diagonal_slope_defaults_to_one_past_generator_degrees(m):
    # the same default as the bigraded fit: c = d_M + 1
    assert vars(diagonal_multiplicity(m)) == vars(diagonal_multiplicity(m, m.max_degree + 1))
    assert diagonal_multiplicity(m).values["c"] == fit_bigraded_polynomial(m).c


def test_diagonal_undetermined_past_the_margin_cap():
    # the cumulative fit of I = (x^80, y^81) finds no polynomial region up to
    # the margin cap, so neither diagonal is read, and the report says why
    rep = diagonal_multiplicity(ideal([(80, 0), (0, 81)]))
    assert rep.status == "undetermined"
    assert rep.values == {"a_version": None, "s_version": None, "c": 82}
    assert f"margin cap {FIT_MARGINS[-1]}" in rep.diagnostics["reason"]


def test_ladder_of_another_module_is_rejected():
    # the ladder of (x, y)^2 would answer epsilon 4 for (x^2, xy), whose epsilon is 1
    with pytest.raises(InputError):
        epsilon_multiplicity(M_X2_XY, table=LengthLadder(M_SQ))
    # a ladder of an equal module built apart is the module's own
    rep = epsilon_multiplicity(M_X2_XY, table=LengthLadder(ideal([(2, 0), (1, 1)])))
    assert rep.values["exact"] == 1


# -- bigraded fits ----------------------------------------------------------------------


def _graded(fit, x, n):
    """len((M^n)_X) read off the cumulative fit: P-bar(X, n) - P-bar(X-1, n)."""
    return fit.evaluate(x, n) - fit.evaluate(x - 1, n)


def test_bigraded_fit_maximal_ideal_is_x_plus_1():
    # P-bar = sum_{j=n}^{X} (j + 1) = (X+1)(X+2)/2 - n(n+1)/2, whose
    # graded lengths are X + 1
    fit = fit_bigraded_polynomial(M_XY)
    assert fit.poly == {(2, 0): F(1, 2), (1, 0): F(3, 2), (0, 0): F(1),
                        (0, 2): F(-1, 2), (0, 1): F(-1, 2)}
    for x, n in ((9, 4), (30, 7), (100, 50)):
        assert _graded(fit, x, n) == x + 1


def test_bigraded_fit_whole_free_module():
    # every power is A itself: P-bar = (X+1)(X+2)/2, graded lengths X + 1
    fit = fit_bigraded_polynomial(ideal([(0, 0)]))
    assert fit.poly == {(2, 0): F(1, 2), (1, 0): F(3, 2), (0, 0): F(1)}
    assert _graded(fit, 12, 5) == 13


def test_bigraded_fit_x2_xy():
    # (x^2, xy)^n = x^n (x, y)^n has X - n + 1 terms in degree X >= 2n, so
    # P-bar = (X-n+1)(X-n+2)/2 - n(n+1)/2
    fit = fit_bigraded_polynomial(M_X2_XY)
    assert fit.poly == {(2, 0): F(1, 2), (1, 1): F(-1), (1, 0): F(3, 2),
                        (0, 1): F(-2), (0, 0): F(1)}
    for x, n in ((9, 4), (40, 11)):
        assert _graded(fit, x, n) == x - n + 1


def test_bigraded_fit_evaluates_lengths_exactly():
    fit = fit_bigraded_polynomial(M_SQ)
    table = LengthLadder(M_SQ)
    for n in (5, 9):
        for m_deg in (3 * n + 2, 3 * n + 7):
            assert fit.evaluate(m_deg, n) == table.cumulative(n, m_deg)
            assert _graded(fit, m_deg, n) == table.length(n, m_deg)


def test_bigraded_fit_cumulative_raises_degree():
    # P-bar has total degree d+e-1, one more than its graded lengths X + 1
    fit = fit_bigraded_polynomial(M_XY)
    assert fit.total_degree_bound == 2
    assert max(i + j for i, j in fit.poly) == 2
    table = LengthLadder(M_XY)
    for n in (6, 11):
        assert fit.evaluate(2 * n + 3, n) == table.cumulative(n, 2 * n + 3)
        assert _graded(fit, 2 * n + 3, n) == table.length(n, 2 * n + 3) == 2 * n + 4


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
    # the engine reads both diagonals off one cumulative fit; the oracle reads
    # them off the difference tables of the lengths on n = 1..20
    for m, c in ((M_XY, 2), (M_SQ, 3), (M_X2_XY, 3), (M_X2_XY, 4)):
        rows = diagonal_multiplicity(m, c).values
        direct = oracles.diagonal_by_ladder(LengthLadder(m), c, range(1, 21))
        assert (rows["a_version"], rows["s_version"]) == direct


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


@pytest.mark.parametrize("extended", [False, True])
def test_mixed_undetermined_past_the_margin_cap(extended):
    # (A/I^n)_X of I = (x^80, y^81) is nonzero up to X = 81n + 79, past every
    # fit row n0 = 4 at X = 82n + margin + k for margins up to the cap 64
    rep = mixed_multiplicities(ideal([(80, 0), (0, 81)]), extended=extended)
    assert rep.status == "undetermined"
    assert rep.values["e"] is None
    assert f"margin cap {FIT_MARGINS[-1]}" in rep.diagnostics["reason"]


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
    for x, n in ((22 * 7 + 16, 7), (22 * 9 + 17, 9), (22 * 10 + 40, 10)):
        gens = oracles.power_oracle([(20, 0), (0, 21)], n)
        assert _graded(fit, x, n) == len(oracles.ideal_members_at_degree(gens, 2, x))
        # cumulative length C(X+2, 2) - e(I) n(n+1)/2 past the regularity
        assert fit.evaluate(x, n) == comb(x + 2, 2) - 420 * n * (n + 1) // 2
