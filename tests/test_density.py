"""Density samplers, chamber detection, exact ray limits, piecewise fits."""

from fractions import Fraction as F

import pytest

import oracles
from util import M_SCALE_D4, ideal, module

from reesdensity import counting, density
from reesdensity.io import corpus_names
from reesdensity import (
    ChamberDecomposition,
    FitNotConvergedError,
    InputError,
    LengthLadder,
    RankMismatchError,
    check_dependence,
    cumulative_identity,
    default_grid,
    detect_chambers,
    diagonal_multiplicity,
    direct_reduction_search,
    epsilon_multiplicity,
    fit_piecewise,
    load_corpus_module,
    ray_extrapolate,
    sample_adic,
    sample_epsilon,
    sample_saturated,
    trapezoid,
    zero_module,
)

M_XY = ideal([(1, 0), (0, 1)])
M_X2_XY = ideal([(2, 0), (1, 1)])
M_SHIFTED = ideal([(2, 0), (1, 1)], shift=-2)
M_X2_Y3 = ideal([(2, 0), (0, 3)])


# -- samplers --------------------------------------------------------------------


def test_adic_values_maximal_ideal():
    grid = sample_adic(M_XY, [F(1, 2), F(3, 2)], (8, 16))
    # x < d1: exactly zero at every n
    assert grid.samples[8][0] == 0
    assert grid.samples[16][0] == 0
    # x = 3/2: value(n, x) = 2*(floor(3n/2)+1)/n
    assert grid.samples[8][1] == F(2 * 13, 8)
    assert grid.samples[16][1] == F(2 * 25, 16)


def test_adic_extrapolated_is_top_of_ladder():
    grid = sample_adic(M_XY, [F(3, 2)], (8, 16))
    assert grid.extrapolated[0] == grid.samples[16][0]
    assert grid.diagnostics[0] == abs(grid.samples[16][0] - grid.samples[8][0])


def test_adic_richardson_removes_first_order_error():
    grid = sample_adic(M_XY, [F(2)], (8, 16), richardson=True)
    # value(n, 2) = 2(2n+1)/n = 4 + 2/n; Richardson cancels the 1/n term
    assert grid.extrapolated[0] == 4


def test_saturated_density_of_maximal_ideal():
    grid = sample_saturated(M_XY, [F(0), F(1, 2), F(1)], (16,))
    # saturation of m^n is the unit ideal: g_n(x) = 2*(floor(xn)+1)/n
    assert grid.samples[16][0] == F(2, 16)
    assert grid.samples[16][1] == F(2 * 9, 16)
    assert grid.samples[16][2] == F(2 * 17, 16)


def test_saturated_support_reaches_negative_degrees():
    grid = sample_saturated(M_SHIFTED, [F(-1)], (8, 16))
    assert grid.samples[8][0] == F(1, 4)
    assert grid.samples[16][0] == F(1, 8)
    assert grid.support[0] == -2


def test_epsilon_is_saturated_minus_adic():
    xs = [F(0), F(1, 2), F(1), F(3, 2)]
    ladder = (8, 16)
    eps = sample_epsilon(M_XY, xs, ladder)
    adic = sample_adic(M_XY, xs, ladder)
    sat = sample_saturated(M_XY, xs, ladder)
    for n in ladder:
        for i in range(len(xs)):
            assert eps.samples[n][i] == sat.samples[n][i] - adic.samples[n][i]


def test_epsilon_of_saturated_module_is_zero():
    m = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    grid = sample_epsilon(m, [F(0), F(1), F(2)], (4, 8))
    assert all(v == 0 for n in (4, 8) for v in grid.samples[n])


def test_epsilon_support_leak_diagnostic_shrinks():
    small = sample_epsilon(M_X2_XY, [F(3)], (4,))
    big = sample_epsilon(M_X2_XY, [F(3)], (32,))
    assert big.meta["support_leak"] <= small.meta["support_leak"]


def test_sampler_rejects_zero_module():
    z = zero_module(M_XY.ambient)
    with pytest.raises(InputError):
        sample_adic(z, [F(1)], (8,))


def test_sampler_rejects_level_2():
    from reesdensity import power

    with pytest.raises(InputError):
        sample_adic(power(M_XY, 2), None, None)


@pytest.mark.parametrize("call", [
    lambda m: sample_adic(m, [F(1)], (8,)),
    lambda m: epsilon_multiplicity(m, (1, 2)),
], ids=["sample_adic", "epsilon_multiplicity"])
def test_rank_deficient_module_is_a_rank_mismatch(call):
    # e_1 has generators and e_2 none: rank 1 in a free module of rank 2
    with pytest.raises(RankMismatchError, match="full rank"):
        call(module({0: [(1, 0), (0, 1)]}, (0, 0)))


def _fitted_xy():
    dec = detect_chambers(M_XY)
    dec.polynomials = ((), (F(0), F(2)))
    return dec


@pytest.mark.parametrize("name, call", [
    ("a grid point", lambda: sample_adic(M_XY, [1.7], (10,))),
    ("a grid point", lambda: sample_adic(M_XY, [True], (10,))),
    ("x", lambda: ray_extrapolate(LengthLadder(M_XY), 1.5)),
    ("x", lambda: cumulative_identity(M_XY, 2.0, ladder=(4, 8))),
    ("x", lambda: _fitted_xy().evaluate(1.5)),
], ids=["float grid point", "bool grid point", "ray", "cumulative identity", "evaluate"])
def test_float_abscissae_are_refused_never_read_at_their_binary_value(name, call):
    with pytest.raises(InputError, match=f"^{name} must be an int or a Fraction, got"):
        call()


def test_a_decimal_abscissa_is_read_as_its_exact_fraction():
    # Fraction(1.7) is 1.6999..., whose floor(10 x) is 16, not 17
    assert sample_adic(M_XY, [F(17, 10)], (10,)).samples[10] == (F(18, 5),)
    assert _fitted_xy().evaluate(F(17, 10)) == F(17, 5)


def test_sampler_rejects_ladder_of_another_module():
    square = ideal([(2, 0), (1, 1), (0, 2)])
    with pytest.raises(InputError):
        sample_adic(M_X2_XY, None, (8, 16), table=LengthLadder(square))
    # a ladder of an equal module built apart is the module's own
    own = LengthLadder(ideal([(2, 0), (1, 1)]))
    shared = sample_adic(M_X2_XY, None, (8, 16), table=own)
    assert shared.samples == sample_adic(M_X2_XY, None, (8, 16)).samples


def test_default_grid_bounds():
    xs = default_grid(M_SHIFTED)
    assert xs[0] == -3      # -c0 - 1
    assert xs[-1] == 2      # d_M + 2
    assert xs[1] - xs[0] == F(1, 8)


# -- chambers --------------------------------------------------------------------


def test_chambers_single_degree():
    dec = detect_chambers(ideal([(2, 0), (1, 1), (0, 2)]))
    assert dec.breakpoints == (2,)
    assert [str(c) for c in dec.chambers] == ["(-inf, 2)", "[2, inf)"]


def test_chambers_two_degrees():
    dec = detect_chambers(M_X2_Y3)
    assert dec.breakpoints == (2, 3)
    assert [str(c) for c in dec.chambers] == ["(-inf, 2)", "(2, 3]", "[3, inf)"]


def test_chambers_read_shifted_degrees():
    m = module({0: [(1, 0)], 1: [(0, 2)]}, (0, 1))
    dec = detect_chambers(m)
    assert dec.breakpoints == (1, 3)


def test_chambers_reject_negative_grading():
    with pytest.raises(InputError):
        detect_chambers(ideal([(1, 0)], shift=-2))


@pytest.mark.parametrize("bps", [(2,), (0, 3), (2, 3), (1, 2, 4)], ids=str)
def test_evaluate_bisects_to_the_chamber_of_the_closedness_rule(bps):
    # chamber k holds the constant k, so a value names the chamber evaluated
    dec = ChamberDecomposition(
        breakpoints=bps,
        chambers=None,
        polynomials=tuple((F(k),) for k in range(len(bps) + 1)),
        continuity=None,
        top_degree=0,
        diagnostics={},
    )
    midpoints = [F(a + b, 2) for a, b in zip(bps, bps[1:])]
    for x in [F(bps[0] - 1), *bps, *midpoints, F(bps[-1] + 1)]:
        assert dec.evaluate(x) == oracles.chamber_index(bps, x), x


# -- exact limits along rays ---------------------------------------------------------


def test_ray_limit_linear_case():
    table = LengthLadder(M_XY)
    assert ray_extrapolate(table, F(1, 2)) == 0
    assert ray_extrapolate(table, F(5, 4)) == F(5, 2)
    assert ray_extrapolate(table, F(2)) == 4


def test_ray_limit_two_chamber_case():
    table = LengthLadder(M_X2_Y3)
    # 6x - 12 on (2, 3], 2x on [3, oo)
    assert ray_extrapolate(table, F(5, 2)) == 3
    assert ray_extrapolate(table, F(3)) == 6
    assert ray_extrapolate(table, F(7, 2)) == 7


def test_ray_limit_zero_below_support():
    table = LengthLadder(M_X2_Y3)
    assert ray_extrapolate(table, F(3, 2)) == 0


class _BumpedLadder:
    """Ladder of (x, y) with length deg + 1 at every (n, deg), one more at n = 14."""

    module = M_XY

    def length(self, n, deg):
        return deg + 1 + (n == 14)


def test_ray_limit_rejects_a_held_out_sample_off_the_polynomial(monkeypatch):
    # at x = 2, h = 1 the ray samples n = 8..14: all but the last are the
    # line 2n + 1 (limit 4), and the held-out n = 14 leaves it
    monkeypatch.setattr(density, "RAY_H_MAX", 1)
    with pytest.raises(FitNotConvergedError, match="increase n ladder"):
        ray_extrapolate(_BumpedLadder(), F(2))


class _NeverStableLadder:
    """Ladder of (x, y) whose lengths never settle on a polynomial; records
    every n it is asked for."""

    module = M_XY

    def __init__(self):
        self.asked = []

    def length(self, n, deg):
        self.asked.append(n)
        return deg + 1 + n * n % 7


def test_ray_stops_before_sampling_past_the_power_bound(monkeypatch):
    # at x = 1/8 the first step, H = 8, would sample n = 16, 24, ..., 64,
    # past a bound of 30, so nothing is sampled
    monkeypatch.setattr(density, "MAX_LADDER_N", 30)
    ladder = _NeverStableLadder()
    with pytest.raises(FitNotConvergedError, match="n <= 30"):
        ray_extrapolate(ladder, F(1, 8))
    assert ladder.asked == []
    # at x = 2 the steps H = 1, 2, 3 sample up to n = 14, 20, 27, and H = 4
    # would sample up to n = 32
    ladder = _NeverStableLadder()
    with pytest.raises(FitNotConvergedError, match="n <= 30"):
        ray_extrapolate(ladder, F(2))
    assert max(ladder.asked) == 27


_OVER = counting.MAX_LADDER_N + 1
POWER_BOUND_CALLS = {
    "sample_adic": lambda: sample_adic(M_XY, [F(1)], (1, _OVER)),
    "sample_saturated": lambda: sample_saturated(M_XY, [F(1)], (_OVER,)),
    "sample_epsilon": lambda: sample_epsilon(M_XY, [F(1)], (2, _OVER)),
    "cumulative_identity": lambda: cumulative_identity(M_XY, F(1), ladder=(8, _OVER)),
    "epsilon_multiplicity": lambda: epsilon_multiplicity(
        M_XY, (1, 2, 3, 5000), cross_check=False
    ),
    "diagonal_multiplicity": lambda: diagonal_multiplicity(M_XY, 2, ladder=(1, _OVER)),
    "check_dependence ladder": lambda: check_dependence(M_XY, M_XY, ladder=(1, _OVER)),
    "check_dependence n_max": lambda: check_dependence(M_XY, M_XY, n_max=_OVER),
    "direct_reduction_search": lambda: direct_reduction_search(M_XY, M_XY, _OVER),
    # the certificate search builds M^(n_max+1), so n_max at the bound is refused
    "check_dependence n_max at the bound": lambda: check_dependence(
        M_XY, M_XY, n_max=counting.MAX_LADDER_N
    ),
    "direct_reduction_search at the bound": lambda: direct_reduction_search(
        M_XY, M_XY, counting.MAX_LADDER_N
    ),
}


@pytest.mark.parametrize("call", list(POWER_BOUND_CALLS))
def test_public_entry_points_refuse_powers_past_the_bound(call, monkeypatch):
    # the bound is the engine's, not only the CLI's: every public function
    # refuses a ladder entry or n_max above it before building any power
    built = []
    monkeypatch.setattr(counting, "next_power", lambda *args: built.append(args))
    with pytest.raises(InputError, match=f"MAX_LADDER_N = {counting.MAX_LADDER_N}"):
        POWER_BOUND_CALLS[call]()
    assert built == []


def test_certificate_search_builds_no_power_past_a_small_bound(monkeypatch):
    # (x^2, xy) is no reduction of (x, y)^2, so the search runs to n_max and
    # builds M^(n_max+1); under a bound of 3 it stops at M^3
    from reesdensity import dependence

    built = []
    real = counting.next_power

    def recording(cur, m):
        built.append(cur.level // m.level + 1)  # the power being built
        return real(cur, m)

    monkeypatch.setattr(counting, "next_power", recording)
    monkeypatch.setattr(dependence, "MAX_LADDER_N", 3)
    sq = counting.power(M_XY, 2)
    assert direct_reduction_search(M_X2_XY, sq, 2) is None
    assert max(built) == 3
    built.clear()
    with pytest.raises(InputError, match="MAX_LADDER_N = 3"):
        direct_reduction_search(M_X2_XY, sq, 3)
    assert built == []


@pytest.mark.parametrize("name", corpus_names())
def test_saturated_density_builds_no_power_of_the_module(name, monkeypatch):
    # sat(M^n) is the intersection of the powers of the colon modules
    # M : x_i^inf, so sampling it multiplies powers of those, never of M
    m = load_corpus_module(name)
    asked = []
    real = counting.LengthLadder._load_or_multiply

    def recording(ladder, n):
        asked.append((ladder.module, n))
        return real(ladder, n)

    monkeypatch.setattr(counting.LengthLadder, "_load_or_multiply", recording)
    sample_saturated(m, [F(0), F(1)], (4, 8))
    assert asked and all(module is not m for module, _ in asked)


# -- piecewise fits --------------------------------------------------------------------


def test_fit_maximal_ideal_is_2x():
    table = LengthLadder(M_XY)
    grid = sample_adic(M_XY, None, None, table=table)
    fit = fit_piecewise(grid, table=table)
    assert fit.polynomials == ((), (F(0), F(2)))
    assert fit.top_degree == 1
    assert fit.diagnostics["top_degree_expected"] == 1


def test_fit_two_chambers_continuous_at_breakpoint():
    table = LengthLadder(M_X2_Y3)
    grid = sample_adic(M_X2_Y3, None, None, table=table)
    fit = fit_piecewise(grid, table=table)
    assert fit.polynomials == ((), (F(-12), F(6)), (F(0), F(2)))
    assert fit.continuity == (True,)
    assert fit.evaluate(F(3)) == 6
    assert fit.evaluate(F(5, 2)) == 3
    assert fit.evaluate(F(1)) == 0


def test_fit_shifted_module():
    table = LengthLadder(M_SHIFTED)
    grid = sample_adic(M_SHIFTED, None, None, table=table)
    fit = fit_piecewise(grid, table=table)
    assert fit.polynomials == ((), (F(2), F(2)))
    assert fit.chambers[1] == "[0, inf)"


def test_fit_of_the_d4_ideal_matches_the_hand_derived_chambers():
    # NP(I) = {a >= 0 : (a_1 + a_2 + a_3)/2 + a_4/3 >= 1}, with xyz inside it
    # (3/2 >= 1).  On the slice |a| = x put s = a_1 + a_2 + a_3: the part of
    # the slice outside NP(I) is s < min(x, 6 - 2x), of volume
    # min(x, 6 - 2x)^3 / 6, so the density is 4 x^3 - 4 max(0, min(x, 6 - 2x))^3
    table = LengthLadder(M_SCALE_D4)
    fit = fit_piecewise(sample_adic(M_SCALE_D4, None, None, table=table), table=table)
    assert fit.chambers == ("(-inf, 2)", "(2, 3]", "[3, inf)")
    # 4 x^3 - 4 (6 - 2x)^3 = 36 x^3 - 288 x^2 + 864 x - 864, then 4 x^3
    assert fit.polynomials == ((), (F(-864), F(864), F(-288), F(36)), (0, 0, 0, F(4)))
    assert fit.continuity == (True,)


@pytest.mark.parametrize("tol", [0.1, True], ids=["float", "bool"])
@pytest.mark.parametrize("name, call", [
    ("the fit tolerance", lambda tol: fit_piecewise(sample_adic(M_XY, [F(1)], (8,)), tol=tol)),
    ("the tolerance", lambda tol: epsilon_multiplicity(M_XY, (1, 2), tol=tol)),
], ids=["fit_piecewise", "epsilon_multiplicity"])
def test_tolerances_are_refused_unless_rational(name, call, tol):
    # 0.1 would be written to the diagnostics as a float, and True read as 1
    with pytest.raises(InputError, match=f"^{name} must be an int or a Fraction, got"):
        call(tol)


def test_fit_not_converged_error_message(monkeypatch):
    table = LengthLadder(M_XY)
    grid = sample_adic(M_XY, None, None, table=table)
    monkeypatch.setattr(density, "RAY_H_MAX", 0)
    with pytest.raises(FitNotConvergedError, match="increase n ladder"):
        fit_piecewise(grid, table=table)


# -- integrals ----------------------------------------------------------------------


def test_trapezoid_exact_for_piecewise_linear():
    xs = [F(0), F(1, 2), F(1)]
    assert trapezoid(xs, [F(0), F(1), F(2)]) == 1


def test_cumulative_identity_linear_case():
    table = LengthLadder(M_XY)
    res = cumulative_identity(M_XY, F(2), ladder=(16, 32), table=table)
    # exact limit: lhs -> 3! * integral contributions = 9; rhs integrates 2x on [1,2]
    assert res["ok"]
    assert abs(res["lhs"] - 9) < F(1, 10)
    assert abs(res["rhs"] - 9) < F(1, 2)


def test_oversized_grids_are_refused_before_any_point_is_built():
    # from -1 by 1/8: 100025 points up to d_M + 2 = 12502, 100009 up to 12500,
    # 99993 up to 12498
    with pytest.raises(InputError, match="100025 points"):
        default_grid(ideal([(12500, 0), (0, 1)]))
    with pytest.raises(InputError, match="100009 points"):
        cumulative_identity(M_XY, F(12500), ladder=(1,))
    assert len(default_grid(ideal([(12496, 0), (0, 1)]))) == 99993


@pytest.mark.parametrize("step", [F(0), F(-1)])
def test_grid_step_must_be_positive(step):
    # a negative step never passed hi, and a zero one divided by zero
    with pytest.raises(InputError, match="step must be positive"):
        density.arithmetic_grid(F(0), F(1), step)


def test_cumulative_identity_off_grid_x_rejected():
    with pytest.raises(InputError):
        cumulative_identity(M_XY, F(1, 3), ladder=(8, 16))
