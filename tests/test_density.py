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
    ("x", lambda: cumulative_identity(M_XY, 2.0)),
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


# (x, y^3): generator degrees {1, 3}, so its rays read at period L = 2
M_X_Y3 = ideal([(1, 0), (0, 3)])


class _BumpedLadder:
    """Ladder of (x, y^3) with length deg + 1 + (n mod 2) at every (n, deg),
    one more at n = ``bump``."""

    module = M_X_Y3

    def __init__(self, bump=19):
        self.bump = bump

    def length(self, n, deg):
        return deg + 1 + n % 2 + (n == self.bump)


def test_ray_limit_rejects_a_held_out_sample_off_the_polynomial():
    # at x = 2 the ray samples n = 8..19, (1 + 1 + STABLE_WINDOW) * 2 + 2
    # samples: 2n + 1 + (n mod 2) is a line at lag 2, though not at lag 1,
    # with limit 4; bumped at the held-out n = 19, it is refused
    assert ray_extrapolate(_BumpedLadder(bump=None), F(2)) == 4
    with pytest.raises(
        FitNotConvergedError,
        match=r"^not converged; increase n ladder \(no stable ray at x = 2 with period L = 2\)$",
    ):
        ray_extrapolate(_BumpedLadder(), F(2))


class _NeverStableLadder:
    """Ladder of ``module`` whose lengths never settle on a polynomial;
    records every n it is asked for."""

    def __init__(self, module):
        self.module = module
        self.asked = []

    def length(self, n, deg):
        self.asked.append(n)
        return deg + 1 + n * n % 7


def test_ray_stops_before_sampling_past_the_power_bound(monkeypatch):
    # at x = 1/3 the ray samples n = 9, 12, ...: seven samples up to n = 27
    # at period 1, and twelve up to n = 42, past a bound of 30, at period 2
    monkeypatch.setattr(density, "MAX_LADDER_N", 30)
    ladder = _NeverStableLadder(M_XY)
    with pytest.raises(FitNotConvergedError, match="with period L = 1"):
        ray_extrapolate(ladder, F(1, 3))
    assert ladder.asked == list(range(9, 28, 3))
    ladder = _NeverStableLadder(M_X_Y3)
    with pytest.raises(
        FitNotConvergedError, match="with period L = 2 would sample M\\^42, above MAX_LADDER_N = 30"
    ):
        ray_extrapolate(ladder, F(1, 3))
    assert ladder.asked == []


class _OddClassLadder:
    """Ladder of (x, y) with length deg + 1 on even n and deg + 1 + 2^n on odd
    n, which no period reads as a quasi-polynomial."""

    module = M_XY

    def length(self, n, deg):
        return deg + 1 + (n % 2) * 2**n


def test_ray_checks_every_residue_class():
    # the even n alone are the line 2n + 1 at x = 2, but every period p
    # differences the odd class too
    with pytest.raises(FitNotConvergedError, match="no stable ray at x = 2"):
        ray_extrapolate(_OddClassLadder(), F(2))


_OVER = counting.MAX_LADDER_N + 1
POWER_BOUND_CALLS = {
    "sample_adic": lambda: sample_adic(M_XY, [F(1)], (1, _OVER)),
    "sample_saturated": lambda: sample_saturated(M_XY, [F(1)], (_OVER,)),
    "sample_epsilon": lambda: sample_epsilon(M_XY, [F(1)], (2, _OVER)),
    # the ray at x = 1/997 starts at M^1994
    "cumulative_identity": lambda: cumulative_identity(M_XY, F(1, 997)),
    "epsilon_multiplicity": lambda: epsilon_multiplicity(
        M_XY, (1, 2, 3, 5000), cross_check=False
    ),
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
    # refuses a ladder entry or n_max above it before building any power,
    # and a ray that would pass it, which cannot converge, samples nothing
    built = []
    monkeypatch.setattr(counting, "next_power", lambda *args: built.append(args))
    error = FitNotConvergedError if call == "cumulative_identity" else InputError
    with pytest.raises(error, match=f"MAX_LADDER_N = {counting.MAX_LADDER_N}"):
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


def _mixed_rank2_length(n, j):
    # terms of degree j in M^n, M = {x^2 e1, xy e1, y e2} with shifts (0, -1):
    # the component on e1^a e2^(n-a) is x^a (x, y)^a y^(n-a), which starts in
    # monomial degree n + a; at degree j (monomial degree j + n - a) it holds
    # the j - a + 1 monomials divisible by x^a y^(n-a) once 2a <= j
    return sum(j - a + 1 for a in range(min(n, j // 2) + 1)) if j >= 0 else 0


def _mixed_rank2_density(x):
    # 3! * lim len((M^n)_{xn}) / n^2: along n = 2qk (x = p/q) the closed form
    # is a quadratic in k, whose k^2 coefficient is half its second difference
    step = 2 * x.denominator
    ls = [_mixed_rank2_length(step * k, int(x * step * k)) for k in (1, 2, 3)]
    return F(6 * (ls[2] - 2 * ls[1] + ls[0]), 2 * step * step)


def test_fit_of_a_rank2_module_has_degree_d_plus_e_minus_2():
    # the first chamber's polynomial has degree d + e - 2 = 2 > d - 1; only the
    # last chamber's has degree <= d - 1
    m = load_corpus_module("mixed_rank2")
    table = LengthLadder(m)
    for n in range(1, 7):
        for j in range(-1, 3 * n + 2):
            assert table.length(n, j) == _mixed_rank2_length(n, j)
    fit = fit_piecewise(sample_adic(m, None, None, table=table), table=table)
    assert fit.chambers == ("(-inf, 0)", "(0, 2]", "[2, inf)")
    assert fit.polynomials == ((), (0, 0, F(9, 4)), (F(-3), F(6)))
    for x in (F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(7, 2)):
        assert fit.evaluate(x) == _mixed_rank2_density(x)
    assert fit.continuity == (True,)
    assert fit.top_degree == fit.diagnostics["top_degree_expected"] == 1


_TOLERANCE_CALLS = pytest.mark.parametrize("name, call", [
    ("the fit tolerance", lambda tol: fit_piecewise(sample_adic(M_XY, [F(1)], (8,)), tol=tol)),
    ("the tolerance", lambda tol: epsilon_multiplicity(M_XY, (1, 2), tol=tol)),
], ids=["fit_piecewise", "epsilon_multiplicity"])


@pytest.mark.parametrize("tol", [0.1, True], ids=["float", "bool"])
@_TOLERANCE_CALLS
def test_tolerances_are_refused_unless_rational(name, call, tol):
    # 0.1 would be written to the diagnostics as a float, and True read as 1
    with pytest.raises(InputError, match=f"^{name} must be an int or a Fraction, got"):
        call(tol)


@pytest.mark.parametrize("tol", [F(0), F(-1), F(-5)], ids=["0", "-1", "-5"])
@_TOLERANCE_CALLS
def test_tolerances_are_refused_unless_positive(name, call, tol):
    # a fit with tol <= 0 failed as not converged, blaming the ladder, and
    # the epsilon cross-check passed with a negative tolerance
    with pytest.raises(InputError, match=f"^{name} must be positive, got {tol}"):
        call(tol)


def test_epsilon_cross_check_refuses_a_negative_tolerance_on_the_default_ladder():
    m = load_corpus_module("maximal_ideal")
    with pytest.raises(InputError, match="must be positive"):
        epsilon_multiplicity(m, tol=F(-5))


def test_fit_not_converged_error_message():
    # the first node of the chamber (1, 3] is x = 2, whose ray leaves its
    # polynomial at the held-out n = 19
    grid = sample_adic(M_X_Y3, [F(2)], (8,))
    with pytest.raises(
        FitNotConvergedError,
        match=r"^not converged; increase n ladder \(no stable ray at x = 2 with period L = 2\)$",
    ):
        fit_piecewise(grid, table=_BumpedLadder())


# -- integrals ----------------------------------------------------------------------


def test_trapezoid_exact_for_piecewise_linear():
    xs = [F(0), F(1, 2), F(1)]
    assert trapezoid(xs, [F(0), F(1), F(2)]) == 1


def test_cumulative_identity_linear_case():
    # 3! * sum_{n <= j <= 2n} (j + 1) / n^2 -> 3! * 3/2 = 9 = 3 * integral of 2x on [1, 2]
    res = cumulative_identity(M_XY, F(2))
    assert res["lhs"] == res["rhs"] == 9
    assert res["integral"] == 3


def test_oversized_grids_are_refused_before_any_point_is_built():
    # from -1 by 1/8: 100025 points up to d_M + 2 = 12502, 99993 up to 12498
    with pytest.raises(InputError, match="100025 points"):
        default_grid(ideal([(12500, 0), (0, 1)]))
    assert len(default_grid(ideal([(12496, 0), (0, 1)]))) == 99993


@pytest.mark.parametrize("step", [F(0), F(-1)])
def test_grid_step_must_be_positive(step):
    # a negative step never passed hi, and a zero one divided by zero
    with pytest.raises(InputError, match="step must be positive"):
        density.arithmetic_grid(F(0), F(1), step)


def test_grid_upper_bound_below_lower_bound_is_refused():
    # the grid was silently empty, where --grid refused it
    with pytest.raises(InputError, match="upper bound 1 is below its lower bound 2"):
        density.arithmetic_grid(F(2), F(1), F(1, 8))


@pytest.mark.parametrize("ladder", [(3, 2, 2), (16, 8), (8, 8), (0, 8), ()])
def test_ladders_are_refused_unless_strictly_increasing_and_positive(ladder):
    # the API sorted and deduplicated a ladder that --ladder refuses
    with pytest.raises(InputError, match="strictly increasing"):
        counting.normalize_ladder(ladder, density.DEFAULT_LADDER)
    with pytest.raises(InputError, match="strictly increasing"):
        sample_adic(M_XY, [F(1)], ladder)


def test_cumulative_identity_is_exact_off_the_density_grid():
    # (x, y): 3 * integral of 2x on [1, 5/3] = 3 * 16/9
    res = cumulative_identity(M_XY, F(5, 3))
    assert res["lhs"] == res["rhs"] == F(16, 3)
    # mixed_rank2 (density 9x^2/4 on (0, 2], 6x - 3 past 2, d + e = 4):
    # 4 * (integral of 9x^2/4 on [0, 2] + integral of 6x - 3 on [2, 8/3]) = 4 * (6 + 22/3)
    res = cumulative_identity(load_corpus_module("mixed_rank2"), F(8, 3))
    assert res["lhs"] == res["rhs"] == F(160, 3)
