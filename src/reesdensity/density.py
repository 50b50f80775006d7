"""Density functions of graded term modules.

For a level-1 module M with d ring variables and ambient rank e, the sampled
quantities at scale n and abscissa x are

    adic       (d+e-1)! * len((M^n)_{floor(xn)}) / n^{d+e-2}
    saturated  same with the saturation of M^n
    epsilon    their difference

together with chamber detection from generator degrees, exact piecewise
polynomial fits and the exact cumulative identity.  Fitted values come from
stabilized finite differences along rays, read at the period L(M) the
generator degrees bound (an exact extrapolation, confirmed on a held-out n),
so fitted polynomials have exact rational coefficients.

Lengths come from a ``LengthLadder`` of the module.  ``table=`` passes one
in, to share powers, saturations and K-polynomials across calls, or a disk
cache through ``LengthLadder(m, dir)``; a ladder of another module raises
``InputError``.

This module holds only the density work.  What the invariants in
``multiplicity`` and ``dependence`` share with it lives with its owner:
the ladder checks and ``MAX_LADDER_N`` in ``counting``, the finite-n
estimate (``extrapolate``) in ``polyfit``, and ``FitNotConvergedError``
beside the other errors in ``core``.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm
from types import SimpleNamespace
from typing import Optional

from .core import (
    FitNotConvergedError,
    InputError,
    InternalInvariantError,
    TermModule,
    require_rational,
    require_tolerance,
)
from .counting import (
    MAX_LADDER_N,
    LengthLadder,
    ladder_for,
    normalize_ladder,
    require_samplable,
)
from .polyfit import (
    STABLE_WINDOW,
    Poly,
    difference_rows,
    extrapolate,
    poly_degree,
    poly_eval,
    poly_trim,
    solve_exact,
    stabilized_difference,
)

DEFAULT_LADDER: tuple[int, ...] = (8, 16, 24, 32, 40)
DEFAULT_STEP = Fraction(1, 8)
# ray samples start at the first multiple of the denominator of x past this n
RAY_N_FLOOR = 8
# chamber nodes beyond the d interpolation nodes, checked exactly
HELD_OUT_NODES = 2
# default fit validation tolerance, relative to each extrapolated value
FIT_TOL = Fraction(1, 10)
# an x grid with more points is refused before any is built
MAX_GRID_POINTS = 10**5


def floor_times(x: Fraction, n: int) -> int:
    """Exact floor(x*n)."""
    return (x.numerator * n) // x.denominator


def arithmetic_grid(lo: Fraction, hi: Fraction, step: Fraction) -> tuple[Fraction, ...]:
    """lo, lo + step, ... up to hi.

    A step that is not positive, ``hi < lo``, or a grid of more than
    ``MAX_GRID_POINTS`` points, is refused before any point is built.
    """
    if step <= 0:
        raise InputError(f"the x grid step must be positive, got {step}")
    if hi < lo:
        raise InputError(f"the x grid upper bound {hi} is below its lower bound {lo}")
    points = (hi - lo) // step + 1
    if points > MAX_GRID_POINTS:
        raise InputError(
            f"the x grid from {lo} to {hi} by {step} has {points} points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    out = []
    x = lo
    while x <= hi:
        out.append(x)
        x += step
    return tuple(out)


def default_grid(m: TermModule) -> tuple[Fraction, ...]:
    """Arithmetic x grid on [-c0 - 1, d_M + 2] with step ``DEFAULT_STEP``."""
    require_samplable(m)
    return arithmetic_grid(
        Fraction(-m.ambient.c0 - 1), Fraction(m.max_degree + 2), DEFAULT_STEP
    )


class DensityGrid(SimpleNamespace):
    """Exact density samples on an x grid over an n ladder.

    Fields: ``kind``, ``module``, ``xs``, ``ladder``, ``samples`` (n to the
    values at each x), ``extrapolated`` and ``diagnostics`` (the limit and
    its gap at each x), ``support`` (a ``(lower, upper)`` pair, None where
    unbounded) and ``meta``.
    """


def _sample_kind(
    m: TermModule,
    kind: str,
    grid,
    ladder,
    table: Optional[LengthLadder],
    richardson: bool,
) -> DensityGrid:
    require_samplable(m)
    grid = default_grid(m) if grid is None else grid
    xs = tuple(require_rational(x, "a grid point") for x in grid)
    ladder = normalize_ladder(ladder, DEFAULT_LADDER)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    e = m.ambient.rank

    def raw(n: int, x: Fraction) -> Fraction:
        deg = floor_times(x, n)
        if kind == "adic":
            count = table.length(n, deg)
        elif kind == "saturated":
            count = table.sat_length(n, deg)
        else:
            count = table.sat_length(n, deg) - table.length(n, deg)
        return Fraction(factorial(d + e - 1) * count, n ** (d + e - 2))

    samples = {n: tuple(raw(n, x) for x in xs) for n in ladder}
    limits = [
        extrapolate(lambda n: samples[n][i], ladder, richardson)
        for i in range(len(xs))
    ]

    if kind == "adic":
        support = (Fraction(m.min_degree), None)
    elif kind == "saturated":
        support = (Fraction(-m.ambient.c0), None)
    else:
        support = (Fraction(-m.ambient.c0), Fraction(m.max_degree))
    grid_obj = DensityGrid(
        kind=kind,
        module=m,
        xs=xs,
        ladder=ladder,
        samples=samples,
        extrapolated=tuple(v for v, _ in limits),
        diagnostics=tuple(gap for _, gap in limits),
        support=support,
        meta={"richardson": richardson},
    )
    if kind == "epsilon":
        hi = support[1]
        leak = [abs(v) for x, v in zip(xs, grid_obj.extrapolated) if x > hi]
        grid_obj.meta["support_leak"] = max(leak) if leak else Fraction(0)
    return grid_obj


def sample_adic(
    m: TermModule,
    grid=None,
    ladder=None,
    *,
    table: Optional[LengthLadder] = None,
    richardson: bool = False,
) -> DensityGrid:
    """Sample the adic density function of M."""
    return _sample_kind(m, "adic", grid, ladder, table, richardson)


def sample_saturated(
    m: TermModule,
    grid=None,
    ladder=None,
    *,
    table: Optional[LengthLadder] = None,
    richardson: bool = False,
) -> DensityGrid:
    """Sample the saturated density function of M."""
    return _sample_kind(m, "saturated", grid, ladder, table, richardson)


def sample_epsilon(
    m: TermModule,
    grid=None,
    ladder=None,
    *,
    table: Optional[LengthLadder] = None,
    richardson: bool = False,
) -> DensityGrid:
    """Sample the epsilon density (saturated minus adic)."""
    return _sample_kind(m, "epsilon", grid, ladder, table, richardson)


# -- chambers ----------------------------------------------------------------


class ChamberDecomposition(SimpleNamespace):
    """Breakpoints, chamber intervals, and (after fitting) exact polynomials.

    Fields: ``breakpoints`` (d_1 < ... < d_l), ``chambers`` (one interval
    string per chamber: ``(-inf, d_1)``, then ``(d_i, d_(i+1)]``, then
    ``[d_l, inf)``), and the fit's ``polynomials`` (one per chamber),
    ``continuity`` (one flag per breakpoint past the first), ``top_degree``
    and ``diagnostics``; all four are None or empty before fitting.
    """

    def evaluate(self, x: Fraction) -> Fraction:
        """0 below d_1, else the polynomial of the first chamber that holds x,
        and chamber 1's at x = d_1."""
        if self.polynomials is None:
            raise InputError("decomposition has no fitted polynomials")
        x = require_rational(x, "x")
        if x < self.breakpoints[0]:
            return Fraction(0)
        return poly_eval(self.polynomials[max(1, bisect_left(self.breakpoints, x))], x)


def _interval(lo: Optional[int], hi: Optional[int]) -> str:
    """The chamber between two breakpoints, None meaning unbounded."""
    if lo is None:
        return f"(-inf, {hi})"
    return f"[{lo}, inf)" if hi is None else f"({lo}, {hi}]"


def detect_chambers(m: TermModule) -> ChamberDecomposition:
    """Breakpoints are the distinct generator degrees d_1 < ... < d_l."""
    require_samplable(m)
    if not m.is_nonneg_graded:
        raise InputError("chamber detection requires a module graded in degrees >= 0")
    bps = m.generator_degrees
    bounds = [None, *bps, None]
    return ChamberDecomposition(
        breakpoints=bps,
        chambers=tuple(map(_interval, bounds, bounds[1:])),
        polynomials=None,
        continuity=None,
        top_degree=None,
        diagnostics={},
    )


# -- exact limits along rays --------------------------------------------------


def ray_extrapolate(table: LengthLadder, x: Fraction, *, _cumulative: bool = False) -> Fraction:
    """Exact limit of the adic density at x via finite differences along a ray.

    Samples len((M^n)_{xn}) on one progression n = n0 + jq, q the
    denominator of x (so xn is an integer) and n0 the first multiple of q
    that is at least 2q and ``RAY_N_FLOOR``.  There the length is a vector
    partition function of the columns (1, 0) and (delta_g, 1), a
    quasi-polynomial in j whose period divides L = lcm |delta - delta'| over
    the distinct generator degrees (1 for one degree), so the ray takes
    (r + 1 + STABLE_WINDOW) * L + 2 samples (r = d+e-2) and reads them at lag
    L: the limit is (r+1) * (r-th lag-L difference) / (Lq)^r, or 0 at a
    smaller detected degree.  It is accepted only when all but the last
    sample stabilize at some degree D and the held-out last sample continues
    them: the (D+1)-st lag-L difference that ends there is 0.  A progression
    past ``MAX_LADDER_N`` is refused before any sample is taken.  The private
    ``_cumulative`` reads ``table.cumulative`` at degree r + 1 instead: the
    limit of (d+e)! * cumulative(n, xn) / n^{d+e-1}.
    """
    m = table.module
    require_samplable(m)
    x = require_rational(x, "x")
    r = m.ambient.ring.dim + m.ambient.rank - 2 + _cumulative
    length = table.cumulative if _cumulative else table.length
    period = lcm(*(b - a for a, b in combinations(m.generator_degrees, 2)))
    q = x.denominator
    n0 = q * max(2, -(-RAY_N_FLOOR // q))
    ns = range(n0, n0 + ((r + 1 + STABLE_WINDOW) * period + 2) * q, q)
    if ns[-1] > MAX_LADDER_N:
        raise FitNotConvergedError(
            f"not converged; the ray at x = {x} with period L = {period} would sample "
            f"M^{ns[-1]}, above MAX_LADDER_N = {MAX_LADDER_N}"
        )
    vals = [length(n, floor_times(x, n)) for n in ns]
    ext = stabilized_difference(ns[:-1], vals[:-1], r, period)
    if ext is not None:
        degree = ext["degree"]
        if not difference_rows(vals[-(degree + 1) * period - 1 :], degree + 1, period)[-1][0]:
            return (r + 1) * ext["normalized"] if degree == r else Fraction(0)
    raise FitNotConvergedError(
        f"not converged; increase n ladder (no stable ray at x = {x} with period L = {period})"
    )


def _chamber_nodes(lo: int, hi: Optional[int], count: int) -> list[Fraction]:
    """Low-denominator sample points in the chamber (lo, hi], cheapest first:
    the p/q in lowest terms for q = 1, 2, ....  The last chamber [lo, inf)
    (``hi`` None) is sampled on (lo, lo + count]: no node is a breakpoint.
    Breakpoints are integers, so each q adds lo + 1/q and the loop ends."""
    hi = lo + count if hi is None else hi
    nodes: list[Fraction] = []
    q = 1
    while len(nodes) < count:
        nodes.extend(
            Fraction(p, q)
            for p in range(floor_times(lo, q) + 1, floor_times(hi, q) + 1)
            if gcd(p, q) == 1
        )
        q += 1
    return nodes[:count]


def _fit_exact(chambers: ChamberDecomposition, table: LengthLadder) -> ChamberDecomposition:
    """The exact part of ``fit_piecewise``: fill in the polynomials, continuity
    and top degree of ``chambers``, the ``detect_chambers`` of ``table.module``,
    each polynomial through d+e-1 interior ray limits and held to
    ``HELD_OUT_NODES`` more."""
    m = table.module
    fit_nodes = m.ambient.ring.dim + m.ambient.rank - 1
    bps = chambers.breakpoints
    polys: list[Poly] = [()]
    for lo, hi in zip(bps, [*bps[1:], None]):
        nodes = _chamber_nodes(lo, hi, fit_nodes + HELD_OUT_NODES)
        values = [ray_extrapolate(table, x) for x in nodes]
        vandermonde = [[x**k for k in range(fit_nodes)] for x in nodes[:fit_nodes]]
        poly = poly_trim(solve_exact(vandermonde, values[:fit_nodes]))
        for x, v in zip(nodes[fit_nodes:], values[fit_nodes:]):
            if poly_eval(poly, x) != v:
                raise FitNotConvergedError(
                    f"not converged; increase n ladder (held-out x = {x} "
                    f"disagrees with the chamber fit)"
                )
        polys.append(poly)
    chambers.polynomials = tuple(polys)
    chambers.continuity = tuple(
        poly_eval(polys[j], bps[j]) == poly_eval(polys[j + 1], bps[j])
        for j in range(1, len(bps))
    )
    chambers.top_degree = poly_degree(polys[-1])
    return chambers


def fit_piecewise(
    grid: DensityGrid,
    *,
    table: Optional[LengthLadder] = None,
    tol: Fraction = FIT_TOL,
) -> ChamberDecomposition:
    """Fit exact polynomials of degree <= d+e-2 to the adic density on the
    chambers of ``detect_chambers``, filled into the decomposition it returns.

    Each nontrivial chamber polynomial is interpolated through d+e-1 points
    whose values are exact ray extrapolations (stabilized finite differences,
    confirmed on held-out n), then validated exactly on further interior
    points and within tolerance against every extrapolated grid value in the
    chamber.  Refuses with a diagnostic instead of returning a doubtful fit.
    The last chamber's polynomial is (d+e-1)! * L(x, 1), L the leading form
    of the bigraded Hilbert polynomial, of degree <= d-1 in x
    (``top_degree_expected``).
    """
    if grid.kind != "adic":
        raise InputError("piecewise chamber fits are defined for adic grids")
    tol = require_tolerance(tol, "the fit tolerance")
    m = grid.module
    chambers = _fit_exact(detect_chambers(m), ladder_for(m, table))
    bps = chambers.breakpoints
    d = m.ambient.ring.dim
    chambers.diagnostics = {"tol": tol, "ladder": grid.ladder, "top_degree_expected": d - 1}

    # validate against the sampled grid
    for x, v in zip(grid.xs, grid.extrapolated):
        if x == bps[0] and len(bps) > 1:
            continue  # no chamber holds d_1 when there are several breakpoints
        expected = chambers.evaluate(x)
        residual = abs(v - expected)
        if residual > tol * (1 + abs(expected)):
            raise FitNotConvergedError(
                f"not converged; increase n ladder (grid value at x = {x} "
                f"off the fit by {residual})"
            )
    return chambers


# -- cumulative identity -------------------------------------------------------


def trapezoid(xs: list[Fraction], vs: list[Fraction]) -> Fraction:
    acc = Fraction(0)
    for (x0, v0), (x1, v1) in zip(zip(xs, vs), zip(xs[1:], vs[1:])):
        acc += (v0 + v1) * (x1 - x0) / 2
    return acc


def cumulative_identity(
    m: TermModule, x: Fraction, *, table: Optional[LengthLadder] = None
) -> dict:
    """Check exactly that the cumulative-length limit at x is (d+e) times
    the integral of the adic density up to x.

    ``lhs`` is the limit of (d+e)! * table.cumulative(n, floor(xn)) /
    n^{d+e-1}, read along the ray at x (``ray_extrapolate`` on the
    cumulative lengths, at degree d+e-1); ``rhs`` is (d+e) times the exact
    integral of the chamber polynomials of the exact chamber fit from d_1 up
    to x (``integral``), 0 below d_1.  Any rational x is read.  Returns
    ``x``, ``lhs``, ``integral`` and ``rhs``; sides that differ break the
    theorem and raise ``InternalInvariantError``.
    """
    chambers = detect_chambers(m)
    x = require_rational(x, "x")
    table = ladder_for(m, table)
    lhs = ray_extrapolate(table, x, _cumulative=True)
    polys = _fit_exact(chambers, table).polynomials
    bps = chambers.breakpoints
    integral = Fraction(0)
    for lo, hi, poly in zip(bps, [*bps[1:], x], polys[1:]):
        if x <= lo:
            break
        primitive = (0, *(Fraction(c) / (k + 1) for k, c in enumerate(poly)))
        integral += poly_eval(primitive, min(hi, x)) - poly_eval(primitive, lo)
    rhs = (m.ambient.ring.dim + m.ambient.rank) * integral
    if lhs != rhs:
        raise InternalInvariantError(
            f"cumulative identity fails at x = {x}: the cumulative limit {lhs} "
            f"!= {rhs}, (d+e) times the integral of the density"
        )
    return {"x": x, "lhs": lhs, "integral": integral, "rhs": rhs}
