"""Density functions of graded term modules.

For a level-1 module M with d ring variables and ambient rank e, the sampled
quantities at scale n and abscissa x are

    adic       (d+e-1)! * len((M^n)_{floor(xn)}) / n^{d+e-2}
    saturated  same with the saturation of M^n
    epsilon    their difference

together with chamber detection from generator degrees and exact piecewise
polynomial fits.  Fitted values come from stabilized finite differences along
rays n = n0 + jH (an exact extrapolation of the sampled sequence, confirmed
on a held-out n), so fitted polynomials have exact rational coefficients.

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
from math import factorial, gcd
from types import SimpleNamespace
from typing import Optional

from .core import FitNotConvergedError, InputError, TermModule, require_rational
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
# ray samples start at the first multiple of the ray step H past this n
RAY_N_FLOOR = 8
# ray steps H = h * (denominator of x) are tried for h = 1 .. RAY_H_MAX
RAY_H_MAX = 12
# chamber nodes beyond the d interpolation nodes, checked exactly
HELD_OUT_NODES = 2
# relative part of the cumulative-identity tolerance
IDENTITY_REL_TOL = Fraction(1, 20)
# an x grid with more points is refused before any is built
MAX_GRID_POINTS = 10**5


def floor_times(x: Fraction, n: int) -> int:
    """Exact floor(x*n)."""
    return (x.numerator * n) // x.denominator


def arithmetic_grid(lo: Fraction, hi: Fraction, step: Fraction) -> tuple[Fraction, ...]:
    """lo, lo + step, ... up to hi.

    A step that is not positive, or a grid of more than ``MAX_GRID_POINTS``
    points, is refused before any point is built.
    """
    if step <= 0:
        raise InputError(f"the x grid step must be positive, got {step}")
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


def ray_extrapolate(table: LengthLadder, x: Fraction) -> Fraction:
    """Exact limit of the adic density at x via finite differences along a ray.

    Samples len((M^n)_{xn}) at n = n0 + jH, with H = h * (denominator of x)
    for h = 1..RAY_H_MAX (so xn is an integer) and n0 the first multiple of H
    that is at least 2H and ``RAY_N_FLOOR``.  Once the counting function is
    polynomial along the ray, the (r+1)-st differences vanish (r = d+e-2) and
    the limit is (r+1) * (r-th difference) / H^r; smaller detected degree
    means the limit is 0.  A step H is accepted only when the difference
    table of all but the last sample stabilizes at some degree D and the
    held-out last sample continues it: the (D+1)-st difference of the last
    D+2 samples is 0.  A step whose last sample lies above ``MAX_LADDER_N``
    is never sampled: the ray gives up there.
    """
    m = table.module
    require_samplable(m)
    x = require_rational(x, "x")
    d = m.ambient.ring.dim
    e = m.ambient.rank
    r = d + e - 2
    q = x.denominator
    needed = r + STABLE_WINDOW + 2
    for h in range(1, RAY_H_MAX + 1):
        step = q * h
        n0 = step * max(2, -(-RAY_N_FLOOR // step))
        ns = [n0 + j * step for j in range(needed + 1)]
        if ns[-1] > MAX_LADDER_N:
            raise FitNotConvergedError(
                f"not converged; the ray at x = {x} with step {step} would sample "
                f"M^{ns[-1]}, above the bound n <= {MAX_LADDER_N}"
            )
        vals = [table.length(n, floor_times(x, n)) for n in ns]
        ext = stabilized_difference(ns[:-1], vals[:-1], r)
        if ext is None:
            continue
        degree = ext["degree"]
        if difference_rows(vals[-(degree + 2) :], degree + 1)[-1][0] != 0:
            continue
        return (r + 1) * ext["normalized"] if degree == r else Fraction(0)
    raise FitNotConvergedError(
        f"not converged; increase n ladder (no stable ray at x = {x} with h <= {RAY_H_MAX})"
    )


def _chamber_nodes(lo: int, hi: Optional[int], count: int) -> list[Fraction]:
    """Low-denominator sample points in the chamber (lo, hi], cheapest first:
    the p/q in lowest terms for q = 1, 2, ...; in the last chamber
    [lo, inf) (``hi`` None) they are lo, lo + 1/2, lo + 1, ....  Breakpoints
    are integers, so each q adds lo + 1/q at least and the loop ends."""
    if hi is None:
        return [lo + Fraction(k, 2) for k in range(count)]
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


def fit_piecewise(
    grid: DensityGrid,
    *,
    table: Optional[LengthLadder] = None,
    tol: Fraction = Fraction(1, 10),
) -> ChamberDecomposition:
    """Fit exact polynomials of degree <= d-1 to the adic density on the
    chambers of ``detect_chambers``, filled into the decomposition it returns.

    Each nontrivial chamber polynomial is interpolated through d points whose
    values are exact ray extrapolations (stabilized finite differences,
    confirmed on held-out n), then validated exactly on further interior
    points and within tolerance against every extrapolated grid value in the
    chamber.  Refuses with a diagnostic instead of returning a doubtful fit.
    """
    if grid.kind != "adic":
        raise InputError("piecewise chamber fits are defined for adic grids")
    tol = require_rational(tol, "the fit tolerance")
    m = grid.module
    chambers = detect_chambers(m)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    bps = chambers.breakpoints
    polys: list[Poly] = [()]
    for lo, hi in zip(bps, [*bps[1:], None]):
        nodes = _chamber_nodes(lo, hi, d + HELD_OUT_NODES)
        values = [ray_extrapolate(table, x) for x in nodes]
        vandermonde = [[x**k for k in range(d)] for x in nodes[:d]]
        poly = poly_trim(solve_exact(vandermonde, values[:d]))
        for x, v in zip(nodes[d:], values[d:]):
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
    m: TermModule,
    x: Fraction,
    *,
    ladder=None,
    table: Optional[LengthLadder] = None,
) -> dict:
    """Compare the cumulative-length limit against the integral of the density.

    The cumulative sampler (d+e)! * table.cumulative(n, floor(xn)) /
    n^{d+e-1}, from the lengths of M^n summed over degrees <= floor(xn),
    converges to (d+e) * integral of the adic density up to x; both sides
    are estimated (Richardson on the ladder; trapezoid on the grid) and
    returned with their gap and a tolerance that scales with the grid spacing
    and 1/n.
    """
    require_samplable(m)
    x = require_rational(x, "x")
    table = ladder_for(m, table)
    ladder = normalize_ladder(ladder, DEFAULT_LADDER)
    d = m.ambient.ring.dim
    e = m.ambient.rank

    def lhs_at(n: int) -> Fraction:
        return Fraction(
            factorial(d + e) * table.cumulative(n, floor_times(x, n)),
            n ** (d + e - 1),
        )

    xs = arithmetic_grid(Fraction(-m.ambient.c0 - 1), x, DEFAULT_STEP)
    if not xs or xs[-1] != x:
        raise InputError(f"x = {x} must lie on the density grid")
    vs = sample_adic(m, xs, ladder, table=table, richardson=True).extrapolated
    lhs, _ = extrapolate(lhs_at, ladder, richardson=True)
    integral = trapezoid(xs, vs)
    rhs = (d + e) * integral
    gap = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), Fraction(1))
    # tolerance scales with grid spacing and 1/n: the trapezoid rule puts a
    # spurious step*f/2 cell at the closed lower end of the support, and the
    # two-point Richardson value retains an O(1/n^2) residual estimated from
    # the 1/n coefficient it removed
    step = xs[1] - xs[0] if len(xs) > 1 else Fraction(0)
    peak = max((abs(v) for v in vs), default=Fraction(0))
    quad_term = Fraction((d + e) * step * peak, 2)
    richardson_term = abs(lhs - lhs_at(ladder[-1])) / 2
    tolerance = IDENTITY_REL_TOL * scale + quad_term + richardson_term
    return {
        "x": x,
        "lhs": lhs,
        "integral": integral,
        "rhs": rhs,
        "gap": gap,
        "relative_gap": gap / scale,
        "quadrature_term": quad_term,
        "richardson_term": richardson_term,
        "tolerance": tolerance,
        "ok": gap <= tolerance,
    }
