"""Density functions of graded term modules.

For a level-1 module M with d ring variables and ambient rank e, the sampled
quantities at scale n and abscissa x are

    adic       (d+e-1)! * len((M^n)_{floor(xn)}) / n^{d+e-2}
    saturated  same with the saturation of M^n
    epsilon    their difference

together with chamber detection from generator degrees, the exact
piecewise fit of the adic density, the exact cumulative identity and the
exact integral of the epsilon density.  Each chamber polynomial is one
exact bigraded fit of the lengths in its cone (``polyfit.fit_cone``) and a
limit at one x, a breakpoint's value among them, is read along its ray
(``ray_extrapolate``), both at the step L(M) the generator degrees bound,
so both are exact rationals and neither fit needs a sampled grid.

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
from math import factorial, lcm
from types import SimpleNamespace
from typing import Optional

from .core import (
    FitNotConvergedError,
    InputError,
    InternalInvariantError,
    TermModule,
    require_rational,
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
    fit_cone,
    poly_degree,
    poly_eval,
    poly_trim,
    stabilized_difference,
)

DEFAULT_LADDER: tuple[int, ...] = (8, 16, 24, 32, 40)
DEFAULT_STEP = Fraction(1, 8)
# ray samples start at the first multiple of the denominator of x past this n
RAY_N_FLOOR = 8
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
    """Breakpoints, open chambers between them, and (after fitting) the
    exact density on each.

    Fields: ``breakpoints`` (d_1 < ... < d_l), ``chambers`` (one open
    interval string per chamber: ``(-inf, d_1)``, ``(d_i, d_(i+1))``,
    ``(d_l, inf)``), and the fit's ``polynomials`` (one per chamber),
    ``breakpoint_values`` (the density at each d_i), ``continuity`` (one
    flag per breakpoint past the first: do the polynomials on either side
    agree there), ``top_degree`` and ``diagnostics``; all five are None or
    empty before fitting.
    """

    def evaluate(self, x: Fraction) -> Fraction:
        """0 below d_1, the breakpoint's own value at each d_i, else the
        polynomial of the chamber that holds x."""
        if self.polynomials is None:
            raise InputError("decomposition has no fitted polynomials")
        x = require_rational(x, "x")
        k = bisect_left(self.breakpoints, x)
        if k < len(self.breakpoints) and self.breakpoints[k] == x:
            return self.breakpoint_values[k]
        return poly_eval(self.polynomials[k], x) if k else Fraction(0)


def _interval(lo: Optional[int], hi: Optional[int]) -> str:
    """The open chamber between two breakpoints, None meaning unbounded."""
    return f"({'-inf' if lo is None else lo}, {'inf' if hi is None else hi})"


def detect_chambers(m: TermModule) -> ChamberDecomposition:
    """The unfitted decomposition: its breakpoints are the distinct
    generator degrees d_1 < ... < d_l, its chambers the open intervals
    between them."""
    require_samplable(m)
    if not m.is_nonneg_graded:
        raise InputError("chamber detection requires a module graded in degrees >= 0")
    bps = m.generator_degrees
    bounds = [None, *bps, None]
    return ChamberDecomposition(
        breakpoints=bps,
        chambers=tuple(map(_interval, bounds, bounds[1:])),
        polynomials=None,
        breakpoint_values=None,
        continuity=None,
        top_degree=None,
        diagnostics={},
    )


# -- exact limits along rays --------------------------------------------------


def _lattice_step(degrees) -> int:
    """L = lcm |delta - delta'| over distinct degrees (1 for one); L(M) at the
    generator degrees, the period of every ray and step of every adic cone."""
    return lcm(*(b - a for a, b in combinations(degrees, 2)))


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
    period = _lattice_step(m.generator_degrees)
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


def _fit_chambers(value, bps, end: Optional[int], step: int, r: int) -> list[Poly]:
    """The density polynomial of ``value``'s lengths on each chamber (bps[i],
    bps[i+1]), the last ending at ``end`` (None: unbounded): (r+1)! times the
    degree-r part at (x, 1) of ``fit_cone``'s fit of its cone on step*Z^2, or
    ``FitNotConvergedError`` naming the chamber."""
    polys = []
    for lo, hi in zip(bps, [*bps[1:], end]):
        try:
            fit, _, _ = fit_cone(value, lo, hi, step, r)
        except FitNotConvergedError as exc:
            raise FitNotConvergedError(f"chamber {_interval(lo, hi)}: {exc}") from exc
        top = [fit.get((i, r - i), Fraction(0)) for i in range(r + 1)]
        polys.append(poly_trim([factorial(r + 1) * c for c in top]))
    return polys


def fit_piecewise(m: TermModule, *, table: Optional[LengthLadder] = None) -> ChamberDecomposition:
    """The ``detect_chambers`` of M with its adic density filled in exactly:
    one polynomial of degree <= d+e-2 per chamber and one value per
    breakpoint.

    On the cone d_i*n < t < d_(i+1)*n, len((M^n)_t) is a vector partition
    function (Sturmfels, JCTA 1995; Brion-Vergne, J. AMS 1997): deep inside,
    a polynomial on each coset of a lattice holding L(M)*Z^2.  ``fit_cone``
    reads the one P of total degree r = d+e-2 on L(M)*Z^2, confirmed on
    held-out samples; the chamber polynomial is (r+1)! times P's degree-r
    part at (x, 1).  Each breakpoint's value is its own ``ray_extrapolate``.
    A cone or ray that does not converge is refused with
    ``FitNotConvergedError``, a cone naming its chamber.  The last chamber's
    polynomial is (d+e-1)! * L(x, 1), L the leading form of the bigraded
    Hilbert polynomial, of degree <= d-1 in x (``top_degree_expected``).
    """
    chambers = detect_chambers(m)
    table = ladder_for(m, table)
    r = m.ambient.ring.dim + m.ambient.rank - 2
    bps = chambers.breakpoints
    polys = [(), *_fit_chambers(table.length, bps, None, _lattice_step(bps), r)]
    chambers.polynomials = tuple(polys)
    chambers.breakpoint_values = tuple(ray_extrapolate(table, Fraction(b)) for b in bps)
    chambers.continuity = tuple(
        poly_eval(polys[j], bps[j]) == poly_eval(polys[j + 1], bps[j])
        for j in range(1, len(bps))
    )
    chambers.top_degree = poly_degree(polys[-1])
    chambers.diagnostics = {"top_degree_expected": m.ambient.ring.dim - 1}
    return chambers


# -- integrals of the densities ------------------------------------------------


def _integral(poly: Poly, lo, hi) -> Fraction:
    """The exact integral of ``poly`` from ``lo`` to ``hi``."""
    primitive = (0, *(Fraction(c) / (k + 1) for k, c in enumerate(poly)))
    return poly_eval(primitive, hi) - poly_eval(primitive, lo)


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
    # a module with no chambers is refused before the ray does any work
    detect_chambers(m)
    x = require_rational(x, "x")
    table = ladder_for(m, table)
    lhs = ray_extrapolate(table, x, _cumulative=True)
    fit = fit_piecewise(m, table=table)
    bps, polys = fit.breakpoints, fit.polynomials
    integral = Fraction(0)
    for lo, hi, poly in zip(bps, [*bps[1:], x], polys[1:]):
        if x <= lo:
            break
        integral += _integral(poly, lo, min(hi, x))
    rhs = (m.ambient.ring.dim + m.ambient.rank) * integral
    if lhs != rhs:
        raise InternalInvariantError(
            f"cumulative identity fails at x = {x}: the cumulative limit {lhs} "
            f"!= {rhs}, (d+e) times the integral of the density"
        )
    return {"x": x, "lhs": lhs, "integral": integral, "rhs": rhs}


def epsilon_integral(table: LengthLadder, rows) -> Fraction:
    """The exact integral of the epsilon density of ``table``'s module, read
    only off the length rows of the n in ``rows``: epsilon, as t_n sums
    len(sat(M^n)_t) - len((M^n)_t) over t.

    sat(M^n) intersects the n-th powers of the colon modules M : x_i^inf
    (``table``'s colon ladders), so between consecutive points of the union
    U of their generator degrees and M's the difference is a vector
    partition function, read by ``_fit_chambers`` on L(U)*Z^2.  Both modules
    are 0 below U's least point; every colon generator divides one of M's,
    so U tops at d_M, past which the density is 0.  A chamber whose fit does
    not converge, or would read a row off ``rows``, raises
    ``FitNotConvergedError`` naming it before that row is built.
    """
    m = table.module
    colons = (colon.module.generator_degrees for colon in table._colons)
    union = sorted(set(m.generator_degrees).union(*colons))

    def value(n: int, t: int) -> int:
        if n not in rows:
            raise FitNotConvergedError(f"the cone fit would read the row n = {n}, "
                                       "which is not on the epsilon ladder")
        return table.sat_length(n, t) - table.length(n, t)

    r = m.ambient.ring.dim + m.ambient.rank - 2
    polys = _fit_chambers(value, union[:-1], union[-1], _lattice_step(union), r)
    return sum(map(_integral, polys, union, union[1:]), Fraction(0))
