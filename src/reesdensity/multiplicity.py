"""Multiplicities from exact length data.

Two invariants are read off the lengths: the epsilon multiplicity, the
growth of the saturation-quotient totals on an n ladder, and the bigraded
polynomial P-bar of the cumulative lengths, interpolated exactly deep
inside its polynomial region (``fit_bigraded_polynomial``).  The extended
mixed multiplicities e-bar are the leading form of P-bar and the plain ones
are e_i = e-bar_{i+1}, as the graded lengths are P-bar(X, n) - P-bar(X-1, n);
the diagonal multiplicities along m = c*n (in the base ring and in the
one-variable polynomial extension realized by cumulative lengths) and the
epsilon of the truncation M_{>=c} are closed forms in epsilon and the same
fit.  Nothing that fails to stabilize is guessed; it is reported as
undetermined.  Lengths come from a ``LengthLadder`` of the module, passed in
as ``table=`` as in ``density``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace
from typing import Optional

from .core import (
    FitNotConvergedError,
    InputError,
    TermModule,
    require_int,
    require_tolerance,
)
from .counting import LengthLadder, ladder_for, normalize_ladder, require_samplable
from .polyfit import (
    MAX_PERIOD,
    Poly2,
    extrapolate,
    fit_poly2_triangular,
    poly2_eval,
    poly_trim,
    reference_entry,
    stabilized_difference,
)

DEFAULT_MULT_LADDER: tuple[int, ...] = tuple(range(1, 21))
# default relative tolerance of the epsilon cross-check
EPSILON_TOL = Fraction(3, 20)
# bigraded fits: the margins past c*n tried in turn
FIT_MARGINS = (2, 4, 8, 16, 32, 64)


class MultiplicityReport(SimpleNamespace):
    """Fields: ``kind`` (epsilon, diagonal or mixed), ``status`` (ok,
    estimate-only, undetermined or suspect), the exact ``values``, the
    ``ladder`` used and ``diagnostics``."""


def _arithmetic_tail(ladder: tuple[int, ...]) -> list[int]:
    """Longest arithmetic suffix of the ladder."""
    i = len(ladder) - 2
    while i > 0 and ladder[i] - ladder[i - 1] == ladder[-1] - ladder[-2]:
        i -= 1
    return list(ladder[max(i, 0) :])


def extract_polynomial_growth(
    ns: list[int], values: list[int], max_order: int
) -> Optional[dict]:
    """``stabilized_difference``'s record of the arithmetic progression
    ``ns`` at the least period p <= ``MAX_PERIOD`` that stabilizes, in case
    the sequence is only quasi-polynomial; or None.
    """
    for period in range(1, MAX_PERIOD + 1):
        ext = stabilized_difference(ns, values, max_order, period)
        if ext is not None:
            return ext
    return None


# -- epsilon -----------------------------------------------------------------


def _exact_epsilon(
    totals: dict[int, int], big_d: int
) -> tuple[Optional[Fraction], Optional[dict]]:
    """Exact epsilon and the extraction record from saturation-quotient totals.

    ``totals`` maps the ascending ladder to t_n.  The exact value is the
    normalized leading value of the stabilized differences on the ladder's
    arithmetic tail when they certify growth of order big_d = d+e-1, and 0
    when they certify lower order; otherwise it is None.
    """
    tail_ns = _arithmetic_tail(tuple(totals))
    ext = extract_polynomial_growth(tail_ns, [totals[n] for n in tail_ns], big_d)
    exact: Optional[Fraction] = None
    if ext is not None:
        exact = ext["normalized"] if ext["degree"] == big_d else Fraction(0)
        if exact < 0:
            ext = {**ext, "rejected": "negative leading value"}
            exact = None
    return exact, ext


def epsilon_multiplicity(
    m: TermModule,
    ladder=None,
    *,
    table: Optional[LengthLadder] = None,
    cross_check: bool = True,
    tol: Fraction = EPSILON_TOL,
) -> MultiplicityReport:
    """Epsilon multiplicity from exact saturation-quotient totals.

    t_n = total length of sat(M^n)/M^n; the reported estimate is
    (d+e-1)! * t_n / n^{d+e-1} at the top of the ladder with an n_max/2
    diagnostic, the exact value comes from stabilized finite differences when
    they certify a polynomial tail, and (optionally) the trapezoidal integral
    of the epsilon density, sampled at the ladder's reference rung and top,
    cross-checks the exact value, or without one the Richardson estimate of
    the top and reference rungs.
    """
    require_samplable(m)
    tol = require_tolerance(tol, "the tolerance")
    if cross_check:
        # the epsilon density is density work: only the cross-check loads it;
        # an oversized grid is refused here, before any census
        from .density import default_grid, sample_epsilon, trapezoid

        xs = default_grid(m)
    ladder = normalize_ladder(ladder, DEFAULT_MULT_LADDER)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    e = m.ambient.rank
    big_d = d + e - 1
    totals = {n: table.sat_quotient_total(n) for n in ladder}
    n_max = ladder[-1]

    def estimate_at(n: int) -> Fraction:
        return Fraction(factorial(big_d) * totals[n], n**big_d)

    estimate, halfway_gap = extrapolate(estimate_at, ladder, richardson=False)
    exact, ext = _exact_epsilon(totals, big_d)
    diagnostics: dict = {
        "halfway_gap": halfway_gap,
        "reference_n": reference_entry(ladder),
        "extraction": ext,
    }
    if cross_check:
        # the ladder's own reference rung: no rung off the ladder is sampled
        ref = diagnostics["reference_n"]
        grid_ladder = (n_max,) if ref is None else (ref, n_max)
        grid = sample_epsilon(m, xs, grid_ladder, table=table, richardson=True)
        integral = trapezoid(list(grid.xs), list(grid.extrapolated))
        # like with like: the integral is a limit, so it is compared with the
        # exact value where there is one, else with the Richardson estimate
        limit = exact if exact is not None else extrapolate(estimate_at, ladder, True)[0]
        gap = abs(integral - limit)
        # combined tolerance: relative term for the 1/n error plus a grid-
        # resolution term; the epsilon density jumps to 0 at d_M, and the
        # trapezoid rule misses O(step * jump) there no matter how large n is
        step = grid.xs[1] - grid.xs[0] if len(grid.xs) > 1 else Fraction(0)
        peak = max((abs(v) for v in grid.extrapolated), default=Fraction(0))
        combined = tol * max(Fraction(1), estimate) + Fraction(step * peak, 2)
        diagnostics["integral"] = integral
        diagnostics["integral_gap"] = gap
        diagnostics["integral_tolerance"] = combined
        diagnostics["integral_ok"] = gap <= combined
    status = "ok" if exact is not None else "estimate-only"
    return MultiplicityReport(
        kind="epsilon",
        status=status,
        values={"estimate": estimate, "exact": exact, "totals": totals},
        ladder=ladder,
        diagnostics=diagnostics,
    )


# -- slope -------------------------------------------------------------------


class SlopeError(InputError):
    """A diagonal slope c at or below the top generator degree."""


def require_slope(bound: int, c: Optional[int]) -> int:
    """The diagonal slope c past generator degrees <= ``bound``: ``bound + 1``
    by default, and refused unless it exceeds ``bound`` (``SlopeError``)."""
    if c is None:
        return bound + 1
    c = require_int(c, "the slope c")
    if c <= bound:
        raise SlopeError(f"the slope c must exceed the top generator degree {bound}, got {c}")
    return c


# -- bigraded fits -------------------------------------------------------------


class BigradedFit(SimpleNamespace):
    """Validated polynomial P-bar(X, Y) of the cumulative lengths, with fit
    metadata: sum over j <= X of len((M^n)_j) is P-bar(X, n) deep in the
    cone, and len((M^n)_X) is P-bar(X, n) - P-bar(X - 1, n).

    Fields: ``poly``, the slope ``c``, ``margin``, ``n_base`` (the grid's
    first n; the grid steps by 1 in n) and ``total_degree_bound``, d+e-1.
    """

    def evaluate(self, m_deg: int, n: int) -> Fraction:
        return poly2_eval(self.poly, m_deg, n)


def fit_bigraded_polynomial(
    m: TermModule,
    c: Optional[int] = None,
    *,
    table: Optional[LengthLadder] = None,
) -> BigradedFit:
    """Fit the polynomial P-bar(X, Y) with sum over j <= X of len((M^n)_j)
    = P-bar(X, n) deep in the cone.

    Interpolates P-bar of total degree <= d+e-1 directly in (X, Y) through
    exact cumulative lengths at X = c*n + margin + k, Y = n, one sample per
    (k, n) of a triangular grid; the fit must then reproduce four held-out
    samples exactly.  The margin doubles until they agree: the polynomial
    region's onset is unknown a priori.

    There is one fit per margin, on consecutive n.  len((M^n)_X) is a sum of
    shifted p(X, n) = sum over |b| = n of C(X - b.deg + d - 1, d - 1), whose
    binomials all have a nonnegative top once X >= d_M*n + C for a constant
    C; a polynomial summed over the lattice points of the dilate n*simplex
    is a polynomial in n, so there the lengths, and their cumulative sum,
    one more variable of degree (1, 0), have no residue classes in n.  As
    c > d_M, the grid's row n = n_base is the first to leave that region.
    """
    require_samplable(m)
    c = require_slope(m.max_degree, c)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    e = m.ambient.rank
    total_degree = d + e - 1
    n0 = total_degree + 2
    grid = [(k, n0 + j) for j in range(total_degree + 1) for k in range(total_degree + 1 - j)]
    top = n0 + total_degree + 1
    held_out = [(0, top), (1, top), (total_degree + 1, n0), (total_degree + 2, n0 + 1)]

    def sample(marg: int, k: int, n: int) -> tuple[int, int, int]:
        x = c * n + marg + k
        return x, n, table.cumulative(n, x)

    for marg in FIT_MARGINS:
        # an affine image of the triangular grid: the system is never singular
        poly = fit_poly2_triangular([sample(marg, k, n) for k, n in grid], total_degree)
        if all(poly2_eval(poly, x, n) == v for x, n, v in (sample(marg, *p) for p in held_out)):
            return BigradedFit(
                poly=poly, c=c, margin=marg, n_base=n0, total_degree_bound=total_degree
            )
    raise FitNotConvergedError(
        f"no polynomial region found (held-out samples disagree up to the margin "
        f"cap {FIT_MARGINS[-1]})"
    )


# -- readers of one fit -----------------------------------------------------------
#
# Each takes a fit or the FitNotConvergedError it raised: one fit of M
# serves both mixed vectors, every diagonal row and the stand-in.


def fit_or_error(
    m: TermModule, c: Optional[int], table: Optional[LengthLadder]
) -> "BigradedFit | FitNotConvergedError":
    """``fit_bigraded_polynomial``, or the ``FitNotConvergedError`` it raised."""
    try:
        return fit_bigraded_polynomial(m, c, table=table)
    except FitNotConvergedError as exc:
        return exc


def _undetermined(kind: str, values: dict, exc: FitNotConvergedError) -> MultiplicityReport:
    return MultiplicityReport(kind=kind, status="undetermined", values=values, ladder=(),
                              diagnostics={"reason": str(exc)})


def _fit_record(fit: BigradedFit) -> dict:
    return {key: getattr(fit, key) for key in ("c", "margin", "n_base")}


def mixed_from_fit(
    fit: "BigradedFit | FitNotConvergedError", d: int, extended: bool
) -> MultiplicityReport:
    """Mixed multiplicities from the leading form of the fit P-bar of a
    module over d variables: all of e-bar when ``extended``, else e.

    The leading form is Y^{e-1} * sum_i e-bar_i X^i Y^{d-i} / (i! (t-i)!)
    with t = d+e-1, so e-bar_i = i! (t-i)! * coeff(X^i Y^{t-i}) for
    0 <= i <= d.  The graded lengths P-bar(X, n) - P-bar(X-1, n) have the
    X-derivative of that form as theirs, so e_i = e-bar_{i+1} for
    0 <= i <= d-1.  Each value must come out an integer; a violation is
    reported as a too-shallow fit region.
    """
    if isinstance(fit, FitNotConvergedError):
        return _undetermined("mixed", {"e": None}, fit)
    t = fit.total_degree_bound
    top = {key: coeff for key, coeff in fit.poly.items() if sum(key) == t}
    e_bar = [top.get((i, t - i), Fraction(0)) * factorial(i) * factorial(t - i)
             for i in range(d + 1)]
    es = e_bar if extended else e_bar[1:]
    stray = {key: coeff for key, coeff in top.items() if key[0] > d and coeff != 0}
    non_integer = [i for i, v in enumerate(es) if v.denominator != 1]
    diagnostics: dict = {
        "fit": _fit_record(fit),
        "leading_form": {f"{i},{j}": v for (i, j), v in sorted(top.items())},
    }
    if stray:
        diagnostics["stray_leading_terms"] = {f"{i},{j}": v for (i, j), v in sorted(stray.items())}
    if non_integer:
        diagnostics["non_integer_indices"] = non_integer
        diagnostics["note"] = "fit region too shallow"
    return MultiplicityReport(
        kind="mixed",
        status="suspect" if stray or non_integer else "ok",
        values={"e": tuple(int(v) if v.denominator == 1 else v for v in es),
                "extended": extended},
        ladder=(),
        diagnostics=diagnostics,
    )


def _along_ray(poly: Poly2, c: int, shift: int = 0) -> list[Fraction]:
    """Coefficients, by degree in n, of P(c*n + shift, n)."""
    coeffs = [Fraction(0)] * (max((i + j for i, j in poly), default=0) + 1)
    for (i, j), coeff in poly.items():
        for k in range(i + 1):
            coeffs[k + j] += coeff * comb(i, k) * c**k * shift ** (i - k)
    return coeffs


def _growth(coeffs: list[Fraction]) -> dict:
    """Dimension (degree + 1) and multiplicity (degree! times the leading
    coefficient) of a polynomial in n."""
    coeffs = poly_trim(coeffs) or (Fraction(0),)
    return {"dimension": len(coeffs), "multiplicity": coeffs[-1] * factorial(len(coeffs) - 1)}


def diagonal_from_fit(fit: "BigradedFit | FitNotConvergedError", c: int) -> MultiplicityReport:
    """The diagonals at slope c read off the fit P-bar: past X =
    d_M*n the cumulative length is P-bar(X, n), so the extension diagonal is
    P-bar(cn, n) and the base-ring one, len((M^n)_{cn}), is P-bar(cn, n) -
    P-bar(cn - 1, n), for every slope c past d_M."""
    if isinstance(fit, FitNotConvergedError):
        return _undetermined("diagonal", {"a_version": None, "s_version": None, "c": c}, fit)
    cumulative = _along_ray(fit.poly, c)
    graded = [a - b for a, b in zip(cumulative, _along_ray(fit.poly, c, -1))]
    return MultiplicityReport(
        kind="diagonal",
        status="ok",
        values={"a_version": _growth(graded), "s_version": _growth(cumulative), "c": c},
        ladder=(),
        diagnostics={"fit": _fit_record(fit)},
    )


def stand_in_epsilon(
    epsilon: Optional[Fraction], fit: "BigradedFit | FitNotConvergedError"
) -> Optional[Fraction]:
    """Epsilon of the truncation M_{>=c} at the slope c of the fit
    P-bar of M, from epsilon(M); None when either is unknown.

    For c past every generator degree, (M_{>=c})^n = (M^n)_{>=nc}: a term
    u*g_1*...*g_n of degree >= nc is u' * (u_1*g_1) * ... * (u_n*g_n) with
    deg u_i = c - deg g_i.  Both saturate to sat(M^n), as the quotient has
    finite length, so t_n(M_{>=c}) = t_n(M) + P-bar(nc - 1, n): epsilon(M)
    plus the extension diagonal's multiplicity when its dimension is d+e.
    """
    if epsilon is None or isinstance(fit, FitNotConvergedError):
        return None
    s = _growth(_along_ray(fit.poly, fit.c))
    return epsilon + (s["multiplicity"] if s["dimension"] == fit.total_degree_bound + 1 else 0)


def mixed_multiplicities(
    m: TermModule,
    *,
    extended: bool = False,
    c: Optional[int] = None,
    table: Optional[LengthLadder] = None,
) -> MultiplicityReport:
    """Mixed multiplicities of M, the extended ones when ``extended``, read
    by ``mixed_from_fit`` off ``fit_bigraded_polynomial``."""
    return mixed_from_fit(fit_or_error(m, c, table), m.ambient.ring.dim, extended)


def diagonal_multiplicity(
    m: TermModule,
    c: Optional[int] = None,
    *,
    table: Optional[LengthLadder] = None,
) -> MultiplicityReport:
    """Multiplicities of the degree-(c,1) diagonal algebras of M: the growth
    of h(n) = len((M^n)_{cn}) (base ring) and of the cumulative lengths (the
    one-variable polynomial extension), read by ``diagonal_from_fit`` off
    ``fit_bigraded_polynomial``.  The dimension is the degree in
    n plus 1, the multiplicity degree! times the leading coefficient; a fit
    that does not converge yields status "undetermined" with its reason.
    The slope ``c`` defaults to d_M + 1 and must exceed d_M.
    """
    require_samplable(m)
    c = require_slope(m.max_degree, c)
    return diagonal_from_fit(fit_or_error(m, c, table), c)
