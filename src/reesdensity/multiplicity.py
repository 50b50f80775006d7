"""Multiplicities from exact length data.

Three families: the epsilon multiplicity (growth of saturation-quotient
totals), diagonal multiplicities (growth of lengths along m = c*n, in both
the base-ring version and the one-variable polynomial extension realized by
cumulative lengths), and mixed multiplicities (coefficients of the leading
form of the bigraded Hilbert polynomial, recovered by exact interpolation
deep inside the polynomial region).

Every extraction works on stabilized finite-difference tables of exact
integers; anything that fails to stabilize is reported as undetermined, never
guessed.  Lengths come from a ``LengthLadder`` of the module, passed in as
``table=`` as in ``density``.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from types import SimpleNamespace
from typing import Optional

from .core import (
    FitNotConvergedError,
    InputError,
    InternalInvariantError,
    TermModule,
    require_int,
    require_rational,
)
from .counting import LengthLadder, ladder_for, normalize_ladder, require_samplable
from .polyfit import (
    Poly2,
    extrapolate,
    fit_poly2_triangular,
    poly2_eval,
    reference_entry,
    stabilized_difference,
)

DEFAULT_MULT_LADDER: tuple[int, ...] = tuple(range(1, 21))
# thinnings of a ladder's arithmetic tail tried for quasi-polynomial growth
GROWTH_SUBSTEPS = (1, 2, 3)
# bigraded fits: the margins past c*n tried in turn, and the largest
# residue-class step in n
FIT_MARGINS = (2, 4, 8, 16, 32, 64)
FIT_H_MAX = 4


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
    """``stabilized_difference``'s record of the first thinning of the
    arithmetic progression ``ns`` by ``GROWTH_SUBSTEPS`` that stabilizes, in
    case the sequence is only quasi-polynomial with a small period; or None.
    """
    for s in GROWTH_SUBSTEPS:
        idx = range(len(values) - 1, -1, -s)[::-1]
        ext = stabilized_difference([ns[i] for i in idx], [values[i] for i in idx], max_order)
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
    tol: Fraction = Fraction(3, 20),
) -> MultiplicityReport:
    """Epsilon multiplicity from exact saturation-quotient totals.

    t_n = total length of sat(M^n)/M^n; the reported estimate is
    (d+e-1)! * t_n / n^{d+e-1} at the top of the ladder with an n_max/2
    diagnostic, the exact value comes from stabilized finite differences when
    they certify a polynomial tail, and (optionally) the trapezoidal integral
    of the epsilon density cross-checks the estimate.
    """
    require_samplable(m)
    tol = require_rational(tol, "the tolerance")
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
        # the n_max/2 rung, never above the ladder's top
        grid_ladder = tuple(sorted({min(max(2, n_max // 2), n_max), n_max}))
        grid = sample_epsilon(m, xs, grid_ladder, table=table, richardson=True)
        integral = trapezoid(list(grid.xs), list(grid.extrapolated))
        gap = abs(integral - estimate)
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


def truncation_totals(
    table: LengthLadder, c: int, totals: dict[int, int]
) -> dict[int, int]:
    """Saturation-quotient totals of the truncation M_{>=c}, never built.

    ``totals`` are the totals t_n(M) of ``epsilon_multiplicity`` on its
    ladder.  For c at least every generator degree of M, (M_{>=c})^n =
    (M^n)_{>=nc}: a term u*g_1*...*g_n of degree >= nc factors as
    u' * (u_1*g_1) * ... * (u_n*g_n) with u = u'*u_1*...*u_n and deg u_i =
    c - deg g_i.  M^n/(M^n)_{>=nc} has finite length, so both saturate to
    sat(M^n), and

        t_n(M_{>=c}) = t_n(M) + sum_{j < nc} len((M^n)_j),

    the second term being the ladder's cumulative length at degree nc - 1.
    c must exceed d_M, the slope bound ``check_dependence`` enforces (the
    identity itself needs only c >= d_M).
    """
    m = table.module
    if m.max_degree is None or c <= m.max_degree:
        raise InternalInvariantError(
            f"truncation census needs c > d_M = {m.max_degree}, got {c}"
        )
    return {n: t + table.cumulative(n, n * c - 1) for n, t in totals.items()}


def truncation_epsilon(
    table: LengthLadder, c: int, totals: dict[int, int]
) -> Optional[Fraction]:
    """Exact epsilon of M_{>=c} from ``truncation_totals``, extracted as in
    ``epsilon_multiplicity``."""
    ambient = table.module.ambient
    big_d = ambient.ring.dim + ambient.rank - 1
    return _exact_epsilon(truncation_totals(table, c, totals), big_d)[0]


# -- diagonal ----------------------------------------------------------------


def require_slope(bound: int, c: Optional[int]) -> int:
    """The diagonal slope c past generator degrees <= ``bound``: ``bound + 1``
    by default, and refused unless it exceeds ``bound``."""
    if c is None:
        return bound + 1
    c = require_int(c, "the slope c")
    if c <= bound:
        raise InputError(f"the slope c must exceed the top generator degree {bound}, got {c}")
    return c


def diagonal_multiplicity(
    m: TermModule,
    c: Optional[int] = None,
    *,
    ladder=None,
    table: Optional[LengthLadder] = None,
) -> MultiplicityReport:
    """Multiplicities of the degree-(c,1) diagonal algebras.

    The base version reads h(n) = len((M^n)_{cn}); the extended version reads
    the cumulative lengths (the same module over a one-variable polynomial
    extension).  Dimension is detected from the difference table and the
    multiplicity is (dim-1)! times the leading coefficient; a ladder on which
    the differences never stabilize yields status "undetermined".  The slope
    ``c`` defaults to d_M + 1 and must exceed d_M.
    """
    require_samplable(m)
    c = require_slope(m.max_degree, c)
    ladder = normalize_ladder(ladder, DEFAULT_MULT_LADDER)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    e = m.ambient.rank
    tail_ns = _arithmetic_tail(ladder)

    def analyze(values: list[int], max_order: int) -> Optional[dict]:
        ext = extract_polynomial_growth(tail_ns, values, max_order)
        if ext is not None:
            ext["dimension"] = ext.pop("degree") + 1
            ext["multiplicity"] = ext.pop("normalized")
        return ext

    h_vals = [table.length(n, c * n) for n in tail_ns]
    hbar_vals = [table.cumulative(n, c * n) for n in tail_ns]
    a_version = analyze(h_vals, d + e - 1)
    s_version = analyze(hbar_vals, d + e)
    status = "ok" if (a_version is not None and s_version is not None) else "undetermined"
    return MultiplicityReport(
        kind="diagonal",
        status=status,
        values={"a_version": a_version, "s_version": s_version, "c": c},
        ladder=ladder,
        diagnostics={
            "h": dict(zip(tail_ns, h_vals)),
            "h_cumulative": dict(zip(tail_ns, hbar_vals)),
            # dimension claims differ between the stated theory (d+e-2) and
            # the worked linear example (d+e-1); both recorded, detection is
            # empirical
            "dimension_claims": {"stated": d + e - 2, "example": d + e - 1},
        },
    )


# -- bigraded fits -------------------------------------------------------------


class BigradedFit(SimpleNamespace):
    """Validated bivariate Hilbert polynomial P(X, Y) with fit metadata.

    Fields: ``poly``, the slope ``c``, ``margin``, the residue-class step
    ``h``, ``n_base``, ``total_degree_bound`` and ``cumulative``.
    """

    def evaluate(self, m_deg: int, n: int) -> Fraction:
        return poly2_eval(self.poly, m_deg, n)


def _leading(poly: Poly2, t: int) -> Poly2:
    """The degree-t form of a bigraded polynomial, its leading form at t = the total degree."""
    return {key: coeff for key, coeff in poly.items() if sum(key) == t}


def fit_bigraded_polynomial(
    m: TermModule,
    c: Optional[int] = None,
    *,
    cumulative: bool = False,
    table: Optional[LengthLadder] = None,
) -> BigradedFit:
    """Fit the polynomial P(X, Y) with len((M^n)_X) = P(X, n) deep in the cone.

    Interpolates P of total degree <= d+e-2 (one more for cumulative lengths)
    directly in (X, Y) through exact lengths at X = c*n + margin + k, Y = n,
    one sample per (k, n) of a triangular grid; the fit must then reproduce
    held-out samples exactly.  The margin doubles (the polynomial region's
    onset is unknown a priori) and the residue-class step h of the n grid
    grows until validation passes; for h > 1 the leading form must agree
    with the fit on the next residue class.
    """
    require_samplable(m)
    c = require_slope(m.max_degree, c)
    table = ladder_for(m, table)
    d = m.ambient.ring.dim
    e = m.ambient.rank
    total_degree = d + e - 2 + (1 if cumulative else 0)
    value = table.cumulative if cumulative else table.length
    n0 = max(total_degree + 2, 4)

    def fit_once(h: int, marg: int, nb: int) -> Optional[Poly2]:
        def sample(k: int, n: int) -> tuple[int, int, int]:
            x = c * n + marg + k
            return x, n, value(n, x)

        samples = [
            sample(k, nb + j * h)
            for j in range(total_degree + 1)
            for k in range(total_degree + 1 - j)
        ]
        try:
            poly = fit_poly2_triangular(samples, total_degree)
        except ValueError:
            return None
        top = nb + (total_degree + 1) * h
        held_out = (
            sample(k, n)
            for k, n in (
                (0, top), (1, top), (total_degree + 1, nb), (total_degree + 2, nb + h)
            )
        )
        if any(poly2_eval(poly, x, n) != v for x, n, v in held_out):
            return None
        return poly

    for h in range(1, FIT_H_MAX + 1):
        for marg in FIT_MARGINS:
            poly = fit_once(h, marg, n0)
            if poly is None:
                continue
            if h > 1:
                other = fit_once(h, marg, n0 + 1)
                if other is None or _leading(poly, total_degree) != _leading(other, total_degree):
                    continue
            return BigradedFit(
                poly=poly,
                c=c,
                margin=marg,
                h=h,
                n_base=n0,
                total_degree_bound=total_degree,
                cumulative=cumulative,
            )
    raise FitNotConvergedError(
        f"quasi-period undetected (no residue class h <= {FIT_H_MAX} validates; "
        f"margin cap {FIT_MARGINS[-1]})"
    )


def mixed_multiplicities(
    m: TermModule,
    *,
    extended: bool = False,
    c: Optional[int] = None,
    table: Optional[LengthLadder] = None,
) -> MultiplicityReport:
    """Mixed multiplicities from the leading form of the bigraded polynomial.

    The leading form is Y^{e-1} * sum_i e_i X^i Y^{d-1-i} / (i! (d+e-2-i)!),
    so e_i = i! (d+e-2-i)! * coeff(X^i Y^{d+e-2-i}) for 0 <= i <= d-1.  The
    extended variant fits cumulative lengths (total degree one higher) and
    recovers e_0..e_d the same way.  Each e_i must come out an integer; a
    violation is reported as a too-shallow fit region.
    """
    d = m.ambient.ring.dim
    e = m.ambient.rank
    try:
        fit = fit_bigraded_polynomial(m, c, cumulative=extended, table=table)
    except FitNotConvergedError as exc:
        return MultiplicityReport(
            kind="mixed",
            status="undetermined",
            values={"e": None},
            ladder=(),
            diagnostics={"reason": str(exc)},
        )
    t = fit.total_degree_bound
    top = _leading(fit.poly, t)
    i_max = d - 1 + (1 if extended else 0)
    es = []
    for i in range(i_max + 1):
        coeff = top.get((i, t - i), Fraction(0))
        es.append(coeff * factorial(i) * factorial(t - i))
    stray = {
        key: coeff for key, coeff in top.items() if key[0] > i_max and coeff != 0
    }
    non_integer = [i for i, v in enumerate(es) if Fraction(v).denominator != 1]
    status = "ok"
    diagnostics: dict = {
        "fit": {
            "c": fit.c,
            "margin": fit.margin,
            "h": fit.h,
            "n_base": fit.n_base,
            "cumulative": fit.cumulative,
        },
        "leading_form": {f"{i},{j}": v for (i, j), v in sorted(top.items())},
    }
    if stray:
        status = "suspect"
        diagnostics["stray_leading_terms"] = {
            f"{i},{j}": v for (i, j), v in sorted(stray.items())
        }
    if non_integer:
        status = "suspect"
        diagnostics["non_integer_indices"] = non_integer
        diagnostics["note"] = "fit region too shallow"
    values = {
        "e": tuple(int(v) if Fraction(v).denominator == 1 else v for v in es),
        "extended": extended,
    }
    return MultiplicityReport(
        kind="mixed",
        status=status,
        values=values,
        ladder=(),
        diagnostics=diagnostics,
    )
