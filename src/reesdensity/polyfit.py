"""Exact rational polynomial utilities: finite differences, limits of
sampled sequences, and exact fits by Gaussian elimination over Fraction.

Every limit the engine reads off an n ladder comes from here: the exact one
from a stabilized difference table at the period the sequence has
(``stabilized_difference``), the finite-n estimate from the top rung and
its n_max/2 reference rung (``extrapolate``, ``reference_entry``).

Univariate polynomials are coefficient tuples in ascending order; bivariate
polynomials are {(i, j): coefficient} maps for X^i * Y^j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

Poly = tuple[Fraction, ...]
Poly2 = dict[tuple[int, int], Fraction]

# trailing zero differences per residue class that certify stabilization
STABLE_WINDOW = 3
# quasi-periods tried in turn by the epsilon ladder only; a density ray reads at L(M)
MAX_PERIOD = 12


# -- univariate ------------------------------------------------------------


def poly_trim(coeffs: Sequence[Fraction]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_degree(p: Sequence[Fraction]) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_eval(p: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


# -- finite differences ----------------------------------------------------


def difference_rows(values: Sequence, max_order: int, period: int = 1) -> list[list]:
    """The difference table of ``values`` at lag ``period``."""
    rows = [list(map(Fraction, values))]
    for _ in range(max_order):
        prev = rows[-1]
        if len(prev) <= period:
            break
        rows.append([b - a for a, b in zip(prev, prev[period:])])
    return rows


def stabilized_difference(
    ns: Sequence[int], values: Sequence, max_order: int, period: int = 1
) -> Optional[dict]:
    """Read eventual quasi-polynomial growth of period ``period`` off
    samples ``values`` at an arithmetic progression ``ns``.

    Differences are taken at lag ``period``, each residue class on its own.
    Takes the least degree whose next row ends in ``STABLE_WINDOW * period``
    zeros (every class checked ``STABLE_WINDOW`` times) and whose own last
    ``period`` entries agree (one leading value for every class); returns
    the extraction record: that ``degree``, the last
    ``stabilized_difference`` of that order, the ``step`` (``period`` times
    the sample step), the ``normalized`` value (the difference over
    step^degree, which is degree! times the leading coefficient), and
    ``onset_n``, the first n from which the next row stays zero.  None when
    no order up to ``max_order`` stabilizes.
    """
    rows = difference_rows(values, max_order + 1, period)
    window = STABLE_WINDOW * period
    for order, nxt in enumerate(rows[1:]):
        if len(nxt) < window or any(nxt[-window:]) or len(set(rows[order][-period:])) > 1:
            continue
        onset = len(nxt)
        while onset > 0 and nxt[onset - 1] == 0:
            onset -= 1
        step = period * (ns[1] - ns[0])
        lead = rows[order][-1]
        return {
            "degree": order,
            "normalized": lead / step**order,
            "step": step,
            "onset_n": ns[onset],
            "stabilized_difference": lead,
        }
    return None


def reference_entry(ladder: tuple[int, ...]) -> Optional[int]:
    """Ladder entry used for the n_max/2 diagnostic: largest entry <= n_max/2."""
    n_max = ladder[-1]
    below = [n for n in ladder if n <= n_max // 2]
    if below:
        return below[-1]
    return ladder[0] if len(ladder) > 1 else None


def extrapolate(
    value: Callable[[int], Fraction], ladder: tuple[int, ...], richardson: bool
) -> tuple[Fraction, Optional[Fraction]]:
    """Limit estimate of ``value(n)`` on the ladder and its reference gap.

    The estimate is the value at the top rung, or with ``richardson`` the
    two-point Richardson extrapolation in 1/n from the top and reference
    rungs; the gap is |value(top) - value(reference)|, None without a
    reference rung (and then the estimate is the top value).
    """
    n_max = ladder[-1]
    top = value(n_max)
    ref = reference_entry(ladder)
    if ref is None:
        return top, None
    low = value(ref)
    if richardson:
        return Fraction(n_max * top - ref * low, n_max - ref), abs(top - low)
    return top, abs(top - low)


# -- linear algebra over Fraction -------------------------------------------


def solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination with exact arithmetic; raises on singular systems."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular interpolation system")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


# -- bivariate -------------------------------------------------------------


def poly2_eval(p: Poly2, x, y) -> Fraction:
    return sum(
        (c * Fraction(x) ** i * Fraction(y) ** j for (i, j), c in p.items()),
        Fraction(0),
    )


def fit_poly2_triangular(samples: list[tuple[int, int, int]], total_degree: int) -> Poly2:
    """Interpolate a bivariate polynomial of bounded total degree exactly.

    ``samples`` are (u, v, value) triples; the caller supplies exactly one
    sample per monomial u^i v^j with i + j <= total_degree, laid out on a
    triangular grid with distinct u-abscissae and v-ordinates, or on an
    affine image of one (both are unisolvent for that degree).
    """
    keys = [
        (i, j)
        for i in range(total_degree + 1)
        for j in range(total_degree + 1 - i)
    ]
    if len(samples) != len(keys):
        raise ValueError(
            f"need {len(keys)} samples for total degree {total_degree}, got {len(samples)}"
        )
    matrix = [
        [Fraction(u) ** i * Fraction(v) ** j for (i, j) in keys]
        for (u, v, _) in samples
    ]
    rhs = [Fraction(val) for (_, _, val) in samples]
    coeffs = solve_exact(matrix, rhs)
    return {k: c for k, c in zip(keys, coeffs) if c != 0}
