"""Deciding integral dependence of a term-module pair by exact invariants.

Given N inside M (same ambient free module, full rank), "reduction" means
M^{n0+1} = N * M^{n0} for some n0, which makes M integral over N.  The only
positive certificate accepted here is that equality, found by direct search.
Negative certificates come from exact disagreement of numerical invariants
that reductions must preserve: the epsilon multiplicity, the diagonal
multiplicities along m = c*n for c past both generator-degree bounds, and the
extended mixed-multiplicity vector.  When neither a certificate nor a
stabilized disagreement is available the verdict is "undetermined".

Each module's invariants are two: its epsilon multiplicity and one
cumulative bigraded fit at c.  The mixed row, every diagonal row and a
stand-in row, the epsilon of the degree-c truncations M_{>=c} reported next
to the criteria but never driving the verdict, are read off those two by the
readers of ``multiplicity``; no truncation is built.

Each module gets one ``LengthLadder``, which holds its Rees powers (on disk
too, given ``cache_dir``); the certificate search reads the ladder of M that
the criteria use, so both share one set of powers.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .core import (
    InputError,
    InternalInvariantError,
    NotSubmoduleError,
    TermModule,
    membership,
    product,
    require_int,
)
from .counting import MAX_LADDER_N, LengthLadder, ladder_for, normalize_ladder, require_samplable
from .multiplicity import (
    diagonal_from_fit,
    epsilon_multiplicity,
    fit_or_error,
    mixed_from_fit,
    require_slope,
    stand_in_epsilon,
)

DEFAULT_CHECK_LADDER: tuple[int, ...] = tuple(range(1, 17))


class CriterionEvidence(SimpleNamespace):
    """One criterion's invariants of N (``left``) and of M (``right``).

    Fields: ``name``, ``label``, ``left``, ``right``, ``usable`` (both
    known), ``match`` (None unless usable), ``stand_in`` (never drives the
    verdict) and ``detail``.
    """


class DependenceVerdict(SimpleNamespace):
    """Fields: ``verdict`` (reduction, not-reduction or undetermined), the
    ``certificate`` n0 with M^(n0+1) = N * M^n0 or None, the slope ``c``,
    ``n_max``, the ``criteria`` rows and ``diagnostics``."""


def validate_pair(sub: TermModule, sup: TermModule) -> int:
    """Check the pair is admissible and return d = max generator degree.

    Both modules must share one ambient free module and pass
    ``require_samplable`` (the invariants used here are only transparent for
    versally embedded full-rank submodules), and N must lie in M.
    """
    if sub.ambient != sup.ambient:
        raise InputError("pair must share one ambient graded free module")
    require_samplable(sub)
    require_samplable(sup)
    for exponents, basis in sub.generators():
        if not membership((exponents, basis), sup):
            raise NotSubmoduleError(
                f"generator {exponents} at basis {basis} "
                "of the candidate submodule is not in the larger module"
            )
    return max(sub.max_degree, sup.max_degree)


def require_search_bound(n_max) -> int:
    """``n_max`` if it may bound the certificate search, else ``InputError``."""
    if not 0 <= require_int(n_max, "n_max") < MAX_LADDER_N:
        raise InputError(
            f"certificate search bound n_max must lie in [0, MAX_LADDER_N = {MAX_LADDER_N}), "
            f"since the search builds M^(n_max+1); got {n_max}"
        )
    return n_max


def direct_reduction_search(
    sub: TermModule,
    sup: TermModule,
    n_max: int = 12,
    *,
    table: Optional[LengthLadder] = None,
) -> Optional[int]:
    """Least n0 <= n_max with M^{n0+1} = N * M^{n0}, or None.

    The powers of M come from ``table``, a ``LengthLadder`` of M (a fresh
    one by default), asked in ascending order while the search holds M^{n0}
    itself, so the ladder, which keeps only its newest power, multiplies
    once per step.  Once the equality holds it persists for all larger n0.
    """
    require_search_bound(n_max)
    table = ladder_for(sup, table)
    cur = table.power(0)
    for n0 in range(n_max + 1):
        nxt = table.power(n0 + 1)
        if nxt == product(sub, cur):
            return n0
        cur = nxt
    return None


def _evidence_row(
    name: str,
    label: str,
    left: "object",
    right: "object",
    *,
    stand_in: bool = False,
    detail: Optional[dict] = None,
) -> CriterionEvidence:
    usable = left is not None and right is not None
    return CriterionEvidence(
        name=name,
        label=label,
        left=left,
        right=right,
        usable=usable,
        match=(left == right) if usable else None,
        stand_in=stand_in,
        detail=detail or {},
    )


def check_dependence(
    sub: TermModule,
    sup: TermModule,
    *,
    c: Optional[int] = None,
    n_max: int = 12,
    ladder=None,
    cache_dir: "str | Path | None" = None,
    robustness_c: bool = False,
) -> DependenceVerdict:
    """Decide whether M is integral over N (equivalently, N is a reduction).

    "reduction" is returned only on a direct certificate; "not-reduction"
    only when some exactly-extracted invariant pair disagrees; otherwise
    "undetermined", listing which criteria failed to stabilize on the given
    ladder.  A certificate coexisting with a disagreeing invariant raises an
    internal invariant violation.  The stand-in row (epsilon of the degree-c
    truncations M_{>=c} over the base ring) is reported but never drives the
    verdict.  The rows other than epsilon are read off one cumulative
    ``fit_bigraded_polynomial`` per module, and are unusable when it does
    not converge.  robustness_c repeats the diagonal comparisons at c + 1;
    diagonal multiplicities are reduction invariants for every admissible
    slope, so the extra rows are full verdict inputs.  ``cache_dir``, a
    path, keeps the Rees powers of both modules on disk, as ``--cache-dir``
    does.
    """
    c = require_slope(validate_pair(sub, sup), c)
    ladder = normalize_ladder(ladder, DEFAULT_CHECK_LADDER)
    same = sub == sup
    slopes = (c, c + 1) if robustness_c else (c,)
    table_sup = LengthLadder(sup, cache_dir)
    certificate = direct_reduction_search(sub, sup, n_max, table=table_sup)

    def invariants(m: TermModule, table: LengthLadder) -> dict:
        eps = epsilon_multiplicity(m, ladder, table=table, cross_check=False)
        fit = fit_or_error(m, c, table)
        return {
            "epsilon": eps,
            "diagonal": [diagonal_from_fit(fit, slope) for slope in slopes],
            "mixed": mixed_from_fit(fit, m.ambient.ring.dim, True),
            "truncation": stand_in_epsilon(eps.values["exact"], fit),
        }

    inv_sup = invariants(sup, table_sup)
    inv_sub = inv_sup if same else invariants(sub, LengthLadder(sub, cache_dir))
    eps_sub, eps_sup = inv_sub["epsilon"], inv_sup["epsilon"]
    criteria = [
        _evidence_row(
            "epsilon",
            "epsilon multiplicity",
            eps_sub.values["exact"],
            eps_sup.values["exact"],
            detail={
                "estimate_sub": eps_sub.values["estimate"],
                "estimate_sup": eps_sup.values["estimate"],
            },
        )
    ]

    def diagonal_key(v):
        return (v["dimension"], v["multiplicity"]) if v else None

    for slope, diag_sub, diag_sup in zip(slopes, inv_sub["diagonal"], inv_sup["diagonal"]):
        suffix = "" if slope == c else "+1"
        for version, label in (("a_version", "diagonal (base ring)"),
                               ("s_version", "diagonal (extension)")):
            criteria.append(
                _evidence_row(
                    f"diagonal-{version[0]}{suffix}",
                    label if slope == c else f"{label} at c+1",
                    diagonal_key(diag_sub.values[version]),
                    diagonal_key(diag_sup.values[version]),
                    detail={"c": slope},
                )
            )

    mixed_sub, mixed_sup = inv_sub["mixed"], inv_sup["mixed"]
    criteria.append(
        _evidence_row(
            "mixed-extended",
            "extended mixed multiplicities",
            mixed_sub.values["e"] if mixed_sub.status == "ok" else None,
            mixed_sup.values["e"] if mixed_sup.status == "ok" else None,
            detail={"status_sub": mixed_sub.status, "status_sup": mixed_sup.status},
        )
    )
    criteria.append(
        _evidence_row(
            "epsilon-truncation",
            f"epsilon of degree-{c} truncations [stand-in]",
            inv_sub["truncation"],
            inv_sup["truncation"],
            stand_in=True,
        )
    )

    mismatches = [
        cr.name for cr in criteria if not cr.stand_in and cr.usable and cr.match is False
    ]
    if certificate is not None and mismatches:
        raise InternalInvariantError(
            f"reduction certificate n0={certificate} contradicts exact "
            f"invariant mismatch on: {', '.join(mismatches)}"
        )
    if certificate is not None:
        verdict = "reduction"
    elif mismatches:
        verdict = "not-reduction"
    else:
        verdict = "undetermined"
    unusable = [cr.name for cr in criteria if not cr.usable]
    return DependenceVerdict(
        verdict=verdict,
        certificate=certificate,
        c=c,
        n_max=n_max,
        criteria=tuple(criteria),
        diagnostics={
            "same_module": same,
            "ladder": ladder,
            "mismatches": mismatches,
            "unusable": unusable,
        },
    )
