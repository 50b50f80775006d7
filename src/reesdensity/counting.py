"""Exact graded-piece length counting for term modules.

Every count comes from one recursion, ``k_polynomial``: the numerator N_I(t)
of the Hilbert series HS(A/I) = N_I(t) / (1-t)^d of a monomial ideal,
computed by Bigatti's pivot recursion.  One numerator per component ideal
yields every degree at once:

* graded lengths: the ideal has HS(I) = (1 - N_I(t)) / (1-t)^d, so
  l(I_t) = C(t+d-1, d-1) - sum_k N_I[k] C(t-k+d-1, d-1);
* cumulative lengths: summing over degrees <= t divides by one more (1-t),
  which is the same sum with d+1 in place of d;
* the saturation-quotient census ``quotient_census``: per basis component
  the census of msat/m is (N_I - N_J) / (1-t)^d.

A module's Rees powers and length data are reached through its
``LengthLadder``, the one cache layer, which also keeps the powers on disk
when given a directory; ``ladder_for`` hands the engine's public functions
the ladder they work on.

All counts are plain Python integers, so they never overflow; lengths grow
polynomially in n and would not fit fixed-width types.
"""

from __future__ import annotations

import json
import os
import threading
from math import comb
from pathlib import Path
from typing import Optional

from .backend import minimalize_exponents
from .core import (
    InputError,
    InternalInvariantError,
    NotSubmoduleError,
    TermModule,
    _require_same_ambient,
    is_submodule,
    module_from_payload,
    module_to_payload,
    product,
    saturate,
    unit_module,
)


def _canonical_gens(gens) -> tuple:
    return tuple(minimalize_exponents(gens))


def _count(gens: tuple, t: int, memo: Optional[dict], cumulative: bool = False) -> int:
    """Monomials of degree t (of all degrees <= t when ``cumulative``) in the
    ideal of the canonical generator tuple ``gens``."""
    if not gens or t < sum(gens[0]):
        # canonical order puts a minimal-degree generator first
        return 0
    r = len(gens[0]) - 1 + cumulative
    numerator = k_polynomial(gens, memo)[: t + 1]
    return comb(t + r, r) - sum(c * comb(t - k + r, r) for k, c in enumerate(numerator))


def count_ideal_degree(gens, t: int) -> int:
    """Number of monomials of degree t in the ideal generated by ``gens``."""
    return _count(_canonical_gens(gens), t, None)


def length_component(m: TermModule, degree: int, memo: Optional[dict] = None) -> int:
    """k-dimension of the graded piece M_degree (a monomial count).

    ``memo`` is passed on to ``k_polynomial``.
    """
    return sum(
        _count(gens, degree - m.ambient.basis_degree(basis), memo)
        for basis, gens in m.components
    )


def cumulative_length(m: TermModule, degree: int, memo: Optional[dict] = None) -> int:
    """Sum of length_component over all degrees <= ``degree``.

    This equals the graded-piece length at ``degree`` of the extension of M
    along a polynomial extension by one extra degree-one variable, without
    materializing that extension.  ``memo`` is passed on to ``k_polynomial``.
    """
    return sum(
        _count(gens, degree - m.ambient.basis_degree(basis), memo, cumulative=True)
        for basis, gens in m.components
    )


def _disjoint_supports(gens: tuple) -> bool:
    used = [False] * len(gens[0])
    for g in gens:
        for s, v in enumerate(g):
            if v:
                if used[s]:
                    return False
                used[s] = True
    return True


def _pivot(gens: tuple) -> tuple[int, int]:
    """Bigatti pivot x_s^e: the variable in the most generators, median exponent."""
    d = len(gens[0])
    counts = [sum(1 for g in gens if g[s]) for s in range(d)]
    s = counts.index(max(counts))
    exps = sorted(g[s] for g in gens if g[s])
    e = exps[len(exps) // 2]
    if any(g[s] == sum(g) <= e for g in gens):
        # x_s^e already lies in I, so I + (x_s^e) = I would not shrink the
        # problem; x_s itself is never in I because x_s divides two generators
        e = 1
    return s, e


def _poly_add_shifted(a: list, b: list, shift: int) -> list:
    """a(t) + t^shift * b(t) on coefficient lists."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for k, v in enumerate(b):
        out[k + shift] += v
    return out


def k_polynomial(gens, memo: Optional[dict] = None) -> list[int]:
    """Coefficients of N_I(t), where HS(A/I) = N_I(t) / (1-t)^d.

    Bigatti's pivot recursion N(I) = N(I + (p)) + t^{deg p} N(I : p) on a
    pure-power pivot p, down to generators with pairwise disjoint supports,
    where N = prod(1 - t^{deg g}).  Both branches are strictly larger ideals
    generated by divisors of lcm(I), so the recursion terminates.  ``memo``
    maps canonical generator tuples to finished numerators and may be shared
    across calls.
    """
    memo = {} if memo is None else memo
    # components of a TermModule are already canonical, so a hit skips the
    # minimalize pass
    if isinstance(gens, tuple) and gens in memo:
        return memo[gens]
    root = _canonical_gens(gens)
    stack = [root]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        if not key or _disjoint_supports(key):
            poly = [1]
            for g in key:
                poly = _poly_add_shifted(poly, [-c for c in poly], sum(g))
            memo[key] = poly
            stack.pop()
            continue
        s, e = _pivot(key)
        pure = (0,) * s + (e,) + (0,) * (len(key[0]) - s - 1)
        # pure is not in I, so dropping its multiples leaves a minimal set; the
        # sort key is the canonical order of minimalize_exponents, so memo
        # keys agree whichever way an ideal was reached
        plus = tuple(
            sorted([g for g in key if g[s] < e] + [pure], key=lambda g: (sum(g), g))
        )
        colon = _canonical_gens(
            g[:s] + (max(0, g[s] - e),) + g[s + 1 :] for g in key
        )
        n_plus, n_colon = memo.get(plus), memo.get(colon)
        if n_plus is not None and n_colon is not None:
            memo[key] = _poly_add_shifted(n_plus, n_colon, e)
            stack.pop()
        else:
            if n_plus is None:
                stack.append(plus)
            if n_colon is None:
                stack.append(colon)
    return memo[root]


def quotient_census(
    m: TermModule, msat: TermModule, memo: Optional[dict] = None
) -> dict[int, int]:
    """Exact census of msat/m for nested modules: ``{degree: length}``, ascending.

    Componentwise, with ideals I inside J on the same basis exponent,
    HS(J/I) = (N_I - N_J) / (1-t)^d, which is a polynomial exactly when J/I
    has finite length.  The division is done by d rounds of prefix sums; the
    coefficients, shifted by the basis degree, are the by-degree lengths;
    degrees of length 0 are left out, so a saturated ``m`` gives ``{}``.  A
    nonzero remainder means the quotient is not of finite length, which the
    callers rule out (``msat`` is a saturation of ``m``), so it raises
    ``InternalInvariantError``.  ``memo`` is passed on to ``k_polynomial``.
    """
    _require_same_ambient(m, msat)
    if m.level != msat.level:
        raise InputError("census requires equal levels")
    if not is_submodule(m, msat):
        raise NotSubmoduleError("census requires the first module inside the second")
    memo = {} if memo is None else memo
    d = m.ambient.ring.dim
    by_degree: dict[int, int] = {}
    for basis, sat_gens in msat.components:
        gens = m.component(basis)
        if gens == sat_gens:
            continue
        diff = _poly_add_shifted(
            k_polynomial(gens, memo), [-c for c in k_polynomial(sat_gens, memo)], 0
        )
        for _ in range(d):
            for k in range(1, len(diff)):
                diff[k] += diff[k - 1]
            if diff and diff.pop():
                raise InternalInvariantError(
                    f"census of basis component {basis!r} is not of finite length"
                )
        base = m.ambient.basis_degree(basis)
        for k, v in enumerate(diff):
            if v:
                by_degree[base + k] = by_degree.get(base + k, 0) + v
    return dict(sorted(by_degree.items()))


class LengthLadder:
    """Everything cached about the Rees powers M^n of one module.

    Holds the powers, their saturations and saturation-quotient censuses, and
    the K-polynomials of every component ideal it meets, so all graded and
    cumulative lengths and censuses come from one numerator per ideal.

    Given a ``directory`` (an empty path means none), each requested power
    is also stored there as ``{content_key}.{n}.json``, so warm runs skip
    the multiplications.  A file that does not parse, or holds a module
    that cannot be M^n (wrong level or ambient, zero for a nonzero M, a
    generator degree outside [n*d_min, n*d_max], or none at n*d_min), is a
    miss and is rewritten.  Insertions are idempotent and take one lock.
    """

    def __init__(self, module: TermModule, directory: "str | Path | None" = None):
        self.module = module
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise InputError(
                    f"cannot use cache directory {self.directory}: {exc}"
                ) from exc
        self._powers: dict[int, TermModule] = {0: unit_module(module.ambient), 1: module}
        self._sat: dict[int, TermModule] = {}
        self._census: dict[int, dict[int, int]] = {}
        self._kpoly: dict = {}
        self._lock = threading.Lock()

    def _path(self, n: int) -> Path:
        return self.directory / f"{self.module.content_key}.{n}.json"

    def _load(self, n: int) -> Optional[TermModule]:
        """The stored M^n, or None when the file is missing or is not M^n."""
        if self.directory is None:
            return None
        # a missing file raises FileNotFoundError, an OSError
        try:
            text = self._path(n).read_text(encoding="utf-8")
            mod = module_from_payload(json.loads(text))
        except (ValueError, KeyError, TypeError, OSError):
            return None
        m = self.module
        # the file name carries the key, so a module of another level or
        # ambient, or a zero module for a nonzero M, is a damaged file, never
        # M^n; so is one whose generator degrees leave [n*d_min, n*d_max] or
        # miss n*d_min, the degree of g^n for a generator g of least degree
        if (
            mod.level != n * m.level
            or mod.ambient != m.ambient
            or mod.is_zero != m.is_zero
        ):
            return None
        if not m.is_zero:
            # canonical order sorts each component by total degree, so its
            # first and last generators carry its extreme degrees
            basis_degree = mod.ambient.basis_degree
            low = min(basis_degree(b) + sum(gens[0]) for b, gens in mod.components)
            high = max(basis_degree(b) + sum(gens[-1]) for b, gens in mod.components)
            if low != n * m.min_degree or high > n * m.max_degree:
                return None
        return mod

    def _store(self, n: int, mod: TermModule) -> None:
        """Write M^n, replacing a file that failed to load."""
        if self.directory is None:
            return
        path = self._path(n)
        blob = json.dumps(
            module_to_payload(mod), sort_keys=True, separators=(",", ":")
        )
        # one temp name per process and thread, so concurrent writers never
        # share one; os.replace publishes the finished file atomically
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp.write_text(blob, encoding="utf-8")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _memo(self, store: dict, n: int, compute):
        val = store.get(n)
        if val is None:
            val = compute(n)
            with self._lock:
                val = store.setdefault(n, val)
        return val

    def power(self, n: int) -> TermModule:
        """M^n from memory, else from disk, else multiplied up from the
        largest power held below n; only M^n itself is written to disk."""
        if n < 0:
            raise InputError("power exponent must be nonnegative")
        return self._memo(self._powers, n, self._load_or_multiply)

    def _load_or_multiply(self, n: int) -> TermModule:
        cur = self._load(n)
        if cur is not None:
            return cur
        with self._lock:
            base = max(k for k in self._powers if k < n)
        cur = self._powers[base]
        for k in range(base + 1, n + 1):
            cur = product(cur, self.module)
            with self._lock:
                cur = self._powers.setdefault(k, cur)
        self._store(n, cur)
        return cur

    def sat_power(self, n: int) -> TermModule:
        return self._memo(self._sat, n, lambda n: saturate(self.power(n)))

    def length(self, n: int, degree: int) -> int:
        return length_component(self.power(n), degree, self._kpoly)

    def sat_length(self, n: int, degree: int) -> int:
        return length_component(self.sat_power(n), degree, self._kpoly)

    def cumulative(self, n: int, degree: int) -> int:
        return cumulative_length(self.power(n), degree, self._kpoly)

    def sat_quotient(self, n: int) -> dict[int, int]:
        """Census of sat(M^n)/M^n, ``{degree: length}``."""
        return self._memo(
            self._census,
            n,
            lambda n: quotient_census(self.power(n), self.sat_power(n), self._kpoly),
        )

    def sat_quotient_total(self, n: int) -> int:
        return sum(self.sat_quotient(n).values())


def ladder_for(m: TermModule, table: Optional[LengthLadder]) -> LengthLadder:
    """The ladder a public function of ``m`` works on: ``table``, or a fresh one.

    Passing ``table=`` shares powers, saturations and K-polynomials between
    calls, and with ``LengthLadder(m, dir)`` a disk cache.  A
    ladder of another module would answer for that module, so it raises
    ``InputError``.
    """
    if table is None:
        return LengthLadder(m)
    if table.module is not m and table.module != m:
        raise InputError("table= is a LengthLadder of another module")
    return table
