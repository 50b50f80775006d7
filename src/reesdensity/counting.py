"""Exact graded-piece length counting for term modules.

Every count comes from one recursion, ``k_polynomial``: the numerator N_I(t)
of the Hilbert series HS(A/I) = N_I(t) / (1-t)^d of a monomial ideal, by
slicing on a variable z: A/I is the sum over c of z^c k[x']/I_c, where I_c
is the ideal, in the other variables, of the generators with z-exponent at
most c (``_sliced``).  Its leaves (``_leaf``) are ideals whose generators
use at most three variables: a staircase in two (closed form), one
staircase per level of the third in three.  Any other ideal is sliced on a
variable it uses with the fewest distinct exponents into ideals in one
variable fewer.  One numerator per component ideal yields every degree at
once, by running prefix sums (``_LengthRow``): the ideal has
HS(I) = (1 - N_I(t)) / (1-t)^d, and one more division by (1-t) sums over
degrees, so (1 - N_I) / (1-t)^(d+1) is the row of cumulative lengths, and a
graded length is the difference of two neighbours.

A module's Rees powers and length data are reached through its
``LengthLadder``, the one cache layer: it keeps each component's row, for
M^n and for sat(M^n), built once and ending at the numerator's degree, so a
length query is a list lookup or, past the table, a Hilbert polynomial; the
length of sat(M^n)/M^n is read from the same rows.  It keeps the powers on
disk when given a directory; ``ladder_for`` hands the engine's public
functions the ladder they work on.

All counts are plain Python integers, so they never overflow; lengths grow
polynomially in n and would not fit fixed-width types.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import accumulate
from math import comb
from pathlib import Path
from typing import Optional

from .backend import minimal_staircase, minimalize_exponents
from .core import (
    InputError,
    InternalInvariantError,
    TermModule,
    module_to_payload,
    next_power,
    payload_crc,
    saturate,
    unit_module,
)


def _canonical_gens(gens) -> tuple:
    return tuple(minimalize_exponents(gens))


class _LengthRow:
    """The lengths of one monomial ideal I, from its canonical generators.

    The coefficients of (1 - N_I) / (1-t)^(d+1) are the cumulative lengths
    (HS(I) = (1 - N_I) / (1-t)^d, and 1/(1-t) sums over degrees); a graded
    length is the difference of two.  The row starts at the least generator
    degree ``low``, below which I is empty and no numerator is computed.  The
    first query at or above it builds, by d+1 rounds of prefix sums, the
    table up to index max(deg N_I - low, d), published as one attribute, so
    threads that race build equal tables.  For t >= deg N_I - d the count
    sum_k c_k C(t-k+d, d) is a polynomial of degree <= d in t, as C(m, d)
    vanishes at m = 0..d-1: past the table, the Newton form on its last d+1
    entries gives it exactly.
    """

    __slots__ = ("gens", "low", "_memo", "_table")

    def __init__(self, gens: tuple, memo: dict):
        self.gens = gens
        # canonical order puts a minimal-degree generator first
        self.low = sum(gens[0])
        self._memo = memo
        self._table: Optional[tuple[list, list]] = None

    def cumulative(self, t: int) -> int:
        """Monomials of degree <= t in I."""
        k = t - self.low
        if k < 0:
            return 0
        coeffs, newton = self._table or self._build()
        if k < len(coeffs):
            return coeffs[k]
        s = k - len(coeffs) + len(newton)
        return sum(delta * comb(s, i) for i, delta in enumerate(newton))

    def graded(self, t: int) -> int:
        """Monomials of degree t in I."""
        return self.cumulative(t) - self.cumulative(t - 1)

    @property
    def top(self) -> int:
        """The last degree in the table; past it the row is a polynomial."""
        return self.low + len((self._table or self._build())[0]) - 1

    def _build(self) -> tuple[list, list]:
        """(cumulative lengths from ``low`` on, forward differences of the last d+1)."""
        d = len(self.gens[0])
        # 1 - N_I from degree low on, padded to at least d+1 entries
        coeffs = [int(k == 0) - c for k, c in enumerate(_numerator(self.gens, self._memo))]
        coeffs = coeffs[self.low :] + [0] * (d + 1 + self.low - len(coeffs))
        for _ in range(d + 1):
            coeffs = list(accumulate(coeffs))
        newton = coeffs[-(d + 1) :]
        for i in range(d):
            newton[i + 1 :] = [b - a for a, b in zip(newton[i:], newton[i + 1 :])]
        self._table = (coeffs, newton)
        return self._table


def count_ideal_degree(gens, t: int) -> int:
    """Number of monomials of degree t in the ideal generated by ``gens``."""
    gens = _canonical_gens(gens)
    return _LengthRow(gens, {}).graded(t) if gens else 0


def length_component(m: TermModule, degree: int) -> int:
    """k-dimension of the graded piece M_degree (a monomial count)."""
    return LengthLadder(m).length(1, degree)


def _leaf(key: tuple) -> Optional[list]:
    """N for a node whose generators use at most three variables, else None.

    In a ring of two variables x and y the minimal generators x^a_i y^b_i
    sorted so that a_1 < ... < a_m (hence b_1 > ... > b_m) form a staircase,
    whose inner corners are the lcms of neighbours, so
    N = 1 - sum_i t^(a_i+b_i) + sum_(i<m) t^(a_(i+1)+b_i).  In more
    variables one scan finds the variables the generators use (the others
    leave N unchanged); at most three of them, padded to three, are sliced
    on the third (``_slice_numerator``).
    """
    if len(key[0]) == 2:
        return _staircase_numerator(sorted(key))
    if len(key[0]) == 3:
        return _slice_numerator(key)
    used: list[int] = []
    for g in key:
        for s, v in enumerate(g):
            if v and s not in used:
                used.append(s)
        if len(used) > 3:
            return None
    pad = (0,) * (3 - len(used))
    return _slice_numerator([tuple(g[s] for s in used) + pad for g in key])


def _sliced(levels: dict, below) -> list:
    """N of an ideal I sliced on a variable z, from ``levels``: z-exponent ->
    the generators on that level, with z dropped.

    x^a z^c lies in I iff x^a lies in I_c, the ideal in the other variables
    of the generators with z-exponent <= c, so A/I is the sum over c of
    z^c k[x']/I_c and N_I = (1-t) sum_c t^c N(I_c).  I_c only changes at
    the distinct levels c_0 < ... < c_k and is 0 below c_0, which gives
    N_I = 1 + sum_j t^(c_j) (N(I_(c_j)) - N(I_(c_(j-1)))) with
    N(I_(c_(-1))) = 1.  ``below`` maps the generators of I_(c_(j-1)) joined
    with level c_j's to the minimal generators of I_(c_j) and its N.
    """
    poly, prev, gens = [1], [1], []
    for c in sorted(levels):
        gens, cur = below([*gens, *levels[c]])
        poly = _poly_add_shifted(_poly_add_shifted(poly, cur, c), [-v for v in prev], c)
        prev = cur
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _slice_numerator(points) -> list:
    """N of a three-variable ideal, from its generators' (a, b, c) exponents:
    sliced on c, each I_c is a staircase, grown level by level by one sweep."""
    levels: dict[int, list] = {}
    for a, b, c in points:
        levels.setdefault(c, []).append((a, b))
    return _sliced(levels, _staircase_level)


def _staircase_level(points: list) -> tuple:
    stair = minimal_staircase(points)
    return stair, _staircase_numerator(stair)


def _staircase_numerator(points: list) -> list:
    """N of a two-variable ideal, from its minimal generators sorted by first exponent."""
    top = max(
        (a + b for (_, b), (a, _) in zip(points, points[1:])), default=sum(points[0])
    )
    poly = [1] + [0] * top
    for a, b in points:
        poly[a + b] -= 1
    for (_, b), (a, _) in zip(points, points[1:]):
        poly[a + b] += 1
    return poly


def _poly_add_shifted(a: list, b: list, shift: int) -> list:
    """a(t) + t^shift * b(t) on coefficient lists."""
    out = a + [0] * max(0, shift + len(b) - len(a))
    for k, v in enumerate(b):
        out[k + shift] += v
    return out


def k_polynomial(gens, memo: Optional[dict] = None) -> list[int]:
    """Coefficients of N_I(t), where HS(A/I) = N_I(t) / (1-t)^d.

    One recursion for every d: a node whose generators use at most three
    variables is a leaf (``_leaf``); any other is sliced (``_sliced``) on a
    variable it uses with the fewest distinct exponents, into nodes I_c in
    one variable fewer, so the depth is below the number of variables used.
    The list has no trailing zeros, except that the unit ideal gives [0].
    ``memo`` maps the canonical generator tuple of every node to its
    numerator and may be shared across calls.
    """
    return _numerator(_canonical_gens(gens), {} if memo is None else memo)


def _node(points, memo: dict) -> tuple:
    """The canonical generators of the ideal of ``points`` and its N."""
    key = _canonical_gens(points)
    return key, _numerator(key, memo)


def _numerator(key: tuple, memo: dict) -> list[int]:
    """N of the ideal with canonical generators ``key``, memoized in ``memo``."""
    poly = memo.get(key)
    if poly is None:
        poly = _leaf(key) if key else [1]
        if poly is None:
            # an unused variable is never sliced: that would only drop it,
            # one node deeper
            used = [s for s in range(len(key[0])) if any(g[s] for g in key)]
            s = min(used, key=lambda s: len({g[s] for g in key}))
            levels: dict[int, list] = {}
            for g in key:
                levels.setdefault(g[s], []).append(g[:s] + g[s + 1 :])
            poly = _sliced(levels, lambda below: _node(below, memo))
        memo[key] = poly
    return poly


class LengthLadder:
    """Everything cached about the Rees powers M^n of one module.

    Holds the powers, their saturations, the K-polynomials of every
    component ideal it meets, and per component of a power or saturation a
    row of cumulative lengths that ends at its numerator's degree.  So
    all graded and cumulative lengths, and the lengths of the quotients
    sat(M^n)/M^n, come from one numerator per ideal, read from its rows.

    Given a ``directory`` (an empty path means none), each requested power
    is also stored there as ``{content_key}.{n}.json``, beside M's own
    payload and the CRC-32 of the power's own payload, so warm runs skip the
    multiplications and read the power as it was written, without
    minimalizing it again.  A file that does not parse, stores another
    module than M (the key may collide), fails its checksum or has none, or
    holds a power that cannot be M^n (wrong level or ambient, zero for a
    nonzero M, a generator degree outside [n*d_min, n*d_max], or none at
    n*d_min), is a miss and is rewritten.  Insertions are idempotent and
    take one lock.
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
            self._payload = module_to_payload(module)
        self._powers: dict[int, TermModule] = {0: unit_module(module.ambient), 1: module}
        self._sat: dict[int, TermModule] = {}
        self._kpoly: dict = {}
        self._rows: dict[tuple[int, bool], list] = {}
        self._lock = threading.Lock()

    def _path(self, n: int) -> Path:
        return self.directory / f"{self.module.content_key}.{n}.json"

    def _load(self, n: int) -> Optional[TermModule]:
        """The stored M^n, or None when the file is missing or is not M^n."""
        if self.directory is None:
            return None
        # a missing file raises FileNotFoundError, an OSError
        try:
            data = json.loads(self._path(n).read_text(encoding="utf-8"))
            power = data["power"]
            if data["module"] != self._payload or data["checksum"] != payload_crc(power):
                return None
            level = power["level"]
            ambient = [power["variables"], power["shifts"]]
            comps = tuple(
                (tuple(c["basis_exponents"]), tuple(map(tuple, c["generators"])))
                for c in power["components"]
            )
        except (ValueError, KeyError, TypeError, OSError):
            return None
        m = self.module
        # the file stores M, so a power of another level or ambient, or a
        # zero power of a nonzero M, is a damaged file, never M^n; so is one
        # whose generator degrees leave [n*d_min, n*d_max] or miss n*d_min,
        # the degree of g^n for a generator g of least degree
        if (
            level != n * m.level
            or ambient != [self._payload["variables"], self._payload["shifts"]]
            or (not comps) != m.is_zero
        ):
            return None
        # the checksum matches what _store wrote, which was canonical
        mod = TermModule._from_canonical(m.ambient, level, comps)
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
        power = module_to_payload(mod)
        blob = json.dumps(
            {"module": self._payload, "power": power, "checksum": payload_crc(power)},
            sort_keys=True,
            separators=(",", ":"),
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
            cur = next_power(cur, self.module)
            with self._lock:
                cur = self._powers.setdefault(k, cur)
        self._store(n, cur)
        return cur

    def sat_power(self, n: int) -> TermModule:
        return self._memo(self._sat, n, lambda n: saturate(self.power(n)))

    def _component_rows(self, n: int, sat: bool) -> list:
        """(basis degree, length row) per component of M^n, or of its saturation."""
        return self._memo(self._rows, (n, sat), self._make_rows)

    def _make_rows(self, key: tuple[int, bool]) -> list:
        n, sat = key
        mod = self.sat_power(n) if sat else self.power(n)
        return [
            (mod.ambient.basis_degree(basis), _LengthRow(gens, self._kpoly))
            for basis, gens in mod.components
        ]

    def length(self, n: int, degree: int) -> int:
        return sum(row.graded(degree - base) for base, row in self._component_rows(n, False))

    def sat_length(self, n: int, degree: int) -> int:
        return sum(row.graded(degree - base) for base, row in self._component_rows(n, True))

    def cumulative(self, n: int, degree: int) -> int:
        return sum(
            row.cumulative(degree - base) for base, row in self._component_rows(n, False)
        )

    def sat_quotient_total(self, n: int) -> int:
        """Length of sat(M^n)/M^n, from the rows of M^n and of its saturation.

        Per basis component, with ideals I inside J, HS(J/I) =
        (N_I - N_J) / (1-t)^d, whose coefficients are the differences of the
        rows' graded lengths; it is a polynomial exactly when J/I has finite
        length.  Past top - d, with top the last degree of the two rows'
        tables (at least max(deg N_I, deg N_J)), they follow a polynomial of
        degree < d, so d zeros ending at top mean zero for good, and the
        component adds the difference of the rows' cumulative lengths at top.
        Anything else, or components on other basis exponents, means an
        infinite quotient, which a true saturation rules out, so it raises
        ``InternalInvariantError``.
        """
        bases = [basis for basis, _ in self.power(n).components]
        if bases != [basis for basis, _ in self.sat_power(n).components]:
            raise InternalInvariantError(
                f"sat(M^{n}) and M^{n} have components on different basis exponents"
            )
        d = self.module.ambient.ring.dim
        total = 0
        for basis, (_, row), (_, sat) in zip(
            bases, self._component_rows(n, False), self._component_rows(n, True)
        ):
            if row.gens == sat.gens:
                continue
            top = max(row.top, sat.top)
            if any(sat.graded(k) != row.graded(k) for k in range(top - d + 1, top + 1)):
                raise InternalInvariantError(
                    f"census of basis component {basis!r} is not of finite length"
                )
            total += sat.cumulative(top) - row.cumulative(top)
        return total


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
