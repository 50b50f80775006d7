"""Exact graded-piece length counting for term modules.

Every count comes from one recursion, ``k_polynomial``: the numerator N_I(t)
of the Hilbert series HS(A/I) = N_I(t) / (1-t)^d of a monomial ideal, by
slicing on a variable z: A/I is the sum over c of z^c k[x']/I_c, where I_c
is the ideal, in the other variables, of the generators with z-exponent at
most c (``_sliced``).  One rule closes every node (``_numerator``): the
variables no generator uses are dropped, a node in at most two used
variables is a staircase (closed form), and any other is sliced on a used
variable with the fewest distinct exponents into nodes in one used
variable fewer.  One numerator per module yields every degree at once, by
running prefix sums (``_LengthRow``): an ideal has
HS(I) = (1 - N_I(t)) / (1-t)^d, so a sum of shifted ideals I_i(-b_i) has
the shifted sum of those series, and one more division by (1-t) sums over
degrees, so sum_i t^(b_i) (1 - N_(I_i)) / (1-t)^(d+1) is the row of
cumulative lengths, and a graded length is the difference of two
neighbours.

A module's Rees powers and length data are reached through its
``LengthLadder``, the one cache layer: it keeps one row per power M^n and
per saturation sat(M^n) asked, built once and ending at its numerator's
degree, so a length query is a list lookup or, past the table, a Hilbert
polynomial; the length of sat(M^n)/M^n is read from the same two rows.  Of
the powers themselves it keeps M^0, M^1 and the newest one only, since the
rows hold integers and no generators.  It keeps the powers on disk when
given a directory; ``power`` reads one from a fresh ladder.  It intersects
the n-th powers of the colon modules M : x_i^inf, each on a ladder of its
own, into sat(M^n) without building M^n; ``saturate`` reads sat(M) from a
fresh ladder.

The engine's public functions share the ladder plumbing here:
``ladder_for`` hands each the ladder it works on, ``require_samplable``
checks that the engine can work on a module, and ``normalize_ladder`` is
the one rule for the n ladder it samples on.

All counts are plain Python integers, so they never overflow; lengths grow
polynomially in n and would not fit fixed-width types.
"""

from __future__ import annotations

import json
import os
import threading
from functools import cached_property
from itertools import accumulate, zip_longest
from math import comb
from pathlib import Path
from typing import Optional

from .backend import intersect_exponents, minimal_staircase, minimalize_exponents
from .core import (
    InputError,
    InternalInvariantError,
    RankMismatchError,
    TermModule,
    module_to_payload,
    next_power,
    payload_crc,
    require_int,
    unit_module,
)


# no power M^n above this is built: memory grows with n, so a --nmax or
# --ladder entry above it is refused, and a ray or cone fit stops before sampling past it
MAX_LADDER_N = 1000


def _canonical_gens(gens) -> tuple:
    return tuple(minimalize_exponents(gens))


class _LengthRow:
    """The lengths of one module sum_i I_i(-b_i): a power or a saturation.

    Its Hilbert series is the shifted sum sum_i t^(b_i) (1 - N_(I_i)) /
    (1-t)^d, and one more division by (1-t) sums over degrees, so the
    coefficients of P / (1-t)^(d+1), with P = sum_i t^(b_i) (1 - N_(I_i)),
    are the cumulative lengths; a graded length is the difference of two.
    P is held from ``low`` = min b_i on, below which the module is empty,
    and d+1 rounds of prefix sums build the table up to index
    max(deg P - low, d) once, in the constructor.  For t >= deg P - d the
    count sum_k p_k C(t-k+d, d) is a polynomial of degree <= d in t, as
    C(m, d) vanishes at m = 0..d-1: past the table, the Newton form on its
    last d+1 entries gives it exactly.  A row holds integers only.
    """

    __slots__ = ("low", "_coeffs", "_newton")

    def __init__(self, parts: list, d: int):
        """``parts``: (b_i, N_(I_i)) per component, none for the zero module."""
        self.low = min((b for b, _ in parts), default=0)
        coeffs = [0] * (d + 1)
        for b, numerator in parts:
            k = b - self.low
            coeffs += [0] * (k + len(numerator) - len(coeffs))
            coeffs[k] += 1
            for j, c in enumerate(numerator, k):
                coeffs[j] -= c
        for _ in range(d + 1):
            coeffs = list(accumulate(coeffs))
        newton = coeffs[-(d + 1) :]
        for i in range(d):
            newton[i + 1 :] = [b - a for a, b in zip(newton[i:], newton[i + 1 :])]
        self._coeffs, self._newton = coeffs, newton

    def cumulative(self, t: int) -> int:
        """Monomials of degree <= t in the module."""
        k = t - self.low
        if k < 0:
            return 0
        if k < len(self._coeffs):
            return self._coeffs[k]
        s = k - len(self._coeffs) + len(self._newton)
        return sum(delta * comb(s, i) for i, delta in enumerate(self._newton))

    def graded(self, t: int) -> int:
        """Monomials of degree t in the module."""
        return self.cumulative(t) - self.cumulative(t - 1)

    @property
    def top(self) -> int:
        """The last degree in the table; past it the row is a polynomial."""
        return self.low + len(self._coeffs) - 1


def count_ideal_degree(gens, t: int) -> int:
    """Number of monomials of degree t in the ideal generated by ``gens``."""
    gens = _canonical_gens(gens)
    return _LengthRow([(0, _numerator(gens, {}))], len(gens[0])).graded(t) if gens else 0


def length_component(m: TermModule, degree: int) -> int:
    """k-dimension of the graded piece M_degree (a monomial count)."""
    return LengthLadder(m).length(1, degree)


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
        poly += [0] * (c + max(len(cur), len(prev)) - len(poly))
        for k, (a, b) in enumerate(zip_longest(cur, prev, fillvalue=0), c):
            poly[k] += a - b
        prev = cur
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _staircase_level(points: list) -> tuple:
    stair = minimal_staircase(points)
    return stair, _staircase_numerator(stair)


def _staircase_numerator(points: list) -> list:
    """N of a two-variable ideal, from its minimal generators sorted by first exponent.

    Sorted so that a_1 < ... < a_m (hence b_1 > ... > b_m), the generators
    x^a_i y^b_i form a staircase whose inner corners are the lcms of
    neighbours, so N = 1 - sum_i t^(a_i+b_i) + sum_(i<m) t^(a_(i+1)+b_i).
    """
    corners = [a + b for (_, b), (a, _) in zip(points, points[1:])]
    poly = [1] + [0] * max(corners, default=sum(points[0]))
    for a, b in points:
        poly[a + b] -= 1
    for k in corners:
        poly[k] += 1
    return poly


def k_polynomial(gens, memo: Optional[dict] = None) -> list[int]:
    """Coefficients of N_I(t), where HS(A/I) = N_I(t) / (1-t)^d.

    One rule closes every node (``_numerator``): a staircase in at most two
    used variables by its formula, any other node by slicing (``_sliced``)
    on a used variable into nodes in one used variable fewer, so the depth
    is below the number of variables used.  The list has no trailing zeros,
    except that the unit ideal gives [0].  ``memo`` maps the canonical
    generator tuple of every node to its numerator and may be shared across
    calls.
    """
    return _node(gens, {} if memo is None else memo)[1]


def _node(points, memo: dict) -> tuple:
    """The canonical generators of the ideal of ``points`` and its N,
    memoized in ``memo`` by those generators."""
    key = _canonical_gens(points)
    if key not in memo:
        memo[key] = _numerator(key, memo)
    return key, memo[key]


def _numerator(key: tuple, memo: dict) -> list[int]:
    """N of the ideal with canonical generators ``key``; its inner slicing
    nodes are memoized in ``memo``, ``key`` itself is not.

    No generators give [1].  The variables no generator uses leave N
    unchanged and are dropped.  In at most two used variables the node is a
    staircase, closed by its formula.  Otherwise it is sliced on a used
    variable with the fewest distinct exponents, each level restricted to
    the other used variables: a staircase when two remain, a memoized node
    when more do.
    """
    if not key:
        return [1]
    used = [s for s in range(len(key[0])) if any(g[s] for g in key)]
    gens = key if len(used) == len(key[0]) else [tuple(g[s] for s in used) for g in key]
    if len(used) <= 2:
        # below two used variables, key is one generator or the unit ideal
        return _staircase_numerator(sorted(gens) if len(used) == 2 else [(sum(key[0]), 0)])
    s = min(range(len(used)), key=lambda s: len({g[s] for g in gens}))
    levels: dict[int, list] = {}
    for g in gens:
        levels.setdefault(g[s], []).append(g[:s] + g[s + 1 :])
    return _sliced(levels, _staircase_level if len(used) == 3 else lambda p: _node(p, memo))


class LengthLadder:
    """Everything cached about the Rees powers M^n of one module.

    Holds M^0, M^1 and the newest power it built, the same three
    saturations, an in-memory ladder per colon module M : x_i^inf (each
    holding its powers by the same rule), the K-polynomials of the inner
    slicing nodes it meets, and per power or saturation asked one row of
    cumulative lengths, built from the summed numerator of its components
    and ending at its degree.  So all graded and cumulative lengths, and the
    lengths of the quotients sat(M^n)/M^n, are lookups in two rows per n,
    which hold integers only: once a row is built, nothing pins the
    generators of its power.

    Given a ``directory`` (an empty path means none; the first write makes
    it), each requested power is also stored there as
    ``{content_key}.{n}.json``, beside M's own payload and the CRC-32 of
    the power's own payload, so warm runs skip the multiplications and read
    the power as it was written, without minimalizing it again.  A file
    that does not parse, stores another module than M (the key may
    collide), fails its checksum or has none, or holds a power that cannot
    be M^n (wrong level or ambient, zero for a nonzero M, a generator degree
    outside [n*d_min, n*d_max], or none at n*d_min), is a miss and is
    rewritten.  Insertions are idempotent and take one lock.
    """

    def __init__(self, module: TermModule, directory: "str | Path | None" = None):
        self.module = module
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self._payload = module_to_payload(module)
        self._powers: dict[int, TermModule] = {0: unit_module(module.ambient), 1: module}
        self._sat: dict[int, TermModule] = {}
        self._kpoly: dict = {}
        self._rows: dict[tuple[int, bool], _LengthRow] = {}
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
        except (ValueError, KeyError, TypeError, OSError, RecursionError):
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
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot use cache directory {self.directory}: {exc}") from exc
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

    def _memo(self, store: dict, key, compute, newest_only: bool = False):
        """store[key], computed and published under the lock when missing;
        ``newest_only`` then drops every entry but 0, 1 and key."""
        val = store.get(key)
        if val is None:
            val = compute(key)
            with self._lock:
                val = store.setdefault(key, val)
                if newest_only:
                    for k in [k for k in store if k not in (0, 1, key)]:
                        del store[k]
        return val

    def power(self, n: int) -> TermModule:
        """M^n from memory, else from disk, else multiplied up from the
        largest power held below n; only M^n itself is written to disk.
        The ladder holds M^0, M^1 and the newest power, so a caller that
        walks n upward multiplies once per step."""
        if require_int(n, "the power exponent") < 0:
            raise InputError("power exponent must be nonnegative")
        return self._memo(self._powers, n, self._load_or_multiply, newest_only=True)

    def _load_or_multiply(self, n: int) -> TermModule:
        cur = self._load(n)
        if cur is not None:
            return cur
        with self._lock:
            base = max(k for k in self._powers if k < n)
            cur = self._powers[base]
        for _ in range(base, n):
            cur = next_power(cur, self.module)
        self._store(n, cur)
        return cur

    @cached_property
    def _colons(self) -> list:
        """A ladder of M : x_i^inf per variable: its n-th power is M^n : x_i^inf."""
        m = self.module
        return [
            LengthLadder(TermModule(m.ambient, m.level, tuple(
                (basis, [g[:i] + (0,) + g[i + 1 :] for g in gens]) for basis, gens in m.components
            )))
            for i in range(m.ambient.ring.dim)
        ]

    def sat_power(self, n: int) -> TermModule:
        return self._memo(self._sat, n, self._saturate, newest_only=True)

    def _saturate(self, n: int) -> TermModule:
        """sat(M^n) = (M^n :_F m^inf), the intersection of the (M : x_i^inf)^n,
        whose components sit on M^n's basis exponents in the same order.  A
        colon component is the unit ideal where M^n has a pure power of x_i; it
        is skipped, and with none left the component is A (the last colon's)."""
        colons = [ladder.power(n) for ladder in self._colons]
        comps = []
        for parts in zip(*(colon.components for colon in colons)):
            sat = None
            for _, gens in parts:
                if sum(gens[0]):
                    sat = gens if sat is None else tuple(intersect_exponents(sat, gens))
            comps.append((parts[0][0], sat or gens))
        return TermModule._from_canonical(colons[0].ambient, colons[0].level, tuple(comps))

    def _row(self, n: int, sat: bool) -> _LengthRow:
        """The length row of M^n, or of sat(M^n), built once."""

        def build(_key) -> _LengthRow:
            mod = self.sat_power(n) if sat else self.power(n)
            basis_degree = mod.ambient.basis_degree
            parts = [(basis_degree(b), _numerator(gens, self._kpoly)) for b, gens in mod.components]
            return _LengthRow(parts, mod.ambient.ring.dim)

        return self._memo(self._rows, (n, sat), build)

    def length(self, n: int, degree: int) -> int:
        return self._row(n, False).graded(require_int(degree, "the degree"))

    def sat_length(self, n: int, degree: int) -> int:
        return self._row(n, True).graded(require_int(degree, "the degree"))

    def cumulative(self, n: int, degree: int) -> int:
        return self._row(n, False).cumulative(require_int(degree, "the degree"))

    def sat_quotient_total(self, n: int) -> int:
        """Length of sat(M^n)/M^n, from the rows of M^n and of its saturation.

        With component ideals I_i inside J_i, HS(sat(M^n)/M^n) =
        sum_i t^(b_i) (N_(I_i) - N_(J_i)) / (1-t)^d, whose coefficients are
        the differences of the two rows' graded lengths.  Each component's
        quotient has nonnegative lengths, so the sum has finite length
        exactly when every component's quotient has, and then it is a
        polynomial.  Past top - d, with top the last degree of the two rows'
        tables (at least the degree of either summed numerator), the
        differences follow a polynomial of degree < d, so d zeros ending at
        top mean zero for good, and the total is the difference of the rows'
        cumulative lengths at top.  Anything else means an infinite
        quotient, which a true saturation rules out, so it raises
        ``InternalInvariantError``.
        """
        row, sat = self._row(n, False), self._row(n, True)
        top = max(row.top, sat.top)
        d = self.module.ambient.ring.dim
        if any(sat.graded(k) != row.graded(k) for k in range(top - d + 1, top + 1)):
            raise InternalInvariantError(f"census of sat(M^{n})/M^{n} is not of finite length")
        return sat.cumulative(top) - row.cumulative(top)


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


def power(m: TermModule, n: int) -> TermModule:
    """n-th Rees power M^n (image of Sym^n M in Sym^n F), from a fresh ladder."""
    return LengthLadder(m).power(n)


def saturate(m: TermModule) -> TermModule:
    """Saturation (M :_F m^inf) = intersection of the M : x_i^inf, from a fresh ladder."""
    return LengthLadder(m).sat_power(1)


def require_samplable(m: TermModule) -> None:
    """The one admissibility check: level 1, nonzero, and of full rank
    (else ``RankMismatchError``)."""
    if m.level != 1:
        raise InputError(f"the engine works on level-1 modules, got level {m.level}")
    if m.is_zero:
        raise InputError("the engine needs a nonzero module")
    if m.rank != m.ambient.rank:
        raise RankMismatchError(
            f"module rank {m.rank} != ambient rank {m.ambient.rank}; "
            "the engine requires full rank"
        )


def normalize_ladder(ladder, default: tuple[int, ...]) -> tuple[int, ...]:
    """The n ladder, or ``default`` when None, by the one ladder rule: integer
    entries, positive, strictly increasing and at most ``MAX_LADDER_N``, so
    no ladder the engine samples on reaches a power above the bound."""
    if ladder is None:
        return default
    ladder = tuple(require_int(n, "a ladder entry") for n in ladder)
    if not ladder or ladder[0] < 1 or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise InputError("a ladder must be nonempty, positive and strictly increasing")
    if ladder[-1] > MAX_LADDER_N:
        raise InputError(
            f"ladder entries must be at most MAX_LADDER_N = {MAX_LADDER_N}, got {ladder[-1]}"
        )
    return ladder
