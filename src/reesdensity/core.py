"""Graded term modules over polynomial rings and their Rees powers.

The objects here are submodules of symmetric powers of a shifted free module
F = A(f_1) + ... + A(f_e) over A = k[x_1..x_d], generated by *terms*: a
monomial times a symmetric basis monomial e^a with |a| = n.  A term is the
plain pair (exponents, basis_exponents) of exponent tuples; ``generators``
yields these pairs and ``membership`` and ``term_module`` take them.  Every
operation is exact integer combinatorics on exponent vectors; no Groebner
bases and no field arithmetic anywhere.

Degree conventions: ``shifts[i]`` is the degree of the basis vector e_i (it
may be negative), and the degree of x^alpha * e^a is |alpha| + sum(a_i *
shifts[i]).  At level n the basis exponents a run over the compositions of n
into e parts.
"""

from __future__ import annotations

import json
import zlib
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

from .backend import divides_any, minimalize_exponents, product_exponents


# rings with more variables are refused: the K-polynomial recursion slices one
# used variable per level, and about 330 levels reach Python's recursion limit
MAX_RING_VARIABLES = 256


class InputError(ValueError):
    """Invalid user-supplied data (schema, shapes, preconditions)."""


class RankMismatchError(InputError):
    """Module does not hit every basis component of its ambient free module."""


class NotSubmoduleError(InputError):
    """Pair handed to a containment-sensitive operation is not nested."""


class InternalInvariantError(RuntimeError):
    """Two routes to the same fact disagreed; indicates a bug, not bad input."""


class FitNotConvergedError(RuntimeError):
    """A fit or limit extraction could not be validated at the given ladder."""


def require_int(value, name: str) -> int:
    """``value`` if it is an int, never a bool; else ``InputError`` naming it.

    Nothing is rounded: 2.9, Fraction(5, 2) and True are refused, as
    ``io.parse_module`` refuses them in documents.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def require_rational(value, name: str) -> Fraction:
    """``value`` as a Fraction if it is an int or a Fraction, never a bool or
    a float (Fraction(1.7) is 1.6999...); else ``InputError`` naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise InputError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


class RingSpec:
    """Polynomial ring k[x_1..x_d] with the standard grading: 2 to
    ``MAX_RING_VARIABLES`` distinct nonempty variable names."""

    __slots__ = ("variables",)

    def __init__(self, variables: tuple[str, ...]) -> None:
        self.variables = tuple(variables)
        if not all(isinstance(v, str) and v for v in self.variables):
            raise InputError("ring variables must be nonempty strings")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("ring variables must be distinct")
        if len(self.variables) < 2:
            raise InputError("ring needs at least two variables")
        if len(self.variables) > MAX_RING_VARIABLES:
            raise InputError(f"ring has more than {MAX_RING_VARIABLES} variables")

    def __eq__(self, other):
        if type(other) is not RingSpec:
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"RingSpec({self.variables!r})"

    @property
    def dim(self) -> int:
        return len(self.variables)


class GradedFreeModule:
    """Free module with basis vectors e_i of degree shifts[i]."""

    __slots__ = ("ring", "shifts")

    def __init__(self, ring: RingSpec, shifts: tuple[int, ...]) -> None:
        self.ring = ring
        self.shifts = tuple(require_int(s, "a shift") for s in shifts)
        if not self.shifts:
            raise InputError("free module must have positive rank")

    def __eq__(self, other):
        if type(other) is not GradedFreeModule:
            return NotImplemented
        return (self.ring, self.shifts) == (other.ring, other.shifts)

    def __hash__(self) -> int:
        return hash((self.ring, self.shifts))

    def __repr__(self) -> str:
        return f"GradedFreeModule({self.ring!r}, {self.shifts!r})"

    @property
    def rank(self) -> int:
        return len(self.shifts)

    @property
    def c0(self) -> int:
        """Support offset: degrees of F start at -c0."""
        return max(0, -min(self.shifts))

    def basis_degree(self, basis_exponents: tuple[int, ...]) -> int:
        return sum(a * f for a, f in zip(basis_exponents, self.shifts))


Component = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


class TermModule:
    """Term-generated submodule of Sym^level(F), stored componentwise.

    ``components`` pairs each occurring basis exponent with the minimal
    monomial generators of its coefficient ideal.  Construction canonicalizes:
    generators are minimalized per component, empty components are dropped,
    and components are sorted, so equal submodules compare equal.  Equality
    and hash go by (ambient, level, components).
    """

    def __init__(
        self, ambient: GradedFreeModule, level: int, components: tuple[Component, ...]
    ) -> None:
        self.ambient = ambient
        self.level = level
        d = ambient.ring.dim
        e = ambient.rank
        if require_int(level, "the level") < 0:
            raise InputError("level must be nonnegative")
        canon: list[Component] = []
        seen: dict[tuple[int, ...], set] = {}
        for basis, gens in components:
            basis = tuple(require_int(a, "a basis exponent") for a in basis)
            if len(basis) != e or any(a < 0 for a in basis):
                raise InputError(f"bad basis exponent {basis!r}")
            if sum(basis) != level:
                raise InputError(
                    f"basis exponent {basis!r} has level {sum(basis)}, expected {level}"
                )
            bucket = seen.setdefault(basis, set())
            for g in gens:
                g = tuple(require_int(v, "an exponent") for v in g)
                if len(g) != d or any(v < 0 for v in g):
                    raise InputError(f"bad monomial exponent vector {g!r}")
                bucket.add(g)
        for basis in sorted(seen):
            gens = minimalize_exponents(seen[basis])
            if gens:
                canon.append((basis, tuple(gens)))
        self.components = tuple(canon)

    def __eq__(self, other):
        if type(other) is not TermModule:
            return NotImplemented
        return (self.ambient, self.level, self.components) == (
            other.ambient,
            other.level,
            other.components,
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.level, self.components))

    def __repr__(self) -> str:
        return f"TermModule({self.ambient!r}, {self.level!r}, {self.components!r})"

    @classmethod
    def _from_canonical(
        cls, ambient: GradedFreeModule, level: int, components: tuple[Component, ...]
    ) -> "TermModule":
        """Wrap components that are already canonical, skipping validation.

        Only for the results of the exponent kernels: each generator tuple is
        minimal and in canonical order, none is empty, and the components are
        sorted by basis exponent at the right level.
        """
        mod = object.__new__(cls)
        mod.ambient = ambient
        mod.level = level
        mod.components = components
        return mod

    # -- basic structure -------------------------------------------------

    @cached_property
    def _component_map(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        return dict(self.components)

    def component(self, basis: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        return self._component_map.get(tuple(basis), ())

    @property
    def is_zero(self) -> bool:
        return not self.components

    def generators(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Every generator as an (exponents, basis_exponents) pair."""
        for basis, gens in self.components:
            for g in gens:
                yield g, basis

    @property
    def num_generators(self) -> int:
        return sum(len(gens) for _, gens in self.components)

    @cached_property
    def generator_degrees(self) -> tuple[int, ...]:
        """Distinct generator degrees, ascending (d_1 < ... < d_l)."""
        degs = {sum(g) + self.ambient.basis_degree(basis) for g, basis in self.generators()}
        return tuple(sorted(degs))

    @property
    def max_degree(self) -> Optional[int]:
        return self.generator_degrees[-1] if self.components else None

    @property
    def min_degree(self) -> Optional[int]:
        return self.generator_degrees[0] if self.components else None

    @property
    def is_nonneg_graded(self) -> bool:
        """Validity flag: all generators live in nonnegative degrees."""
        return self.is_zero or self.min_degree >= 0

    @property
    def rank(self) -> int:
        """Number of distinct basis exponents hit by generators.

        Valid as the rank of the module because generators are terms and
        monomials are invertible over the fraction field.
        """
        return len(self.components)

    @cached_property
    def content_key(self) -> str:
        """Eight hex digits that name the module's disk-cache files.

        The CRC-32 of the canonical payload: equal modules get equal keys, but
        different modules may collide, so a key only names files; a cached
        file stores its module's payload, and a load compares it.
        """
        return payload_crc(module_to_payload(self))


# -- construction helpers ------------------------------------------------


def term_module(
    ambient: GradedFreeModule, level: int, terms
) -> TermModule:
    """Build a module from (exponents, basis_exponents) pairs."""
    buckets: dict[tuple[int, ...], list] = {}
    for exp, basis in terms:
        buckets.setdefault(tuple(basis), []).append(tuple(exp))
    comps = tuple((b, tuple(g)) for b, g in buckets.items())
    return TermModule(ambient, level, comps)


def ideal_module(ring: RingSpec, exponents, shift: int = 0) -> TermModule:
    """Rank-one convenience: the ideal (gens) inside F = A(shift)."""
    ambient = GradedFreeModule(ring, (shift,))
    return term_module(ambient, 1, [(tuple(e), (1,)) for e in exponents])


def unit_module(ambient: GradedFreeModule) -> TermModule:
    """Sym^0(F) = A, generated by 1."""
    d = ambient.ring.dim
    e = ambient.rank
    return TermModule(ambient, 0, (((0,) * e, ((0,) * d,)),))


def zero_module(ambient: GradedFreeModule, level: int = 1) -> TermModule:
    return TermModule(ambient, level, ())


# -- operations ----------------------------------------------------------


def _require_same_ambient(a: TermModule, b: TermModule) -> None:
    if a.ambient != b.ambient:
        raise InputError("modules live over different ambient free modules")


def product(a: TermModule, b: TermModule) -> TermModule:
    """Image of M_a (x) M_b in Sym^(la+lb)(F): pairwise products of terms."""
    _require_same_ambient(a, b)
    buckets: dict[tuple[int, ...], list] = {}
    for abasis, agens in a.components:
        for bbasis, bgens in b.components:
            cbasis = tuple(x + y for x, y in zip(abasis, bbasis))
            buckets.setdefault(cbasis, []).append(product_exponents(agens, bgens))
    # several basis pairs can land on one basis exponent (e1*e2 = e2*e1);
    # only their union needs a second minimalize pass
    comps = tuple(
        (
            basis,
            tuple(parts[0] if len(parts) == 1 else minimalize_exponents(chain(*parts))),
        )
        for basis, parts in sorted(buckets.items())
    )
    return TermModule._from_canonical(a.ambient, a.level + b.level, comps)


def next_power(cur: TermModule, m: TermModule) -> TermModule:
    """M^(k+1) from cur = M^k.

    For M of level 1 with component ideals I_i, the component beta of
    M^(k+1) is prod_j I_j^(beta_j), which equals M^k_(beta-e_i) * I_i for
    every i with beta_i > 0; so one product per component gives it, already
    minimal, where ``product`` would form and merge all of them.  Other
    levels take ``product``.
    """
    if m.level != 1:
        return product(cur, m)
    pairs: dict[tuple[int, ...], tuple] = {}
    for basis, gens in m.components:
        i = basis.index(1)
        for cbasis, cgens in cur.components:
            pairs.setdefault(cbasis[:i] + (cbasis[i] + 1,) + cbasis[i + 1 :], (cgens, gens))
    comps = tuple(
        (basis, tuple(product_exponents(cgens, gens)))
        for basis, (cgens, gens) in sorted(pairs.items())
    )
    return TermModule._from_canonical(cur.ambient, cur.level + 1, comps)


def membership(term: tuple, m: TermModule) -> bool:
    """A term, an (exponents, basis_exponents) pair, lies in M iff a generator
    with the same basis exponent divides it."""
    exponents, basis = term
    if sum(basis) != m.level:
        raise InputError(f"term has level {sum(basis)}, module has level {m.level}")
    gens = m.component(basis)
    if not gens:
        return False
    return divides_any(exponents, gens)


def is_submodule(a: TermModule, b: TermModule) -> bool:
    """True iff A is contained in B (same ambient and level)."""
    _require_same_ambient(a, b)
    if a.level != b.level:
        return False
    return all(membership(t, b) for t in a.generators())


# -- serialization (internal payload, any level) --------------------------


def module_to_payload(m: TermModule) -> dict:
    return {
        "variables": list(m.ambient.ring.variables),
        "shifts": list(m.ambient.shifts),
        "level": m.level,
        "components": [
            {"basis_exponents": list(basis), "generators": [list(g) for g in gens]}
            for basis, gens in m.components
        ],
    }


def payload_crc(payload) -> str:
    """The CRC-32 of a payload's canonical JSON, as eight hex digits."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(blob.encode('utf-8')):08x}"
