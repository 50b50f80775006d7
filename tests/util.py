"""Shared builders for the test suite."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import oracles

from reesdensity import (
    GradedFreeModule,
    RingSpec,
    TermModule,
    ideal_module,
    term_module,
)

RING_XY = RingSpec(("x", "y"))
RING_XYZ = RingSpec(("x", "y", "z"))
RING_XYZW = RingSpec(("x", "y", "z", "w"))


def ideal(gens, shift: int = 0, ring: RingSpec = RING_XY) -> TermModule:
    return ideal_module(ring, gens, shift)


# I = (x^2, y^2, z^2, w^3, xyz) in four variables, whose density and epsilon
# multiplicity are derived by hand where they are pinned
M_SCALE_D4 = ideal(
    [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 1, 0)], ring=RING_XYZW
)


def module(components: dict, shifts, ring: RingSpec = RING_XY) -> TermModule:
    """Level-1 module from {basis index: [exponent vectors]}."""
    ambient = GradedFreeModule(ring, tuple(shifts))
    e = len(shifts)
    terms = []
    for basis, gens in components.items():
        unit = tuple(1 if k == basis else 0 for k in range(e))
        terms.extend((tuple(g), unit) for g in gens)
    return term_module(ambient, 1, terms)


def random_module(rng: random.Random, d: int, e: int, max_degree: int = 4) -> TermModule:
    """Random full-rank level-1 module with generator degrees <= max_degree.

    Every basis component receives at least one generator, so the module is
    admissible for every operation under test.
    """
    ring = RingSpec(tuple(f"x{i}" for i in range(d)))
    shifts = tuple(rng.randint(0, 1) for _ in range(e))
    components: dict[int, list] = {i: [] for i in range(e)}
    total = rng.randint(e, e + 3)
    picks = list(range(e)) + [rng.randrange(e) for _ in range(total - e)]
    for basis in picks:
        top = max_degree - shifts[basis]
        degree = rng.randint(0, max(0, top))
        exp = [0] * d
        for _ in range(degree):
            exp[rng.randrange(d)] += 1
        components[basis].append(tuple(exp))
    return module(components, shifts, ring)


def components_of(m: TermModule) -> dict:
    """{basis exponent: [monomial exponents]} view used by the oracles."""
    return {basis: list(gens) for basis, gens in m.components}


def census_by_enumeration(m: TermModule, msat: TermModule) -> tuple[int, dict]:
    """Total and {degree: count} of msat/m, tallied term by term from the BFS."""
    table: dict[int, int] = {}
    terms = oracles.quotient_monomials(m, msat)
    for t in terms:
        deg = oracles.term_degree(m, t)
        table[deg] = table.get(deg, 0) + 1
    return len(terms), table


def census_by_lengths(ladder, n: int, top: int) -> dict:
    """{degree: length} of sat(M^n)/M^n up to ``top``, read as the difference
    of the ladder's graded lengths, at the degrees where it is nonzero."""
    low = ladder.sat_power(n).min_degree
    by_degree = {}
    for deg in range(low, top + 1):
        v = ladder.sat_length(n, deg) - ladder.length(n, deg)
        if v:
            by_degree[deg] = v
    return by_degree


def fresh_python(code: str, *flags: str) -> dict:
    """Run ``code`` in a fresh interpreter with ``PYTHONPATH=src`` and the
    interpreter ``flags``; return the JSON object on the last line it prints."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])
