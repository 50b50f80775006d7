"""End-to-end acceptance gate.

Each test records exactly one ``acceptance N: PASS/FAIL`` line, echoed in the
terminal summary so the gate is auditable from the test log.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F

from oracles import density_polynomial_from_fit
from util import components_of, ideal, random_module

from reesdensity import (
    LengthLadder,
    check_dependence,
    detect_chambers,
    epsilon_multiplicity,
    fit_bigraded_polynomial,
    fit_piecewise,
    length_component,
    load_corpus_module,
    mixed_multiplicities,
    power,
    sample_adic,
    sample_saturated,
    saturate,
)
from reesdensity.density import cumulative_identity
from reesdensity.io import corpus_names

import acceptance_log
import oracles
import random


@contextmanager
def criterion(num, desc):
    start = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        acceptance_log.record(f"acceptance {num}: FAIL {desc} ({exc})")
        raise
    elapsed = time.perf_counter() - start
    acceptance_log.record(f"acceptance {num}: PASS {desc} [{elapsed:.2f}s]")


def test_criterion_1_shifted_saturation():
    with criterion(1, "shifted (x^2,xy): saturation degree -1, grid nonzero at x=-1"):
        start = time.perf_counter()
        m = ideal([(2, 0), (1, 1)], shift=-2)
        s = saturate(m)
        assert length_component(s, -1) == 1
        ladder = (8, 16, 24, 32)
        grid = sample_saturated(m, [F(-1)], ladder)
        for n in ladder:
            assert grid.samples[n][0] > 0
        assert time.perf_counter() - start < 1.0


def test_criterion_2_epsilon_totals_census():
    with criterion(2, "(x^2,xy): t_n = n(n+1)/2 up to 40, 2*t_40/40^2 within 3% of 1"):
        start = time.perf_counter()
        m = ideal([(2, 0), (1, 1)])
        table = LengthLadder(m)
        for n in range(1, 41):
            assert table.sat_quotient_total(n) == n * (n + 1) // 2
        estimate = F(2 * table.sat_quotient_total(40), 40 * 40)
        assert abs(estimate - 1) <= F(3, 100)
        assert time.perf_counter() - start < 5.0


def test_criterion_3_primary_epsilon_exact():
    with criterion(3, "epsilon((x,y)) = 1 and epsilon((x,y)^2) = 4, totals in closed form"):
        m1 = ideal([(1, 0), (0, 1)])
        m2 = ideal([(2, 0), (1, 1), (0, 2)])
        t1 = LengthLadder(m1)
        t2 = LengthLadder(m2)
        for n in range(1, 31):
            assert t1.sat_quotient_total(n) == n * (n + 1) // 2
            assert t2.sat_quotient_total(n) == n * (2 * n + 1)
        r1 = epsilon_multiplicity(m1, table=t1)
        r2 = epsilon_multiplicity(m2, table=t2)
        assert r1.values["exact"] == 1
        assert r2.values["exact"] == 4
        assert r1.status == "ok" and r2.status == "ok"


def test_criterion_4_adic_density_of_maximal_ideal():
    with criterion(4, "adic density of (x,y): 2x within 2% at n=200, zero below 1, exact fit"):
        m = ideal([(1, 0), (0, 1)])
        xs = (F(1, 2), F(3, 4), F(5, 4), F(3, 2), F(2))
        grid = sample_adic(m, xs, (100, 200))
        for x, v in zip(xs, grid.extrapolated):
            if x < 1:
                assert v == 0
            else:
                assert abs(v - 2 * x) <= F(2, 100) * 2 * x
        fit = fit_piecewise(sample_adic(m, [F(1), F(2)], (8, 16)))
        assert fit.polynomials[-1] == (F(0), F(2))


def test_criterion_5_two_chamber_fit():
    with criterion(5, "(x^2,y^3): chambers (2,3] and [3,inf) fit, continuous at 3, degree 1"):
        m = ideal([(2, 0), (0, 3)])
        chambers = detect_chambers(m)
        assert [str(c) for c in chambers.chambers] == ["(-inf, 2)", "(2, 3]", "[3, inf)"]
        grid = sample_adic(m, [F(5, 2), F(3), F(4)], (8, 16))
        fit = fit_piecewise(grid)
        assert fit.polynomials[1] == (F(-12), F(6))
        assert fit.polynomials[2] == (F(0), F(2))
        assert fit.continuity == (True,)
        assert fit.evaluate(F(3)) == 6
        assert fit.top_degree == 1


def test_criterion_6_dependence_verdicts():
    with criterion(6, "reduction/not-reduction verdicts and corpus self-pairs"):
        start = time.perf_counter()
        m2 = ideal([(2, 0), (1, 1), (0, 2)])
        sub_red = ideal([(2, 0), (0, 2)])
        v = check_dependence(sub_red, m2)
        assert v.verdict == "reduction" and v.certificate == 1
        for row in v.criteria:
            if row.usable:
                assert row.match is True
        sub_not = ideal([(2, 0), (1, 1)])
        v = check_dependence(sub_not, m2)
        assert v.verdict == "not-reduction"
        eps = next(r for r in v.criteria if r.name == "epsilon")
        assert eps.usable and eps.match is False and (eps.left, eps.right) == (1, 4)
        for name in corpus_names():
            m = load_corpus_module(name)
            v = check_dependence(m, m)
            assert v.verdict == "reduction" and v.certificate == 0
        assert time.perf_counter() - start < 10.0


def module_product_oracle(comps_a, comps_b):
    out = {}
    for ba, ga in comps_a.items():
        for bb, gb in comps_b.items():
            key = tuple(i + j for i, j in zip(ba, bb))
            out.setdefault(key, []).extend(
                tuple(i + j for i, j in zip(ea, eb)) for ea in ga for eb in gb
            )
    return {b: oracles.minimalize_oracle(g) for b, g in out.items()}


def module_power_oracle(comps, n):
    out = comps
    for _ in range(n - 1):
        out = module_product_oracle(out, comps)
    return out


def as_dict(m):
    return {b: sorted(g) for b, g in components_of(m).items()}


def test_criterion_7_randomized_oracle_agreement():
    with criterion(7, "50 random modules agree with enumeration oracles"):
        rng = random.Random(2026)
        for trial in range(50):
            d = rng.choice((2, 3))
            e = rng.choice((1, 2))
            m = random_module(rng, d, e)
            n = rng.randrange(1, 5)
            p = power(m, n)
            for deg in (0, 3, 7, 12):
                assert length_component(p, deg) == len(
                    oracles.module_members_at_degree(
                        components_of(p), p.ambient.shifts, deg
                    )
                )
            got = module_power_oracle(components_of(m), n)
            assert as_dict(p) == {b: sorted(g) for b, g in got.items()}
            want_sat = oracles.saturation_oracle_components(components_of(m))
            assert as_dict(saturate(m)) == {
                b: sorted(g) for b, g in want_sat.items()
            }


def test_criterion_8_cumulative_identity_on_corpus():
    with criterion(8, "cumulative identity exact at d_M and d_M + 1"):
        start = time.perf_counter()
        for name in corpus_names():
            m = load_corpus_module(name)
            table = LengthLadder(m)
            for x in (F(m.max_degree), F(m.max_degree + 1)):
                res = cumulative_identity(m, x, table=table)
                assert res["lhs"] == res["rhs"], (name, x, res)
        assert time.perf_counter() - start < 10.0


def test_criterion_9_mixed_multiplicities_of_maximal_ideal():
    with criterion(9, "bigraded fit of lengths X+1 for (x,y); e-values match density 2x"):
        m = ideal([(1, 0), (0, 1)])
        table = LengthLadder(m)
        fit = fit_bigraded_polynomial(m, table=table)
        # P-bar = (X+1)(X+2)/2 - n(n+1)/2, the cumulative sum of X + 1
        assert fit.poly == {(2, 0): F(1, 2), (1, 0): F(3, 2), (0, 0): F(1),
                            (0, 2): F(-1, 2), (0, 1): F(-1, 2)}
        rep = mixed_multiplicities(m, table=table)
        assert rep.status == "ok"
        assert rep.values["e"] == (0, 1)
        assert all(isinstance(v, int) for v in rep.values["e"])
        assert density_polynomial_from_fit(fit, 2, 1) == (F(0), F(2))
