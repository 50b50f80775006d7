"""Integral-dependence verdicts: certificates, exact disagreement, guards."""

import json

import pytest

import oracles
from util import ideal, module

from reesdensity import (
    InputError,
    InternalInvariantError,
    LengthLadder,
    NotSubmoduleError,
    RankMismatchError,
    check_dependence,
    diagonal_multiplicity,
    direct_reduction_search,
    epsilon_multiplicity,
    load_corpus_module,
    serialize_module,
    validate_pair,
)
from reesdensity import counting
from reesdensity.cli import main
import reesdensity.dependence as dependence
import reesdensity.multiplicity as multiplicity

M_SQ = ideal([(2, 0), (1, 1), (0, 2)])
N_CI = ideal([(2, 0), (0, 2)])
N_X2_XY = ideal([(2, 0), (1, 1)])


# -- validation -------------------------------------------------------------------


def test_validate_pair_accepts_rees_pair():
    assert validate_pair(N_CI, M_SQ) == 2


def test_validate_pair_rejects_non_submodule():
    with pytest.raises(NotSubmoduleError):
        validate_pair(ideal([(1, 0)]), ideal([(0, 1)]))


def test_validate_pair_rejects_rank_mismatch():
    sub = module({0: [(1, 0)]}, (0, 0))
    sup = module({0: [(1, 0)], 1: [(0, 1)]}, (0, 0))
    with pytest.raises(RankMismatchError):
        validate_pair(sub, sup)


def test_validate_pair_rejects_level_mismatch():
    from reesdensity import power

    with pytest.raises(InputError):
        validate_pair(power(N_CI, 2), power(M_SQ, 2))


def test_slope_at_the_bound_is_refused_alike_by_diagonal_and_check():
    # d_M = 2 for M_SQ, and a check's bound is the larger of d_N and d_M = 2
    refusal = "^the slope c must exceed the top generator degree 2, got 2$"
    with pytest.raises(InputError, match=refusal):
        diagonal_multiplicity(M_SQ, c=2)
    with pytest.raises(InputError, match=refusal):
        check_dependence(N_CI, M_SQ, c=2)


# -- certificate search ------------------------------------------------------------


def test_certificate_for_complete_intersection_inside_square():
    assert direct_reduction_search(N_CI, M_SQ) == 1


def test_certificate_self_is_zero():
    assert direct_reduction_search(M_SQ, M_SQ) == 0


def test_no_certificate_for_x2_xy():
    assert direct_reduction_search(N_X2_XY, M_SQ, 12) is None


def test_certificate_search_builds_each_power_once(monkeypatch):
    # the search holds M^n0 while it asks for M^(n0+1), and the ladder
    # multiplies from the newest power it holds: one product per power
    # above M^1, where rebuilding M^n0 from M^1 at each step is quadratic
    built = []
    real = counting.next_power

    def recording(cur, m):
        built.append(cur.level + 1)
        return real(cur, m)

    monkeypatch.setattr(counting, "next_power", recording)
    assert direct_reduction_search(N_X2_XY, M_SQ, 12) is None
    assert built == list(range(2, 14))


# -- verdicts ----------------------------------------------------------------------


def test_reduction_verdict_with_matching_criteria():
    v = check_dependence(N_CI, M_SQ)
    assert v.verdict == "reduction"
    assert v.certificate == 1
    assert v.c == 3
    for cr in v.criteria:
        assert cr.usable
        assert cr.match is True


def test_not_reduction_via_exact_epsilon_disagreement():
    v = check_dependence(N_X2_XY, M_SQ)
    assert v.verdict == "not-reduction"
    assert v.certificate is None
    eps = next(cr for cr in v.criteria if cr.name == "epsilon")
    assert (eps.left, eps.right) == (1, 4)
    assert "epsilon" in v.diagnostics["mismatches"]


def test_self_pair_is_reduction_at_n0_zero():
    v = check_dependence(M_SQ, M_SQ)
    assert v.verdict == "reduction"
    assert v.certificate == 0
    assert v.diagnostics["same_module"] is True


def test_stand_in_row_present_and_excluded():
    v = check_dependence(N_X2_XY, M_SQ)
    stand_in = next(cr for cr in v.criteria if cr.stand_in)
    assert stand_in.name == "epsilon-truncation"
    assert "stand-in" in stand_in.label
    assert stand_in.match is False
    assert "epsilon-truncation" not in v.diagnostics["mismatches"]


@pytest.mark.parametrize("name, c, want", [
    ("maximal_ideal", 2, 4),
    ("maximal_ideal", 3, 9),
    ("three_vars", 2, 8),
    ("three_vars", 3, 27),
    ("square_maximal", 3, 9),
])
def test_stand_in_row_reads_multiplicity_of_maximal_ideal_power(name, c, want):
    # the degree-c truncation of a power of m = (x_1..x_d) is m^c, which is
    # m-primary, so its epsilon multiplicity is e(m^c) = c^d
    m = load_corpus_module(name)
    v = check_dependence(m, m, c=c)
    stand_in = next(cr for cr in v.criteria if cr.stand_in)
    assert (stand_in.left, stand_in.right) == (want, want)


def test_stand_in_row_of_non_self_pair_with_both_c(tmp_path):
    # at c = 3 the truncations are x*m^2 (saturation (x^n), so t_n =
    # len(A/m^{2n}) and epsilon 4) and m^3 (epsilon 9)
    out = tmp_path / "verdict.json"
    code = main([
        "check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:square_maximal",
        "--both-c", "--json-out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "not-reduction"
    (row,) = [cr for cr in payload["criteria"] if cr["stand_in"]]
    assert (row["left"], row["right"], row["match"]) == ("4", "9", False)
    assert "diagonal-a+1" in [cr["name"] for cr in payload["criteria"]]
    # the slow route: build the truncations and census their own ladders
    for module, want in ((N_X2_XY, 4), (M_SQ, 9)):
        built = oracles.degree_truncation(module, 3)
        eps = epsilon_multiplicity(
            built, dependence.DEFAULT_CHECK_LADDER, cross_check=False
        )
        assert eps.values["exact"] == want


def test_truncation_census_rejects_slope_at_generator_degree():
    table = LengthLadder(M_SQ)
    with pytest.raises(InternalInvariantError):
        oracles.truncation_totals(table, 2, {1: table.sat_quotient_total(1)})


# (x^20, y^21) is a reduction of (x^20, x^10 y^11, y^21), since (x^10 y^11)^2 =
# x^20 * y^22 lies in the product of the two; both diagonals at c = 22 need
# a fit margin of 16 past 22n
N_20_21 = ideal([(20, 0), (0, 21)])
M_20_21 = ideal([(20, 0), (10, 11), (0, 21)])


def test_reduction_with_a_deep_fit_region_matches_every_row():
    # e(M) = 420; the diagonals of (x^20, y^21) at c = 22 are (2, 22) and
    # (3, c^2 - 420); x^c and y^c lie in M_{>=c}, a submodule of m^c, so its
    # epsilon is e(m^c) = c^2
    v = check_dependence(N_20_21, M_20_21)
    assert (v.verdict, v.certificate, v.c) == ("reduction", 1, 22)
    assert {cr.name: cr.left for cr in v.criteria} == {
        "epsilon": 420,
        "diagonal-a": (2, 22),
        "diagonal-s": (3, 64),
        "mixed-extended": (-420, 0, 1),
        "epsilon-truncation": 484,
    }
    assert all(cr.right == cr.left and cr.match is True for cr in v.criteria)
    same = check_dependence(M_20_21, M_20_21)
    stand_in = next(cr for cr in same.criteria if cr.stand_in)
    assert (stand_in.left, stand_in.right) == (484, 484)


def test_cli_reduction_with_a_deep_fit_region(tmp_path):
    docs = []
    for name, m in (("sub", N_20_21), ("sup", M_20_21)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(serialize_module(m)))
        docs.append(str(path))
    out = tmp_path / "verdict.json"
    assert main(["check", "--sub", docs[0], "--sup", docs[1], "--json-out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["verdict"], payload["certificate"]) == ("reduction", 1)
    assert {cr["name"]: cr["right"] for cr in payload["criteria"]} == {
        "epsilon": "420",
        "diagonal-a": [2, "22"],
        "diagonal-s": [3, "64"],
        "mixed-extended": [-420, 0, 1],
        "epsilon-truncation": "484",
    }
    assert all(cr["match"] is True for cr in payload["criteria"])


def test_robustness_slope_adds_diagonal_rows_at_next_c():
    v = check_dependence(N_CI, M_SQ, robustness_c=True)
    names = [cr.name for cr in v.criteria]
    assert "diagonal-a+1" in names and "diagonal-s+1" in names
    base = next(cr for cr in v.criteria if cr.name == "diagonal-a")
    extra = next(cr for cr in v.criteria if cr.name == "diagonal-a+1")
    assert extra.detail["c"] == base.detail["c"] + 1
    assert extra.match is True
    plain = check_dependence(N_CI, M_SQ)
    assert "diagonal-a+1" not in [cr.name for cr in plain.criteria]


def test_undetermined_when_certificate_lies_past_n_max():
    # (x^4, y^4) <= (x^4, x^3 y, y^4) is a reduction with certificate n0 = 3;
    # searching only to n0 = 1 misses it while every invariant pair agrees
    sub = ideal([(4, 0), (0, 4)])
    sup = ideal([(4, 0), (3, 1), (0, 4)])
    assert direct_reduction_search(sub, sup, 12) == 3
    v = check_dependence(sub, sup, n_max=1)
    assert v.verdict == "undetermined"
    assert all(cr.match is not False for cr in v.criteria)
    full = check_dependence(sub, sup)
    assert full.verdict == "reduction"
    assert full.certificate == 3


def test_unusable_rows_not_compared():
    v = check_dependence(N_X2_XY, M_SQ, n_max=0, ladder=(1, 2))
    assert v.diagnostics["unusable"]
    for cr in v.criteria:
        if not cr.usable:
            assert cr.match is None


def test_c_override_validated():
    with pytest.raises(InputError):
        check_dependence(N_CI, M_SQ, c=2)


def test_certificate_contradiction_raises_internal_error(monkeypatch):
    real = dependence.epsilon_multiplicity

    def tampered(m, ladder=None, **kwargs):
        rep = real(m, ladder, **kwargs)
        if m == N_CI:
            rep.values = dict(rep.values, exact=rep.values["exact"] + 1)
        return rep

    monkeypatch.setattr(dependence, "epsilon_multiplicity", tampered)
    with pytest.raises(InternalInvariantError):
        check_dependence(N_CI, M_SQ)


@pytest.mark.parametrize(
    "sub, sup, verdict, calls",
    [(M_SQ, M_SQ, "reduction", 1), (N_X2_XY, M_SQ, "not-reduction", 2)],
    ids=["self-pair", "distinct-pair"],
)
def test_each_module_gets_one_invariant_pass(sub, sup, verdict, calls, monkeypatch):
    counts = {}

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((dependence, "epsilon_multiplicity"),
                        (multiplicity, "fit_bigraded_polynomial"),
                        (dependence, "LengthLadder")):
        counted(owner, name)
    # the diagonal rows at c and c + 1, the mixed row and the stand-in are
    # all read off the one cumulative fit
    got = check_dependence(sub, sup, robustness_c=True)
    assert got.verdict == verdict
    assert counts == {
        "epsilon_multiplicity": calls,
        "fit_bigraded_polynomial": calls,
        "LengthLadder": calls,
    }


def test_cache_dir_reused_across_checks(tmp_path):
    first = check_dependence(N_CI, M_SQ, cache_dir=tmp_path, ladder=tuple(range(1, 9)))
    # os.replace gives a rewritten file a new inode
    files = {f.name: f.stat().st_ino for f in tmp_path.iterdir()}
    assert files
    second = check_dependence(N_CI, M_SQ, cache_dir=tmp_path, ladder=tuple(range(1, 9)))
    assert second == first
    assert {f.name: f.stat().st_ino for f in tmp_path.iterdir()} == files


def test_reduction_search_rejects_ladder_of_other_module():
    with pytest.raises(InputError, match="another module"):
        direct_reduction_search(N_CI, M_SQ, table=LengthLadder(N_X2_XY))
