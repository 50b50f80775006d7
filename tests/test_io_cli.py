"""Module documents, JSON/CSV emission, CLI subcommands and exit codes."""

import argparse
import ast
import csv
import json
import shlex
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from util import fresh_python, ideal, module

from reesdensity import (
    InputError,
    InternalInvariantError,
    RankMismatchError,
    check_dependence,
    detect_chambers,
    diagonal_multiplicity,
    epsilon_multiplicity,
    fit_bigraded_polynomial,
    fit_piecewise,
    load_corpus_module,
    load_module_file,
    mixed_multiplicities,
    parse_module,
    sample_adic,
    serialize_module,
)
import reesdensity.multiplicity as multiplicity
from reesdensity.cli import MAX_LADDER_N, _parse_grid, _parse_ladder_options, main
from reesdensity.core import MAX_RING_VARIABLES
from reesdensity.counting import normalize_ladder
from reesdensity.density import MAX_GRID_POINTS, DensityGrid
from reesdensity.io import (
    corpus_names,
    dump_json,
    fraction_str,
    grid_payload,
    parse_fraction,
    report_payload,
    verdict_payload,
    write_density_csv,
)

GOOD_DOC = {
    "schema_version": 1,
    "ring": {"variables": ["x", "y"]},
    "free_module": {"shifts": [0]},
    "generators": [
        {"exponents": [2, 0], "basis": 0},
        {"exponents": [1, 1], "basis": 0},
    ],
}


# -- fractions -----------------------------------------------------------------


def test_fraction_round_trip():
    for v in (F(3, 8), F(-7, 2), F(5), F(0)):
        assert parse_fraction(fraction_str(v)) == v


def test_fraction_rejects_garbage():
    with pytest.raises(InputError):
        parse_fraction("three halves")


# -- module documents -------------------------------------------------------------


def test_parse_good_document():
    m = parse_module(GOOD_DOC)
    assert m.num_generators == 2
    assert m.generator_degrees == (2,)
    assert m.max_degree == 2


def test_parse_accepts_json_text():
    m = parse_module(json.dumps(GOOD_DOC))
    assert m.num_generators == 2


def test_serialize_round_trip():
    m = ideal([(2, 0), (1, 1)], shift=-2)
    doc = serialize_module(m, name="shifted")
    back = parse_module(doc)
    assert back == m
    assert doc["name"] == "shifted"


def test_serialize_round_trip_rank2():
    m = module({0: [(2, 0), (1, 1)], 1: [(0, 1)]}, (0, -1))
    assert parse_module(serialize_module(m)) == m


def test_parse_reports_field_paths():
    bad = dict(GOOD_DOC, schema_version=2)
    with pytest.raises(InputError, match="schema_version"):
        parse_module(bad)
    bad = dict(GOOD_DOC, ring={"variables": []})
    with pytest.raises(InputError, match="ring.variables"):
        parse_module(bad)
    bad = dict(GOOD_DOC, generators=[{"exponents": [1], "basis": 0}])
    with pytest.raises(InputError, match=r"generators\[0\].exponents"):
        parse_module(bad)
    bad = dict(GOOD_DOC, generators=[{"exponents": [1, 0], "basis": 3}])
    with pytest.raises(InputError, match=r"generators\[0\].basis"):
        parse_module(bad)


@pytest.mark.parametrize("field, doc", [
    ("free_module.shifts", dict(GOOD_DOC, free_module={"shifts": [True]})),
    ("free_module.shifts", dict(GOOD_DOC, free_module={"shifts": [0.0]})),
    (r"generators\[0\].exponents", dict(GOOD_DOC, generators=[{"exponents": [2, True], "basis": 0}])),
    (r"generators\[0\].exponents", dict(GOOD_DOC, generators=[{"exponents": [2.0, 0], "basis": 0}])),
    (r"generators\[0\].basis", dict(GOOD_DOC, generators=[{"exponents": [2, 0], "basis": False}])),
], ids=["bool-shift", "float-shift", "bool-exponent", "float-exponent", "bool-basis"])
def test_parse_refuses_non_integers_with_the_field_path(field, doc, tmp_path, capsys):
    # one integer rule (core.require_int), prefixed with the field path
    with pytest.raises(InputError, match=f"^{field}: .* must be an integer, got"):
        parse_module(doc)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["density", "--module", str(path), "--csv-out", str(tmp_path / "x.csv")]) == 2
    assert "must be an integer" in capsys.readouterr().err


def test_parse_rejects_empty_generators():
    with pytest.raises(InputError, match="generators"):
        parse_module(dict(GOOD_DOC, generators=[]))


def test_parse_rejects_negative_degree_generator():
    doc = {
        "schema_version": 1,
        "ring": {"variables": ["x", "y"]},
        "free_module": {"shifts": [-2]},
        "generators": [{"exponents": [1, 0], "basis": 0}],
    }
    with pytest.raises(InputError, match="negative degree"):
        parse_module(doc)


def test_parse_rejects_unused_basis_vector():
    doc = {
        "schema_version": 1,
        "ring": {"variables": ["x", "y"]},
        "free_module": {"shifts": [0, 0]},
        "generators": [{"exponents": [1, 0], "basis": 0}],
    }
    with pytest.raises(RankMismatchError, match="versal"):
        parse_module(doc)


def test_parse_rejects_invalid_json_text():
    with pytest.raises(InputError, match="invalid JSON"):
        parse_module("{not json")


@pytest.mark.parametrize("content, named", [
    # UTF-16 byte-order mark and a lone byte: not UTF-8
    (b"\xff\xfe\x00", "m.json"),
    # json.loads recurses once per open bracket
    (b"[" * 100000, "document"),
], ids=["not-utf8", "nested-past-the-stack"])
def test_cli_malformed_module_file_exits_two(content, named, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(InputError, match=named):
        load_module_file(path)
    assert main(["density", "--module", str(path), "--csv-out", str(tmp_path / "x.csv")]) == 2
    assert named in capsys.readouterr().err
    assert [f.name for f in tmp_path.iterdir()] == ["m.json"]


# -- corpus ------------------------------------------------------------------------


def test_corpus_lists_known_names():
    names = corpus_names()
    assert "maximal_ideal" in names
    assert "square_maximal" in names
    assert len(names) >= 9


def test_corpus_modules_all_parse():
    for name in corpus_names():
        m = load_corpus_module(name)
        assert m.level == 1
        assert not m.is_zero


def test_corpus_unknown_name():
    with pytest.raises(InputError, match="unknown corpus module"):
        load_corpus_module("no_such_module")


# -- json determinism ----------------------------------------------------------------


def test_dump_json_sorted_and_exact():
    blob = dump_json({"b": F(1, 3), "a": [F(2), None]})
    assert blob.index('"a"') < blob.index('"b"')
    assert '"1/3"' in blob


def test_dump_json_refuses_a_value_with_no_json_form():
    # a repr such as <object at 0x...> would make the payload nondeterministic
    with pytest.raises(InternalInvariantError, match="no JSON form for type object"):
        dump_json({"a": object()})


# -- result records ----------------------------------------------------------------

M_X2_XY = ideal([(2, 0), (1, 1)])
RECORDS = {
    "density grid": lambda: sample_adic(M_X2_XY, ladder=(8, 16)),
    "chambers": lambda: detect_chambers(M_X2_XY),
    "chamber fit": lambda: fit_piecewise(sample_adic(M_X2_XY, ladder=(8, 16))),
    "epsilon report": lambda: epsilon_multiplicity(M_X2_XY, (1, 2, 3, 4, 5, 6, 7, 8)),
    "diagonal report": lambda: diagonal_multiplicity(M_X2_XY, 3),
    "mixed report": lambda: mixed_multiplicities(M_X2_XY, extended=True),
    "bigraded fit": lambda: fit_bigraded_polynomial(M_X2_XY),
    "verdict": lambda: check_dependence(M_X2_XY, M_X2_XY, ladder=(1, 2, 3, 4, 5, 6, 7, 8)),
}


@pytest.mark.parametrize("build", list(RECORDS.values()), ids=list(RECORDS))
def test_records_compare_by_value_and_list_their_fields(build):
    first, second = build(), build()
    assert first is not second and first == second
    assert first == SimpleNamespace(**vars(first))
    with pytest.raises(TypeError):
        hash(first)
    for name in vars(first):
        assert f"``{name}``" in type(first).__doc__, name
    assert repr(first).startswith(f"{type(first).__name__}(")


@pytest.mark.parametrize("build, to_payload, dropped, added", [
    (RECORDS["density grid"], grid_payload, {"module"}, set()),
    (RECORDS["epsilon report"], report_payload, set(), set()),
    (RECORDS["verdict"], verdict_payload, set(), {"consistent"}),
], ids=["grid", "report", "verdict"])
def test_each_payload_is_its_record_fields(build, to_payload, dropped, added):
    record = build()
    payload = to_payload(record)
    assert set(payload) == (set(vars(record)) - dropped) | added | {"schema_version"}
    for key in set(vars(record)) - dropped - {"criteria"}:
        assert payload[key] is vars(record)[key], key
    if added:
        assert payload["consistent"] is True
        assert payload["criteria"] == [vars(cr) for cr in record.criteria]


# -- CLI ---------------------------------------------------------------------------


def write_doc(tmp_path, doc, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_cli_density_writes_csv_per_kind(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, GOOD_DOC)
    code = main([
        "density", "--module", str(path), "--kind", "adic,saturated,epsilon",
        "--nmax", "16", "--grid", "0:3:1/2",
    ])
    assert code == 0
    for kind in ("adic", "saturated", "epsilon"):
        out = tmp_path / f"m.{kind}.csv"
        assert out.exists()
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "x"
        assert rows[0][-2:] == ["extrapolated", "diagnostic"]
        assert len(rows) == 8  # header + 7 grid points


def test_cli_density_fit_prints_polynomials(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, GOOD_DOC)
    code = main(["density", "--module", str(path), "--fit"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[2, inf)" in out


def test_cli_density_rejects_bad_kind(tmp_path, capsys):
    path = write_doc(tmp_path, GOOD_DOC)
    assert main(["density", "--module", str(path), "--kind", "nope"]) == 2
    assert "unknown density kind" in capsys.readouterr().err


def test_cli_input_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["density", "--module", str(missing)]) == 2


def test_cli_multiplicity_epsilon_json(tmp_path, capsys):
    out = tmp_path / "eps.json"
    code = main([
        "multiplicity", "--module", "corpus:ideal_x2_xy", "--epsilon",
        "--json-out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    report = payload["reports"][0]
    assert report["kind"] == "epsilon"
    assert report["values"]["exact"] == "1"
    text = capsys.readouterr().out
    assert "estimate" in text


def test_cli_multiplicity_undetermined_exit_code(tmp_path, capsys):
    code = main([
        "multiplicity", "--module", "corpus:ideal_x2_xy", "--epsilon",
        "--ladder", "1,2",
    ])
    assert code == 0  # estimate-only is not undetermined
    # the fit of (x^80, y^81) finds no polynomial region up to the margin cap
    doc = dict(GOOD_DOC, generators=[
        {"exponents": [80, 0], "basis": 0}, {"exponents": [0, 81], "basis": 0},
    ])
    code = main(["multiplicity", "--module", str(write_doc(tmp_path, doc)), "--diagonal"])
    assert code == 3
    assert "diagonal (base ring): undetermined (no polynomial region" in capsys.readouterr().out


def test_cli_check_reduction_exit_zero(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    code = main([
        "check", "--sub", "corpus:reduction_sub_x2_y2",
        "--sup", "corpus:square_maximal", "--json-out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "reduction"
    assert payload["certificate"] == 1
    stand_ins = [c for c in payload["criteria"] if c["stand_in"]]
    assert len(stand_ins) == 1
    assert "verdict: reduction" in capsys.readouterr().out


def test_cli_check_not_reduction_exit_zero(capsys):
    code = main([
        "check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:square_maximal",
    ])
    assert code == 0
    assert "not-reduction" in capsys.readouterr().out


def test_cli_check_undetermined_exit_three(tmp_path, capsys):
    sub = write_doc(
        tmp_path,
        dict(GOOD_DOC, generators=[
            {"exponents": [4, 0], "basis": 0},
            {"exponents": [0, 4], "basis": 0},
        ]),
        "sub.json",
    )
    sup = write_doc(
        tmp_path,
        dict(GOOD_DOC, generators=[
            {"exponents": [4, 0], "basis": 0},
            {"exponents": [3, 1], "basis": 0},
            {"exponents": [0, 4], "basis": 0},
        ]),
        "sup.json",
    )
    code = main(["check", "--sub", str(sub), "--sup", str(sup), "--nmax", "1"])
    assert code == 3


def test_cli_check_submodule_violation_exit_two(tmp_path, capsys):
    sub = write_doc(tmp_path, dict(GOOD_DOC, generators=[
        {"exponents": [1, 0], "basis": 0},
    ]), "sub.json")
    sup = write_doc(tmp_path, GOOD_DOC, "sup.json")
    assert main(["check", "--sub", str(sub), "--sup", str(sup)]) == 2


def test_cli_mixed_undetermined_exit_three(tmp_path, capsys):
    path = write_doc(tmp_path, dict(GOOD_DOC, generators=[
        {"exponents": [80, 0], "basis": 0},
        {"exponents": [0, 81], "basis": 0},
    ]))
    assert main(["multiplicity", "--module", str(path), "--mixed"]) == 3
    assert "mixed: undetermined" in capsys.readouterr().out


def test_cli_diagonal_and_mixed_share_one_fit(monkeypatch, capsys):
    # both reports are read off one fit of the cumulative lengths, which for
    # mixed_rank2 validates at the first margin: one interpolation in all
    calls = []
    real = multiplicity.fit_poly2_triangular
    monkeypatch.setattr(multiplicity, "fit_poly2_triangular",
                        lambda *args: calls.append(args) or real(*args))
    argv = ["multiplicity", "--module", "corpus:mixed_rank2", "--diagonal", "--mixed"]
    assert main(argv) == 0
    assert "mixed: status ok, e = [-1, 1]" in capsys.readouterr().out
    assert len(calls) == 1


_SUBCOMMANDS = {
    "density": ["density", "--module", "corpus:ideal_x2_xy"],
    "multiplicity": ["multiplicity", "--module", "corpus:ideal_x2_xy"],
    "check": ["check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:ideal_x2_xy"],
}


@pytest.mark.parametrize("command, option", [
    ("density", "--nmax=0"),
    ("multiplicity", "--nmax=0"),
    ("multiplicity", "--nmax=-3"),
    ("check", "--nmax=-1"),
    *[(command, ladder) for command in _SUBCOMMANDS
      for ladder in ("--ladder=0,1,2,3", "--ladder=3,2,1,1")],
    ("density", "--tol=-1"),
    ("multiplicity", "--tol=-1"),
    # text that is no rational, and a slope the pair's generator degrees refuse
    ("density", "--tol=abc"),
    ("multiplicity", "--tol=abc"),
    ("density", "--grid=0:x:1"),
    ("check", "--c=2"),
])
def test_cli_validates_ladder_nmax_and_tol_alike(
    command, option, tmp_path, monkeypatch, capsys
):
    # every subcommand rejects the same bad values, naming the flag; density
    # runs with --fit, without which its --tol is refused before any value check
    monkeypatch.chdir(tmp_path)
    fit = ["--fit"] if command == "density" else []
    assert main(_SUBCOMMANDS[command] + fit + [option]) == 2
    assert option.split("=")[0] in capsys.readouterr().err


def test_cli_check_pair_refusal_is_not_the_slope(tmp_path, capsys):
    # N not inside M is the pair's refusal, whatever --c says
    sub = write_doc(tmp_path, dict(GOOD_DOC, generators=[
        {"exponents": [1, 0], "basis": 0},
    ]), "sub.json")
    sup = write_doc(tmp_path, GOOD_DOC, "sup.json")
    assert main(["check", "--sub", str(sub), "--sup", str(sup), "--c", "5"]) == 2
    err = capsys.readouterr().err
    assert "not in the larger module" in err and "--c" not in err


def test_cli_check_tests_each_generator_for_membership_once(monkeypatch):
    # the slope bound comes from the one pair check that the verdict then
    # relies on: reduction_sub_x2_y2 has two generators
    from reesdensity import dependence

    asked = []
    real = dependence.membership

    def recording(term, m):
        asked.append(term)
        return real(term, m)

    monkeypatch.setattr(dependence, "membership", recording)
    argv = ["check", "--sub", "corpus:reduction_sub_x2_y2", "--sup", "corpus:square_maximal"]
    assert main(argv) == 0
    assert sorted(asked) == sorted(load_corpus_module("reduction_sub_x2_y2").generators())


def test_cli_check_bad_slope_names_the_flag(capsys):
    argv = ["check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:square_maximal", "--c", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--c: the slope c must exceed the top generator degree 2, got 2" in captured.err


@given(st.lists(st.one_of(st.integers(-2, 12), st.sampled_from([MAX_LADDER_N, MAX_LADDER_N + 1])),
                min_size=1, max_size=5))
@example([3, 2])
@example([2, 2])
@settings(max_examples=200, deadline=None)
def test_cli_ladder_text_and_the_api_follow_one_rule(entries):
    # --ladder accepts exactly the lists the API accepts, as the same tuple,
    # and names the flag when it refuses one
    args = argparse.Namespace(nmax=None, ladder=",".join(map(str, entries)))
    try:
        expected = normalize_ladder(entries, None)
    except InputError:
        with pytest.raises(InputError, match="^--ladder: "):
            _parse_ladder_options(args)
    else:
        assert _parse_ladder_options(args)[0] == expected


@pytest.mark.parametrize("kinds", [",", "adic,adic"])
def test_cli_density_rejects_empty_or_repeated_kind(kinds, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(_SUBCOMMANDS["density"] + ["--kind", kinds]) == 2
    assert "adic,saturated,epsilon" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", list(_SUBCOMMANDS))
def test_cli_cache_dir_naming_a_file_exits_two(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "not_a_dir"
    path.write_text("", encoding="utf-8")
    assert main(_SUBCOMMANDS[command] + ["--ladder=1,2", "--cache-dir", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    ("density", "--csv-out"),
    ("density", "--json-out"),
    ("multiplicity", "--json-out"),
    ("check", "--json-out"),
])
def test_cli_output_in_missing_directory_exits_two(
    command, option, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    target = str(tmp_path / "nodir" / "out.txt")
    assert main(_SUBCOMMANDS[command] + ["--ladder=1,2,3", option, target]) == 2
    assert f"cannot write {target}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
     "--json-out", "nodir/x.json"],
    ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
     "--cache-dir", "cache", "--json-out", "nodir/x.json"],
    ["density", "--module", "corpus:ideal_x2_xy", "--kind", "adic,saturated",
     "--csv-out", "ok.csv", "--json-out", "nodir/x.json"],
    ["density", "--module", "corpus:ideal_x2_xy", "--kind", "adic,saturated",
     "--csv-out", "nodir/x.csv", "--json-out", "ok.json"],
    ["multiplicity", "--module", "corpus:ideal_x2_xy", "--epsilon", "--cache-dir", "cache",
     "--json-out", "nodir/x.json"],
], ids=["check", "check-cache-dir", "density-json", "density-csv", "multiplicity-cache-dir"])
def test_cli_bad_output_directory_fails_before_computing(argv, tmp_path, monkeypatch, capsys):
    # nothing is computed, printed or written, the cache directory included
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write nodir/x." in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("grid", ["0:1e9:1", "0:1:1/100000", "-1/2:100000:1"])
def test_cli_oversized_grid_fails_before_computing(grid, tmp_path, monkeypatch, capsys):
    # the points are counted, never built: 10^9 Fractions would hang the job
    monkeypatch.chdir(tmp_path)
    argv = ["density", "--module", "corpus:maximal_ideal", f"--grid={grid}", "--csv-out", "x.csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--grid" in captured.err and str(MAX_GRID_POINTS) in captured.err
    assert not any(tmp_path.iterdir())


def test_cli_zero_grid_step_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["density", "--module", "corpus:maximal_ideal", "--grid=0:1:0", "--csv-out", "x.csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "--grid" in captured.err and "step must be positive" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["density", "--module", "corpus:maximal_ideal", "--nmax", "100000000"],
    ["density", "--module", "corpus:maximal_ideal", f"--ladder=1,2,{MAX_LADDER_N + 1}"],
    ["multiplicity", "--module", "corpus:maximal_ideal", "--nmax", f"{MAX_LADDER_N + 1}"],
    ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
     "--nmax", f"{MAX_LADDER_N + 1}"],
    # the certificate search builds M^(nmax+1)
    ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
     "--nmax", f"{MAX_LADDER_N}"],
    ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
     f"--ladder={10 * MAX_LADDER_N}"],
], ids=["density-nmax", "density-ladder", "multiplicity-nmax", "check-nmax",
        "check-nmax-at-the-bound", "check-ladder"])
def test_cli_oversized_ladder_fails_before_computing(argv, tmp_path, monkeypatch, capsys):
    # memory grows with the power, and --nmax 10^8 multiplies toward the
    # rung 2*10^7; the cap refuses it before any power is built
    monkeypatch.chdir(tmp_path)
    argv = argv + ["--cache-dir", "cache", "--json-out", "x.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = "--nmax" if "--nmax" in argv else "--ladder"
    assert flag in captured.err and str(MAX_LADDER_N) in captured.err
    assert not any(tmp_path.iterdir())


def test_cli_ladder_at_the_cap_is_accepted():
    # check: --nmax bounds the certificate search, which builds M^(nmax+1)
    below_cap = argparse.Namespace(nmax=MAX_LADDER_N - 1, ladder=None)
    assert _parse_ladder_options(below_cap)[0] is None
    at_cap = argparse.Namespace(nmax=MAX_LADDER_N, ladder=None)
    top = tuple(range(1, MAX_LADDER_N + 1))
    assert _parse_ladder_options(at_cap, lambda n: tuple(range(1, n + 1)))[0] == top
    explicit = argparse.Namespace(nmax=None, ladder=f"1,{MAX_LADDER_N}")
    assert _parse_ladder_options(explicit)[0] == (1, MAX_LADDER_N)


@pytest.mark.parametrize("job", [
    ["density", "--csv-out", "x.csv"],
    ["multiplicity", "--epsilon"],
], ids=["density", "epsilon-cross-check"])
def test_cli_oversized_default_grid_fails_before_computing(job, tmp_path, monkeypatch, capsys):
    # the default grid runs from -1 to d_M + 2 by 1/8: 100025 points for
    # (x^12500, y); --ladder 1 keeps a job that builds it short, and the
    # refusal comes before the cache directory exists
    path = write_doc(tmp_path, {**GOOD_DOC, "generators": [
        {"exponents": [12500, 0], "basis": 0}, {"exponents": [0, 1], "basis": 0},
    ]})
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    argv = [job[0], "--module", str(path), *job[1:], "--ladder", "1", "--json-out", "x.json",
            "--cache-dir", "cache"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "100025 points" in captured.err and str(MAX_GRID_POINTS) in captured.err
    assert not any(out.iterdir())


def test_cli_grid_at_the_point_limit_is_accepted():
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


def _pure_squares(d: int) -> dict:
    return {
        "schema_version": 1,
        "ring": {"variables": [f"x{i}" for i in range(d)]},
        "free_module": {"shifts": [0]},
        "generators": [
            {"exponents": [2 if k == i else 0 for k in range(d)], "basis": 0}
            for i in range(d)
        ],
    }


def test_cli_ring_with_too_many_variables_exits_two(tmp_path, capsys):
    # the K-polynomial recursion slices one variable per level, and 340 used
    # variables overflow Python's stack; the document is refused at parsing
    path = write_doc(tmp_path, _pure_squares(340))
    argv = ["density", "--module", str(path), "--ladder", "1", "--grid", "2:2:1",
            "--csv-out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "ring.variables" in err and str(MAX_RING_VARIABLES) in err
    assert parse_module(_pure_squares(MAX_RING_VARIABLES)).ambient.ring.dim == MAX_RING_VARIABLES


def test_cli_diagonal_at_a_slope_far_past_every_numerator(tmp_path):
    # lengths at degree 10^8 n come from each row's Hilbert polynomial; a row
    # grown out to that degree would not fit in memory
    out = tmp_path / "diag.json"
    argv = ["multiplicity", "--module", "corpus:ideal_x2_y3", "--diagonal",
            "--c", "100000000", "--json-out", str(out)]
    assert main(argv) == 0
    values = json.loads(out.read_text())["reports"][0]["values"]
    assert values["a_version"]["multiplicity"] == str(10**8)
    assert values["s_version"]["multiplicity"] == str(10**16 - 6)


@pytest.mark.parametrize("variables, rule", [
    (["x", "x"], "distinct"),
    (["x", ""], "nonempty strings"),
    (["x", 2], "nonempty strings"),
    ("xy", "must be a list"),
])
def test_cli_ring_variables_refused_by_the_ring_rule_name_the_field(
    tmp_path, capsys, variables, rule
):
    doc = dict(GOOD_DOC, ring={"variables": variables})
    assert main(["density", "--module", str(write_doc(tmp_path, doc))]) == 2
    err = capsys.readouterr().err
    assert "ring.variables" in err and rule in err


def test_cli_one_variable_ring_exits_two_naming_the_field(tmp_path, capsys):
    path = write_doc(tmp_path, _pure_squares(1))
    assert main(["density", "--module", str(path)]) == 2
    err = capsys.readouterr().err
    assert "ring.variables" in err and "two variables" in err


def test_density_csv_writes_cells_beyond_the_float_range_exactly(tmp_path):
    # 180! * 180 and the like overflow float(); such a cell is the exact p/q
    big = F(10**400)
    grid = DensityGrid(
        kind="adic",
        module=ideal([(1, 0), (0, 1)]),
        xs=(F(2), F(5, 2)),
        ladder=(1,),
        samples={1: (big, F(3, 2))},
        extrapolated=(big + F(1, 3), F(3, 2)),
        diagnostics=(None, big),
        support=(F(1), None),
        meta={},
    )
    out = tmp_path / "big.csv"
    write_density_csv(grid, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1] == ["2.0", str(10**400), fraction_str(big + F(1, 3)), ""]
    assert rows[2] == ["2.5", "1.5", "1.5", str(10**400)]


@pytest.mark.parametrize("kinds", ["saturated", "saturated,epsilon"])
def test_cli_fit_without_adic_fails_before_computing(kinds, tmp_path, monkeypatch, capsys):
    # only the adic density is fitted, so --fit without it would fit nothing
    monkeypatch.chdir(tmp_path)
    argv = ["density", "--module", "corpus:maximal_ideal", "--kind", kinds, "--fit",
            "--csv-out", "x.csv"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--fit" in captured.err and "adic" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--extended"], ["--epsilon", "--diagonal", "--extended"]])
def test_cli_extended_without_mixed_fails_before_computing(flags, tmp_path, monkeypatch, capsys):
    # --extended only changes the mixed multiplicities, so without --mixed it
    # would be silently ignored
    monkeypatch.chdir(tmp_path)
    argv = ["multiplicity", "--module", "corpus:maximal_ideal", *flags, "--json-out", "x.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--extended" in captured.err and "--mixed" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags, flag, remedy", [
    ("multiplicity", ["--c", "7", "--nmax", "6"], "--c", "--diagonal or --mixed"),
    ("multiplicity", ["--epsilon", "--c", "7"], "--c", "--diagonal or --mixed"),
    ("multiplicity", ["--diagonal", "--tol", "1/2"], "--tol", "--epsilon"),
    ("density", ["--tol", "1/2"], "--tol", "--fit"),
    ("multiplicity", ["--mixed", "--ladder", "1,2"], "--ladder", "--epsilon"),
    ("multiplicity", ["--diagonal", "--nmax", "5"], "--nmax", "--epsilon"),
])
def test_cli_options_no_report_reads_fail_before_computing(
    command, flags, flag, remedy, tmp_path, monkeypatch, capsys
):
    # an option the job never reads would be silently ignored
    monkeypatch.chdir(tmp_path)
    argv = [command, "--module", "corpus:maximal_ideal", *flags, "--json-out", "x.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and remedy in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [
    ["--epsilon", "--mixed", "--c", "2", "--cache-dir", "cache"],
    ["--epsilon", "--diagonal", "--c", "2"],
], ids=["mixed-cache-dir", "diagonal"])
def test_cli_bad_slope_fails_before_computing(flags, tmp_path, monkeypatch, capsys):
    # (x^2, xy) has generators of degree 2, so c = 2 is no slope; the epsilon
    # report, which comes first, is neither printed nor cached
    monkeypatch.chdir(tmp_path)
    argv = ["multiplicity", "--module", "corpus:ideal_x2_xy", *flags, "--json-out", "x.json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--c" in captured.err and "must exceed the top generator degree 2" in captured.err
    assert not any(tmp_path.iterdir())


def test_cli_start_up_loads_only_what_the_job_runs(tmp_path):
    # csv loads only for a CSV, a density job loads neither the check nor the
    # multiplicity engine, no job loads dataclasses or the inspect module it
    # would pull in, and no job loads hashlib or OpenSSL (_hashlib), a cached
    # one included: cache files are named by a CRC; the jobs run one after
    # another in one process, so each list includes the last
    csv_path = str(tmp_path / "out.csv")
    cache_dir = str(tmp_path / "cache")
    loaded = fresh_python(f"""
import json, sys
watched = ("hashlib", "_hashlib", "csv", "dataclasses", "inspect",
           "reesdensity.dependence", "reesdensity.multiplicity")
import reesdensity.cli
jobs = {{"import": [None, [name for name in watched if name in sys.modules]]}}
for job, argv in [
    ("density", ["density", "--module", "corpus:ideal_x2_xy", "--ladder=1,2,3",
                 "--csv-out", {csv_path!r}]),
    ("check", ["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
               "--ladder=1,2,3"]),
    ("multiplicity", ["multiplicity", "--module", "corpus:maximal_ideal", "--epsilon"]),
    ("multiplicity-cached", ["multiplicity", "--module", "corpus:maximal_ideal", "--epsilon",
                             "--cache-dir", {cache_dir!r}]),
]:
    code = reesdensity.cli.main(argv)
    jobs[job] = [code, [name for name in watched if name in sys.modules]]
print(json.dumps(jobs))
""")
    engines = ["csv", "reesdensity.dependence", "reesdensity.multiplicity"]
    assert loaded == {
        "import": [None, []],
        "density": [0, ["csv"]],
        "check": [0, engines],
        "multiplicity": [0, engines],
        "multiplicity-cached": [0, engines],
    }
    assert any(Path(cache_dir).iterdir())


DENSITY_LOADS = {
    "check": (["check", "--sub", "corpus:maximal_ideal", "--sup", "corpus:maximal_ideal",
               "--ladder=1,2,3"], False),
    "multiplicity --mixed --extended": (
        ["multiplicity", "--module", "corpus:maximal_ideal", "--mixed", "--extended"], False),
    "density": (["density", "--module", "corpus:ideal_x2_xy", "--ladder=1,2,3"], True),
    "multiplicity --epsilon": (
        ["multiplicity", "--module", "corpus:maximal_ideal", "--epsilon"], True),
}


@pytest.mark.parametrize("job", list(DENSITY_LOADS))
def test_cli_loads_density_only_for_density_work(job, tmp_path):
    # the invariants decide without the density engine: a check or mixed job
    # never loads it, while a density job and the epsilon cross-check do;
    # each job runs in a fresh interpreter
    argv, wanted = DENSITY_LOADS[job]
    loaded = fresh_python(f"""
import contextlib, io, json, os, sys
os.chdir({str(tmp_path)!r})
import reesdensity.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = reesdensity.cli.main({argv!r})
print(json.dumps([code, "reesdensity.density" in sys.modules]))
""")
    assert loaded == [0, wanted]


def test_corpus_job_reads_the_corpus_as_plain_files(tmp_path):
    # the bundled corpus is a directory beside io.py, so a corpus job needs no
    # importlib.resources; -S keeps site from preloading it
    loaded = fresh_python(f"""
import contextlib, io, json, os, sys
os.chdir({str(tmp_path)!r})
import reesdensity.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = reesdensity.cli.main(["multiplicity", "--module", "corpus:maximal_ideal", "--mixed"])
print(json.dumps([code, "importlib.resources" in sys.modules]))
""", "-S")
    assert loaded == [0, False]


def test_no_module_imports_a_private_name_of_another():
    # a name another module needs is public and lives with its owner, so no
    # `from .<module> import _<name>`, at top level or inside a function
    package = Path(__file__).parents[1] / "src" / "reesdensity"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if node.level == 0 and not source.startswith("reesdensity"):
                continue
            offenders += [f"{path.name}: from {'.' * node.level}{source} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _readme_commands() -> list[list[str]]:
    """argv of each command in the README's first ``sh`` block of "Command line"."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [shlex.split(line)[1:] for line in lines]


def test_cli_readme_examples_run(tmp_path, monkeypatch, capsys):
    # every output path of the examples is relative, so it lands in tmp_path
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands[0][:2] == ["density", "--module"]
    for argv in commands:
        assert main(argv) == 0, argv
    assert (tmp_path / "densities.epsilon.csv").exists()


def test_cli_corpus_lists_and_shows(capsys):
    assert main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "maximal_ideal" in out
    assert main(["corpus", "--show", "maximal_ideal"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["module"]["ring"]["variables"] == ["x", "y"]


def test_cli_density_json_identical_between_cold_and_warm_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = write_doc(tmp_path, GOOD_DOC)
    cache_dir = tmp_path / "cache"
    args = [
        "density", "--module", str(path), "--kind", "epsilon", "--nmax", "12",
        "--grid", "0:2:1/2", "--json-out", str(tmp_path / "out.json"),
        "--cache-dir", str(cache_dir),
    ]
    assert main(args) == 0
    cold = (tmp_path / "out.epsilon.json").read_bytes() if (tmp_path / "out.epsilon.json").exists() else (tmp_path / "out.json").read_bytes()
    assert any(cache_dir.iterdir())
    assert main(args) == 0
    warm = (tmp_path / "out.epsilon.json").read_bytes() if (tmp_path / "out.epsilon.json").exists() else (tmp_path / "out.json").read_bytes()
    assert cold == warm
