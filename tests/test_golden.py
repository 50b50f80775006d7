"""Golden ``--json-out`` payloads: the CLI must reproduce them byte for byte.

Each case runs one CLI command in-process and compares every JSON file it
writes, and its exit code, with the files under ``tests/golden/``.  A change
that alters a payload on purpose regenerates the files, as a recorded change
of specification::

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from reesdensity.cli import main
from reesdensity.io import corpus_names

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"


def _cases() -> dict[str, list[str]]:
    """{case name: argv without output paths}."""
    cases = {}
    for name in corpus_names():
        module = f"corpus:{name}"
        cases[f"multiplicity-edm.{name}"] = [
            "multiplicity", "--module", module, "--epsilon", "--diagonal", "--mixed"]
        cases[f"multiplicity-extended.{name}"] = [
            "multiplicity", "--module", module, "--mixed", "--extended"]
        cases[f"check-both-c.{name}"] = [
            "check", "--sub", module, "--sup", module, "--both-c"]
    cases["check-both-c.reduction_sub_x2_y2-in-square_maximal"] = [
        "check", "--sub", "corpus:reduction_sub_x2_y2",
        "--sup", "corpus:square_maximal", "--both-c"]
    # a not-reduction pair: two different modules, so two censuses
    cases["check-both-c.ideal_x2_xy-in-square_maximal"] = [
        "check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:square_maximal", "--both-c"]
    # ladders with step > 1: the epsilon extraction, the only reader of the
    # ladder here, normalizes by the step and reads the onset on the coarser
    # ladder; the diagonal rows come from the bigraded fit
    cases["multiplicity-ed-step2.ideal_x2_y3"] = [
        "multiplicity", "--module", "corpus:ideal_x2_y3", "--epsilon", "--diagonal",
        "--ladder", ",".join(str(n) for n in range(2, 41, 2))]
    cases["check-step3.ideal_x2_xy-in-square_maximal"] = [
        "check", "--sub", "corpus:ideal_x2_xy", "--sup", "corpus:square_maximal",
        "--ladder", ",".join(str(n) for n in range(3, 46, 3))]
    for name in ("ideal_x2_y3", "three_vars"):
        cases[f"density-fit.{name}"] = [
            "density", "--module", f"corpus:{name}", "--kind", "adic,saturated,epsilon",
            "--richardson", "--fit"]
    return cases


CASES = _cases()


def _run(case: str, out_dir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and {file name: bytes} of the JSON payloads ``case`` writes."""
    argv = CASES[case] + ["--json-out", str(out_dir / f"{case}.json")]
    if argv[0] == "density":
        argv += ["--csv-out", str(out_dir / f"{case}.csv")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, {p.name: p.read_bytes() for p in sorted(out_dir.glob(f"{case}.*json"))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_matches_golden(case, tmp_path):
    code, files = _run(case, tmp_path)
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert files, "the command wrote no payload"
    assert sorted(files) == sorted(p.name for p in GOLDEN.glob(f"{case}.*json"))
    for name, data in files.items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_every_golden_file_belongs_to_a_case():
    # a file or exit code of a renamed or dropped case would otherwise sit
    # unchecked; ``_regenerate`` deletes such files
    assert sorted(json.loads(EXIT_CODES.read_text())) == sorted(CASES)
    stale = [
        p.name for p in GOLDEN.iterdir()
        if p != EXIT_CODES and not any(p.match(f"{case}.*json") for case in CASES)
    ]
    assert not stale, f"golden files of no case: {stale}"


def _regenerate() -> None:
    """Rewrite every case's files and exit code, and delete files of no case."""
    GOLDEN.mkdir(exist_ok=True)
    codes, written = {}, {EXIT_CODES.name}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            codes[case], files = _run(case, Path(tmp))
            for name, data in files.items():
                (GOLDEN / name).write_bytes(data)
            written.update(files)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    for path in GOLDEN.iterdir():
        if path.name not in written:
            path.unlink()


if __name__ == "__main__":
    _regenerate()
