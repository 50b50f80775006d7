"""Module documents, JSON payloads, CSV emission, and the bundled corpus.

The on-disk module format is a small JSON document:

    {
      "schema_version": 1,
      "name": "optional",
      "description": "optional",
      "ring": {"variables": ["x", "y"]},
      "free_module": {"shifts": [0]},
      "generators": [{"exponents": [2, 0], "basis": 0}, ...]
    }

Validation failures carry the offending field path.  All emitted JSON is
deterministic (sorted keys, exact rationals as "p/q" strings, no timestamps)
so cached and fresh runs produce byte-identical files.  A payload is its
result record's fields and the schema version: the builders hand the exact
values to ``dump_json``, whose one ``jsonable`` pass converts them.

The bundled corpus is the directory ``corpus/`` next to this file: one module
document per ``<name>.json``, read as plain files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .core import (
    GradedFreeModule,
    InputError,
    InternalInvariantError,
    RankMismatchError,
    RingSpec,
    TermModule,
    require_int,
    term_module,
)

if TYPE_CHECKING:
    from .density import ChamberDecomposition, DensityGrid
    from .dependence import DependenceVerdict
    from .multiplicity import MultiplicityReport

SCHEMA_VERSION = 1


# -- fractions ----------------------------------------------------------------


def fraction_str(value) -> str:
    return str(Fraction(value))


def polynomial_str(coeffs) -> str:
    """Human-readable one-variable polynomial from low-to-high coefficients."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = fraction_str(mag)
        else:
            var = "x" if i == 1 else f"x^{i}"
            if mag == 1:
                body = var
            elif mag.denominator == 1:
                body = f"{mag}{var}"
            else:
                body = f"({fraction_str(mag)}){var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


def parse_fraction(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"not a rational number: {text!r}") from exc
    raise InputError(f"not a rational number: {text!r}")


def jsonable(obj):
    """Recursively convert exact values into JSON-safe structures."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str, float)):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, TermModule):
        return serialize_module(obj)
    # a repr would differ between runs and versions, never deterministic
    raise InternalInvariantError(f"no JSON form for type {type(obj).__name__}")


def dump_json(payload: dict) -> str:
    return json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n"


def _open_output(path, newline: str):
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload: dict) -> None:
    with _open_output(path, "\n") as fh:
        fh.write(dump_json(payload))


# -- module documents ----------------------------------------------------------


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise InputError(f"{path}: {message}")


def _require_int_at(path: str, value, name: str) -> int:
    """``core.require_int``, its error prefixed with the field path."""
    try:
        return require_int(value, name)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def parse_module(doc) -> TermModule:
    """Validate a module document and build the level-1 TermModule.

    Diagnostics name the failing field path.  The free module's rank must be
    covered by the generators: the invariants computed downstream assume a
    versal embedding with rank M = rank F, so unused basis vectors are
    rejected rather than silently accepted.
    """
    if isinstance(doc, (str, bytes)):
        # ValueError: not JSON, or bytes that do not decode; RecursionError:
        # arrays or objects nested past the interpreter's stack
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"document: invalid JSON ({exc})") from exc
    _expect(isinstance(doc, dict), "document", "must be a JSON object")
    version = doc.get("schema_version")
    _expect(version == SCHEMA_VERSION, "schema_version",
            f"must be {SCHEMA_VERSION}, got {version!r}")
    ring = doc.get("ring")
    _expect(isinstance(ring, dict), "ring", "must be an object")
    variables = ring.get("variables")
    _expect(isinstance(variables, list), "ring.variables", "must be a list of variable names")
    try:
        ring_spec = RingSpec(variables)
    except InputError as exc:
        raise InputError(f"ring.variables: {exc}") from exc
    free = doc.get("free_module")
    _expect(isinstance(free, dict), "free_module", "must be an object")
    shifts = free.get("shifts")
    _expect(isinstance(shifts, list) and shifts, "free_module.shifts",
            "must be a non-empty list of integers")
    for k, s in enumerate(shifts):
        _require_int_at("free_module.shifts", s, f"entry {k}")
    gens = doc.get("generators")
    _expect(isinstance(gens, list), "generators", "must be a list")
    _expect(bool(gens), "generators", "must be non-empty")
    d = len(variables)
    e = len(shifts)
    parsed = []
    seen_basis = set()
    for idx, gen in enumerate(gens):
        path = f"generators[{idx}]"
        _expect(isinstance(gen, dict), path, "must be an object")
        exponents = gen.get("exponents")
        _expect(isinstance(exponents, list) and len(exponents) == d, f"{path}.exponents",
                f"must be a list of {d} integers")
        for k, v in enumerate(exponents):
            _require_int_at(f"{path}.exponents", v, f"entry {k}")
        _expect(all(v >= 0 for v in exponents), f"{path}.exponents",
                "exponents must be nonnegative")
        basis = _require_int_at(f"{path}.basis", gen.get("basis"), "the basis index")
        _expect(0 <= basis < e, f"{path}.basis", f"must be an integer in [0, {e})")
        degree = sum(exponents) + shifts[basis]
        _expect(degree >= 0, path,
                f"generator has negative degree {degree}; "
                "the module must be nonnegatively graded")
        seen_basis.add(basis)
        unit = tuple(1 if k == basis else 0 for k in range(e))
        parsed.append((tuple(exponents), unit))
    if len(seen_basis) != e:
        missing = sorted(set(range(e)) - seen_basis)
        raise RankMismatchError(
            f"generators: basis vectors {missing} unused; the free module must "
            "be a versal embedding with rank M = rank F (drop unused basis "
            "vectors or add generators)"
        )
    ambient = GradedFreeModule(ring_spec, tuple(shifts))
    return term_module(ambient, 1, parsed)


def serialize_module(
    m: TermModule, name: Optional[str] = None, description: Optional[str] = None
) -> dict:
    if m.level != 1:
        raise InputError("only level-1 modules serialize to module documents")
    gens = [
        {"exponents": list(exponents), "basis": basis.index(1)}
        for exponents, basis in m.generators()
    ]
    gens.sort(key=lambda g: (g["basis"], g["exponents"]))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "ring": {"variables": list(m.ambient.ring.variables)},
        "free_module": {"shifts": list(m.ambient.shifts)},
        "generators": gens,
    }
    if name:
        doc["name"] = name
    if description:
        doc["description"] = description
    return doc


def load_module_file(path) -> TermModule:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read module file {path}: {exc}") from exc
    return parse_module(text)


# -- corpus --------------------------------------------------------------------


def _corpus_dir() -> Path:
    """The bundled module documents, package data in ``corpus/`` beside this file."""
    return Path(__file__).with_name("corpus")


def corpus_names() -> list[str]:
    return sorted(entry.stem for entry in _corpus_dir().glob("*.json"))


def load_corpus_module(name: str) -> TermModule:
    entry = _corpus_dir() / f"{name}.json"
    if not entry.is_file():
        raise InputError(
            f"unknown corpus module {name!r}; available: {', '.join(corpus_names())}"
        )
    return parse_module(entry.read_text(encoding="utf-8"))


def corpus_description(name: str) -> str:
    entry = _corpus_dir() / f"{name}.json"
    if not entry.is_file():
        return ""
    return json.loads(entry.read_text(encoding="utf-8")).get("description", "")


# -- payloads ------------------------------------------------------------------


def grid_payload(grid: DensityGrid) -> dict:
    payload = {"schema_version": SCHEMA_VERSION, **vars(grid)}
    del payload["module"]
    return payload


def report_payload(report: MultiplicityReport) -> dict:
    return {"schema_version": SCHEMA_VERSION, **vars(report)}


def verdict_payload(verdict: DependenceVerdict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        **vars(verdict),
        # always true: a certificate that contradicts a mismatch raises
        # InternalInvariantError before any verdict exists
        "consistent": True,
        "criteria": [vars(cr) for cr in verdict.criteria],
    }


def chambers_payload(fit: ChamberDecomposition) -> dict:
    # breakpoints are ints, written as strings like every other rational of
    # the fit; jsonable would keep them JSON numbers
    return {
        "schema_version": SCHEMA_VERSION,
        "breakpoints": [fraction_str(b) for b in fit.breakpoints],
        "breakpoint_values": fit.breakpoint_values,
        "chambers": [
            {"interval": ch, "polynomial": poly}
            for ch, poly in zip(fit.chambers, fit.polynomials)
        ],
        "top_degree": fit.top_degree,
        "continuity": fit.continuity,
        "diagnostics": fit.diagnostics,
    }


# -- CSV -----------------------------------------------------------------------


def write_density_csv(grid: DensityGrid, path) -> None:
    """One row per grid x: x, value at each ladder n, extrapolated, diagnostic.

    Cells are floats for plotting convenience, except that a value beyond
    the float range is written exactly, as the ``fraction_str`` p/q; the
    JSON payload keeps the exact rationals.
    """
    import csv

    def cell(value) -> "float | str":
        try:
            return float(value)
        except OverflowError:
            return fraction_str(value)

    with _open_output(path, "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["x"] + [f"n={n}" for n in grid.ladder] + ["extrapolated", "diagnostic"]
        )
        for col, x in enumerate(grid.xs):
            row = [cell(x)]
            row.extend(cell(grid.samples[n][col]) for n in grid.ladder)
            row.append(cell(grid.extrapolated[col]))
            diag = grid.diagnostics[col]
            row.append("" if diag is None else cell(diag))
            writer.writerow(row)
