"""Command-line surface: density, multiplicity, check, corpus.

Exit codes: 0 success, 2 input error, 3 undetermined verdict or fit that did
not converge, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .core import FitNotConvergedError, InputError, InternalInvariantError, TermModule
from .counting import MAX_LADDER_N, LengthLadder, normalize_ladder
from .io import (
    chambers_payload,
    corpus_description,
    corpus_names,
    dump_json,
    fraction_str,
    grid_payload,
    load_corpus_module,
    load_module_file,
    parse_fraction,
    polynomial_str,
    report_payload,
    verdict_payload,
    write_density_csv,
    write_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNDETERMINED = 3
EXIT_INVARIANT = 4


def _flag(flag: str, rule, *args):
    """``rule(*args)``, its ``InputError`` prefixed with the flag it reads."""
    try:
        return rule(*args)
    except InputError as exc:
        raise InputError(f"{flag}: {exc}") from exc


def _parse_ladder_options(args, nmax_ladder=None):
    """The n ladder of ``--ladder`` and ``--nmax``, None when not given (the
    engine default), refused by the engine's rule before any work.
    ``nmax_ladder`` builds the ladder from ``--nmax`` (1 to ``MAX_LADDER_N``)
    where ``--nmax`` tops it; ``--ladder`` wins over it.  ``check`` passes
    none: its ``--nmax`` bounds the certificate search.
    """
    if nmax_ladder and args.nmax is not None and not 1 <= args.nmax <= MAX_LADDER_N:
        raise InputError(f"--nmax must lie in [1, MAX_LADDER_N = {MAX_LADDER_N}], "
                         f"got {args.nmax}")
    if args.ladder:
        try:
            ladder = tuple(int(part) for part in args.ladder.split(",") if part.strip())
        except ValueError as exc:
            raise InputError(f"bad --ladder {args.ladder!r}: {exc}") from exc
        return _flag("--ladder", normalize_ladder, ladder, None)
    return nmax_ladder(args.nmax) if args.nmax is not None and nmax_ladder else None


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    from .density import arithmetic_grid

    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"bad --grid {text!r}; expected LO:HI:STEP")
    flag = f"--grid {text!r}"
    return _flag(flag, arithmetic_grid, *(_flag(flag, parse_fraction, p) for p in parts))


def _scaled_ladder(n_max: int, rungs: int = 5) -> tuple[int, ...]:
    """Rungs evenly spaced up to n_max, mirroring the 8..40 default shape."""
    # j = rungs gives n_max itself, so the ladder tops at n_max
    return tuple(sorted({max(1, round(j * n_max / rungs)) for j in range(1, rungs + 1)}))


def _load_module(spec: str) -> TermModule:
    if spec.startswith("corpus:"):
        return load_corpus_module(spec[len("corpus:") :])
    return load_module_file(spec)


def _out_path(base: Optional[str], module_spec: str, kind: str, many: bool, suffix: str) -> Path:
    if base is None:
        stem = Path(module_spec.removeprefix("corpus:")).stem
        return Path(f"{stem}.{kind}{suffix}")
    path = Path(base)
    if many:
        return path.with_suffix(f".{kind}{suffix}")
    return path


def _check_outputs(*paths) -> None:
    """Fail before computing when an output path's directory is missing."""
    for path in paths:
        if path and not Path(path).parent.is_dir():
            raise InputError(f"cannot write {path}: no directory {Path(path).parent}")


# -- density -------------------------------------------------------------------


def _cmd_density(args) -> int:
    from .density import default_grid, fit_piecewise
    from .density import sample_adic, sample_epsilon, sample_saturated

    module = _load_module(args.module)
    samplers = {"adic": sample_adic, "saturated": sample_saturated, "epsilon": sample_epsilon}
    kinds = tuple(k.strip() for k in args.kind.split(",") if k.strip())
    if not kinds or len(set(kinds)) != len(kinds) or not set(kinds) <= set(samplers):
        raise InputError(
            f"bad --kind {args.kind!r}: unknown density kind, repeated kind or "
            f"empty list; choose distinct kinds from {','.join(samplers)}"
        )
    if args.fit and "adic" not in kinds:
        raise InputError(f"--fit fits the adic density only; add adic to --kind {args.kind!r}")
    ladder = _parse_ladder_options(args, _scaled_ladder)
    # either grid is refused here when oversized, before anything is written
    grid = _parse_grid(args.grid) if args.grid else default_grid(module)
    many = len(kinds) > 1
    csv_paths = {k: _out_path(args.csv_out, args.module, k, many, ".csv") for k in kinds}
    json_paths = {k: args.json_out and _out_path(args.json_out, args.module, k, many, ".json")
                  for k in kinds}
    _check_outputs(*csv_paths.values(), *json_paths.values())
    table = LengthLadder(module, args.cache_dir)
    # the fit reads its rows in ascending n on a fresh ladder, and a fit that
    # does not converge is refused before any file is written
    fit = fit_piecewise(module, table=table) if args.fit else None
    for kind in kinds:
        grid_obj = samplers[kind](module, grid, ladder, table=table, richardson=args.richardson)
        csv_path = csv_paths[kind]
        write_density_csv(grid_obj, csv_path)
        print(f"{kind}: ladder {list(grid_obj.ladder)}, "
              f"{len(grid_obj.xs)} grid points, csv -> {csv_path}")
        payload = grid_payload(grid_obj)
        if kind == "adic" and args.fit:
            payload["chambers"] = chambers_payload(fit)
            for k, (ch, poly) in enumerate(zip(fit.chambers, fit.polynomials)):
                if k:
                    print(f"  at x = {fit.breakpoints[k - 1]}: "
                          f"{fraction_str(fit.breakpoint_values[k - 1])}")
                print(f"  {ch}: {polynomial_str(poly)}")
        json_path = json_paths[kind]
        if json_path:
            write_json(json_path, payload)
            print(f"{kind}: json -> {json_path}")
    return EXIT_OK


# -- multiplicity ----------------------------------------------------------------


def _cmd_multiplicity(args) -> int:
    from .multiplicity import diagonal_from_fit, epsilon_multiplicity
    from .multiplicity import fit_or_error, mixed_from_fit, require_slope

    wants = [name for name, on in (
        ("epsilon", args.epsilon), ("diagonal", args.diagonal), ("mixed", args.mixed)
    ) if on] or ["epsilon"]
    # an option no requested report reads is refused, never ignored
    if args.extended and "mixed" not in wants:
        raise InputError("--extended applies to the mixed multiplicities only; add --mixed")
    if args.c is not None and "diagonal" not in wants and "mixed" not in wants:
        raise InputError("--c is the slope of the diagonal and mixed multiplicities; "
                         "add --diagonal or --mixed")
    for flag, value in (("--ladder", args.ladder), ("--nmax", args.nmax)):
        if value is not None and "epsilon" not in wants:
            raise InputError(f"{flag} sets the epsilon n ladder, which no other report "
                             "reads; add --epsilon")
    module = _load_module(args.module)
    if "diagonal" in wants or "mixed" in wants:
        c = _flag("--c", require_slope, module.max_degree, args.c)
    ladder = _parse_ladder_options(args, lambda n: tuple(range(1, n + 1)))
    _check_outputs(args.json_out)
    table = LengthLadder(module, args.cache_dir)
    reports = []
    status_worst = EXIT_OK
    fit = None
    for name in wants:
        if name != "epsilon" and fit is None:
            # one fit, read by both the diagonal and the mixed report, made
            # after epsilon has asked for the powers in ascending order
            fit = fit_or_error(module, c, table)
        if name == "epsilon":
            report = epsilon_multiplicity(module, ladder, table=table)
            exact = report.values["exact"]
            print(f"epsilon: status {report.status}, "
                  f"estimate {fraction_str(report.values['estimate'])}"
                  + (f", exact {fraction_str(exact)}" if exact is not None else ""))
        elif name == "diagonal":
            report = diagonal_from_fit(fit, c)
            for version in ("a_version", "s_version"):
                v = report.values[version]
                label = "base ring" if version == "a_version" else "extension"
                if v is None:
                    print(f"diagonal ({label}): undetermined ({report.diagnostics['reason']})")
                else:
                    print(f"diagonal ({label}): dimension {v['dimension']}, "
                          f"multiplicity {fraction_str(v['multiplicity'])}")
        else:
            report = mixed_from_fit(fit, module.ambient.ring.dim, args.extended)
            if report.values["e"] is None:
                print(f"mixed: {report.status} ({report.diagnostics.get('reason')})")
            else:
                es = ", ".join(fraction_str(v) for v in report.values["e"])
                print(f"mixed: status {report.status}, e = [{es}]")
        reports.append(report)
        if report.status == "undetermined":
            status_worst = EXIT_UNDETERMINED
    if args.json_out:
        payload = {
            "schema_version": 1,
            "reports": [report_payload(r) for r in reports],
        }
        write_json(args.json_out, payload)
        print(f"json -> {args.json_out}")
    return status_worst


# -- check -----------------------------------------------------------------------


def _cmd_check(args) -> int:
    from .dependence import check_dependence, require_search_bound
    from .multiplicity import SlopeError

    sub = _load_module(args.sub)
    sup = _load_module(args.sup)
    _flag("--nmax", require_search_bound, args.nmax)
    ladder = _parse_ladder_options(args)
    _check_outputs(args.json_out)
    try:
        # the pair is checked once, before the slope: its refusals are not the slope's
        verdict = check_dependence(
            sub, sup, c=args.c, n_max=args.nmax, ladder=ladder, cache_dir=args.cache_dir,
            robustness_c=args.both_c,
        )
    except SlopeError as exc:
        raise InputError(f"--c: {exc}") from exc
    print(f"verdict: {verdict.verdict}")
    if verdict.certificate is not None:
        print(f"certificate: M^{verdict.certificate + 1} = N*M^{verdict.certificate}")
    print(f"{'criterion':<38} {'N':<22} {'M':<22} match")
    for cr in verdict.criteria:
        left = "n/a" if cr.left is None else _short(cr.left)
        right = "n/a" if cr.right is None else _short(cr.right)
        match = "-" if cr.match is None else ("yes" if cr.match else "NO")
        print(f"{cr.label:<38} {left:<22} {right:<22} {match}")
    if args.json_out:
        write_json(args.json_out, verdict_payload(verdict))
        print(f"json -> {args.json_out}")
    return EXIT_OK if verdict.verdict != "undetermined" else EXIT_UNDETERMINED


def _short(value) -> str:
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_short(v) for v in value) + ")"
    return str(value)


# -- corpus ---------------------------------------------------------------------


def _cmd_corpus(args) -> int:
    if args.show:
        module = load_corpus_module(args.show)
        sys.stdout.write(dump_json({"module": module}))
        return EXIT_OK
    names = corpus_names()
    width = max((len(n) for n in names), default=0)
    for name in names:
        print(f"{name:<{width}}  {corpus_description(name)}")
    return EXIT_OK


# -- entry ------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", help="persist power caches in this directory")
    parser.add_argument("--json-out", help="write a JSON payload here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reesdensity",
        description="Exact density functions, multiplicities, and integral-"
                    "dependence checks for term-generated graded modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_density = sub.add_parser("density", help="sample density functions")
    p_density.add_argument("--module", required=True,
                           help="module document path (or corpus:<name>)")
    p_density.add_argument("--kind", default="adic",
                           help="comma list from adic,saturated,epsilon")
    p_density.add_argument("--nmax", type=int,
                           help="top of the n ladder (5 evenly spaced rungs)")
    p_density.add_argument("--ladder", help="explicit comma-separated n ladder")
    p_density.add_argument("--grid",
                           help="x grid as LO:HI:STEP (rationals); write a "
                                "negative LO as --grid=-1:4:1/4")
    p_density.add_argument("--richardson", action="store_true",
                           help="two-point Richardson extrapolation in 1/n")
    p_density.add_argument("--fit", action="store_true",
                           help="fit exact chamber polynomials (adic only)")
    p_density.add_argument("--csv-out", help="CSV output path")
    _add_common(p_density)
    p_density.set_defaults(func=_cmd_density)

    p_mult = sub.add_parser("multiplicity", help="epsilon/diagonal/mixed multiplicities")
    p_mult.add_argument("--module", required=True,
                        help="module document path (or corpus:<name>)")
    p_mult.add_argument("--epsilon", action="store_true", help="epsilon multiplicity")
    p_mult.add_argument("--diagonal", action="store_true",
                        help="diagonal multiplicities along m = c*n")
    p_mult.add_argument("--mixed", action="store_true", help="mixed multiplicities")
    p_mult.add_argument("--extended", action="store_true",
                        help="extended (cumulative) mixed multiplicities")
    p_mult.add_argument("--c", type=int, help="diagonal slope (default d_M + 1)")
    p_mult.add_argument("--nmax", type=int, help="top of the n ladder (1..nmax)")
    p_mult.add_argument("--ladder", help="explicit comma-separated n ladder")
    _add_common(p_mult)
    p_mult.set_defaults(func=_cmd_multiplicity)

    p_check = sub.add_parser("check", help="decide integral dependence N <= M")
    p_check.add_argument("--sub", required=True, help="candidate reduction N")
    p_check.add_argument("--sup", required=True, help="module M")
    p_check.add_argument("--c", type=int, help="diagonal slope (default d+1)")
    p_check.add_argument("--nmax", type=int, default=12,
                         help="certificate search bound (default 12)")
    p_check.add_argument("--ladder", help="explicit comma-separated n ladder")
    p_check.add_argument("--both-c", action="store_true",
                         help="repeat the diagonal criteria at c + 1")
    _add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_corpus = sub.add_parser("corpus", help="list bundled example modules")
    p_corpus.add_argument("--show", help="print one corpus module document")
    p_corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FitNotConvergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDETERMINED
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
