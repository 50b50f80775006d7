"""Run one ``reesdensity`` CLI job with per-layer spans and counters.

Usage: python3 perfbench/layers.py STATS_JSON CLI_ARG...

The wrappers are installed from outside the package.  The package binds
kernels by name (``from .backend import divides_any``), so each wrapper
replaces the original object under every name it is bound to, in every
``reesdensity`` module; a wrapper on ``backend`` alone would see nothing.
The kernel implementation modules are left alone, so calls count the same
whichever backend is active.  A function that no longer exists is listed
as missing and reported as n/a, never a crash.

A span's self time is its duration minus the durations of the wrapped
spans it directly contains.  Besides ``[calls, total_s, self_s]`` per label,
the stats file records how often each label was called directly under each
other label, plus a few counters (census terms, bytes written, stand-in
time, memo size).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# (label, module, attribute or Class.method)
SPECS = (
    ("backend.minimalize_exponents", "reesdensity.backend", "minimalize_exponents"),
    ("backend.divides_any", "reesdensity.backend", "divides_any"),
    ("backend.product_exponents", "reesdensity.backend", "product_exponents"),
    ("core.quotient_monomials", "reesdensity.core", "quotient_monomials"),
    ("core.membership", "reesdensity.core", "membership"),
    ("core.power", "reesdensity.core", "PowerCache.power"),
    ("core.saturate", "reesdensity.core", "saturate"),
    ("core.module_from_payload", "reesdensity.core", "module_from_payload"),
    ("counting.count_ideal_degree", "reesdensity.counting", "count_ideal_degree"),
    ("counting.length_component", "reesdensity.counting", "length_component"),
    ("counting.ladder.length", "reesdensity.counting", "LengthLadder.length"),
    ("density.sample", "reesdensity.density", "sample_adic"),
    ("density.sample", "reesdensity.density", "sample_saturated"),
    ("density.sample", "reesdensity.density", "sample_epsilon"),
    ("density.ray_extrapolate", "reesdensity.density", "ray_extrapolate"),
    ("density.fit_piecewise", "reesdensity.density", "fit_piecewise"),
    ("polyfit.stabilized_difference", "reesdensity.polyfit", "stabilized_difference"),
    ("polyfit.fit_poly2_triangular", "reesdensity.polyfit", "fit_poly2_triangular"),
    ("multiplicity.epsilon", "reesdensity.multiplicity", "epsilon_multiplicity"),
    ("multiplicity.diagonal", "reesdensity.multiplicity", "diagonal_multiplicity"),
    ("multiplicity.bigraded_fit", "reesdensity.multiplicity", "fit_bigraded_polynomial"),
    ("dependence.check", "reesdensity.dependence", "check_dependence"),
    ("dependence.reduction_search", "reesdensity.dependence", "direct_reduction_search"),
    ("io.parse_module", "reesdensity.io", "parse_module"),
    ("io.write_json", "reesdensity.io", "write_json"),
    ("io.write_density_csv", "reesdensity.io", "write_density_csv"),
    ("cli.main", "reesdensity.cli", "main"),
)

# Where the kernels are defined; their internal calls are not layer calls.
KERNEL_MODULES = ("reesdensity._kernels_py", "reesdensity._speedups")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [label, time spent in child spans]
        self.spans: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.under: Counter = Counter()  # (label, parent label) -> calls
        self.counters: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, label, fn, on_enter=None, on_exit=None):
        stats = self.spans.setdefault(label, [0, 0.0, 0.0])
        stack, under, clock = self.stack, self.under, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            under[label, stack[-1][0] if stack else None] += 1
            if on_enter is not None:
                on_enter(args, kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if on_exit is not None:
                    on_exit(args, kwargs, result, elapsed)

        return wrapper

    def install(self, label, module_name, attr, on_enter=None, on_exit=None):
        try:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.missing.append(label)
            return
        wrapper = self.wrap(label, original, on_enter, on_exit)
        if path:
            setattr(owner, name, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "reesdensity" or mod_name in KERNEL_MODULES:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli._SAMPLERS
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper

    def payload(self) -> dict:
        return {
            "spans": self.spans,
            "under": [[label, parent, n] for (label, parent), n in self.under.items()],
            "counters": dict(self.counters),
            "missing": sorted(set(self.missing)),
        }


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def install_all(tracer: Tracer) -> None:
    importlib.import_module("reesdensity.cli")  # loads every consumer module
    hooks = {}
    counters = tracer.counters

    def count_terms(args, kwargs, result, elapsed):
        if result is not None:
            counters["core.quotient_monomials.terms"] += len(result)

    hooks["core.quotient_monomials"] = (None, count_terms)

    def file_bytes(label, index, name):
        def on_exit(args, kwargs, result, elapsed):
            path = _arg(args, kwargs, index, name)
            if path is not None and os.path.isfile(path):
                counters[f"{label}.bytes"] += os.path.getsize(path)

        return on_exit

    hooks["io.write_json"] = (None, file_bytes("io.write_json", 0, "path"))
    hooks["io.write_density_csv"] = (None, file_bytes("io.write_density_csv", 1, "path"))

    # Stand-in time: epsilon_multiplicity on a module that is neither side of
    # the enclosing dependence check (the degree-c truncations).
    pairs: list[tuple] = []

    def enter_check(args, kwargs):
        pairs.append((_arg(args, kwargs, 0, "sub"), _arg(args, kwargs, 1, "sup")))

    def exit_check(args, kwargs, result, elapsed):
        pairs.pop()

    def exit_epsilon(args, kwargs, result, elapsed):
        module = _arg(args, kwargs, 0, "m")
        if pairs and all(module is not side for side in pairs[-1]):
            counters["dependence.stand_in_s"] += elapsed

    hooks["dependence.check"] = (enter_check, exit_check)
    hooks["multiplicity.epsilon"] = (None, exit_epsilon)

    for label, module_name, attr in SPECS:
        tracer.install(label, module_name, attr, *hooks.get(label, (None, None)))


def main(argv: list[str]) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install_all(tracer)
    cli = importlib.import_module("reesdensity.cli")
    try:
        return cli.main(cli_args)
    finally:
        memo = getattr(sys.modules.get("reesdensity.counting"), "_MEMO", None)
        if memo is None:
            tracer.missing.append("counting.memo_entries")
        else:
            tracer.counters["counting.memo_entries"] = len(memo)
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.payload(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
