"""Exact density functions, multiplicities, and integral-dependence checks
for term-generated graded submodules of graded free modules over polynomial
rings.

Public names load on first use (PEP 562), so a job imports only the
submodules it runs: ``import reesdensity`` alone loads none of them.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "backend": ("BACKEND",),
    "core": (
        "FitNotConvergedError", "GradedFreeModule", "InputError", "InternalInvariantError",
        "NotSubmoduleError", "RankMismatchError", "RingSpec", "TermModule",
        "ideal_module", "is_submodule", "membership", "product", "term_module", "unit_module",
        "zero_module",
    ),
    "counting": ("LengthLadder", "count_ideal_degree", "length_component", "power", "saturate"),
    "density": (
        "ChamberDecomposition", "DensityGrid", "cumulative_identity", "default_grid",
        "detect_chambers", "fit_piecewise", "ray_extrapolate", "sample_adic",
        "sample_epsilon", "sample_saturated", "trapezoid",
    ),
    "dependence": (
        "CriterionEvidence", "DependenceVerdict", "check_dependence",
        "direct_reduction_search", "validate_pair",
    ),
    "io": ("load_corpus_module", "load_module_file", "parse_module", "serialize_module"),
    "multiplicity": (
        "BigradedFit", "MultiplicityReport", "diagonal_multiplicity",
        "epsilon_multiplicity", "fit_bigraded_polynomial", "mixed_multiplicities",
    ),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
