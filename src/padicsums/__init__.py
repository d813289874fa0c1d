"""Exact p-adic oscillatory sums, local solution densities, and empirical
decay exponents for polynomial maps.

The public names below load their module on first use (PEP 562), so that
importing the package, or running one command, loads only the modules it
needs."""

from importlib import import_module

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("DecayRecord", "DecayReport", "FitResult", "degree_bound_report", "fit_alpha",
         "sup_at_level"),
        "decay",
    ),
    **dict.fromkeys(
        ("BudgetExceededError", "ConsistencyError", "ExactVanishingError", "FitError",
         "PadicSumsError", "ParseError", "PreconditionError", "SeriesCertificationError",
         "SeriesFloorError"),
        "errors",
    ),
    **dict.fromkeys(
        ("EvalRequest", "EvalResult", "PruneStats", "eval_naive", "eval_recursive",
         "eval_series", "eval_unit_directions", "primitive_directions"),
        "expsum",
    ),
    **dict.fromkeys(("PhaseHistogram", "PrimeContext", "valuation"), "padic"),
    **dict.fromkeys(
        ("BallTerm", "DegreeData", "PolyMap", "RestrictedSeries", "SchwartzBruhat",
         "check_affine_independence", "degree_data", "parse_polymap", "series_truncate"),
        "polymap",
    ),
    **dict.fromkeys(
        ("DensityTable", "StabilizationReport", "count_fibers", "fourier_check",
         "stabilization_probe"),
        "singular",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
