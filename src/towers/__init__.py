"""Exact enumeration of towers built from 1 x k horizontal pieces.

Brute-force enumeration, generating-function series, closed forms,
annihilating polynomials, recurrences guessed from terms or derived from
the annihilating polynomial and unrolled, and empirical
asymptotics, all in exact arithmetic and cross-validated against each
other.

Importing the package runs none of its modules, so a CLI command starts up
with only the modules it runs.  Its `__getattr__` (PEP 562, as in
Scientific Python's SPEC 1) binds a module named as an attribute at once
and runs it at its first attribute access (`importlib.util.LazyLoader`);
one already in `sys.modules` is served as it is.  A name in `__all__` is
read off its module.  `cli` is left to the import system, since `python -m
towers.cli` runs it as `__main__`.
"""

import importlib.util
import sys

# every module but `cli`, with the names the package exports from it
_EXPORTS = {
    "algebra": ("BivariatePolynomial", "annihilating_polynomial", "defining_polynomial_H",
                "verify_annihilator"),
    "asymptotics": ("AsymptoticEstimate", "ZeroTermError", "estimate_asymptotics"),
    "enumeration": ("BoundKind", "EnumerationQuery", "count_towers", "enumerate_towers",
                    "weight_polynomial"),
    "errors": ("ConsistencyError", "DegreeCapError", "InconsistentRecurrenceError",
               "InsufficientTermsError", "MalformedInputError", "SingularRecurrenceError",
               "UnsupportedConfigurationError"),
    "gallery": ("render_gallery",),
    "identities": ("ACCEPTANCE_SETS", "CheckResult", "verify_identities"),
    "jsonio": (),
    "model": ("PieceSet", "Rule", "Sequence", "Shape", "Tower", "ZPolynomial"),
    "polynomials": ("IntPoly",),
    "recurrences": ("Recurrence", "derive_recurrence", "extend_sequence",
                    "guess_recurrence", "sequence_from_series", "verify_recurrence"),
    "series": ("TruncatedSeries", "closed_form_dimer_towers", "closed_form_half_pyramids",
               "closed_form_pyramids", "coefficients_by_pieces", "half_pyramid_rhs",
               "piece_count_sequence", "plain_series", "series_family", "series_pyramids",
               "series_towers", "solve_half_pyramids", "weighted_series"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a module: bound now, run at its first attribute access
        full = f"{__name__}.{name}"
        value = sys.modules.get(full)
        if value is None:
            spec = importlib.util.find_spec(full)
            spec.loader = importlib.util.LazyLoader(spec.loader)
            value = sys.modules[full] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(value)
    elif name in _MODULE_OF:
        value = getattr(__getattr__(_MODULE_OF[name]), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
