"""Exact enumeration of towers built from 1 x k horizontal pieces.

Brute-force enumeration, generating-function series, closed forms,
annihilating polynomials, recurrences guessed from terms or derived from
the annihilating polynomial and unrolled, and empirical
asymptotics, all in exact arithmetic and cross-validated against each
other.

Importing the package loads none of its modules: each name in `__all__`
is imported from the module that defines it on first access (PEP 562), so
a CLI command starts up with only the modules it runs.
"""

import importlib

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
    "model": ("PieceSet", "Rule", "Shape", "Tower", "is_legal_tower"),
    "polynomials": ("IntPoly",),
    "recurrences": ("Recurrence", "Sequence", "derive_recurrence", "extend_sequence",
                    "guess_recurrence", "sequence_from_series", "verify_recurrence"),
    "series": ("TruncatedSeries", "closed_form_dimer_towers", "closed_form_half_pyramids",
               "closed_form_pyramids", "coefficients_by_pieces", "half_pyramid_rhs",
               "piece_count_sequence", "series_family", "series_pyramids", "series_towers",
               "solve_half_pyramids", "weighted_series"),
    "zpoly": ("ZPolynomial",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
