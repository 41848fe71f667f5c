"""Exceptions shared by more than one module."""


class MalformedInputError(ValueError):
    """A JSON document read by `jsonio` is structurally invalid.

    Raised for a document of the wrong shape (not an object, a missing
    field, a field of the wrong type) or for a term that is not an integer.
    """


class UnsupportedConfigurationError(ValueError):
    """The requested piece-set / rule combination has no supported analysis."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class InsufficientTermsError(ValueError):
    """Too few terms for the requested operation (distinct from a failed guess)."""


class SingularRecurrenceError(RuntimeError):
    """The leading coefficient p_r(n) vanishes at an index needed for unrolling."""


class InconsistentRecurrenceError(RuntimeError):
    """A division during unrolling was not exact: the recurrence does not govern the data."""
