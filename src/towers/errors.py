"""Exceptions shared by more than one module."""


class MalformedInputError(ValueError):
    """Raw input is structurally invalid (e.g. an interval with right <= left).

    Distinct from a well-formed configuration that merely fails a legality
    check; legality checks return False instead of raising.
    """


class UnsupportedConfigurationError(ValueError):
    """The requested piece-set / rule combination has no supported analysis."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class DegreeCapError(RuntimeError):
    """Polynomial elimination exceeded the supported degree bounds."""


class InsufficientTermsError(ValueError):
    """Too few terms for the requested operation (distinct from a failed guess)."""


class SingularRecurrenceError(RuntimeError):
    """The leading coefficient p_r(n) vanishes at an index needed for unrolling."""


class InconsistentRecurrenceError(RuntimeError):
    """A division during unrolling was not exact: the recurrence does not govern the data."""
