"""Exact enumeration of towers built from 1 x k horizontal pieces.

Brute-force enumeration, generating-function series, closed forms,
annihilating polynomials, recurrences guessed from terms or derived from
the annihilating polynomial and unrolled, and empirical
asymptotics, all in exact arithmetic and cross-validated against each
other.
"""

from .algebra import (
    BivariatePolynomial,
    annihilating_polynomial,
    defining_polynomial_H,
    verify_annihilator,
)
from .asymptotics import AsymptoticEstimate, ZeroTermError, estimate_asymptotics
from .enumeration import (
    BoundKind,
    EnumerationQuery,
    count_towers,
    enumerate_towers,
    weight_polynomial,
)
from .errors import (
    ConsistencyError,
    DegreeCapError,
    MalformedInputError,
    UnsupportedConfigurationError,
)
from .gallery import render_gallery
from .identities import ACCEPTANCE_SETS, CheckResult, verify_identities
from .model import (
    PieceSet,
    Rule,
    Shape,
    Tower,
    is_legal_tower,
)
from .polynomials import IntPoly
from .recurrences import (
    InconsistentRecurrenceError,
    InsufficientTermsError,
    Recurrence,
    Sequence,
    SingularRecurrenceError,
    derive_recurrence,
    extend_sequence,
    guess_recurrence,
    sequence_from_series,
    verify_recurrence,
)
from .series import (
    TruncatedSeries,
    closed_form_dimer_towers,
    closed_form_half_pyramids,
    closed_form_pyramids,
    coefficients_by_pieces,
    half_pyramid_rhs,
    piece_count_sequence,
    series_family,
    series_pyramids,
    series_towers,
    solve_half_pyramids,
    weighted_series,
)
from .zpoly import ZPolynomial

__version__ = "0.1.0"
