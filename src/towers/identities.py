"""End-to-end identity verification: every cross-module check in one place.

Each check pits two independent routes against each other (brute-force
enumeration vs series coefficients, closed forms vs series, annihilators vs
series, guessed recurrences vs fresh series terms).  A check is its name
plus the stream of its counterexamples, in the order they are met: it
passes iff the stream is empty, and a failure reports the first one.
`verify_identities` with default bounds is the package's own acceptance
run.
"""

from __future__ import annotations

from collections.abc import Iterator

from .algebra import annihilating_polynomial
from .enumeration import BoundKind, EnumerationQuery, count_towers, weight_polynomial
from .model import PieceSet, Rule, Sequence, Shape, Value, ZPolynomial
from .recurrences import (
    InconsistentRecurrenceError,
    SingularRecurrenceError,
    extend_sequence,
    guess_recurrence,
    sequence_from_series,
)
from .series import (
    TruncatedSeries,
    closed_form_dimer_towers,
    closed_form_half_pyramids,
    closed_form_pyramids,
    coefficients_by_pieces,
    half_pyramid_rhs,
    series_family,
    weighted_series,
)

__all__ = ["CheckResult", "verify_identities", "ACCEPTANCE_SETS"]

ACCEPTANCE_SETS: tuple[tuple[int, ...], ...] = ((2,), (3,), (1, 2), (2, 3), (1, 2, 3))

_SHAPES = (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER)

_GUESS_TERMS, _HOLDOUT = 60, 200  # recurrences: terms guessed from, terms held out
_SERIES_ORDER = 200  # structure and annihilator checks
_CLOSED_FORM_SIZES = range(1, 6)  # single sizes k with closed-form (half-)pyramid counts
_CLOSED_FORM_TERMS = 20  # piece counts n compared with the closed forms

Family = dict[Shape, TruncatedSeries]
Oracle = dict[Shape, dict[int, ZPolynomial]]


class CheckResult(Value):
    """One named check and its first counterexample; it passed iff there is none."""

    __slots__ = _fields = ("name", "detail")
    name: str
    detail: str

    def __init__(self, name: str, detail: str = "") -> None:
        super().__init__(name, detail)

    @property
    def passed(self) -> bool:
        return not self.detail


def _check(name: str, counterexamples: Iterator[str]) -> CheckResult:
    """The check `name`, with the first of its counterexamples, if any, as the detail."""
    return CheckResult(name, next(counterexamples, ""))


def _label(pieces: PieceSet, shape: Shape | None = None) -> str:
    label = "S={%s} %s" % (",".join(map(str, pieces.sizes)), pieces.rule.value)
    return label if shape is None else f"{label} {shape.value}"


def _counts(series: TruncatedSeries, weights: dict[int, ZPolynomial]) -> Iterator[str]:
    for area, weight in weights.items():
        count = weight.eval_ones()
        if count != series.coeffs[area]:
            yield f"area {area}: enumerator {count} != series {series.coeffs[area]}"


def _dimer_pieces(pieces: PieceSet, max_pieces: int) -> Iterator[str]:
    """Piece-count spot check of the enumerator against the dimer closed forms."""
    counts = count_towers(
        EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_PIECE_COUNT, max_pieces)
    )
    base = closed_form_dimer_towers(pieces.rule, 2)  # n pieces: base^(n-1)
    for n in range(1, max_pieces + 1):
        if counts[n] != closed_form_dimer_towers(pieces.rule, n):
            yield f"n={n}: enumerator {counts[n]} != {base}^{n - 1}"


def _weighted(
    pieces: PieceSet, shape: Shape, plain: TruncatedSeries, weights: dict[int, ZPolynomial],
    max_area: int,
) -> Iterator[str]:
    table = weighted_series(pieces, max_area, shape)
    for area, weight in weights.items():
        if weight != table[area]:
            yield f"area {area}: enumerator {weight!r} != series {table[area]!r}"
    if tuple(z.eval_ones() for z in table) != plain.coeffs[: len(table)]:
        yield "z:=1 does not recover the plain series"


def _structure(pieces: PieceSet, family: Family) -> Iterator[str]:
    """Fixed-point residual plus the coefficientwise 0 <= H <= P <= M chain."""
    h, p, m = (TruncatedSeries(family[shape].coeffs, _SERIES_ORDER) for shape in _SHAPES)
    residual = half_pyramid_rhs(h, pieces) - h
    for n, c in enumerate(residual.coeffs):
        if c:
            yield f"H-equation residual {c} at t^{n}"
    for n in range(_SERIES_ORDER + 1):
        if not (0 <= h.coeffs[n] <= p.coeffs[n] <= m.coeffs[n]):
            yield f"ordering fails at t^{n}: H={h.coeffs[n]} P={p.coeffs[n]} M={m.coeffs[n]}"


def _closed_form_pyramids(k: int, plain: dict[PieceSet, Family]) -> Iterator[str]:
    pieces = PieceSet.of(k)
    half_counts = coefficients_by_pieces(plain[pieces][Shape.HALF_PYRAMID], pieces)
    pyr_counts = coefficients_by_pieces(plain[pieces][Shape.PYRAMID], pieces)
    for n in range(1, _CLOSED_FORM_TERMS + 1):
        if half_counts[n - 1] != closed_form_half_pyramids(k, n):
            yield f"half-pyramids k={k} n={n}: series {half_counts[n - 1]}"
        if pyr_counts[n - 1] != closed_form_pyramids(k, n):
            yield f"pyramids k={k} n={n}: series {pyr_counts[n - 1]}"


def _closed_form_dimers(rule: Rule, plain: dict[PieceSet, Family]) -> Iterator[str]:
    pieces = PieceSet.of(2, rule=rule)
    by_pieces = coefficients_by_pieces(plain[pieces][Shape.TOWER], pieces)
    for n in range(1, _CLOSED_FORM_TERMS + 1):
        if by_pieces[n - 1] != closed_form_dimer_towers(rule, n):
            yield f"dimer towers {rule.value} n={n}: series {by_pieces[n - 1]}"


def _annihilator(pieces: PieceSet, shape: Shape, series: TruncatedSeries) -> Iterator[str]:
    """`annihilating_polynomial` raises unless Q vanishes on the shared series."""
    try:
        annihilating_polynomial(pieces, shape, TruncatedSeries(series.coeffs, _SERIES_ORDER))
    except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
        yield f"{type(exc).__name__}: {exc}"


def _guess(series: TruncatedSeries) -> Iterator[str]:
    """Guess from the first terms, then replay the guess over the held-out ones.

    Guessing verifies the recurrence on the terms it was guessed from, and
    a replay that matches every held-out term proves it on the rest.
    """
    full = sequence_from_series(TruncatedSeries(series.coeffs, _GUESS_TERMS + _HOLDOUT))
    prefix = Sequence(full.offset, full.terms[:_GUESS_TERMS], full.label)
    # The tower sequences for mixed piece sets need recurrences as large
    # as order 7, degree 5; that shape saturates 60 terms exactly when
    # the in-search guard is 5 (the 200-term holdout is the real
    # validation).
    rec = guess_recurrence(prefix, max_order=7, max_degree=5, guard=5)
    if rec is None:
        yield f"no recurrence found in {_GUESS_TERMS} terms"
        return
    try:
        replay = extend_sequence(rec, prefix, len(full))
    except (SingularRecurrenceError, InconsistentRecurrenceError) as exc:
        yield f"extension stops: {exc}"
        return
    for i, (a, b) in enumerate(zip(replay.terms, full.terms)):
        if a != b:
            yield f"extension diverges from the series at n={full.offset + i}"


def verify_identities(max_area: int = 12, max_pieces: int = 7) -> list[CheckResult]:
    """Run every cross-module identity check at desk scale.

    `max_area` bounds the enumerator-vs-series comparisons, plain and
    weighted; `max_pieces` the piece-count spot checks.  Each piece set's
    plain H, P and M are solved once and shared by every check that reads
    them, and each set and shape is enumerated once: the oracle's weight
    table gives the plain counts by setting every z to 1.
    """
    acceptance = [PieceSet(sizes) for sizes in ACCEPTANCE_SETS]
    noalign_dimer = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
    checked = acceptance + [noalign_dimer]
    order = max(_GUESS_TERMS + _HOLDOUT, max_area)
    plain: dict[PieceSet, Family] = {pieces: series_family(pieces, order) for pieces in checked}
    for pieces in map(PieceSet.of, _CLOSED_FORM_SIZES):
        # the closed forms read H and P only; the order stays, so that
        # `coefficients_by_pieces` checks as many terms off the k-grid
        if pieces not in plain:
            plain[pieces] = series_family(pieces, order, through=Shape.PYRAMID)
    oracle: dict[PieceSet, Oracle] = {}
    for pieces in checked:
        queries = {s: EnumerationQuery(pieces, s, BoundKind.BY_AREA, max_area) for s in _SHAPES}
        oracle[pieces] = {s: weight_polynomial(q) for s, q in queries.items()}

    results = [_check(f"counts[{_label(p, s)}]", _counts(plain[p][s], oracle[p][s]))
               for p in checked for s in _SHAPES]
    results += (_check(f"dimer-pieces[{_label(p)}]", _dimer_pieces(p, max_pieces))
                for p in (PieceSet.of(2), noalign_dimer))
    results += (_check(f"weighted[{_label(p, s)}]",
                       _weighted(p, s, plain[p][s], oracle[p][s], max_area))
                for p in acceptance for s in _SHAPES)
    results += (_check(f"structure[{_label(p)}]", _structure(p, plain[p])) for p in checked)
    results += (_check(f"closed-form[k={k}]", _closed_form_pyramids(k, plain))
                for k in _CLOSED_FORM_SIZES)
    results += (_check(f"closed-form[dimer {r.value}]", _closed_form_dimers(r, plain))
                for r in (Rule.ALL_INTERFACES, Rule.NO_EXACT_ALIGNMENT))
    results += (_check(f"annihilator[{_label(p, s)}]", _annihilator(p, s, plain[p][s]))
                for p in checked for s in _SHAPES)
    results += (_check(f"guess[{_label(p, s)}]", _guess(plain[p][s]))
                for p in checked for s in _SHAPES)
    return results
