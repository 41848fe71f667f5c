"""End-to-end identity verification: every cross-module check in one place.

Each check pits two independent routes against each other (brute-force
enumeration vs series coefficients, closed forms vs series, annihilators vs
series, guessed recurrences vs fresh series terms) and reports the first
counterexample on failure.  `verify_identities` with default bounds is the
package's own acceptance run.
"""

from __future__ import annotations

from .algebra import annihilating_polynomial
from .enumeration import BoundKind, EnumerationQuery, count_towers, weight_polynomial
from .model import PieceSet, Rule, Sequence, Shape, Value, ZPolynomial
from .recurrences import (
    SingularRecurrenceError,
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
    """One named check, whether it passed, and its first counterexample if not."""

    __slots__ = _fields = ("name", "passed", "detail")
    name: str
    passed: bool
    detail: str

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


def _config_label(pieces: PieceSet) -> str:
    return "S={%s} %s" % (",".join(map(str, pieces.sizes)), pieces.rule.value)


def _check_counts(pieces: PieceSet, family: Family, oracle: Oracle) -> list[CheckResult]:
    out = []
    for shape in _SHAPES:
        series = family[shape]
        detail = ""
        for area, weights in oracle[shape].items():
            count = weights.eval_ones()
            if count != series.coeffs[area]:
                detail = f"area {area}: enumerator {count} != series {series.coeffs[area]}"
                break
        name = f"counts[{_config_label(pieces)} {shape.value}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_weighted(
    pieces: PieceSet, plain: Family, oracle: Oracle, max_area: int
) -> list[CheckResult]:
    out = []
    for shape in _SHAPES:
        table = weighted_series(pieces, max_area, shape)
        detail = ""
        for area, weights in oracle[shape].items():
            if weights != table[area]:
                detail = f"area {area}: enumerator {weights!r} != series {table[area]!r}"
                break
        if not detail and tuple(z.eval_ones() for z in table) != plain[shape].coeffs[: len(table)]:
            detail = "z:=1 does not recover the plain series"
        name = f"weighted[{_config_label(pieces)} {shape.value}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_structure(pieces: PieceSet, family: Family) -> CheckResult:
    """Fixed-point residual plus the coefficientwise 0 <= H <= P <= M chain."""
    h, p, m = (TruncatedSeries(family[shape].coeffs, _SERIES_ORDER) for shape in _SHAPES)
    detail = ""
    residual = half_pyramid_rhs(h, pieces) - h
    for n, c in enumerate(residual.coeffs):
        if c:
            detail = f"H-equation residual {c} at t^{n}"
            break
    if not detail:
        for n in range(_SERIES_ORDER + 1):
            if not (0 <= h.coeffs[n] <= p.coeffs[n] <= m.coeffs[n]):
                detail = (
                    f"ordering fails at t^{n}: H={h.coeffs[n]} P={p.coeffs[n]} M={m.coeffs[n]}"
                )
                break
    return CheckResult(f"structure[{_config_label(pieces)}]", not detail, detail)


def _check_closed_forms(plain: dict[PieceSet, Family]) -> list[CheckResult]:
    out = []
    for k in _CLOSED_FORM_SIZES:
        pieces = PieceSet.of(k)
        family = plain[pieces]
        half_counts = coefficients_by_pieces(family[Shape.HALF_PYRAMID], pieces)
        pyr_counts = coefficients_by_pieces(family[Shape.PYRAMID], pieces)
        detail = ""
        for n in range(1, _CLOSED_FORM_TERMS + 1):
            if half_counts[n - 1] != closed_form_half_pyramids(k, n):
                detail = f"half-pyramids k={k} n={n}: series {half_counts[n - 1]}"
                break
            if pyr_counts[n - 1] != closed_form_pyramids(k, n):
                detail = f"pyramids k={k} n={n}: series {pyr_counts[n - 1]}"
                break
        out.append(CheckResult(f"closed-form[k={k}]", not detail, detail))
    for rule in (Rule.ALL_INTERFACES, Rule.NO_EXACT_ALIGNMENT):
        pieces = PieceSet.of(2, rule=rule)
        by_pieces = coefficients_by_pieces(plain[pieces][Shape.TOWER], pieces)
        detail = ""
        for n in range(1, _CLOSED_FORM_TERMS + 1):
            if by_pieces[n - 1] != closed_form_dimer_towers(rule, n):
                detail = f"dimer towers {rule.value} n={n}: series {by_pieces[n - 1]}"
                break
        out.append(CheckResult(f"closed-form[dimer {rule.value}]", not detail, detail))
    return out


def _check_annihilators(pieces: PieceSet, family: Family) -> list[CheckResult]:
    """`annihilating_polynomial` raises unless Q vanishes on the shared series."""
    out = []
    for shape in _SHAPES:
        detail = ""
        try:
            annihilating_polynomial(
                pieces, shape, TruncatedSeries(family[shape].coeffs, _SERIES_ORDER)
            )
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
        name = f"annihilator[{_config_label(pieces)} {shape.value}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_guesses(pieces: PieceSet, family: Family) -> list[CheckResult]:
    out = []
    for shape in _SHAPES:
        full = sequence_from_series(TruncatedSeries(family[shape].coeffs, _GUESS_TERMS + _HOLDOUT))
        prefix = Sequence(full.offset, full.terms[:_GUESS_TERMS], full.label)
        detail = ""
        # The tower sequences for mixed piece sets need recurrences as large
        # as order 7, degree 5; that shape saturates 60 terms exactly when
        # the in-search guard is 5 (the 200-term holdout below is the real
        # validation).
        rec = guess_recurrence(prefix, max_order=7, max_degree=5, guard=5)
        if rec is None:
            detail = f"no recurrence found in {_GUESS_TERMS} terms"
        elif not verify_recurrence(rec, full):
            detail = "guessed recurrence fails on held-out series terms"
        else:
            try:
                replay = extend_sequence(rec, prefix, len(full))
            except SingularRecurrenceError as exc:  # p_r vanishes at a held-out n
                detail = f"extension stops: {exc}"
            else:
                bad = next((i for i, (a, b) in enumerate(zip(replay.terms, full.terms)) if a != b),
                           None)
                if bad is not None:
                    detail = f"extension diverges from the series at n={full.offset + bad}"
        name = f"guess[{_config_label(pieces)} {shape.value}]"
        out.append(CheckResult(name, not detail, detail))
    return out


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

    results: list[CheckResult] = []
    for pieces in checked:
        results.extend(_check_counts(pieces, plain[pieces], oracle[pieces]))

    # piece-count spot check against the dimer closed forms
    for pieces in (PieceSet.of(2), noalign_dimer):
        counts = count_towers(
            EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_PIECE_COUNT, max_pieces)
        )
        base = closed_form_dimer_towers(pieces.rule, 2)  # n pieces: base^(n-1)
        detail = ""
        for n in range(1, max_pieces + 1):
            if counts[n] != closed_form_dimer_towers(pieces.rule, n):
                detail = f"n={n}: enumerator {counts[n]} != {base}^{n - 1}"
                break
        results.append(CheckResult(f"dimer-pieces[{_config_label(pieces)}]", not detail, detail))

    for pieces in acceptance:
        results.extend(_check_weighted(pieces, plain[pieces], oracle[pieces], max_area))
    for pieces in checked:
        results.append(_check_structure(pieces, plain[pieces]))
    results.extend(_check_closed_forms(plain))
    for pieces in checked:
        results.extend(_check_annihilators(pieces, plain[pieces]))
    for pieces in checked:
        results.extend(_check_guesses(pieces, plain[pieces]))
    return results
