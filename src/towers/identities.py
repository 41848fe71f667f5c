"""End-to-end identity verification: every cross-module check in one place.

Each check pits two independent routes against each other (brute-force
enumeration vs series coefficients, closed forms vs series, annihilators vs
series, guessed recurrences vs fresh series terms) and reports the first
counterexample on failure.  `verify_identities` with default bounds is the
package's own acceptance run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import annihilating_polynomial, verify_annihilator
from .enumeration import BoundKind, EnumerationQuery, count_towers, weight_polynomial
from .model import PieceSet, Rule, Shape
from .recurrences import (
    Sequence,
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
)

__all__ = ["CheckResult", "verify_identities", "ACCEPTANCE_SETS"]

ACCEPTANCE_SETS: tuple[tuple[int, ...], ...] = ((2,), (3,), (1, 2), (2, 3), (1, 2, 3))

_SHAPES = (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER)

# Optional hook for negative-control tests: receives a config label and the
# freshly computed plain series, returns the series to use instead.
TamperHook = Callable[[str, TruncatedSeries], TruncatedSeries]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _shape_label(shape: Shape) -> str:
    return shape.value


def _config_label(pieces: PieceSet) -> str:
    return "S={%s} %s" % (",".join(map(str, pieces.sizes)), pieces.rule.value)


def _tampered(
    pieces: PieceSet, family: dict[Shape, TruncatedSeries], tamper: TamperHook | None
) -> dict[Shape, TruncatedSeries]:
    if tamper is None:
        return family
    label = _config_label(pieces)
    return {shape: tamper(f"{label} {_shape_label(shape)}", s) for shape, s in family.items()}


def _check_counts(pieces: PieceSet, max_area: int, tamper: TamperHook | None) -> list[CheckResult]:
    family = _tampered(pieces, series_family(pieces, max_area), tamper)
    out = []
    for shape in _SHAPES:
        series = family[shape]
        counts = count_towers(
            EnumerationQuery(pieces, shape, BoundKind.BY_AREA, max_area)
        )
        detail = ""
        for area in range(1, max_area + 1):
            if counts[area] != series.coeffs[area]:
                detail = (
                    f"area {area}: enumerator {counts[area]} != series {series.coeffs[area]}"
                )
                break
        name = f"counts[{_config_label(pieces)} {_shape_label(shape)}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_weighted(pieces: PieceSet, max_area: int, tamper: TamperHook | None) -> list[CheckResult]:
    order = min(max_area, 10)
    family = series_family(pieces, order, weighted=True)
    plain = _tampered(pieces, series_family(pieces, order), tamper)
    out = []
    for shape, weighted in family.items():
        table = weight_polynomial(
            EnumerationQuery(pieces, shape, BoundKind.BY_AREA, order, weighted=True)
        )
        detail = ""
        for area in range(1, order + 1):
            if table[area] != weighted.coeffs[area]:
                detail = f"area {area}: enumerator {table[area]!r} != series {weighted.coeffs[area]!r}"
                break
        if not detail and weighted.evaluate_ones() != plain[shape]:
            detail = "z:=1 does not recover the plain series"
        name = f"weighted[{_config_label(pieces)} {_shape_label(shape)}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_structure(pieces: PieceSet, order: int, tamper: TamperHook | None) -> CheckResult:
    """Fixed-point residual plus the coefficientwise 0 <= H <= P <= M chain."""
    family = _tampered(pieces, series_family(pieces, order), tamper)
    h, p, m = family[Shape.HALF_PYRAMID], family[Shape.PYRAMID], family[Shape.TOWER]
    detail = ""
    residual = half_pyramid_rhs(h, pieces) - h
    for n, c in enumerate(residual.coeffs):
        if c:
            detail = f"H-equation residual {c} at t^{n}"
            break
    if not detail:
        for n in range(order + 1):
            if not (0 <= h.coeffs[n] <= p.coeffs[n] <= m.coeffs[n]):
                detail = (
                    f"ordering fails at t^{n}: H={h.coeffs[n]} P={p.coeffs[n]} M={m.coeffs[n]}"
                )
                break
    return CheckResult(f"structure[{_config_label(pieces)}]", not detail, detail)


def _check_closed_forms(tamper: TamperHook | None, max_n: int = 20) -> list[CheckResult]:
    out = []
    for k in range(1, 6):
        pieces = PieceSet.of(k)
        order = k * max_n
        family = _tampered(pieces, series_family(pieces, order, through=Shape.PYRAMID), tamper)
        half_counts = coefficients_by_pieces(family[Shape.HALF_PYRAMID], pieces)
        pyr_counts = coefficients_by_pieces(family[Shape.PYRAMID], pieces)
        detail = ""
        for n in range(1, max_n + 1):
            if half_counts[n - 1] != closed_form_half_pyramids(k, n):
                detail = f"half-pyramids k={k} n={n}: series {half_counts[n - 1]}"
                break
            if pyr_counts[n - 1] != closed_form_pyramids(k, n):
                detail = f"pyramids k={k} n={n}: series {pyr_counts[n - 1]}"
                break
        out.append(CheckResult(f"closed-form[k={k}]", not detail, detail))
    for rule in (Rule.ALL_INTERFACES, Rule.NO_EXACT_ALIGNMENT):
        pieces = PieceSet.of(2, rule=rule)
        family = _tampered(pieces, series_family(pieces, 2 * max_n), tamper)
        by_pieces = coefficients_by_pieces(family[Shape.TOWER], pieces)
        detail = ""
        for n in range(1, max_n + 1):
            if by_pieces[n - 1] != closed_form_dimer_towers(rule, n):
                detail = f"dimer towers {rule.value} n={n}: series {by_pieces[n - 1]}"
                break
        out.append(CheckResult(f"closed-form[dimer {rule.value}]", not detail, detail))
    return out


def _check_annihilators(pieces: PieceSet, order: int) -> list[CheckResult]:
    family = series_family(pieces, order)
    out = []
    for shape in _SHAPES:
        detail = ""
        try:
            q = annihilating_polynomial(pieces, shape, verify_order=order)
            if not verify_annihilator(q, family[shape]):
                detail = "annihilator does not vanish on the series"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            detail = f"{type(exc).__name__}: {exc}"
        name = f"annihilator[{_config_label(pieces)} {_shape_label(shape)}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def _check_guesses(pieces: PieceSet, tamper: TamperHook | None) -> list[CheckResult]:
    guess_terms, holdout = 60, 200
    order = guess_terms + holdout
    family = _tampered(pieces, series_family(pieces, order), tamper)
    out = []
    for shape in _SHAPES:
        full = sequence_from_series(family[shape])
        prefix = Sequence(full.offset, full.terms[:guess_terms], full.label)
        detail = ""
        # The tower sequences for mixed piece sets need recurrences as large
        # as order 7, degree 5; that shape saturates 60 terms exactly when
        # the in-search guard is 5 (the 200-term holdout below is the real
        # validation).
        rec = guess_recurrence(prefix, max_order=7, max_degree=5, guard=5)
        if rec is None:
            detail = "no recurrence found in 60 terms"
        elif not verify_recurrence(rec, full):
            detail = "guessed recurrence fails on held-out series terms"
        else:
            replay = extend_sequence(rec, prefix, len(full))
            if replay.terms != full.terms:
                bad = next(
                    i for i, (a, b) in enumerate(zip(replay.terms, full.terms)) if a != b
                )
                detail = f"extension diverges from the series at n={full.offset + bad}"
        name = f"guess[{_config_label(pieces)} {_shape_label(shape)}]"
        out.append(CheckResult(name, not detail, detail))
    return out


def verify_identities(
    max_area: int = 12,
    max_pieces: int = 7,
    _tamper: TamperHook | None = None,
) -> list[CheckResult]:
    """Run every cross-module identity check at desk scale.

    `max_area` bounds the enumerator-vs-series comparisons, `max_pieces`
    the piece-count spot checks.  `_tamper` is a test hook that lets the
    negative-control test corrupt a series and watch the suite fail.
    """
    results: list[CheckResult] = []
    all_sets = [PieceSet(sizes) for sizes in ACCEPTANCE_SETS]
    noalign_dimer = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)

    for pieces in all_sets:
        results.extend(_check_counts(pieces, max_area, _tamper))
    results.extend(_check_counts(noalign_dimer, max_area, _tamper))

    # piece-count spot check against the dimer closed forms
    for pieces, base in ((PieceSet.of(2), 4), (noalign_dimer, 3)):
        counts = count_towers(
            EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_PIECE_COUNT, max_pieces)
        )
        detail = ""
        for n in range(1, max_pieces + 1):
            if counts[n] != base ** (n - 1):
                detail = f"n={n}: enumerator {counts[n]} != {base}^{n - 1}"
                break
        results.append(
            CheckResult(f"dimer-pieces[{_config_label(pieces)}]", not detail, detail)
        )

    for pieces in all_sets:
        results.extend(_check_weighted(pieces, max_area, _tamper))
    for pieces in all_sets + [noalign_dimer]:
        results.append(_check_structure(pieces, 200, _tamper))
    results.extend(_check_closed_forms(_tamper))
    for pieces in all_sets + [noalign_dimer]:
        results.extend(_check_annihilators(pieces, 200))
    for pieces in all_sets + [noalign_dimer]:
        results.extend(_check_guesses(pieces, _tamper))
    return results
