"""JSON (and csv/text) interchange formats.

Every integer that can get large is serialized as a decimal string so no
consumer ever sees a 53-bit float truncation.  Dictionaries are built in
canonical key order and dumped without re-sorting, which keeps output
byte-identical across runs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any, Callable

from .algebra import BivariatePolynomial
from .asymptotics import AsymptoticEstimate
from .enumeration import BoundKind
from .identities import CheckResult
from .polynomials import IntPoly
from .recurrences import Recurrence, Sequence
from .series import TruncatedSeries
from .zpoly import ZPolynomial

__all__ = [
    "dumps",
    "decimal_str",
    "counts_to_json",
    "counts_to_csv",
    "counts_to_text",
    "series_to_json",
    "sequence_to_json",
    "sequence_from_json",
    "sequence_to_csv",
    "sequence_to_text",
    "recurrence_to_json",
    "recurrence_from_json",
    "polynomial_to_json",
    "weight_table_to_json",
    "estimate_to_json",
    "report_to_json",
    "tower_to_json",
]

_BOUND_KIND_NAMES = {BoundKind.BY_AREA: "ByArea", BoundKind.BY_PIECE_COUNT: "ByPieceCount"}


def _unlimited(convert: Callable[[Any], Any], value: Any) -> Any:
    """convert(value) with CPython's int/str digit cap lifted for this call only.

    Sequence terms here run to tens of thousands of digits by design.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _int_str(value: int) -> str:
    return _unlimited(str, value)


def _str_int(text: str) -> int:
    return _unlimited(int, text)


def dumps(payload: Any) -> str:
    return json.dumps(payload, indent=2) + "\n"


def decimal_str(value: Fraction, digits: int = 30) -> str:
    """Exact-rounding decimal rendering of a Fraction."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    rounded = round(value * 10**digits)  # banker's rounding on the exact rational
    sign = "-" if rounded < 0 else ""  # a value that rounds to zero has no sign
    text = _int_str(abs(rounded)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def counts_to_json(bound_kind: BoundKind, counts: dict[int, int]) -> dict:
    return {
        "bound_kind": _BOUND_KIND_NAMES[bound_kind],
        "counts": {str(k): _int_str(v) for k, v in sorted(counts.items())},
    }


def counts_to_csv(counts: dict[int, int]) -> str:
    lines = ["bound,count"]
    lines += [f"{k},{v}" for k, v in sorted(counts.items())]
    return "\n".join(lines) + "\n"


def counts_to_text(counts: dict[int, int]) -> str:
    return "\n".join(f"{k}: {v}" for k, v in sorted(counts.items())) + "\n"


def _zpoly_to_json(z: ZPolynomial) -> dict[str, str]:
    return {",".join(map(str, exps)): _int_str(c) for exps, c in z.items()}


def series_to_json(series: TruncatedSeries) -> dict:
    payload: dict[str, Any] = {"variable": "t", "order": series.order}
    if series.is_weighted:
        payload["sizes"] = list(series.coeffs[0].sizes)
        payload["coeffs"] = [_zpoly_to_json(c) for c in series.coeffs]
    else:
        payload["coeffs"] = [_int_str(c) for c in series.coeffs]
    return payload


def sequence_to_json(seq: Sequence) -> dict:
    payload: dict[str, Any] = {"offset": seq.offset, "terms": [_int_str(t) for t in seq.terms]}
    if seq.label:
        payload["label"] = seq.label
    return payload


def sequence_from_json(payload: dict) -> Sequence:
    return Sequence(
        int(payload["offset"]),
        tuple(_str_int(t) for t in payload["terms"]),
        str(payload.get("label", "")),
    )


def sequence_to_csv(seq: Sequence) -> str:
    lines = ["n,value"]
    lines += [f"{seq.offset + i},{_int_str(t)}" for i, t in enumerate(seq.terms)]
    return "\n".join(lines) + "\n"


def sequence_to_text(seq: Sequence) -> str:
    return ", ".join(_int_str(t) for t in seq.terms) + "\n"


def recurrence_to_json(rec: Recurrence) -> dict:
    return {
        "order": rec.order,
        "degree": rec.degree,
        "coeffs": [[_int_str(c) for c in p.coeffs] for p in rec.coeff_polys],
    }


def recurrence_from_json(payload: dict) -> Recurrence:
    polys = tuple(IntPoly(_str_int(c) for c in row) for row in payload["coeffs"])
    return Recurrence(polys)


def polynomial_to_json(q: BivariatePolynomial) -> dict:
    return {
        "y_degree": q.y_degree,
        "coeffs_in_t": [[_int_str(c) for c in p.coeffs] for p in q.coeffs],
    }


def weight_table_to_json(table: dict[int, ZPolynomial], sizes: tuple[int, ...]) -> dict:
    return {
        "bound_kind": _BOUND_KIND_NAMES[BoundKind.BY_AREA],
        "sizes": list(sizes),
        "polynomials": {str(a): _zpoly_to_json(z) for a, z in sorted(table.items())},
    }


def estimate_to_json(est: AsymptoticEstimate) -> dict:
    return {
        "mu": decimal_str(est.mu),
        "theta": decimal_str(est.theta),
        "c_amplitude": None if est.c_amplitude is None else repr(est.c_amplitude),
        "stability": {k: decimal_str(v) for k, v in sorted(est.stability.items())},
        "empirical": True,
    }


def report_to_json(results: list[CheckResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }


def tower_to_json(floors: list[list[list[int]]]) -> str:
    return json.dumps(floors, separators=(",", ":"))
