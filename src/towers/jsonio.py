"""JSON (and csv/text) interchange formats; no function here opens a file.

Every integer that can get large is serialized as a decimal string so no
consumer ever sees a 53-bit float truncation.  Dictionaries are built in
canonical key order and dumped without re-sorting, which keeps output
byte-identical across runs.  `dump_sequence` writes, one term at a time,
exactly the text that `dumps(sequence_to_json(seq))` returns, and takes
its terms from any iterable: `extend` hands it `recurrences.extended_terms`,
so the terms are written as they are unrolled and never all held.

`sequence_tail` reads back only the last terms of a long sequence file.  It
scans the layout that `dumps` writes in fixed-size chunks, checks every term
and keeps only the tail, so its memory does not grow with the file; any
other layout goes through `json.load` and fails as that route fails.

`Sequence` and `ZPolynomial` live in `model`, so sequence files read and
write without running a solver; only `recurrence_from_json` runs the
lazily served `recurrences` and `polynomials`, at its first call.
"""

from __future__ import annotations

import codecs
import decimal
import json
import math
import re
from collections import deque
from decimal import Decimal
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, TextIO

from . import polynomials, recurrences
from .errors import MalformedInputError
from .model import Sequence

if TYPE_CHECKING:
    from .algebra import BivariatePolynomial
    from .asymptotics import AsymptoticEstimate
    from .enumeration import BoundKind
    from .identities import CheckResult
    from .model import ZPolynomial
    from .recurrences import Recurrence
    from .series import TruncatedSeries

__all__ = [
    "dumps",
    "dump_sequence",
    "decimal_pair_str",
    "counts_to_json",
    "counts_to_csv",
    "counts_to_text",
    "series_to_json",
    "weighted_series_to_json",
    "sequence_to_json",
    "sequence_from_json",
    "decimal_sequence_from_json",
    "sequence_tail",
    "DecimalInt",
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

_BOUND_KIND_NAMES = {"area": "ByArea", "pieces": "ByPieceCount"}  # by BoundKind's value


class DecimalInt(Decimal):
    """An integer held as a Decimal, whose digits read and write in linear time.

    Arithmetic on it is Decimal arithmetic.  `abs` keeps the type and
    `bit_length` answers as int's does, so code that sizes int terms by
    their bits (the benchmark's tracer sizes what `extend_sequence`
    returns) sizes these too.
    """

    __slots__ = ()

    def __abs__(self) -> DecimalInt:
        return DecimalInt(self.copy_abs())

    def bit_length(self) -> int:
        """As int(self).bit_length(), from the leading digits where they settle it.

        Converting the whole number to int would cost quadratic time.
        """
        digits = self.adjusted() + 1
        if digits > 40:
            head = int(_LEADING.scaleb(abs(self), 20 - digits))  # first 20 digits
            scale = (digits - 20) * math.log2(10)
            # log2|self| lies in [log2(head), log2(head + 1)) + scale
            low = math.floor(math.log2(head) + scale - 1e-6)
            if low == math.floor(math.log2(head + 1) + scale + 1e-6):
                return low + 1
        return int(self).bit_length()


_ZERO = DecimalInt(0)
_LEADING = decimal.Context(prec=20, rounding=decimal.ROUND_DOWN)
_GROUPED = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")  # int()'s digit grouping


def _int_str(value: int | Decimal) -> str:
    """Decimal digits of an integer.

    Decimal, unlike int, applies no int/str digit cap, so values of any
    length convert without touching that process-wide setting.  For a
    Decimal value this is linear in its length.
    """
    return str(value if isinstance(value, Decimal) else Decimal(value))


def _exact(term: str | int) -> DecimalInt:
    """An integer term as an exact DecimalInt, in time linear in its length.

    Reads what int() reads in base 10.  The Decimal parse is the syntax
    check: without ".", "e" or "E" the only non-integers it reads are NaN
    and infinities, and those do not have an integer's exponent 0.  Decimal
    drops underscores wherever they stand, so a term with one must also
    group its digits the way int() requires.
    """
    value = None
    if isinstance(term, int) and type(term) is not bool:  # bool is an int to Python
        value = DecimalInt(term)
    elif (isinstance(term, str) and not any(mark in term for mark in ".eE")
          and ("_" not in term or _GROUPED.fullmatch(term))):
        try:
            value = DecimalInt(term)
        except decimal.InvalidOperation:
            pass
    if value is None or not value.same_quantum(_ZERO):
        raise MalformedInputError(f"not an integer: {term!r:.60}")
    return value or _ZERO  # "-0" reads as 0, as int() reads it


def _str_int(term: str | int) -> int:
    return int(_exact(term))


_ENCODER = json.JSONEncoder(indent=2)  # one encoder, so dumps and dump_sequence escape alike


def dumps(payload: Any) -> str:
    return _ENCODER.encode(payload) + "\n"


def decimal_pair_str(numerator: int, denominator: int, digits: int = 30) -> str:
    """numerator/denominator, which need not be reduced, rounded exactly to `digits` places.

    One division.  Ties round to even, trailing zeros are dropped, and a
    value that rounds to zero prints as "0".
    """
    if denominator < 0:
        numerator, denominator = -numerator, -denominator
    unit = 10**digits
    rounded, rest = divmod(numerator * unit, denominator)
    if not rest and not rounded % unit:  # an integer
        return _int_str(rounded // unit)
    if 2 * rest > denominator or (2 * rest == denominator and rounded % 2):
        rounded += 1  # banker's rounding on the exact rational
    sign = "-" if rounded < 0 else ""  # a value that rounds to zero has no sign
    text = _int_str(abs(rounded)).rjust(digits + 1, "0")
    whole, frac = text[:-digits], text[-digits:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def counts_to_json(bound_kind: BoundKind, counts: dict[int, int]) -> dict:
    return {
        "bound_kind": _BOUND_KIND_NAMES[bound_kind.value],
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
    return {"variable": "t", "order": series.order, "coeffs": [_int_str(c) for c in series.coeffs]}


def weighted_series_to_json(table: tuple[ZPolynomial, ...]) -> dict:
    """A `weighted_series` table, laid out like a series with marker coefficients."""
    coeffs, sizes = [_zpoly_to_json(z) for z in table], list(table[0].sizes)
    return {"variable": "t", "order": len(table) - 1, "sizes": sizes, "coeffs": coeffs}


def sequence_to_json(seq: Sequence) -> dict:
    payload: dict[str, Any] = {"offset": seq.offset, "terms": [_int_str(t) for t in seq.terms]}
    if seq.label:
        payload["label"] = seq.label
    return payload


def dump_sequence(seq: Sequence, handle: TextIO,
                  terms: Iterable[int | Decimal] | None = None) -> None:
    """Write dumps(sequence_to_json(seq)) to handle, one term at a time.

    Given terms, at least one, they stand in for seq.terms: an iterable
    drawn one term at a time, so a generator's terms are written as they
    are made and never held together.  No list of the terms' digits is
    built: each term's text is written and dropped.  Digits need no JSON
    escaping; the label goes through the encoder that dumps uses, so its
    escapes are the same.
    """
    handle.write(f'{{\n  "offset": {seq.offset},\n  "terms": [')
    separator = "\n    "
    for term in seq.terms if terms is None else terms:
        handle.write(f'{separator}"{_int_str(term)}"')
        separator = ",\n    "
    handle.write("\n  ]")
    if seq.label:
        handle.write(f',\n  "label": {_ENCODER.encode(seq.label)}')
    handle.write("\n}\n")


def sequence_from_json(payload: dict) -> Sequence:
    return _sequence(payload, _str_int)


def decimal_sequence_from_json(payload: dict) -> Sequence:
    """The sequence with DecimalInt terms, read in time linear in the file's size.

    For `extend_sequence` and `estimate_asymptotics`, which take Decimal
    terms; every term is still checked to be an integer.
    """
    return _sequence(payload, _exact)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a float", type(None): "null"}


def _json_type(value: Any) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _object(payload: Any, what: str) -> dict:
    if not isinstance(payload, dict):
        raise MalformedInputError(f"{what} must be a JSON object, got {_json_type(payload)}")
    return payload


def _field(payload: dict, name: str, what: str) -> Any:
    if name not in payload:
        raise MalformedInputError(f'{what} has no "{name}" field')
    return payload[name]


def _sequence(payload: Any, read: Callable[[Any], int | DecimalInt]) -> Sequence:
    payload = _object(payload, "a sequence")
    offset = _field(payload, "offset", "a sequence")
    terms = _field(payload, "terms", "a sequence")
    label = payload.get("label", "")
    for field, value, kind in (("offset", offset, int), ("terms", terms, list), ("label", label, str)):
        if type(value) is bool or not isinstance(value, kind):  # bool is an int to Python
            raise MalformedInputError(
                f"{field} must be {_JSON_TYPES[kind]}, got {_json_type(value)}"
            )
    return Sequence(offset, tuple(read(t) for t in terms), label)


_CHUNK = 1 << 16  # bytes that sequence_tail reads at a time
# The layout's patterns, compiled on first use to keep them out of start-up.
_WS = rb"[ \t\n\r]*"  # JSON's whitespace
_HEAD = rb'_\{_"offset"_:_(-?(?:0|[1-9][0-9]*))_,_"terms"_:_\['.replace(b"_", _WS)
_COMMA = _WS + b"," + _WS
# the label: any JSON string, so no raw control characters and only JSON's escapes
_LABEL = rb'"(?:[^"\\\x00-\x1f]|\\["\\/bfnrt]|\\u[0-9a-fA-F]{4})*"'
_TRAILER = rb'\]_(?:,_"label"_:_(%s)_)?\}_'.replace(b"_", _WS) % _LABEL


def sequence_tail(handle: TextIO, count: int) -> Sequence:
    """The last `count` terms of a sequence file as DecimalInts, or all of them if it has fewer.

    The offset moves with the cut, so each term keeps its index, and a file
    shorter than `count` comes back whole.  Every term is checked to be an
    integer, as `decimal_sequence_from_json` checks it.  `handle` is a text
    file as `open` returns it, and must seek.  A UTF-8 file in the layout
    that `dumps` and `json.dumps` write (an object of "offset", "terms" of
    plain "-?digits" strings and an optional "label" string) is scanned
    from its binary buffer in chunks, and only the tail is kept.
    Any other file is read again from the start by `json.load` and
    `decimal_sequence_from_json`, and fails as they fail.
    """
    start = handle.tell()
    if codecs.lookup(handle.encoding).name == "utf-8":
        seq = _plain_tail(handle.buffer, count)
        if seq is not None:
            return seq
        handle.seek(start)
    seq = decimal_sequence_from_json(json.load(handle))
    cut = max(len(seq) - count, 0)
    return Sequence(seq.offset + cut, seq.terms[cut:], seq.label)


def _plain_tail(raw: BinaryIO, count: int) -> Sequence | None:
    """sequence_tail on the layout `dumps` and `json.dumps` write; None on any other bytes."""
    head_re, blank_re, comma_re, trailer_re = map(re.compile, (_HEAD, _WS, _COMMA, _TRAILER))
    buf = b""
    while b"[" not in buf:
        chunk = raw.read(_CHUNK)
        if not chunk:
            return None
        buf += chunk
    head = head_re.match(buf)
    if head is None:
        return None
    tail: deque[bytes] = deque(maxlen=count)
    total, pos = 0, head.end()
    while True:  # the terms, each between a pair of quotes; "]" ends them
        close = buf.find(b"]", pos)
        limit = len(buf) if close < 0 else close
        while (opening := buf.find(b'"', pos, limit)) >= 0:
            closing = buf.find(b'"', opening + 1, limit)
            if closing < 0:
                break  # the term goes on in the next chunk
            term = buf[opening + 1:closing]
            if ((comma_re if total else blank_re).fullmatch(buf, pos, opening) is None
                    or not (term[1:] if term[:1] == b"-" else term).isdigit()):
                return None
            tail.append(term)
            total, pos = total + 1, closing + 1
        if close >= 0:
            break
        chunk = raw.read(max(_CHUNK, len(buf) - pos))  # a long term doubles the read
        if not chunk:
            return None
        buf, pos = buf[pos:] + chunk, 0
    if blank_re.fullmatch(buf, pos, close) is None:
        return None
    rest = [buf[close:]]
    while chunk := raw.read(_CHUNK):
        rest.append(chunk)
    trailer = trailer_re.fullmatch(b"".join(rest))
    if trailer is None:
        return None
    label = ""
    if trailer[1] is not None:
        try:
            label = json.loads(trailer[1].decode("utf-8"))
        except UnicodeDecodeError:
            return None  # the whole parse reports the bytes that are not UTF-8
    terms = tuple(_exact(term.decode("ascii")) for term in tail)
    return Sequence(int(head[1]) + total - len(tail), terms, label)


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


def recurrence_from_json(payload: Any) -> Recurrence:
    coeffs = _field(_object(payload, "a recurrence"), "coeffs", "a recurrence")
    if not (isinstance(coeffs, list) and all(isinstance(row, list) for row in coeffs)):
        raise MalformedInputError("coeffs must be an array of arrays of integers")
    polys = tuple(polynomials.IntPoly(_str_int(c) for c in row) for row in coeffs)
    return recurrences.Recurrence(polys)


def polynomial_to_json(q: BivariatePolynomial) -> dict:
    return {
        "y_degree": q.y_degree,
        "coeffs_in_t": [[_int_str(c) for c in p.coeffs] for p in q.coeffs],
    }


def weight_table_to_json(table: dict[int, ZPolynomial], sizes: tuple[int, ...]) -> dict:
    return {
        "bound_kind": _BOUND_KIND_NAMES["area"],
        "sizes": list(sizes),
        "polynomials": {str(a): _zpoly_to_json(z) for a, z in sorted(table.items())},
    }


def estimate_to_json(est: AsymptoticEstimate) -> dict:
    return {
        "mu": decimal_pair_str(*est.mu_pair),
        "theta": decimal_pair_str(*est.theta_pair),
        "c_amplitude": None if est.c_amplitude is None else repr(est.c_amplitude),
        "stability": {k: decimal_pair_str(*v) for k, v in est.stability_pairs},
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
