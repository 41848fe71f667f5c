import io
import json
import math
import sys
from fractions import Fraction

import pytest

from towers import jsonio
from towers.algebra import annihilating_polynomial
from towers.asymptotics import estimate_asymptotics
from towers.enumeration import BoundKind
from towers.errors import MalformedInputError
from towers.identities import CheckResult
from towers.model import PieceSet, Shape
from towers.polynomials import IntPoly
from towers.recurrences import Recurrence, Sequence
from towers.series import series_family, solve_half_pyramids, weighted_series


def test_counts_payload_shape():
    payload = jsonio.counts_to_json(BoundKind.BY_PIECE_COUNT, {1: 1, 2: 4})
    assert payload == {"bound_kind": "ByPieceCount", "counts": {"1": "1", "2": "4"}}


def test_counts_csv_and_text():
    counts = {1: 1, 2: 4}
    assert jsonio.counts_to_csv(counts) == "bound,count\n1,1\n2,4\n"
    assert jsonio.counts_to_text(counts) == "1: 1\n2: 4\n"


def test_series_payload_plain_and_weighted():
    pieces = PieceSet.of(1, 2)
    plain = jsonio.series_to_json(solve_half_pyramids(pieces, 3))
    assert plain == {"variable": "t", "order": 3, "coeffs": ["0", "1", "2", "4"]}
    weighted = jsonio.weighted_series_to_json(weighted_series(pieces, 2, Shape.HALF_PYRAMID))
    assert list(weighted) == ["variable", "order", "sizes", "coeffs"]
    assert weighted["order"] == 2
    assert weighted["sizes"] == [1, 2]
    assert weighted["coeffs"] == [{}, {"1,0": "1"}, {"0,1": "1", "2,0": "1"}]


def test_sequence_roundtrip_with_huge_terms():
    seq = Sequence(1, (1, 3**9000), "big")
    payload = jsonio.sequence_to_json(seq)
    assert jsonio.sequence_from_json(json.loads(jsonio.dumps(payload))) == seq


def test_huge_conversions_leave_the_digit_limit_alone():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default cap
    try:
        seq = Sequence(0, (3**20000,))  # 9543 digits
        payload = jsonio.sequence_to_json(seq)
        assert sys.get_int_max_str_digits() == 4300
        assert jsonio.sequence_from_json(payload) == seq
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(before)


def test_conversions_never_touch_the_digit_limit(monkeypatch):
    # the limit is process-wide: changing it, even briefly, races other threads
    def forbidden(limit):
        raise AssertionError(f"jsonio set the int/str digit limit to {limit}")

    monkeypatch.setattr(sys, "set_int_max_str_digits", forbidden)
    big = 3 * 10**9999 + 7  # 10000 digits
    seq = Sequence(1, (1, -big, big), "big")
    payload = json.loads(jsonio.dumps(jsonio.sequence_to_json(seq)))
    assert [len(t) for t in payload["terms"]] == [1, 10001, 10000]
    assert jsonio.sequence_from_json(payload) == seq
    assert jsonio.decimal_sequence_from_json(payload) == seq
    rec = Recurrence((IntPoly((-big, 5)), IntPoly((big, 1))))
    payload = json.loads(jsonio.dumps(jsonio.recurrence_to_json(rec)))
    assert jsonio.recurrence_from_json(payload) == rec


@pytest.mark.parametrize("term", [
    "x", "", "1.5", "5.", "1e5", "5E0", "NaN", "-Infinity", "--5", "5_", "_5", "1__000", 2.5, None,
])
def test_non_integer_terms_are_rejected(term):
    payload = {"offset": 0, "terms": ["1", term]}
    for read in (jsonio.sequence_from_json, jsonio.decimal_sequence_from_json):
        with pytest.raises(MalformedInputError, match="not an integer"):
            read(payload)


def test_terms_read_as_int_reads_them():
    terms = ["-0", "+5", "007", " 12 ", "-42", "\u0663", "1_000", " -2_5 ", 9]
    want = tuple(int(t) for t in terms)
    assert jsonio.sequence_from_json({"offset": 0, "terms": terms}).terms == want
    exact = jsonio.decimal_sequence_from_json({"offset": 0, "terms": terms})
    assert [str(t) for t in exact.terms] == [str(t) for t in want]


def test_decimal_ints_size_like_ints():
    values = [0, 1, -1, 2**64 - 1, -(2**64), 10**50, 10**50 - 1, 3**20000]
    values += [sign * (2**30000 + step) for sign in (1, -1) for step in (-1, 0, 1)]
    payload = {"offset": 0, "terms": values}
    for value, term in zip(values, jsonio.decimal_sequence_from_json(payload).terms):
        assert type(term) is type(abs(term)) is jsonio.DecimalInt
        assert abs(term) == abs(value)
        assert abs(term).bit_length() == term.bit_length() == value.bit_length()


def test_recurrence_roundtrip():
    rec = Recurrence((IntPoly((-2, -4)), IntPoly((2, 1))))
    payload = jsonio.recurrence_to_json(rec)
    assert payload == {"order": 1, "degree": 1, "coeffs": [["-2", "-4"], ["2", "1"]]}
    assert jsonio.recurrence_from_json(payload) == rec


def test_polynomial_payload():
    pieces = PieceSet.of(2)
    q = annihilating_polynomial(pieces, Shape.TOWER, series_family(pieces, 60)[Shape.TOWER])
    payload = jsonio.polynomial_to_json(q)
    assert payload == {"y_degree": 1, "coeffs_in_t": [["0", "0", "1"], ["-1", "0", "4"]]}


def test_estimate_payload_uses_decimal_strings():
    seq = Sequence(1, tuple(3 ** (n - 1) for n in range(1, 40)))
    payload = jsonio.estimate_to_json(estimate_asymptotics(seq, depth=2))
    assert payload["mu"] == "3"
    assert payload["theta"] == "0"
    assert payload["stability"] == {"mu": "0", "theta": "0"}
    assert payload["empirical"] is True


def test_decimal_str_rounding_and_trimming():
    assert jsonio.decimal_str(Fraction(1, 4), 6) == "0.25"
    assert jsonio.decimal_str(Fraction(-3, 2), 4) == "-1.5"
    assert jsonio.decimal_str(Fraction(2, 3), 6) == "0.666667"
    assert jsonio.decimal_str(Fraction(5), 6) == "5"
    assert jsonio.decimal_str(Fraction(1, 10**8), 6) == "0"
    assert jsonio.decimal_str(Fraction(-1, 10**8), 6) == "0"


def test_report_payload():
    results = [CheckResult("a", True, ""), CheckResult("b", False, "area 3: 1 != 2")]
    payload = jsonio.report_to_json(results)
    assert payload["passed"] is False
    assert payload["checks"][1]["detail"] == "area 3: 1 != 2"


def test_dumps_is_deterministic():
    payload = jsonio.counts_to_json(BoundKind.BY_AREA, {2: 7, 1: 3})
    assert jsonio.dumps(payload) == jsonio.dumps(payload)
    assert list(json.loads(jsonio.dumps(payload))["counts"]) == ["1", "2"]


def _dump_payloads():
    big = 3**5000
    decimal_terms = jsonio.decimal_sequence_from_json({"offset": 0, "terms": ["1", "-7", str(big)]})
    return {
        "int terms": jsonio.sequence_to_json(Sequence(1, (1, 2, big, -big))),
        "DecimalInt terms": jsonio.sequence_to_json(decimal_terms),
        "empty label": jsonio.sequence_to_json(Sequence(0, (1, 2), "")),
        "non-ASCII label": jsonio.sequence_to_json(Sequence(0, (1, 2), "tours à 塔")),
        "single term": jsonio.sequence_to_json(Sequence(0, (5,))),
        "zero": jsonio.sequence_to_json(Sequence(0, (0,))),
        "negative terms": jsonio.sequence_to_json(Sequence(-2, (-1, -20, 3))),
        "plain series": jsonio.series_to_json(solve_half_pyramids(PieceSet.of(1, 2), 6)),
        "weighted series": jsonio.weighted_series_to_json(
            weighted_series(PieceSet.of(1, 2), 6, Shape.HALF_PYRAMID)
        ),
        "recurrence": jsonio.recurrence_to_json(Recurrence((IntPoly((-2, -4)), IntPoly((2, 1))))),
        "estimate": jsonio.estimate_to_json(
            estimate_asymptotics(Sequence(0, tuple(math.comb(2 * n, n) for n in range(60))), 3)
        ),
    }


@pytest.mark.parametrize("name", list(_dump_payloads()))
def test_dump_writes_what_dumps_returns(name):
    payload = _dump_payloads()[name]
    handle = io.StringIO()
    jsonio.dump(payload, handle)
    assert handle.getvalue() == jsonio.dumps(payload) == json.dumps(payload, indent=2) + "\n"
