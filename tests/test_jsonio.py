import io
import json
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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

from references import decimal_str


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
    rec = Recurrence((IntPoly((-big, 5)), IntPoly((big, 1))))
    payload = json.loads(jsonio.dumps(jsonio.recurrence_to_json(rec)))
    assert jsonio.recurrence_from_json(payload) == rec


@pytest.mark.parametrize("term", [
    "x", "", "1.5", "5.", "1e5", "5E0", "NaN", "-Infinity", "--5", "5_", "_5", "1__000", 2.5, None,
    True, False,
])
def test_non_integer_terms_are_rejected(term):
    with pytest.raises(MalformedInputError, match="not an integer"):
        jsonio.sequence_from_json({"offset": 0, "terms": ["1", term]})


@pytest.mark.parametrize("payload, message", [
    (["1", "2"], "a sequence must be a JSON object, got an array"),
    ({"offset": None, "terms": ["1"]}, "offset must be an integer, got null"),
    ({"offset": 0.5, "terms": ["1"]}, "offset must be an integer, got a float"),
    ({"offset": True, "terms": ["1"]}, "offset must be an integer, got a boolean"),
    ({"offset": "3", "terms": ["1"]}, "offset must be an integer, got a string"),
    ({"offset": 0, "terms": "1234"}, "terms must be an array, got a string"),
    ({"offset": 0, "terms": None}, "terms must be an array, got null"),
    ({"offset": 0, "terms": {"0": "1"}}, "terms must be an array, got an object"),
    ({"offset": 0, "terms": ["1"], "label": 5}, "label must be a string, got an integer"),
])
def test_sequence_payload_shape_is_checked(payload, message):
    with pytest.raises(MalformedInputError) as excinfo:
        jsonio.sequence_from_json(payload)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("payload, message", [
    ([["1"], ["2"]], "a recurrence must be a JSON object, got an array"),
    ({"coeffs": None}, "coeffs must be an array of arrays of integers"),
    ({"coeffs": "12"}, "coeffs must be an array of arrays of integers"),
    ({"coeffs": ["1", "2"]}, "coeffs must be an array of arrays of integers"),
    ({"coeffs": [["-2"], "1"]}, "coeffs must be an array of arrays of integers"),
    ({"coeffs": [[True], ["1"], ["-1"]]}, "not an integer: True"),  # read as 1, this was Fibonacci
])
def test_recurrence_payload_shape_is_checked(payload, message):
    with pytest.raises(MalformedInputError) as excinfo:
        jsonio.recurrence_from_json(payload)
    assert str(excinfo.value) == message


def test_terms_read_as_int_reads_them():
    terms = ["-0", "+5", "007", " 12 ", "-42", "\u0663", "1_000", " -2_5 ", 9]
    want = [int(t) for t in terms]
    read = jsonio.sequence_from_json({"offset": 0, "terms": terms}).terms
    assert [type(t) for t in read] == [jsonio.DecimalInt] * len(terms)
    assert [str(t) for t in read] == [str(t) for t in want]


def test_decimal_ints_size_like_ints():
    values = [0, 1, -1, 2**64 - 1, -(2**64), 10**50, 10**50 - 1, 3**20000]
    values += [sign * (2**30000 + step) for sign in (1, -1) for step in (-1, 0, 1)]
    payload = {"offset": 0, "terms": values}
    for value, term in zip(values, jsonio.sequence_from_json(payload).terms):
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
    assert decimal_str(Fraction(1, 4), 6) == "0.25"
    assert decimal_str(Fraction(-3, 2), 4) == "-1.5"
    assert decimal_str(Fraction(2, 3), 6) == "0.666667"
    assert decimal_str(Fraction(5), 6) == "5"
    assert decimal_str(Fraction(1, 10**8), 6) == "0"
    assert decimal_str(Fraction(-1, 10**8), 6) == "0"


_UNIT = 10**30  # one in the 30th place is 1/_UNIT


@pytest.mark.parametrize("numerator, denominator, text", [
    (1, 2 * _UNIT, "0"),  # a tie rounds to the even neighbour: 0 ...
    (3, 2 * _UNIT, "0.000000000000000000000000000002"),  # ... and 2
    (5 * 7, 2 * _UNIT * 7, "0.000000000000000000000000000002"),  # an unreduced tie
    (2 * _UNIT - 1, 2 * _UNIT, "1"),  # a tie that carries into the whole part
    (-3, 2 * _UNIT, "-0.000000000000000000000000000002"),
    (-1, 2 * _UNIT, "0"),  # negative values that round to zero have no sign
    (-1, 3 * _UNIT, "0"),
    (1, -3 * _UNIT, "0"),
    (6, 3, "2"),  # unreduced pairs whose denominator divides the numerator
    (-6, 3, "-2"),
    (0, 5, "0"),
    (7 * 10**40, 10**40, "7"),
    (-6, -3, "2"),  # negative denominators
    (1, -3, "-0.333333333333333333333333333333"),
    (-5, -4, "1.25"),
])
def test_decimal_pair_str_renders_as_decimal_str(numerator, denominator, text):
    assert jsonio.decimal_pair_str(numerator, denominator) == text
    assert decimal_str(Fraction(numerator, denominator)) == text


@settings(max_examples=300, deadline=None)
@given(numerator=st.integers(-(10**40), 10**40), denominator=st.integers(1, 10**35),
       scale=st.integers(-(10**12), 10**12).filter(bool), digits=st.integers(1, 35))
def test_decimal_pair_str_ignores_common_factors(numerator, denominator, scale, digits):
    want = decimal_str(Fraction(numerator, denominator), digits)
    assert jsonio.decimal_pair_str(numerator * scale, denominator * scale, digits) == want


def test_report_payload():
    results = [CheckResult("a"), CheckResult("b", "area 3: 1 != 2")]
    payload = jsonio.report_to_json(results)
    assert payload["passed"] is False
    assert payload["checks"][1]["detail"] == "area 3: 1 != 2"


def test_dumps_is_deterministic():
    payload = jsonio.counts_to_json(BoundKind.BY_AREA, {2: 7, 1: 3})
    assert jsonio.dumps(payload) == jsonio.dumps(payload)
    assert list(json.loads(jsonio.dumps(payload))["counts"]) == ["1", "2"]


def _dump_payloads():
    big = 3**5000
    decimal_terms = jsonio.sequence_from_json({"offset": 0, "terms": ["1", "-7", str(big)]})
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
def test_dumps_writes_what_json_dumps_writes(name):
    payload = _dump_payloads()[name]
    assert jsonio.dumps(payload) == json.dumps(payload, indent=2) + "\n"


_TERMS = st.one_of(
    st.integers(-(10**6), 10**6),
    st.sampled_from([0, 10**199, -(10**199) - 7]),  # 0 and 200-digit terms
    st.integers(-(10**200) + 1, 10**200 - 1),
)


@st.composite
def _sequences(draw) -> Sequence:
    terms = draw(st.lists(_TERMS, min_size=1, max_size=50))
    if draw(st.booleans()):
        terms = [jsonio.DecimalInt(t) for t in terms]
    offset = draw(st.one_of(st.integers(-5, 5), st.integers(-(10**12), 10**12)))
    label = draw(st.one_of(
        st.just(""),
        st.text(max_size=8),
        st.sampled_from(['a "quoted" label', "back\\slash", "tab\there\n", "\x00\x1f\x7f", "tours à 塔"]),
    ))
    return Sequence(offset, tuple(terms), label)


@settings(max_examples=300, deadline=None)
@given(seq=_sequences())
def test_dump_sequence_writes_what_dumps_returns(seq):
    handle = io.StringIO()
    jsonio.dump_sequence(seq, handle)
    payload = jsonio.sequence_to_json(seq)
    assert handle.getvalue() == jsonio.dumps(payload) == json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------- sequence_tail


def _whole_parse_tail(data: bytes, count: int) -> Sequence | Exception:
    """The tail as json.load and sequence_from_json read it, or the error they raise."""
    try:
        handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        seq = jsonio.sequence_from_json(json.load(handle))
    except ValueError as exc:
        return exc
    cut = max(len(seq) - count, 0)
    return Sequence(seq.offset + cut, seq.terms[cut:], seq.label)


def _tail(data: bytes, count: int, chunk: int) -> Sequence | Exception:
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with mock.patch.object(jsonio, "_CHUNK", chunk):
        try:
            return jsonio.sequence_tail(handle, count)
        except ValueError as exc:
            return exc


def _assert_same_read(got: Sequence | Exception, want: Sequence | Exception) -> None:
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want
        assert [str(t) for t in got.terms] == [str(t) for t in want.terms]
        assert all(type(t) is jsonio.DecimalInt for t in got.terms)


_BLANKS = st.text(alphabet=" \t\n\r", max_size=3)
_PLAIN_TERMS = st.one_of(
    st.integers(-(10**40), 10**40).map(str), st.sampled_from(["0", "-0", "007", "-007"]),
)
# terms that only the whole parse reads: some it accepts, most it rejects
_ODD_TERMS = st.sampled_from([
    "x", "", "-", "5-3", "12-", "--5", "+5", " 12 ", "1_000", "1.5", "1e5", "\u0663", "NaN",
    12, -3, 1.5, None, ["1"],
])
_LABELS = st.one_of(
    st.text(max_size=6),
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), max_size=6),
    st.sampled_from(["S={1,2,3} tower", 'a "quoted" label', "tab\there", "back\\slash", "tours à 塔"]),
)


@st.composite
def _sequence_files(draw) -> tuple[bytes, bool]:
    """The bytes of a sequence file, and whether sequence_tail must read them without json.load."""
    terms = draw(st.lists(_PLAIN_TERMS, max_size=8))
    plain = bool(terms)
    if terms and draw(st.integers(0, 2)) == 0:
        terms[draw(st.integers(0, len(terms) - 1))] = draw(_ODD_TERMS)
        plain = False
    offset = draw(st.integers(-3, 10**6))
    if draw(st.integers(0, 9)) == 0:
        offset = draw(st.sampled_from([None, 0.5, True, "3"]))
        plain = False
    payload = {"offset": offset, "terms": terms}
    if draw(st.booleans()):
        payload["label"] = label = draw(st.one_of(_LABELS, st.just(5)))
        plain &= isinstance(label, str)
    if draw(st.integers(0, 9)) == 0:
        payload["extra"] = 1
        plain = False
    layout = draw(st.sampled_from(["dump", "compact", "tight", "spaced"]))
    if layout == "dump":
        text = jsonio.dumps(payload)
    elif layout == "compact":
        text = json.dumps(payload)
    elif layout == "tight":
        text = json.dumps(payload, separators=(",", ":"))
    else:  # any whitespace, raw non-ASCII, keys in any order
        ascii_only = draw(st.booleans())
        commas = []

        def spaced(value) -> str:
            if isinstance(value, list):
                commas.append(draw(st.sampled_from([","] * 6 + ["", ",,"])) if len(value) > 1 else ",")
                return "[" + commas[-1].join(spaced(v) for v in value) + draw(_BLANKS) + "]"
            return draw(_BLANKS) + json.dumps(value, ensure_ascii=ascii_only) + draw(_BLANKS)

        items = list(payload.items())
        if draw(st.integers(0, 3)) == 0:
            items = draw(st.permutations(items))
        plain &= [key for key, _ in items][:2] == ["offset", "terms"]
        text = draw(_BLANKS) + "{" + ",".join(
            f"{draw(_BLANKS)}{json.dumps(key)}{draw(_BLANKS)}:{spaced(value)}" for key, value in items
        ) + "}" + draw(_BLANKS)
        plain &= set(commas) <= {","}  # else malformed JSON
    if draw(st.integers(0, 9)) == 0:  # malformed JSON
        text = text[:draw(st.integers(0, len(text) - 1))] + draw(st.sampled_from(["", "x", "]", "}"]))
        plain = False
    return text.encode("utf-8"), plain


@settings(max_examples=400, deadline=None)
@given(file=_sequence_files(), count=st.integers(1, 10), chunk=st.integers(1, 64))
def test_tail_reads_what_the_whole_parse_reads(file, count, chunk):
    data, plain = file
    want = _whole_parse_tail(data, count)
    if plain:  # the layouts json.dumps writes are scanned, never parsed whole
        with mock.patch.object(json, "load", side_effect=AssertionError("parsed whole")):
            got = _tail(data, count, chunk)
    else:
        got = _tail(data, count, chunk)
    _assert_same_read(got, want)


def test_tail_finds_a_bad_term_at_every_position():
    terms = [str(-(7**n) if n % 3 else 7**n) for n in range(6)]
    for bad in ("x", "", "-", "5-3", "--5", " 12 ", "+5", 12, None):
        for position in range(len(terms)):
            payload = {"offset": 2, "terms": terms[:position] + [bad] + terms[position + 1:]}
            for data in (jsonio.dumps(payload).encode(), json.dumps(payload).encode()):
                for count in (1, 4, 9):
                    want = _whole_parse_tail(data, count)
                    for chunk in (1, 3, 64):
                        _assert_same_read(_tail(data, count, chunk), want)


@pytest.mark.parametrize("text", [
    '{"offset": 0, "terms": ["1" "2"]}',
    '{"offset": 0, "terms": ["1",, "2"]}',
    '{"offset": 0, "terms": ["1",]}',
    '{"offset": 0, "terms": [, "1"]}',
    '{"offset": 0, "terms": []}',
    '{"offset": 0, "terms": ["1"]]}',
    '{"offset": 0, "terms": ["1"] "label": "a"}',
    '{"offset": 0, "terms": ["1"], "label": "a",}',
    '{"offset": 0, "terms": ["1"], "label": "a"} x',
    '{"offset": 01, "terms": ["1"]}',
    '{"offset": -0, "terms": ["1"]}',
    '{"offset": 0, "terms": ["1", 2]}',
    '{"offset": 0, "terms": ["1"], "offset": 3}',
    '\ufeff{"offset": 0, "terms": ["1"]}',
    '{"offset":\x0c0, "terms": ["1"]}',  # whitespace to Python, not to JSON
    '{"offset": 0, "terms": ["1",\x0b"2"]}',
    '{"offset": 0, "terms": ["1"], "label": "tab\there"}',  # a raw control character
    '{"offset": 0, "terms": ["1"], "label": "a\\x"}',
    '{"offset": 0, "terms": ["1"], "label": "\\u12"}',
    '{"offset": 0, "terms": ["1"], "label": "\\ud83"}',
    '{"offset": 0, "terms": ["1"], "label": "a\\"}',
    '{"offset": 0, "terms": ["1"], "label": "a\\""}',
])
def test_tail_reads_malformed_layouts_as_the_whole_parse_does(text):
    data = text.encode("utf-8")
    for chunk in (1, 5, 64):
        _assert_same_read(_tail(data, 2, chunk), _whole_parse_tail(data, 2))


@pytest.mark.parametrize("label", [
    'trimer "towers"', "back\\slash", "tours à 塔", "\U0001f5fc", "tab\there", "line\u2028sep",
    "a/b",
])
def test_tail_reads_any_json_label_without_the_whole_parse(label):
    payload = jsonio.sequence_to_json(Sequence(2, tuple(5**n for n in range(9)), label))
    # dumps escapes every non-ASCII character as \uXXXX; ensure_ascii=False writes raw UTF-8
    for text in (jsonio.dumps(payload), json.dumps(payload, ensure_ascii=False)):
        data = text.encode("utf-8")
        with mock.patch.object(json, "load", side_effect=AssertionError("parsed whole")):
            got = _tail(data, 4, 5)
        _assert_same_read(got, _whole_parse_tail(data, 4))
        assert got.label == label


def test_tail_label_that_is_not_utf8_fails_as_the_whole_parse_does():
    data = b'{"offset": 0, "terms": ["1"], "label": "caf\xe9"}'
    got = _tail(data, 2, 64)
    assert isinstance(got, UnicodeDecodeError)
    _assert_same_read(got, _whole_parse_tail(data, 2))


def test_tail_keeps_absolute_indices():
    seq = Sequence(5, tuple(3**n for n in range(40)), "powers of 3")
    data = jsonio.dumps(jsonio.sequence_to_json(seq)).encode()
    tail = _tail(data, 8, 7)
    assert tail == Sequence(37, seq.terms[-8:], "powers of 3")
    assert estimate_asymptotics(tail, depth=0) == estimate_asymptotics(seq, depth=0)
    assert _tail(data, 100, 7) == seq


@settings(max_examples=100, deadline=None)
@given(seq=_sequences())
def test_dump_sequence_writes_given_terms_as_it_draws_them(seq):
    handle = io.StringIO()
    written = []  # terms already in handle as each term is drawn

    def terms():
        for term in seq.terms:
            written.append(handle.getvalue().count('\n    "'))
            yield term

    jsonio.dump_sequence(Sequence(seq.offset, (7,), seq.label), handle, terms())
    assert handle.getvalue() == jsonio.dumps(jsonio.sequence_to_json(seq))
    assert written == list(range(len(seq)))
