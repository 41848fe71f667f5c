import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from references import exhaustive_guess, horner_unroll, list_first_singular_degree
from towers import jsonio, polynomials, recurrences
from towers.algebra import annihilating_polynomial
from towers.errors import ConsistencyError
from towers.identities import ACCEPTANCE_SETS
from towers.jsonio import DecimalInt
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly
from towers.recurrences import (
    InconsistentRecurrenceError,
    InsufficientTermsError,
    Recurrence,
    Sequence,
    SingularRecurrenceError,
    derive_recurrence,
    extend_sequence,
    extended_terms,
    guess_recurrence,
    sequence_from_series,
    verify_recurrence,
)
from towers.series import coefficients_by_pieces, series_family, solve_half_pyramids


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def catalan_sequence(length, offset=0):
    return Sequence(offset, tuple(catalan(n) for n in range(offset, offset + length)), "catalan")


CATALAN_REC = Recurrence((IntPoly((-2, -4)), IntPoly((2, 1))))  # (n+2)a(n+1) = (4n+2)a(n)

NUMBER_TYPES = (int, Decimal, DecimalInt)


def motzkin_terms(length):
    pieces = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
    h = solve_half_pyramids(pieces, 2 * length)
    return coefficients_by_pieces(h, pieces)


class TestRecurrenceType:
    def test_normalization(self):
        rec = Recurrence((IntPoly((4, 8)), IntPoly((-2,))))
        # content 2 removed, sign flipped so the leading poly is positive
        assert rec.coeff_polys == (IntPoly((-2, -4)), IntPoly((1,)))
        assert rec.order == 1
        assert rec.degree == 1

    def test_rejects_zero_leading_polynomial(self):
        with pytest.raises(ValueError):
            Recurrence((IntPoly((1,)), IntPoly(())))

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            Recurrence((IntPoly((1,)),))


class TestGuess:
    def test_geometric_sequence(self):
        seq = Sequence(0, tuple(3**n for n in range(40)))
        rec = guess_recurrence(seq, 3, 3)
        assert rec is not None
        assert (rec.order, rec.degree) == (1, 0)
        assert rec.coeff_polys == (IntPoly((-3,)), IntPoly((1,)))

    def test_catalan_recurrence(self):
        rec = guess_recurrence(catalan_sequence(60), 3, 3)
        assert rec is not None
        assert rec.coeff_polys == CATALAN_REC.coeff_polys

    def test_random_sequence_gives_none(self):
        rng = random.Random(12345)
        seq = Sequence(0, tuple(rng.getrandbits(64) for _ in range(40)))
        assert guess_recurrence(seq, 3, 3) is None

    def test_insufficient_terms_is_an_error_not_none(self):
        with pytest.raises(InsufficientTermsError):
            guess_recurrence(Sequence(0, (1, 2, 3)), 3, 3)

    def test_guess_respects_offset(self):
        shifted = catalan_sequence(60, offset=5)
        rec = guess_recurrence(shifted, 3, 3)
        assert rec is not None
        assert verify_recurrence(rec, catalan_sequence(200, offset=5))

    def test_normalized_guess_is_prefix_independent(self):
        long = catalan_sequence(90)
        short = catalan_sequence(60)
        rec_long = guess_recurrence(long, 3, 3)
        rec_short = guess_recurrence(short, 3, 3)
        assert rec_long == rec_short

    @pytest.mark.parametrize("ints", [
        catalan_sequence(60, offset=5),
        Sequence(1, tuple(-(3**n) + n for n in range(1, 40))),  # negative terms
        Sequence(0, tuple(motzkin_terms(40))),
    ])
    def test_read_terms_guess_what_int_terms_guess(self, ints):
        payload = jsonio.sequence_to_json(ints)
        read = jsonio.sequence_from_json(payload)
        assert {type(t) for t in read.terms} == {DecimalInt}
        rec = guess_recurrence(ints, 3, 3)
        assert rec is not None
        assert guess_recurrence(read, 3, 3) == rec


class TestVerify:
    def test_catalan_holds_on_many_terms(self):
        assert verify_recurrence(CATALAN_REC, catalan_sequence(300))

    def test_catalan_recurrence_rejects_motzkin(self):
        motzkin = Sequence(0, tuple(motzkin_terms(40)))
        assert not verify_recurrence(CATALAN_REC, motzkin)

    def test_vacuous_when_too_short(self):
        assert verify_recurrence(CATALAN_REC, Sequence(0, (5,)))

    def test_decimal_terms_are_checked_exactly(self):
        # a(n+1) = a(n) fails by 1 in the 41st digit, past Decimal's default 28
        constant = Recurrence((IntPoly((-1,)), IntPoly((1,))))
        big = 10**40
        for number in NUMBER_TYPES:
            assert verify_recurrence(constant, Sequence(0, (number(big), number(big))))
            assert not verify_recurrence(constant, Sequence(0, (number(big), number(big + 1))))


def typed(initial, number):
    return Sequence(initial.offset, tuple(number(t) for t in initial.terms), initial.label)


def extend_both(rec, initial, target_length):
    """The int and the Decimal unrolls of the same initial terms.

    They must print term for term alike, and new terms keep the type of the
    initial ones.
    """
    runs = [extend_sequence(rec, typed(initial, number), target_length) for number in NUMBER_TYPES]
    for number, run in zip(NUMBER_TYPES, runs):
        assert {type(t) for t in run.terms} == {number}
        assert [str(t) for t in run.terms] == [str(t) for t in runs[0].terms]
    return runs


def raised_both(rec, initial, target_length):
    """The error type and message of an unroll that must fail, alike for both types."""
    errors = []
    for number in NUMBER_TYPES:
        with pytest.raises((SingularRecurrenceError, InconsistentRecurrenceError)) as excinfo:
            extend_sequence(rec, typed(initial, number), target_length)
        errors.append((type(excinfo.value), str(excinfo.value)))
    assert errors == [errors[0]] * len(errors)
    return errors[0]


class TestExtend:
    def test_catalan_to_eleven_terms(self):
        for number, out in zip(NUMBER_TYPES, extend_both(CATALAN_REC, Sequence(0, (1,)), 11)):
            assert out.terms[10] == 16796
            assert type(out.terms[10]) is number

    def test_catalan_past_the_default_decimal_precision(self):
        # terms reach 175 digits, far past Decimal's default 28
        for out in extend_both(CATALAN_REC, Sequence(0, (1,)), 300):
            assert out.terms == catalan_sequence(300).terms

    def test_powers_of_three_to_fifty_thousand(self):
        rec = Recurrence((IntPoly((-3,)), IntPoly((1,))))
        for number in NUMBER_TYPES:
            out = extend_sequence(rec, Sequence(0, (number(1),)), 50000)
            assert len(out) == 50000
            last = out.terms[49999]
            assert type(last) is number
            assert last == 3**49999
            # Decimal prints past the int/str digit cap
            assert len(str(Decimal(last))) == math.floor(49999 * math.log10(3)) + 1 == 23856

    def test_all_zero_extension(self):
        for out in extend_both(CATALAN_REC, Sequence(0, (0, 0)), 40):
            assert set(out.terms) == {0}
            assert {str(t) for t in out.terms} == {"0"}

    def test_zero_over_a_negative_leading_coefficient_is_not_minus_zero(self):
        # (n-5) a(n+1) = -a(n): p_1(n) < 0 for the first terms
        rec = Recurrence((IntPoly((1,)), IntPoly((-5, 1))))
        for out in extend_both(rec, Sequence(0, (0,)), 4):
            assert [str(t) for t in out.terms] == ["0", "0", "0", "0"]

    def test_requires_enough_initial_terms(self):
        rec = Recurrence((IntPoly((1,)), IntPoly((1,)), IntPoly((1,))))
        with pytest.raises(InsufficientTermsError):
            extend_sequence(rec, Sequence(0, (1,)), 10)

    def test_target_not_beyond_initial_returns_prefix(self):
        out = extend_sequence(CATALAN_REC, Sequence(0, (1, 1, 2, 5)), 2)
        assert out.terms == (1, 1)

    @pytest.mark.parametrize("target", [0, -5])
    def test_target_below_one_is_rejected(self, target):
        with pytest.raises(ValueError, match=f"got {target}"):
            extend_sequence(CATALAN_REC, Sequence(0, (1, 1, 2, 5)), target)

    def test_singular_leading_coefficient_names_index(self):
        # (n-5) a(n+1) = 2 (n-5) a(n): doubles exactly until p_1(5) = 0
        rec = Recurrence((IntPoly((10, -2)), IntPoly((-5, 1))))
        kind, message = raised_both(rec, Sequence(0, (1,)), 10)
        assert kind is SingularRecurrenceError
        assert "n=5" in message

    def test_inexact_division_is_reported(self):
        # 2 a(n+1) = a(n) forces halving: fails on odd input, whether the
        # division truncates (Decimal) or floors (int)
        rec = Recurrence((IntPoly((-1,)), IntPoly((2,))))
        for first in (3, -3):
            kind, _ = raised_both(rec, Sequence(0, (first,)), 4)
            assert kind is InconsistentRecurrenceError

    def test_roundtrip_guess_then_extend(self):
        seq = catalan_sequence(80)
        rec = guess_recurrence(seq, 3, 3)
        replay = extend_sequence(rec, Sequence(0, seq.terms[:2], "catalan"), 80)
        assert replay.terms == seq.terms


W = recurrences._WINDOW
# (n+4) a(n+2) = (2n+5) a(n+1) + 3(n+1) a(n), Motzkin numbers: order 2
MOTZKIN_REC = Recurrence((IntPoly((-3, -3)), IntPoly((-5, -2)), IntPoly((4, 1))))
MOTZKIN = Sequence(0, (1, 1, 2, 4, 9, 21, 51, 127, 323, 835), "motzkin")


def window_edges(initial):
    """Target lengths at and around the edges of extended_terms' windows."""
    n = len(initial)
    return sorted({1, n, n + 1, W - 1, W, W + 1, 3 * W + 2, n + W - 1, n + W, n + W + 1, 3 * W + n + 2})


class TestExtendedTerms:
    @pytest.mark.parametrize("rec, initial", [
        (CATALAN_REC, Sequence(0, (1,))),
        (CATALAN_REC, catalan_sequence(5, offset=3)),
        (MOTZKIN_REC, MOTZKIN),
        (MOTZKIN_REC, Sequence(7, MOTZKIN.terms[7:9])),
    ])
    @pytest.mark.parametrize("number", NUMBER_TYPES)
    def test_terms_are_those_of_extend_sequence(self, rec, initial, number):
        initial = typed(initial, number)
        for length in window_edges(initial):
            terms = list(extended_terms(rec, initial, length))
            expected = extend_sequence(rec, initial, length).terms
            assert terms == list(expected)
            assert [type(t) for t in terms] == [type(t) for t in expected]

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_windows_narrower_than_the_order(self, monkeypatch, window):
        # an order-2 recurrence over 1-term windows unrolls from initial terms
        # and new ones alike
        monkeypatch.setattr(recurrences, "_WINDOW", window)
        for length in range(1, 20):
            assert tuple(extended_terms(MOTZKIN_REC, MOTZKIN, length)) == (
                extend_sequence(MOTZKIN_REC, MOTZKIN, length).terms)

    def test_motzkin_recurrence(self):
        assert verify_recurrence(MOTZKIN_REC, Sequence(0, tuple(motzkin_terms(40))))
        assert MOTZKIN.terms == tuple(motzkin_terms(10))

    def test_every_term_is_made_by_extend_sequence(self, monkeypatch):
        # the benchmark's tracer wraps the module's extend_sequence and sizes
        # what it returns: each window goes through it, none is skipped
        made = []

        def spy(rec, initial, target_length):
            out = extend_sequence(rec, initial, target_length)
            made.append((len(initial), len(out)))
            return out

        monkeypatch.setattr(recurrences, "extend_sequence", spy)
        initial = catalan_sequence(5)
        assert len(list(extended_terms(CATALAN_REC, initial, 3 * W + 7))) == 3 * W + 7
        assert made == [(5, W + 5), (1, W + 1), (1, W + 1), (1, 3)]

    @pytest.mark.parametrize("rec, first, target, kind, n", [
        # (n-k) a(n+1) = 2 (n-k) a(n) doubles exactly until p_1(k) = 0
        (Recurrence((IntPoly((4 * W + 10, -2)), IntPoly((-2 * W - 5, 1)))), 1, 4 * W,
         SingularRecurrenceError, 2 * W + 5),
        # 2 a(n+1) = a(n) halves 3 * 2^k exactly k times
        (Recurrence((IntPoly((-1,)), IntPoly((2,)))), 3 * 2 ** (2 * W + 3), 4 * W,
         InconsistentRecurrenceError, 2 * W + 3),
    ])
    @pytest.mark.parametrize("number", NUMBER_TYPES)
    def test_errors_are_extend_sequences_at_the_same_n(self, rec, first, target, kind, n, number):
        initial = Sequence(0, (number(first),))
        with pytest.raises(kind) as direct:
            extend_sequence(rec, initial, target)
        made = []
        with pytest.raises(kind) as windowed:
            made.extend(extended_terms(rec, initial, target))
        assert str(windowed.value) == str(direct.value)
        assert f"{n}" in str(windowed.value)
        # the windows before the failing one came through whole
        assert 0 < len(made) <= n
        assert made == list(extend_sequence(rec, initial, n + 1).terms[:len(made)])

    def test_argument_errors_are_raised_on_the_first_term(self):
        terms = extended_terms(MOTZKIN_REC, Sequence(0, (1,)), 10)
        with pytest.raises(InsufficientTermsError):
            next(terms)
        with pytest.raises(ValueError, match="got 0"):
            next(extended_terms(CATALAN_REC, Sequence(0, (1,)), 0))


class TestTabulation:
    """The unroll's p_j(n), tabulated by finite differences, are Horner's values."""

    @pytest.mark.parametrize("start", [-9, 0, 4])
    @pytest.mark.parametrize("degree", range(-1, 7))
    def test_values_are_those_of_horner(self, degree, start):
        rng = random.Random(10 * degree + start)
        coeffs = [rng.randint(-50, 50) for _ in range(degree)] + [rng.choice([-7, 3])] if degree >= 0 else []
        poly = IntPoly(coeffs)
        assert poly.degree == degree
        for count in [*range(degree + 4), 40]:
            expected = [poly(n) for n in range(start, start + count)]
            assert list(recurrences._tabulate(poly, start, count)) == expected


@st.composite
def unroll_cases(draw):
    """A recurrence, initial terms and a target length; most leads are not units, so most unrolls fail."""
    r = draw(st.integers(1, 3))
    small = st.lists(st.integers(-4, 4), max_size=5).map(IntPoly)
    lead = draw(st.one_of(
        st.sampled_from([IntPoly((1,)), IntPoly((-1,))]),
        st.integers(-12, 12).map(lambda k: IntPoly((-k, 1)) * draw(st.sampled_from([1, -1, 2]))),
        small.filter(bool),
    ))
    rec = Recurrence(tuple(draw(small) for _ in range(r)) + (lead,))
    initial = draw(st.lists(st.integers(-9, 9), min_size=r, max_size=r + 3))
    offset = draw(st.integers(-8, 8))
    return rec, Sequence(offset, tuple(initial)), draw(st.integers(1, len(initial) + 25))


@settings(max_examples=200, deadline=None)
@given(case=unroll_cases())
def test_unroll_equals_the_horner_reference(case):
    """Terms, errors and the n they name are the step-by-step Horner unroll's, for every term type."""
    rec, initial, target = case
    try:
        expected = [str(t) for t in horner_unroll(rec, initial, target)]
    except (SingularRecurrenceError, InconsistentRecurrenceError) as exc:
        expected = (type(exc), str(exc))
    for number in NUMBER_TYPES:
        try:
            out = extend_sequence(rec, typed(initial, number), target)
        except (SingularRecurrenceError, InconsistentRecurrenceError) as exc:
            assert (type(exc), str(exc)) == expected
            continue
        assert [str(t) for t in out.terms] == expected  # so no zero prints as -0
        assert {type(t) for t in out.terms[len(initial):]} <= {number}
        if target > len(initial):
            # the windows that end in an unrolled term hold; the last one's p_r(n) is
            # nonzero, so it fails once its last term moves
            made = Sequence(out.offset + len(initial) - rec.order, out.terms[len(initial) - rec.order:])
            assert verify_recurrence(rec, made)
            with decimal.localcontext(recurrences._EXACT):  # 28 digits would round the + 1 away
                bumped = made.terms[:-1] + (made.terms[-1] + 1,)
            assert not verify_recurrence(rec, Sequence(made.offset, bumped))


def test_zero_products_of_negative_decimals_are_not_minus_zero():
    # a(n+1) = -(n-2) a(n): p_0(2) = 0 times a negative term, then zeros on
    rec = Recurrence((IntPoly((-2, 1)), IntPoly((1,))))
    for out in extend_both(rec, Sequence(0, (-5,)), 8):
        assert [str(t) for t in out.terms] == ["-5", "-10", "-10", "0", "0", "0", "0", "0"]


class TestSequenceFromSeries:
    def test_drops_constant_term_and_sets_offset(self):
        pieces = PieceSet.of(1)
        h = solve_half_pyramids(pieces, 6)
        assert sequence_from_series(h) == Sequence(1, (1, 1, 1, 1, 1, 1))


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.integers(-4, 4).filter(bool), min_size=2, max_size=3),
    initial=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
def test_constant_recurrences_roundtrip(coeffs, initial):
    """Sequences built from a known constant-coefficient recurrence are re-guessed."""
    order = len(coeffs)
    polys = tuple(IntPoly((c,)) for c in coeffs) + (IntPoly((1,)),)
    rec = Recurrence(polys)
    seq = extend_both(rec, Sequence(0, tuple(initial[:order]), "lin"), 45)[0]
    guessed = guess_recurrence(seq, 3, 2)
    assert guessed is not None
    assert verify_recurrence(guessed, seq)


PRIME = recurrences._PRIME


def rational_unroll(polys, initial, offset, length):
    """Terms of sum_j p_j(n) a(n+j) = 0 over Q, scaled to integers.

    The recurrence is homogeneous, so any common multiple of the terms
    satisfies it too.  None where the leading coefficient vanishes.
    """
    r = len(polys) - 1
    terms = [Fraction(t) for t in initial]
    while len(terms) < length:
        n = offset + len(terms) - r
        lead = polys[r](n)
        if lead == 0:
            return None
        terms.append(-sum(polys[j](n) * terms[n - offset + j] for j in range(r)) / lead)
    scale = math.lcm(*(t.denominator for t in terms))
    return [int(t * scale) for t in terms]


OFFSETS = st.one_of(
    st.integers(-30, 30),
    st.integers(PRIME - 30, PRIME + 30),  # n runs through 0 mod p
    st.integers(-PRIME - 30, -PRIME + 30),
)


@st.composite
def guess_cases(draw):
    """A sequence and guess bounds, with the sequence long enough for the bounds."""
    max_order, max_degree = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    guard = draw(st.integers(0, 6))
    length = (max_order + 1) * (max_degree + 1) + max_order + guard + draw(st.integers(0, 6))
    offset = draw(OFFSETS)
    kind = draw(st.sampled_from(["recurrence", "times prime", "k-grid", "noise"]))
    if kind == "noise":
        terms = draw(st.lists(st.integers(-10**6, 10**6), min_size=length, max_size=length))
    else:
        r, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        coeffs = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
        polys = [IntPoly(draw(coeffs)) for _ in range(r + 1)]
        assume(not polys[-1].is_zero)
        initial = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
        k = draw(st.integers(2, 3)) if kind == "k-grid" else 1
        base = rational_unroll(polys, initial, offset, -(-length // k))
        assume(base is not None)
        terms = [0] * (k * len(base))
        terms[::k] = base  # zero off the k-grid
        terms = terms[:length]
        if kind == "times prime":
            terms = [t * PRIME for t in terms]  # every term is 0 mod p
    return Sequence(offset, tuple(terms)), max_order, max_degree, guard


@settings(max_examples=60, deadline=None)
@given(case=guess_cases())
def test_guess_equals_the_exact_search_of_every_shape(case):
    seq, max_order, max_degree, guard = case
    assert guess_recurrence(seq, max_order, max_degree, guard) == exhaustive_guess(
        seq, max_order, max_degree, guard
    )


VERIFY_SETS = [PieceSet(sizes) for sizes in ACCEPTANCE_SETS] + [
    PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
]


@pytest.mark.parametrize("pieces", VERIFY_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
def test_verify_guesses_equal_the_exact_search(pieces):
    """The 60-term guesses of `verify`, at its bounds."""
    family = series_family(pieces, 60)
    for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
        seq = sequence_from_series(family[shape])
        rec = guess_recurrence(seq, 7, 5, 5)
        assert rec is not None
        assert rec == exhaustive_guess(seq, 7, 5, 5)


def first_singular_degree(seq, r, max_degree, guard):
    """The smallest degree whose (r, d) system the filter cannot rule out; max_degree+1 if none."""
    system = recurrences._Elimination(seq, r, max_degree, guard)
    return next((d for d in range(max_degree + 1) if None in system.through(d)), max_degree + 1)


def assert_filter_equals_the_list_reference(seq):
    """Both filters at `verify`'s bounds: max degree 5, guard 5, every order up to 7."""
    for r in range(1, 8):
        assert first_singular_degree(seq, r, 5, 5) == list_first_singular_degree(
            seq, r, 5, 5
        )


@pytest.mark.parametrize("pieces", VERIFY_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
def test_packed_filter_equals_the_list_reference_on_verify_sequences(pieces):
    family = series_family(pieces, 60)
    for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
        assert_filter_equals_the_list_reference(sequence_from_series(family[shape]))


@st.composite
def filter_sequences(draw):
    """60 terms: random, P-recursive, or either times PRIME (every term 0 mod p)."""
    length, offset = 60, draw(OFFSETS)
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(-10**12, 10**12), min_size=length, max_size=length))
    else:
        r, d = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        coeffs = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
        polys = [IntPoly(draw(coeffs)) for _ in range(r + 1)]
        assume(not polys[-1].is_zero)
        initial = draw(st.lists(st.integers(-5, 5), min_size=r, max_size=r))
        terms = rational_unroll(polys, initial, offset, length)
        assume(terms is not None)
    if draw(st.booleans()):
        terms = [t * PRIME for t in terms]
    return Sequence(offset, tuple(terms))


@settings(max_examples=40, deadline=None)
@given(seq=filter_sequences())
def test_packed_filter_equals_the_list_reference(seq):
    assert_filter_equals_the_list_reference(seq)


def test_packed_filter_keeps_the_largest_entries_apart():
    # a(n+1) = (n^5 + 2) a(n) from a(p-1) = -1: the first row has n = p - 1 and
    # a(n) = -1, so its entries a(n+j)*n^e at odd e start at (p-1)**2, the largest
    # product the filter packs unreduced; the first free column is (e, j) = (5, 0),
    # so every other row takes 5(r+1) updates before it
    terms = [-1]
    for n in range(PRIME - 1, PRIME + 58):
        terms.append((n**5 + 2) * terms[-1])
    seq = Sequence(PRIME - 1, tuple(terms))
    for r in range(1, 8):
        assert first_singular_degree(seq, r, 5, 5) == 5
    assert_filter_equals_the_list_reference(seq)


def test_filter_stops_at_its_first_free_column(monkeypatch):
    """Full elimination of every column made `verify`'s guesses slower, so the filter
    draws no elimination step past the degree block it is asked about: here block 0,
    whose second column, the first without a pivot, ends the scan."""
    drawn = []
    echelon = recurrences._echelon

    def counting(*args):
        for step in echelon(*args):
            drawn.append(step)
            yield step

    monkeypatch.setattr(recurrences, "_echelon", counting)
    seq = Sequence(0, tuple(2**k for k in range(60)))  # column a(n+1) is twice column a(n)
    assert first_singular_degree(seq, 1, 5, 5) == 0
    assert [step is None for step in drawn] == [False, True]  # 2 of the 12 columns


@pytest.fixture
def exact_eliminations(monkeypatch):
    """The column count of every exact kernel computed, in call order."""
    calls = []
    kernel = recurrences.integer_kernel

    def counting(matrix, steps=None):
        calls.append(len(matrix[0]))
        return kernel(matrix, steps)

    monkeypatch.setattr(recurrences, "integer_kernel", counting)
    return calls


def test_filter_rules_out_every_shape_of_a_failed_guess(exact_eliminations):
    # S={1,2,3} towers need order 7; the CLI's default bounds stop at order 5
    family = series_family(PieceSet((1, 2, 3)), 120)
    seq = sequence_from_series(family[Shape.TOWER])
    assert guess_recurrence(seq, 5, 6, 10) is None
    assert exact_eliminations == []
    assert exhaustive_guess(seq, 5, 6, 10) is None
    # the exact route solves every shape it is handed
    assert all(recurrences._candidate(seq, r, d, 10) is None for r in range(1, 6) for d in range(7))
    assert len(exact_eliminations) == 5 * 7


def test_filter_leaves_the_trimer_recurrence_to_one_exact_elimination(exact_eliminations):
    pieces = PieceSet.of(3)
    towers = series_family(pieces, 300)[Shape.TOWER]
    seq = Sequence(1, tuple(coefficients_by_pieces(towers, pieces)))  # as recurrence-long's series
    rec = guess_recurrence(seq, 5, 6, 10)
    assert (rec.order, rec.degree) == (2, 3)
    assert exact_eliminations == [3 * 4]


@pytest.fixture
def openings(monkeypatch):
    """(by, ncols, p, read, drawn) for every modular elimination opened, in order.

    `by` is "filter" for a guessing filter's and "kernel" for an exact
    kernel's own, `read` the number of rows it has read, and `drawn` lists
    each step drawn, True where it is None.
    """
    opened = []
    echelon = polynomials._echelon

    def counting(by):
        def opening(rows, ncols, bits, p):
            read, drawn = [0], []
            opened.append((by, ncols, p, read, drawn))

            def reading():
                for row in rows:
                    read[0] += 1
                    yield row

            for step in echelon(reading(), ncols, bits, p):
                drawn.append(step is None)
                yield step

        return opening

    monkeypatch.setattr(recurrences, "_echelon", counting("filter"))
    monkeypatch.setattr(polynomials, "_echelon", counting("kernel"))
    return opened


def test_the_trimer_guess_draws_only_the_blocks_it_asks_about(openings):
    """recurrence-long's guess at the CLI bounds: each order is drawn through the degree
    block of the last total the search reached, reading its rows only as it needs
    them, and the (2, 3) candidate lifts from order 2's steps, so nothing else is
    eliminated."""
    pieces = PieceSet.of(3)
    towers = series_family(pieces, 300)[Shape.TOWER]
    seq = Sequence(1, tuple(coefficients_by_pieces(towers, pieces)))
    rec = guess_recurrence(seq, 5, 6, 10)
    assert (rec.order, rec.degree) == (2, 3)
    # order r has 7(r+1) columns and 7(r+1) + 8 rows; the guess ends at total 5 on
    # order 2, so orders 1 and 2 are drawn through block 5 - r, and 3 and 4 through
    # 4 - r; the None at order 2's last column reads all of its rows
    assert [(by, ncols, read[0]) for by, ncols, _, read, _ in openings] == [
        ("filter", 14, 10), ("filter", 21, 29), ("filter", 28, 8), ("filter", 35, 5)]
    assert [drawn for *_, drawn in openings] == [
        [False] * 10, [False] * 11 + [True], [False] * 8, [False] * 5]


@pytest.mark.parametrize("pieces", VERIFY_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
def test_verify_guesses_eliminate_each_row_once(pieces, openings):
    """Each order opens one filter, and every exact kernel but one lifts straight
    from its steps.  {3} towers' (3, 5) candidate, whose filter's first 32 rows
    leave two columns free, eliminates its 60 - 5 - 3 rows again at the first
    prime, once; their 36th gives the last pivot, so the shape has no kernel."""
    family = series_family(pieces, 60)
    for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
        seq = sequence_from_series(family[shape])
        openings.clear()
        guess_recurrence(seq, 7, 5, 5)
        filters = [ncols for by, ncols, *_ in openings if by == "filter"]
        assert filters == [6 * (r + 1) for r in range(1, len(filters) + 1)]  # order r's
        wholes = [(ncols, p, read[0]) for by, ncols, p, read, _ in openings if by == "kernel"]
        assert wholes == ([(4 * 6, PRIME, 36)] if (pieces, shape) == (PieceSet.of(3), Shape.TOWER)
                          else [])


# Sequences whose first shape the filter cannot rule out has a kernel of
# dimension 3: the exact kernel, lifted from the filter's degree-block
# pivots, has a basis other than the j-major one that the exact search reads.
WIDE_KERNELS = [
    (Sequence(-1, (1, -5, 0, 5, -5, 4) + (0,) * 10), 2, 2, 5),  # vanishes from n = 5 on
    (Sequence(-3, (0,) * 8 + (3, -2, -2, -4, 1, -4, -1, 0, 3)), 2, 3, 0),  # up to n = 4
    (Sequence(-3, (-1, -2, 0, 0, -2, 0, -5, 0, 2) + (0,) * 8), 2, 3, 2),
    (Sequence(4, (0, 0, -2, 0, 3, 0, 3, 0, 3, 0, -3, 0, 0, 0, -3, 0, 2) + (0,) * 14), 4, 3, 3),
]


@pytest.mark.parametrize("case", WIDE_KERNELS, ids=range(len(WIDE_KERNELS)))
def test_wide_first_kernels_give_the_exact_search_guess(case, monkeypatch):
    seq, max_order, max_degree, guard = case
    dimensions = []
    kernel = recurrences.integer_kernel
    monkeypatch.setattr(recurrences, "integer_kernel",
                        lambda matrix, steps=None: dimensions.append(
                            len(basis := kernel(matrix, steps))) or basis)
    assert guess_recurrence(seq, max_order, max_degree, guard) == exhaustive_guess(
        seq, max_order, max_degree, guard)
    assert dimensions == [3]


@st.composite
def sparse_guess_cases(draw):
    """Short sequences that vanish on a long stretch, at either end or off a k-grid."""
    max_order, max_degree = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    guard = draw(st.integers(0, 6))
    length = (max_order + 1) * (max_degree + 1) + max_order + guard + draw(st.integers(0, 6))
    nonzero = draw(st.integers(1, length))
    values = st.lists(st.integers(-5, 5), min_size=nonzero, max_size=nonzero)
    kind = draw(st.sampled_from(["zero tail", "zero head", "k-grid"]))
    if kind == "zero tail":
        terms = draw(values) + [0] * (length - nonzero)
    elif kind == "zero head":
        terms = [0] * (length - nonzero) + draw(values)
    else:
        k = draw(st.integers(2, 3))
        terms = [0] * length
        terms[:nonzero:k] = draw(values)[: len(range(0, nonzero, k))]
    return Sequence(draw(st.integers(-5, 5)), tuple(terms)), max_order, max_degree, guard


@settings(max_examples=60, deadline=None)
@given(case=sparse_guess_cases())
def test_guesses_on_sparse_sequences_equal_the_exact_search(case):
    seq, max_order, max_degree, guard = case
    assert guess_recurrence(seq, max_order, max_degree, guard) == exhaustive_guess(
        seq, max_order, max_degree, guard
    )


# ---------------------------------------------------------------- recurrences derived from Q

DERIVED_SETS = [PieceSet(sizes) for sizes in ACCEPTANCE_SETS] + [
    PieceSet.of(1, rule=Rule.NO_EXACT_ALIGNMENT),  # H = P = t: a polynomial
    PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT),
    PieceSet.of(3, rule=Rule.NO_EXACT_ALIGNMENT),
    PieceSet.of(5),
    PieceSet((2, 4)),
]


def _unrolled(q, coeffs, length):
    """The derived recurrence unrolled from just enough of coeffs, and its n0."""
    rec, n0 = derive_recurrence(q)
    start = n0 + rec.order
    return extend_sequence(rec, Sequence(0, coeffs[:start]), length), rec, n0


@pytest.mark.parametrize("shape", list(Shape), ids=lambda s: s.value)
@pytest.mark.parametrize("pieces", DERIVED_SETS, ids=str)
def test_derived_recurrence_equals_the_solver(pieces, shape):
    series = series_family(pieces, 400, through=shape)[shape]
    q = annihilating_polynomial(pieces, shape, series).coeffs
    unrolled, rec, n0 = _unrolled(q, series.coeffs, 401)
    assert unrolled.terms == series.coeffs
    assert verify_recurrence(rec, Sequence(n0, series.coeffs[n0:]))
    if n0 > 0:
        assert not verify_recurrence(rec, Sequence(n0 - 1, series.coeffs[n0 - 1 : n0 + rec.order]))


def test_derived_trimer_recurrence_has_the_expected_shape():
    # S={1,2,3} towers: Q has y-degree 3, the ODE order 2, the recurrence order 13, degree 2
    pieces = PieceSet((1, 2, 3))
    series = series_family(pieces, 60)[Shape.TOWER]
    rec, n0 = derive_recurrence(annihilating_polynomial(pieces, Shape.TOWER, series).coeffs)
    assert (rec.order, rec.degree, n0) == (13, 2, 0)


def test_derivation_of_a_rational_series():
    # (1 - 4t^2) y - t^2 = 0: the dimer towers, 4^(n-1) on the even powers
    rec, n0 = derive_recurrence([IntPoly((0, 0, -1)), IntPoly((1, 0, -4))])
    assert rec.coeff_polys == (IntPoly((-4,)), IntPoly(), IntPoly((1,)))
    assert n0 == 1
    terms = extend_sequence(rec, Sequence(0, (0, 0, 1)), 12).terms
    assert terms == (0, 0, 1, 0, 4, 0, 16, 0, 64, 0, 256, 0)


@pytest.mark.parametrize("pieces", [PieceSet((1, 2, 3)), PieceSet((1, 2)), PieceSet.of(3)],
                         ids=str)
def test_a_bumped_annihilator_does_not_reproduce_the_series(pieces):
    # the negative control: every y-coefficient of Q in turn, bumped at t^0 and
    # at t^1, must fail the derivation, the unroll, or the comparison
    series = series_family(pieces, 120)[Shape.TOWER]
    q = annihilating_polynomial(pieces, Shape.TOWER, series).coeffs
    for j in range(len(q)):
        for bump in (IntPoly((1,)), IntPoly((0, 1))):
            bumped = list(q)
            bumped[j] = bumped[j] + bump
            try:
                unrolled, _, _ = _unrolled(bumped, series.coeffs, 121)
            except (ConsistencyError, InconsistentRecurrenceError):
                continue
            assert unrolled.terms != series.coeffs, (j, bump)
