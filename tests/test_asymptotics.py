import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from towers import jsonio
from towers.asymptotics import ZeroTermError, estimate_asymptotics, minimum_terms
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly
from towers.recurrences import (
    InsufficientTermsError,
    Recurrence,
    Sequence,
    extend_sequence,
    guess_recurrence,
)
from towers.series import coefficients_by_pieces, series_family, solve_half_pyramids

import references
from references import decimal_str, term_by_term_estimate


def catalan_sequence(length):
    return Sequence(0, tuple(math.comb(2 * n, n) // (n + 1) for n in range(length)), "catalan")


def motzkin_sequence(length):
    """Motzkin numbers via the guessed recurrence, seeded from the series."""
    pieces = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
    h = solve_half_pyramids(pieces, 160)
    seed = Sequence(1, tuple(coefficients_by_pieces(h, pieces)), "motzkin")
    rec = guess_recurrence(seed, 3, 3)
    assert rec is not None
    return extend_sequence(rec, seed, length)


def trimer_tower_tail(length, tail):
    """The last `tail` of `length` trimer-tower counts by piece count, at their offset."""
    pieces = PieceSet.of(3)
    towers = series_family(pieces, 210, through=Shape.TOWER)[Shape.TOWER]
    seed = Sequence(1, tuple(coefficients_by_pieces(towers, pieces)), "trimer towers")
    rec = guess_recurrence(seed, 5, 6)
    assert rec is not None
    full = extend_sequence(rec, seed, length)
    return Sequence(full.offset + length - tail, full.terms[-tail:], full.label)


@pytest.fixture(scope="module")
def long_sequences():
    return {
        "catalan": catalan_sequence(2000),
        "motzkin": motzkin_sequence(2000),
        "trimer towers": trimer_tower_tail(2000, 40),
    }


@pytest.mark.parametrize("name", ["catalan", "motzkin", "trimer towers"])
def test_theta_by_linearity_equals_theta_term_by_term(long_sequences, name):
    seq = long_sequences[name]
    for depth in range(7):
        est = estimate_asymptotics(seq, depth=depth)
        assert (est.mu, est.theta, est.stability) == term_by_term_estimate(seq, depth), depth


def checked_reference(seq, depth):
    """term_by_term_estimate, refusing what estimate_asymptotics must refuse."""
    start = len(seq) - (depth + 3)
    tail = seq.terms[start:]
    if 0 in tail:
        raise ZeroTermError(f"n={seq.offset + start + tail.index(0)}")
    ratios = [(seq.offset + start + i, Fraction(b, a)) for i, (a, b) in enumerate(zip(tail, tail[1:]))]
    if references._richardson(ratios[1:]) <= 0:
        raise ValueError("not positive")
    return term_by_term_estimate(seq, depth)


_BIG = 10**30


@st.composite
def estimate_cases(draw):
    """Sequences of either sign at offsets 0-50, long enough for a depth of 0-6.

    Half are random terms, now and then with a zero; half grow like c*g^n
    plus a shift, so their window may change sign and still extrapolate.
    """
    depth, offset = draw(st.integers(0, 6)), draw(st.integers(0, 50))
    length = minimum_terms(depth) + draw(st.integers(0, 4))
    if draw(st.booleans()):
        terms = draw(st.lists(st.integers(-_BIG, _BIG), min_size=length, max_size=length))
        if draw(st.integers(0, 7)) == 0:
            terms[draw(st.integers(0, length - 1))] = 0
    else:
        c, g = draw(st.integers(-1000, 1000).filter(bool)), draw(st.integers(2, 9))
        shift = draw(st.integers(-_BIG, _BIG))
        terms = [c * g**n * (n + 1) + shift for n in range(offset, offset + length)]
    return Sequence(offset, tuple(terms)), depth


@settings(max_examples=300, deadline=None)
@given(case=estimate_cases())
def test_estimate_and_its_json_equal_the_term_by_term_reference(case):
    seq, depth = case
    try:
        want = checked_reference(seq, depth)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            estimate_asymptotics(seq, depth)
        assert raised.type is type(exc)
        return
    est = estimate_asymptotics(seq, depth)
    assert (est.mu, est.theta, est.stability) == want
    mu, theta, stability = want
    assert jsonio.dumps(jsonio.estimate_to_json(est)) == jsonio.dumps({
        "mu": decimal_str(mu),
        "theta": decimal_str(theta),
        "c_amplitude": None if est.c_amplitude is None else repr(est.c_amplitude),
        "stability": {k: decimal_str(v) for k, v in sorted(stability.items())},
        "empirical": True,
    })


class TestEstimates:
    def test_catalan_growth(self):
        est = estimate_asymptotics(catalan_sequence(2000), depth=4)
        assert abs(est.mu - 4) < Fraction(1, 10**6)
        assert abs(est.theta + Fraction(3, 2)) < Fraction(1, 100)
        # amplitude should resemble 1/sqrt(pi)
        assert est.c_amplitude == pytest.approx(1 / math.sqrt(math.pi), rel=0.01)

    def test_motzkin_growth(self):
        est = estimate_asymptotics(motzkin_sequence(2000), depth=4)
        assert abs(est.mu - 3) < Fraction(1, 10**6)
        assert abs(est.theta + Fraction(3, 2)) < Fraction(1, 100)

    def test_geometric_is_exact_at_any_depth(self):
        seq = Sequence(1, tuple(3 ** (n - 1) for n in range(1, 60)))
        for depth in (0, 2, 5):
            est = estimate_asymptotics(seq, depth=depth)
            assert est.mu == 3
            assert est.theta == 0
            assert est.stability["mu"] == 0
            assert est.stability["theta"] == 0


class TestInvariants:
    def test_scale_invariance_is_exact(self):
        base = catalan_sequence(400)
        scaled = Sequence(base.offset, tuple(7 * t for t in base.terms))
        a = estimate_asymptotics(base, depth=3)
        b = estimate_asymptotics(scaled, depth=3)
        assert a.mu == b.mu
        assert a.theta == b.theta
        assert a.stability == b.stability
        assert a.c_amplitude != b.c_amplitude

    def test_shift_robustness(self):
        base = catalan_sequence(1000)
        dropped = Sequence(10, base.terms[10:])
        a = estimate_asymptotics(base, depth=4)
        b = estimate_asymptotics(dropped, depth=4)
        assert abs(a.mu - b.mu) <= max(a.stability["mu"], Fraction(1, 10**12))

    def test_stability_shrinks_with_depth(self):
        cat = catalan_sequence(2000)
        mot = motzkin_sequence(2000)
        for seq in (cat, mot):
            stabilities = [estimate_asymptotics(seq, depth=m).stability["mu"] for m in range(7)]
            assert all(b <= a for a, b in zip(stabilities, stabilities[1:]))


class TestErrors:
    def test_zero_term_in_window_names_index(self):
        terms = [1] * 40
        terms[-2] = 0
        seq = Sequence(0, tuple(terms))
        with pytest.raises(ZeroTermError, match="n=38"):
            estimate_asymptotics(seq, depth=4)

    def test_early_zeroes_are_fine(self):
        terms = (0, 0) + tuple(2**n for n in range(38))
        est = estimate_asymptotics(Sequence(0, terms), depth=3)
        assert est.mu == 2

    def test_insufficient_length(self):
        with pytest.raises(InsufficientTermsError):
            estimate_asymptotics(Sequence(0, (1, 2, 3)), depth=4)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            estimate_asymptotics(catalan_sequence(50), depth=-1)


def test_extension_feeds_estimation():
    """Recurrence-extended terms give the same estimate as closed-form terms."""
    rec = Recurrence((IntPoly((-2, -4)), IntPoly((2, 1))))
    extended = extend_sequence(rec, Sequence(0, (1,)), 1500)
    direct = catalan_sequence(1500)
    assert extended.terms == direct.terms
    est = estimate_asymptotics(extended, depth=5)
    assert abs(est.mu - 4) < Fraction(1, 10**8)
