import functools
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
import sympy

from towers.algebra import (
    BivariatePolynomial,
    _denominator,
    _eliminant,
    _select_annihilator,
    annihilating_polynomial,
    defining_polynomial_H,
    verify_annihilator,
)
from towers.cli import main
from towers.errors import ConsistencyError, DegreeCapError, UnsupportedConfigurationError
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly, h_mul, without_content
from towers.series import TruncatedSeries, series_family, solve_half_pyramids

from references import evaluate, sylvester_resultant

DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)


def tower_series(pieces, order):
    return series_family(pieces, order)[Shape.TOWER]


def bivariate(*rows):
    return BivariatePolynomial(tuple(IntPoly(r) for r in rows))


def rows(coeffs):
    return [c.coeffs for c in coeffs]


class TestDefiningPolynomial:
    def test_dimer_all_interfaces(self):
        # y - t^2 (1+y)^2, normalized: t^2 y^2 + (2t^2 - 1) y + t^2
        assert defining_polynomial_H(DIMER) == bivariate((0, 0, 1), (-1, 0, 2), (0, 0, 1))

    def test_dimer_no_exact_alignment(self):
        # y - t^2 (1 + y + y^2)
        assert defining_polynomial_H(DIMER_NOALIGN) == bivariate((0, 0, 1), (-1, 0, 1), (0, 0, 1))

    def test_unit_pieces(self):
        # y - t (1+y), sign-normalized to (t-1) y + t
        assert defining_polynomial_H(PieceSet.of(1)) == bivariate((0, 1), (-1, 1))

    def test_y_degree_is_max_size(self):
        for sizes in [(2,), (3,), (1, 2), (2, 3), (1, 2, 3), (1, 4)]:
            pieces = PieceSet(sizes)
            assert defining_polynomial_H(pieces).y_degree == pieces.max_size

    def test_coefficients_are_pinned(self):
        # E normalized, then D' for pyramids and towers, as coefficient tuples in t
        trimer_noalign = PieceSet.of(3, rule=Rule.NO_EXACT_ALIGNMENT)
        assert rows(defining_polynomial_H(PieceSet.of(1, 2, 3)).coeffs) == [
            (0, 1, 1, 1), (-1, 1, 2, 3), (0, 0, 1, 3), (0, 0, 0, 1)]
        assert rows(_denominator(PieceSet.of(1, 2, 3), Shape.PYRAMID)) == [
            (1, 2, 1), (-2, 2, 2), (0, 0, 1)]
        assert rows(_denominator(PieceSet.of(1, 2, 3), Shape.TOWER)) == [
            (1, 2, 1), (-3, 0, 1), (2, -2, -1), (0, 0, -1)]
        assert rows(defining_polynomial_H(trimer_noalign).coeffs) == [
            (0, 0, 0, 1), (-1, 0, 0, 2), (0, 0, 0, 3), (0, 0, 0, 1)]
        assert rows(_denominator(trimer_noalign, Shape.PYRAMID)) == [(1,), (-2,)]
        assert rows(_denominator(trimer_noalign, Shape.TOWER)) == [(1,), (-3,), (2,)]

    def test_noalign_multi_size_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            defining_polynomial_H(PieceSet((1, 2), Rule.NO_EXACT_ALIGNMENT))


class TestNormalization:
    def test_content_and_sign(self):
        messy = bivariate((0, -2), (2, -8))
        assert messy == bivariate((0, 1), (-1, 4))

    def test_zero_polynomial(self):
        assert BivariatePolynomial((IntPoly(),)).coeffs == ()


class TestVerifyAnnihilator:
    def test_expected_tower_annihilator_verifies(self):
        m = series_family(DIMER, 80)[Shape.TOWER]
        q = bivariate((0, 0, -1), (1, 0, -4))  # (1 - 4t^2) y - t^2
        assert verify_annihilator(q, m)

    def test_wrong_piece_set_fails(self):
        h = solve_half_pyramids(DIMER, 40)
        assert not verify_annihilator(defining_polynomial_H(PieceSet.of(1)), h)

    def test_zero_coefficient_in_y(self):
        # y^2 - t^2 has no y term: it vanishes on t and not on 2t
        q = bivariate((0, 0, -1), (), (1,))
        assert verify_annihilator(q, TruncatedSeries((0, 1, 0, 0)))
        assert not verify_annihilator(q, TruncatedSeries((0, 2, 0, 0)))

    def test_constant_one_fails(self):
        h = solve_half_pyramids(DIMER, 20)
        assert not verify_annihilator(bivariate((1,)), h)


class TestAnnihilatingPolynomial:
    def test_dimer_towers_both_rules(self):
        q_all = annihilating_polynomial(DIMER, Shape.TOWER, tower_series(DIMER, 200))
        assert q_all == bivariate((0, 0, -1), (1, 0, -4))
        q_no = annihilating_polynomial(DIMER_NOALIGN, Shape.TOWER, tower_series(DIMER_NOALIGN, 200))
        assert q_no == bivariate((0, 0, -1), (1, 0, -3))

    def test_half_pyramid_returns_defining_polynomial(self):
        for pieces in [DIMER, PieceSet.of(1, 2), DIMER_NOALIGN]:
            h = solve_half_pyramids(pieces, 60)
            assert annihilating_polynomial(pieces, Shape.HALF_PYRAMID, h) == defining_polynomial_H(pieces)

    def test_unit_towers(self):
        q = annihilating_polynomial(PieceSet.of(1), Shape.TOWER, tower_series(PieceSet.of(1), 60))
        assert q == bivariate((0, -1), (1, -2))  # (1 - 2t) y - t

    def test_every_acceptance_configuration_verifies(self):
        order = 80
        for sizes in [(2,), (3,), (1, 2), (2, 3), (1, 2, 3)]:
            pieces = PieceSet(sizes)
            family = series_family(pieces, order)
            for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
                q = annihilating_polynomial(pieces, shape, family[shape])
                assert verify_annihilator(q, family[shape])

    def test_low_verify_order_gives_the_same_polynomial(self):
        # the root step solves as many series terms as it needs, however short the caller's series
        pieces = PieceSet.of(1, 2, 3)
        low = annihilating_polynomial(pieces, Shape.TOWER, tower_series(pieces, 5))
        assert low == annihilating_polynomial(pieces, Shape.TOWER, tower_series(pieces, 200))

    def test_wrong_root_fails_on_the_solved_prefix(self, monkeypatch):
        # Q + t^3 still vanishes on the caller's series through t^0: the prefix
        # the root step solved (through t^8 for dimer towers) must catch it
        def wrong_root(*args):
            q = _select_annihilator(*args)
            return BivariatePolynomial((q.coeffs[0] + IntPoly((0, 0, 0, 1)),) + q.coeffs[1:])

        monkeypatch.setattr("towers.algebra._select_annihilator", wrong_root)
        with pytest.raises(ConsistencyError, match="t\\^8"):
            annihilating_polynomial(DIMER, Shape.TOWER, tower_series(DIMER, 0))

    def test_corrupted_series_is_rejected(self):
        # the final check reads the caller's series: t^7 bumped by one must fail there
        m = tower_series(DIMER, 40)
        bumped = TruncatedSeries(m.coeffs[:7] + (m.coeffs[7] + 1,) + m.coeffs[8:], m.order)
        with pytest.raises(ConsistencyError, match="t\\^40"):
            annihilating_polynomial(DIMER, Shape.TOWER, bumped)

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            annihilating_polynomial(PieceSet.of(9), Shape.TOWER, tower_series(PieceSet.of(9), 20))


def as_bivariate(coeffs) -> BivariatePolynomial:
    return BivariatePolynomial(tuple(coeffs))


def as_sympy(coeffs, t, y):
    return sympy.Add(*(c * t**i * y**j for j, poly in enumerate(coeffs) for i, c in enumerate(poly.coeffs)))


class TestSelection:
    def test_matches_sympy_factorization(self):
        # independent route: the one factor of positive y-degree that sympy
        # finds, raised to its multiplicity, is the eliminant without content
        t, y = sympy.symbols("t y")
        sets = [PieceSet(s) for r in range(1, 5) for s in itertools.combinations((1, 2, 3, 4), r)]
        sets += [PieceSet.of(5), PieceSet.of(8), PieceSet.of(3, 8)]
        sets += [PieceSet.of(k, rule=Rule.NO_EXACT_ALIGNMENT) for k in range(2, 6)]
        multiplicities = set()
        for pieces in sets:
            for shape in (Shape.PYRAMID, Shape.TOWER):
                r = _eliminant(pieces, shape)
                _, factors = sympy.factor_list(as_sympy(r, t, y), t, y)
                in_y = [(f, m) for f, m in factors if sympy.degree(f, y) > 0]
                assert len(in_y) == 1, (pieces, shape)
                factor, m = in_y[0]
                rows = [sympy.Poly(row, t).all_coeffs()[::-1] for row in sympy.Poly(factor, y).all_coeffs()[::-1]]
                expected = as_bivariate(IntPoly(int(c) for c in row) for row in rows)
                q = annihilating_polynomial(pieces, shape, series_family(pieces, 20)[shape])
                assert q == expected, (pieces, shape)
                power = functools.reduce(h_mul, [q.coeffs] * m)
                assert as_bivariate(power) == as_bivariate(without_content(r)), (pieces, shape)
                multiplicities.add(m)
        assert multiplicities == {1, 2}

    def test_content_is_not_only_powers_of_t(self):
        # S = {1, 2} towers: the eliminant carries the factor t + 1
        r = _eliminant(PieceSet.of(1, 2), Shape.TOWER)
        content = IntPoly((1, 1))  # t + 1
        assert as_bivariate(c * content for c in without_content(r)) == as_bivariate(r)

    def test_extra_factor_in_y_is_rejected(self):
        r = h_mul(_eliminant(DIMER, Shape.TOWER), [IntPoly((1,)), IntPoly((1,))])  # R (y + 1)
        towers = series_family(DIMER, 60)[Shape.TOWER]
        with pytest.raises(ConsistencyError, match="not a norm"):
            _select_annihilator(as_bivariate(without_content(r)), defining_polynomial_H(DIMER).y_degree,
                                towers)

    def test_product_of_distinct_factors_is_not_a_root(self):
        # Q Q' has the degrees of Q^2, and Q alone solves the m = 2 system
        q = [IntPoly((0, 0, -1)), IntPoly((1, 0, -4))]  # (1 - 4t^2) y - t^2
        other = [q[0], q[1] + IntPoly((0, 1))]  # q + t y
        towers = series_family(DIMER, 60)[Shape.TOWER]
        with pytest.raises(ConsistencyError, match="m = 2"):
            _select_annihilator(as_bivariate(h_mul(q, other)), defining_polynomial_H(DIMER).y_degree, towers)


class TestResultantEvaluationInvariant:
    def test_symbolic_matches_numeric_at_random_rationals(self):
        # evaluate E and G at random rational points; the Sylvester
        # determinant there must equal the evaluated symbolic resultant
        rng = random.Random(2024)
        for pieces, shape in [
            (PieceSet.of(1, 2), Shape.TOWER),
            (PieceSet.of(2, 3), Shape.PYRAMID),
            (DIMER_NOALIGN, Shape.TOWER),
        ]:
            e = defining_polynomial_H(pieces).coeffs
            d = _denominator(pieces, shape)
            symbolic = _eliminant(pieces, shape)
            checked = 0
            while checked < 20:
                t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                ev = [c(t0) for c in e]
                gv = [y0 * c(t0) for c in d] + [Fraction(0)] * (2 - len(d))
                gv[1] -= 1  # G = y D' - H
                if not ev[-1] or not gv[-1]:
                    continue
                f_big, g_big = (ev, gv) if len(ev) >= len(gv) else (gv, ev)
                assert evaluate(symbolic, t0, y0) == sylvester_resultant(f_big, g_big)
                checked += 1


@pytest.mark.parametrize("pieces", [PieceSet.of(1), PieceSet.of(1, 2), PieceSet.of(2, 3),
                                    PieceSet.of(3, rule=Rule.NO_EXACT_ALIGNMENT)],
                         ids=["1", "1,2", "2,3", "noalign-3"])
@pytest.mark.parametrize("shape", [Shape.PYRAMID, Shape.TOWER], ids=["pyramid", "tower"])
def test_eliminant_is_the_sympy_resultant(pieces, shape):
    # the interpolated R, content included, against sympy's resultant of E and
    # G = y D' - H, both written out here from the equations of `series`
    h, t, y = sympy.symbols("h t y")
    k = pieces.max_size
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        e = h - t**k * ((1 + h) ** k - h)
    else:
        e = h - sum(t**i * (1 + h) ** i for i in pieces.sizes)
    d = 1 - (k - 1) * h + sum((k - i) * t**i * (1 + h) ** i for i in pieces.sizes if i < k)
    if shape is Shape.TOWER:
        d *= 1 - h
    reference = sympy.expand(sympy.resultant(sympy.expand(e), sympy.expand(y * d - h), h))
    mine = as_sympy(_eliminant(pieces, shape), t, y)
    assert reference != 0
    assert sympy.expand(mine - reference) == 0 or sympy.expand(mine + reference) == 0


# sha256 of `eliminate --order 60` over every shape of these sets, recorded
# while H was still eliminated over the sparse ring in t and y
PINNED_ELIMINATIONS = [("1", "all"), ("2", "all"), ("3", "all"), ("1,2", "all"), ("2,3", "all"),
                       ("1,2,3", "all"), ("3,8", "all"), ("1,2,3,4,5", "all"), ("2", "noalign"),
                       ("5", "noalign")]


def test_eliminate_bytes_are_pinned(capsys):
    hashed = hashlib.sha256()
    for sizes, rule in PINNED_ELIMINATIONS:
        for shape in Shape:
            argv = ["eliminate", "--sizes", sizes, "--rule", rule, "--shape", shape.value, "--order", "60"]
            assert main(argv) == 0
            hashed.update(capsys.readouterr().out.encode("utf-8"))
    assert hashed.hexdigest() == "6eac73ca03cd5635c3a687f095a9b7407e6e34754877f5ebfbe36b3d72551933"
