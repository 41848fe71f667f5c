import random
from fractions import Fraction

import pytest

from towers.algebra import (
    BivariatePolynomial,
    _h_poly_defining,
    _relation_for_shape,
    annihilating_polynomial,
    defining_polynomial_H,
    verify_annihilator,
)
from towers.errors import DegreeCapError, UnsupportedConfigurationError
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly, h_resultant, sylvester_resultant
from towers.series import series_family, solve_half_pyramids

DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)


def bivariate(*rows):
    return BivariatePolynomial(tuple(IntPoly(r) for r in rows))


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

    def test_noalign_multi_size_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            defining_polynomial_H(PieceSet((1, 2), Rule.NO_EXACT_ALIGNMENT))


class TestNormalization:
    def test_content_and_sign(self):
        messy = bivariate((0, -2), (2, -8))
        assert messy == bivariate((0, 1), (-1, 4))

    def test_zero_polynomial(self):
        assert BivariatePolynomial((IntPoly(),)).is_zero


class TestVerifyAnnihilator:
    def test_expected_tower_annihilator_verifies(self):
        m = series_family(DIMER, 80)[Shape.TOWER]
        q = bivariate((0, 0, -1), (1, 0, -4))  # (1 - 4t^2) y - t^2
        assert verify_annihilator(q, m)

    def test_wrong_piece_set_fails(self):
        h = solve_half_pyramids(DIMER, 40)
        assert not verify_annihilator(defining_polynomial_H(PieceSet.of(1)), h)

    def test_constant_one_fails(self):
        h = solve_half_pyramids(DIMER, 20)
        assert not verify_annihilator(bivariate((1,)), h)


class TestAnnihilatingPolynomial:
    def test_dimer_towers_both_rules(self):
        q_all = annihilating_polynomial(DIMER, Shape.TOWER, verify_order=200)
        assert q_all == bivariate((0, 0, -1), (1, 0, -4))
        q_no = annihilating_polynomial(DIMER_NOALIGN, Shape.TOWER, verify_order=200)
        assert q_no == bivariate((0, 0, -1), (1, 0, -3))

    def test_half_pyramid_returns_defining_polynomial(self):
        for pieces in [DIMER, PieceSet.of(1, 2), DIMER_NOALIGN]:
            assert annihilating_polynomial(pieces, Shape.HALF_PYRAMID, 60) == defining_polynomial_H(pieces)

    def test_unit_towers(self):
        q = annihilating_polynomial(PieceSet.of(1), Shape.TOWER, verify_order=60)
        assert q == bivariate((0, -1), (1, -2))  # (1 - 2t) y - t

    def test_every_acceptance_configuration_verifies(self):
        order = 80
        for sizes in [(2,), (3,), (1, 2), (2, 3), (1, 2, 3)]:
            pieces = PieceSet(sizes)
            for shape in (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER):
                q = annihilating_polynomial(pieces, shape, verify_order=order)
                assert verify_annihilator(q, series_family(pieces, order, through=shape)[shape])

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            annihilating_polynomial(PieceSet.of(9), Shape.TOWER, verify_order=20)


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
            e = _h_poly_defining(pieces)
            g = _relation_for_shape(pieces, shape)
            f_big, g_big = (e, g) if len(e) >= len(g) else (g, e)
            symbolic = h_resultant(e, g)
            checked = 0
            while checked < 20:
                t0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                y0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                fv = [c.evaluate(t0, y0) for c in f_big]
                gv = [c.evaluate(t0, y0) for c in g_big]
                if not fv[-1] or not gv[-1]:
                    continue
                assert symbolic.evaluate(t0, y0) == sylvester_resultant(fv, gv)
                checked += 1
