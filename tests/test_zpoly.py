import pytest

from towers.model import ZPolynomial

SIZES = (1, 2, 3)


def test_construction_drops_zero_coefficients():
    z = ZPolynomial(SIZES, {(1, 0, 0): 2, (0, 1, 0): 0})
    assert len(z) == 1
    assert list(z.items()) == [((1, 0, 0), 2)]


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        ZPolynomial(SIZES, {(1, 0): 1})


def test_eval_ones():
    p = ZPolynomial(SIZES, {(2, 0, 0): 2, (0, 1, 1): 5})
    assert p.eval_ones() == 7


def test_repr_is_readable():
    p = ZPolynomial(SIZES, {(2, 0, 1): 3})
    assert repr(p) == "3*z1^2*z3"


def test_terms_are_sorted_pairs_from_a_mapping_or_from_pairs():
    p = ZPolynomial(SIZES, {(0, 1, 1): 5, (2, 0, 0): 2, (1, 0, 0): 0})
    assert p.terms == (((0, 1, 1), 5), ((2, 0, 0), 2))
    assert list(p.items()) == list(p.terms)
    assert ZPolynomial(SIZES, p.terms) == p
    assert not ZPolynomial(SIZES) and len(ZPolynomial(SIZES)) == 0
