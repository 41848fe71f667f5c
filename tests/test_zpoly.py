import pytest

from towers.zpoly import ZPolynomial

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
