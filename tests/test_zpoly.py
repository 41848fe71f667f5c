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


def test_addition_and_cancellation():
    a = ZPolynomial.marker(SIZES, 2)
    b = ZPolynomial(SIZES, {(0, 1, 0): -1, (0, 0, 1): 5})
    total = a + b
    assert total == ZPolynomial(SIZES, {(0, 0, 1): 5})
    assert not (a - a)


def test_int_coercion():
    one = ZPolynomial.constant(SIZES, 1)
    assert one + 2 == ZPolynomial.constant(SIZES, 3)
    assert 2 + one == ZPolynomial.constant(SIZES, 3)
    assert 1 - one == ZPolynomial.zero(SIZES)
    assert one == 1
    assert ZPolynomial.zero(SIZES) == 0


def test_multiplication():
    z1 = ZPolynomial.marker(SIZES, 1)
    z3 = ZPolynomial.marker(SIZES, 3)
    product = (z1 + z3) * (z1 + z3)
    assert product == ZPolynomial(
        SIZES, {(2, 0, 0): 1, (1, 0, 1): 2, (0, 0, 2): 1}
    )
    assert product * 0 == 0
    assert product * 3 == 3 * product


def test_eval_ones_and_degree_counts():
    p = ZPolynomial(SIZES, {(2, 0, 0): 2, (0, 1, 1): 5})
    assert p.eval_ones() == 7
    assert p.total_degree_counts() == {2: 7}
    q = ZPolynomial(SIZES, {(1, 0, 0): 1, (0, 1, 1): 4})
    assert q.total_degree_counts() == {1: 1, 2: 4}


def test_repr_is_readable():
    p = ZPolynomial(SIZES, {(2, 0, 1): 3})
    assert repr(p) == "3*z1^2*z3"
