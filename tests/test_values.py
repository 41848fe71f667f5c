"""Value semantics of the package's immutable records.

Each record is equal to another of its own class with equal fields, hashes
as the tuple of its fields, prints as `Name(field=value, ...)`, refuses
assignment and deletion, and survives `copy` and `pickle`.  `ZPolynomial`
prints as its monomials instead (`3*z1^2*z3`), and `AsymptoticEstimate`
compares and hashes by its values read as reduced Fractions.
"""

import copy
import pickle

import pytest

from towers.algebra import BivariatePolynomial
from towers.asymptotics import AsymptoticEstimate
from towers.enumeration import BoundKind, EnumerationQuery
from towers.identities import CheckResult
from towers.model import PieceSet, Rule, Shape, Tower, ZPolynomial
from towers.polynomials import IntPoly
from towers.recurrences import Recurrence, Sequence
from towers.series import TruncatedSeries

# (class, its field names in order, arguments of one instance, arguments of a different one)
RECORDS = [
    (PieceSet, ("sizes", "rule"), ((1, 3), Rule.NO_EXACT_ALIGNMENT), ((1, 3),)),
    (Tower, ("floors",), ((((0, 2),), ((1, 3),)),), ((((0, 2),),),)),
    (Sequence, ("offset", "terms", "label"), (1, (1, 2, 5), "s"), (1, (1, 2, 5))),
    (Recurrence, ("coeff_polys",), ((IntPoly((-2,)), IntPoly((1,))),),
     ((IntPoly((-3,)), IntPoly((1,))),)),
    (BivariatePolynomial, ("coeffs",), ((IntPoly((1,)), IntPoly((-1, -1))),),
     ((IntPoly((1,)), IntPoly((-1,))),)),
    (EnumerationQuery, ("pieces", "shape", "bound_kind", "bound"),
     (PieceSet.of(1, 2), Shape.PYRAMID, BoundKind.BY_PIECE_COUNT, 5), (PieceSet.of(1, 2), Shape.PYRAMID)),
    (CheckResult, ("name", "detail"), ("counts", "area 3"), ("counts",)),
    (AsymptoticEstimate, ("mu_pair", "theta_pair", "c_amplitude", "stability_pairs"),
     ((3, 1), (-1, 2), 0.5, (("mu", (1, 9)), ("theta", (1, 4)))),
     ((3, 1), (-1, 2), None, (("mu", (1, 9)), ("theta", (1, 4))))),
    (ZPolynomial, ("sizes", "terms"), ((1, 3), {(2, 1): 3, (0, 1): -1}), ((1, 3), {(2, 1): 3})),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, fields, args, other_args", RECORDS, ids=IDS)
def test_equality_is_by_value_within_the_class(cls, fields, args, other_args):
    value, twin = cls(*args), cls(*args)
    assert value is not twin and value == twin and not value != twin
    assert value != cls(*other_args)
    assert value != tuple(getattr(value, name) for name in fields)
    assert value != object()
    for other_cls, _, other_args, _ in RECORDS:
        if other_cls is not cls:
            assert value != other_cls(*other_args)


@pytest.mark.parametrize("cls, fields, args, other_args", RECORDS, ids=IDS)
def test_hash_is_that_of_the_field_tuple(cls, fields, args, other_args):
    value = cls(*args)
    if cls is AsymptoticEstimate:  # it compares, and hashes, by its Fraction readings
        unreduced = cls((6, 2), (-3, 6), 0.5, (("theta", (2, 8)), ("mu", (3, 27))))
        assert unreduced == value
        assert hash(value) == hash(cls(*args)) == hash(unreduced)
    else:
        assert hash(value) == hash(cls(*args)) == hash(tuple(getattr(value, name) for name in fields))


@pytest.mark.parametrize("cls, fields, args, other_args", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, fields, args, other_args):
    value = cls(*args)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls, fields, args, other_args",
                         [r for r in RECORDS if r[0] is not ZPolynomial],  # prints 3*z1^2*z3
                         ids=[name for name in IDS if name != "ZPolynomial"])
def test_repr_names_every_field(cls, fields, args, other_args):
    value = cls(*args)
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("value", [cls(*args) for cls, _, args, _ in RECORDS]
                         + [IntPoly((0, -1, 2)), TruncatedSeries((1, 1, 2), 5)],
                         ids=IDS + ["IntPoly", "TruncatedSeries"])
def test_copies_and_pickles_round_trip(value):
    if isinstance(value, AsymptoticEstimate):
        assert value.mu == 3  # a cached reading does not travel with the copies
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value

