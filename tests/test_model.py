import pytest
from hypothesis import given, strategies as st

from towers.enumeration import BoundKind, EnumerationQuery, enumerate_towers
from towers.errors import MalformedInputError
from towers.model import PieceSet, Rule, Shape, ZPolynomial

from references import is_legal_tower

S123 = PieceSet.of(1, 2, 3)
DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)

LEGAL_EXAMPLE = [[[0, 1], [1, 2], [2, 5], [5, 7]], [[3, 4], [6, 9]], [[3, 6]]]
ILLEGAL_EXAMPLE = [[[1, 2], [2, 5], [5, 7]], [[3, 4], [6, 9]], [[4, 6]]]


def test_piece_set_normalizes_and_validates():
    assert PieceSet((3, 1, 2)).sizes == (1, 2, 3)
    assert PieceSet.of(2).max_size == 2
    with pytest.raises(ValueError):
        PieceSet(())
    with pytest.raises(ValueError):
        PieceSet((0, 2))
    with pytest.raises(ValueError):
        PieceSet((2, 2))
    for sizes in ((1, "a"), (2, None), (1, True), (1, 2.0)):
        with pytest.raises(ValueError, match="positive integers"):
            PieceSet(sizes)


def test_legal_example_from_three_sizes():
    assert is_legal_tower(LEGAL_EXAMPLE, S123, Shape.TOWER)


def test_unsupported_piece_is_illegal():
    # the third-floor piece [4,6] has no positive-length contact below
    assert not is_legal_tower(ILLEGAL_EXAMPLE, S123, Shape.TOWER)


def test_exact_alignment_depends_on_rule():
    stacked = [[[0, 2]], [[0, 2]]]
    assert is_legal_tower(stacked, DIMER)
    assert not is_legal_tower(stacked, DIMER_NOALIGN)


def test_alignment_two_floors_apart_is_allowed():
    config = [[[0, 2]], [[1, 3]], [[0, 2]]]
    assert is_legal_tower(config, DIMER_NOALIGN)


def test_malformed_interval_raises_instead_of_false():
    with pytest.raises(MalformedInputError):
        is_legal_tower([[[0, 0]]], DIMER)
    with pytest.raises(MalformedInputError):
        is_legal_tower([[[2, 1]]], DIMER)
    with pytest.raises(MalformedInputError):
        is_legal_tower([[[0, 1.5]]], S123)
    with pytest.raises(MalformedInputError):
        is_legal_tower([[0, 1]], S123)  # a floor of bare ints, not intervals


def test_empty_structures_are_illegal_not_malformed():
    assert not is_legal_tower([], S123)
    assert not is_legal_tower([[]], S123)
    assert not is_legal_tower([[[0, 1]], []], PieceSet.of(1))


def test_size_outside_set_is_illegal():
    assert not is_legal_tower([[[0, 4]]], S123)


def test_gap_in_bottom_floor_is_illegal():
    assert not is_legal_tower([[[0, 1], [2, 3]]], PieceSet.of(1))
    # touching is required and sufficient on the bottom floor
    assert is_legal_tower([[[0, 1], [1, 2]]], PieceSet.of(1))


def test_same_floor_overlap_is_illegal():
    assert not is_legal_tower([[[0, 2], [1, 3]]], DIMER)


def test_shape_constraints():
    two_piece_bottom = [[[0, 2], [2, 4]], [[1, 3]]]
    assert is_legal_tower(two_piece_bottom, DIMER, Shape.TOWER)
    assert not is_legal_tower(two_piece_bottom, DIMER, Shape.PYRAMID)
    leftward = [[[0, 2]], [[-1, 1]]]
    assert is_legal_tower(leftward, DIMER, Shape.PYRAMID)
    assert not is_legal_tower(leftward, DIMER, Shape.HALF_PYRAMID)
    rightward = [[[0, 2]], [[1, 3]]]
    assert is_legal_tower(rightward, DIMER, Shape.HALF_PYRAMID)


def test_legality_is_translation_invariant():
    shifted = [[[10, 11], [11, 12], [12, 15], [15, 17]], [[13, 14], [16, 19]], [[13, 16]]]
    assert is_legal_tower(shifted, S123, Shape.TOWER)


def test_enumerated_towers_are_legal_and_canonical():
    for pieces, shape in [
        (S123, Shape.TOWER),
        (DIMER_NOALIGN, Shape.TOWER),
        (S123, Shape.HALF_PYRAMID),
        (PieceSet.of(2, 3), Shape.PYRAMID),
    ]:
        query = EnumerationQuery(pieces, shape, BoundKind.BY_AREA, 7)
        for tower in enumerate_towers(query):
            assert is_legal_tower(tower.to_lists(), pieces, shape)
            assert tower.floors[0][0][0] == 0


@given(
    st.lists(
        st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 4)), min_size=0, max_size=4),
        min_size=0,
        max_size=4,
    )
)
def test_legality_check_is_total_on_wellformed_input(raw):
    floors = [[[left, left + size] for left, size in floor] for floor in raw]
    result = is_legal_tower(floors, S123, Shape.TOWER)
    assert isinstance(result, bool)
    # translating never changes the verdict
    shifted = [[[l + 7, r + 7] for l, r in floor] for floor in floors]
    assert is_legal_tower(shifted, S123, Shape.TOWER) == result


# ---------------------------------------------------------------- ZPolynomial

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
