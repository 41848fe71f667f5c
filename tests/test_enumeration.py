import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import towers.enumeration
from towers.cli import main
from towers.enumeration import (
    BoundKind,
    EnumerationQuery,
    count_towers,
    enumerate_towers,
    weight_polynomial,
)
from towers.model import PieceSet, Rule, Shape, ZPolynomial
from towers.series import series_family, weighted_series

from references import is_legal_tower

DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)

STREAM_CHECKED_SETS = [PieceSet.of(*sizes) for sizes in ((1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3), (1, 5))] + [
    PieceSet.of(*sizes, rule=Rule.NO_EXACT_ALIGNMENT) for sizes in ((1,), (2,), (3,), (1, 2), (2, 3))
]


def by_pieces(pieces, shape, bound):
    return count_towers(EnumerationQuery(pieces, shape, BoundKind.BY_PIECE_COUNT, bound))


def test_dimer_two_piece_towers():
    towers = list(enumerate_towers(EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_PIECE_COUNT, 2)))
    assert len(towers) == 5  # one single-piece tower plus four two-piece towers
    assert sum(t.piece_count == 1 for t in towers) == 1
    assert sum(t.piece_count == 2 for t in towers) == 4


def test_dimer_counts_follow_powers_of_four():
    counts = by_pieces(DIMER, Shape.TOWER, 5)
    assert [counts[n] for n in range(1, 6)] == [1, 4, 16, 64, 256]


def test_noalign_dimer_towers_match_powers_of_three():
    counts = by_pieces(DIMER_NOALIGN, Shape.TOWER, 4)
    assert counts[4] == 27
    assert [counts[n] for n in range(1, 5)] == [1, 3, 9, 27]


def test_dimer_half_pyramids_are_fuss_catalan():
    counts = by_pieces(DIMER, Shape.HALF_PYRAMID, 3)
    assert [counts[n] for n in range(1, 4)] == [1, 2, 5]


def test_unit_piece_base_case():
    towers = list(enumerate_towers(EnumerationQuery(PieceSet.of(1), Shape.TOWER, BoundKind.BY_PIECE_COUNT, 1)))
    assert [t.to_lists() for t in towers] == [[[[0, 1]]]]


def test_empty_stream_when_bound_below_min_size():
    query = EnumerationQuery(PieceSet.of(3), Shape.TOWER, BoundKind.BY_AREA, 2)
    assert list(enumerate_towers(query)) == []
    assert count_towers(query) == {1: 0, 2: 0}


@pytest.mark.parametrize("sizes, area", [((1, 2), 16), ((1, 2, 3), 14)], ids=["S=1,2", "S=1,2,3"])
def test_counts_and_weights_by_area_match_series(sizes, area):
    # past acceptance criterion 4's area 12: affordable since the count memoizes on covered cells
    pieces = PieceSet.of(*sizes)
    family = series_family(pieces, area)
    for shape in Shape:
        table = weight_polynomial(EnumerationQuery(pieces, shape, BoundKind.BY_AREA, area))
        weighted = weighted_series(pieces, area, shape)
        for n in range(1, area + 1):
            assert table[n].eval_ones() == family[shape].coeffs[n]
            assert table[n] == weighted[n]


def test_no_duplicates_and_lexicographic_order():
    for pieces, shape in [(PieceSet.of(1, 2), Shape.TOWER), (DIMER_NOALIGN, Shape.PYRAMID)]:
        query = EnumerationQuery(pieces, shape, BoundKind.BY_AREA, 8)
        keys = [t.floors for t in enumerate_towers(query)]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys)


def test_stream_is_deterministic():
    query = EnumerationQuery(PieceSet.of(1, 2), Shape.TOWER, BoundKind.BY_AREA, 6)
    first = [t.to_lists() for t in enumerate_towers(query)]
    second = [t.to_lists() for t in enumerate_towers(query)]
    assert first == second


def test_removing_top_floor_keeps_towers_legal():
    for pieces, shape in [
        (PieceSet.of(1, 2), Shape.TOWER),
        (DIMER_NOALIGN, Shape.TOWER),
        (PieceSet.of(2, 3), Shape.HALF_PYRAMID),
    ]:
        query = EnumerationQuery(pieces, shape, BoundKind.BY_AREA, 8)
        for tower in enumerate_towers(query):
            if len(tower.floors) > 1:
                trimmed = [list(map(list, floor)) for floor in tower.floors[:-1]]
                assert is_legal_tower(trimmed, pieces, shape)


def test_weight_polynomial_requires_weighted_by_area():
    with pytest.raises(ValueError):
        weight_polynomial(EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_PIECE_COUNT, 4))


def test_weight_polynomial_small_cases():
    table = weight_polynomial(
        EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_AREA, 2)
    )
    assert table[2] == ZPolynomial((2,), {(1,): 1})

    pieces = PieceSet.of(1, 2)
    table = weight_polynomial(
        EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_AREA, 2)
    )
    # area 2: one dimer, two unit pieces side by side, two unit pieces stacked
    assert table[2] == ZPolynomial(pieces.sizes, {(0, 1): 1, (2, 0): 2})
    assert table[2].eval_ones() == 3


def test_weight_polynomial_tracks_mixed_compositions_at_area_twelve():
    pieces = PieceSet.of(1, 2, 3)
    table = weight_polynomial(
        EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_AREA, 12)
    )
    assert dict(table[12].items())[(2, 2, 2)] > 0


def test_weights_at_one_recover_counts():
    pieces = PieceSet.of(2, 3)
    bound = 9
    table = weight_polynomial(
        EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_AREA, bound)
    )
    counts = count_towers(EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_AREA, bound))
    assert {a: z.eval_ones() for a, z in table.items()} == counts


def test_bound_must_be_positive():
    with pytest.raises(ValueError):
        EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_AREA, 0)


@pytest.mark.parametrize("bound", [True, 2.5, "3", None])
def test_bound_must_be_an_integer(bound):
    # a bool would count area 1; a float or str would fail later, inside count_towers
    with pytest.raises(ValueError, match="bound must be an integer"):
        EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_AREA, bound)


def exponents(tower, sizes):
    return tuple(sum(r - l == s for floor in tower.floors for l, r in floor) for s in sizes)


@pytest.mark.parametrize("pieces", STREAM_CHECKED_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
@pytest.mark.parametrize("shape", list(Shape), ids=lambda s: s.value)
def test_counts_and_weights_match_the_stream(pieces, shape):
    # the memoized count and the streamed towers are two routes through the oracle
    for kind, bound in ((BoundKind.BY_AREA, 8), (BoundKind.BY_PIECE_COUNT, 5)):
        query = EnumerationQuery(pieces, shape, kind, bound)
        towers = list(enumerate_towers(query))
        sizes = pieces.sizes
        if kind is BoundKind.BY_AREA:
            keys = [sum(r - l for floor in t.floors for l, r in floor) for t in towers]
        else:
            keys = [t.piece_count for t in towers]
        expected = dict.fromkeys(range(1, bound + 1), 0)
        expected.update(Counter(keys))
        assert count_towers(query) == expected
        if kind is BoundKind.BY_AREA:
            by_area = {area: Counter() for area in range(1, bound + 1)}
            for area, tower in zip(keys, towers):
                by_area[area][exponents(tower, sizes)] += 1
            assert weight_polynomial(query) == {
                area: ZPolynomial(sizes, tally) for area, tally in by_area.items()
            }


def brute_force_towers(pieces, shape, kind, bound):
    """Every canonical legal tower within the bound, sorted, found without `_floors_above`.

    Candidates are lists of floors of non-overlapping pieces anywhere in a
    window no tower within the bound outgrows; `is_legal_tower` keeps the
    legal ones.  Only legal towers are built on, since the lower floors of a
    legal tower are a legal tower.
    """
    sizes = pieces.sizes
    cost = {s: s if kind is BoundKind.BY_AREA else 1 for s in sizes}
    width = bound if kind is BoundKind.BY_AREA else bound * sizes[-1]  # no wider tower fits

    def floors(min_x, budget):
        """(floor, cost) of every floor costing at most budget with pieces from min_x to width."""
        for x in range(min_x, width):
            for s in sizes:
                if cost[s] <= budget and x + s <= width:
                    yield ((x, x + s),), cost[s]
                    for rest, c in floors(x + s, budget - cost[s]):
                        yield ((x, x + s),) + rest, cost[s] + c

    found = []

    def grow(tower, budget):
        if is_legal_tower(tower, pieces, shape):
            found.append(tower)
            for floor, c in floors(1 - width, budget):
                grow(tower + (floor,), budget - c)

    for bottom, c in floors(0, bound):
        if bottom[0][0] == 0:
            grow((bottom,), bound - c)
    return sorted(found)


@pytest.mark.parametrize("sizes", [(1,), (2,), (3,), (1, 2), (2, 3), (1, 3), (1, 2, 3)], ids=str)
@pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
@pytest.mark.parametrize("shape", list(Shape), ids=lambda s: s.value)
def test_stream_is_complete(sizes, rule, shape):
    # no tower is missing: the stream is exactly what the legality check accepts
    pieces = PieceSet(sizes, rule)
    for kind, bound in ((BoundKind.BY_AREA, 5), (BoundKind.BY_PIECE_COUNT, 3)):
        streamed = [t.floors for t in enumerate_towers(EnumerationQuery(pieces, shape, kind, bound))]
        assert streamed == brute_force_towers(pieces, shape, kind, bound)


# sha256 of the oracle's CLI outputs, concatenated over PINNED_SETS, every
# shape and each bound, recorded while the area and piece budgets were still
# carried separately through the walk
PINNED_SETS = [("1,2,3", "all"), ("2,3", "all"), ("2", "noalign"), ("1,2", "noalign")]
ORACLE_DIGESTS = [
    ("enumerate", [["--area", "7"], ["--pieces", "4"]], ["--format", "json"],
     "287297bf21b800771aca96a60996e7190e7e541a7c3db2588087fe2ec94f3460"),
    ("enumerate", [["--area", "7"], ["--pieces", "4"]], ["--format", "csv"],
     "1327e45788e6032906f64732d06d26c132086fe4d0f49d1fe176744c182b20d5"),
    ("enumerate", [["--area", "7"], ["--pieces", "4"]], ["--format", "text"],
     "82520e726a40ef20a969b57e97af4f1f16b20323607333bb89763279d340ff6b"),
    ("enumerate", [["--area", "7"]], ["--weighted"],
     "e18b1d0ae7a552a0ea0c675990c85d21b47d8de750d0e254a02b636eec8c4e97"),
    ("enumerate", [["--area", "6"], ["--pieces", "3"]], ["--list"],
     "40e9611b3dadd9b2e8a25a961f536596ded9d2a803b6efafc6e775406c4547a1"),
    ("render", [["--pieces", "3"]], [],
     "b7ff297e8744ef797d4cb05bf3d60c59a56774d8754964bb5061c9e1aa236bf2"),
]


@pytest.mark.parametrize("command, bounds, flags, digest", ORACLE_DIGESTS,
                         ids=["json", "csv", "text", "weighted", "list", "render"])
def test_oracle_bytes_are_pinned(capsys, command, bounds, flags, digest):
    hashed = hashlib.sha256()
    for sizes, rule in PINNED_SETS:
        for shape in Shape:
            for bound in bounds:
                argv = [command, "--sizes", sizes, "--rule", rule, "--shape", shape.value, *bound, *flags]
                assert main(argv) == 0
                hashed.update(capsys.readouterr().out.encode("utf-8"))
    assert hashed.hexdigest() == digest


@st.composite
def floors_and_budgets(draw):
    """A piece set, a floor of its pieces (gaps of 0 make pieces abut), half or not, a budget and costs."""
    sizes = draw(st.sampled_from([(1,), (2,), (1, 2), (2, 3), (1, 3), (1, 2, 3)]))
    half = draw(st.booleans())
    x = draw(st.integers(0 if half else -3, 3))
    floor = []
    for gap, s in draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from(sizes)), min_size=1, max_size=4)):
        x += gap
        floor.append((x, x + s))
        x += s
    if draw(st.booleans()):
        rem, cost = draw(st.integers(0, 7)), {s: s for s in sizes}  # by area
    else:
        rem, cost = draw(st.integers(0, 3)), dict.fromkeys(sizes, 1)  # by piece count
    return PieceSet.of(*sizes), tuple(floor), half, rem, cost


@settings(max_examples=150, deadline=None)
@given(floors_and_budgets())
def test_all_interfaces_floors_above_see_only_the_covered_cells(case):
    # why the count may key its memo on the covered cells under ALL_INTERFACES
    pieces, floor, half, rem, cost = case
    runs = towers.enumeration._covered(floor)

    def cells(f):
        return {c for l, r in f for c in range(l, r)}

    assert cells(runs) == cells(floor)
    assert all(left[1] < right[0] for left, right in zip(runs, runs[1:]))
    floors_above = towers.enumeration._floors_above
    assert list(floors_above(floor, rem, cost, pieces, half)) == list(floors_above(runs, rem, cost, pieces, half))


def test_noalign_floors_above_see_the_exact_pieces():
    # why NO_EXACT_ALIGNMENT keeps the exact floor as its memo key
    pieces = PieceSet.of(1, 2, rule=Rule.NO_EXACT_ALIGNMENT)
    floors_above = towers.enumeration._floors_above
    for rem, cost in ((2, {1: 1, 2: 2}), (1, {1: 1, 2: 1})):  # area 2, or one piece
        split = {f for f, _ in floors_above(((0, 1), (1, 3)), rem, cost, pieces, False)}
        whole = {f for f, _ in floors_above(((0, 3),), rem, cost, pieces, False)}
        assert ((1, 3),) in whole - split
    assert towers.enumeration._covered(((0, 1), (1, 3))) == ((0, 3),)


def module_state():
    """Everything in towers.enumeration that a call could leave data behind in."""
    state = {}
    for name, value in vars(towers.enumeration).items():
        if name.startswith("__"):
            continue
        if hasattr(value, "cache_info"):
            state[name] = value.cache_info().currsize
        elif isinstance(value, (dict, list, set)):
            state[name] = repr(value)
        for default in (getattr(value, "__defaults__", None) or ()):
            if isinstance(default, (dict, list, set)):
                state[f"{name} default"] = repr(default)
    return state


def test_oracle_keeps_no_state_between_calls():
    noalign, plain = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT), PieceSet.of(1, 2)
    calls = [
        (noalign, Shape.TOWER), (PieceSet.of(2), Shape.TOWER),
        (plain, Shape.HALF_PYRAMID), (plain, Shape.TOWER),
        (PieceSet.of(1, 2, rule=Rule.NO_EXACT_ALIGNMENT), Shape.TOWER),
    ]

    def run(order):
        results = {}
        for pieces, shape in order:
            by_area = EnumerationQuery(pieces, shape, BoundKind.BY_AREA, 8)
            by_count = EnumerationQuery(pieces, shape, BoundKind.BY_PIECE_COUNT, 4)
            results[pieces, shape] = (count_towers(by_count), weight_polynomial(by_area))
        return results

    before = module_state()
    forward = run(calls)
    assert module_state() == before
    assert run(calls[::-1]) == forward
    assert module_state() == before
    assert [forward[noalign, Shape.TOWER][0][n] for n in range(1, 5)] == [1, 3, 9, 27]
    assert [forward[PieceSet.of(2), Shape.TOWER][0][n] for n in range(1, 5)] == [1, 4, 16, 64]
