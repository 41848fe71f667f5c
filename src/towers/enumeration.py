"""Brute-force generation and counting of all canonical legal towers up to a bound.

This is the package's independent oracle: it never consults the series
machinery, it only applies the legality rules floor by floor.  A new floor
is a non-empty set of non-overlapping pieces, each with positive-length
contact with the floor below; `_floors_above` is the one place that holds
these rules.  Both bound kinds spend one budget, in which a piece costs its
size when the bound is on area and 1 when it is on the piece count; the
search is pruned by what remains of it, which guarantees termination.

Towers are streamed for listing and rendering, and counted by memoized
stacking for counts and weights; both routes build on the same bottom
floors and the same next-floor rule.  The stream emits every tower exactly
once, in lexicographic order of its canonical serialization (the nested
tuple of floors, each floor a tuple of (left, right) pairs): a tower
determines its floor sequence, and each floor is assembled left to right
from uniquely placed pieces.  The count never builds a tower: the stacks
that fit on a floor within a remaining budget depend only on that budget
and on what the next floor can see of the floor, up to translation, so each
such pair is expanded once.  Under ALL_INTERFACES the next floor sees only
the cells the floor covers, so abutting pieces count as one run of cells;
under NO_EXACT_ALIGNMENT it also sees each piece's exact interval, so the
floor itself is kept.
"""

from __future__ import annotations

import enum
from typing import Iterator

from .model import Floor, PieceSet, Rule, Shape, Tower, Value, ZPolynomial

__all__ = [
    "BoundKind",
    "EnumerationQuery",
    "enumerate_towers",
    "count_towers",
    "weight_polynomial",
]


class BoundKind(enum.Enum):
    BY_AREA = "area"
    BY_PIECE_COUNT = "pieces"


class EnumerationQuery(Value):
    """What to enumerate: piece set, shape, and an area or piece-count cap."""

    __slots__ = _fields = ("pieces", "shape", "bound_kind", "bound")
    pieces: PieceSet
    shape: Shape
    bound_kind: BoundKind
    bound: int

    def __init__(self, pieces: PieceSet, shape: Shape = Shape.TOWER,
                 bound_kind: BoundKind = BoundKind.BY_AREA, bound: int = 1) -> None:
        if not isinstance(bound, int) or isinstance(bound, bool):
            raise ValueError(f"bound must be an integer, got {bound!r}")
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        super().__init__(pieces, shape, bound_kind, bound)


def _costs(query: EnumerationQuery) -> dict[int, int]:
    """What one piece of each size spends of the bound: its size, or 1 when counting pieces."""
    by_area = query.bound_kind is BoundKind.BY_AREA
    return {s: s if by_area else 1 for s in query.pieces.sizes}


def _bottom_floors(query: EnumerationQuery, cost: dict[int, int]) -> Iterator[tuple[Floor, int]]:
    """Every bottom floor (floor, cost) within the bound, in lexicographic order."""
    sizes = query.pieces.sizes
    bound = query.bound
    if query.shape is Shape.TOWER:
        # Contiguous rows starting at 0; emitted shortest-prefix first so
        # that tower order stays lexicographic.
        def compose(pos: int, acc: Floor, spent: int):
            for s in sizes:
                total = spent + cost[s]
                if total > bound:
                    break
                floor = acc + ((pos, pos + s),)
                yield floor, total
                yield from compose(pos + s, floor, total)

        yield from compose(0, (), 0)
    else:
        for s in sizes:
            if cost[s] <= bound:
                yield ((0, s),), cost[s]


def _covered(floor: Floor) -> Floor:
    """The maximal runs of cells that `floor` covers: abutting pieces merge."""
    runs = [floor[0]]
    for l, r in floor[1:]:
        if l == runs[-1][1]:
            runs[-1] = (runs[-1][0], r)
        else:
            runs.append((l, r))
    return tuple(runs)


def _floors_above(
    below: Floor, rem: int, cost: dict[int, int], pieces: PieceSet, half: bool
) -> Iterator[tuple[Floor, int]]:
    """All legal next floors (floor, cost) on `below` that cost at most `rem`.

    Pieces of the new floor do not overlap, each has positive-length contact
    with `below`, and under NO_EXACT_ALIGNMENT none repeats an interval of
    `below`; a half-pyramid's pieces never start left of 0.  Floors come in
    lexicographic order.  Of `below` this reads only its leftmost and
    rightmost cells, whether a piece overlaps some interval of it, and under
    NO_EXACT_ALIGNMENT whether a piece equals one of its intervals; so under
    ALL_INTERFACES `below` and its `_covered` runs give the same floors.
    A piece costs no less than a smaller one, so the first size over
    budget ends the sizes tried at a position.
    """
    sizes = pieces.sizes
    cheapest = cost[sizes[0]]
    no_align = pieces.rule is Rule.NO_EXACT_ALIGNMENT
    lo = below[0][0]
    hi = below[-1][1]
    floor_min = 0 if half else lo - sizes[-1] + 1

    def extend(min_x: int, acc: Floor, spent: int):
        for x in range(min_x, hi):
            for s in sizes:
                total = spent + cost[s]
                if total > rem:
                    break
                right = x + s
                if right <= lo:
                    continue
                for a, b in below:
                    if a < right and x < b:
                        break  # positive-length contact
                else:
                    continue
                if no_align and (x, right) in below:
                    continue
                floor = acc + ((x, right),)
                yield floor, total
                if total + cheapest <= rem:  # room for one more piece
                    yield from extend(right, floor, total)

    if cheapest <= rem:
        yield from extend(floor_min, (), 0)


def _tallies(query: EnumerationQuery) -> dict[int, dict[tuple[int, ...], int]]:
    """Number of towers per cost (area or piece count) and exponent vector (pieces of each size).

    Every cost from 1 to the bound is a key, with an empty tally if no tower
    costs that much.  Towers are counted, not built: `stacks(floor, rem)`
    tallies every stack of floors, the empty one included, that fits on
    `floor` within the remaining budget `rem`, and is memoized on (key, rem)
    for this call only.  Under ALL_INTERFACES the key is the floor's
    `_covered` runs, since that is all `_floors_above` reads of it:
    (1,2)(2,4) and (1,4) share one entry.  Under NO_EXACT_ALIGNMENT a piece
    may not repeat an interval below, so the key is the floor itself.
    Either way the stacks' weights come from the real floors `add` is given.
    Keys are translated to start at 0 before lookup, except for
    half-pyramids, whose left wall at 0 makes the absolute position matter.
    Exponent vectors are packed into one integer in base bound + 1, which no
    exponent reaches, so adding two vectors is one integer addition.
    """
    pieces = query.pieces
    sizes = pieces.sizes
    half = query.shape is Shape.HALF_PYRAMID
    merge = pieces.rule is Rule.ALL_INTERFACES
    cost = _costs(query)
    cheapest = cost[sizes[0]]  # least budget any floor costs
    radix = query.bound + 1
    packed = {s: radix ** i for i, s in enumerate(sizes)}
    leaf = {0: 1}  # nothing fits, only the empty stack; shared, not memoized, to keep the memo small
    memo: dict[tuple[Floor, int], dict[int, int]] = {}

    def add(tally: dict[int, int], floor: Floor, above: dict[int, int]) -> None:
        """Count each stack tallied in `above`, with `floor` beneath it, into `tally`."""
        e = sum(packed[r - l] for l, r in floor)
        for k, n in above.items():
            tally[k + e] = tally.get(k + e, 0) + n

    def stacks(floor: Floor, rem: int) -> dict[int, int]:
        if rem < cheapest:
            return leaf
        if merge:
            floor = _covered(floor)
        shift = 0 if half else floor[0][0]
        if shift:
            floor = tuple((l - shift, r - shift) for l, r in floor)
        key = (floor, rem)
        tally = memo.get(key)
        if tally is None:
            tally = {0: 1}
            for above, spent in _floors_above(floor, rem, cost, pieces, half):
                add(tally, above, stacks(above, rem - spent))
            memo[key] = tally
        return tally

    towers: dict[int, int] = {}
    for bottom, spent in _bottom_floors(query, cost):
        add(towers, bottom, stacks(bottom, query.bound - spent))
    filed: dict[int, dict[tuple[int, ...], int]] = {
        spent: {} for spent in range(1, query.bound + 1)
    }
    for k, n in towers.items():
        exps = tuple(k // radix ** i % radix for i in range(len(sizes)))
        filed[sum(cost[s] * e for s, e in zip(sizes, exps))][exps] = n
    return filed


def enumerate_towers(query: EnumerationQuery) -> Iterator[Tower]:
    """Stream every canonical legal tower within the query's bound.

    Each tower appears exactly once; the order is lexicographic on the
    floor tuples, so output is stable across runs.
    """
    pieces = query.pieces
    half = query.shape is Shape.HALF_PYRAMID
    cost = _costs(query)

    def grow(floors: tuple[Floor, ...], spent: int):
        yield Tower(floors)
        for floor, c in _floors_above(floors[-1], query.bound - spent, cost, pieces, half):
            yield from grow(floors + (floor,), spent + c)

    for bottom, spent in _bottom_floors(query, cost):
        yield from grow((bottom,), spent)


def count_towers(query: EnumerationQuery) -> dict[int, int]:
    """Tower counts keyed by area or by piece count, per the query's bound.

    Every value from 1 to the bound appears as a key, zero counts included.
    `tests/test_enumeration.py::test_counts_and_weights_match_the_stream`
    checks these counts against a tally of `enumerate_towers`.
    """
    return {spent: sum(tally.values()) for spent, tally in _tallies(query).items()}


def weight_polynomial(query: EnumerationQuery) -> dict[int, ZPolynomial]:
    """Weight enumerator by area: sum of z-monomials over towers of each area.

    Requires a by-area query.  Setting every marker to 1 recovers count_towers.
    """
    if query.bound_kind is not BoundKind.BY_AREA:
        raise ValueError("weight_polynomial requires a by-area query")
    sizes = query.pieces.sizes
    return {area: ZPolynomial(sizes, tally) for area, tally in _tallies(query).items()}
