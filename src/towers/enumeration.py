"""Brute-force generation of all canonical legal towers up to a bound.

This is the package's independent oracle: it never consults the series
machinery, it just builds every tower floor by floor.  A new floor is a
non-empty set of non-overlapping pieces, each with positive-length contact
with the floor below; the search is pruned by the remaining area or piece
budget, which guarantees termination.

Towers are emitted exactly once each, in lexicographic order of their
canonical serialization (the nested tuple of floors, each floor a tuple of
(left, right) pairs).  The construction makes duplicates impossible: a
tower determines its floor sequence, and each floor is assembled left to
right from uniquely placed pieces.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .model import Floor, PieceSet, Rule, Shape, Tower
from .zpoly import ZPolynomial

__all__ = [
    "BoundKind",
    "EnumerationQuery",
    "enumerate_towers",
    "count_towers",
    "weight_polynomial",
]

_NO_LIMIT = 1 << 62


class BoundKind(enum.Enum):
    BY_AREA = "area"
    BY_PIECE_COUNT = "pieces"


@dataclass(frozen=True)
class EnumerationQuery:
    """What to enumerate: piece set, shape, and an area or piece-count cap."""

    pieces: PieceSet
    shape: Shape = Shape.TOWER
    bound_kind: BoundKind = BoundKind.BY_AREA
    bound: int = 1

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")


def _raw_towers(query: EnumerationQuery) -> Iterator[tuple[tuple[Floor, ...], int, int]]:
    """Yield (floors, area, piece count) per tower, in lexicographic order of the floors."""
    sizes = query.pieces.sizes
    smallest = sizes[0]
    largest = sizes[-1]
    no_align = query.pieces.rule is Rule.NO_EXACT_ALIGNMENT
    half = query.shape is Shape.HALF_PYRAMID
    by_area = query.bound_kind is BoundKind.BY_AREA
    area_cap = query.bound if by_area else _NO_LIMIT
    piece_cap = query.bound if not by_area else _NO_LIMIT

    def floors_above(below: Floor, rem_area: int, rem_pieces: int) -> Iterator[tuple[Floor, int, int]]:
        """All legal next floors (floor, area, pieces) within the budgets."""
        lo = below[0][0]
        hi = below[-1][1]
        floor_min = 0 if half else lo - largest + 1

        def extend(min_x: int, acc: Floor, acc_area: int, acc_n: int):
            for x in range(max(min_x, floor_min), hi):
                for s in sizes:
                    if s > rem_area - acc_area:
                        break
                    right = x + s
                    if right <= lo:
                        continue
                    if not any(max(x, a) < min(right, b) for a, b in below):
                        continue
                    if no_align and (x, right) in below:
                        continue
                    floor = acc + ((x, right),)
                    yield floor, acc_area + s, acc_n + 1
                    if acc_n + 1 < rem_pieces:
                        yield from extend(right, floor, acc_area + s, acc_n + 1)

        if rem_area >= smallest and rem_pieces >= 1:
            yield from extend(-_NO_LIMIT, (), 0, 0)

    def grow(tower: tuple[Floor, ...], area: int, npieces: int):
        yield tower, area, npieces
        for floor, fa, fp in floors_above(tower[-1], area_cap - area, piece_cap - npieces):
            yield from grow(tower + (floor,), area + fa, npieces + fp)

    def bottoms() -> Iterator[tuple[Floor, int, int]]:
        if query.shape is Shape.TOWER:
            # Contiguous rows starting at 0; emitted shortest-prefix first so
            # that tower order stays lexicographic.
            def compose(pos: int, acc: Floor, area: int, npieces: int):
                for s in sizes:
                    if area + s > area_cap or npieces + 1 > piece_cap:
                        break
                    floor = acc + ((pos, pos + s),)
                    yield floor, area + s, npieces + 1
                    yield from compose(pos + s, floor, area + s, npieces + 1)

            yield from compose(0, (), 0, 0)
        else:
            for s in sizes:
                if s <= area_cap and piece_cap >= 1:
                    yield ((0, s),), s, 1

    for bottom, area, npieces in bottoms():
        yield from grow((bottom,), area, npieces)


def enumerate_towers(query: EnumerationQuery) -> Iterator[Tower]:
    """Stream every canonical legal tower within the query's bound.

    Each tower appears exactly once; the order is lexicographic on the
    floor tuples, so output is stable across runs.
    """
    for floors, _, _ in _raw_towers(query):
        yield Tower(floors)


def count_towers(query: EnumerationQuery) -> dict[int, int]:
    """Tower counts keyed by area or by piece count, per the query's bound.

    Every value from 1 to the bound appears as a key, zero counts included.
    Consistent with enumerate_towers by construction.
    """
    counts = dict.fromkeys(range(1, query.bound + 1), 0)
    if query.bound_kind is BoundKind.BY_AREA:
        for _, area, _ in _raw_towers(query):
            counts[area] += 1
    else:
        for _, _, npieces in _raw_towers(query):
            counts[npieces] += 1
    return counts


def weight_polynomial(query: EnumerationQuery) -> dict[int, ZPolynomial]:
    """Weight enumerator by area: sum of z-monomials over towers of each area.

    Requires a by-area query.  Setting every marker to 1 recovers count_towers.
    """
    if query.bound_kind is not BoundKind.BY_AREA:
        raise ValueError("weight_polynomial requires a by-area query")
    sizes = query.pieces.sizes
    index = {s: i for i, s in enumerate(sizes)}
    sums: dict[int, dict[tuple[int, ...], int]] = {
        area: {} for area in range(1, query.bound + 1)
    }
    for floors, area, _ in _raw_towers(query):
        exps = [0] * len(sizes)
        for floor in floors:
            for l, r in floor:
                exps[index[r - l]] += 1
        key = tuple(exps)
        bucket = sums[area]
        bucket[key] = bucket.get(key, 0) + 1
    return {area: ZPolynomial(sizes, bucket) for area, bucket in sums.items()}
