"""SVG galleries of every tower with a given number of pieces.

Purely presentational constants are fixed so rendered files are stable:
unit square 12 px, 2 px gutters, ceil(sqrt(count)) towers per row.  Towers
appear in the enumerator's lexicographic order, and the number of rendered
towers is embedded in a metadata element.
"""

from __future__ import annotations

import math
from typing import TextIO

from .enumeration import BoundKind, EnumerationQuery, enumerate_towers
from .model import PieceSet, Shape, Tower

__all__ = ["render_gallery"]

UNIT = 12
GUTTER = 2
PIECE_FILL = "#f4e8c8"
PIECE_STROKE = "#333333"
GRID_STROKE = "#bbaa88"


def _tower_cells(tower: Tower) -> tuple[int, int, int]:
    """(min_left, width, height) of the bounding box in grid units."""
    lefts = [left for floor in tower.floors for left, _ in floor]
    rights = [right for floor in tower.floors for _, right in floor]
    return min(lefts), max(rights) - min(lefts), len(tower.floors)


def render_gallery(pieces: PieceSet, shape: Shape, piece_count: int, out: TextIO) -> None:
    """Write the SVG document of every canonical tower with exactly `piece_count` pieces.

    The header needs the count and the largest box, so the towers are kept;
    each one's elements are written into `out` as they are made.
    """
    query = EnumerationQuery(pieces, shape, BoundKind.BY_PIECE_COUNT, piece_count)
    towers = [t for t in enumerate_towers(query) if t.piece_count == piece_count]
    count = len(towers)
    cols = max(1, math.isqrt(count) + (0 if math.isqrt(count) ** 2 == count else 1))
    rows = (count + cols - 1) // cols if count else 0
    boxes = [_tower_cells(t) for t in towers]
    cell_w = max((w for _, w, _ in boxes), default=1) * UNIT
    cell_h = max((h for _, _, h in boxes), default=1) * UNIT
    total_w = cols * cell_w + (cols + 1) * GUTTER
    total_h = max(rows, 1) * cell_h + (max(rows, 1) + 1) * GUTTER

    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">\n'
        f'<metadata id="tower-count">{count}</metadata>\n'
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>\n'
    )
    for index, (tower, (min_left, _w, _h)) in enumerate(zip(towers, boxes)):
        col = index % cols
        row = index // cols
        cell_x = GUTTER + col * (cell_w + GUTTER)
        baseline = GUTTER + row * (cell_h + GUTTER) + cell_h
        for level, floor in enumerate(tower.floors):
            y = baseline - (level + 1) * UNIT
            for left, right in floor:
                x = cell_x + (left - min_left) * UNIT
                width = (right - left) * UNIT
                out.write(
                    f'<rect x="{x}" y="{y}" width="{width}" height="{UNIT}" '
                    f'fill="{PIECE_FILL}"/>\n'
                )
                for u in range(1, right - left):
                    gx = x + u * UNIT
                    out.write(
                        f'<line x1="{gx}" y1="{y}" x2="{gx}" y2="{y + UNIT}" '
                        f'stroke="{GRID_STROKE}" stroke-width="1"/>\n'
                    )
                out.write(
                    f'<rect x="{x}" y="{y}" width="{width}" height="{UNIT}" '
                    f'fill="none" stroke="{PIECE_STROKE}" stroke-width="1"/>\n'
                )
    out.write("</svg>\n")
