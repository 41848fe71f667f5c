import io
import re

from towers.gallery import render_gallery
from towers.model import PieceSet, Rule, Shape


def rendered(pieces, shape, piece_count):
    """The SVG text `render_gallery` writes."""
    out = io.StringIO()
    render_gallery(pieces, shape, piece_count, out)
    return out.getvalue()


def count_metadata(svg):
    match = re.search(r'<metadata id="tower-count">(\d+)</metadata>', svg)
    assert match is not None
    return int(match.group(1))


def test_noalign_four_piece_gallery_has_27_towers():
    svg = rendered(PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT), Shape.TOWER, 4)
    assert count_metadata(svg) == 27


def test_all_interfaces_two_piece_gallery_has_4_towers():
    svg = rendered(PieceSet.of(2), Shape.TOWER, 2)
    assert count_metadata(svg) == 4
    # 2 pieces per tower, 2 rects each (fill + outline)
    assert svg.count("<rect") == 4 * 2 * 2 + 1  # plus the background


def test_single_piece_gallery_has_one_tower_per_size():
    svg = rendered(PieceSet.of(1, 2, 3), Shape.TOWER, 1)
    assert count_metadata(svg) == 3


def test_rendering_is_deterministic():
    pieces = PieceSet.of(1, 2)
    a = rendered(pieces, Shape.PYRAMID, 3)
    b = rendered(pieces, Shape.PYRAMID, 3)
    assert a == b


def test_svg_is_wellformed_xml():
    import xml.etree.ElementTree as ET

    svg = rendered(PieceSet.of(2), Shape.HALF_PYRAMID, 3)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
