"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single "criterion N PASS/FAIL" line (visible with
pytest -s) and asserts exact equality; no tolerance is loosened anywhere.
Expected values come from closed forms, brute-force enumeration, or frozen
constants cross-checked between independent code paths.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from towers.algebra import annihilating_polynomial, verify_annihilator
from towers.asymptotics import estimate_asymptotics
from towers.enumeration import BoundKind, EnumerationQuery, count_towers, weight_polynomial
from towers.identities import ACCEPTANCE_SETS
from towers.model import PieceSet, Rule, Shape
from towers.polynomials import IntPoly
from towers.recurrences import (
    Sequence,
    extend_sequence,
    guess_recurrence,
    sequence_from_series,
    verify_recurrence,
)
from towers.series import (
    closed_form_half_pyramids,
    closed_form_pyramids,
    coefficients_by_pieces,
    half_pyramid_rhs,
    series_family,
    solve_half_pyramids,
    weighted_series,
)

DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
SHAPES = (Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER)


@contextmanager
def criterion(number, description):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description} [{time.time() - started:.1f}s]")


def test_criterion_1_dimer_towers_all_interfaces():
    with criterion(1, "dimer towers, all interfaces: 4^(n-1) by brute force and series"):
        counts = count_towers(
            EnumerationQuery(DIMER, Shape.TOWER, BoundKind.BY_PIECE_COUNT, 7)
        )
        assert [counts[n] for n in range(1, 8)] == [4 ** (n - 1) for n in range(1, 8)]
        family = series_family(DIMER, 1000)
        by_pieces = coefficients_by_pieces(family[Shape.TOWER], DIMER)
        assert len(by_pieces) == 500
        assert by_pieces == [4 ** (n - 1) for n in range(1, 501)]


def test_criterion_2_dimer_towers_no_exact_alignment():
    with criterion(2, "dimer towers, no exact alignment: 27 at 4 pieces; 3^(n-1) series"):
        query = EnumerationQuery(DIMER_NOALIGN, Shape.TOWER, BoundKind.BY_PIECE_COUNT, 4)
        counts = count_towers(query)
        assert counts[4] == 27
        family = series_family(DIMER_NOALIGN, 1000)
        by_pieces = coefficients_by_pieces(family[Shape.TOWER], DIMER_NOALIGN)
        assert by_pieces == [3 ** (n - 1) for n in range(1, 501)]


def test_criterion_3_closed_forms_up_to_k5_n50():
    with criterion(3, "closed forms for k in 1..5, n <= 50"):
        for k in range(1, 6):
            pieces = PieceSet.of(k)
            h, p = series_family(pieces, 50 * k, through=Shape.PYRAMID).values()
            half_counts = coefficients_by_pieces(h, pieces)
            pyramid_counts = coefficients_by_pieces(p, pieces)
            for n in range(1, 51):
                assert half_counts[n - 1] == closed_form_half_pyramids(k, n)
                assert pyramid_counts[n - 1] == closed_form_pyramids(k, n)


def test_criterion_4_oracle_equivalence():
    with criterion(4, "enumerator vs series: counts and weights to area 12"):
        for sizes in ACCEPTANCE_SETS:
            pieces = PieceSet(sizes)
            family = series_family(pieces, 12)
            for shape in SHAPES:
                # one walk per set and shape: setting every z to 1 gives the counts
                table = weight_polynomial(
                    EnumerationQuery(pieces, shape, BoundKind.BY_AREA, 12)
                )
                weighted = weighted_series(pieces, 12, shape)
                for area in range(1, 13):
                    assert table[area].eval_ones() == family[shape].coeffs[area]
                    assert table[area] == weighted[area]


def test_criterion_5_unit_piece_sanity():
    with criterion(5, "unit pieces: 2^(n-1) towers by brute force and series"):
        pieces = PieceSet.of(1)
        counts = count_towers(
            EnumerationQuery(pieces, Shape.TOWER, BoundKind.BY_PIECE_COUNT, 10)
        )
        assert [counts[n] for n in range(1, 11)] == [2 ** (n - 1) for n in range(1, 11)]
        family = series_family(pieces, 10)
        assert list(family[Shape.TOWER].coeffs[1:]) == [2 ** (n - 1) for n in range(1, 11)]


def test_criterion_6_dimer_annihilators():
    with criterion(6, "elimination yields (1-4t^2)y - t^2 and (1-3t^2)y - t^2"):
        m_all = series_family(DIMER, 200)[Shape.TOWER]
        q_all = annihilating_polynomial(DIMER, Shape.TOWER, m_all)
        expected_all = (IntPoly((0, 0, -1)), IntPoly((1, 0, -4)))
        assert q_all.coeffs in (expected_all, tuple(-c for c in expected_all))
        m_no = series_family(DIMER_NOALIGN, 200)[Shape.TOWER]
        q_no = annihilating_polynomial(DIMER_NOALIGN, Shape.TOWER, m_no)
        expected_no = (IntPoly((0, 0, -1)), IntPoly((1, 0, -3)))
        assert q_no.coeffs in (expected_no, tuple(-c for c in expected_no))
        assert verify_annihilator(q_all, m_all)
        assert verify_annihilator(q_no, m_no)


def test_criterion_7_guess_and_extend_to_50000():
    with criterion(7, "guess from 60 terms, verify on 200 more, extend to 50000"):
        spot_check_order = 300
        for sizes in ACCEPTANCE_SETS:
            pieces = PieceSet(sizes)
            family = series_family(pieces, 260)
            spot = series_family(pieces, spot_check_order)
            for shape in SHAPES:
                full = sequence_from_series(family[shape])
                prefix = Sequence(full.offset, full.terms[:60], full.label)
                rec = guess_recurrence(prefix, max_order=7, max_degree=5, guard=5)
                assert rec is not None, (sizes, shape)
                assert verify_recurrence(rec, full), (sizes, shape)
                extended = extend_sequence(rec, prefix, 50000)
                assert len(extended) == 50000
                # term at n = 300 must equal the independent series coefficient
                assert extended.terms[299] == spot[shape].coeffs[300], (sizes, shape)


def test_criterion_8_asymptotics():
    with criterion(8, "Catalan: mu=4, theta=-1.5; Motzkin: mu=3, theta=-1.5"):
        catalan = Sequence(
            0, tuple(math.comb(2 * n, n) // (n + 1) for n in range(2000)), "catalan"
        )
        est = estimate_asymptotics(catalan, depth=4)
        assert abs(est.mu - 4) < Fraction(1, 10**6)
        assert abs(est.theta + Fraction(3, 2)) < Fraction(1, 100)

        h = solve_half_pyramids(DIMER_NOALIGN, 160)
        seed = Sequence(1, tuple(coefficients_by_pieces(h, DIMER_NOALIGN)), "motzkin")
        rec = guess_recurrence(seed, 3, 3)
        assert rec is not None
        motzkin = extend_sequence(rec, seed, 2000)
        est = estimate_asymptotics(motzkin, depth=4)
        assert abs(est.mu - 3) < Fraction(1, 10**6)
        assert abs(est.theta + Fraction(3, 2)) < Fraction(1, 100)


def test_criterion_9_residuals_and_structure():
    with criterion(9, "residuals vanish mod t^201; 0 <= H <= P <= M; z:=1 agreement"):
        for sizes in ACCEPTANCE_SETS:
            pieces = PieceSet(sizes)
            family = series_family(pieces, 200)
            h, p, m = family[Shape.HALF_PYRAMID], family[Shape.PYRAMID], family[Shape.TOWER]
            assert half_pyramid_rhs(h, pieces) == h
            for n in range(201):
                assert 0 <= h.coeffs[n] <= p.coeffs[n] <= m.coeffs[n]
            plain = series_family(pieces, 12)
            for shape in SHAPES:
                ones = tuple(z.eval_ones() for z in weighted_series(pieces, 12, shape))
                assert ones == plain[shape].coeffs
