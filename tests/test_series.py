import hashlib
import math

import pytest
from hypothesis import given, strategies as st

from towers import jsonio, recurrences, series
from towers.enumeration import BoundKind, EnumerationQuery, count_towers, weight_polynomial
from towers.errors import ConsistencyError, UnsupportedConfigurationError
from towers.model import PieceSet, Rule, Shape, ZPolynomial
from towers.recurrences import Sequence
from towers.series import (
    TruncatedSeries,
    _square_coeff,
    closed_form_dimer_towers,
    closed_form_half_pyramids,
    closed_form_pyramids,
    coefficients_by_pieces,
    half_pyramid_rhs,
    piece_count_sequence,
    series_family,
    solve_half_pyramids,
    weighted_series,
)

from references import iterate_half_pyramids, naive_product, naive_quotient

DIMER = PieceSet.of(2)
DIMER_NOALIGN = PieceSet.of(2, rule=Rule.NO_EXACT_ALIGNMENT)
ALL_SETS = [DIMER, PieceSet.of(3), PieceSet.of(1, 2), PieceSet.of(2, 3), PieceSet.of(1, 2, 3)]

HALF, PYRAMID, TOWER = Shape.HALF_PYRAMID, Shape.PYRAMID, Shape.TOWER
LAGRANGE_SETS = [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3), (1, 5), (3, 8), (1, 2, 3, 4)]


def at_markers(table: tuple[ZPolynomial, ...], values: tuple[int, ...]) -> TruncatedSeries:
    """The plain series with marker z_i set to values[i] in a weighted series."""
    return TruncatedSeries(
        [sum(c * math.prod(v**e for v, e in zip(values, exps)) for exps, c in z.items())
         for z in table]
    )


class TestArithmetic:
    def test_division_undoes_multiplication(self):
        a = TruncatedSeries((3, 0, -1, 4, 2))
        s = TruncatedSeries((1, -2, 3, 5, -7))
        assert (a / s) * s == a

    def test_division_by_negative_unit(self):
        a = TruncatedSeries((1, 0, 5))
        s = TruncatedSeries((-1, 4, 2))
        assert (a / s) * s == a
        assert (a / s).coeffs == (-1, -4, -23)

    def test_division_requires_unit_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1, 1)) / TruncatedSeries((2, 1))

    def test_shift_drops_high_order_terms(self):
        s = TruncatedSeries((1, 2, 3))
        assert s.shift(2).coeffs == (0, 0, 1)

    def test_scalar_and_int_operations(self):
        s = TruncatedSeries((0, 1, 1))
        assert (1 - s).coeffs == (1, -1, -1)
        assert (s * 3).coeffs == (0, 3, 3)
        assert (s * s).coeffs == (0, 0, 1)
        assert TruncatedSeries.one(2).coeffs == (1, 0, 0)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries((1, 2)) * TruncatedSeries((1, 2, 3))


COEFF = st.one_of(st.just(0), st.integers(-(10**40), 10**40))


@st.composite
def same_order_series(draw, count: int) -> list[TruncatedSeries]:
    """`count` series of one order, each zero off a k-grid of its own (k = 1 is dense)."""
    order = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 16)))
    out = []
    for _ in range(count):
        k = draw(st.integers(1, 4))
        values = draw(st.lists(COEFF, min_size=order + 1, max_size=order + 1))
        out.append(TruncatedSeries([c if i % k == 0 else 0 for i, c in enumerate(values)], order))
    return out


class TestKernels:
    """Both product branches and the quotient against the double loops of `references`."""

    @given(same_order_series(1))
    def test_square(self, xs):
        (x,) = xs
        assert list((x * x).coeffs) == naive_product(x.coeffs, x.coeffs)

    @given(same_order_series(2))
    def test_general_product(self, xs):
        x, y = xs
        assert list((x * TruncatedSeries(x.coeffs)).coeffs) == naive_product(x.coeffs, x.coeffs)
        assert list((x * y).coeffs) == naive_product(x.coeffs, y.coeffs)

    @given(same_order_series(2), st.sampled_from([1, -1]))
    def test_quotient(self, xs, unit):
        x, y = xs
        divisor = TruncatedSeries((unit,) + y.coeffs[1:], x.order)
        assert list((x / divisor).coeffs) == naive_quotient(x.coeffs, divisor.coeffs)

    @given(same_order_series(2), st.integers(2, 5), st.integers(0, 4), st.sampled_from([1, -1]))
    def test_grid_products_and_quotients_equal_the_dense_ones(self, xs, g, extra, unit):
        """Series that share a g-grid run on every g-th coefficient; constants alone do not."""
        order = xs[0].order * g + extra % g

        def on_grid(s):
            coeffs = [0] * (order + 1)
            coeffs[::g] = s.coeffs
            return TruncatedSeries(coeffs, order)

        x, y = map(on_grid, xs)
        divisor = TruncatedSeries((unit,) + y.coeffs[1:], order)
        constant = TruncatedSeries((unit,), order)
        assert list((x * x).coeffs) == naive_product(x.coeffs, x.coeffs)
        assert list((x * y).coeffs) == naive_product(x.coeffs, y.coeffs)
        assert list((x / divisor).coeffs) == naive_quotient(x.coeffs, divisor.coeffs)
        c = constant.coeffs
        assert list((constant * constant).coeffs) == naive_product(c, c)
        assert list((constant / constant).coeffs) == naive_quotient(c, c)


@st.composite
def spanned_series(draw, order: int) -> TruncatedSeries:
    """A signed series whose nonzero span sits between a leading and a trailing zero run."""
    lead = draw(st.integers(0, order + 1))
    trail = draw(st.integers(0, order + 1 - lead))
    width = order + 1 - lead - trail
    middle = draw(st.lists(COEFF, min_size=width, max_size=width))
    return TruncatedSeries([0] * lead + middle + [0] * trail, order)


class Counted(int):
    """An int that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__


class TestSpanProducts:
    """The general product multiplies each operand's nonzero span only."""

    @given(st.data())
    def test_span_product(self, data):
        order = data.draw(st.one_of(st.just(0), st.integers(1, 16)))
        x, y = data.draw(spanned_series(order)), data.draw(spanned_series(order))
        zero = TruncatedSeries.zero(order)
        for a, b in [(x, y), (y, x), (x, zero), (zero, y), (zero, zero), (x, TruncatedSeries(x.coeffs))]:
            assert list((a * b).coeffs) == naive_product(a.coeffs, b.coeffs)
        assert list((x * x).coeffs) == naive_product(x.coeffs, x.coeffs)  # the square, dense

    def test_order_zero_and_zero_operands(self):
        assert (TruncatedSeries((3,)) * TruncatedSeries((-4,))).coeffs == (-12,)
        assert (TruncatedSeries((0,)) * TruncatedSeries((5,))).coeffs == (0,)
        assert (TruncatedSeries((0, 0, 7)) * TruncatedSeries((0, 2, 1))).coeffs == (0, 0, 0)
        assert (TruncatedSeries((0, 3, 0, 0)) * TruncatedSeries((0, 0, 1, 2))).coeffs == (0, 0, 0, 3)

    @pytest.mark.parametrize("poly, shift", [((2, -1, 0, 5), 0), ((1,), 0), ((7, 3), 6), ((1,) * 6, 2)],
                             ids=str)
    def test_polynomial_times_series_counts_its_span(self, poly, shift):
        """A degree-d polynomial times an order-n series takes at most (d+1)(n+1) products."""
        order, degree = 40, len(poly) - 1
        p = TruncatedSeries([0] * shift + [Counted(c) for c in poly], order)
        s = TruncatedSeries([Counted((-1) ** n * (n + 1)) for n in range(order + 1)], order)
        for a, b in [(p, s), (s, p)]:
            Counted.products = 0
            product = a * b
            assert Counted.products <= (degree + 1) * (order + 1)
            assert list(product.coeffs) == naive_product(a.coeffs, b.coeffs)


GRID_SETS = [PieceSet.of(2), PieceSet.of(3), PieceSet.of(5), PieceSet.of(2, 4), PieceSet.of(3, 6),
             DIMER_NOALIGN, PieceSet.of(5, rule=Rule.NO_EXACT_ALIGNMENT)]


class TestGridSolver:
    """Sets whose sizes share a factor g > 1 solve H on the g-grid."""

    @pytest.mark.parametrize("by_pieces", [False, True])
    @pytest.mark.parametrize("pieces", GRID_SETS, ids=lambda p: f"{p.sizes}-{p.rule.value}")
    def test_grid_solver_matches_reference_iteration(self, pieces, by_pieces):
        for order in (0, 1, 2, 11, 24):
            expected = iterate_half_pyramids(pieces, order, by_pieces)
            assert solve_half_pyramids(pieces, order, by_pieces) == expected

    @pytest.mark.parametrize("pieces, g", [(PieceSet.of(2), 2), (PieceSet.of(3), 3), (PieceSet.of(2, 4), 2),
                                           (PieceSet.of(3, 6), 3), (PieceSet.of(5, rule=Rule.NO_EXACT_ALIGNMENT), 5),
                                           (PieceSet.of(1, 2, 3), 1), (PieceSet.of(2, 3), 1)])
    def test_grid_solver_fills_order_over_g_coefficients(self, monkeypatch, pieces, g):
        """The solver's loop squares H once per coefficient it fills: order // g + 1 of them in t."""
        squared = []

        def spy(a, n):
            squared.append((len(a), n))
            return _square_coeff(a, n)

        monkeypatch.setattr("towers.series._square_coeff", spy)
        order = 41
        solve_half_pyramids(pieces, order)
        assert squared == [(order // g + 1, n) for n in range(1, order // g + 1)]
        squared.clear()
        solve_half_pyramids(pieces, order, by_pieces=True)  # every exponent of z is 1
        assert squared == [(order + 1, n) for n in range(1, order + 1)]


class TestHalfPyramids:
    def test_dimer_coefficients_are_catalan(self):
        h = solve_half_pyramids(DIMER, 8)
        assert [h.coeffs[2 * n] for n in range(1, 5)] == [1, 2, 5, 14]
        assert all(h.coeffs[2 * n + 1] == 0 for n in range(4))

    def test_noalign_dimer_coefficients_are_motzkin(self):
        h = solve_half_pyramids(DIMER_NOALIGN, 10)
        assert [h.coeffs[2 * n] for n in range(1, 6)] == [1, 1, 2, 4, 9]

    def test_order_zero_is_trivial(self):
        assert solve_half_pyramids(PieceSet.of(1, 2), 0).coeffs == (0,)

    def test_solver_matches_reference_iteration(self):
        for pieces in [PieceSet.of(1, 2, 3), DIMER_NOALIGN, PieceSet.of(2, 3)]:
            fast = solve_half_pyramids(pieces, 12)
            slow = iterate_half_pyramids(pieces, 12)
            assert fast == slow

    def test_residual_vanishes(self):
        for pieces in ALL_SETS + [DIMER_NOALIGN]:
            h = solve_half_pyramids(pieces, 30)
            assert half_pyramid_rhs(h, pieces) == h

    def test_residual_check_does_not_square(self, monkeypatch):
        """A wrong square in the solver shows in the residual: the check squares nothing."""

        def bumped(a, n):  # t^12 for {1,2,3}; t^24 for the dimers, solved on the 2-grid
            return _square_coeff(a, n) + (n == 12)

        solved = [(pieces, solve_half_pyramids(pieces, 40))
                  for pieces in [PieceSet.of(1, 2, 3), DIMER_NOALIGN]]
        monkeypatch.setattr("towers.series._square_coeff", bumped)
        for pieces, good in solved:
            h = solve_half_pyramids(pieces, 40)
            assert h != good
            assert half_pyramid_rhs(h, pieces) != h

    def test_noalign_needs_single_size(self):
        with pytest.raises(UnsupportedConfigurationError):
            solve_half_pyramids(PieceSet((1, 2), Rule.NO_EXACT_ALIGNMENT), 5)

    def test_noalign_weighted_unsupported(self):
        # one message for every noalign set, one size or several
        message = "^weighted series are not defined under the no-exact-alignment rule$"
        for pieces in (DIMER_NOALIGN, PieceSet((1, 2), Rule.NO_EXACT_ALIGNMENT)):
            with pytest.raises(UnsupportedConfigurationError, match=message):
                weighted_series(pieces, 5, HALF)


class TestPyramidsAndTowers:
    def test_dimer_pyramid_counts(self):
        p = series_family(DIMER, 6)[PYRAMID]
        assert [p.coeffs[2 * n] for n in range(1, 4)] == [1, 3, 10]

    def test_unit_pieces_make_pyramids_equal_half_pyramids(self):
        family = series_family(PieceSet.of(1), 10)
        assert family[HALF] == family[PYRAMID]

    def test_trimer_pyramids_at_two_pieces(self):
        assert series_family(PieceSet.of(3), 6)[PYRAMID].coeffs[6] == 5

    def test_dimer_towers_powers_of_four(self):
        m = series_family(DIMER, 16)[TOWER]
        assert [m.coeffs[2 * n] for n in range(1, 9)] == [4 ** (n - 1) for n in range(1, 9)]

    def test_noalign_towers_powers_of_three(self):
        m = series_family(DIMER_NOALIGN, 12)[TOWER]
        assert [m.coeffs[2 * n] for n in range(1, 7)] == [3 ** (n - 1) for n in range(1, 7)]

    def test_unit_towers_double_each_time(self):
        m = series_family(PieceSet.of(1), 10)[TOWER]
        assert list(m.coeffs[1:]) == [2 ** (n - 1) for n in range(1, 11)]

    def test_relations_between_series(self):
        for pieces in ALL_SETS:
            h, p, m = series_family(pieces, 24).values()
            assert m * (1 - h) == p
            # D = 1 - sum over sizes i of (i-1) t^i (1+H)^i, powers by repeated products
            one_plus = h + 1
            denom = power = TruncatedSeries.one(24)
            for i in range(1, pieces.max_size + 1):
                power = power * one_plus
                if i in pieces.sizes:
                    denom = denom - power.shift(i) * (i - 1)
            assert p * denom == h

    def test_ordering_and_positivity(self):
        for pieces in ALL_SETS + [DIMER_NOALIGN]:
            h, p, m = series_family(pieces, 24).values()
            for n in range(25):
                assert 0 <= h.coeffs[n] <= p.coeffs[n] <= m.coeffs[n]

    def test_family_stops_after_the_requested_shape(self):
        assert list(series_family(DIMER, 6, through=PYRAMID)) == [HALF, PYRAMID]
        assert list(series_family(DIMER, 6, through=HALF)) == [HALF]
        full = series_family(DIMER, 6)
        assert list(full) == [HALF, PYRAMID, TOWER]
        assert series_family(DIMER, 6, through=PYRAMID)[PYRAMID] == full[PYRAMID]


class TestWeightedMode:
    def test_weighted_reduces_to_plain(self):
        # Lagrange's formula against the solver: z := 1 gives the plain series
        for sizes in LAGRANGE_SETS:
            pieces = PieceSet(sizes)
            plain = series_family(pieces, 60)
            for shape in (HALF, PYRAMID, TOWER):
                ones = tuple(z.eval_ones() for z in weighted_series(pieces, 60, shape))
                assert ones == plain[shape].coeffs, (sizes, shape)

    @pytest.mark.parametrize("sizes", LAGRANGE_SETS, ids=str)
    def test_lagrange_formula_matches_the_oracle(self, sizes):
        pieces = PieceSet(sizes)
        area = 10 if len(sizes) > 3 else 12  # {1,2,3,4} to area 12 costs 0.8 s
        zero = ZPolynomial(pieces.sizes)
        for shape in (HALF, PYRAMID, TOWER):
            weighted = weighted_series(pieces, area, shape)
            table = weight_polynomial(EnumerationQuery(pieces, shape, BoundKind.BY_AREA, area))
            assert len(weighted) == area + 1
            assert weighted[0] == zero
            for a in range(1, area + 1):
                assert weighted[a] == table.get(a, zero)

    def test_weighted_residual_vanishes(self):
        # the defining equations at z = (2, 5): H = 2t(1+H) + 5t^3(1+H)^3,
        # P (1 - 10 t^3 (1+H)^3) = H and M (1 - H) = P
        pieces = PieceSet.of(1, 3)
        h, p, m = (at_markers(weighted_series(pieces, 20, s), (2, 5)) for s in (HALF, PYRAMID, TOWER))
        one_plus = h + 1
        cube = (one_plus * one_plus * one_plus).shift(3)
        assert 2 * one_plus.shift(1) + 5 * cube == h
        assert p * (1 - 10 * cube) == h
        assert m * (1 - h) == p

    def test_weighted_coefficients_track_composition(self):
        pieces = PieceSet.of(1, 2)
        m = weighted_series(pieces, 4, TOWER)
        # area 2 towers: one dimer, two stacked/side-by-side pairs of units
        assert m[2] == ZPolynomial(pieces.sizes, {(0, 1): 1, (2, 0): 2})


class TestByPieces:
    def test_single_size_grid_extraction(self):
        h, _, m = series_family(DIMER, 10).values()
        assert coefficients_by_pieces(h, DIMER) == [1, 2, 5, 14, 42]
        assert coefficients_by_pieces(m, DIMER) == [1, 4, 16, 64, 256]

    def test_noalign_tower_counts(self):
        m = series_family(DIMER_NOALIGN, 8)[TOWER]
        assert coefficients_by_pieces(m, DIMER_NOALIGN) == [1, 3, 9, 27]

    def test_zero_series_maps_to_zero_sequence(self):
        zero = TruncatedSeries.zero(10)
        assert coefficients_by_pieces(zero, DIMER) == [0, 0, 0, 0, 0]

    def test_off_grid_coefficient_raises(self):
        bad = TruncatedSeries((0, 1, 1))
        with pytest.raises(ConsistencyError):
            coefficients_by_pieces(bad, DIMER)

    def test_multi_size_set_rejected(self):
        with pytest.raises(ValueError):
            coefficients_by_pieces(TruncatedSeries((0, 1)), PieceSet.of(1, 2))

    def test_single_sizes_in_z_match_the_k_grid(self):
        # the piece variable against the k-grid of the area series, both rules
        for k in range(1, 6):
            for rule in Rule:
                pieces = PieceSet.of(k, rule=rule)
                family = series_family(pieces, 14 * k)
                in_z = series_family(pieces, 14, by_pieces=True)
                for shape in (HALF, PYRAMID, TOWER):
                    by_area = coefficients_by_pieces(family[shape], pieces)
                    assert list(in_z[shape].coeffs[1:]) == by_area, (k, rule, shape)

    def test_small_single_sizes_are_read_off_the_unrolled_area_series(self, monkeypatch):
        # 1000 trimers cover t^3000, past the unroll's crossover order
        read, derived = [], []
        real_read, real_derive = series.coefficients_by_pieces, recurrences.derive_recurrence
        monkeypatch.setattr(series, "coefficients_by_pieces",
                            lambda *args: read.append(args) or real_read(*args))
        monkeypatch.setattr(recurrences, "derive_recurrence",
                            lambda q: derived.append(q) or real_derive(q))
        terms = piece_count_sequence(PieceSet.of(3), 1000, TOWER)
        assert (len(read), len(derived), len(terms)) == (1, 1, 1000)
        in_z = series_family(PieceSet.of(3), 40, by_pieces=True)[TOWER]
        assert terms[:40] == list(in_z.coeffs[1:])

    @pytest.mark.parametrize("pieces", [
        PieceSet.of(5), PieceSet.of(6, rule=Rule.NO_EXACT_ALIGNMENT), PieceSet.of(1, 2),
        PieceSet.of(2, 3), PieceSet.of(1, 2, 3), PieceSet.of(1, 5)])
    def test_other_sets_are_solved_in_z(self, monkeypatch, pieces):
        read, solved = [], []
        real_solve = series.solve_half_pyramids
        monkeypatch.setattr(series, "coefficients_by_pieces", lambda *args: read.append(args))
        monkeypatch.setattr(series, "solve_half_pyramids",
                            lambda solved_set, order, by_pieces=False: solved.append(by_pieces)
                            or real_solve(solved_set, order, by_pieces))
        terms = piece_count_sequence(pieces, 40, TOWER)
        assert (read, solved, len(terms)) == ([], [True], 40)

    def test_piece_count_sequence_multi_size(self):
        # structures with n pieces, any mix of the sizes, against the oracle
        for sizes in [(1, 2), (2, 3), (1, 3, 4)]:
            pieces = PieceSet(sizes)
            for shape in (HALF, PYRAMID, TOWER):
                counts = count_towers(EnumerationQuery(pieces, shape, BoundKind.BY_PIECE_COUNT, 5))
                expected = [counts[n] for n in range(1, 6)]
                assert piece_count_sequence(pieces, 5, shape) == expected, (sizes, shape)

    def test_piece_count_sequence_rejects_multi_size_noalign(self):
        with pytest.raises(UnsupportedConfigurationError, match="single piece size"):
            piece_count_sequence(PieceSet((1, 2), Rule.NO_EXACT_ALIGNMENT), 5, TOWER)

    def test_piece_count_sequence_of_no_pieces_is_empty(self):
        assert piece_count_sequence(PieceSet.of(1, 2), 0, TOWER) == []
        assert piece_count_sequence(PieceSet.of(3), 0, TOWER) == []

    @pytest.mark.parametrize("pieces", [PieceSet.of(3), PieceSet.of(5), PieceSet.of(1, 2)])
    def test_piece_count_sequence_rejects_a_negative_count(self, pieces):
        with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
            piece_count_sequence(pieces, -1, TOWER)


class TestClosedForms:
    def test_half_pyramid_values(self):
        assert closed_form_half_pyramids(2, 3) == 5
        assert closed_form_half_pyramids(3, 2) == 3
        assert all(closed_form_half_pyramids(1, n) == 1 for n in range(1, 8))

    def test_pyramid_values(self):
        assert closed_form_pyramids(2, 2) == 3
        assert closed_form_pyramids(3, 2) == 5
        assert all(closed_form_pyramids(1, n) == 1 for n in range(1, 8))

    def test_dimer_tower_values(self):
        assert closed_form_dimer_towers(Rule.ALL_INTERFACES, 3) == 16
        assert closed_form_dimer_towers(Rule.NO_EXACT_ALIGNMENT, 4) == 27
        assert closed_form_dimer_towers(Rule.ALL_INTERFACES, 1) == 1
        assert closed_form_dimer_towers(Rule.NO_EXACT_ALIGNMENT, 1) == 1

    def test_closed_forms_match_series(self):
        for k in range(1, 5):
            pieces = PieceSet.of(k)
            h, p = series_family(pieces, 12 * k, through=PYRAMID).values()
            assert coefficients_by_pieces(h, pieces) == [
                closed_form_half_pyramids(k, n) for n in range(1, 13)
            ]
            assert coefficients_by_pieces(p, pieces) == [
                closed_form_pyramids(k, n) for n in range(1, 13)
            ]

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            closed_form_half_pyramids(0, 1)
        with pytest.raises(ValueError):
            closed_form_pyramids(2, 0)
        with pytest.raises(ValueError):
            closed_form_dimer_towers(Rule.ALL_INTERFACES, 0)


# sha256 of jsonio.dumps(series_to_json(...)), recorded before the products
# moved to the squaring kernel and map-based inner products
SERIES_DIGESTS = [
    ((1, 2, 3), Rule.ALL_INTERFACES, TOWER, 300,
     "330c6b42a5cc9ebf53e11507069a3f697c47e2251505bfe406ca3b95cfabd69f"),
    ((1, 8), Rule.ALL_INTERFACES, PYRAMID, 200,
     "4f6886179f20657a9c3c73092bb3586f327027cd84a82efdf95cf09bae9a9242"),
    ((3,), Rule.NO_EXACT_ALIGNMENT, TOWER, 300,
     "3219d2471607fdc7114c1a229bf1ae8232e4a1ce9422bce3727e7ef5339b4527"),
    ((2, 4), Rule.ALL_INTERFACES, HALF, 200,
     "cd0f0f7487ce2a180daac409cbc6493a4b9354c82fca8ed00de8947ef4c6d1e8"),
    # series on a k-grid, recorded while products still ran through the zeros
    ((5,), Rule.ALL_INTERFACES, TOWER, 300,
     "7b5fc179e7ade557a19e90073d95cb4b22a08e7ab520943135efa54ee283a3ec"),
    ((2, 4), Rule.ALL_INTERFACES, TOWER, 300,
     "63c9c17a24bf19d81f498cde93be3b59abede1605ec82aa8a2b3beef0586c3df"),
]


@pytest.mark.parametrize("sizes, rule, shape, order, digest", SERIES_DIGESTS)
def test_series_bytes_are_pinned(sizes, rule, shape, order, digest):
    series = series_family(PieceSet(sizes, rule), order, shape)[shape]
    text = jsonio.dumps(jsonio.series_to_json(series))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


# sha256 of jsonio.dumps(sequence_to_json(...)) of 40 terms by pieces, recorded
# while P by pieces was still z H' / (1 + H)
PIECE_COUNT_DIGESTS = [
    ((1, 2, 3), HALF, "0ca533f0c96f921e6c942ea0348f2781007fc132d5a4b2564f5685b284aabc54"),
    ((1, 2, 3), PYRAMID, "2cab53e925414802e18fa7f1f998441e9cd3602d65817685b2a5889502bf7dc0"),
    ((1, 2, 3), TOWER, "6e1280bce37ce12e7c7f97c418033db7dc8ce145c3c78df92bc3f8f8248cffcf"),
    ((2, 3), HALF, "e0fadb4a547c86321f67fcd1532d65594e7bde67246aa9345ce4fbfe5a7b1e0e"),
    ((2, 3), PYRAMID, "2389295c47dbab97963c1179b081090da5a3b4ca53cbfc72ba2adf045566d5de"),
    ((2, 3), TOWER, "5eab6a51b830f0d77299c243fa89fb1b9a4438cbce9b9a6ee1410e75e06d18cb"),
    ((1, 3, 4), HALF, "c7a6972d98043010c1bd5564f2836535fb93710241474bc294b279466fb03cdd"),
    ((1, 3, 4), PYRAMID, "7cd2cf981e2950cdb7c21f83cde85c1cf8e2430039111da0c30110a8b9a18afc"),
    ((1, 3, 4), TOWER, "22b0169fe08883b1b458bb6dcc353087efbef9213e971380d9ca715d6e03168b"),
]


@pytest.mark.parametrize("sizes, shape, digest", PIECE_COUNT_DIGESTS)
def test_piece_count_bytes_are_pinned(sizes, shape, digest):
    terms = piece_count_sequence(PieceSet(sizes), 40, shape)
    text = jsonio.dumps(jsonio.sequence_to_json(Sequence(1, tuple(terms))))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
