import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from towers import polynomials
from towers.errors import ConsistencyError
from towers.polynomials import IntPoly, h_prem, h_resultant, integer_kernel

from references import bareiss_kernel, list_eliminate, sylvester_resultant


class TestIntPoly:
    def test_trimming_and_degree(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly(()).degree == -1
        assert IntPoly((0,)).is_zero

    def test_arithmetic(self):
        p = IntPoly((1, 1))  # 1 + x
        q = IntPoly((-1, 1))  # -1 + x
        assert (p * q).coeffs == (-1, 0, 1)
        assert (p + q).coeffs == (0, 2)
        assert (p - p).is_zero
        assert (p**3).coeffs == (1, 3, 3, 1)
        assert (p * 2).coeffs == (2, 2)

    def test_content_and_exact_division(self):
        p = IntPoly((6, -9, 12))
        assert p.content() == 3
        assert p.exact_div(IntPoly.constant(3)).coeffs == (2, -3, 4)
        with pytest.raises(ConsistencyError):
            p.exact_div(IntPoly.constant(4))

    def test_exact_division_roundtrip(self):
        rng = random.Random(7)
        for _ in range(25):
            a = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 5)))
            b = IntPoly(rng.randint(-5, 5) for _ in range(rng.randint(1, 4)))
            if not b:
                continue
            assert (a * b).exact_div(b) == a

    def test_inexact_division_raises(self):
        t = IntPoly((0, 1))
        with pytest.raises(ConsistencyError):
            (t + IntPoly.constant(1)).exact_div(t)
        with pytest.raises(ConsistencyError):
            IntPoly((1, 2)).exact_div(IntPoly((1, 2, 1)))  # divisor of higher degree
        with pytest.raises(ConsistencyError):
            IntPoly((1, 0, 3)).exact_div(IntPoly((1, 1)))  # remainder in the low terms only

    def test_evaluation(self):
        p = IntPoly((1, 0, 2))  # 1 + 2x^2
        assert p(3) == 19
        assert p(Fraction(1, 2)) == Fraction(3, 2)


def _random_hpoly(rng, max_deg, ground_deg=2):
    deg = rng.randint(1, max_deg)
    coeffs = [IntPoly(rng.randint(-4, 4) for _ in range(ground_deg + 1)) for _ in range(deg + 1)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _to_sympy(hpoly, h, t):
    return sum(c * t**i * h**power for power, coeff in enumerate(hpoly) for i, c in enumerate(coeff.coeffs))


class TestResultant:
    def test_known_value(self):
        # res(x^2 + 1, x^2 - 1) = 4
        f = [IntPoly.constant(1), IntPoly(), IntPoly.constant(1)]
        g = [IntPoly.constant(-1), IntPoly(), IntPoly.constant(1)]
        assert h_resultant(f, g) == IntPoly.constant(4)

    def test_common_factor_gives_zero(self):
        # (x - 1)(x + 1) and (x - 1) share a root
        f = [IntPoly.constant(-1), IntPoly(), IntPoly.constant(1)]
        g = [IntPoly.constant(-1), IntPoly.constant(1)]
        assert not h_resultant(f, g)

    def test_prem_agrees_with_definition(self):
        # prem(f, g) = lc(g)^(df-dg+1) f mod g over the rationals
        rng = random.Random(3)
        for _ in range(20):
            f = _random_hpoly(rng, 4)
            g = _random_hpoly(rng, 3)
            if len(f) < len(g) or not f or not g:
                continue
            r = h_prem(f, g)
            t0 = Fraction(rng.randint(1, 5), 7)
            fv = [c(t0) for c in f]
            gv = [c(t0) for c in g]
            if not gv or gv[-1] == 0:
                continue
            factor = gv[-1] ** (len(f) - len(g) + 1)
            # numeric remainder of factor * f by g
            num = [c * factor for c in fv]
            while len(num) >= len(gv):
                scale = num[-1] / gv[-1]
                shift = len(num) - len(gv)
                for idx, c in enumerate(gv):
                    num[shift + idx] -= scale * c
                num.pop()
                while num and num[-1] == 0:
                    num.pop()
            rv = [c(t0) for c in r]
            while rv and rv[-1] == 0:
                rv.pop()
            assert rv == num

    def test_matches_sylvester_at_random_points(self):
        rng = random.Random(11)
        done = 0
        while done < 20:
            f = _random_hpoly(rng, 3)
            g = _random_hpoly(rng, 3)
            if len(f) < 2 or len(g) < 2 or len(f) < len(g):
                continue
            symbolic = h_resultant(f, g)
            t0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            fv = [c(t0) for c in f]
            gv = [c(t0) for c in g]
            if not fv or not gv or fv[-1] == 0 or gv[-1] == 0:
                continue  # degree dropped at this point; pick another
            assert symbolic(t0) == sylvester_resultant(fv, gv)
            done += 1

    def test_matches_sympy_resultant(self):
        rng = random.Random(5)
        h, t = sympy.symbols("h t")
        for _ in range(10):
            f = _random_hpoly(rng, 3)
            g = _random_hpoly(rng, 2)
            if len(f) < 2 or len(g) < 2 or len(f) < len(g):
                continue
            mine = h_resultant(f, g)
            reference = sympy.resultant(_to_sympy(f, h, t), _to_sympy(g, h, t), h)
            mine_sym = sympy.expand(_to_sympy([mine], h, t))
            assert sympy.simplify(mine_sym - reference) == 0


class TestSylvester:
    def test_classic_example(self):
        f = [Fraction(1), Fraction(0), Fraction(1)]
        g = [Fraction(-1), Fraction(0), Fraction(1)]
        assert sylvester_resultant(f, g) == 4

    def test_degenerate_inputs(self):
        assert sylvester_resultant([], [Fraction(1)]) == 0
        assert sylvester_resultant([Fraction(2)], [Fraction(3)]) == 1


PRIME = polynomials._PRIME  # the first prime the kernel is solved modulo

ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**200), 2**200))


@st.composite
def kernel_cases(draw):
    """A matrix whose kernel over Q has dimension 0-3 by construction.

    Its rows combine an echelon basis of the row space, with some columns
    zero throughout, and zero rows mixed in.  A column, a row or the whole
    matrix may then be multiplied by PRIME, which lowers the rank mod PRIME
    or moves its pivots.
    """
    ncols = draw(st.integers(1, 6))
    rank = ncols - draw(st.integers(0, min(3, ncols)))
    pivots = sorted(draw(st.permutations(range(ncols)))[:rank])
    zero = draw(st.sets(st.sampled_from(range(ncols)))) - set(pivots)
    echelon = []
    for pc in pivots:
        row = [0] * ncols
        row[pc] = draw(ENTRY.filter(bool))
        for c in range(pc + 1, ncols):
            if c not in zero:
                row[c] = draw(ENTRY)
        echelon.append(row)
    # combinations of the basis rows: a triangular block with a nonzero
    # diagonal keeps the rank, then free combinations and zero rows
    small = st.integers(-3, 3)
    combos = [[draw(small) for _ in range(k)] + [draw(small.filter(bool))] + [0] * (rank - k - 1)
              for k in range(rank)]
    combos += [[draw(small) for _ in range(rank)] for _ in range(draw(st.integers(0, 2)))]
    combos += [[0] * rank for _ in range(draw(st.integers(0, 2)))]
    matrix = [[sum(c * row[j] for c, row in zip(combo, echelon)) for j in range(ncols)]
              for combo in draw(st.permutations(combos))]
    if not matrix:
        matrix = [[0] * ncols]
    kind = draw(st.sampled_from(["plain", "times prime", "column times prime", "row times prime"]))
    if kind == "times prime":
        matrix = [[x * PRIME for x in row] for row in matrix]
    elif kind == "column times prime":
        c = draw(st.integers(0, ncols - 1))
        for row in matrix:
            row[c] *= PRIME
    elif kind == "row times prime":
        i = draw(st.integers(0, len(matrix) - 1))
        matrix[i] = [x * PRIME for x in matrix[i]]
    return matrix, ncols - rank


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_kernel_equals_the_bareiss_reference(case):
    matrix, dimension = case
    kernel = integer_kernel(matrix)
    assert kernel == bareiss_kernel(matrix)
    assert len(kernel) == dimension


def steps_on_first_rows(matrix, seen, extra):
    """`_echelon`'s steps on the first `seen` rows, packed with `extra` more columns
    after the matrix's, as the guesser's filter packs its rows."""
    ncols = len(matrix[0])
    width = ncols + len(extra)
    bits = polynomials._field_width(width, PRIME)
    rows = [polynomials._pack([x % PRIME for x in row + extra], bits) for row in matrix[:seen]]
    return list(itertools.islice(polynomials._echelon(rows, width, bits, PRIME), ncols))


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases(), data=st.data())
def test_kernel_from_the_steps_of_its_first_rows_equals_the_bareiss_reference(case, data):
    """The other rows may add pivots, and the prime may be unlucky."""
    matrix, dimension = case
    seen = data.draw(st.integers(0, len(matrix)))
    extra = data.draw(st.lists(st.integers(0, PRIME - 1), max_size=3))
    kernel = integer_kernel(matrix, steps_on_first_rows(matrix, seen, extra))
    assert kernel == bareiss_kernel(matrix)
    assert len(kernel) == dimension


def test_a_kernel_lifted_from_some_rows_falls_back_to_the_whole_matrix(monkeypatch):
    # the first two rows leave columns 1 and 2 free; the third has a pivot at 2
    matrix = [[1, 2, 3], [2, 4, 6], [0, 0, 1]]
    eliminated = []
    eliminate = polynomials._eliminate
    monkeypatch.setattr(polynomials, "_eliminate", lambda matrix, ncols, p: eliminated.append(
        (len(matrix), ncols, p)) or eliminate(matrix, ncols, p))
    steps = steps_on_first_rows(matrix, 2, [])
    assert integer_kernel(matrix, steps) == [[-2, 1, 0]] == bareiss_kernel(matrix)
    assert eliminated == [(3, 3, PRIME)]  # once, the whole matrix, at the first prime


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
def test_packed_elimination_equals_the_list_reference(case):
    matrix, _ = case
    ncols = len(matrix[0])
    assert polynomials._eliminate(matrix, ncols, PRIME) == list_eliminate(matrix, ncols, PRIME)


WIDE = 48


@pytest.mark.parametrize("matrix", [
    # rank 1: the first update takes every other row to multiples of p
    [[PRIME - 1] * WIDE for _ in range(WIDE)],
    # -(min(i, j) + 1): full rank, and at every pivot the pivot, every lead
    # below it and every scaled pivot entry is p - 1, so row i takes
    # min(i, WIDE - 1) updates of (p - 1)**2 each
    [[-(min(i, j) + 1) for j in range(WIDE)] for i in range(WIDE)],
], ids=["all p-1", "min"])
def test_packed_elimination_keeps_the_largest_updates_apart(matrix):
    pivots, factors = polynomials._eliminate(matrix, WIDE, PRIME)
    assert (pivots, factors) == list_eliminate(matrix, WIDE, PRIME)
    assert all(inverse == PRIME - 1 for _, _, inverse in factors)  # each pivot is p - 1
    assert all(set(multipliers) <= {1} for multipliers, _, _ in factors)  # each lead is p - 1


@pytest.mark.parametrize("matrix, kernel", [
    ([[PRIME, 0], [0, 0]], [[0, 1]]),  # rank 0 mod the prime, 1 over Q
    ([[1, 2], [3, 6 + PRIME]], []),  # determinant PRIME
    ([[PRIME, 1]], [[-1, PRIME]]),  # the pivot moves right mod the prime
    ([[0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ([], []),
])
def test_kernel_where_the_first_prime_is_unlucky(matrix, kernel):
    assert integer_kernel(matrix) == kernel == bareiss_kernel(matrix)
