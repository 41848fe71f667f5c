"""Independent reference routes that the tests compare the library against.

Not collected by pytest (no `test_` prefix); test modules import it by name.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from towers import jsonio, recurrences
from towers.errors import MalformedInputError
from towers.model import Floor, PieceSet, Rule, Shape
from towers.polynomials import IntPoly
from towers.series import TruncatedSeries, _horner, _phi


def evaluate(coeffs: Sequence[IntPoly], t_value: Fraction, y_value: Fraction) -> Fraction:
    """sum_j coeffs[j](t) y^j at the point (t, y) = (t_value, y_value)."""
    return sum((c(t_value) * y_value**j for j, c in enumerate(coeffs)), Fraction(0))


def sylvester_resultant(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """Resultant of univariate polynomials as a Sylvester determinant.

    Coefficients ascending; exact rational Gaussian elimination.  Serves as
    the second, independent route for testing the remainder-sequence code.
    """
    fc = list(f)
    while fc and not fc[-1]:
        fc.pop()
    gc = list(g)
    while gc and not gc[-1]:
        gc.pop()
    if not fc or not gc:
        return Fraction(0)
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    if size == 0:
        return Fraction(1)
    rows = []
    rev_f = fc[::-1]
    rev_g = gc[::-1]
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rev_f]
                    + [Fraction(0)] * (size - i - n - 1))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in rev_g]
                    + [Fraction(0)] * (size - i - m - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for k in range(col, size):
                    rows[r][k] -= factor * rows[col][k]
    return det


def bareiss_kernel(matrix: list[list[int]]) -> list[list[int]]:
    """Basis of the kernel of an integer matrix, as coprime integer vectors.

    Forward elimination is fraction-free (Bareiss), so all intermediate
    entries stay integral; back-substitution runs over Fractions and the
    result is scaled to integers.  Basis vectors come out in order of their
    free column.
    """
    rows = [row[:] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[tuple[int, int]] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][col]
        for i in range(r + 1, nrows):
            head = rows[i][col]
            for j in range(col + 1, ncols):
                rows[i][j] = (rows[i][j] * pivot - head * rows[r][j]) // prev
            rows[i][col] = 0
        prev = pivot
        pivots.append((r, col))
        r += 1
    pivot_cols = {c for _, c in pivots}
    basis: list[list[int]] = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for pr, pc in reversed(pivots):
            rhs = sum((rows[pr][j] * x[j] for j in range(pc + 1, ncols)), Fraction(0))
            x[pc] = -rhs / rows[pr][pc]
        scale = math.lcm(*(f.denominator for f in x))
        vec = [int(f * scale) for f in x]
        content = math.gcd(*(abs(v) for v in vec))
        basis.append([v // content for v in vec])
    return basis


def iterate_half_pyramids(pieces: PieceSet, order: int, by_pieces: bool = False) -> TruncatedSeries:
    """Reference fixed-point iteration: repeated substitution from H = 0.

    Runs order+1 full substitutions of H into Phi by Horner's rule, as
    `half_pyramid_rhs` does (each corrects at least one more order), in t
    or by pieces in z, and always on the full length, never on a g-grid.
    Quadratic in the order per step, so only suitable for small orders;
    `solve_half_pyramids` is the fast equivalent.
    """
    phi = _phi(pieces, by_pieces)
    h = TruncatedSeries.zero(order)
    for _ in range(order + 1):
        h = _horner(phi, h)
    return h


def horner_unroll(rec: recurrences.Recurrence, initial: recurrences.Sequence,
                  target_length: int) -> list:
    """Terms of the unroll, each p_j(n) evaluated by `IntPoly.__call__` at every step.

    Plain ints only, and no check beyond the two that name n: a vanishing
    p_r(n) raises SingularRecurrenceError, an inexact division
    InconsistentRecurrenceError, with `extend_sequence`'s messages.
    """
    terms, r = [int(t) for t in initial.terms], rec.order
    while len(terms) < target_length:
        n = initial.offset + len(terms) - r
        lead = rec.coeff_polys[r](n)
        if lead == 0:
            raise recurrences.SingularRecurrenceError(f"leading coefficient vanishes at n={n}")
        acc = sum(p(n) * terms[len(terms) - r + j] for j, p in enumerate(rec.coeff_polys[:r]))
        quotient, remainder = divmod(-acc, lead)
        if remainder:
            raise recurrences.InconsistentRecurrenceError(
                f"division by p_r({n}) = {lead} is not exact; "
                "the recurrence does not govern these terms"
            )
        terms.append(quotient)
    return terms[:target_length]


def naive_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of a*b through len(a) terms, by a plain double loop."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def naive_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """q with q*b = a through len(a) terms, for b[0] = +-1, so 1/b[0] = b[0]."""
    q: list[int] = []
    for m in range(len(a)):
        acc = a[m]
        for j in range(1, m + 1):
            acc -= b[j] * q[m - j]
        q.append(acc * b[0])
    return q


def _richardson(points: list[tuple[int, Fraction]]) -> Fraction:
    m = len(points) - 1
    return sum(
        (Fraction((-1) ** (m - i) * n**m, math.factorial(i) * math.factorial(m - i)) * value
         for i, (n, value) in enumerate(points)),
        Fraction(0),
    )


def decimal_str(value: Fraction, digits: int = 30) -> str:
    """`jsonio.decimal_pair_str` of a Fraction, from its reduced numerator and denominator."""
    return jsonio.decimal_pair_str(value.numerator, value.denominator, digits)


def term_by_term_estimate(seq: recurrences.Sequence, depth: int) -> tuple[Fraction, Fraction, dict]:
    """mu, theta and stability with theta extrapolated from n*(r_n/mu - 1) term by term.

    The direct form of what `estimate_asymptotics` computes by linearity;
    slow on long sequences, since every ratio is divided by mu.
    """
    start = len(seq) - (depth + 3)
    tail = [int(t) for t in seq.terms[start:]]
    ratios = [(seq.offset + start + i, Fraction(b, a))
              for i, (a, b) in enumerate(zip(tail, tail[1:]))]
    mu, mu_prev = _richardson(ratios[1:]), _richardson(ratios[:-1])
    shifted = [(n, n * (r / mu - 1)) for n, r in ratios]
    theta, theta_prev = _richardson(shifted[1:]), _richardson(shifted[:-1])
    return mu, theta, {"mu": abs(mu - mu_prev), "theta": abs(theta - theta_prev)}


def exhaustive_guess(
    s: recurrences.Sequence, max_order: int, max_degree: int, guard: int
) -> recurrences.Recurrence | None:
    """`guess_recurrence`'s search without its modular filter or its lifted kernel.

    Tries every shape in the same order, builds the same system and takes
    its kernel by `bareiss_kernel`, so it returns what the filtered search
    must return.
    """
    for total in range(1, max_order + max_degree + 1):
        for r in range(max(1, total - max_degree), min(max_order, total) + 1):
            d = total - r
            rows = len(s) - r - guard
            if rows < (r + 1) * (d + 1):
                continue
            matrix = [[s.terms[w + j] * (s.offset + w) ** e
                       for j in range(r + 1) for e in range(d + 1)] for w in range(rows)]
            for vec in bareiss_kernel(matrix):
                polys = tuple(IntPoly(vec[j * (d + 1):(j + 1) * (d + 1)]) for j in range(r + 1))
                if not polys[-1].is_zero:
                    rec = recurrences.Recurrence(polys)
                    if recurrences.verify_recurrence(rec, s):
                        return rec
    return None


def list_eliminate(matrix: list[list[int]], ncols: int, p: int) -> tuple[list[tuple[int, int]], list]:
    """`polynomials._eliminate` on lists: every entry reduced mod p after every update.

    Returns the same pivots and LU factors, so the packed rows' delayed
    reductions are checked against the reductions made at once.
    """
    # each row: its index, its entries from the current column on, its multipliers
    rows = [(i, [x % p for x in row], []) for i, row in enumerate(matrix)]
    pivots, reduced = [], []
    for col in range(ncols):
        at = next((n for n, (_, entries, _) in enumerate(rows) if entries[0]), None)
        if at is None:
            rows = [(i, entries[1:], multipliers) for i, entries, multipliers in rows]
            continue
        i, pivot, multipliers = rows.pop(at)
        pivots.append((i, col))
        reduced.append((multipliers, pivot))
        inverse = pow(pivot[0], -1, p)
        negated = [-x * inverse % p for x in pivot[1:]]
        for n, (j, entries, below) in enumerate(rows):
            f = entries[0]
            below.append(f * inverse % p)
            if f:
                rows[n] = (j, [(x + f * y) % p for x, y in zip(entries[1:], negated)], below)
            else:
                rows[n] = (j, entries[1:], below)
    cols = [c for _, c in pivots]
    factors = [
        (multipliers, [pivot[c - col] for c in reversed(cols[k + 1:])], pow(pivot[0], -1, p))
        for k, ((multipliers, pivot), col) in enumerate(zip(reduced, cols))
    ]
    return pivots, factors


def list_first_singular_degree(s: recurrences.Sequence, r: int, max_degree: int, guard: int) -> int:
    """The smallest degree `recurrences._Elimination` cannot rule out, max_degree+1 if none.

    On lists, every entry reduced after every update.
    """
    p = recurrences._PRIME
    width = r + 1
    rows = min(len(s) - r - guard, width * (max_degree + 1) + recurrences._EXTRA_ROWS)
    residues = [t % p for t in s.terms[: rows + r]]
    matrix = []
    for w in range(rows):
        n = (s.offset + w) % p
        block = residues[w : w + width]
        row = block
        for _ in range(max_degree):
            block = [x * n % p for x in block]
            row = row + block
        matrix.append(row)
    # each step pivots on the leading column and drops it from every row
    for col in range(width * (max_degree + 1)):
        at = next((i for i, row in enumerate(matrix) if row[0]), None)
        if at is None:
            return col // width
        pivot = matrix.pop(at)
        negated = p - pow(pivot[0], -1, p)
        scaled = [x * negated % p for x in pivot[1:]]
        reduced = []
        for row in matrix:
            f = row[0]
            reduced.append([(x + f * y) % p for x, y in zip(row[1:], scaled)] if f else row[1:])
        matrix = reduced
    return max_degree + 1


def _raw_floors(candidate: Iterable) -> tuple[Floor, ...]:
    """Normalize raw floor lists to tuples, sorting pieces within floors.

    Raises MalformedInputError if the structure is not a sequence of
    sequences of integer pairs, or any interval has right <= left.
    Emptiness is left to the caller: an empty candidate is not malformed,
    merely not a tower.
    """
    floors = []
    try:
        outer = list(candidate)
    except TypeError:
        raise MalformedInputError(f"not a floor list: {candidate!r}") from None
    for floor in outer:
        pieces = []
        try:
            raw_pieces = list(floor)
        except TypeError:
            raise MalformedInputError(f"not a floor: {floor!r}") from None
        for interval in raw_pieces:
            try:
                left, right = interval
            except (TypeError, ValueError):
                raise MalformedInputError(f"not an interval: {interval!r}") from None
            if isinstance(left, bool) or isinstance(right, bool) \
                    or not isinstance(left, int) or not isinstance(right, int):
                raise MalformedInputError(f"non-integer endpoints: {interval!r}")
            if right <= left:
                raise MalformedInputError(f"empty or reversed interval: {interval!r}")
            pieces.append((left, right))
        pieces.sort()
        floors.append(tuple(pieces))
    return tuple(floors)


def is_legal_tower(candidate: Iterable, pieces: PieceSet, shape: Shape = Shape.TOWER) -> bool:
    """Check whether raw floor lists describe a legal tower of the shape.

    The checks, in order: every size belongs to the piece set; pieces on a
    floor have pairwise disjoint interiors; the bottom floor is gap-free;
    every piece above the bottom floor has positive-length contact with the
    floor directly below; under NO_EXACT_ALIGNMENT no piece duplicates an
    interval of the floor directly below; the shape constraint holds
    (pyramid: single bottom piece; half-pyramid: additionally no piece
    starts left of the bottom piece).

    Malformed input (bad structure, right <= left, non-integers) raises
    MalformedInputError; a well-formed but illegal tower returns False.
    Legality is translation invariant, so placement need not be canonical.
    The tests run it on the enumerator's towers as an independent check.
    """
    floors = _raw_floors(candidate)
    if not floors or any(not floor for floor in floors):
        return False
    for floor in floors:
        for left, right in floor:
            if right - left not in pieces.sizes:
                return False
        for (_, r1), (l2, _) in zip(floor, floor[1:]):
            if r1 > l2:
                return False
    for (_, r1), (l2, _) in zip(floors[0], floors[0][1:]):
        if r1 != l2:
            return False
    no_align = pieces.rule is Rule.NO_EXACT_ALIGNMENT
    for below, floor in zip(floors, floors[1:]):
        for left, right in floor:
            if not any(max(left, a) < min(right, b) for a, b in below):
                return False
            if no_align and (left, right) in below:
                return False
    if shape is not Shape.TOWER:
        if len(floors[0]) != 1:
            return False
        if shape is Shape.HALF_PYRAMID:
            base_left = floors[0][0][0]
            if any(left < base_left for floor in floors for left, _ in floor):
                return False
    return True
