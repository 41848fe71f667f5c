"""Exact polynomial arithmetic used by the elimination and guessing code.

Two layers, both over the integers:

* IntPoly: dense univariate polynomials (used both for polynomials in t
  and for recurrence coefficients in n), with the ring operations and
  exact division in Z[t].
* lists of IntPoly coefficients, ascending, as polynomials in an outer
  variable over Z[t]: `h_prem` is the pseudo-remainder in Z[t][x], and
  the fraction-free subresultant polynomial remainder sequence computes
  resultants without ever leaving the integers (Brown's algorithm).

Beside them sit the normal form of a tuple of IntPolys (primitive, with
positive leading coefficient), the primitive gcd in Z[t] and the kernel of
an integer matrix by fraction-free elimination, shared by `algebra` and
`recurrences`.

The tests check the resultants against an independent route, Sylvester
determinants over Fractions at rational points, kept in `tests/`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError

__all__ = ["IntPoly", "primitive_part", "int_poly_gcd", "integer_kernel", "h_prem",
           "h_resultant"]


class IntPoly:
    """Dense univariate integer polynomial, coefficients in ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (IntPoly.constant(other)).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * (len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        result = IntPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self / divisor in Z[t]; ConsistencyError if it leaves a remainder."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rem, d = list(self.coeffs), divisor.coeffs
        quotient = [0] * max(len(rem) - len(d) + 1, 0)
        for top in range(len(quotient) - 1, -1, -1):
            # a remainder left at the top stays there: later steps write below it
            quotient[top] = q = rem[top + len(d) - 1] // d[-1]
            for i, c in enumerate(d, top):
                rem[i] -= q * c
        if any(rem):
            raise ConsistencyError(f"{self!r} is not divisible by {divisor!r}")
        return IntPoly(quotient)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"


def primitive_part(polys: Sequence[IntPoly]) -> tuple[IntPoly, ...]:
    """polys divided by their collective integer content, all negated if the
    last one has a negative leading coefficient."""
    content = math.gcd(*(p.content() for p in polys))
    if content > 1:
        polys = [p.exact_div(IntPoly.constant(content)) for p in polys]
    if polys and polys[-1].leading < 0:
        polys = [-p for p in polys]
    return tuple(polys)


def int_poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Greatest common divisor in Z[t], primitive with positive leading coefficient.

    Euclid with pseudo-remainders made primitive, so every step stays in the
    integers; integer content is ignored.
    """
    while b:
        r = list(a.coeffs)
        for top in range(len(r) - 1, b.degree - 1, -1):
            head = r[top]
            r = [c * b.leading for c in r]
            for i, c in enumerate(b.coeffs, top - b.degree):
                r[i] -= head * c
        a, (b,) = b, primitive_part([IntPoly(r)])
    return primitive_part([a])[0]


def integer_kernel(matrix: list[list[int]]) -> list[list[int]]:
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


# Polynomials in the eliminated variable are plain lists of IntPoly
# coefficients, ascending, with no trailing zeros.

HPoly = list[IntPoly]


def _h_trim(f: HPoly) -> HPoly:
    while f and not f[-1]:
        f.pop()
    return f


def h_prem(f: HPoly, g: HPoly) -> HPoly:
    """Pseudo-remainder lc(g)^(deg f - deg g + 1) * f mod g in the outer variable."""
    df, dg = len(f) - 1, len(g) - 1
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by the zero polynomial")
    if df < dg:
        return list(f)
    r = list(f)
    n = df - dg + 1
    lc_g = g[-1]
    while True:
        dr = len(r) - 1
        if dr < dg:
            break
        lc_r = r[-1]
        n -= 1
        # r = lc_g * r - lc_r * g * x^(dr - dg); both sides have length dr + 1
        shifted = [IntPoly()] * (dr - dg) + [c * lc_r for c in g]
        r = _h_trim([a * lc_g - b for a, b in zip(r, shifted)])
        if not r:
            break
    if n > 0 and r:
        factor = lc_g**n
        r = [c * factor for c in r]
    return r


def h_resultant(f: HPoly, g: HPoly) -> IntPoly:
    """Resultant of f and g with respect to the outer variable.

    Brown's subresultant polynomial remainder sequence: fraction-free, every
    division exact over the integers.  If deg f < deg g the arguments are
    swapped, which can only flip the overall sign; callers that care
    normalize signs afterwards.
    """
    f, g = _h_trim(list(f)), _h_trim(list(g))
    if not f or not g:
        return IntPoly()
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        f, g = g, f
        n, m = m, n
    if n == 0:
        return IntPoly.constant(1)  # two non-zero constants
    d = n - m
    b = IntPoly.constant((-1) ** (d + 1))
    h = [c * b for c in h_prem(f, g)]
    lc = g[-1]
    c = -(lc**d)  # minus the latest subresultant scalar
    while h:
        k = len(h) - 1
        f, g, m, d = g, h, k, m - k
        b = (-lc) * c**d
        h = [ch.exact_div(b) for ch in h_prem(f, g)]
        lc = g[-1]
        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc
    if len(g) - 1 > 0:
        return IntPoly()  # non-trivial common factor
    return -c
