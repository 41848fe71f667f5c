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
positive leading coefficient), the primitive gcd in Z[t], the removal of a
common factor in Z[t] and the kernel of an integer matrix, shared by
`algebra` and `recurrences`.  The kernel is solved modulo a prime and
lifted p-adically (Dixon), so no entry grows past the size of the answer;
it falls back to the next prime when the first one's pivots are not the
pivots over Q.  Its elimination mod p, `_echelon`, on rows packed into one
int each, also gives `recurrences`' guesser the ranks that rule shapes out.

The tests check the resultants against an independent route, Sylvester
determinants over Fractions at rational points, and the kernel against
fraction-free (Bareiss) elimination, both kept in `tests/`.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import ConsistencyError
from .model import Value

__all__ = ["IntPoly", "primitive_part", "int_poly_gcd", "without_content", "integer_kernel",
           "h_mul", "h_prem", "h_resultant"]


class IntPoly(Value):
    """Dense univariate integer polynomial, coefficients in ascending order."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

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

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i)

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


def without_content(polys: Sequence[IntPoly]) -> tuple[IntPoly, ...]:
    """polys divided by their gcd in Z[t]."""
    g = functools.reduce(int_poly_gcd, polys)
    return tuple(p.exact_div(g) for p in polys)


# Kernels are solved modulo primes below 2**30, walking down from this one,
# the largest.
_PRIME = 1073741789


def _field_width(ncols: int, p: int) -> int:
    """Bits per field of a packed row of ncols entries mod p: room for (ncols+1)*p**2."""
    return ((ncols + 1) * p * p).bit_length()


def _pack(entries: Sequence[int], bits: int) -> int:
    """The non-negative entries as one int, entry k in bits [k*bits, (k+1)*bits)."""
    packed = 0
    for x in reversed(entries):
        packed = packed << bits | x
    return packed


def integer_kernel(matrix: list[list[int]]) -> list[list[int]]:
    """Basis of the kernel of an integer matrix, as coprime integer vectors.

    The basis is the reduced echelon one over Q: for each free column (one
    that is not a pivot when pivots are taken column by column, left to
    right) the vector with 1 there, 0 at every other free column, scaled to
    coprime integers.  Vectors come out in order of their free column, each
    with a positive free entry.

    Dixon's p-adic lifting (Numer. Math. 40, 1982): the matrix is eliminated
    once modulo a prime, and each kernel vector is lifted from the pivot
    block's LU factors, one p-adic digit per step, then read back by
    rational reconstruction (von zur Gathen-Gerhard, Modern Computer
    Algebra, 5.10).  A vector is accepted only if it annihilates every row
    exactly and is zero at the pivots right of its free column, which makes
    the prime's pivots the ones over Q.  A prime whose pivots differ, where
    a minor over Q is divisible by it, fails a vector by the time the lift
    passes the Hadamard bound on the pivot block's minors, and the next
    prime below is tried.  Only finitely many primes divide those minors, so
    the walk ends with the exact answer.
    """
    ncols = len(matrix[0]) if matrix else 0
    p = _PRIME
    while (basis := _kernel_mod(matrix, ncols, p)) is None:
        p = _prime_below(p)
    return basis


def _prime_below(n: int) -> int:
    """The largest prime below n, by trial division."""
    n -= 1
    while any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _kernel_mod(matrix: list[list[int]], ncols: int, p: int) -> list[list[int]] | None:
    """`integer_kernel` with the pivots taken mod p; None if they are not the pivots over Q."""
    pivots, factors = _eliminate(matrix, ncols, p)
    cols = [c for _, c in pivots]
    block = [[matrix[i][c] for c in cols] for i, _ in pivots]
    norms = [sum(x * x for x in row) for row in block]
    basis = []
    for free in sorted(set(range(ncols)) - set(cols)):
        rhs = [-matrix[i][free] for i, _ in pivots]
        # the squared Hadamard bound on the minors of [block | rhs], which
        # bounds the numerators and the denominator of the block's solution
        hadamard = math.prod(n + a * a for n, a in zip(norms, rhs))
        residual, solution, modulus = rhs, [0] * len(cols), 1
        while True:
            digits = _solve_mod(factors, [r % p for r in residual], p)
            solution = [s + modulus * y for s, y in zip(solution, digits)]
            modulus *= p
            residual = [(r - sum(map(operator.mul, row, digits))) // p
                        for r, row in zip(residual, block)]
            bound = math.isqrt(modulus // 2)
            vector = _reconstruct(solution, modulus, bound, cols, free, ncols)
            if vector is not None and not any(sum(map(operator.mul, row, vector))
                                              for row in matrix):
                if any(vector[c] for c in cols if c > free):
                    return None  # it leans on a pivot right of it: Q's pivots lie elsewhere
                content = math.gcd(*vector)
                basis.append([v // content for v in vector])
                break
            if bound * bound >= hadamard:
                return None  # the block's solution, reconstructed by now, is no kernel vector
    return basis


def _eliminate(matrix: list[list[int]], ncols: int, p: int) -> tuple[list[tuple[int, int]], list]:
    """Gaussian elimination mod p, pivots taken column by column, left to right.

    Returns the pivots as (row, column) pairs in order, and the LU factors
    of the pivot block for `_solve_mod`: for each pivot, the multipliers
    that earlier pivots subtracted from its row, its row's entries at the
    later pivot columns (last first), and the inverse of the pivot.  The
    steps are `_echelon`'s, on the entries reduced mod p.
    """
    bits = _field_width(ncols, p)
    indices = list(range(len(matrix)))
    below: list[list[int]] = [[] for _ in matrix]  # each row's multipliers
    pivots, reduced = [], []
    steps = _echelon([_pack([x % p for x in row], bits) for row in matrix], ncols, bits, p)
    for col, step in enumerate(steps):
        if step is None:
            continue
        at, pivot, inverse, leads = step
        pivots.append((indices.pop(at), col))
        reduced.append((below.pop(at), pivot, inverse))
        for f, multipliers in zip(leads, below):
            multipliers.append(f * inverse % p)
    cols = [c for _, c in pivots]
    factors = [
        (multipliers, [pivot[c - col] for c in reversed(cols[k + 1:])], inverse)
        for k, ((multipliers, pivot, inverse), col) in enumerate(zip(reduced, cols))
    ]
    return pivots, factors


def _echelon(rows: list[int], ncols: int, bits: int, p: int) -> Iterator[tuple | None]:
    """Gaussian elimination mod p of packed rows: one step per column, drawn lazily.

    A step is None where every row is 0 mod p at the column.  Otherwise it
    is (at, pivot, inverse, leads): the pivot row's position in rows, which
    it leaves, its fields from the column on mod p, the first one's inverse,
    and the other rows' entries at the column mod p; each of those rows then
    drops the column and adds its lead times the scaled pivot row.  Only
    pivots are reduced: an entry starts below p**2 and takes at most ncols
    updates below p**2, so it stays within (ncols+1)*p**2, `_field_width`'s room.
    """
    mask = (1 << bits) - 1
    for col in range(ncols):
        at = next((n for n, row in enumerate(rows) if (row & mask) % p), None)
        if at is None:
            yield None
            rows = [row >> bits for row in rows]
            continue
        top = rows.pop(at)
        pivot = [(top >> k * bits & mask) % p for k in range(ncols - col)]
        inverse = pow(pivot[0], -1, p)
        leads = [(row & mask) % p for row in rows]
        yield at, pivot, inverse, leads
        scaled = _pack([-x * inverse % p for x in pivot[1:]], bits)
        rows = [(row >> bits) + f * scaled for row, f in zip(rows, leads)]


def _solve_mod(factors, b: list[int], p: int) -> list[int]:
    """y with (pivot block) y = b mod p: one forward and one back substitution."""
    z: list[int] = []
    for (lower, _, _), entry in zip(factors, b):
        z.append((entry - sum(map(operator.mul, lower, z))) % p)
    y: list[int] = []  # last first
    for (_, upper, inverse), entry in zip(reversed(factors), reversed(z)):
        y.append((entry - sum(map(operator.mul, upper, y))) * inverse % p)
    return y[::-1]


def _reconstruct(values: list[int], modulus: int, bound: int, cols: list[int], free: int,
                 ncols: int) -> list[int] | None:
    """The kernel vector whose pivot entries over its free entry are the values mod modulus.

    Each value is read as a fraction with numerator and denominator at most
    `bound`, 2 bound^2 < modulus, all over one common denominator that goes
    in the free column; None where no such fraction exists.  A value that
    is already small once multiplied by the denominator so far needs no
    Euclid.
    """
    denominator = 1
    for v in values:
        u = v * denominator % modulus
        if bound < u < modulus - bound:
            r0, r1, t0, t1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            denominator *= abs(t1)
            if denominator > bound:
                return None
    vector = [0] * ncols
    vector[free] = denominator
    half = modulus // 2
    for c, v in zip(cols, values):
        u = v * denominator % modulus
        vector[c] = u - modulus if u > half else u
    return vector


# Polynomials in the eliminated variable are plain lists of IntPoly
# coefficients, ascending, with no trailing zeros.

HPoly = list[IntPoly]


def _h_trim(f: HPoly) -> HPoly:
    while f and not f[-1]:
        f.pop()
    return f


def h_mul(f: HPoly, g: HPoly) -> HPoly:
    """The product of two polynomials in the outer variable."""
    out = [IntPoly()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


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
