"""Guessing, deriving, verifying and unrolling linear recurrences with polynomial coefficients.

A recurrence of order r and degree d is sum_{j=0..r} p_j(n) a(n+j) = 0 with
integer polynomials p_j of degree at most d.  Guessing builds the exact
linear system over consecutive windows of the sequence and extracts an
integer kernel vector (`polynomials.integer_kernel`: one elimination mod
p, p-adic lifting, and an exact check of every row); floating point is
never involved, so a returned recurrence is exact on the data it saw.
A guess is accepted only if it also annihilates a held-out block of
trailing terms that the solver never touched.

Most shapes the search tries have no kernel, so each order is first
eliminated modulo a prime.  A shape whose system has full column rank mod p
has full column rank over Q too (a minor nonzero mod p is nonzero), so its
exact kernel is empty and the shape is skipped unsolved; only the rest go
through the exact elimination.  The result is the one the exact search
alone returns: an unlucky prime, or terms that all vanish mod p, only cost
the exact eliminations the filter could not rule out.

A recurrence can also be derived from a minimal polynomial
(`derive_recurrence`); `series.plain_series` unrolls one to deep orders.

Unrolling a recurrence forward divides by p_r(n) at every step; the
division must come out exact, otherwise the recurrence does not govern the
sequence and an error is raised rather than silently truncating.  The
p_j(n) are tabulated over the whole range by finite differences
(`_tabulate`), so each step, and each window `verify_recurrence` checks,
is one inner product.  Terms may be ints or integer-valued
`decimal.Decimal`s, as every `Sequence`'s: guessing converts them to int
once, on entry, and unrolling and verifying run in an exact context that
raises on any rounding.  Decimal terms make
writing the result as decimal digits linear in their length, where
CPython's int-to-str is quadratic.  `extended_terms` yields the same terms as
`extend_sequence` a window at a time, so a writer that takes them one by
one holds a window of terms, not all of them.

`Sequence` lives in `model` and is re-exported here, so reading or
writing a sequence file runs none of this module.
"""

from __future__ import annotations

import decimal
import itertools
import operator
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import (ConsistencyError, InconsistentRecurrenceError, InsufficientTermsError,
                     SingularRecurrenceError)
from .model import Sequence, Value
from .polynomials import (_PRIME, IntPoly, _echelon, _field_width, _pack, h_mul, h_prem,
                          integer_kernel, primitive_part, without_content)

if TYPE_CHECKING:
    from .series import TruncatedSeries

__all__ = [
    "Sequence",
    "Recurrence",
    "InsufficientTermsError",
    "SingularRecurrenceError",
    "InconsistentRecurrenceError",
    "guess_recurrence",
    "verify_recurrence",
    "extend_sequence",
    "extended_terms",
    "sequence_from_series",
    "derive_recurrence",
]


# Exact decimal arithmetic: any rounding, overflow or invalid operation raises.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


# New terms per `extend_sequence` call in `extended_terms`: enough that the
# per-call cost vanishes, few enough that a window of ~7000-digit terms
# stays well below a megabyte.
_WINDOW = 64


# Shapes are ruled out by rank modulo the prime the kernel starts from, the
# largest below 2**30, using this many rows beyond the widest system's
# column count.
_EXTRA_ROWS = 8


class Recurrence(Value):
    """sum_{j=0..r} p_j(n) a(n+j) = 0, normalized.

    Normal form: the polynomials have collective integer content 1, p_r is
    not identically zero, and the leading coefficient of p_r is positive.
    """

    __slots__ = _fields = ("coeff_polys",)
    coeff_polys: tuple[IntPoly, ...]

    def __init__(self, coeff_polys: tuple[IntPoly, ...]) -> None:
        polys = tuple(coeff_polys)
        if len(polys) < 2:
            raise ValueError("a recurrence needs order at least 1")
        if polys[-1].is_zero:
            raise ValueError("the leading coefficient polynomial must be non-zero")
        super().__init__(primitive_part(polys))

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeff_polys)


def guess_recurrence(
    s: Sequence, max_order: int, max_degree: int, guard: int = 10
) -> Recurrence | None:
    """Search for a recurrence governing s, smallest order+degree first.

    Candidate shapes (r, d) are tried in increasing r+d, then increasing r.
    For each shape the linear system uses every window except the last
    `guard`, which are held out; a kernel vector is accepted only if the
    recurrence it defines annihilates the entire sequence, held-out terms
    included.  Returns None when no shape within the bounds works.  The
    terms are converted to int once, here.

    Shapes whose system has full column rank modulo a prime are skipped
    without exact elimination: full rank mod p implies full rank over Q,
    so they have no kernel.  The returned recurrence (or None) is the one
    that solving every shape exactly gives.
    """
    if max_order < 1 or max_degree < 0 or guard < 0:
        raise ValueError("need max_order >= 1, max_degree >= 0, guard >= 0")
    s = Sequence(s.offset, tuple(map(int, s.terms)), s.label)
    needed = (max_order + 1) * (max_degree + 1) + max_order + guard
    if len(s) < needed:
        raise InsufficientTermsError(
            f"guessing up to order {max_order}, degree {max_degree} with guard "
            f"{guard} needs {needed} terms, got {len(s)}"
        )
    singular_from: dict[int, int] = {}  # order r -> smallest degree not ruled out
    for total in range(1, max_order + max_degree + 1):
        for r in range(max(1, total - max_degree), min(max_order, total) + 1):
            if r not in singular_from:
                singular_from[r] = _first_singular_degree(s, r, max_degree, guard)
            if total - r < singular_from[r]:
                continue  # full column rank mod p, so over Q: no kernel to find
            rec = _candidate(s, r, total - r, guard)
            if rec is not None:
                return rec
    return None


def _first_singular_degree(s: Sequence, r: int, max_degree: int, guard: int) -> int:
    """Smallest d <= max_degree whose (r, d) system may have a kernel; max_degree+1 if none.

    The system is taken modulo _PRIME with its columns a(n+j)*n^e ordered
    by degree block (e = 0 for every j, then e = 1, ...), so the (r, d)
    system's columns are a prefix, and one elimination that pivots column
    by column, the kernel's `polynomials._echelon` on the unreduced
    products, gives the rank of every prefix.  The first column without a
    pivot ends the scan, no later step drawn: its block d is the first
    shape rank-deficient mod p.  Only the first rows are used; a subset of
    rows of full column rank already gives the whole system full column rank.
    """
    p = _PRIME
    width = r + 1
    ncols = width * (max_degree + 1)
    bits = _field_width(ncols, p)
    rows = min(len(s) - r - guard, ncols + _EXTRA_ROWS)
    residues = _pack([t % p for t in s.terms[: rows + r]], bits)
    blocks = range(0, ncols * bits, width * bits)  # where each degree block starts
    matrix = []
    for w in range(rows):
        window = residues >> w * bits & (1 << width * bits) - 1  # a(n), ..., a(n+r)
        n, power, row = (s.offset + w) % p, 1, 0
        for start in blocks:
            row |= window * power << start  # a(n+j)*(n^e mod p) < p**2, unreduced
            power = power * n % p
        matrix.append(row)
    steps = enumerate(_echelon(matrix, ncols, bits, p))
    return next((col // width for col, step in steps if step is None), max_degree + 1)


def _candidate(s: Sequence, r: int, d: int, guard: int) -> Recurrence | None:
    system_rows = len(s) - r - guard
    matrix = []
    for w in range(system_rows):
        n = s.offset + w
        row = []
        for j in range(r + 1):
            term = s.terms[w + j]
            power = 1
            for _ in range(d + 1):
                row.append(term * power)
                power *= n
        matrix.append(row)
    for vec in integer_kernel(matrix):
        polys = tuple(IntPoly(vec[j * (d + 1) : (j + 1) * (d + 1)]) for j in range(r + 1))
        if polys[-1].is_zero:
            continue
        rec = Recurrence(polys)
        if verify_recurrence(rec, s):
            return rec
    return None


def verify_recurrence(rec: Recurrence, s: Sequence) -> bool:
    """Check the recurrence on every full window of the sequence.

    Vacuously true when the sequence is shorter than order + 1.  The sums
    run in the exact decimal context, so Decimal terms are checked exactly.
    """
    r = rec.order
    rows = _rows(rec, s.offset, len(s) - r)
    with decimal.localcontext(_EXACT):
        for w, row in enumerate(rows):
            if sum(map(operator.mul, row, s.terms[w : w + r + 1])):
                return False
    return True


def _tabulate(poly: IntPoly, start: int, count: int) -> Iterable[int]:
    """poly(start), ..., poly(start + count - 1) by finite differences (Knuth, TAOCP 4.6.4).

    d+1 values by Horner's rule give the leading differences; d nested
    running sums rebuild the rest, so every later value is d additions in C.
    """
    d = max(poly.degree, 0)
    values = [poly(n) for n in range(start, start + min(count, d + 1))]
    if count <= d + 1:
        return values
    leading = []  # the differences of order 0..d at start
    for _ in range(d + 1):
        leading.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    column: Iterable[int] = itertools.repeat(leading.pop(), count - d)  # the d-th is constant
    for first in reversed(leading):
        column = itertools.accumulate(column, initial=first)
    return column


def _rows(rec: Recurrence, start: int, count: int) -> Iterator[tuple[int, ...]]:
    """(p_0(n), ..., p_r(n)) for n = start, ..., start + count - 1."""
    return zip(*(_tabulate(p, start, count) for p in rec.coeff_polys))


def extend_sequence(rec: Recurrence, initial: Sequence, target_length: int) -> Sequence:
    """Unroll the recurrence until the sequence has target_length terms.

    Each new term is determined by exact division by p_r(n); a vanishing
    p_r(n) raises SingularRecurrenceError naming n, and a non-exact
    division raises InconsistentRecurrenceError (the recurrence does not
    govern these initial terms).  A target_length below 1 raises ValueError.

    New terms take the type of the last initial term.  The unroll runs in
    an exact decimal context that traps rounding, so Decimal terms stay
    exact at any length.
    """
    if target_length < 1:
        raise ValueError(f"target length must be >= 1, got {target_length}")
    r = rec.order
    if len(initial) < r:
        raise InsufficientTermsError(
            f"unrolling an order-{r} recurrence needs {r} initial terms, got {len(initial)}"
        )
    if target_length <= len(initial):
        return Sequence(initial.offset, initial.terms[:target_length], initial.label)
    terms = list(initial.terms)
    kind = type(terms[-1])
    start = initial.offset + len(terms) - r
    rows = _rows(rec, start, target_length - len(terms))
    with decimal.localcontext(_EXACT):
        for n, (*row, lead) in enumerate(rows, start):
            if lead == 0:
                raise SingularRecurrenceError(f"leading coefficient vanishes at n={n}")
            acc = sum(map(operator.mul, row, terms[-r:]))
            # Decimal divmod truncates where int divmod floors; either way a
            # zero remainder means the division is exact
            quotient, remainder = divmod(-acc, lead)
            if remainder:
                raise InconsistentRecurrenceError(
                    f"division by p_r({n}) = {lead} is not exact; "
                    "the recurrence does not govern these terms"
                )
            if not quotient:
                quotient = 0  # a Decimal 0 divided by a negative is -0
            terms.append(kind(quotient))
    return Sequence(initial.offset, tuple(terms), initial.label)


def extended_terms(rec: Recurrence, initial: Sequence,
                   target_length: int) -> Iterator[int | decimal.Decimal]:
    """Yield the terms of extend_sequence(rec, initial, target_length), one by one.

    Each `extend_sequence` call unrolls _WINDOW new terms from the last r
    terms made so far, so only one window is held at a time; the errors,
    and the n they name, are those of `extend_sequence`, raised when the
    window that meets them is unrolled.
    """
    window = extend_sequence(rec, initial, min(target_length, len(initial) + _WINDOW))
    yield from window.terms
    made, r = len(window), rec.order
    while made < target_length:
        start = Sequence(initial.offset + made - r, window.terms[-r:])
        window = extend_sequence(rec, start, r + min(target_length - made, _WINDOW))
        yield from window.terms[r:]
        made += len(window) - r


def sequence_from_series(series: TruncatedSeries) -> Sequence:
    """Coefficient sequence of a series, indexed from n = 1.

    The constant coefficient (always 0 for the tower series) is dropped, so
    term n is the coefficient of t^n.
    """
    return Sequence(1, tuple(series.coeffs[1:]))


# Elements of Q(t)[y]/(Q) are kept as N(t, y) / (delta^e lc^s): a numerator
# in Z[t][y] of y-degree below deg_y Q, over powers of two fixed polynomials
# in Z[t], so the denominators' degrees grow linearly with each derivative.


def _reduce(f: list[IntPoly], q: list[IntPoly]) -> tuple[list[IntPoly], int]:
    """(r, s) with lc(q)^s f = r modulo q, r of y-degree below q's, padded to that length."""
    r = h_prem(f, q)
    return r + [IntPoly()] * (len(q) - 1 - len(r)), max(len(f) - len(q) + 1, 0)


def _first_dependence(columns: list[list[IntPoly]]) -> list[IntPoly] | None:
    """b over Z[t] with sum_j b_j columns[j] = 0 and b's last entry nonzero, for the
    first column that depends on those before it; None if all are independent.

    Fraction-free (Bareiss) elimination, pivots taken column by column, so
    every entry stays a polynomial and every division is exact.  When column
    j depends on the j columns before it, they are the pivot columns, and
    back-substitution on the triangular pivot block gives det * x in Z[t]
    (Cramer), where det is the last pivot and x the solution over Q(t).
    """
    a = [list(row) for row in zip(*columns)]
    previous = IntPoly.constant(1)
    for j in range(len(columns)):
        at = next((i for i in range(j, len(a)) if a[i][j]), None)
        if at is None:
            det = a[j - 1][j - 1] if j else IntPoly.constant(1)
            b = [IntPoly()] * j + [-det]
            for i in range(j - 1, -1, -1):
                acc = det * a[i][j]
                for k in range(i + 1, j):
                    acc = acc - a[i][k] * b[k]
                b[i] = acc.exact_div(a[i][i])
            return b
        a[j], a[at] = a[at], a[j]
        pivot, row = a[j][j], a[j]
        for i in range(j + 1, len(a)):
            f = a[i][j]
            a[i] = [IntPoly()] * (j + 1) + [
                (pivot * x - f * y).exact_div(previous) for x, y in zip(a[i][j + 1:], row[j + 1:])
            ]
        previous = pivot
    return None


def _cancel(n: list[IntPoly], p: IntPoly, k: int) -> tuple[list[IntPoly], int]:
    """n / p^i and k - i for the largest i <= k with p^i dividing every entry of n in Z[t]."""
    while k and p.degree > 0:
        try:
            n = [c.exact_div(p) for c in n]
        except ConsistencyError:
            break
        k -= 1
    return n, k


def _falling(k: int, j: int) -> IntPoly:
    """(N + k)(N + k - 1)...(N + k - j + 1) as a polynomial in N."""
    out = IntPoly.constant(1)
    for i in range(j):
        out = out * IntPoly((k - i, 1))
    return out


def derive_recurrence(q: list[IntPoly] | tuple[IntPoly, ...]) -> tuple[Recurrence, int]:
    """The recurrence of the coefficients, from t^0, of a power series root F of Q(t, y).

    `q` is Q's coefficients in y, each an IntPoly in t; Q must be squarefree
    in y (the minimal polynomial qualifies).  Returns the recurrence and the
    least n0 >= 0 from which it holds: it holds at every n >= n0, and when
    n0 > 0 it fails at n0 - 1.  A polynomial F gets a(n+1) = 0, of order 1.

    Comtet's method.  F' = -Q_t(F) / Q_y(F) is computed once as U(t, F) /
    delta(t), Q_y being inverted modulo Q by a linear dependence.  Then F,
    F', F'', ... are reduced in Q(t)[y]/(Q) (pseudo-remainders by Q, so
    every step stays in Z[t]), and the first linear dependence among 1, F,
    F', ... over Z[t] is an inhomogeneous ODE sum_j a_j(t) F^(j) = b(t), of
    order below deg_y Q.  Its coefficient of t^n is
    sum a_{j,i} (n - i + j)...(n - i + 1) f(n - i + j) = [t^n] b, which is
    the recurrence at N = n + min(j - i), holding once n passes deg b.
    Nothing here is rational: the dependences come from fraction-free
    elimination over Z[t].
    """
    q = list(q)
    while q and not q[-1]:
        q.pop()
    m = len(q) - 1
    if m < 1:
        raise ValueError("Q must have positive degree in y")
    lc = q[-1]
    # F' = U / delta: U Q_y = -delta Q_t modulo Q
    qy = [c * j for j, c in enumerate(q)][1:]
    columns, scales = [], []
    for f in [[IntPoly()] * i + qy for i in range(m)] + [[c.derivative() for c in q]]:
        column, s = _reduce(f, q)
        columns.append(column)
        scales.append(lc**s)
    b = _first_dependence(columns)
    if b is None or len(b) != m + 1:
        raise ConsistencyError("Q_y is not invertible modulo Q: Q is not squarefree")
    *u, delta = without_content([c * s for c, s in zip(b, scales)])
    d_delta, d_lc = delta.derivative(), lc.derivative()
    # 1, F, F', ..., F^(m-1): m + 1 elements in a space of dimension m
    one = [IntPoly.constant(1)] + [IntPoly()] * (m - 1)
    column, s = _reduce([IntPoly(), IntPoly.constant(1)], q)
    elements = [(one, 0, 0), (column, 0, s)]
    while len(elements) <= m:
        n, e, s = elements[-1]
        r, s2 = _reduce(h_mul([c * j for j, c in enumerate(n)][1:] or [IntPoly()], u), q)
        scale = lc ** s2
        outer = d_delta * lc * e + d_lc * delta * s
        n = [scale * (delta * lc * c.derivative() - c * outer) + lc * x for c, x in zip(n, r)]
        n, e = _cancel(n, delta, e + 1)
        n, s = _cancel(n, lc, s + 1 + s2)
        elements.append((n, e, s))
    b = _first_dependence([n for n, _, _ in elements])
    if b is None:
        raise ConsistencyError(f"1, F and {m - 1} derivatives are independent modulo Q")
    a = without_content([c * delta**e * lc**s for c, (_, e, s) in zip(b, elements)])
    rhs, ode = -a[0], a[1:]
    # the term a_{j,i} t^i F^(j) reaches f(n + j - i)
    shifts = [j - i for j, p in enumerate(ode) for i, c in enumerate(p.coeffs) if c]
    low = min(shifts)
    polys = [IntPoly()] * (max(shifts) - low + 1)
    for j, p in enumerate(ode):
        for i, c in enumerate(p.coeffs):
            if c:
                k = j - i - low
                polys[k] = polys[k] + _falling(k, j) * c
    n0 = max(rhs.degree + 1 + low, 0) if rhs else 0
    if len(polys) == 1:  # c f(N) = 0 from n0 on: F is a polynomial, and a(n+1) = 0 from n0 - 1
        return Recurrence((IntPoly(), IntPoly.constant(1))), max(n0 - 1, 0)
    return Recurrence(tuple(polys)), n0

