"""Truncated power series in t and the tower generating functions.

All coefficients are exact Python integers.  A set of piece sizes, the
largest k, comes down to one functional equation and one rational step,
each stated once here as a polynomial in y (or H) over Z[x].  Here x_i is
t^i for a piece of size i, or z for every piece when counting by pieces:

    H = Phi(x, H),   Phi(x, y) = sum over sizes i of x_i (1 + y)^i,

less x_k y for a single size k under the no-exact-alignment rule, and

    P = H / D(x, H),   D(x, H) = 1 - (k-1) H + sum over sizes i < k of (k-i) x_i (1 + H)^i,
    M = P / (1 - H).

Under all interfaces, the H-equation turns D into
1 - sum over sizes i of (i-1) x_i (1+H)^i; the form above also holds under
no-exact-alignment, where its sum is empty.  `_phi` and `_d` build the
two polynomials, and the solver, the checks, both variables and
`algebra`'s elimination all read them.

Every term of Phi has x-degree at least 1, so the fixed point is
determined order by order: `solve_half_pyramids` fills in one coefficient
at a time from running powers H^j, which is what makes high orders
(thousands of terms) affordable.  The tests keep the plain
repeated-substitution version in `tests/` as a slow reference.
`series_pyramids` evaluates D from powers of H too and divides; D and
1 - H have constant term 1, so the division stays in the integers.
`series_family` solves H and derives P and M from it, stopping at the
shape asked for.  It always solves, and `verify`, `eliminate`, the tests
and `algebra`'s root step read it as the route that does not depend on the
minimal polynomial.

`plain_series` is the entry point for one shape's plain series, and it
chooses the route.  From a measured order on, and for small pieces, it
solves only a prefix, gets the minimal polynomial Q from
`algebra.annihilating_polynomial`, and unrolls the coefficient recurrence
that `recurrences.derive_recurrence` derives from Q (Comtet 1964), with
output byte-identical to the solver's.  It reaches both modules through
the package's lazily served modules, so a series that is only solved runs
neither.

At high order the cost is big-integer inner products.  Each one runs as
`sum(map(operator.mul, ...))`, so the multiply-adds loop in C.  Squares
take half the products (`_square_coeff`: each cross product once, doubled),
which is how the pipeline's powers get H^2.  The checks, `half_pyramid_rhs`
and `algebra.verify_annihilator`, evaluate a polynomial in y at a series by
Horner's rule (`_horner`) instead.  Its products are all general, so a
fault in the squaring kernel leaves a residual instead of cancelling out.
A set whose sizes share a factor g > 1 gives series that vanish off the
g-grid; the solver, products and quotients run on every g-th coefficient,
a g-th of the length.  A general product multiplies only each operand's
nonzero span (`_span_product`), so Horner's first step, a polynomial times
a series, costs the polynomial's length times the order.

Counting by pieces, `piece_count_sequence` is the one entry point, and it
chooses the route from the piece set.  A single size k up to
_UNROLL_MAX_SIZE reads coefficient k*n of `plain_series` for n pieces, so
at depth it unrolls where z would solve.  Every other set runs the same
pipeline, the same Phi and D, in z.  For a single size that is t^k
renamed, and the two routes agree.  For several sizes, Phi is linear in
z, so z H' = H / (1 - Phi_y), and (1 + H)(1 - Phi_y) is D in z: H / D is
z H' / (1 + H).

Weighted series (all-interfaces rule only) are not solved: Lagrange
inversion of the H-equation gives every marker coefficient in closed form
(Flajolet-Sedgewick, Analytic Combinatorics, A.6; Good 1960).  With e_i
pieces of size i, N = sum e_i pieces and area A = sum i*e_i, the
coefficient of t^A * prod z_i^e_i is N!/prod e_i! times

    C(A, N-1) / N          in H,
    C(A-1, N-1)            in P,
    sum over j < N of C(A-1, j)   in M.

`weighted_series` returns these as a table indexed by area, one
`ZPolynomial` per area, like the oracle's `weight_polynomial`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Sequence

from . import algebra, recurrences  # served lazily: each runs at its first use
from .errors import ConsistencyError, UnsupportedConfigurationError
from .model import PieceSet, Rule, Shape, Value, ZPolynomial
from .polynomials import IntPoly

__all__ = [
    "TruncatedSeries",
    "solve_half_pyramids",
    "half_pyramid_rhs",
    "series_pyramids",
    "series_towers",
    "series_family",
    "plain_series",
    "coefficients_by_pieces",
    "piece_count_sequence",
    "weighted_series",
    "closed_form_half_pyramids",
    "closed_form_pyramids",
    "closed_form_dimer_towers",
]


def _square_coeff(a: Sequence[int], n: int) -> int:
    """Coefficient n of a*a from a[:n+1].

    Each cross product a_j a_(n-j), j < n/2, is taken once and doubled; the
    middle square a_(n/2)^2 is added when n is even.
    """
    half = n // 2
    acc = 2 * sum(map(operator.mul, a, a[n:half:-1]))
    return acc + a[half] * a[half] if n % 2 == 0 else acc


def _grid(a: Sequence[int], b: Sequence[int]) -> int:
    """gcd of the exponents of the nonzero coefficients of a and b; 0 if only constants are nonzero.

    Products and quotients of series on the g-grid stay on it, so they can
    run on every g-th coefficient.
    """
    g = 0
    for coeffs in (a, b):
        for n, c in enumerate(coeffs):
            if c:
                g = math.gcd(g, n)
                if g == 1:
                    return 1
    return g


def _span(coeffs: Sequence[int]) -> tuple[int, Sequence[int]]:
    """(i, coeffs[i:j]) for the nonzero span: i the first nonzero index, j - 1 the last."""
    i = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
    j = len(coeffs) - next((j for j, c in enumerate(reversed(coeffs)) if c), len(coeffs))
    return i, coeffs[i:j]


def _span_product(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Coefficients 0..order of a*b, multiplying only each operand's nonzero span.

    With x the shorter span, of length l, each coefficient is one inner
    product of reversed x with at most l coefficients of the other, so a
    polynomial of degree d times a series takes at most (d+1)(order+1)
    products.
    """
    (i, x), (j, y) = _span(a), _span(b)
    if len(x) > len(y):
        x, y = y, x
    low = i + j
    top = min(order - low, len(x) + len(y) - 2)  # the last coefficient made, counted from t^low
    if not x or top < 0:
        return [0] * (order + 1)
    rx, last = x[::-1], len(x) - 1
    # map stops at the shorter operand: rx's tail at first, then y's window of len(x)
    out = [0] * low + [sum(map(operator.mul, rx[last - m:], y)) for m in range(min(top, last) + 1)]
    out += [sum(map(operator.mul, rx, y[m - last : m + 1])) for m in range(last + 1, top + 1)]
    return out + [0] * (order - low - top)


def _spread(series: "TruncatedSeries", g: int, order: int) -> "TruncatedSeries":
    """series(t^g) through t^order."""
    coeffs = [0] * (order + 1)
    coeffs[::g] = series.coeffs
    return TruncatedSeries(coeffs, order)


class TruncatedSeries(Value):
    """A power series in t kept exactly through t^order.

    Immutable; all arithmetic truncates at the common order.
    """

    __slots__ = _fields = ("coeffs", "order")

    def __init__(self, coeffs: Sequence[int], order: int | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if len(coeffs) < order + 1:
            coeffs = coeffs + (0,) * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.zero(order) + 1

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            return TruncatedSeries(
                tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
            )
        if isinstance(other, int):
            head = self.coeffs[0] + other
            return TruncatedSeries((head,) + self.coeffs[1:], self.order)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, (TruncatedSeries, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._require_same_order(other)
            a, b, n = self.coeffs, other.coeffs, self.order
            g = _grid(a, b)
            if g > 1:
                thin = TruncatedSeries(a[::g], n // g)
                product = thin * thin if other is self else thin * TruncatedSeries(b[::g], n // g)
                return _spread(product, g, n)
            if other is self:
                return TruncatedSeries(tuple(_square_coeff(a, m) for m in range(n + 1)), n)
            return TruncatedSeries(_span_product(a, b, n), n)
        if isinstance(other, int):
            return TruncatedSeries(tuple(c * other for c in self.coeffs), self.order)
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, dropping coefficients past the order."""
        if k == 0:
            return self
        return TruncatedSeries((0,) * k + self.coeffs[: self.order + 1 - k], self.order)

    def __truediv__(self, other):
        """Quotient by a series whose constant term is 1 or -1.

        One back-substitution, q_m = (a_m - sum_{j>=1} b_j q_{m-j}) / b_0.
        With a unit constant term it never leaves the integers, which is
        why no rational arithmetic is needed.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        b0 = other.coeffs[0]
        if b0 != 1 and b0 != -1:
            raise ValueError(f"division needs constant term +-1, got {b0!r}")
        g = _grid(self.coeffs, other.coeffs)
        if g > 1:
            n = self.order // g
            return _spread(
                TruncatedSeries(self.coeffs[::g], n) / TruncatedSeries(other.coeffs[::g], n),
                g, self.order,
            )
        negate = b0 == -1
        tail = other.coeffs[1:]  # b_1, b_2, ...
        out: list[int] = []
        for a in self.coeffs:
            acc = sum(map(operator.mul, tail, reversed(out)))  # b_1 q_{m-1} + ... + b_m q_0
            out.append(acc - a if negate else a - acc)
        return TruncatedSeries(tuple(out), self.order)

    def __repr__(self) -> str:
        shown = ", ".join(repr(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order + 1 > 8 else ""
        return f"TruncatedSeries(order={self.order}, [{shown}{tail}])"


def _check_rule(pieces: PieceSet) -> None:
    """Raise for a multi-size set under the no-exact-alignment rule."""
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT and len(pieces.sizes) > 1:
        raise UnsupportedConfigurationError(
            "series under the no-exact-alignment rule support a single piece "
            f"size only, got sizes {pieces.sizes}"
        )


def _add_binomial(coeffs: list[IntPoly], i: int, c: int, step: int) -> None:
    """coeffs += c x^step (1 + y)^i, in place, for coefficients in y."""
    for j in range(i + 1):
        coeffs[j] = coeffs[j] + IntPoly((0,) * step + (c * math.comb(i, j),))


def _phi(pieces: PieceSet, by_pieces: bool = False) -> list[IntPoly]:
    """Phi(x, y), the H-equation's right-hand side, as coefficients in y.

    x_i is t^i, or z with `by_pieces`; a single size k under
    no-exact-alignment takes away x_k y.
    """
    _check_rule(pieces)
    phi = [IntPoly()] * (pieces.max_size + 1)
    for i in pieces.sizes:
        _add_binomial(phi, i, 1, 1 if by_pieces else i)
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        phi[1] = phi[1] - IntPoly((0,) * (1 if by_pieces else pieces.max_size) + (1,))
    return phi


def _d(pieces: PieceSet, by_pieces: bool = False) -> list[IntPoly]:
    """D(x, H) = 1 - (k-1) H + sum over sizes i < k of (k-i) x_i (1+H)^i, in H.

    x_i as in `_phi`; trailing zero coefficients are dropped.
    """
    _check_rule(pieces)
    k = pieces.max_size
    d = [IntPoly.constant(1), IntPoly.constant(1 - k)] + [IntPoly()] * (k - 2)
    for i in pieces.sizes[:-1]:
        _add_binomial(d, i, k - i, 1 if by_pieces else i)
    while not d[-1]:  # k = 1, or k - 1 is not a size
        d.pop()
    return d


def _horner(coeffs: Sequence[IntPoly], s: TruncatedSeries) -> TruncatedSeries:
    """Sum over j of coeffs[j](t) s^j by Horner's rule: general products only."""
    terms = [TruncatedSeries(c.coeffs or (0,), s.order) for c in coeffs]
    acc = terms.pop() if terms else TruncatedSeries.zero(s.order)
    for c in reversed(terms):
        acc = acc * s + c
    return acc


def _at_powers(coeffs: Sequence[IntPoly], h: TruncatedSeries) -> TruncatedSeries:
    """Sum over j of coeffs[j](t) h^j from running powers of h, h^2 a square."""
    powers = [TruncatedSeries.one(h.order), h]
    while len(powers) < len(coeffs):
        powers.append(powers[-1] * h)  # powers[1] is h itself, so h^2 takes the square
    total = TruncatedSeries.zero(h.order)
    for poly, power in zip(coeffs, powers):
        for a, c in enumerate(poly.coeffs):
            if c:
                total = total + power.shift(a) * c
    return total


def solve_half_pyramids(pieces: PieceSet, order: int, by_pieces: bool = False) -> TruncatedSeries:
    """The half-pyramid series H through t^order, or through z^order by pieces.

    Each nonzero term c x^a y^j of Phi, a >= 1, puts c times coefficient
    n - a of H^j into coefficient n of H, so coefficient n only involves
    coefficients below n and each pass of the loop pins down one new one.
    When every exponent a shares a factor g > 1, H is a series in t^g: the
    loop runs on the exponents a/g to order // g and the result is spread.
    """
    phi = _phi(pieces, by_pieces)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    terms = [(a, j, c) for j, poly in enumerate(phi) for a, c in enumerate(poly.coeffs) if c]
    g = math.gcd(*(a for a, _, _ in terms))
    terms = [(a // g, j, c) for a, j, c in terms]
    thin = order // g
    # powers[j][n] = coefficient n of H^j, maintained as H grows
    powers = [[1] + [0] * thin] + [[0] * (thin + 1) for _ in phi[1:]]
    h = powers[1]
    for n in range(1, thin + 1):
        h[n] = sum(c * powers[j][n - a] for a, j, c in terms if a <= n)
        if len(powers) > 2:
            powers[2][n] = _square_coeff(h, n)
        reversed_h = h[n::-1]
        for j in range(3, len(powers)):
            powers[j][n] = sum(map(operator.mul, powers[j - 1], reversed_h))
    return _spread(TruncatedSeries(h, thin), g, order)


def weighted_series(pieces: PieceSet, order: int, shape: Shape) -> tuple[ZPolynomial, ...]:
    """The shape's weighted series through t^order by Lagrange's formula, indexed by area.

    The coefficient of t^A * prod z_i^e_i is a numerator that depends only
    on the area A and the piece count N = sum e_i, over prod e_i!.
    """
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        raise UnsupportedConfigurationError(
            "weighted series are not defined under the no-exact-alignment rule"
        )
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    sizes = pieces.sizes
    factorial = list(itertools.accumulate(range(1, order + 1), operator.mul, initial=1))
    below: dict[int, list[int]] = {}  # A -> partial sums of C(A-1, j) over j

    def tower(area: int, n: int) -> int:
        if area not in below:
            below[area] = list(itertools.accumulate(math.comb(area - 1, j) for j in range(area)))
        return factorial[n] * below[area][n - 1]

    numerator = functools.lru_cache(maxsize=None)({
        Shape.HALF_PYRAMID: lambda area, n: factorial[n - 1] * math.comb(area, n - 1),
        Shape.PYRAMID: lambda area, n: factorial[n] * math.comb(area - 1, n - 1),
        Shape.TOWER: tower,
    }[shape])
    terms: list[dict[tuple[int, ...], int]] = [{} for _ in range(order + 1)]
    stack = [((), 0, 0, 1)]  # exponents so far, area, piece count, prod e_i!
    while stack:
        exps, area, n, denominator = stack.pop()
        if len(exps) < len(sizes):
            size = sizes[len(exps)]
            for e in range((order - area) // size + 1):
                stack.append((exps + (e,), area + e * size, n + e, denominator * factorial[e]))
        elif n:
            terms[area][exps] = numerator(area, n) // denominator
    return tuple(ZPolynomial(sizes, t) for t in terms)


def half_pyramid_rhs(h: TruncatedSeries, pieces: PieceSet) -> TruncatedSeries:
    """Phi(t, h), the right-hand side of the half-pyramid equation, by Horner's rule.

    Useful for residual checks: h solves the equation iff the result equals
    h coefficientwise through the shared order.  The check runs no square,
    so it never shares the squaring kernel with the solver.
    """
    return _horner(_phi(pieces), h)


def series_pyramids(h: TruncatedSeries, pieces: PieceSet, by_pieces: bool = False) -> TruncatedSeries:
    """Pyramid series P = H / D(x, H) from the half-pyramid series h, in t or by pieces in z."""
    return h / _at_powers(_d(pieces, by_pieces), h)


def series_towers(p: TruncatedSeries, h: TruncatedSeries) -> TruncatedSeries:
    """Tower series M = P / (1 - H), both plain."""
    return p / (1 - h)


def series_family(
    pieces: PieceSet, order: int, through: Shape = Shape.TOWER, by_pieces: bool = False
) -> dict[Shape, TruncatedSeries]:
    """H, P and M through t^order, or through z^order by pieces, keyed by shape,
    stopping after `through`.

    P and M are derived from H, so asking for half pyramids solves H only
    and asking for pyramids skips M.
    """
    h = solve_half_pyramids(pieces, order, by_pieces)
    family = {Shape.HALF_PYRAMID: h}
    if through is Shape.HALF_PYRAMID:
        return family
    p = family[Shape.PYRAMID] = series_pyramids(h, pieces, by_pieces)
    if through is Shape.TOWER:
        family[Shape.TOWER] = series_towers(p, h)
    return family


# `plain_series` unrolls a recurrence derived from the annihilating
# polynomial instead of solving from this order on, for largest piece sizes
# up to _UNROLL_MAX_SIZE.  Both were measured in-process on a 2-core x86
# machine under CPython 3.11: the unroll wins by order 300 for S={1,2,3} and
# {1,2}, and by 500 for {1,2,3,4} and {1,4}; a 5-mer's derivation alone
# (0.06-0.9 s) costs more than solving {2,5} to order 500.  The cap also
# sends single sizes up to it through `plain_series` by pieces.
_UNROLL_FROM_ORDER = 500
_UNROLL_MAX_SIZE = 4

# The prefix solved first, for the annihilating polynomial's check and the
# unroll's first terms.
_PREFIX_ORDER = 60


def plain_series(pieces: PieceSet, shape: Shape, order: int) -> TruncatedSeries:
    """The shape's plain series through t^order, byte-identical by either route.

    Below _UNROLL_FROM_ORDER, or with a piece larger than _UNROLL_MAX_SIZE,
    it is `series_family`'s solution, whose cost grows with the square of
    the order.  Otherwise a prefix is solved, the minimal polynomial Q is
    eliminated and checked on it, and the coefficient recurrence derived
    from Q is unrolled from the solver's terms, starting where it holds.
    The unroll is taken only if p_r has a positive constant term and no
    negative coefficient, so no step divides by zero, and if the prefix
    holds the r terms from the start on; otherwise the solver goes on to the
    order.  The overlap, at least those r terms, must equal the solver's
    or ConsistencyError is raised, naming the first t^n where they differ.
    """
    if order >= _UNROLL_FROM_ORDER and pieces.max_size <= _UNROLL_MAX_SIZE:
        prefix = series_family(pieces, _PREFIX_ORDER, through=shape)[shape]
        rec, n0 = recurrences.derive_recurrence(
            algebra.annihilating_polynomial(pieces, shape, prefix).coeffs)
        lead = rec.coeff_polys[-1].coeffs
        start = n0 + rec.order  # the first term unrolled
        if lead[0] > 0 and min(lead) >= 0 and start + rec.order - 1 <= prefix.order:
            init = recurrences.Sequence(0, prefix.coeffs[:start])
            terms = recurrences.extend_sequence(rec, init, order + 1).terms
            bad = next((n for n, (a, b) in enumerate(zip(terms, prefix.coeffs)) if a != b), None)
            if bad is not None:
                raise ConsistencyError(
                    f"the recurrence derived from Q disagrees with the solver at t^{bad}")
            return TruncatedSeries(terms, order)
    return series_family(pieces, order, through=shape)[shape]


def coefficients_by_pieces(series: TruncatedSeries, pieces: PieceSet) -> list[int]:
    """Per-piece-count sequence for a single-size set: a(n) = [t^(k*n)].

    Only defined for a series over one piece size k, where the area of an
    n-piece structure is exactly k*n.  A non-zero coefficient off the
    k-grid means the series cannot belong to this piece set and raises
    ConsistencyError.  The returned list starts at n = 1.
    """
    k = pieces.single_size
    for n, c in enumerate(series.coeffs):
        if n % k and c:
            raise ConsistencyError(
                f"non-zero coefficient {c} at t^{n} is off the {k}-grid"
            )
    return [series.coeffs[k * n] for n in range(1, series.order // k + 1)]


def piece_count_sequence(pieces: PieceSet, count: int, shape: Shape) -> list[int]:
    """Numbers of the shape's structures with n = 1..count pieces, any sizes.

    A single size k <= _UNROLL_MAX_SIZE is read off the k-grid of
    `plain_series` through t^(k*count), which unrolls from its crossover
    order on.  Every other set is `series_family` in the piece variable z:
    the area route's equations with every x_i read as z.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    k = pieces.max_size
    if len(pieces.sizes) == 1 and k <= _UNROLL_MAX_SIZE:
        return coefficients_by_pieces(plain_series(pieces, shape, k * count), pieces)
    return list(series_family(pieces, count, through=shape, by_pieces=True)[shape].coeffs[1:])


def closed_form_half_pyramids(k: int, n: int) -> int:
    """Number of half-pyramids of n pieces of one size k: (kn)!/(n!(kn-n+1)!)."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    numerator = math.factorial(k * n)
    denominator = math.factorial(n) * math.factorial(k * n - n + 1)
    value, remainder = divmod(numerator, denominator)
    if remainder:
        raise ConsistencyError(f"half-pyramid closed form not integral at k={k}, n={n}")
    return value


def closed_form_pyramids(k: int, n: int) -> int:
    """Number of pyramids of n pieces of one size k: C(kn, n) / k."""
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    value, remainder = divmod(math.comb(k * n, n), k)
    if remainder:
        raise ConsistencyError(f"pyramid closed form not integral at k={k}, n={n}")
    return value


def closed_form_dimer_towers(rule: Rule, n: int) -> int:
    """Number of dimer towers with n pieces: 4^(n-1), or 3^(n-1) without exact alignment."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base = 4 if rule is Rule.ALL_INTERFACES else 3
    return base ** (n - 1)
