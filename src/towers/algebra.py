"""Polynomial equations satisfied by the generating functions.

The half-pyramid series H is a root of E(t, y) = y - Phi(t, y).  The
pyramid and tower series F are H / D'(t, H), where D' is D or (1 - H) D,
with constant term 1; Phi and D are the ones `series` builds and solves
with.  So clearing denominators gives a second relation G = y D' - H that
is linear in y.  Eliminating H via a resultant yields R(t, y) with
R(t, F) = 0.  Since G is linear in y, R has y-degree at most k = deg_H E
and is interpolated from k + 1 resultants over Z[t], of E and G at
y = 1, ..., k + 1 (Collins' evaluation-interpolation route).

Because E is irreducible, R is, up to a factor c(t), the norm of F:
R = c(t) Q^m with Q the minimal polynomial of F and m deg_y Q = deg_y E.
So Q is read off R without factoring.  The content c(t) is the gcd of R's
y-coefficients (not always a power of t); Q is the exact m-th root of
R0 = R / c(t), found as a Hermite-Pade kernel of the series for each m > 1
dividing both degrees of R0, largest first, and Q = R0 when none has a
root.  Finally Q is checked by substituting that series prefix and the
caller's truncated series of F, a semantic rather than syntactic
criterion.

Everything here is plain enumeration (all markers z_i set to 1).
"""

from __future__ import annotations

import functools

from .errors import ConsistencyError, DegreeCapError
from .model import PieceSet, Shape, Value
from .polynomials import IntPoly, h_mul, h_resultant, integer_kernel, primitive_part, without_content
from .series import TruncatedSeries, _d, _horner, _phi, series_family

__all__ = [
    "BivariatePolynomial",
    "defining_polynomial_H",
    "annihilating_polynomial",
    "check_degree_cap",
    "verify_annihilator",
]

# Elimination is only exercised for small piece sets: under this cap the root
# step solves at most 2k^2 + 1 equations in (k/2 + 1)(k + 1) unknowns for
# largest size k, and the error is clearer than a runaway computation.
_MAX_PIECE_SIZE = 8


class BivariatePolynomial(Value):
    """Integer polynomial Q(t, y) = sum_j c_j(t) y^j in normal form.

    Normalization: trailing zero y-coefficients trimmed, overall integer
    content 1, and the leading y-coefficient has positive leading
    t-coefficient.  Construction normalizes automatically.
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[IntPoly, ...]

    def __init__(self, coeffs: tuple[IntPoly, ...]) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        super().__init__(primitive_part(coeffs))

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def t_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)


def defining_polynomial_H(pieces: PieceSet) -> BivariatePolynomial:
    """The polynomial E(t, y) = y - Phi(t, y) with E(t, H(t)) = 0 for the half-pyramid series."""
    e = [-c for c in _phi(pieces)]
    e[1] = e[1] + IntPoly.constant(1)
    return BivariatePolynomial(tuple(e))


def _denominator(pieces: PieceSet, shape: Shape) -> list[IntPoly]:
    """D'(t, H) with F * D' = H for the shape's series F, as coefficients in H.

    D' is `series`' D for pyramids and (1 - H) D for towers.
    """
    d = _d(pieces)
    if shape is Shape.TOWER:
        d = h_mul([IntPoly.constant(1), IntPoly.constant(-1)], d)
    return d


def _interpolate(values: list[IntPoly]) -> list[IntPoly]:
    """The coefficients in y of the R(t, y) of y-degree < len(values) with
    R(t, j) = values[j - 1] for j = 1, 2, ...

    Newton's forward differences at the nodes 1, 2, ..., each of order i
    divided by i! along the way: R has coefficients in Z[t] and the Newton
    basis (y - 1)(y - 2)...(y - i) is monic over Z, so R's coefficients in
    that basis lie in Z[t] and every division is exact.  Horner's rule in
    that basis then gives the coefficients in y.
    """
    newton, diffs = [], values
    for i in range(1, len(values) + 1):
        newton.append(diffs[0])
        diffs = [(b - a).exact_div(IntPoly.constant(i)) for a, b in zip(diffs, diffs[1:])]
    r = [newton.pop()]
    while newton:
        node = len(newton)  # r = r * (y - node) + the next Newton coefficient
        r = [a - b * node for a, b in zip([IntPoly()] + r, r + [IntPoly()])]
        r[0] = r[0] + newton.pop()
    return r


def _eliminant(pieces: PieceSet, shape: Shape) -> list[IntPoly]:
    """R(t, y) = Res_H(E, y D' - H), with content, as its k + 1 coefficients in y.

    G = y D' - H is linear in y, and the Sylvester matrix of E and G has
    deg_H E = k rows of G's coefficients, so R has y-degree at most k and is
    interpolated from its values at y = 1, ..., k + 1, each a resultant over
    Z[t] of E and G(y = j).  Setting y = j commutes with the resultant when
    G keeps its H-degree, and so does the sign `h_resultant` gives when it
    swaps its arguments.  It does at every j >= 1: G's leading coefficient
    in H is y lc(D'), or y d_1 - 1 with d_1 in {-1, t - 1} when D' has
    H-degree 1, or -1 when D' = 1.
    """
    e = list(defining_polynomial_H(pieces).coeffs)
    d = _denominator(pieces, shape)
    values = []
    for j in range(1, len(e) + 1):
        g = [c * j for c in d] + [IntPoly()] * (2 - len(d))
        g[1] = g[1] - IntPoly.constant(1)  # subtract H
        if not g[-1]:
            raise ConsistencyError(f"y D' - H loses its degree in H at y = {j}")
        values.append(h_resultant(e, g))
    return _interpolate(values)


def _select_annihilator(
    r0: BivariatePolynomial, degree: int, series: TruncatedSeries
) -> BivariatePolynomial:
    """The minimal polynomial Q of the series, given r0 = R / c(t) = Q^m.

    `degree` is deg_y E, which every norm of F has as its y-degree; the
    series must reach t^(deg_y r0 * deg_t r0).
    """
    dy, dt = r0.y_degree, r0.t_degree
    if dy != degree:
        raise ConsistencyError(f"the eliminant has y-degree {dy}, not {degree}: it is not a norm")
    if series.order < dy * dt:
        raise ValueError(f"root extraction needs the series through t^{dy * dt}")
    for m in (m for m in range(dy, 1, -1) if dy % m == 0 == dt % m):
        # A candidate P of degrees (dy, dt) / m has Res_y(P, r0) = A P + B r0 of
        # t-degree at most 2 dy dt / m.  If P(t, F) = O(t^n) beyond that, the
        # resultant vanishes to order n and is zero: P shares r0's factor
        # rather than agreeing with F for a while.
        n, width = 2 * dy * dt // m + 1, dt // m + 1
        f = TruncatedSeries(series.coeffs, n - 1)
        powers = [TruncatedSeries.one(n - 1)]
        for _ in range(dy // m):
            powers.append(powers[-1] * f)
        columns = [(0,) * i + p.coeffs[: n - i] for p in powers for i in range(width)]
        kernel = integer_kernel([list(row) for row in zip(*columns)])
        if kernel:
            q = BivariatePolynomial(tuple(
                IntPoly(kernel[0][j * width:(j + 1) * width]) for j in range(len(powers))
            ))
            power = BivariatePolynomial(tuple(functools.reduce(h_mul, [q.coeffs] * m)))
            if len(kernel) > 1 or power != r0:
                raise ConsistencyError(
                    f"m = {m}: the Hermite-Pade kernel has dimension {len(kernel)} and "
                    f"q = {list(q.coeffs)!r} is not an exact m-th root of the eliminant"
                )
            return q
    return r0


def check_degree_cap(pieces: PieceSet) -> None:
    """Raise DegreeCapError for a piece set too large to eliminate."""
    if pieces.max_size > _MAX_PIECE_SIZE:
        raise DegreeCapError(
            f"elimination supports piece sizes up to {_MAX_PIECE_SIZE}, "
            f"got {pieces.max_size}"
        )


def verify_annihilator(q: BivariatePolynomial, s: TruncatedSeries) -> bool:
    """True iff Q(t, s(t)) is zero through the series order."""
    return not any(_horner(q.coeffs, s).coeffs)


def annihilating_polynomial(
    pieces: PieceSet, shape: Shape, series: TruncatedSeries
) -> BivariatePolynomial:
    """The minimal polynomial Q(t, y) with Q(t, F(t)) = 0 for the shape's series F.

    For half-pyramids this is the defining polynomial itself.  For pyramids
    and towers it is obtained by eliminating H between E(t, H) and the
    shape's cleared-denominator relation, then removing the resultant's
    t-content and taking its exact m-th root, which reads a series prefix
    solved here.  Q must vanish on that prefix, so no caller order leaves
    the check empty, and on the caller's `series` of F through its order.
    """
    check_degree_cap(pieces)
    checked = [series]
    if shape is Shape.HALF_PYRAMID:
        result = defining_polynomial_H(pieces)
    else:
        resultant = _eliminant(pieces, shape)
        if not any(resultant):
            raise ConsistencyError("elimination produced the zero resultant")
        r0 = BivariatePolynomial(without_content(resultant))
        prefix = series_family(pieces, r0.y_degree * r0.t_degree, through=shape)[shape]
        result = _select_annihilator(r0, len(resultant) - 1, prefix)
        checked.insert(0, prefix)
    for s in checked:
        if not verify_annihilator(result, s):
            raise ConsistencyError(
                f"the annihilator does not vanish on the series through t^{s.order}"
            )
    return result
