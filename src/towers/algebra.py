"""Polynomial equations satisfied by the generating functions.

The half-pyramid series H is a root of an explicit bivariate polynomial
E(t, y).  The pyramid and tower series F are rational in t and H with
denominators of constant term 1, so clearing denominators gives a second
relation G(t, H, y) that is linear in y.  Eliminating H via a resultant
yields R(t, y) with R(t, F) = 0.

Because E is irreducible, R is, up to a factor c(t), the norm of F:
R = c(t) Q^m with Q the minimal polynomial of F and m deg_y Q = deg_y E.
So Q is read off R without factoring.  The content c(t) is the gcd of R's
y-coefficients (not always a power of t); Q is the exact m-th root of
R0 = R / c(t), found as a Hermite-Pade kernel of the series for each m > 1
dividing both degrees of R0, largest first, and Q = R0 when none has a
root.  Finally Q is checked by substituting the caller's truncated series
of F, a semantic rather than syntactic criterion.

Everything here is plain enumeration (all markers z_i set to 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConsistencyError, DegreeCapError, UnsupportedConfigurationError
from .model import PieceSet, Rule, Shape
from .polynomials import (HPoly, IntPoly, PolyTY, h_resultant, int_poly_gcd, integer_kernel,
                          primitive_part)
from .series import TruncatedSeries, series_family

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


@dataclass(frozen=True)
class BivariatePolynomial:
    """Integer polynomial Q(t, y) = sum_j c_j(t) y^j in normal form.

    Normalization: trailing zero y-coefficients trimmed, overall integer
    content 1, and the leading y-coefficient has positive leading
    t-coefficient.  Construction normalizes automatically.
    """

    coeffs: tuple[IntPoly, ...]

    def __post_init__(self) -> None:
        coeffs = list(self.coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        object.__setattr__(self, "coeffs", primitive_part(coeffs))

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def t_degree(self) -> int:
        return max((c.degree for c in self.coeffs), default=-1)

    def to_poly_ty(self) -> PolyTY:
        return PolyTY(
            ((i, j), c)
            for j, poly in enumerate(self.coeffs)
            for i, c in enumerate(poly.coeffs)
        )


def _binomial_expansion(i: int, t_power: int) -> PolyTY:
    """t^t_power * (1 + y)^i as a PolyTY."""
    return PolyTY({(t_power, j): math.comb(i, j) for j in range(i + 1)})


def defining_polynomial_H(pieces: PieceSet) -> BivariatePolynomial:
    """The polynomial E(t, y) with E(t, H(t)) = 0 for the half-pyramid series.

    E = y - sum over sizes i of t^i (1+y)^i, or with a single size k under
    no-exact-alignment, E = y - t^k ((1+y)^k - y).
    """
    y = PolyTY({(0, 1): 1})
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        if len(pieces.sizes) > 1:
            raise UnsupportedConfigurationError(
                "no-exact-alignment elimination supports a single piece size only"
            )
        k = pieces.single_size
        expansion = _binomial_expansion(k, k) - PolyTY({(k, 1): 1})
        e = y - expansion
    else:
        e = y
        for i in pieces.sizes:
            e = e - _binomial_expansion(i, i)
    return BivariatePolynomial(tuple(e.to_y_coefficients()))


def _h_poly_defining(pieces: PieceSet) -> HPoly:
    """E as a polynomial in the eliminated variable with PolyTY coefficients."""
    coeffs = defining_polynomial_H(pieces).coeffs
    return [PolyTY.from_t_poly(c) for c in coeffs]


def _h_poly_mul(f: HPoly, g: HPoly) -> HPoly:
    out = [PolyTY() for _ in range(len(f) + len(g) - 1)] if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = out[i + j] + a * b
    while out and not out[-1]:
        out.pop()
    return out


def _pyramid_denominator_h(pieces: PieceSet) -> HPoly:
    """D(t, H) with P * D = H, as a polynomial in H.

    D = 1 - (k-1) H + sum over sizes i < k of (k-i) t^i (1+H)^i for the
    largest size k, the form `series` divides by; under no-exact-alignment
    (one size) the sum is empty.
    """
    k = pieces.max_size
    d = PolyTY({(0, 0): 1, (0, 1): -(k - 1)})
    for i in pieces.sizes[:-1]:
        d = d + _binomial_expansion(i, i) * (k - i)
    return [PolyTY.from_t_poly(c) for c in d.to_y_coefficients()]


def _relation_for_shape(pieces: PieceSet, shape: Shape) -> HPoly:
    """G(t, H, y), linear in y, with G(t, H(t), F(t)) = 0 for the shape's series F."""
    d = _pyramid_denominator_h(pieces)
    if shape is Shape.TOWER:
        one_minus_h = [PolyTY.constant(1), PolyTY.constant(-1)]
        d = _h_poly_mul(one_minus_h, d)
    y = PolyTY({(0, 1): 1})
    g = [c * y for c in d]
    if len(g) < 2:
        g += [PolyTY()] * (2 - len(g))
    g[1] = g[1] - PolyTY.constant(1)  # subtract H
    while g and not g[-1]:
        g.pop()
    return g


def _without_content(resultant: PolyTY) -> BivariatePolynomial:
    """R / c(t), where c(t) is the gcd in Z[t] of the y-coefficients of R."""
    content = functools.reduce(int_poly_gcd, resultant.to_y_coefficients())
    quotient = resultant.exact_div(PolyTY.from_t_poly(content))
    return BivariatePolynomial(tuple(quotient.to_y_coefficients()))


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
            power = BivariatePolynomial(tuple((q.to_poly_ty() ** m).to_y_coefficients()))
            if len(kernel) > 1 or power != r0:
                raise ConsistencyError(
                    f"m = {m}: the Hermite-Pade kernel has dimension {len(kernel)} and "
                    f"q = {q.to_poly_ty()!r} is not an exact m-th root of the eliminant"
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
    acc = TruncatedSeries.zero(s.order)
    for c in reversed(q.coeffs):
        acc = acc * s + TruncatedSeries(c.coeffs, s.order)
    return not any(acc.coeffs)


def annihilating_polynomial(
    pieces: PieceSet, shape: Shape, series: TruncatedSeries
) -> BivariatePolynomial:
    """The minimal polynomial Q(t, y) with Q(t, F(t)) = 0 for the shape's series F.

    For half-pyramids this is the defining polynomial itself.  For pyramids
    and towers it is obtained by eliminating H between E(t, H) and the
    shape's cleared-denominator relation, then removing the resultant's
    t-content and taking its exact m-th root, which reads a series prefix
    solved here.  Either way Q must vanish on the caller's `series` of F
    through its order.
    """
    check_degree_cap(pieces)
    if shape is Shape.HALF_PYRAMID:
        result = defining_polynomial_H(pieces)
    else:
        e = _h_poly_defining(pieces)
        resultant = h_resultant(e, _relation_for_shape(pieces, shape))
        if not resultant:
            raise ConsistencyError("elimination produced the zero resultant")
        r0 = _without_content(resultant)
        prefix = series_family(pieces, r0.y_degree * r0.t_degree, through=shape)[shape]
        result = _select_annihilator(r0, len(e) - 1, prefix)
    if not verify_annihilator(result, series):
        raise ConsistencyError(
            f"the annihilator does not vanish on the series through t^{series.order}"
        )
    return result
