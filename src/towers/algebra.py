"""Polynomial equations satisfied by the generating functions.

The half-pyramid series H is a root of an explicit bivariate polynomial
E(t, y).  The pyramid and tower series are rational in t and H with
denominators of constant term 1, so clearing denominators gives a second
relation G(t, H, y) that is linear in y.  Eliminating H via a resultant
yields a bivariate polynomial in (t, y) that vanishes on the pyramid or
tower series; the resultant usually carries parasitic factors, so the
final step factors it over the rationals and keeps the unique irreducible
factor that actually annihilates the series (checked by substituting the
truncated series, a semantic rather than syntactic criterion).

Everything here is plain enumeration (all markers z_i set to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DegreeCapError, UnsupportedConfigurationError
from .model import PieceSet, Rule, Shape
from .polynomials import HPoly, IntPoly, PolyTY, h_resultant
from .series import TruncatedSeries, series_family

__all__ = [
    "BivariatePolynomial",
    "defining_polynomial_H",
    "annihilating_polynomial",
    "verify_annihilator",
]

# Elimination is only exercised for small piece sets; factoring degrees stay
# modest under this cap and the error is clearer than a runaway computation.
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
        if coeffs:
            content = math.gcd(*(c.content() for c in coeffs))
            if content > 1:
                coeffs = [c.divide_int(content) for c in coeffs]
            if coeffs[-1].leading < 0:
                coeffs = [-c for c in coeffs]
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def y_degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, t_value: Fraction, y_value: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * y_value + c(t_value)
        return acc

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
    """D(t, H) with P * D = H, as a polynomial in H."""
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        k = pieces.single_size
        return [PolyTY.constant(1), PolyTY.constant(-(k - 1))]
    coeffs: dict[int, PolyTY] = {0: PolyTY.constant(1)}
    for i in pieces.sizes:
        if i == 1:
            continue
        for j in range(i + 1):
            term = PolyTY({(i, 0): -(i - 1) * math.comb(i, j)})
            coeffs[j] = coeffs.get(j, PolyTY()) + term
    top = max(coeffs)
    out = [coeffs.get(j, PolyTY()) for j in range(top + 1)]
    while out and not out[-1]:
        out.pop()
    return out


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


def _irreducible_factors(poly: PolyTY) -> list[BivariatePolynomial]:
    """Irreducible factors over the rationals with positive y-degree."""
    import sympy  # the only use; importing it costs most of the CLI's start-up

    t, y = sympy.symbols("t y")
    expr = sympy.Add(
        *(c * t**i * y**j for (i, j), c in poly.items())
    )
    _, factors = sympy.factor_list(expr, t, y)
    out = []
    for factor, _multiplicity in factors:
        fdict = sympy.Poly(factor, t, y).as_dict()
        cand = PolyTY({(int(i), int(j)): int(c) for (i, j), c in fdict.items()})
        if cand.degree_y >= 1:
            out.append(BivariatePolynomial(tuple(cand.to_y_coefficients())))
    return out


def verify_annihilator(q: BivariatePolynomial, s: TruncatedSeries) -> bool:
    """True iff Q(t, s(t)) is zero through the series order."""
    if s.is_weighted:
        raise ValueError("verify_annihilator expects a plain series")
    acc = TruncatedSeries.zero(s.order)
    for c in reversed(q.coeffs):
        acc = acc * s + TruncatedSeries(c.coeffs, s.order)
    return not any(acc.coeffs)


def annihilating_polynomial(
    pieces: PieceSet, shape: Shape, verify_order: int = 200
) -> BivariatePolynomial:
    """A polynomial Q(t, y) with Q(t, F(t)) = 0 for the shape's series F.

    For half-pyramids this is the defining polynomial itself.  For pyramids
    and towers it is obtained by eliminating H between E(t, H) and the
    shape's cleared-denominator relation, then keeping the irreducible
    factor of the resultant that vanishes on the series through t^verify_order.
    """
    if pieces.max_size > _MAX_PIECE_SIZE:
        raise DegreeCapError(
            f"elimination supports piece sizes up to {_MAX_PIECE_SIZE}, "
            f"got {pieces.max_size}"
        )
    series = series_family(pieces, verify_order, through=shape)[shape]
    if shape is Shape.HALF_PYRAMID:
        result = defining_polynomial_H(pieces)
        if not verify_annihilator(result, series):
            raise ConsistencyError("defining polynomial does not vanish on its own series")
        return result
    e = _h_poly_defining(pieces)
    g = _relation_for_shape(pieces, shape)
    resultant = h_resultant(e, g)
    if not resultant:
        raise ConsistencyError("elimination produced the zero resultant")
    matching = [
        cand for cand in _irreducible_factors(resultant) if verify_annihilator(cand, series)
    ]
    if not matching:
        raise ConsistencyError(
            "no irreducible factor of the eliminant vanishes on the series"
        )
    if len(matching) > 1:
        raise ConsistencyError(
            "multiple irreducible factors vanish on the series; order too low"
        )
    return matching[0]
