"""Truncated power series in t and the tower generating functions.

All coefficients are exact: Python integers in plain mode, ZPolynomial
values (integer polynomials in the z_i markers) in weighted mode.  The
half-pyramid series H is the fixed point of

    H = sum over sizes i of  t^i * z_i * (1 + H)^i,

or, with a single size k under the no-exact-alignment rule,

    H = t^k * ((1 + H)^k - H).

Every term of the right-hand side has t-order at least 1, so the fixed
point is determined order by order; `solve_half_pyramids` exploits that
and fills in one coefficient at a time, which is what makes high orders
(thousands of terms) affordable.  The tests keep the plain
repeated-substitution version in `tests/` as a slow reference.

Pyramids and towers are rational in H.  With k the largest size,

    P = H / (1 - sum over sizes i of (i-1) * t^i * z_i * (1+H)^i)
      = H / (1 - (k-1) * H + sum over sizes i < k of (k-i) * t^i * z_i * (1+H)^i)
    M = P / (1 - H)

The second form follows from the H-equation and also holds under the
no-exact-alignment rule (one size k), where its sum is empty.
`series_pyramids` and `series_towers` compute these quotients with series
division.  Both denominators have constant term 1, so the division stays in
the integers.  `series_family` is the entry point: it solves H and derives
P and M from it, stopping at the shape asked for.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .errors import ConsistencyError, UnsupportedConfigurationError
from .model import PieceSet, Rule, Shape
from .zpoly import ZPolynomial

__all__ = [
    "TruncatedSeries",
    "solve_half_pyramids",
    "half_pyramid_rhs",
    "series_pyramids",
    "series_towers",
    "series_family",
    "coefficients_by_pieces",
    "piece_count_sequence",
    "closed_form_half_pyramids",
    "closed_form_pyramids",
    "closed_form_dimer_towers",
]

Coefficient = Union[int, ZPolynomial]


def _zero_like(sample: Coefficient) -> Coefficient:
    return ZPolynomial.zero(sample.sizes) if isinstance(sample, ZPolynomial) else 0


class TruncatedSeries:
    """A power series in t kept exactly through t^order.

    Immutable; all arithmetic truncates at the common order.  Coefficients
    are either all ints or all ZPolynomials over the same marker set.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Coefficient], order: int | None = None):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        zero = _zero_like(coeffs[0])
        if len(coeffs) < order + 1:
            coeffs = coeffs + (zero,) * (order + 1 - len(coeffs))
        elif len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zero(cls, order: int, sizes: tuple[int, ...] | None = None) -> "TruncatedSeries":
        z: Coefficient = ZPolynomial.zero(sizes) if sizes is not None else 0
        return cls((z,) * (order + 1), order)

    @classmethod
    def one(cls, order: int, sizes: tuple[int, ...] | None = None) -> "TruncatedSeries":
        s = cls.zero(order, sizes)
        return s + 1

    @property
    def is_weighted(self) -> bool:
        return isinstance(self.coeffs[0], ZPolynomial)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

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
            n = self.order
            zero = _zero_like(self.coeffs[0])
            out = [zero] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] = out[i + j] + a * b
            return TruncatedSeries(tuple(out), n)
        if isinstance(other, (int, ZPolynomial)):
            return TruncatedSeries(tuple(c * other for c in self.coeffs), self.order)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if exponent < 0:
            raise ValueError("negative powers are not supported; divide instead")
        result = TruncatedSeries.one(
            self.order, self.coeffs[0].sizes if self.is_weighted else None
        )
        for _ in range(exponent):
            result = result * self
        return result

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, dropping coefficients past the order."""
        if k == 0:
            return self
        zero = _zero_like(self.coeffs[0])
        return TruncatedSeries((zero,) * k + self.coeffs[: self.order + 1 - k], self.order)

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
        negate = b0 == -1
        zero = _zero_like(self.coeffs[0])
        divisor = [(j, b) for j, b in enumerate(other.coeffs) if j and b]
        out: list[Coefficient] = []
        for m, a in enumerate(self.coeffs):
            acc = zero
            for j, b in divisor:
                if j > m:
                    break
                q = out[m - j]
                if q:
                    acc = acc + b * q
            out.append(acc - a if negate else a - acc)
        return TruncatedSeries(tuple(out), self.order)

    def evaluate_ones(self) -> "TruncatedSeries":
        """Set every z marker to 1, turning a weighted series plain."""
        if not self.is_weighted:
            return self
        return TruncatedSeries(
            tuple(c.eval_ones() for c in self.coeffs), self.order  # type: ignore[union-attr]
        )

    def __repr__(self) -> str:
        shown = ", ".join(repr(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order + 1 > 8 else ""
        return f"TruncatedSeries(order={self.order}, [{shown}{tail}])"


def _check_rule(pieces: PieceSet, weighted: bool) -> None:
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        if len(pieces.sizes) > 1:
            raise UnsupportedConfigurationError(
                "series under the no-exact-alignment rule support a single piece "
                f"size only, got sizes {pieces.sizes}"
            )
        if weighted:
            raise UnsupportedConfigurationError(
                "weighted series are not defined under the no-exact-alignment rule"
            )


def solve_half_pyramids(pieces: PieceSet, order: int, weighted: bool = False) -> TruncatedSeries:
    """The half-pyramid series H through t^order, solved order by order.

    Coefficient n of H only involves coefficients below n on the right-hand
    side (every summand carries at least one factor t), so each pass of the
    loop pins down one new coefficient; the result is the unique fixed
    point, reached after at most order+1 corrections.
    """
    _check_rule(pieces, weighted)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    sizes = pieces.sizes
    k = pieces.max_size
    if weighted:
        zero: Coefficient = ZPolynomial.zero(sizes)
        one: Coefficient = ZPolynomial.constant(sizes, 1)
        marker = {i: ZPolynomial.marker(sizes, i) for i in sizes}
    else:
        zero, one = 0, 1
        marker = {i: 1 for i in sizes}
    no_align = pieces.rule is Rule.NO_EXACT_ALIGNMENT

    # powers[i][n] = coefficient of t^n in (1 + H)^i, maintained as H grows.
    powers = [[zero] * (order + 1) for _ in range(k + 1)]
    for i in range(k + 1):
        powers[i][0] = one
    h = [zero] * (order + 1)
    for n in range(1, order + 1):
        if no_align:
            coeff = (powers[k][n - k] - h[n - k]) if n >= k else zero
        else:
            coeff = zero
            for i in sizes:
                if i <= n:
                    coeff = coeff + marker[i] * powers[i][n - i]
        h[n] = coeff
        if k >= 1:
            powers[1][n] = coeff
        for i in range(2, k + 1):
            prev = powers[i - 1]
            lin = powers[1]
            acc = prev[n]  # j = n term: prev[n] * lin[0] with lin[0] = 1
            for j in range(n):
                pj = prev[j]
                lj = lin[n - j]
                if pj and lj:
                    acc = acc + pj * lj
            powers[i][n] = acc
    return TruncatedSeries(tuple(h), order)


def half_pyramid_rhs(h: TruncatedSeries, pieces: PieceSet) -> TruncatedSeries:
    """Right-hand side of the half-pyramid equation at h, weighted iff h is.

    Useful for residual checks: h solves the equation iff the result equals
    h coefficientwise through the shared order.
    """
    weighted = h.is_weighted
    _check_rule(pieces, weighted)
    sizes = pieces.sizes
    one_plus = h + 1
    if pieces.rule is Rule.NO_EXACT_ALIGNMENT:
        k = pieces.single_size
        return (one_plus**k - h).shift(k)
    total = TruncatedSeries.zero(h.order, sizes if weighted else None)
    for i in sizes:
        term = (one_plus**i).shift(i)
        if weighted:
            term = term * ZPolynomial.marker(sizes, i)
        total = total + term
    return total


def _pyramid_denominator(h: TruncatedSeries, pieces: PieceSet) -> TruncatedSeries:
    """1 - (k-1)*H + sum over sizes i < k of (k-i) * t^i * z_i * (1+H)^i."""
    k = pieces.max_size
    total = 1 - (k - 1) * h
    one_plus = power = h + 1  # power is (1+H)^i, one more factor per step of i
    for i in range(1, max(pieces.sizes[:-1], default=0) + 1):
        if i > 1:
            power = power * one_plus
        if i in pieces.sizes:
            term = power.shift(i) * (k - i)
            if h.is_weighted:
                term = term * ZPolynomial.marker(pieces.sizes, i)
            total = total + term
    return total


def series_pyramids(h: TruncatedSeries, pieces: PieceSet) -> TruncatedSeries:
    """Pyramid series P from the half-pyramid series h (weighted iff h is)."""
    _check_rule(pieces, h.is_weighted)
    return h / _pyramid_denominator(h, pieces)


def series_towers(p: TruncatedSeries, h: TruncatedSeries) -> TruncatedSeries:
    """Tower series M = P / (1 - H)."""
    return p / (1 - h)


def series_family(
    pieces: PieceSet, order: int, weighted: bool = False, through: Shape = Shape.TOWER
) -> dict[Shape, TruncatedSeries]:
    """H, P and M through t^order, keyed by shape, stopping after `through`.

    Each series is derived from the one before it, so asking for half
    pyramids solves H only and asking for pyramids skips M.
    """
    h = solve_half_pyramids(pieces, order, weighted)
    family = {Shape.HALF_PYRAMID: h}
    if through is not Shape.HALF_PYRAMID:
        p = family[Shape.PYRAMID] = series_pyramids(h, pieces)
        if through is Shape.TOWER:
            family[Shape.TOWER] = series_towers(p, h)
    return family


def coefficients_by_pieces(series: TruncatedSeries, pieces: PieceSet) -> list[int]:
    """Per-piece-count sequence for a single-size set: a(n) = [t^(k*n)].

    Only defined for plain series over one piece size k, where the area of
    an n-piece structure is exactly k*n.  A non-zero coefficient off the
    k-grid means the series cannot belong to this piece set and raises
    ConsistencyError.  The returned list starts at n = 1.
    """
    k = pieces.single_size
    if series.is_weighted:
        raise ValueError("coefficients_by_pieces expects a plain series")
    for n, c in enumerate(series.coeffs):
        if n % k and c:
            raise ConsistencyError(
                f"non-zero coefficient {c} at t^{n} is off the {k}-grid"
            )
    return [series.coeffs[k * n] for n in range(1, series.order // k + 1)]


def piece_count_sequence(series: TruncatedSeries, pieces: PieceSet) -> list[int]:
    """Counts by piece count extracted from a weighted series.

    Towers with n pieces have area at most n * max(sizes), so the counts
    are complete for n up to order // max(sizes); the list starts at n = 1.
    """
    if not series.is_weighted:
        raise ValueError("piece_count_sequence expects a weighted series")
    limit = series.order // pieces.max_size
    out = [0] * (limit + 1)
    for c in series.coeffs:
        for total, value in c.total_degree_counts().items():  # type: ignore[union-attr]
            if total <= limit:
                out[total] += value
    return out[1:]


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
