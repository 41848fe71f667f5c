"""Empirical growth estimates a(n) ~ C * mu^n * n^theta from exact terms.

Successive ratios r_n = a(n+1)/a(n) of such a sequence behave like
mu * (1 + theta/n + c2/n^2 + ...).  Richardson extrapolation at depth m
combines m+1 consecutive ratios with the weights

    (-1)^(m-i) * (n+i)^m / (i! * (m-i)!)      for i = 0..m,

which cancels the 1/n through 1/n^m corrections and leaves an error of
order 1/n^(m+1).  The same extrapolation applied to n*(r_n/mu - 1) then
estimates theta; R is linear, so theta = R(n*r_n)/mu - R(n).

All of this runs in exact integers.  The k = m+2 ratios of the window
share the denominator P = a_0 ... a_(k-1): ratio i is x_i/P with
x_i = a_(i+1) * (a_0 ... a_(i-1)) * (a_(i+1) ... a_(k-1)), and m! times
the weights are integers.  So mu and R(n*r_n) are integer sums over m!*P,
P cancels from theta, and theta is a pair over mu's numerator times m!.
Only mu is reduced, once, since the amplitude takes the float logs of its
reduced numerator and denominator; the other values stay unreduced pairs
until read as Fractions.  Only the amplitude estimate uses floats.

These are empirical estimates with a stability indicator (the change
between the last two extrapolation points), not proven asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import InsufficientTermsError
from .model import Value

if TYPE_CHECKING:
    from .model import Sequence

__all__ = ["AsymptoticEstimate", "ZeroTermError", "estimate_asymptotics", "minimum_terms"]


class ZeroTermError(ValueError):
    """A term inside the ratio window is zero, so ratios are undefined."""


class AsymptoticEstimate(Value):
    """Estimated growth constant, polynomial exponent, and optional amplitude.

    The exact values are held as (numerator, denominator) pairs, with a
    positive denominator; `mu`, `theta` and `stability` read them as
    Fractions, reduced on first read.  `stability_pairs` holds ("mu", pair)
    and ("theta", pair), in that order, for the absolute difference between
    the last two extrapolation iterates; smaller means more settled, and
    `stability` reads it as a dict.  Estimates compare, and hash, equal when
    their values do.
    """

    _fields = ("mu_pair", "theta_pair", "c_amplitude", "stability_pairs")
    __slots__ = _fields + ("__dict__",)  # the cached properties' store
    mu_pair: tuple[int, int]
    theta_pair: tuple[int, int]
    c_amplitude: float | None
    stability_pairs: tuple[tuple[str, tuple[int, int]], ...]

    mu = cached_property(lambda self: Fraction(*self.mu_pair))
    theta = cached_property(lambda self: Fraction(*self.theta_pair))
    stability = cached_property(lambda self: {k: Fraction(*v) for k, v in self.stability_pairs})

    def __init__(self, mu_pair: tuple[int, int], theta_pair: tuple[int, int],
                 c_amplitude: float | None,
                 stability_pairs: tuple[tuple[str, tuple[int, int]], ...]) -> None:
        super().__init__(mu_pair, theta_pair, c_amplitude, stability_pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AsymptoticEstimate) and all(
            getattr(self, a) == getattr(other, a) for a in ("mu", "theta", "c_amplitude", "stability"))

    def __hash__(self) -> int:  # of what __eq__ compares, so unreduced pairs hash as reduced ones
        return hash((self.mu, self.theta, self.c_amplitude, frozenset(self.stability.items())))


def _log_big(x: int) -> float:
    """Natural log of a positive integer too large for math.log."""
    bits = x.bit_length()
    if bits <= 512:
        return math.log(x)
    shift = bits - 60
    return math.log(x >> shift) + shift * math.log(2)


def minimum_terms(depth: int) -> int:
    """How many terms `estimate_asymptotics` needs at this depth; it reads only the last depth+3."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return 4 * depth + 8


def estimate_asymptotics(s: Sequence, depth: int = 4) -> AsymptoticEstimate:
    """Estimate mu and theta from the tail of an exact integer sequence.

    Uses the last depth+3 terms; every term in that window must be non-zero
    (a zero raises ZeroTermError naming the offending index).  The sequence
    must have at least 4*depth + 8 terms so the window sits deep enough in
    the tail for the 1/n model to hold.  Terms may be ints or integer-valued
    Decimals; only the window is converted to int.
    """
    minimum = minimum_terms(depth)
    if len(s) < minimum:
        raise InsufficientTermsError(
            f"depth {depth} needs at least {minimum} terms, got {len(s)}"
        )
    window = depth + 3  # depth+2 ratios: one extrapolation plus one for stability
    start = len(s) - window
    tail = [int(t) for t in s.terms[start:]]
    for i, term in enumerate(tail):
        if term == 0:
            raise ZeroTermError(f"term at index n={s.offset + start + i} is zero")
    m, k = depth, window - 1
    prefix = [1]  # prefix[i] = a_0 ... a_(i-1)
    for term in tail[:k - 1]:
        prefix.append(prefix[-1] * term)
    xs, shared = [0] * k, 1  # shared ends as P, the product of the ratios' denominators
    for i in reversed(range(k)):
        xs[i] = tail[i + 1] * prefix[i] * shared
        shared *= tail[i]
    if shared < 0:  # terms may be negative; a positive P keeps every denominator positive
        xs, shared = [-x for x in xs], -shared
    ns = range(s.offset + start, s.offset + start + k)

    def richardson(values, first: int) -> int:
        """m! times the extrapolation of values over ratios first..first+m."""
        return sum((-1) ** (m - j) * math.comb(m, j) * ns[first + j] ** m * values[first + j]
                   for j in range(m + 1))

    scaled = [n * x for n, x in zip(ns, xs)]
    # mu and its previous iterate, and R(n*r_n), each times m!*P; R(n) times m!
    (mu, mu_prev), (nr, nr_prev), (rn, rn_prev) = (
        (richardson(v, 1), richardson(v, 0)) for v in (xs, scaled, ns))
    if mu <= 0:
        raise ValueError("ratio extrapolation is not positive; the model does not apply")
    factorial = math.factorial(m)
    denominator = factorial * shared
    # theta = R(n*r_n)/mu - R(n) is a pair over mu's numerator times m!, since P
    # cancels; theta_prev divides by mu too, not by mu_prev
    theta_pair = (nr * factorial - rn * mu, mu * factorial)
    theta_step = (nr - nr_prev) * factorial - (rn - rn_prev) * mu
    stability = (("mu", (abs(mu - mu_prev), denominator)),
                 ("theta", (abs(theta_step), mu * factorial)))
    common = math.gcd(mu, denominator)  # the one reduction: the amplitude reads it
    mu_pair = (mu // common, denominator // common)

    amplitude: float | None = None
    last = tail[-1]
    n_last = s.offset + len(s) - 1
    if last > 0 and n_last > 0:
        log_mu = _log_big(mu_pair[0]) - _log_big(mu_pair[1])
        theta = theta_pair[0] / theta_pair[1]  # correctly rounded, as float() of the Fraction
        log_c = _log_big(last) - n_last * log_mu - theta * math.log(n_last)
        try:
            amplitude = math.exp(log_c)
        except OverflowError:
            amplitude = None
    return AsymptoticEstimate(mu_pair, theta_pair, amplitude, stability)
