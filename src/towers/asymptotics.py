"""Empirical growth estimates a(n) ~ C * mu^n * n^theta from exact terms.

Successive ratios r_n = a(n+1)/a(n) of such a sequence behave like
mu * (1 + theta/n + c2/n^2 + ...).  Richardson extrapolation at depth m
combines m+1 consecutive ratios with the weights

    (-1)^(m-i) * (n+i)^m / (i! * (m-i)!)      for i = 0..m,

which cancels the 1/n through 1/n^m corrections and leaves an error of
order 1/n^(m+1).  The same extrapolation applied to n*(r_n/mu - 1) then
estimates theta.  The extrapolation R is linear, so theta is computed as
R(n*r_n)/mu - R(n): one division by mu, where dividing each ratio would
carry mu's long denominator into every term of the sum.  All of this runs
in exact rational arithmetic on the tail of the sequence, which
comfortably exceeds the precision any floating format would give; only
the optional amplitude estimate uses floats.

These are empirical estimates with a stability indicator (the change
between the last two extrapolation points), not proven asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .recurrences import InsufficientTermsError, Sequence

__all__ = ["AsymptoticEstimate", "ZeroTermError", "estimate_asymptotics", "minimum_terms"]


class ZeroTermError(ValueError):
    """A term inside the ratio window is zero, so ratios are undefined."""


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Estimated growth constant, polynomial exponent, and optional amplitude.

    `stability` maps "mu" and "theta" to the absolute difference between
    the last two extrapolation iterates; smaller means more settled.
    """

    mu: Fraction
    theta: Fraction
    c_amplitude: float | None
    stability: dict[str, Fraction]


def _richardson(points: list[tuple[int, Fraction]]) -> Fraction:
    """Depth len(points)-1 extrapolation of consecutive (n, value) pairs."""
    m = len(points) - 1
    total = Fraction(0)
    for i, (n, value) in enumerate(points):
        weight = Fraction(
            (-1) ** (m - i) * n**m, math.factorial(i) * math.factorial(m - i)
        )
        total += weight * value
    return total


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
    ratios = [
        (s.offset + start + i, Fraction(tail[i + 1], tail[i])) for i in range(window - 1)
    ]
    mu = _richardson(ratios[1:])
    mu_prev = _richardson(ratios[:-1])
    if mu <= 0:
        raise ValueError("ratio extrapolation is not positive; the model does not apply")
    # theta = R(n*(r_n/mu - 1)), by linearity (see the module docstring)
    scaled = [(n, n * r) for n, r in ratios]
    plain = [(n, Fraction(n)) for n, _r in ratios]
    theta = _richardson(scaled[1:]) / mu - _richardson(plain[1:])
    theta_prev = _richardson(scaled[:-1]) / mu - _richardson(plain[:-1])
    stability = {"mu": abs(mu - mu_prev), "theta": abs(theta - theta_prev)}

    amplitude: float | None = None
    last = tail[-1]
    n_last = s.offset + len(s) - 1
    if last > 0 and n_last > 0:
        log_mu = _log_big(mu.numerator) - _log_big(mu.denominator)
        log_c = _log_big(last) - n_last * log_mu - float(theta) * math.log(n_last)
        try:
            amplitude = math.exp(log_c)
        except OverflowError:
            amplitude = None
    return AsymptoticEstimate(mu, theta, amplitude, stability)
