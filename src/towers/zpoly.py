"""Integer polynomials in the piece-count markers z_i.

A ZPolynomial is attached to a fixed tuple of piece sizes; each monomial is
keyed by its exponent vector, one exponent per size, e.g. for sizes (1, 3)
the monomial z1^2 * z3 has key (2, 1).  Values are arbitrary-precision
integers and zero coefficients are never stored.

It is a container, not a ring: the oracle (`weight_polynomial`) and
Lagrange's formula (`weighted_series`) build one per area, coefficient by
coefficient, and callers compare them, read their monomials or set every
marker to 1.  Nothing adds or multiplies them.
"""

from __future__ import annotations

from typing import Iterator, Mapping

__all__ = ["ZPolynomial"]


class ZPolynomial:
    """Immutable integer polynomial in z-markers, kept as exponent vector -> coefficient."""

    __slots__ = ("sizes", "_terms")

    def __init__(self, sizes: tuple[int, ...], terms: Mapping[tuple[int, ...], int] | None = None):
        self.sizes = tuple(sizes)
        self._terms = {tuple(exps): coeff for exps, coeff in (terms or {}).items() if coeff}
        for exps in self._terms:
            if len(exps) != len(self.sizes):
                raise ValueError(f"exponent vector {exps} does not match sizes {self.sizes}")

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Monomials in a canonical (sorted-key) order."""
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self.sizes == other.sizes and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.sizes, frozenset(self._terms.items())))

    def eval_ones(self) -> int:
        """Value with every marker set to 1 (the plain count)."""
        return sum(self._terms.values())

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in sorted(self._terms.items()):
            factors = []
            if coeff != 1 or not any(exps):
                factors.append(str(coeff))
            for size, e in zip(self.sizes, exps):
                if e == 1:
                    factors.append(f"z{size}")
                elif e > 1:
                    factors.append(f"z{size}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)
