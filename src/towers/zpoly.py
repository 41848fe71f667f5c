"""Integer polynomials in the piece-count markers z_i.

A ZPolynomial is attached to a fixed tuple of piece sizes; each monomial is
keyed by its exponent vector, one exponent per size, e.g. for sizes (1, 3)
the monomial z1^2 * z3 has key (2, 1).  Values are arbitrary-precision
integers and zero coefficients are never stored.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

__all__ = ["ZPolynomial"]


class ZPolynomial:
    """Immutable multivariate integer polynomial in z-markers."""

    __slots__ = ("sizes", "_terms")

    def __init__(self, sizes: tuple[int, ...], terms: Mapping[tuple[int, ...], int] | Iterable = ()):
        self.sizes = tuple(sizes)
        arity = len(self.sizes)
        clean: dict[tuple[int, ...], int] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(f"exponent vector {exps} does not match sizes {self.sizes}")
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self._terms = clean

    @classmethod
    def zero(cls, sizes: tuple[int, ...]) -> "ZPolynomial":
        return cls(sizes)

    @classmethod
    def constant(cls, sizes: tuple[int, ...], value: int) -> "ZPolynomial":
        if not value:
            return cls(sizes)
        return cls(sizes, {(0,) * len(sizes): value})

    @classmethod
    def marker(cls, sizes: tuple[int, ...], size: int) -> "ZPolynomial":
        """The single variable z_size as a polynomial."""
        exps = [0] * len(sizes)
        exps[sizes.index(size)] = 1
        return cls(sizes, {tuple(exps): 1})

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Monomials in a canonical (sorted-key) order."""
        return iter(sorted(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ZPolynomial):
            return self.sizes == other.sizes and self._terms == other._terms
        if isinstance(other, int):
            return self == ZPolynomial.constant(self.sizes, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sizes, frozenset(self._terms.items())))

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial(self.sizes, {e: -c for e, c in self._terms.items()})

    def _coerce(self, other) -> "ZPolynomial | None":
        if isinstance(other, ZPolynomial):
            if other.sizes != self.sizes:
                raise ValueError(f"mismatched marker sets {self.sizes} vs {other.sizes}")
            return other
        if isinstance(other, int):
            return ZPolynomial.constant(self.sizes, other)
        return None

    def __add__(self, other) -> "ZPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out = dict(self._terms)
        for exps, coeff in rhs._terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        result = ZPolynomial.__new__(ZPolynomial)
        result.sizes = self.sizes
        result._terms = out
        return result

    __radd__ = __add__

    def __sub__(self, other) -> "ZPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "ZPolynomial":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "ZPolynomial":
        if isinstance(other, int):
            if not other:
                return ZPolynomial(self.sizes)
            result = ZPolynomial.__new__(ZPolynomial)
            result.sizes = self.sizes
            result._terms = {e: c * other for e, c in self._terms.items()}
            return result
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in rhs._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        result = ZPolynomial.__new__(ZPolynomial)
        result.sizes = self.sizes
        result._terms = out
        return result

    __rmul__ = __mul__

    def eval_ones(self) -> int:
        """Value with every marker set to 1 (the plain count)."""
        return sum(self._terms.values())

    def total_degree_counts(self) -> dict[int, int]:
        """Sum of coefficients grouped by total degree (total piece count)."""
        out: dict[int, int] = {}
        for exps, coeff in self._terms.items():
            n = sum(exps)
            out[n] = out.get(n, 0) + coeff
        return out

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
