"""Core model: the package's plain records.

Piece sets, towers, sequences (re-exported by `recurrences`) and marker
polynomials live here on `Value`, so handling one runs no solver.

A tower is described floor by floor.  Each floor is a list of horizontal
pieces, a piece of size i occupying the integer interval [x, x+i].  The
bottom floor must be gap-free, and every piece on a higher floor must rest
on the floor directly below it with a contact segment of positive integer
length.  Pieces on the same floor may touch at endpoints but never overlap.

Two interface rules are supported for vertical contacts: either every
positive-length contact is allowed, or a piece may not sit exactly aligned
on top of an identical interval on the floor directly below.

Towers are counted up to horizontal translation; the canonical
representative places the left end of the leftmost bottom piece at 0.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    import decimal

__all__ = [
    "Rule",
    "Shape",
    "PieceSet",
    "Tower",
    "Sequence",
    "ZPolynomial",
]


class Rule(enum.Enum):
    """Which vertical contacts between stacked pieces are allowed."""

    ALL_INTERFACES = "all"
    NO_EXACT_ALIGNMENT = "noalign"


class Shape(enum.Enum):
    """Shape classes: general towers, pyramids, half-pyramids."""

    TOWER = "tower"
    PYRAMID = "pyramid"
    HALF_PYRAMID = "half"


class Value:
    """An immutable value object, compared, hashed and printed by its fields.

    A subclass names its fields, in order, in `_fields` and keeps them in
    `__slots__` (the same tuple, plus "__dict__" where it needs one).  Its
    `__init__` validates and normalizes the arguments, then sets the fields,
    usually by handing their values to `Value.__init__` in field order.
    Instances are equal when they are of the same class with equal fields,
    hash as the tuple of their fields, print as `Name(field=value, ...)`
    and refuse assignment and deletion.  Copies and pickles call the class
    on the fields again, so `__init__` must take its own normalized output
    back unchanged.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class PieceSet(Value):
    """The allowed piece sizes together with the interface rule.

    `sizes` is stored strictly increasing and duplicate-free; every size is
    a positive integer.
    """

    __slots__ = _fields = ("sizes", "rule")
    sizes: tuple[int, ...]
    rule: Rule

    def __init__(self, sizes: Iterable[int], rule: Rule = Rule.ALL_INTERFACES) -> None:
        sizes = tuple(sizes)
        if not sizes:
            raise ValueError("piece set must be non-empty")
        if any(not isinstance(s, int) or isinstance(s, bool) for s in sizes):
            raise ValueError(f"piece sizes must be positive integers, got {sizes}")
        sizes = tuple(sorted(sizes))
        if sizes[0] < 1:
            raise ValueError(f"piece sizes must be positive integers, got {sizes}")
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"duplicate piece sizes in {sizes}")
        super().__init__(sizes, rule)

    @classmethod
    def of(cls, *sizes: int, rule: Rule = Rule.ALL_INTERFACES) -> "PieceSet":
        return cls(tuple(sizes), rule)

    @property
    def max_size(self) -> int:
        return self.sizes[-1]

    @property
    def single_size(self) -> int:
        """The unique size, for |sizes| = 1 piece sets."""
        if len(self.sizes) != 1:
            raise ValueError(f"piece set {self.sizes} has more than one size")
        return self.sizes[0]


# A floor is a tuple of (left, right) pairs sorted by left; raw integer
# pairs keep bulk enumeration cheap.
Floor = tuple[tuple[int, int], ...]


class Tower(Value):
    """An immutable tower, bottom floor first.

    `floors[i]` is a tuple of (left, right) integer pairs sorted by left.
    Construction does not check legality; the enumerator only emits legal
    towers.
    """

    __slots__ = _fields = ("floors",)
    floors: tuple[Floor, ...]

    def __init__(self, floors: tuple[Floor, ...]) -> None:
        super().__init__(floors)

    def to_lists(self) -> list[list[list[int]]]:
        return [[[left, right] for left, right in floor] for floor in self.floors]

    @property
    def piece_count(self) -> int:
        return sum(len(floor) for floor in self.floors)


class Sequence(Value):
    """Integer terms a(offset), a(offset+1), ... with a free-text label.

    Each term is an int or an integer-valued Decimal, and every function
    that takes a Sequence takes either.
    """

    __slots__ = _fields = ("offset", "terms", "label")
    offset: int
    terms: tuple[int | decimal.Decimal, ...]
    label: str

    def __init__(self, offset: int, terms: tuple[int | decimal.Decimal, ...], label: str = "") -> None:
        if not terms:
            raise ValueError("a sequence needs at least one term")
        super().__init__(offset, tuple(terms), label)

    def __len__(self) -> int:
        return len(self.terms)


Monomial = tuple[tuple[int, ...], int]  # (exponent vector, coefficient)


class ZPolynomial(Value):
    """An integer polynomial in the piece-count markers z_i, one per size.

    Each monomial is keyed by its exponent vector, one exponent per size,
    e.g. for sizes (1, 3) the monomial z1^2 * z3 has key (2, 1).  `terms`
    holds the (exponents, coefficient) pairs sorted by exponents, zero
    coefficients dropped; `__init__` takes them as a mapping or as such
    pairs.  It is a container, not a ring: the oracle (`weight_polynomial`)
    and Lagrange's formula (`weighted_series`) build one per area, and
    callers compare them, read their monomials or set every marker to 1.
    """

    __slots__ = _fields = ("sizes", "terms")
    sizes: tuple[int, ...]
    terms: tuple[Monomial, ...]

    def __init__(self, sizes: Iterable[int],
                 terms: Mapping[tuple[int, ...], int] | Iterable[Monomial] = ()) -> None:
        sizes = tuple(sizes)
        pairs = tuple(sorted((exps, c) for exps, c in dict(terms).items() if c))
        for exps, _ in pairs:
            if len(exps) != len(sizes):
                raise ValueError(f"exponent vector {exps} does not match sizes {sizes}")
        super().__init__(sizes, pairs)

    def items(self) -> Iterator[Monomial]:
        """The monomials, sorted by exponent vector."""
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def eval_ones(self) -> int:
        """Value with every marker set to 1 (the plain count)."""
        return sum(c for _, c in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
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
