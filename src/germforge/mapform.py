"""The Moebius map type, `MoebiusMap`, with `ProjectivePoint`.

Maps are 2x2 matrices up to scale, stored with the first nonzero entry in
row-major order scaled to 1 so projective equality is plain comparison.

Parsing a document of Moebius maps builds `MoebiusMap`s and uses nothing
else of the Moebius layer.  Without a bytecode cache every module on that
path is compiled at each start, so this module holds only the two types and
`ExtensionRequiredError`; composition, orders, square roots, fixed points
and the holonomy verdict are in `moebius`, which re-exports the names here.
`MoebiusMap.compose` and `order` call `moebius.moebius_compose` and
`moebius.moebius_order` through the package at call time: the first such
call imports `moebius`, and a function replaced there by name is the one
that runs.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import germforge

from .cyclo import CycloField, CycloNum, OrderResult


class ExtensionRequiredError(ArithmeticError):
    """The working field holds no square root of the discriminant; the fixed
    points lie in a quadratic extension of it."""


# ---------------------------------------------------------------------------


class ProjectivePoint(NamedTuple):
    """Point [u : v] of P^1; canonical form is (z, 1) for affine z, (1, 0) for infinity."""

    u: CycloNum
    v: CycloNum

    @staticmethod
    def make(u: CycloNum, v: CycloNum) -> "ProjectivePoint":
        if v.is_zero():
            if u.is_zero():
                raise ValueError("[0 : 0] is not a projective point")
            return ProjectivePoint(u.field.one(), u.field.zero())
        return ProjectivePoint(u / v, v.field.one())

    @staticmethod
    def infinity(fld: CycloField) -> "ProjectivePoint":
        return ProjectivePoint(fld.one(), fld.zero())

    @property
    def is_infinity(self) -> bool:
        return self.v.is_zero()

    def sort_key(self):
        return (1 if self.is_infinity else 0, self.u.sort_key(), self.v.sort_key())

    def __repr__(self) -> str:
        return "Point(inf)" if self.is_infinity else f"Point({self.u})"


class MoebiusMap:
    """z -> (a z + b) / (c z + d) as the matrix [[a, b], [c, d]], det != 0.

    Equality and hashing use the integer numerators and denominators of the
    normalized entries, kept from construction.  A map is immutable, so the
    hash and the results of `order()`, `inverse()` and
    `conjugacy_invariant()` are kept in slots once computed.
    """

    __slots__ = ("matrix", "field", "_key", "_hash", "_order", "_inverse", "_invariant")

    def __init__(self, matrix: Sequence[Sequence[CycloNum]]):
        (a, b), (c, d) = matrix
        fld = a.field
        scale = next((x for x in (a, b, c, d) if not x.is_zero()), None)
        if scale is None:
            raise ValueError("zero matrix is not a Moebius map")
        inv = scale.inverse()
        a, b, c, d = a * inv, b * inv, c * inv, d * inv
        if (a * d - b * c).is_zero():
            raise ValueError("matrix determinant is zero")
        self.matrix = ((a, b), (c, d))
        self.field = fld
        self._key = (fld.conductor, tuple((x.num, x.den) for x in (a, b, c, d)))
        self._hash = None
        self._order = None
        self._inverse = None
        self._invariant = None

    @classmethod
    def identity(cls, fld: CycloField) -> "MoebiusMap":
        one, zero = fld.one(), fld.zero()
        return cls(((one, zero), (zero, one)))

    @property
    def shape(self) -> tuple[CycloField]:
        return (self.field,)

    def is_identity(self) -> bool:
        (a, b), (c, d) = self.matrix
        return b.is_zero() and c.is_zero() and a == d

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return germforge.moebius.moebius_compose(self, other)

    def order(self) -> OrderResult:
        """`moebius.moebius_order`, computed once per map object."""
        if self._order is None:
            self._order = germforge.moebius.moebius_order(self)
        return self._order

    def conjugacy_invariant(self) -> CycloNum:
        """trace^2 / det, the projective class of the characteristic polynomial,
        computed once per map object."""
        if self._invariant is None:
            t = self.trace()
            self._invariant = t * t / self.det()
        return self._invariant

    def infinite_order_screen(self) -> Optional[str]:
        """Why this map has infinite order, from one cheap sound test, or None.

        A finite-order map has eigenvalues with ratio u a root of unity, so
        trace^2/det = 2 + u + 1/u is an algebraic integer.  None decides
        nothing.
        """
        invariant = self.conjugacy_invariant()
        if not invariant.is_integral():
            return (f"trace^2/det = {invariant} is not an algebraic integer, but a "
                    "finite-order map has 2 + u + 1/u with u a root of unity")
        return None

    def canonical_key(self):
        return (self.field.conductor, tuple(c.sort_key() for row in self.matrix for c in row))

    def entries(self):
        (a, b), (c, d) = self.matrix
        return a, b, c, d

    def det(self) -> CycloNum:
        a, b, c, d = self.entries()
        return a * d - b * c

    def trace(self) -> CycloNum:
        a, _, _, d = self.entries()
        return a + d

    def inverse(self) -> "MoebiusMap":
        """The adjugate map, computed once per map object.  The inverse does
        not point back, so a map and its inverse form no reference cycle."""
        if self._inverse is None:
            a, b, c, d = self.entries()
            self._inverse = MoebiusMap(((d, -b), (-c, a)))
        return self._inverse

    def apply(self, p: ProjectivePoint) -> ProjectivePoint:
        a, b, c, d = self.entries()
        return ProjectivePoint.make(a * p.u + b * p.v, c * p.u + d * p.v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __repr__(self) -> str:
        a, b, c, d = self.entries()
        return f"MoebiusMap([[{a}, {b}], [{c}, {d}]])"
