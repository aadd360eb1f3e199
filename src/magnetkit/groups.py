"""Finitely generated abelian groups and their elements.

A group is Z^free_rank x Z/n_1 x ... x Z/n_t with the torsion orders stored in
nondecreasing order.  An element is its ambient group and one tuple of
coordinates: the free ones as plain ints, then the torsion ones reduced to
canonical residues, so dataclass equality is semantic equality.  The hash
reads the coordinates alone; elements of different groups with the same
coordinates hash alike and still compare unequal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, mod
from typing import Iterable, Sequence

from .errors import StructuralError


def as_int(value, what: str) -> int:
    """value as an int, through operator.index: int() would truncate 2.7
    and parse '3', so anything but an integer raises StructuralError."""
    try:
        return index(value)
    except TypeError:
        raise StructuralError("%s must be an integer, got %r" % (what, value)) from None


@dataclass(frozen=True, order=True)
class FgAbelianGroup:
    free_rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        free_rank = as_int(self.free_rank, "free_rank")
        if free_rank < 0:
            raise StructuralError("free_rank must be nonnegative")
        orders = tuple(as_int(n, "a torsion order") for n in self.torsion_orders)
        if any(n < 2 for n in orders):
            raise StructuralError("torsion orders must be >= 2, got %r" % (orders,))
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_orders", tuple(sorted(orders)))

    @property
    def coord_count(self) -> int:
        return self.free_rank + len(self.torsion_orders)

    def element(self, coords: Iterable[int]) -> GroupElement:
        """Build an element from free coordinates followed by torsion residues."""
        coords = tuple(coords)
        try:
            coords = tuple(map(index, coords))
        except TypeError:
            # int() would truncate 1.5 or parse '12'; refuse all but integers
            for i, c in enumerate(coords):
                if not hasattr(type(c), "__index__"):
                    raise StructuralError(
                        "coordinate %d must be an integer, got %r" % (i, c)) from None
            raise
        if len(coords) != self.coord_count:
            raise StructuralError(
                "expected %d coordinates for %r, got %d"
                % (self.coord_count, self, len(coords))
            )
        r = self.free_rank
        if self.torsion_orders:
            coords = coords[:r] + tuple(map(mod, coords[r:], self.torsion_orders))
        return GroupElement(self, coords)

    def zero(self) -> GroupElement:
        return self.element((0,) * self.coord_count)

    def basis_elements(self) -> tuple[GroupElement, ...]:
        """Canonical generators: free unit vectors, then torsion generators."""
        out = []
        for i in range(self.coord_count):
            coords = [0] * self.coord_count
            coords[i] = 1
            out.append(self.element(coords))
        return tuple(out)

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append("Z^%d" % self.free_rank if self.free_rank > 1 else "Z")
        parts.extend("Z/%d" % n for n in self.torsion_orders)
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True, order=True)
class GroupElement:
    # Build through FgAbelianGroup.element, which also refuses non-integers
    # and reduces the torsion coordinates; a caller holding coordinates
    # already in that form may construct directly.  Within one group the
    # order is lexicographic on coords, so sorted tuples of elements are
    # canonical.  Equality compares the ambient group too, the hash skips it.
    ambient: FgAbelianGroup = field(hash=False)
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.ambient.coord_count:
            raise StructuralError("coordinate shape does not match ambient group")

    @property
    def free(self) -> tuple[int, ...]:
        return self.coords[: self.ambient.free_rank]

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.coords[self.ambient.free_rank :]

    def __add__(self, other: GroupElement) -> GroupElement:
        _check_same_ambient(self, other)
        return self.ambient.element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: GroupElement) -> GroupElement:
        _check_same_ambient(self, other)
        return self.ambient.element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> GroupElement:
        return self.ambient.element(tuple(-a for a in self.coords))

    def scale(self, k: int) -> GroupElement:
        return self.ambient.element(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __repr__(self):
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def _check_same_ambient(a: GroupElement, b: GroupElement):
    if a.ambient != b.ambient:
        raise StructuralError("elements live in different groups: %r vs %r" % (a.ambient, b.ambient))


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism determined by images of the canonical generators.

    images lists, in order, the images of the free unit vectors and then of
    the torsion generators.  A torsion generator of order n must map to an
    element killed by n; this is checked at construction.
    """

    domain: FgAbelianGroup
    codomain: FgAbelianGroup
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.coord_count:
            raise StructuralError("need one image per canonical generator")
        for img in self.images:
            if img.ambient != self.codomain:
                raise StructuralError("image outside the codomain")
        for order, img in zip(
            self.domain.torsion_orders, self.images[self.domain.free_rank :]
        ):
            if not img.scale(order).is_zero():
                raise StructuralError(
                    "torsion generator of order %d maps to an element not killed by it" % order
                )

    def apply(self, el: GroupElement) -> GroupElement:
        if el.ambient != self.domain:
            raise StructuralError("element not in the domain")
        acc = self.codomain.zero()
        for c, img in zip(el.coords, self.images):
            if c:
                acc = acc + img.scale(c)
        return acc

    def __call__(self, el: GroupElement) -> GroupElement:
        return self.apply(el)


def hom_from_matrix(domain: FgAbelianGroup, codomain: FgAbelianGroup,
                    columns: Sequence[Sequence[int]]) -> GroupHom:
    """GroupHom from integer coordinate columns (one per canonical generator)."""
    return GroupHom(domain, codomain, tuple(codomain.element(c) for c in columns))
