"""Finitely generated submonoids of a finitely generated abelian group, and
the face/unit/quotient calculus on them.

A Submonoid is a presentation: an ambient group plus a canonical generator
tuple (sorted, deduplicated, zero dropped).  Equality is presentation
equality; semantic equality is same_submonoid.  Membership is decided exactly
by the diophantine completion solver, with congruence rows for the torsion
coordinates, and is cached; contains is the only route to the solver, so
every question (faces, irreducible generators, pushout complements) is posed
as membership in some submonoid.  Likewise positive_grading is the only route
to the positive-covector search.

Monoid-like duck type: anything with .ambient and .contains(element) can be
used as a magnet by the graded/atlas layers (Submonoid, Intersection,
PreimageMonoid, PushoutComplement all qualify).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .diophantine import DEFAULT_MAX_NODES, has_nonneg_solution
from .errors import (
    NoCertificateError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
    crosscheck,
)
from .groups import FgAbelianGroup, GroupElement, GroupHom
from . import linalg


@dataclass(frozen=True)
class Submonoid:
    ambient: FgAbelianGroup
    generators: tuple[GroupElement, ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            if g.ambient != self.ambient:
                raise StructuralError("generator outside the ambient group")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "generators", tuple(sorted(set(gens))))

    @classmethod
    def generated_by(cls, ambient: FgAbelianGroup,
                     coords: Iterable[Sequence[int]]) -> "Submonoid":
        return cls(ambient, tuple(ambient.element(c) for c in coords))

    @classmethod
    def zero(cls, ambient: FgAbelianGroup) -> "Submonoid":
        return cls(ambient, ())

    @classmethod
    def full(cls, ambient: FgAbelianGroup) -> "Submonoid":
        gens = list(ambient.basis_elements())
        gens += [-g for g in gens[: ambient.free_rank]]
        return cls(ambient, tuple(gens))

    @classmethod
    def subgroup_generated_by(cls, ambient: FgAbelianGroup,
                              coords: Iterable[Sequence[int]]) -> "Submonoid":
        els = [ambient.element(c) for c in coords]
        return cls(ambient, tuple(els + [-e for e in els]))

    def contains(self, m: GroupElement) -> bool:
        return contains(self, m)

    def is_zero_monoid(self) -> bool:
        return not self.generators

    def describe(self) -> str:
        if not self.generators:
            return "[0]"
        return "[" + ", ".join(repr(g) for g in self.generators) + ">"


# entries kept by the membership and ideal caches; the heaviest single calls
# (closed root subsets of G2, the A3 adjoint magnets) stay below 7000
CACHE_SIZE = 2 ** 16


@lru_cache(maxsize=CACHE_SIZE)
def _cached_contains(N: Submonoid, m: GroupElement) -> bool:
    moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders
    return has_nonneg_solution([g.coords for g in N.generators], m.coords, moduli)


def contains(N: Submonoid, m: GroupElement) -> bool:
    """Exact membership of m in the submonoid N."""
    if m.ambient != N.ambient:
        raise StructuralError("element and monoid have different ambient groups")
    if m.is_zero():
        return True
    return _cached_contains(N, m)


def same_submonoid(N: Submonoid, L: Submonoid) -> bool:
    """Semantic equality: mutual containment of generators."""
    return all(contains(L, g) for g in N.generators) and all(
        contains(N, g) for g in L.generators
    )


def units(N: Submonoid) -> Submonoid:
    """The subgroup N* of invertible elements, itself returned as a Submonoid.

    A generator g is invertible iff -g in N; the invertible generators
    generate N* (any unit is a combination whose summands are all forced to be
    units, N* being a face).
    """
    inv = [g for g in N.generators if contains(N, -g)]
    return Submonoid(N.ambient, tuple(inv + [-g for g in inv]))


def is_group(N: Submonoid) -> bool:
    return all(contains(N, -g) for g in N.generators)


def is_sharp(N: Submonoid) -> bool:
    return not units(N).generators


def groupification(N: Submonoid) -> Submonoid:
    """The subgroup generated by N (differences of members)."""
    return Submonoid(N.ambient, N.generators + tuple(-g for g in N.generators))


def closed_sets(n: int, closure: Callable[[tuple[int, ...]], Iterable[int]]
                ) -> Iterator[tuple[int, ...]]:
    """Every closed set of a closure operator on range(n), in lectic order.

    Ganter's NextClosure (Ganter & Reuter, Order 1991), at most n closures
    per closed set.  closure(S) takes a sorted index tuple and yields the
    closure's indices in increasing order; a candidate is read only until an
    index below i outside A rejects it, so a lazy closure saves that work.
    """
    A = tuple(closure(()))
    while True:
        yield A
        for i in reversed(range(n)):
            if i in A:
                continue
            B = []
            for j in closure(tuple(a for a in A if a < i) + (i,)):
                if j < i and j not in A:
                    break
                B.append(j)
            else:
                A = tuple(B)
                break
        else:
            return


def is_face(F: Submonoid, N: Submonoid) -> bool:
    """Whether F is a face of N: x + y in F iff x in F and y in F.

    Decided exactly: F is a face iff no generator g of N outside F divides a
    member of F, i.e. g + (N-member) = (F-member) has no solution: g is not in
    [F, -gens of N>, the membership question the faces closure asks.
    """
    for f in F.generators:
        if not contains(N, f):
            raise PreconditionError("face candidate is not contained in the monoid")
    divides = Submonoid(N.ambient, F.generators + tuple(-g for g in N.generators))
    return not any(contains(divides, g) for g in N.generators if not contains(F, g))


def faces(N: Submonoid, max_generators: int = 20) -> tuple[Submonoid, ...]:
    """All faces of N, each presented by its first generating subset of N's
    generators in (size, lexicographic) order.

    A face is generated by the generators it contains, and those in the
    smallest face containing S are the ones dividing a member of [S>, the
    members of [S, -gens>: the faces are the closed sets of that closure.
    A face's first generating subset is the first one of the unit group N*
    plus the first generator of each irreducible class modulo N*.
    """
    gens = N.generators
    if len(gens) > max_generators:
        raise ResourceLimitError(
            "face enumeration over %d generators exceeds the cap of %d"
            % (len(gens), max_generators)
        )
    negated = tuple(-g for g in gens)

    def closure(S):
        divides = Submonoid(N.ambient, tuple(gens[i] for i in S) + negated)
        return (i for i, g in enumerate(gens) if i in S or contains(divides, g))

    closed = list(closed_sets(len(gens), closure))
    unit_group = Submonoid(N.ambient, tuple(gens[i] for i in closed[0]))
    crosscheck(same_submonoid(unit_group, units(N)),
               "the least face disagrees with the unit group")
    unit_part = _first_generating_subset(unit_group)
    found = []
    for C in closed:
        inside = [gens[i] for i in C]
        picks = []
        for g in inside:
            if g in unit_group.generators:
                continue
            # g is the first of an irreducible class iff the earlier generators
            # and the later ones outside its class do not generate it
            rest = tuple(h for h in inside if h < g or not contains(unit_group, h - g))
            if not contains(Submonoid(N.ambient, rest), g):
                picks.append(g)
        found.append(Submonoid(N.ambient, unit_part + tuple(picks)))
    return tuple(sorted(found, key=lambda F: (len(F.generators), F.generators)))


def _first_generating_subset(G: Submonoid) -> tuple[GroupElement, ...]:
    """The first subset of G's generators in (size, lexicographic) order that
    generates G: faces needs it for the unit group, which has no proper faces
    to split the search."""
    subsets = (T for r in range(len(G.generators) + 1)
               for T in itertools.combinations(G.generators, r))
    return next(T for T in subsets if is_generating(T, G))


def is_generating(S: Iterable[GroupElement], N: Submonoid) -> bool:
    """Whether the finite subset S of N generates N."""
    S = tuple(S)
    for s in S:
        if not contains(N, s):
            raise PreconditionError("candidate generator is not a member of the monoid")
    sub = Submonoid(N.ambient, S)
    return all(contains(sub, g) for g in N.generators)


def monoid_rank_sharp(N: Submonoid) -> int:
    """Size of the unique minimal generating set of a sharp monoid.

    A presented generator g is redundant (a sum of at least two generators)
    iff g - h is in N for another generator h.  Such a sum gives g
    coefficient 0, since otherwise subtracting g leaves 0 as a nonempty sum
    of nonzero generators, which sharpness forbids; so g - h is in N for any
    h it uses.  Conversely g = h + (member of N) with h != g is a sum of at
    least two generators.
    """
    if not is_sharp(N):
        raise PreconditionError("monoid rank is only computed for sharp monoids")
    gens = N.generators
    irreducible = [
        g for g in gens if not any(contains(N, g - h) for h in gens if h != g)
    ]
    crosscheck(is_generating(irreducible, N),
               "irreducible generators do not generate the monoid")
    return len(irreducible)


@dataclass(frozen=True)
class Intersection:
    """Intersection of monoid-likes, usable as a magnet without generators."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise StructuralError("empty intersection")
        amb = self.parts[0].ambient
        for p in self.parts:
            if p.ambient != amb:
                raise StructuralError("intersection across different ambient groups")

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.parts[0].ambient

    def contains(self, m: GroupElement) -> bool:
        return all(p.contains(m) for p in self.parts)

    def describe(self) -> str:
        return " & ".join(p.describe() for p in self.parts)


def intersection(*parts):
    flat = []
    for p in parts:
        if isinstance(p, Intersection):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Intersection(tuple(flat))


@dataclass(frozen=True)
class PreimageMonoid:
    """f^{-1}(Y) for a group hom f and a monoid-like Y in the codomain."""

    hom: GroupHom
    target: object

    def __post_init__(self):
        if self.target.ambient != self.hom.codomain:
            raise StructuralError("preimage target must live in the hom codomain")

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.hom.domain

    def contains(self, m: GroupElement) -> bool:
        return self.target.contains(self.hom.apply(m))

    def describe(self) -> str:
        return "preimage of " + self.target.describe()


@dataclass(frozen=True)
class GradingMorphism:
    """A monoid map N -> N_0 given by an integer covector on free coordinates.

    Linearity makes it well defined on every relation automatically; positivity
    on the generators is checked at construction, so h(x) >= 1 for nonzero
    members and h^{-1}(0) = {0}.
    """

    monoid: Submonoid
    covector: tuple[int, ...]

    def __post_init__(self):
        if len(self.covector) != self.monoid.ambient.free_rank:
            raise StructuralError("covector length must match the free rank")
        for g in self.monoid.generators:
            if self.degree(g) <= 0:
                raise StructuralError("grading not positive on generator %r" % (g,))

    def degree(self, m: GroupElement) -> int:
        return sum(w * c for w, c in zip(self.covector, m.free))

    def values(self) -> dict:
        return {g: self.degree(g) for g in self.monoid.generators}


def _positive_covector(gens: Sequence[GroupElement], free_rank: int,
                       max_box: int = 64) -> tuple[int, ...]:
    """Smallest-box integer covector strictly positive on all free parts."""
    if not gens:
        return (0,) * free_rank
    if free_rank == 0:
        raise NoCertificateError("no free coordinates to grade by")
    tested_box = 0
    box = 1
    while box <= max_box:
        candidates = sorted(
            itertools.product(range(-box, box + 1), repeat=free_rank),
            key=lambda w: (max(abs(v) for v in w), w),
        )
        for w in candidates:
            if max(abs(v) for v in w) <= tested_box:
                continue
            if all(sum(a * b for a, b in zip(w, g.free)) >= 1 for g in gens):
                return w
        tested_box = box
        box *= 2
    raise NoCertificateError(
        "no positive grading covector within coordinate box %d" % max_box
    )


def positive_grading(N: Submonoid) -> GradingMorphism:
    """A grading h: N -> N_0 with h > 0 on nonzero members, read off the free
    parts.

    Exists exactly when N is sharp: a nonnegative relation among the free
    parts of the generators would scale (by the torsion exponent) to a
    relation among the generators themselves, producing a unit.
    """
    if not is_sharp(N):
        raise PreconditionError("positive grading requires a sharp monoid")
    return GradingMorphism(N, _positive_covector(N.generators, N.ambient.free_rank))


def bounded_members(N: Submonoid, bound: int,
                    degree: Optional[Callable[[GroupElement], int]] = None,
                    max_nodes: int = DEFAULT_MAX_NODES) -> set[GroupElement]:
    """All members of degree <= bound (sharp N; exact slice).

    With degree None the slice is by combination length instead, which is only
    a finite approximation and is used where the caller says so.
    """
    frontier = {N.ambient.zero()}
    seen = set(frontier)
    for level in range(bound):
        new = set()
        for x in frontier:
            for g in N.generators:
                y = x + g
                if y in seen:
                    continue
                if degree is not None and degree(y) > bound:
                    continue
                new.add(y)
        seen |= new
        if len(seen) > max_nodes:
            raise ResourceLimitError("member enumeration exceeded %d nodes" % max_nodes)
        frontier = new
        if not frontier:
            break
    if degree is None:
        return seen
    return {x for x in seen if degree(x) <= bound}


@dataclass(frozen=True)
class SharpQuotient:
    """ambient/units(N) together with the projected monoid and the maps."""

    group: FgAbelianGroup
    monoid: Submonoid
    projection: GroupHom
    _section_data: tuple = field(repr=False)

    def apply(self, m: GroupElement) -> GroupElement:
        return self.projection.apply(m)

    def section(self, mbar: GroupElement) -> GroupElement:
        """One preimage of mbar (a set-theoretic section, not a hom)."""
        if mbar.ambient != self.group:
            raise StructuralError("element not in the quotient group")
        S, positions, source = self._section_data
        q = source.coord_count
        y = [0] * q
        for coord, pos in zip(mbar.coords, positions):
            y[pos] = coord
        x = S @ linalg.as_object_matrix([[v] for v in y])
        return source.element(int(x[i, 0]) for i in range(q))


def sharp_quotient(N: Submonoid) -> SharpQuotient:
    """Quotient the ambient group by the unit group of N.

    Returns the quotient group in invariant-factor form, the sharp image
    monoid, and the projection (with a set-theoretic section available).
    """
    M = N.ambient
    q = M.coord_count
    unit_gens = units(N).generators
    cols = []
    for j, order in enumerate(M.torsion_orders):
        col = [0] * q
        col[M.free_rank + j] = order
        cols.append(col)
    cols += [list(u.coords) for u in unit_gens]
    if cols:
        R = linalg.as_object_matrix([[col[i] for col in cols] for i in range(q)])
    else:
        R = linalg.as_object_matrix([[] for _ in range(q)], width=0)
    sm = linalg.smith(R)
    diag = list(sm.diagonal) + [0] * (q - len(sm.diagonal))

    free_positions = [i for i in range(q) if diag[i] == 0]
    torsion_positions = sorted(
        (i for i in range(q) if diag[i] >= 2), key=lambda i: (diag[i], i)
    )
    qgroup = FgAbelianGroup(
        len(free_positions), tuple(diag[i] for i in torsion_positions)
    )
    positions = free_positions + torsion_positions

    def project(m: GroupElement) -> GroupElement:
        y = sm.Sinv @ linalg.as_object_matrix([[c] for c in m.coords])
        coords = []
        for pos in free_positions:
            coords.append(int(y[pos, 0]))
        for pos in torsion_positions:
            coords.append(int(y[pos, 0]) % diag[pos])
        return qgroup.element(coords)

    projection = GroupHom(M, qgroup, tuple(project(b) for b in M.basis_elements()))
    image = Submonoid(qgroup, tuple(projection.apply(g) for g in N.generators))
    crosscheck(is_sharp(image), "sharp quotient image is not sharp")
    return SharpQuotient(qgroup, image, projection, (sm.S, positions, M))


@dataclass(frozen=True)
class PushoutComplement:
    """L' with (L minus N) removed: the monoid-like L' \\ (L \\ N).

    Membership is exact via the stored predicate parts.  The generator tuple
    is a finite slice (degree <= degree_bound under a positive grading of the
    sharpened L', lifted through a section), sufficient for operations that
    only probe finite degree sets; the full complement need not be finitely
    generated.
    """

    inner: Submonoid
    removed: Submonoid
    outer: Submonoid
    generators: tuple[GroupElement, ...]
    degree_bound: int

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.outer.ambient

    def contains(self, m: GroupElement) -> bool:
        if not contains(self.outer, m):
            return False
        if contains(self.inner, m):
            return True
        return not contains(self.removed, m)

    def describe(self) -> str:
        return "%s \\ (%s \\ %s)" % (
            self.outer.describe(),
            self.removed.describe(),
            self.inner.describe(),
        )


def pushout_complement(N: Submonoid, L: Submonoid, Lp: Submonoid,
                       degree_bound: int = 10) -> PushoutComplement:
    """The pushout complement N' = L' \\ (L \\ N) for a face L of L'.

    N' is a monoid containing N as a face; both facts are consequences of the
    face hypothesis and the second is asserted on the extracted finite part.
    """
    for g in N.generators:
        if not contains(L, g):
            raise PreconditionError("N must be contained in L")
    for g in L.generators:
        if not contains(Lp, g):
            raise PreconditionError("L must be contained in L'")
    if not is_face(L, Lp):
        raise PreconditionError("L must be a face of L'")

    sq = sharp_quotient(Lp)
    h = positive_grading(sq.monoid).degree
    lifted = []
    for mbar in sorted(bounded_members(sq.monoid, degree_bound, h)):
        if mbar.is_zero():
            continue
        x = sq.section(mbar)
        # fibers over nonzero degrees sit entirely inside or outside L
        if not contains(L, x):
            lifted.append(x)
    gens: list[GroupElement] = list(N.generators)
    for x in sorted(lifted, key=lambda e: (h(sq.apply(e)), e.coords)):
        if not contains(Submonoid(Lp.ambient, tuple(gens)), x):
            gens.append(x)
    result = PushoutComplement(N, L, Lp, tuple(sorted(gens)), degree_bound)
    crosscheck(is_face(N, Submonoid(Lp.ambient, result.generators)),
               "pushout complement lost the face property")
    return result
