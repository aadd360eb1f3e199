"""Finitely generated submonoids of a finitely generated abelian group, and
the face/unit/quotient calculus on them.

A Submonoid is a presentation: an ambient group plus a canonical generator
tuple (sorted, deduplicated, zero dropped).  Equality is presentation
equality; semantic equality is same_submonoid.  Membership is exact and
cached, and contains is the only route to it.  Units, irreducible
generators, a face's presentation and pushout complements are posed as
membership in some submonoid; which generators lie in the smallest face
containing a set, the closure of faces and the test of is_face, is one cone
LP per generator instead (_smallest_face_test), since the faces of N are its
intersections with the faces of its real cone.  Membership is decided in
tiers, each exact where it answers:

1. a generator is a member;
2. a sign-separable target, with a nonzero free coordinate whose sign no
   generator shares, is not: no nonnegative combination reaches it, and
   torsion does not move a free coordinate;
3. the diophantine completion solver (congruence rows for the torsion
   coordinates) with a budget of FIRST_PASS_NODES nodes settles most of
   the rest;
4. one that overflows goes to a cone feasibility test by exact LP
   (magnetkit.lp), whose "no" is final and carries an integer Farkas
   separator checked by integer multiplication;
5. an integral LP vertex x is a witness: sum x_i g_i, formed in the group,
   must have m's free part (a check of the LP), and "yes" is final when
   its torsion part matches as well;
6. a lattice test (linalg.solve, whose "no" carries a character checked
   by multiplication);
7. a witness from the rounded LP vertex, whose "yes" is final;
8. last the complete solver at its full cap.

A deep question skips the first pass: when every witness has length at
least L, read off the target's coordinates, and the C(L + k, k)
combinations of length <= L over the k generator and torsion-slack columns
exceed FIRST_PASS_NODES, the pass cannot reach a witness, and the question
goes to tier 4 at once.  Past the first two tiers every route ends in the
complete solver, so no answer depends on the route.  The LP works in
integers throughout: its vertex comes as numerators over one denominator
and its separator as an integer multiple, so the checks of tiers 4 and 5
are integer dot products over the generators' coordinates, and their
messages, which name the monoid, are formatted only when a check fails.
Every "yes" comes as a witness, nonnegative coefficients on the generators
that sum to the target, and the cache keeps it; contains is whether there
is one.

Closed subsets of a finite support E, those S with E ∩ [S> = S, are the
closed sets of SumClosure: rules from pair sums inside E and from the
witnesses of the membership questions that certify its lists.

As contains is the only route to the solver, positive_grading is the only
route to the positive-covector search, a lazy depth-first search in lex
order that keeps O(rank * generators) memory.  Two exact readings of
membership sit beside contains for callers that ask many questions of one
monoid, and ask the solver nothing: a slice of the members of bounded
degree (_Slice, grown one degree at a time), and coefficient_test for a
simplicial monoid.

Monoid-like duck type: anything with .ambient and .contains(element) can be
used as a magnet by the graded/atlas layers (Submonoid, Intersection,
PreimageMonoid, PushoutComplement all qualify).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import add, mod, mul
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
from . import linalg, lp


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

    # a crosscheck message names the monoid by %s, formatted only on failure
    __str__ = describe


# entries kept by the membership and ideal caches; the heaviest single calls
# (closed root subsets of G2, the A3 adjoint magnets) stay below 7000
CACHE_SIZE = 2 ** 16

# node budget of the bare solver pass that every membership question past the
# generator and sign checks gets first; most questions end within it, and one
# that overflows it, or whose witnesses all lie beyond its reach, goes on to
# the tiers of _after_first_pass
FIRST_PASS_NODES = 100

# largest max-norm searched for a positive grading covector
COVECTOR_BOX = 64

# subsets of the unit group's generators that faces tries for the first
# generating one; Z^r given by +-e_i needs all 2^(2r), so Z^6 (about 0.3 s)
# is the largest such group it answers
GENERATING_SUBSET_CAP = 2 ** 12


@lru_cache(maxsize=CACHE_SIZE)
def _cached_contains(N: Submonoid, m: GroupElement) -> Optional[tuple[int, ...]]:
    """A witness of m in N, nonnegative coefficients l on N.generators with
    sum l_i g_i = m, or None when m is not a member."""
    gens = N.generators
    if m in gens:
        return tuple(int(g == m) for g in gens)
    columns = [g.coords for g in gens]
    bound = _witness_length_bound(columns, m.free)
    if not bound and any(m.free):
        return None
    # the breadth-first pass covers combinations by length, and there are
    # C(L + k, k) of length <= L over k columns; past FIRST_PASS_NODES it
    # cannot reach a witness of length L, so the tiers come first
    k = len(columns) + 2 * len(N.ambient.torsion_orders)
    if math.comb(bound + k, k) > FIRST_PASS_NODES:
        return _after_first_pass(N, m)
    moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders
    try:
        return has_nonneg_solution(columns, m.coords, moduli, max_nodes=FIRST_PASS_NODES)
    except ResourceLimitError:
        return _after_first_pass(N, m)


def _witness_length_bound(columns, free: Sequence[int]) -> int:
    """A lower bound on the coefficient sum of every witness of a target
    with free part free among the generator coordinate tuples columns.

    In a free coordinate i with free[i] > 0 each generator adds at most the
    largest positive entry of row i, so a witness has at least free[i] over
    that many summands, rounded up; likewise for free[i] < 0 with the most
    negative entry.  The bound is the largest of these.  It is 0 exactly
    when free is zero or the target is sign-separable, with a nonzero
    coordinate that no generator shares the sign of.  No nonnegative
    combination reaches a sign-separable target, whatever its torsion part,
    so _cached_contains answers "no" (None) to it without a solver call.
    """
    bound = 0
    for t, row in zip(free, zip(*columns)):
        if t > 0:
            top = max(row)
        elif t < 0:
            t, top = -t, -min(row)
        else:
            continue
        if top <= 0:
            return 0
        if t > bound * top:
            bound = -(-t // top)
    return bound


def _after_first_pass(N: Submonoid, m: GroupElement) -> Optional[tuple[int, ...]]:
    """Membership of m in N by five tiers, each exact where it answers: a
    witness on N.generators, as _cached_contains gives it, or None.

    The LP's rows are the free rows of the generator coordinate columns,
    and it answers in integers over its denominator d (magnetkit.lp).

    1. Cone: the free part of m must lie in the rational cone of the free
       parts; "no" comes with d times the LP's Farkas separator y, itself
       a separator, checked by integer dot products, and means no.
    2. Integral vertex: a vertex whose numerators x are all divisible by d
       is a witness x // d of the free part, checked by forming
       sum (x_i // d) g_i; the witness of m when its torsion part matches too.
    3. Lattice: m must be an integer combination of the generators and the
       torsion orders; "no" comes with a character, checked by
       multiplication in linalg.solve, and means no.
    4. LP rounding: floor the same LP vertex, x // d, and ask the solver
       whether the residual m - sum (x_i // d) g_i lies in N; a witness r of
       the residual gives m's, the floors plus r.  A "no" backs every floor
       off by 1, 2, 4, ..., which moves the residual deeper into the cone,
       until a residual is a member, the solver caps, or the residual would
       be m itself.
    5. The complete solver at its full node cap, whose witness is m's.
    """
    G = N.ambient
    f = G.free_rank
    moduli = (0,) * f + G.torsion_orders
    columns = [g.coords for g in N.generators]
    cone = lp.simplex([[c[i] for c in columns] for i in range(f)], m.free)
    x, d = cone.x, cone.d
    if x is None:
        # d y, and dot stops at the free coordinates, the length of y
        y = cone.separator
        crosscheck(all(linalg.dot(y, c) >= 0 for c in columns) and linalg.dot(y, m.coords) < 0,
                   "cone separator %r does not separate %r from %s", y, m, N)
        return None
    # with no free rows, or no generators, the vertex is empty: no witness
    if x and all(v % d == 0 for v in x):
        k = [v // d for v in x]
        total = G.element(linalg.dot(k, row) for row in zip(*columns))
        crosscheck(total.free == m.free,
                   "LP vertex %r over %d does not solve the free part of %r in %s", x, d, m, N)
        if total == m:
            return tuple(k)
    if linalg.solve(_lattice_matrix(G, columns), m.coords) is None:
        return None
    floors = [v // d for v in x]
    back = 0
    while any(v > back for v in floors):
        kept = [max(k - back, 0) for k in floors]
        residual = G.element(
            c - sum(k * g.coords[i] for k, g in zip(kept, N.generators))
            for i, c in enumerate(m.coords)
        )
        try:
            rest = has_nonneg_solution(columns, residual.coords, moduli)
        except ResourceLimitError:
            break
        if rest is not None:
            return tuple(map(add, kept, rest))
        back = 2 * back or 1
    return has_nonneg_solution(columns, m.coords, moduli)


def _lattice_matrix(G: FgAbelianGroup, columns):
    """One column per torsion order of G, then the given columns: their
    integer span, read in Z^coord_count, is the subgroup the columns
    generate together with the torsion relations."""
    q = G.coord_count
    cols = [tuple(n if i == G.free_rank + j else 0 for i in range(q))
            for j, n in enumerate(G.torsion_orders)]
    cols += [tuple(c) for c in columns]
    return [[col[i] for col in cols] for i in range(q)]


def contains(N: Submonoid, m: GroupElement) -> bool:
    """Exact membership of m in the submonoid N: whether _cached_contains
    finds a witness."""
    if m.ambient != N.ambient:
        raise StructuralError("element and monoid have different ambient groups")
    if m.is_zero():
        return True
    return _cached_contains(N, m) is not None


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


@lru_cache(maxsize=CACHE_SIZE)
def _shape(N: Submonoid) -> tuple[bool, bool]:
    """(is_group(N), is_sharp(N)) from one units(N).  A generator of N is a
    unit iff it is a generator of units(N), so N is a group when all of them
    are and sharp when units(N) has none; the zero monoid is both."""
    unit_gens = set(units(N).generators)
    return all(g in unit_gens for g in N.generators), not unit_gens


def is_group(N: Submonoid) -> bool:
    return _shape(N)[0]


def is_sharp(N: Submonoid) -> bool:
    return _shape(N)[1]


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


def maximal_without(n: int, closed: Iterable[tuple[int, ...]]
                    ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The pairs (p, C), for p in range(n), with C maximal among the given
    sets without p: by p, then by decreasing size.

    A greedy pass over the sets, largest first, keeps each set without p
    that lies in no kept one, so every given set without p lies in a kept
    one.  That checks a monotone extension M (M(S) holds S, and S within C
    gives M(S) within M(C)) on every given set at once: if no pair has p in
    M(C), then M(S) meets range(n) exactly in S for every given S.
    """
    masks = [(sum(1 << i for i in C), C) for C in sorted(closed, key=len, reverse=True)]
    for p in range(n):
        kept = []
        for m, C in masks:
            if not m >> p & 1 and all(m | k != k for k in kept):
                kept.append(m)
                yield p, C


def _pair_sums(E: Sequence[GroupElement]) -> Iterator[tuple[int, int, int]]:
    """The triples (i, j, k), i <= j, with E[i] + E[j] = E[k]."""
    index = {e: k for k, e in enumerate(E)}
    for i, a in enumerate(E):
        for j in range(i, len(E)):
            k = index.get(a + E[j])
            if k is not None:
                yield i, j, k


class SumClosure:
    """A sound closure on the finite support E, for listing the subsets S
    with E ∩ [S> = S by closed_sets, and a certificate that it lists them.

    The closure is by rules "P ⊆ S gives p", a premise bitmask P over E
    and a point p of [P>: the zero of E, the pair sums a + b in E of points
    a, b (a = b allowed), and rules learned from membership witnesses.  Each
    conclusion keeps only its minimal premises.  Whatever the rules, c(S)
    lies in E ∩ [S>, so every truly closed set is c-closed.

    certify(closed) asks, for each pair (p, C) of maximal_without on the
    listed sets, whether [C> holds E[p]: if none does, every listed set is
    truly closed (maximal_without), and the list is exact.  A pair that
    fails gives its witness l, checked to be nonnegative on C's generators,
    to sum to E[p] and to have its support in C; it teaches the rule
    supp(l) ⇒ p.  That rule is new unless C is not closed under the held
    rules, which means the closure ignored one, so that raises.  Rules are finitely many, so listing again after each
    learning round ends.  The first round that learns also adds the triple
    sums a + b + c in E whose partial sums leave E, the other rules dense
    supports need.
    """

    def __init__(self, E: Sequence[GroupElement]):
        self.E = tuple(E)
        self.index = {e: i for i, e in enumerate(self.E)}
        n = len(self.E)
        self.base = sum(1 << i for i, e in enumerate(self.E) if e.is_zero())
        self.base_points = tuple(i for i in range(n) if self.base >> i & 1)
        # per conclusion its minimal premises; per point the rules it is in
        self.premises = [[] for _ in range(n)]
        self.triggers = [[] for _ in range(n)]
        self.tripled = False
        for i, j, k in _pair_sums(self.E):
            self._learn(1 << i | 1 << j, k)

    def _learn(self, premise: int, p: int) -> None:
        if (premise | self.base) >> p & 1:
            return
        held = self.premises[p]
        if any(P & premise == P for P in held):
            return
        for P in [P for P in held if P & premise == premise]:
            held.remove(P)
            for a in _points(P):
                self.triggers[a].remove((P, p))
        held.append(premise)
        for a in _points(premise):
            self.triggers[a].append((premise, p))

    def __call__(self, S: Iterable[int]) -> list[int]:
        mask = self.base
        todo = list(self.base_points)
        for a in S:
            mask |= 1 << a
            todo.append(a)
        triggers = self.triggers
        while todo:
            for premise, p in triggers[todo.pop()]:
                if not mask >> p & 1 and premise & mask == premise:
                    mask |= 1 << p
                    todo.append(p)
        return _points(mask)

    def certify(self, closed: Iterable[tuple[int, ...]]) -> list[tuple[int, int]]:
        """The rules (premise, p) learned from the listed sets, each a pair
        of maximal_without whose monoid holds E[p]: none when every listed
        set is closed."""
        E = self.E
        G = E[0].ambient if E else None
        learned = []
        for p, C in maximal_without(len(E), closed):
            N = Submonoid(G, tuple(E[i] for i in C))
            if not contains(N, E[p]):
                continue
            # the witness of that answer, from the membership cache
            w = _cached_contains(N, E[p])
            gens = N.generators
            crosscheck(len(w) == len(gens) and min(w, default=0) >= 0
                       and G.element(linalg.dot(w, [g.coords[r] for g in gens])
                                     for r in range(G.coord_count)) == E[p],
                       "membership witness %r does not put %r in %s", w, E[p], N)
            premise = sum(1 << self.index[g] for g, k in zip(gens, w) if k)
            crosscheck(premise & ~sum(1 << i for i in C) == 0,
                       "membership witness %r leaves %s", w, N)
            # C was listed closed: a held rule that derives anything outside
            # C from C was ignored, and learning could loop
            crosscheck(self(C) == list(C),
                       "a listed subset generates the degree %r outside it, by a rule "
                       "the closure holds", E[p])
            learned.append((premise, p))
        for premise, p in learned:
            self._learn(premise, p)
        if learned and not self.tripled:
            self.tripled = True
            pairs = {(i, j) for i, j, _ in _pair_sums(E)}
            for i, j in itertools.combinations_with_replacement(range(len(E)), 2):
                if (i, j) in pairs:
                    continue
                ab = E[i] + E[j]
                for l in range(j, len(E)):
                    t = self.index.get(ab + E[l])
                    if t is not None and (i, l) not in pairs and (j, l) not in pairs:
                        self._learn(1 << i | 1 << j | 1 << l, t)
        return learned


def _points(mask: int) -> list[int]:
    """The indices of the set bits of mask, increasing."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _smallest_face_test(N: Submonoid, S: Iterable[GroupElement]
                        ) -> Callable[[GroupElement], bool]:
    """The test whether a member g of N lies in the smallest face of N
    containing the members S: one cone LP per g and no solver question.

    With p = sum S, g lies in that face iff g divides a member of [S>, and
    that holds iff t p - g lies in the real cone of N's free parts for some
    rational t >= 0: a divisor g + x = s has s <= t p for t the largest
    coefficient of s, and t p - g = (t p - s) + x; conversely, clearing
    denominators by K and multiplying by the torsion exponent e turns
    t p - g = sum l_i g_i into eKt p = eK g + sum eK l_i g_i in N (Bruns &
    Gubeladze, Polytopes, Rings, and K-Theory, ch. 2).  So a generator with
    zero free part, and every member when the free rank is 0, is a unit and
    lies in every face.  The LP's columns are the free parts of N's
    generators and -p, its target -g; a vertex is checked to solve that
    equation over d, and a "no" separator y to be >= 0 on every generator,
    0 on p and > 0 on g, a supporting functional of a face that holds S but
    not g, by integer dot products.
    """
    r = N.ambient.free_rank
    columns = [g.free for g in N.generators]
    p = [sum(v) for v in zip((0,) * r, *(s.free for s in S))]
    rows = [[c[i] for c in columns] + [-p[i]] for i in range(r)]

    def test(g: GroupElement) -> bool:
        if not any(g.free):
            return True
        cone = lp.simplex(rows, [-v for v in g.free])
        if cone.x is None:
            y = cone.separator
            crosscheck(all(linalg.dot(y, c) >= 0 for c in columns)
                       and linalg.dot(y, p) == 0 and linalg.dot(y, g.free) > 0,
                       "face separator %r does not support a face of %s holding %r "
                       "but not %r", y, N, p, g)
            return False
        x, d = cone.x, cone.d
        crosscheck(min(x) >= 0 and all(linalg.dot(row, x) == -d * v
                                       for row, v in zip(rows, g.free)),
                   "face LP vertex %r over %d does not put %r in the face of %s at %r",
                   x, d, g, N, p)
        return True

    return test


def is_face(F: Submonoid, N: Submonoid) -> bool:
    """Whether F is a face of N: x + y in F iff x in F and y in F.

    Decided exactly: F is a face iff every generator g of N in the smallest
    face containing F, one cone LP each (_smallest_face_test), lies in F; so
    F needs a membership question only for such g, and none for a
    generator of F.
    """
    for f in F.generators:
        if not contains(N, f):
            raise PreconditionError("face candidate is not contained in the monoid")
    in_face = _smallest_face_test(N, F.generators)
    return all(contains(F, g) for g in N.generators
               if g not in F.generators and in_face(g))


def faces(N: Submonoid, max_generators: int = 20) -> tuple[Submonoid, ...]:
    """All faces of N, each presented by its first generating subset of N's
    generators in (size, lexicographic) order.

    A face is generated by the generators it contains, and those in the
    smallest face containing S are the ones dividing a member of [S>, one
    cone LP each (_smallest_face_test): the faces are the closed sets of
    that closure.  The least one is checked against units(N) by membership.
    A face's first generating subset is the first one of the unit group N*
    plus the first generator of each irreducible class modulo N*, found by
    membership questions.
    """
    gens = N.generators
    if len(gens) > max_generators:
        raise ResourceLimitError(
            "face enumeration over %d generators exceeds the cap of %d"
            % (len(gens), max_generators)
        )

    def closure(S):
        in_face = _smallest_face_test(N, (gens[i] for i in S))
        return (i for i, g in enumerate(gens) if i in S or in_face(g))

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
    to split the search.  Past GENERATING_SUBSET_CAP subsets tried it raises
    ResourceLimitError."""
    subsets = (T for r in range(len(G.generators) + 1)
               for T in itertools.combinations(G.generators, r))
    for tried, T in enumerate(subsets, 1):
        if tried > GENERATING_SUBSET_CAP:
            raise ResourceLimitError(
                "generating-subset search over %d unit-group generators passed "
                "the cap of %d subsets" % (len(G.generators), GENERATING_SUBSET_CAP))
        if is_generating(T, G):
            return T


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


def _positive_covector(gens: Sequence[GroupElement], free_rank: int) -> tuple[int, ...]:
    """The integer covector w of least max-norm, and lex-first among those,
    with w.g >= 1 on every free part; norms above COVECTOR_BOX are not searched.

    Box B = 1, 2, ..., COVECTOR_BOX is searched depth-first in lex order, so the
    first box with a covector gives the answer, the one the sorted grid over
    doubling boxes gave, in O(rank * generators) memory.  Each free part is
    divided by its content: w.g >= 1 iff w.(g/c) >= 1 for integer w.
    """
    if not gens:
        return (0,) * free_rank
    if free_rank == 0:
        raise NoCertificateError("no free coordinates to grade by")
    contents = [math.gcd(*g.free) for g in gens]
    if all(contents):
        parts = sorted({tuple(v // c for v in g.free) for g, c in zip(gens, contents)})
        for box in range(1, COVECTOR_BOX + 1):
            w = _lex_first_covector(parts, box)
            if w is not None:
                return w
    raise NoCertificateError(
        "no positive grading covector within coordinate box %d" % COVECTOR_BOX
    )


def _lex_first_covector(parts: list[tuple[int, ...]], box: int
                        ) -> Optional[tuple[int, ...]]:
    """The lex-first w in [-box, box]^r with w.p >= 1 on every part, or None.

    Depth-first over w_1, w_2, ... in increasing order; before each branch
    the intervals of the coordinates not yet drawn are narrowed to a
    fixpoint, each part bounding every coordinate by what the others can
    still add at most, so only dead ends that the bounds cannot see are
    entered.
    """
    r = len(parts[0])
    w: list[int] = []

    def narrow(lo: list[int], hi: list[int], sums: list[int]) -> bool:
        i = len(w)
        changed = True
        while changed:
            changed = False
            for p, s in zip(parts, sums):
                tops = [max(p[j] * lo[j], p[j] * hi[j]) for j in range(i, r)]
                total = s + sum(tops)
                if total < 1:
                    return False
                for j, top in zip(range(i, r), tops):
                    need = 1 - total + top   # p[j] * w_j >= need
                    if p[j] > 0 and -(-need // p[j]) > lo[j]:
                        lo[j] = -(-need // p[j])
                        changed = True
                    elif p[j] < 0 and need // p[j] < hi[j]:
                        hi[j] = need // p[j]
                        changed = True
                    if lo[j] > hi[j]:
                        return False
        return True

    def search(lo: list[int], hi: list[int], sums: list[int]) -> bool:
        if not narrow(lo, hi, sums):
            return False
        i = len(w)
        if i == r:
            return True
        for v in range(lo[i], hi[i] + 1):
            w.append(v)
            if search(lo[:], hi[:], [s + v * p[i] for p, s in zip(parts, sums)]):
                return True
            w.pop()
        return False

    return tuple(w) if search([-box] * r, [box] * r, [0] * len(parts)) else None


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


class _Slice(dict):
    """The members of N up to the degree grown so far, on coordinate tuples,
    as {coords: degree}; levels[d] lists those of degree d.

    weights[i] is the degree of the i-th generator, positive and additive
    (a member's degree is the sum of the weights on any path to it, as for
    a GradingMorphism); the slice by combination length has every weight 1.
    grow(bound) builds each missing level d <= bound by adding every
    generator g to level d - w(g), torsion coordinates reduced mod their
    orders, and keeps a sum the first time it is reached.  The node cap is
    checked after each level.  Once the last max(w) levels are empty every
    later one is too: the slice is complete, and grow builds no more.
    """

    def __init__(self, N: Submonoid, weights: Sequence[int]):
        if min(weights, default=1) < 1:
            raise PreconditionError("a slice needs a positive degree on every generator")
        zero = (0,) * N.ambient.coord_count
        super().__init__({zero: 0})
        self.levels = [[zero]]
        self.steps = [(g.coords, w) for g, w in zip(N.generators, weights)]
        self.reach = max(weights, default=1)
        self.free_rank = N.ambient.free_rank
        self.orders = N.ambient.torsion_orders

    def grow(self, bound: int) -> None:
        levels, r, orders = self.levels, self.free_rank, self.orders
        for d in range(len(levels), bound + 1):
            if not any(levels[-self.reach:]):
                return
            level = []
            for g, w in self.steps:
                if w > d:
                    continue
                for x in levels[d - w]:
                    y = tuple(map(add, x, g))
                    if orders:
                        y = y[:r] + tuple(map(mod, y[r:], orders))
                    if y not in self:
                        self[y] = d
                        level.append(y)
            levels.append(level)
            if len(self) > DEFAULT_MAX_NODES:
                raise ResourceLimitError(
                    "member enumeration exceeded %d nodes" % DEFAULT_MAX_NODES)


def bounded_members(N: Submonoid, bound: int,
                    degree: Optional[Callable[[GroupElement], int]] = None) -> set[GroupElement]:
    """All members of degree <= bound (sharp N; exact slice).

    degree must be additive, degree(x + y) = degree(x) + degree(y), and
    positive on every generator, as a positive GradingMorphism.degree is: it
    is read once per generator and the slice grows by it.  With degree None
    the slice is by combination length instead, which is only a finite
    approximation and is used where the caller says so.
    """
    S = _Slice(N, [1 if degree is None else degree(g) for g in N.generators])
    S.grow(bound)
    return {GroupElement(N.ambient, x) for x in S}


@lru_cache(maxsize=CACHE_SIZE)
def coefficient_test(N: Submonoid) -> Optional[Callable[[Sequence[int]], bool]]:
    """Membership in a simplicial N, read off a target's coefficient vector;
    None when N is not simplicial.

    N is simplicial when the free parts of its generators are linearly
    independent, a generator whose negative is also a generator (a +- pair)
    counted once.  Then the coefficients c with sum c_i g_i = m, over one
    generator per pair, are unique if they exist, and m lies in N iff c is
    integral, satisfies every free row, is >= 0 off the +- pairs and
    reproduces m's torsion part (Bruns & Gubeladze, Polytopes, Rings, and
    K-Theory, ch. 2).  One Smith decomposition A = S D T of the free parts
    is read once; for a target t, u = Sinv t must vanish past the k nonzero
    diagonal entries and be divisible by them on the diagonal, and then
    c = Tinv (u / D).  The test takes coordinate tuples, free coordinates
    first, and is exact; it asks the solver nothing.
    """
    gens = set(N.generators)
    columns = [g for g in N.generators if not (-g in gens and -g < g)]
    r = N.ambient.free_rank
    k = len(columns)
    sm = linalg.smith([[g.free[i] for g in columns] for i in range(r)])
    if sm.rank < k:
        return None
    diag = sm.diagonal[:k]
    Sinv, Tinv = sm.Sinv, sm.Tinv
    signed = [-g in gens for g in columns]
    orders = N.ambient.torsion_orders
    torsion_rows = [[g.torsion[j] for g in columns] for j in range(len(orders))]

    def test(m: Sequence[int]) -> bool:
        u = [sum(map(mul, row, m)) for row in Sinv]  # map stops at the free part
        if any(u[k:]) or any(v % d for v, d in zip(u, diag)):
            return False
        y = [v // d for v, d in zip(u, diag)]
        c = [sum(map(mul, row, y)) for row in Tinv]
        if any(x < 0 for x, s in zip(c, signed) if not s):
            return False
        return all((sum(map(mul, row, c)) - t) % n == 0
                   for row, t, n in zip(torsion_rows, m[r:], orders))

    return test


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
        return source.element(linalg.dot(row, y) for row in S)


def sharp_quotient(N: Submonoid) -> SharpQuotient:
    """Quotient the ambient group by the unit group of N.

    Returns the quotient group in invariant-factor form, the sharp image
    monoid, and the projection (with a set-theoretic section available).
    """
    M = N.ambient
    q = M.coord_count
    sm = linalg.smith(_lattice_matrix(M, [u.coords for u in units(N).generators]))
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
        y = [linalg.dot(row, m.coords) for row in sm.Sinv]
        return qgroup.element(y[pos] for pos in positions)

    projection = GroupHom(M, qgroup, tuple(project(b) for b in M.basis_elements()))
    image = Submonoid(qgroup, tuple(projection.apply(g) for g in N.generators))
    crosscheck(is_sharp(image), "sharp quotient image is not sharp")
    return SharpQuotient(qgroup, image, projection, (sm.S, positions, M))


@dataclass(frozen=True)
class PushoutComplement:
    """L' with (L minus N) removed: the monoid-like L' \\ (L \\ N).

    Membership is exact via the stored predicate parts.  The generator tuple
    is a finite slice (degree <= pushout_complement's degree_bound under a
    positive grading of the sharpened L', lifted through a section),
    sufficient for operations that only probe finite degree sets; the full
    complement need not be finitely generated.
    """

    inner: Submonoid
    removed: Submonoid
    outer: Submonoid
    generators: tuple[GroupElement, ...]

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
    result = PushoutComplement(N, L, Lp, tuple(sorted(gens)))
    crosscheck(is_face(N, Submonoid(Lp.ambient, result.generators)),
               "pushout complement lost the face property")
    return result
