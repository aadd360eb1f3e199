"""Graded affine presentations and the attractor calculus.

Two presentation variants cover everything implemented here: free polynomial
rings with weighted variables, and monoid algebras with a killed monomial
ideal.  General homogeneous relation ideals are deliberately out of scope
(they would need Groebner machinery and no implemented operation requires
them).  Presentations are coefficient-agnostic: only the grading matters, the
coefficient tag is carried for display.

The attractor of a presentation under a magnet N kills the graded pieces of
degree outside N.  For a free polynomial ring that is exactly the variables
with degree outside N (degrees inside N are closed under addition).  For a
monoid algebra Z[N0] it is the monomial ideal generated by N0 minus N, whose
membership test peels generators: m is a member iff m escapes N, or m - g is
a member for some generator g with m - g in N0.  A support report decides the
same ideal on the slice of members of bounded degree, lowest degree first,
growing the slice one degree at a time as it goes: the slice holds every
divisor of its members, so the peel reads the decisions already made there
instead of asking N0, and the scan stops at the first degree that certifies
a finite support, having built no degree above it.  An avoided magnet that
is a simplicial Submonoid answers from its coefficient vectors, and any other
is asked through contains.

Each question goes to the monoid layer once: whether a monoid is a group or
sharp is one cached verdict per monoid (monoids.is_group and is_sharp read
it off one units call), and a free-chart attractor asks the magnet once per
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mod, sub
from typing import Callable, Optional, Sequence, Union

from .errors import (
    PreconditionError,
    SharpenRequiredError,
    StructuralError,
    crosscheck,
)
from .groups import FgAbelianGroup, GroupElement, GroupHom, as_int
from .monoids import (
    CACHE_SIZE,
    Submonoid,
    _Slice,
    coefficient_test,
    intersection,
    is_face,
    is_group,
    is_sharp,
    positive_grading,
    units,
)


@dataclass(frozen=True)
class FreePoly:
    """Polynomial ring on weighted variables, graded by the ambient group."""

    grading_group: FgAbelianGroup
    vars: tuple[tuple[str, GroupElement], ...]
    coeff: str = field(default="Q", compare=False)

    def __post_init__(self):
        names = [n for n, _ in self.vars]
        if len(set(names)) != len(names):
            raise StructuralError("variable names must be unique")
        for _, d in self.vars:
            if d.ambient != self.grading_group:
                raise StructuralError("variable degree outside the grading group")

    @classmethod
    def of(cls, group: FgAbelianGroup, var_degrees: Sequence[tuple[str, Sequence[int]]],
           coeff: str = "Q") -> "FreePoly":
        return cls(group, tuple((n, group.element(d)) for n, d in var_degrees), coeff)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    def degrees(self) -> tuple[GroupElement, ...]:
        return tuple(d for _, d in self.vars)

    def var_degree(self, name: str) -> GroupElement:
        for n, d in self.vars:
            if n == name:
                return d
        raise StructuralError("no variable named %r" % name)

    def describe(self) -> str:
        inner = ", ".join("%s:%r" % (n, d) for n, d in self.vars)
        return "%s[%s]" % (self.coeff, inner)


@dataclass(frozen=True)
class MonoidIdeal:
    """Monomial ideal of a monoid algebra, generators plus avoided magnets.

    A degree m lies in the ideal when m - g stays in the ambient monoid for
    some explicit generator g, or when it lies in the ideal generated by the
    complement of an avoided magnet: m escapes the magnet, or peeling one
    monoid generator off m stays in the monoid and lands in that ideal.
    """

    ambient: Submonoid
    generators: tuple[GroupElement, ...] = ()
    avoided: tuple = ()

    def __post_init__(self):
        for g in self.generators:
            if not self.ambient.contains(g):
                raise StructuralError("ideal generator outside the ambient monoid")
        for a in self.avoided:
            if a.ambient != self.ambient.ambient:
                raise StructuralError("avoided magnet in a different ambient group")
        object.__setattr__(self, "generators", tuple(sorted(set(self.generators))))

    def contains(self, m: GroupElement) -> bool:
        if not self.ambient.contains(m):
            return False
        return _ideal_member(self, m)

    def union(self, other: "MonoidIdeal") -> "MonoidIdeal":
        if other.ambient != self.ambient:
            raise StructuralError("ideal union across different monoids")
        return MonoidIdeal(
            self.ambient,
            self.generators + other.generators,
            self.avoided + other.avoided,
        )

    def is_known_empty(self) -> bool:
        if self.generators:
            return False
        return all(
            all(a.contains(g) for g in self.ambient.generators) for a in self.avoided
        )


@lru_cache(maxsize=CACHE_SIZE)
def _ideal_member(I: MonoidIdeal, m: GroupElement) -> bool:
    """Whether m, a member of I.ambient, lies in I."""
    N0 = I.ambient
    for g in I.generators:
        if N0.contains(m - g):
            return True
    if I.avoided:
        if is_group(N0):
            # in a group everything divides everything: all or nothing
            return any(
                not a.contains(g) for a in I.avoided for g in N0.generators
            )
        if not is_sharp(N0):
            raise PreconditionError("ideal membership needs a sharp monoid or a group")
        # the peels of m are exactly its divisors, finitely many as N0 is sharp
        seen = {m}
        work = [m]
        while work:
            x = work.pop()
            if any(not a.contains(x) for a in I.avoided):
                return True
            for g in N0.generators:
                y = x - g
                if y not in seen and N0.contains(y):
                    seen.add(y)
                    work.append(y)
    return False


@dataclass(frozen=True)
class MonoidAlgebra:
    """Z[N0] / (X^n : n in killed), graded by the ambient of N0."""

    monoid: Submonoid
    killed: Optional[MonoidIdeal] = None
    coeff: str = field(default="Q", compare=False)

    def __post_init__(self):
        if self.killed is None:
            object.__setattr__(self, "killed", MonoidIdeal(self.monoid))
        elif self.killed.ambient != self.monoid:
            raise StructuralError("killed ideal lives over a different monoid")

    @property
    def grading_group(self) -> FgAbelianGroup:
        return self.monoid.ambient

    def survives(self, m: GroupElement) -> bool:
        """Whether the graded piece at m is nonzero in the quotient."""
        return self.monoid.contains(m) and not _ideal_member(self.killed, m)

    def describe(self) -> str:
        base = "%s[%s]" % (self.coeff, self.monoid.describe())
        if self.killed.is_known_empty():
            return base
        return base + " / (killed ideal)"


@dataclass(frozen=True)
class WeightModule:
    """Finite weight decomposition: (weight, multiplicity, label) entries."""

    grading_group: FgAbelianGroup
    weights: tuple[tuple[GroupElement, int, Optional[str]], ...]

    def __post_init__(self):
        rows = []
        for w, mult, label in self.weights:
            if w.ambient != self.grading_group:
                raise StructuralError("weight outside the grading group")
            mult = as_int(mult, "a multiplicity")
            if mult < 1:
                raise StructuralError("multiplicities must be >= 1")
            rows.append((w, mult, label))
        object.__setattr__(
            self, "weights", tuple(sorted(rows, key=lambda e: (e[0], e[2] or "", e[1])))
        )

    @classmethod
    def of(cls, group: FgAbelianGroup, entries) -> "WeightModule":
        """entries: (coords, mult) or (coords, mult, label) tuples."""
        rows = []
        for e in entries:
            coords, mult = e[0], e[1]
            label = e[2] if len(e) > 2 else None
            rows.append((group.element(coords), mult, label))
        return cls(group, tuple(rows))

    @property
    def dimension(self) -> int:
        return sum(m for _, m, _ in self.weights)

    def filter(self, pred) -> "WeightModule":
        return WeightModule(
            self.grading_group, tuple(e for e in self.weights if pred(e[0]))
        )

    def direct_sum(self, other: "WeightModule") -> "WeightModule":
        if other.grading_group != self.grading_group:
            raise StructuralError("direct sum across different grading groups")
        return WeightModule(self.grading_group, self.weights + other.weights)

    def describe(self) -> str:
        return " + ".join(
            "%r%s x%d" % (w, ":" + l if l else "", m) for w, m, l in self.weights
        )


Presentation = Union[FreePoly, MonoidAlgebra]


@dataclass(frozen=True)
class AttractorResult:
    killed: object
    quotient: Presentation


def attractor(P: Presentation, N) -> AttractorResult:
    """The closed subscheme cut out by the graded pieces of degree outside N."""
    if N.ambient != P.grading_group:
        raise StructuralError("magnet and presentation have different grading groups")
    if isinstance(P, FreePoly):
        inside = [N.contains(d) for _, d in P.vars]
        survivors = tuple(v for v, kept in zip(P.vars, inside) if kept)
        killed = tuple(v[0] for v, kept in zip(P.vars, inside) if not kept)
        return AttractorResult(killed, FreePoly(P.grading_group, survivors, P.coeff))
    if isinstance(P, MonoidAlgebra):
        if not is_sharp(P.monoid):
            raise SharpenRequiredError(
                "monoid-algebra attractors need a sharp underlying monoid; "
                "pass through sharp_quotient and reindex first"
            )
        ideal = MonoidIdeal(P.monoid, avoided=(N,))
        quotient = MonoidAlgebra(P.monoid, P.killed.union(ideal), P.coeff)
        return AttractorResult(ideal, quotient)
    raise StructuralError("unsupported presentation %r" % (P,))


def weight_attractor(W: WeightModule, N) -> WeightModule:
    """Keep exactly the weight entries whose weight lies in N."""
    if N.ambient != W.grading_group:
        raise StructuralError("magnet and module have different grading groups")
    return W.filter(N.contains)


@dataclass(frozen=True)
class SupportReport:
    """Degree support of a monoid-algebra quotient, with certificates.

    members is the full support when finite is True, otherwise the slice that
    the probe bound reached.  finite None means the probe was inconclusive.
    non_reduced True is always certified by an explicit nilpotent monomial;
    False is certified only alongside a finiteness or group argument.
    """

    members: tuple[GroupElement, ...]
    finite: Optional[bool]
    certified_degree: Optional[int]
    non_reduced: Optional[bool]


def support_report(A: MonoidAlgebra, probe_bound: int = 24) -> SupportReport:
    """Enumerate the surviving degrees of A with a finiteness certificate.

    Sharp case: pick a positive functional h on the monoid, and for B = 0,
    1, ..., probe_bound grow the slice of members to degree B and decide
    the members of degree B.  For g a monoid generator or an explicit killed
    generator, m - g has degree at most h(m), so it lies in the monoid iff
    it lies in the slice: a member is killed when m - g is in the slice for
    an explicit generator g, when m - g is a killed member for a monoid
    generator g, or when m escapes an avoided magnet.  No membership
    question goes to the monoid.  An avoided magnet that is a simplicial
    Submonoid answers from its coefficient vectors (_magnet_test); any
    other avoided magnet is asked at most once per member, through
    contains.  The slice and these decisions work on coordinate tuples,
    torsion reduced mod its orders; a GroupElement is built only to ask an
    avoided magnet through contains and for the members reported.

    After degree B is decided, if every member in the window (B - maxh, B] is
    killed then every member above B - maxh is killed too (peel generators off
    a representation: some partial sum lands in the window, and ideals
    absorb), so the support is finite and fully listed, and the slice is
    never grown above B.  A finite support with a nonzero member forces
    nilpotency: the multiples of that member eventually leave the support.

    A group algebra is reduced.  When the group is finite, all its generators
    having zero free part, its word-length slice is grown until it is
    complete, whatever the probe bound, so the support is listed in full.
    """
    N0 = A.monoid
    G = N0.ambient
    zero = G.zero()
    if not N0.generators:
        alive = A.survives(zero)
        return SupportReport((zero,) if alive else (), True, 0, False)
    if is_group(N0):
        if not A.survives(zero):
            return SupportReport((), True, 0, False)
        finite = all(not any(g.free) for g in N0.generators)
        S = _Slice(N0, [1] * len(N0.generators))
        # a word in a finite group is no longer than the group's order
        S.grow(math.prod(G.torsion_orders) if finite else probe_bound)
        return SupportReport(tuple(sorted(GroupElement(G, x) for x in S)), finite, None, False)

    r = G.free_rank
    orders = G.torsion_orders

    def reduced(coords):
        return coords[:r] + tuple(map(mod, coords[r:], orders)) if orders else coords

    h = positive_grading(N0).degree
    weights = [h(g) for g in N0.generators]
    maxh = max(weights)
    I = A.killed
    explicit = [g.coords for g in I.generators]
    peels = [g.coords for g in N0.generators]
    inside = [_magnet_test(a) for a in I.avoided]
    S = _Slice(N0, weights)
    killed: set[tuple] = set()
    survivors: list[tuple] = []
    # the least B whose window (B - maxh, B] holds no survivor found so far
    free_from = maxh
    for B in range(probe_bound + 1):
        S.grow(B)
        for m in S.levels[B]:
            if (any(reduced(tuple(map(sub, m, g))) in S for g in explicit)
                    or any(reduced(tuple(map(sub, m, g))) in killed for g in peels)
                    or not all(t(m) for t in inside)):
                killed.add(m)
            else:
                survivors.append(m)
                free_from = B + maxh
        if B >= free_from:
            members = tuple(GroupElement(G, m) for m in sorted(survivors))
            return SupportReport(members, True, B, any(not m.is_zero() for m in members))
    # k * h(m) <= probe_bound puts k * m in the slice, so it is decided
    witnessed = any(
        reduced(tuple(k * c for c in m)) in killed
        for m in survivors
        if any(m)
        for k in range(2, probe_bound // S[m] + 1)
    )
    members = tuple(GroupElement(G, m) for m in sorted(survivors))
    return SupportReport(members, None, None, True if witnessed else None)


def _magnet_test(a) -> Callable[[tuple], bool]:
    """Membership in the magnet a, asked on reduced coordinate tuples.

    A simplicial Submonoid answers from its coefficient vectors
    (monoids.coefficient_test); any other magnet is asked through contains.
    """
    simplicial = coefficient_test(a) if isinstance(a, Submonoid) else None
    if simplicial is not None:
        return simplicial
    return lambda m: a.contains(GroupElement(a.ambient, m))


@dataclass(frozen=True)
class ClosedInclusion:
    """Witness that the attractor of the smaller magnet sits inside the bigger."""

    extra_killed: tuple


def _kept(Q: Presentation) -> frozenset:
    """What survives in Q: the variable names of a free Q, or the probes (zero
    plus the monoid generators) at which a monoid-algebra Q survives; the
    probes decide the killed ideal, which is generated at generator level."""
    if isinstance(Q, FreePoly):
        return frozenset(Q.names())
    probes = (Q.monoid.ambient.zero(),) + Q.monoid.generators
    return frozenset(p for p in probes if Q.survives(p))


def inclusion_is_closed(P: Presentation, N: Submonoid, L) -> ClosedInclusion:
    """Check N subset L on generators, then killed(L) subset killed(N)."""
    for g in N.generators:
        if not L.contains(g):
            raise PreconditionError("inclusion check needs N contained in L")
    kept_N = _kept(attractor(P, N).quotient)
    kept_L = _kept(attractor(P, L).quotient)
    crosscheck(kept_N <= kept_L, "killed-set containment failed on %r", sorted(kept_N - kept_L))
    return ClosedInclusion(tuple(sorted(kept_L - kept_N)))


@dataclass(frozen=True)
class FaceRetraction:
    """Section and retraction between X^F and X^N for a face F of N.

    The section kills the variables of degree in N but not F; the retraction
    is the variable inclusion of the F-degree variables.  Composing them is
    the identity on the X^F presentation, asserted at construction.
    """

    attractor_presentation: FreePoly
    face_presentation: FreePoly
    section_kills: tuple[str, ...]


def face_retraction(P: Presentation, N: Submonoid, F: Submonoid) -> FaceRetraction:
    if not isinstance(P, FreePoly):
        raise PreconditionError("face retractions are implemented for free presentations")
    if not is_face(F, N):
        raise PreconditionError("F must be a face of N")
    PN = attractor(P, N).quotient
    step = attractor(PN, F)
    PF = attractor(P, F).quotient
    crosscheck(step.quotient == PF, "retraction composite is not the identity")
    return FaceRetraction(PN, PF, step.killed)


def prescribed_limit(target, N: Submonoid, F: Submonoid, Z,
                     zero_coords: Sequence[str] = ()):
    """X^N with the limit in X^F constrained to land in Z.

    Z is "unit" (keep nothing of F: kill every F-degree variable of nonzero
    degree plus the designated zero-degree coordinates, or drop all F-weights)
    or, explicitly, the extra data of the closed subscheme: a list of X^F
    variable names to kill, respectively a weight submodule of the F-part.
    """
    if not is_face(F, N):
        raise PreconditionError("F must be a face of N")
    if isinstance(target, WeightModule):
        kept = [e for e in target.weights if N.contains(e[0]) and not F.contains(e[0])]
        if Z == "unit":
            z_entries = ()
        else:
            if not isinstance(Z, WeightModule) or Z.grading_group != target.grading_group:
                raise PreconditionError("Z must be a weight module over the same grading group")
            f_part = [e for e in target.weights if N.contains(e[0]) and F.contains(e[0])]
            pool = list(f_part)
            for e in Z.weights:
                if not F.contains(e[0]) or e not in pool:
                    raise PreconditionError("Z is not inside the F-part of the module")
                pool.remove(e)
            z_entries = Z.weights
        return WeightModule(target.grading_group, tuple(kept) + tuple(z_entries))
    if isinstance(target, FreePoly):
        PN = attractor(target, N).quotient
        f_vars = [(n, d) for n, d in PN.vars if F.contains(d)]
        f_names = {n for n, _ in f_vars}
        if Z == "unit":
            to_kill = {n for n, d in f_vars if not d.is_zero()}
            for n in zero_coords:
                if n not in f_names or not PN.var_degree(n).is_zero():
                    raise PreconditionError("designated coordinate %r is not a zero-degree X^F variable" % n)
                to_kill.add(n)
        else:
            to_kill = set()
            for n in Z:
                if n not in f_names:
                    raise PreconditionError("Z variable %r is not an X^F variable" % n)
                to_kill.add(n)
        remaining = tuple(v for v in PN.vars if v[0] not in to_kill)
        return FreePoly(target.grading_group, remaining, target.coeff)
    raise StructuralError("unsupported prescribed-limit target %r" % (target,))


def intersect_attractors(P: Presentation, magnets: Sequence) -> AttractorResult:
    """Attractor of the intersection; killed data is the union of killed data."""
    if not magnets:
        raise PreconditionError("need at least one magnet")
    res = attractor(P, intersection(*magnets))
    want = frozenset.intersection(*(_kept(attractor(P, N).quotient) for N in magnets))
    crosscheck(_kept(res.quotient) == want, "killed set is not the union of the parts")
    return res


def iterated_attractor(P: Presentation, N, L) -> AttractorResult:
    """(X^N)^L computed both ways: iterate, and intersect; asserted equal."""
    step = attractor(attractor(P, N).quotient, L)
    direct = attractor(P, intersection(N, L))
    crosscheck(_kept(step.quotient) == _kept(direct.quotient),
               "iterated attractor disagrees with the intersection")
    return direct


def product_attractor(W1: WeightModule, W2: WeightModule, N) -> WeightModule:
    """Attractor of a direct sum, asserted equal to the sum of attractors."""
    combined = weight_attractor(W1.direct_sum(W2), N)
    split = weight_attractor(W1, N).direct_sum(weight_attractor(W2, N))
    crosscheck(combined == split, "attractor does not commute with the direct sum")
    return combined


def semidirect_dims(W: WeightModule, N: Submonoid) -> tuple[int, int, int]:
    """(dim W^N, dim W^{N*}, dim W^N with prescribed unit limit)."""
    star = units(N)
    total = weight_attractor(W, N).dimension
    limit_part = weight_attractor(W, star).dimension
    prescribed_part = prescribed_limit(W, N, star, "unit").dimension
    crosscheck(total == limit_part + prescribed_part, "semidirect dimension bookkeeping failed")
    return (total, limit_part, prescribed_part)


def reindex(P, f: GroupHom):
    """Push a presentation forward along a grading-group homomorphism."""
    if isinstance(P, FreePoly):
        if P.grading_group != f.domain:
            raise StructuralError("presentation not graded by the domain")
        return FreePoly(f.codomain, tuple((n, f.apply(d)) for n, d in P.vars), P.coeff)
    if isinstance(P, WeightModule):
        if P.grading_group != f.domain:
            raise StructuralError("module not graded by the domain")
        return WeightModule(
            f.codomain, tuple((f.apply(w), m, l) for w, m, l in P.weights)
        )
    if isinstance(P, MonoidAlgebra):
        if P.grading_group != f.domain:
            raise StructuralError("algebra not graded by the domain")
        if not P.killed.is_known_empty():
            raise PreconditionError("reindexing is only defined before killing an ideal")
        image = Submonoid(
            f.codomain, tuple(f.apply(g) for g in P.monoid.generators)
        )
        return MonoidAlgebra(image, None, P.coeff)
    raise StructuralError("unsupported presentation %r" % (P,))
