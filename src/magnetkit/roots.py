"""Split root data with integral realizations and attractor dimensions.

Types A1..A4 use the GL convention (roots e_i - e_j inside Z^(k+1)) so every
weight is integral; B2 and G2 use their standard integral realizations.
Dimensions are computed at the weight-module level throughout: the adjoint
module is weight 0 with the torus multiplicity plus one line per root, and
Levi/parabolic/root-group dimensions come from weight attractors, matching
the group-level objects line for line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import PreconditionError, ResourceLimitError, StructuralError, crosscheck
from .graded import WeightModule, prescribed_limit, weight_attractor
from .groups import FgAbelianGroup, GroupElement
from .monoids import Submonoid, closed_sets, intersection, is_face


@dataclass(frozen=True)
class RootSystem:
    lattice_rank: int
    roots: tuple[GroupElement, ...]
    basis: tuple[GroupElement, ...]
    positives: tuple[GroupElement, ...]

    def __post_init__(self):
        Phi = set(self.roots)
        if not Phi:
            raise StructuralError("empty root set")
        if len(Phi) != len(self.roots):
            raise StructuralError("duplicate roots")
        for r in self.roots:
            if r.is_zero():
                raise StructuralError("zero is not a root")
            if -r not in Phi:
                raise StructuralError("root set is not symmetric at %r" % (r,))
            if r + r in Phi:
                raise StructuralError("non-reduced: twice %r is a root" % (r,))
        pos = set(self.positives)
        if not set(self.basis) <= pos or not pos <= Phi:
            raise StructuralError("need basis inside positives inside roots")
        if pos | {-p for p in pos} != Phi or pos & {-p for p in pos}:
            raise StructuralError("positives must split the roots in halves")
        cone = Submonoid(self.ambient, self.basis)
        for p in self.positives:
            if not cone.contains(p):
                raise StructuralError(
                    "positive root %r is not a basis combination" % (p,)
                )

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.roots[0].ambient


@dataclass(frozen=True)
class ReductiveDatum:
    rootsystem: RootSystem
    torus_rank: int

    def __post_init__(self):
        rs = self.rootsystem
        cols = [[r.coords[i] for r in rs.roots] for i in range(rs.lattice_rank)]
        span_rank = linalg.smith(cols).rank
        if self.torus_rank < span_rank:
            raise StructuralError("torus rank below the rank of the root span")


def _system(rank: int, root_coords, basis_coords, positive_coords) -> RootSystem:
    G = FgAbelianGroup(rank, ())
    mk = lambda cs: tuple(G.element(c) for c in cs)
    return RootSystem(rank, mk(root_coords), mk(basis_coords), mk(positive_coords))


@lru_cache(maxsize=None)
def build(name: str) -> ReductiveDatum:
    """Bundled datum by type name: A1..A4 (GL convention), B2, G2."""
    if name in ("A1", "A2", "A3", "A4"):
        k = int(name[1])
        n = k + 1
        e = lambda i: tuple(1 if j == i else 0 for j in range(n))
        sub = lambda a, b: tuple(x - y for x, y in zip(a, b))
        positives = [sub(e(i), e(j)) for i in range(n) for j in range(n) if i < j]
        roots = positives + [sub(e(j), e(i)) for i in range(n) for j in range(n) if i < j]
        basis = [sub(e(i), e(i + 1)) for i in range(k)]
        return ReductiveDatum(_system(n, roots, basis, positives), n)
    if name == "B2":
        positives = [(1, -1), (0, 1), (1, 0), (1, 1)]
        roots = positives + [tuple(-x for x in p) for p in positives]
        return ReductiveDatum(_system(2, roots, [(1, -1), (0, 1)], positives), 2)
    if name == "G2":
        positives = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
        roots = positives + [tuple(-x for x in p) for p in positives]
        return ReductiveDatum(_system(2, roots, [(1, 0), (0, 1)], positives), 2)
    raise StructuralError("unsupported root system type %r" % (name,))


def adjoint_module(datum: ReductiveDatum) -> WeightModule:
    rs = datum.rootsystem
    entries = [(rs.ambient.zero(), datum.torus_rank, "t")]
    entries += [(r, 1, "g" + repr(r)) for r in rs.roots]
    return WeightModule(rs.ambient, tuple(entries))


def _check_zeta(datum: ReductiveDatum, zeta) -> tuple[GroupElement, ...]:
    zeta = tuple(zeta)
    for a in zeta:
        if a not in datum.rootsystem.basis:
            raise PreconditionError("%r is not a simple root" % (a,))
    return zeta


@dataclass(frozen=True)
class SubgroupReport:
    """A magnet cut from root data, its root trace, and the attractor dimension."""

    magnet: Submonoid
    roots: frozenset
    dim: int


def levi(datum: ReductiveDatum, zeta) -> SubgroupReport:
    """Magnet generated by zeta and its negatives; Levi root trace and dimension."""
    zeta = _check_zeta(datum, zeta)
    rs = datum.rootsystem
    theta = tuple(zeta) + tuple(-a for a in zeta)
    magnet = Submonoid(rs.ambient, theta)
    trace = frozenset(r for r in rs.roots if magnet.contains(r))
    # theta generates a group, so the trace must match the integer span of zeta
    cols = [[a.coords[i] for a in zeta] for i in range(rs.lattice_rank)]
    by_span = frozenset(r for r in rs.roots if linalg.in_span(cols, r.coords))
    crosscheck(trace == by_span, "Levi trace disagrees with the span computation")
    dim = weight_attractor(adjoint_module(datum), magnet).dimension
    crosscheck(dim == datum.torus_rank + len(trace), "Levi dimension bookkeeping failed")
    return SubgroupReport(magnet, trace, dim)


def parabolic(datum: ReductiveDatum, zeta) -> SubgroupReport:
    """Magnet generated by all simple roots plus the negatives of zeta."""
    zeta = _check_zeta(datum, zeta)
    rs = datum.rootsystem
    sigma = tuple(rs.basis) + tuple(-a for a in zeta)
    magnet = Submonoid(rs.ambient, sigma)
    trace = frozenset(r for r in rs.roots if magnet.contains(r))
    crosscheck(trace == set(rs.positives) | levi(datum, zeta).roots,
               "parabolic trace is not positives plus Levi roots")
    dim = weight_attractor(adjoint_module(datum), magnet).dimension
    crosscheck(dim == datum.torus_rank + len(trace), "parabolic dimension bookkeeping failed")
    return SubgroupReport(magnet, trace, dim)


def root_group(datum: ReductiveDatum, alpha: GroupElement) -> tuple[int, int]:
    """(dim of the [alpha>-attractor, dim with prescribed unit limit)."""
    rs = datum.rootsystem
    if alpha not in rs.roots:
        raise PreconditionError("%r is not a root" % (alpha,))
    N = Submonoid(rs.ambient, (alpha,))
    adj = adjoint_module(datum)
    dim_h = weight_attractor(adj, N).dimension
    crosscheck(dim_h == datum.torus_rank + 1, "root attractor dimension is off")
    dim_u = prescribed_limit(adj, N, Submonoid.zero(rs.ambient), "unit").dimension
    crosscheck(dim_u == 1, "prescribed-limit root space is not a line")
    return (dim_h, dim_u)


def closed_subsets(datum: ReductiveDatum, cap: int = 12) -> tuple[frozenset, ...]:
    """All root subsets closed under addition inside the root set.

    They are the closed sets of the pairwise-sum closure inside the root set,
    listed by closed_sets; each is then verified to equal the root trace of
    the monoid it generates, which is the form the magnet correspondence
    uses.
    """
    rs = datum.rootsystem
    n = len(rs.roots)
    if n > cap:
        raise ResourceLimitError("root set of size %d exceeds the cap %d" % (n, cap))
    # roots lie in the free lattice Z^lattice_rank: sums are coordinate sums
    coords = [r.coords for r in rs.roots]
    idx = {c: i for i, c in enumerate(coords)}

    def closure(S):
        members = set(S)
        todo = list(S)
        while todo:
            a = coords[todo.pop()]
            for j in list(members):
                k = idx.get(tuple(x + y for x, y in zip(a, coords[j])))
                if k is not None and k not in members:
                    members.add(k)
                    todo.append(k)
        return sorted(members)

    out = []
    for C in closed_sets(n, closure):
        S = frozenset(rs.roots[i] for i in C)
        gen = Submonoid(rs.ambient, tuple(S))
        trace = frozenset(r for r in rs.roots if gen.contains(r))
        crosscheck(trace == S, "closed subset %r is not its own monoid trace", S)
        out.append(S)
    return tuple(sorted(out, key=lambda S: (len(S), sorted(r.coords for r in S))))


@dataclass(frozen=True)
class CartesianSquareReport:
    dims: tuple[int, int, int, int]
    face_ok: bool
    complement_ok: bool
    sum_ok: bool
    identity_ok: bool

    @property
    def passed(self) -> bool:
        return self.face_ok and self.complement_ok and self.sum_ok and self.identity_ok


def cartesian_square(datum: ReductiveDatum, xi, zeta) -> CartesianSquareReport:
    """The parabolic/Levi square for xi inside zeta, checked on root sets.

    Outer pair: the zeta-parabolic magnet and its Levi face.  Inner pair: the
    xi-parabolic magnet and its intersection with the Levi.  The set identity
    (the inner parabolic is the outer one minus the missing Levi part), the
    sum identity, and the dimension identity are all verified; results are
    reported rather than asserted so a failing hypothesis is visible.
    """
    xi = _check_zeta(datum, xi)
    zeta = _check_zeta(datum, zeta)
    if not set(xi) <= set(zeta):
        raise PreconditionError("xi must be contained in zeta")
    rs = datum.rootsystem
    adj = adjoint_module(datum)
    Lp = parabolic(datum, zeta).magnet
    L = levi(datum, zeta).magnet
    Np = parabolic(datum, xi).magnet
    N = intersection(L, Np)

    face_ok = is_face(L, Lp)
    probes = (rs.ambient.zero(),) + rs.roots
    complement_ok = all(
        Np.contains(p) == (Lp.contains(p) and (N.contains(p) or not L.contains(p)))
        for p in probes
    )
    sum_monoid = Submonoid(rs.ambient, L.generators + Np.generators)
    sum_ok = all(Lp.contains(p) == sum_monoid.contains(p) for p in rs.roots)

    dims = tuple(
        weight_attractor(adj, m).dimension for m in (Lp, Np, L, N)
    )
    identity_ok = dims[0] + dims[3] == dims[2] + dims[1]
    return CartesianSquareReport(dims, face_ok, complement_ok, sum_ok, identity_ok)
