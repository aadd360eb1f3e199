"""Split root data with integral realizations and attractor dimensions.

Types A1..A4 use the GL convention (roots e_i - e_j inside Z^(k+1)) so every
weight is integral; B2 and G2 use their standard integral realizations.
Dimensions are computed at the weight-module level throughout: the adjoint
module is weight 0 with the torus multiplicity plus one line per root, and
Levi/parabolic/root-group dimensions come from weight attractors, matching
the group-level objects line for line.

Two routes decide membership.  A root magnet [alpha_i (i in P), -alpha_j
(j in Q)> on simple roots (Levi, parabolic, and the sum and intersection
of a square) is simplicial, so a root or zero lies in it by the sign
pattern of its simple-root coordinates, computed once per root system
(RootMagnet).  The solver (monoids.contains) decides the rest: faces of a
square, closed root subsets and root groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import add

from . import linalg
from .errors import PreconditionError, ResourceLimitError, StructuralError, crosscheck
from .graded import WeightModule, prescribed_limit, weight_attractor
from .groups import FgAbelianGroup, GroupElement
from .monoids import CACHE_SIZE, Submonoid, SumClosure, closed_sets, is_face


@dataclass(frozen=True)
class RootSystem:
    lattice_rank: int
    roots: tuple[GroupElement, ...]
    basis: tuple[GroupElement, ...]
    positives: tuple[GroupElement, ...]
    # each root and zero: (indices i with c_i > 0, indices i with c_i < 0),
    # c its coordinates in the basis of simple roots
    signs: dict = field(init=False, repr=False, compare=False)

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
        n = len(self.basis)
        cols = [[b.coords[i] for b in self.basis] for i in range(self.lattice_rank)]
        if linalg.smith(cols).rank != n:
            raise StructuralError("the simple roots are linearly dependent")
        # every positive root is a sum of simple roots whose partial sums are
        # roots (Bourbaki, Lie Groups and Lie Algebras, ch. VI, 1.6, Cor. 1),
        # so adding simple roots to the roots reached reaches them all; the
        # simple roots are independent, so each coordinate vector is unique
        targets = {p.coords for p in self.positives}
        coords = {b.coords: tuple(int(j == i) for j in range(n))
                  for i, b in enumerate(self.basis)}
        todo = list(coords)
        while todo:
            p = todo.pop()
            for i, b in enumerate(self.basis):
                s = tuple(map(add, p, b.coords))
                if s in targets and s not in coords:
                    c = coords[p]
                    coords[s] = c[:i] + (c[i] + 1,) + c[i + 1:]
                    todo.append(s)
        signs = {self.ambient.zero(): (frozenset(), frozenset())}
        for p in self.positives:
            if p.coords not in coords:
                raise StructuralError(
                    "positive root %r is not a basis combination" % (p,)
                )
            up = frozenset(i for i, c in enumerate(coords[p.coords]) if c)
            signs[p], signs[-p] = (up, frozenset()), (frozenset(), up)
        object.__setattr__(self, "signs", signs)

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.roots[0].ambient


@dataclass(frozen=True)
class ReductiveDatum:
    rootsystem: RootSystem
    torus_rank: int

    def __post_init__(self):
        # every root is an integer combination of the independent simple
        # roots, so they span a lattice of rank len(basis)
        if self.torus_rank < len(self.rootsystem.basis):
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


@lru_cache(maxsize=CACHE_SIZE)
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


@dataclass(frozen=True)
class RootMagnet:
    """The magnet [alpha_i (i in up), -alpha_j (j in down)> on the simple
    roots alpha of a root system, asked about its roots and zero.

    The simple roots are independent, so the magnet holds exactly the
    lattice points sum c_i alpha_i with c_i >= 0 off down, c_i <= 0 off up
    and c_i = 0 off both: a root or zero lies in it iff every i with c_i > 0
    is in up and every i with c_i < 0 is in down.  The sum of two such
    magnets is the one of the unions, their intersection the one of the
    intersections.
    """

    rootsystem: RootSystem
    up: frozenset
    down: frozenset

    @property
    def ambient(self) -> FgAbelianGroup:
        return self.rootsystem.ambient

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        basis = self.rootsystem.basis
        return tuple(basis[i] for i in self.up) + tuple(-basis[j] for j in self.down)

    def contains(self, m: GroupElement) -> bool:
        signs = self.rootsystem.signs.get(m)
        if signs is None:
            raise PreconditionError("%r is neither a root nor zero" % (m,))
        return signs[0] <= self.up and signs[1] <= self.down


def _trace(rs: RootSystem, magnet) -> frozenset:
    """The roots that lie in the magnet."""
    return frozenset(r for r in rs.roots if magnet.contains(r))


def _span_roots(datum: ReductiveDatum, zeta) -> frozenset:
    """The roots in the integer span of the simple roots zeta, by set
    arithmetic alone: the sum closure of zeta and its negatives inside the
    root set.  Every positive root of the span is a sum of roots of zeta
    whose partial sums are roots (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, 1.6, Cor. 1), and the negative ones likewise.  Roots lie in the
    free lattice Z^lattice_rank, so sums are coordinate sums, formed only
    for the pairs the closure meets, so a Levi or parabolic report builds
    no table of all pair sums, as monoids.SumClosure does."""
    Phi = {r.coords: r for r in datum.rootsystem.roots}
    members = {a.coords for a in zeta} | {(-a).coords for a in zeta}
    todo = list(members)
    while todo:
        a = todo.pop()
        for b in list(members):
            s = tuple(map(add, a, b))
            if s in Phi and s not in members:
                members.add(s)
                todo.append(s)
    return frozenset(Phi[c] for c in members)


def _indices(rs: RootSystem, zeta) -> frozenset:
    return frozenset(rs.basis.index(a) for a in zeta)


def _report(datum: ReductiveDatum, up: frozenset, down: frozenset, kind: str,
            expected: frozenset, trace_message: str) -> SubgroupReport:
    """The magnet [alpha_i (i in up), -alpha_j (j in down)>, its root trace
    crosschecked against expected, and its attractor dimension crosschecked
    against the torus rank plus the trace."""
    rs = datum.rootsystem
    magnet = RootMagnet(rs, up, down)
    trace = _trace(rs, magnet)
    crosscheck(trace == expected, trace_message)
    dim = weight_attractor(adjoint_module(datum), magnet).dimension
    crosscheck(dim == datum.torus_rank + len(trace), "%s dimension bookkeeping failed", kind)
    return SubgroupReport(Submonoid(rs.ambient, magnet.generators), trace, dim)


def levi(datum: ReductiveDatum, zeta) -> SubgroupReport:
    """Magnet generated by zeta and its negatives; Levi root trace and dimension."""
    zeta = _check_zeta(datum, zeta)
    Z = _indices(datum.rootsystem, zeta)
    # zeta and its negatives generate a group, so the trace is the span of zeta
    return _report(datum, Z, Z, "Levi", _span_roots(datum, zeta),
                   "Levi trace disagrees with the span computation")


def parabolic(datum: ReductiveDatum, zeta) -> SubgroupReport:
    """Magnet generated by all simple roots plus the negatives of zeta; its
    trace is checked against the positives plus the Levi roots, by span."""
    zeta = _check_zeta(datum, zeta)
    rs = datum.rootsystem
    return _report(datum, frozenset(range(len(rs.basis))), _indices(rs, zeta), "parabolic",
                   frozenset(rs.positives) | _span_roots(datum, zeta),
                   "parabolic trace is not positives plus Levi roots")


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
    monoids.SumClosure with no learned rule, listed by closed_sets.  Each is
    then the root trace of the monoid it generates, the form the magnet
    correspondence uses: SumClosure.certify verifies that only for each root
    r and each closed set maximal among those without r, whose monoid must
    miss r; every closed set without r lies in one of them.
    """
    rs = datum.rootsystem
    n = len(rs.roots)
    if n > cap:
        raise ResourceLimitError("root set of size %d exceeds the cap %d" % (n, cap))
    closure = SumClosure(rs.roots)
    closed = list(closed_sets(n, closure))
    failed = closure.certify(closed)
    crosscheck(not failed, "the monoid of a closed root subset holds the root %r outside it",
               failed and rs.roots[failed[0][1]])
    out = (frozenset(rs.roots[i] for i in C) for C in closed)
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

    Outer pair: the zeta-parabolic magnet L' and its Levi face L, inner pair:
    the xi-parabolic magnet N' and its intersection N with the Levi, each
    report built once.  The set identity (the inner parabolic is the outer
    one minus the missing Levi part), the sum identity, and the dimension
    identity are read off the reports' traces and dimensions; the sum L + N'
    and N are root magnets too, decided by their sign rules, and whether L
    is a face of L' goes to the solver.  Results are reported rather than
    asserted so a failing hypothesis is visible.
    """
    xi = _check_zeta(datum, xi)
    zeta = _check_zeta(datum, zeta)
    if not set(xi) <= set(zeta):
        raise PreconditionError("xi must be contained in zeta")
    rs = datum.rootsystem
    Lp, L, Np = parabolic(datum, zeta), levi(datum, zeta), parabolic(datum, xi)
    face_ok = is_face(L.magnet, Lp.magnet)
    # zero lies in all four magnets, and a root lies in N iff in L and in N'
    complement_ok = Np.roots == Lp.roots - (L.roots - Np.roots)
    # L is [alpha_i, -alpha_i (i in Z)> and N' is [alpha_i (all i), -alpha_j (j in X)>
    Z, X, every = _indices(rs, zeta), _indices(rs, xi), frozenset(range(len(rs.basis)))
    sum_ok = _trace(rs, RootMagnet(rs, Z | every, Z | X)) == Lp.roots
    N = RootMagnet(rs, Z & every, Z & X)
    dims = (Lp.dim, Np.dim, L.dim, weight_attractor(adjoint_module(datum), N).dimension)
    identity_ok = dims[0] + dims[3] == dims[2] + dims[1]
    return CartesianSquareReport(dims, face_ok, complement_ok, sum_ok, identity_ok)
