import itertools
import random
from fractions import Fraction

import pytest

from magnetkit.atlases import EquivariantAtlas, enumerate_magnets
from magnetkit.errors import PreconditionError, ResourceLimitError, StructuralError
from magnetkit.groups import FgAbelianGroup
from magnetkit.monoids import (
    Intersection,
    Submonoid,
    closed_sets,
    is_face,
    pushout_complement,
    same_submonoid,
    units,
)
from magnetkit import monoids, roots
from magnetkit.roots import (
    ReductiveDatum,
    RootMagnet,
    RootSystem,
    adjoint_module,
    build,
    cartesian_square,
    closed_subsets,
    levi,
    parabolic,
    root_group,
    _trace,
)


def test_build_sizes():
    for name, nroots, trk in [
        ("A1", 2, 2),
        ("A2", 6, 3),
        ("A3", 12, 4),
        ("A4", 20, 5),
        ("B2", 8, 2),
        ("G2", 12, 2),
    ]:
        d = build(name)
        assert len(d.rootsystem.roots) == nroots
        assert len(d.rootsystem.positives) == nroots // 2
        assert d.torus_rank == trk
        assert d.rootsystem.lattice_rank == trk


def test_unknown_type_rejected():
    with pytest.raises(StructuralError):
        build("E8")


def test_adjoint_dimensions():
    for name, dim in [("A1", 4), ("A2", 9), ("A3", 16), ("B2", 10), ("G2", 14)]:
        assert adjoint_module(build(name)).dimension == dim


def test_gl3_dimension_table():
    d = build("A2")
    a1 = d.rootsystem.basis[0]
    borel = parabolic(d, ())
    assert borel.dim == 6
    assert borel.roots == set(d.rootsystem.positives)
    P = parabolic(d, (a1,))
    assert P.dim == 7
    L = levi(d, (a1,))
    assert L.dim == 5
    assert L.roots == {a1, -a1}
    assert root_group(d, a1) == (4, 1)


def test_parabolic_units_are_the_levi():
    d = build("A2")
    a1 = d.rootsystem.basis[0]
    P = parabolic(d, (a1,))
    L = levi(d, (a1,))
    assert same_submonoid(units(P.magnet), L.magnet)


def test_full_zeta_gives_the_whole_group():
    d = build("A2")
    full = parabolic(d, d.rootsystem.basis)
    assert full.roots == set(d.rootsystem.roots)
    assert full.dim == 9
    assert levi(d, d.rootsystem.basis).dim == 9


def test_borel_roots_are_the_positives():
    for name in ("A3", "B2", "G2"):
        d = build(name)
        assert parabolic(d, ()).roots == set(d.rootsystem.positives)


def test_empty_zeta_levi_is_the_torus():
    d = build("A3")
    L = levi(d, ())
    assert L.dim == 4
    assert L.roots == frozenset()
    assert L.magnet.is_zero_monoid()


def test_root_group_at_every_root():
    for name in ("A2", "B2", "G2"):
        d = build(name)
        for r in d.rootsystem.roots:
            assert root_group(d, r) == (d.torus_rank + 1, 1)


def test_root_group_rejects_non_roots():
    d = build("A2")
    with pytest.raises(PreconditionError):
        root_group(d, d.rootsystem.ambient.element([5, 0, 0]))


def test_levi_rejects_non_simple_roots():
    d = build("A2")
    highest = d.rootsystem.positives[1]
    assert highest not in d.rootsystem.basis
    with pytest.raises(PreconditionError):
        levi(d, (highest,))


def test_closed_subsets_a1():
    d = build("A1")
    a = d.rootsystem.basis[0]
    got = set(closed_subsets(d))
    assert got == {
        frozenset(),
        frozenset({a}),
        frozenset({-a}),
        frozenset({a, -a}),
    }


def test_closed_subsets_a2():
    d = build("A2")
    subs = closed_subsets(d)
    assert len(subs) == 29
    a1, a2 = d.rootsystem.basis
    assert frozenset({a1, a1 + a2}) in subs
    assert frozenset(d.rootsystem.positives) in subs
    assert frozenset({a1, a2}) not in subs
    # closure is literal: sums of members that are roots stay inside
    Phi = set(d.rootsystem.roots)
    for S in subs:
        for x, y in itertools.combinations(S, 2):
            if x + y in Phi:
                assert x + y in S


def _mask_closed_subsets(datum):
    """Every root subset closed under sums inside the root set, by a scan of
    all 2^n masks: the reference for the closure closed_subsets runs."""
    roots = datum.rootsystem.roots
    Phi = set(roots)
    out = set()
    for mask in range(1 << len(roots)):
        S = {r for i, r in enumerate(roots) if mask >> i & 1}
        if all(x + y in S for x, y in itertools.combinations(S, 2) if x + y in Phi):
            out.add(frozenset(S))
    return out


def test_closed_subsets_match_the_magnet_poset():
    for name, count in [("A1", 4), ("A2", 29), ("A3", 355), ("B2", 55), ("G2", 168)]:
        d = build(name)
        atlas = EquivariantAtlas(
            d.rootsystem.ambient, (("adjoint", adjoint_module(d)),)
        )
        assert len(enumerate_magnets(atlas)) == count
        subs = closed_subsets(d)
        assert len(subs) == count
        assert set(subs) == _mask_closed_subsets(d)


def test_closed_subsets_cap():
    with pytest.raises(ResourceLimitError):
        closed_subsets(build("G2"), cap=10)


def test_a_dropped_sum_fails_the_trace_check(monkeypatch):
    # without the rule a1 + a2 in the shared closure engine, the set {a1, a2}
    # is listed as closed, and its monoid holds the root a1 + a2
    d = build("A2")
    rs = d.rootsystem
    a, b = sorted(rs.roots.index(x) for x in rs.basis)
    pair_sums = monoids._pair_sums

    def dropping(E):
        return ((i, j, k) for i, j, k in pair_sums(E) if (i, j) != (a, b))

    monkeypatch.setattr(monoids, "_pair_sums", dropping)
    with pytest.raises(StructuralError, match="closed root subset holds the root"):
        closed_subsets(d)


def test_cartesian_squares_a2():
    d = build("A2")
    basis = d.rootsystem.basis
    seen = 0
    for zeta in itertools.chain.from_iterable(
        itertools.combinations(basis, k) for k in range(len(basis) + 1)
    ):
        for j in range(len(zeta) + 1):
            for xi in itertools.combinations(zeta, j):
                rep = cartesian_square(d, xi, zeta)
                assert rep.passed
                seen += 1
    assert seen == 9


def test_cartesian_square_gl3_instance():
    d = build("A2")
    a1 = d.rootsystem.basis[0]
    rep = cartesian_square(d, (), (a1,))
    assert rep.dims == (7, 6, 5, 4)
    assert rep.passed


def test_cartesian_square_spot_checks():
    b2 = build("B2")
    assert cartesian_square(b2, (b2.rootsystem.basis[1],), b2.rootsystem.basis).passed
    g2 = build("G2")
    assert cartesian_square(g2, (), (g2.rootsystem.basis[0],)).passed
    a3 = build("A3")
    zeta = (a3.rootsystem.basis[0], a3.rootsystem.basis[2])
    rep = cartesian_square(a3, (a3.rootsystem.basis[0],), zeta)
    assert rep.passed


def _rational_span_roots(datum, zeta):
    """Roots in the rational span of zeta, by Gaussian elimination over Q."""
    rows = [[Fraction(c) for c in a.coords] for a in zeta]
    basis = []  # echelon rows, each with its pivot column
    for row in rows:
        for pivot, b in basis:
            row = [x - row[pivot] * y for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            row = [x / row[lead] for x in row]
            basis = [(p, [x - b[lead] * y for x, y in zip(b, row)]) for p, b in basis]
            basis.append((lead, row))

    def inside(v):
        v = [Fraction(c) for c in v]
        for pivot, b in basis:
            v = [x - v[pivot] * y for x, y in zip(v, b)]
        return not any(v)

    return {r for r in datum.rootsystem.roots if inside(r.coords)}


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "G2"])
def test_square_dims_count_the_roots_of_each_corner(name):
    d = build(name)
    basis = d.rootsystem.basis
    t = d.torus_rank
    positives = set(d.rootsystem.positives)
    subsets = [c for k in range(len(basis) + 1) for c in itertools.combinations(basis, k)]
    for zeta in subsets:
        levi_roots = _rational_span_roots(d, zeta)
        for xi in (s for s in subsets if set(s) <= set(zeta)):
            inner = positives | _rational_span_roots(d, xi)
            rep = cartesian_square(d, xi, zeta)
            assert rep.dims == (t + len(positives | levi_roots), t + len(inner),
                                t + len(levi_roots), t + len(levi_roots & inner))
            assert rep.passed


def test_cartesian_square_needs_nested_types():
    d = build("A2")
    a1, a2 = d.rootsystem.basis
    with pytest.raises(PreconditionError):
        cartesian_square(d, (a2,), (a1,))


def test_pushout_complement_recovers_the_positive_roots():
    # removing the non-attracting part of the Levi from a parabolic leaves
    # exactly the positive roots
    d = build("A2")
    a1 = d.rootsystem.basis[0]
    Lp = parabolic(d, (a1,)).magnet
    L = levi(d, (a1,)).magnet
    N = Submonoid(d.rootsystem.ambient, (a1,))
    assert is_face(L, Lp)
    pc = pushout_complement(N, L, Lp)
    inside = {r for r in d.rootsystem.roots if pc.contains(r)}
    assert inside == set(d.rootsystem.positives)


def test_levi_trace_is_the_span_for_a4():
    d = build("A4")
    basis = d.rootsystem.basis
    for zeta in [(basis[0],), (basis[2],), (basis[0], basis[3]), (basis[1], basis[2])]:
        L = levi(d, zeta)
        assert L.dim == d.torus_rank + len(L.roots)
    assert levi(d, (basis[0], basis[3])).dim == 5 + 4
    assert levi(d, (basis[1], basis[2])).dim == 5 + 6


# --- root magnets by simple-root coordinates ---------------------------------


def _moved(datum, perm, signs, scale):
    """The datum with its lattice moved by a signed permutation of the
    coordinates, times a positive scale."""
    rs = datum.rootsystem
    G = rs.ambient

    def move(elements):
        out = []
        for r in elements:
            v = [0] * rs.lattice_rank
            for i, c in enumerate(r.coords):
                v[perm[i]] = signs[i] * scale * c
            out.append(G.element(v))
        return tuple(out)

    moved = RootSystem(rs.lattice_rank, move(rs.roots), move(rs.basis), move(rs.positives))
    return ReductiveDatum(moved, datum.torus_rank)


ROOT_TYPES = ["A1", "A2", "A3", "A4", "B2", "G2"]


def _datum(name, move):
    d = build(name)
    n = d.rootsystem.lattice_rank
    rng = random.Random("%s-%s" % (name, move))
    if move == "signed":
        return _moved(d, rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)], 1)
    if move == "scaled":
        return _moved(d, range(n), [1] * n, rng.randint(300, 999))
    return d


def _per_set_closed_subsets(datum):
    """closed_subsets with the trace check run on every closed set: the
    reference for the check on the maximal sets without each root."""
    rs = datum.rootsystem
    coords = [r.coords for r in rs.roots]
    idx = {c: i for i, c in enumerate(coords)}

    def closure(S):
        members, todo = set(S), list(S)
        while todo:
            a = coords[todo.pop()]
            for j in list(members):
                k = idx.get(tuple(x + y for x, y in zip(a, coords[j])))
                if k is not None and k not in members:
                    members.add(k)
                    todo.append(k)
        return sorted(members)

    out = []
    for C in closed_sets(len(coords), closure):
        S = frozenset(rs.roots[i] for i in C)
        assert _trace(rs, Submonoid(rs.ambient, tuple(S))) == S
        out.append(S)
    return tuple(sorted(out, key=lambda S: (len(S), sorted(r.coords for r in S))))


CLOSED_COUNTS = {"A1": 4, "A2": 29, "A3": 355, "A4": 6942, "B2": 55, "G2": 168}


# the per-set reference takes seconds on A4, so A4 runs once, unmoved
@pytest.mark.parametrize("name, move", [("A4", "fixed")] + [
    (name, move) for name in ROOT_TYPES if name != "A4"
    for move in ("fixed", "signed", "scaled")])
def test_closed_subsets_match_the_per_set_check(name, move):
    d = _datum(name, move)
    got = closed_subsets(d, cap=20)
    assert got == _per_set_closed_subsets(d)
    assert len(got) == CLOSED_COUNTS[name]


@pytest.mark.parametrize("move", ["fixed", "signed", "scaled"])
@pytest.mark.parametrize("name", ROOT_TYPES)
def test_root_magnets_agree_with_the_solver(name, move):
    # the sign rule against monoids.contains on every root and zero: the Levi
    # and parabolic magnet of every zeta, and the sum and the intersection of
    # the Levi of zeta with the parabolic of every xi inside zeta
    rs = _datum(name, move).rootsystem
    points = (rs.ambient.zero(),) + rs.roots
    every = frozenset(range(len(rs.basis)))
    subsets = [frozenset(c) for k in range(len(every) + 1)
               for c in itertools.combinations(sorted(every), k)]

    def solver(up, down):
        return Submonoid(rs.ambient, tuple(rs.basis[i] for i in up)
                         + tuple(-rs.basis[j] for j in down))

    def agree(rule, reference):
        assert [rule.contains(x) for x in points] == [reference.contains(x) for x in points]

    for Z in subsets:
        L, Lp = solver(Z, Z), solver(every, Z)
        agree(RootMagnet(rs, Z, Z), L)
        agree(RootMagnet(rs, every, Z), Lp)
        for X in (X for X in subsets if X <= Z):
            Np = solver(every, X)
            agree(RootMagnet(rs, Z | every, Z | X),
                  Submonoid(rs.ambient, L.generators + Np.generators))
            agree(RootMagnet(rs, Z & every, Z & X), Intersection((L, Np)))


@pytest.mark.parametrize("move", ["signed", "scaled"])
@pytest.mark.parametrize("name", ["A3", "B2", "G2"])
def test_moved_data_keep_their_squares(name, move):
    d, m = build(name), _datum(name, move)
    subsets = [c for k in range(len(d.rootsystem.basis) + 1)
               for c in itertools.combinations(range(len(d.rootsystem.basis)), k)]

    def pick(datum, ix):
        return tuple(datum.rootsystem.basis[i] for i in ix)

    for zeta in subsets:
        for xi in (xi for xi in subsets if set(xi) <= set(zeta)):
            rep = cartesian_square(m, pick(m, xi), pick(m, zeta))
            assert rep == cartesian_square(d, pick(d, xi), pick(d, zeta))
            assert rep.passed


def test_root_magnets_refuse_other_weights():
    rs = build("A2").rootsystem
    with pytest.raises(PreconditionError):
        RootMagnet(rs, frozenset({0}), frozenset()).contains(rs.ambient.element([2, -2, 0]))


def _root_system(rank, basis, positives):
    G = FgAbelianGroup(rank)
    mk = lambda cs: tuple(G.element(c) for c in cs)
    roots = positives + [tuple(-c for c in p) for p in positives]
    return RootSystem(rank, mk(roots), mk(basis), mk(positives))


def test_dependent_simple_roots_are_refused():
    # (2) and (3) pass every other check: 5 = 2 + 3 is a root, no double is
    with pytest.raises(StructuralError, match="linearly dependent"):
        _root_system(1, [(2,), (3,)], [(2,), (3,), (5,)])


@pytest.mark.parametrize("positives", [
    [(1, 0), (0, 1), (1, -1)],  # not a nonnegative combination
    [(1, 0), (0, 1), (1, 2)],  # a nonnegative one, but (1, 1) is no root
])
def test_positive_roots_off_the_simple_root_sums_are_refused(positives):
    with pytest.raises(StructuralError, match="not a basis combination"):
        _root_system(2, [(1, 0), (0, 1)], positives)


def test_torus_rank_is_at_least_the_number_of_simple_roots():
    with pytest.raises(StructuralError, match="torus rank below"):
        ReductiveDatum(build("A2").rootsystem, 1)
    assert ReductiveDatum(build("A2").rootsystem, 2).torus_rank == 2
