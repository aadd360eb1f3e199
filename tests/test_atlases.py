import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import atlases
from magnetkit.errors import ResourceLimitError, StructuralError
from magnetkit.groups import FgAbelianGroup
from magnetkit.graded import FreePoly, MonoidAlgebra, WeightModule, attractor
from magnetkit.atlases import (
    EquivariantAtlas,
    attractors_equal,
    degree_support,
    enumerate_magnets,
    fingerprint,
    pure_magnet,
)
from magnetkit.monoids import Submonoid, bounded_members, closed_sets, same_submonoid

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(2, ())
Z6 = FgAbelianGroup(0, (6,))


def p1_atlas():
    return EquivariantAtlas(
        Z,
        (
            ("U0", FreePoly.of(Z, [("x", [1])])),
            ("U1", FreePoly.of(Z, [("y", [-1])])),
        ),
    )


def torus_atlas(n):
    G = FgAbelianGroup(n, ())
    return EquivariantAtlas(
        G, (("T", MonoidAlgebra(Submonoid.full(G))),)
    )


def trivial_atlas():
    return EquivariantAtlas(
        Z2, (("pt", FreePoly.of(Z2, [("x", [0, 0]), ("y", [0, 0])])),)
    )


def plane_atlas():
    return EquivariantAtlas(
        Z2, (("A2", FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])),)
    )


def z6_atlas():
    return EquivariantAtlas(
        Z6,
        (("A3", FreePoly.of(Z6, [("x", [1]), ("y", [2]), ("z", [3])])),),
    )


# --- degree support ---------------------------------------------------------


def test_degree_support_p1():
    assert degree_support(p1_atlas()) == (Z.element([-1]), Z.element([1]))


def test_degree_support_trivial():
    assert degree_support(trivial_atlas()) == (Z2.zero(),)


def test_degree_support_plane():
    assert degree_support(plane_atlas()) == (Z2.element([0, 1]), Z2.element([1, 0]))


# --- attractor equality -----------------------------------------------------


def test_attractors_equal_reflexive():
    a = p1_atlas()
    N = Submonoid.generated_by(Z, [[1]])
    assert attractors_equal(a, N, N)


def test_attractors_equal_p1_distinguishes_1_and_2():
    a = p1_atlas()
    N = Submonoid.generated_by(Z, [[1]])
    L = Submonoid.generated_by(Z, [[2]])
    assert not attractors_equal(a, N, L)


def test_attractors_equal_p1_same_trace():
    a = p1_atlas()
    N = Submonoid.generated_by(Z, [[1]])
    L = Submonoid.generated_by(Z, [[1], [3]])
    assert attractors_equal(a, N, L)


# --- pure magnets ------------------------------------------------------------


def test_pure_magnet_trivial_action():
    a = trivial_atlas()
    N = Submonoid.generated_by(Z2, [[1, 1]])
    assert pure_magnet(a, N).is_zero_monoid()


def test_pure_magnet_p1_full_group():
    a = p1_atlas()
    m = pure_magnet(a, Submonoid.full(Z))
    assert same_submonoid(m, Submonoid.full(Z))


def test_pure_magnet_weight_two_chart():
    a = EquivariantAtlas(Z, (("A1", FreePoly.of(Z, [("x", [2])])),))
    m = pure_magnet(a, Submonoid.generated_by(Z, [[2], [3]]))
    assert same_submonoid(m, Submonoid.generated_by(Z, [[2]]))


def test_pure_magnet_idempotent():
    a = p1_atlas()
    for gens in ([], [[1]], [[2]], [[-1]], [[1], [-1]], [[5], [-3]]):
        N = Submonoid.generated_by(Z, gens)
        p = pure_magnet(a, N)
        assert same_submonoid(pure_magnet(a, p), p)
        assert attractors_equal(a, N, p)


# --- magnet posets -----------------------------------------------------------


def expect_magnets(poset, expected_gen_lists):
    expected = [
        Submonoid.generated_by(poset.magnets()[0].ambient, gens)
        for gens in expected_gen_lists
    ]
    got = poset.magnets()
    assert len(got) == len(expected)
    for want in expected:
        assert any(same_submonoid(want, m) for m in got)


def test_poset_trivial_action():
    poset = enumerate_magnets(trivial_atlas())
    assert len(poset) == 1
    assert poset.magnets()[0].is_zero_monoid()


def test_poset_torus_self_action():
    for n in (1, 2, 3):
        poset = enumerate_magnets(torus_atlas(n))
        assert len(poset) == 2
        G = poset.magnets()[0].ambient
        expect_magnets(poset, [[], [list(r) for r in _unit_rows(n)] + [list(-x for x in r) for r in _unit_rows(n)]])


def _unit_rows(n):
    return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]


def test_poset_affine_line():
    a = EquivariantAtlas(Z, (("A1", MonoidAlgebra(Submonoid.generated_by(Z, [[1]]))),))
    poset = enumerate_magnets(a)
    expect_magnets(poset, [[], [[1]]])


def test_poset_p1():
    poset = enumerate_magnets(p1_atlas())
    expect_magnets(poset, [[], [[1]], [[-1]], [[1], [-1]]])
    # Hasse diagram: 0 below N and -N, both below Z
    dot = poset.to_dot()
    assert dot.count("->") == 4


def test_poset_plane():
    poset = enumerate_magnets(plane_atlas())
    expect_magnets(poset, [[], [[1, 0]], [[0, 1]], [[1, 0], [0, 1]]])


def test_poset_z6_weights():
    poset = enumerate_magnets(z6_atlas())
    expect_magnets(poset, [[], [[2]], [[3]], [[1], [2], [3]]])


def test_poset_order_is_inclusion():
    poset = enumerate_magnets(plane_atlas())
    mags = poset.magnets()
    for i, j in itertools.product(range(len(mags)), repeat=2):
        want = all(mags[j].contains(g) for g in mags[i].generators)
        assert poset.leq(i, j) == want


def test_poset_antisymmetry_and_transitivity():
    poset = enumerate_magnets(z6_atlas())
    n = len(poset)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert not (poset.leq(i, j) and poset.leq(j, i))
            for k in range(n):
                if poset.leq(i, j) and poset.leq(j, k):
                    assert poset.leq(i, k)


def test_poset_fingerprints_distinct():
    poset = enumerate_magnets(p1_atlas())
    fps = [fp for _, fp in poset.elements]
    assert len(set(fps)) == len(fps)


def wide_atlas():
    """One free chart with the 21 degrees (i, 1), 0 <= i <= 20."""
    return EquivariantAtlas(
        Z2, (("big", FreePoly.of(Z2, [("v%d" % i, [i, 1]) for i in range(21)])),)
    )


def test_enumerate_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_magnets(wide_atlas())


def test_pure_magnet_past_the_cap_without_monoid_algebra_charts():
    # no table of closed subsets is built: the answer is E ∩ N, read off N's
    # fingerprint; (1,1) + (2,1) has second coordinate 2, outside E
    a = wide_atlas()
    N = Submonoid.generated_by(Z2, [[1, 1], [2, 1]])
    assert pure_magnet(a, N) == N
    alg = MonoidAlgebra(Submonoid.generated_by(Z2, [[1, 0]]))
    with pytest.raises(ResourceLimitError):
        pure_magnet(EquivariantAtlas(Z2, a.charts + (("V", alg),)), N)


def test_json_shape():
    poset = enumerate_magnets(p1_atlas())
    doc = poset.to_json_dict()
    assert len(doc["magnets"]) == 4
    assert len(doc["leq"]) == 4


# --- fingerprint exactness against a windowed oracle ---------------------------


def window_killed(chart, N, bound=8):
    """Direct divisor-test killed support within a finite window."""
    N0 = chart.monoid
    members = bounded_members(N0, bound)
    out = set()
    for m in sorted(members):
        divs = [d for d in sorted(members) if N0.contains(m - d)]
        if any(not N.contains(d) for d in divs):
            out.add(m)
    return frozenset(out)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=1), min_size=0, max_size=2),
    st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=1), min_size=0, max_size=2),
)
def test_fingerprint_equality_matches_window_oracle(gens, ngens, lgens):
    chart = MonoidAlgebra(Submonoid.generated_by(Z, [[g] for g in gens]))
    atlas = EquivariantAtlas(Z, (("U", chart),))
    N = Submonoid.generated_by(Z, ngens)
    L = Submonoid.generated_by(Z, lgens)
    same_fp = attractors_equal(atlas, N, L)
    same_window = window_killed(chart, N) == window_killed(chart, L)
    assert same_fp == same_window


# --- set arithmetic against the table route ------------------------------------


def _table_route(atlas):
    """Every closed S with fingerprint(atlas, [S>), each fingerprint asked of
    the monoid: the reference for the set arithmetic on free and weight
    charts."""
    E = degree_support(atlas)
    G = atlas.grading_group

    def closure(S):
        gen = Submonoid(G, tuple(E[i] for i in S))
        return (i for i, e in enumerate(E) if i in S or gen.contains(e))

    subsets = [frozenset(E[i] for i in C) for C in closed_sets(len(E), closure)]
    return [(S, fingerprint(atlas, Submonoid(G, tuple(S)))) for S in subsets]


def _table_poset(table):
    classes = {}
    for S, fp in table:
        classes.setdefault(fp, []).append(S)
    return sorted(((frozenset.intersection(*members), fp) for fp, members in classes.items()),
                  key=lambda r: (len(r[0]), sorted(g.coords for g in r[0])))


def _table_pure_magnet(atlas, table, N):
    fp = fingerprint(atlas, N)
    core = frozenset.intersection(*(S for S, sfp in table if sfp == fp))
    return Submonoid(atlas.grading_group, tuple(core))


Z_3 = FgAbelianGroup(1, (3,))


def _seeded_atlas(kind, seed):
    """A small atlas over Z^2 or Z x Z/3: two free charts, one weight module,
    or a free chart beside one monoid-algebra chart."""
    rng = random.Random("%s-%d" % (kind, seed))
    G = Z2 if seed % 2 else Z_3

    def degree(first=(-2, 2)):
        if G is Z2:
            return [rng.randint(*first), rng.randint(-2, 2)]
        return [rng.randint(*first), rng.randrange(3)]

    def free(name, k):
        return name, FreePoly.of(G, [("%s%d" % (name, i), degree()) for i in range(k)])

    if kind == "free":
        charts = (free("x", rng.randint(2, 4)), free("y", rng.randint(2, 4)))
    elif kind == "weight":
        charts = (("W", WeightModule.of(G, [(degree(), 1, "w%d" % i)
                                             for i in range(rng.randint(3, 7))])),)
    else:
        # generators with a positive first coordinate span a sharp monoid
        gens = [degree(first=(1, 2)) for _ in range(rng.randint(1, 2))]
        charts = (free("x", rng.randint(2, 4)),
                  ("V", MonoidAlgebra(Submonoid.generated_by(G, gens))))
    return EquivariantAtlas(G, charts)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["free", "weight", "mixed"])
def test_set_arithmetic_matches_the_table_route(kind, seed):
    atlas = _seeded_atlas(kind, seed)
    table = _table_route(atlas)
    poset = enumerate_magnets(atlas)
    assert [(S, fp) for S, (_, fp) in zip(poset.subsets, poset.elements)] == _table_poset(table)
    assert poset.magnets() == tuple(
        Submonoid(atlas.grading_group, tuple(S)) for S in poset.subsets)
    # magnets from degrees of E and from degrees outside it
    rng = random.Random(seed)
    E = degree_support(atlas)
    G = atlas.grading_group
    for _ in range(6):
        gens = rng.sample(E, rng.randint(0, min(3, len(E))))
        gens += [G.element([rng.randint(-3, 3), rng.randint(-3, 3)][:G.free_rank]
                           + [rng.randrange(n) for n in G.torsion_orders])
                 for _ in range(rng.randint(0, 2))]
        N = Submonoid(G, tuple(gens))
        assert pure_magnet(atlas, N) == _table_pure_magnet(atlas, table, N)


def test_a_closure_that_forgets_a_member_fails_the_check(monkeypatch):
    # without the degree 2, the closure lists {1} as closed, and [1> holds 2
    atlas = EquivariantAtlas(Z, (("A2", FreePoly.of(Z, [("x", [1]), ("y", [2])])),))
    two = degree_support(atlas).index(Z.element([2]))
    listed = atlases.closed_sets

    def forgetting(n, closure):
        return listed(n, lambda S: (i for i in closure(S) if i != two or two in S))

    atlases._closed_subset_table.cache_clear()
    monkeypatch.setattr(atlases, "closed_sets", forgetting)
    with pytest.raises(StructuralError, match="generates the degree"):
        enumerate_magnets(atlas)


# --- the certified closure engine against the table route ----------------------


def _dense_atlas(n, seed):
    """Two free charts in Z^2 on n distinct degrees drawn from -4..4, split
    in halves: sums of three or more degrees matter on these supports."""
    rng = random.Random(seed)
    degrees = []
    while len(degrees) < n:
        d = [rng.randint(-4, 4), rng.randint(-4, 4)]
        if d not in degrees:
            degrees.append(d)
    half = n // 2
    return EquivariantAtlas(Z2, (
        ("x", FreePoly.of(Z2, [("x%d" % i, d) for i, d in enumerate(degrees[:half])])),
        ("y", FreePoly.of(Z2, [("y%d" % i, d) for i, d in enumerate(degrees[half:])]))))


def _projective_atlas(n):
    """P^n: chart U_i has the variables x_j / x_i, of degree e_j - e_i, e_0 = 0."""
    G = FgAbelianGroup(n, ())
    e = [[0] * n] + [[int(k == j) for k in range(n)] for j in range(n)]
    return EquivariantAtlas(G, tuple(
        ("U%d" % i, FreePoly.of(G, [("x%d/x%d" % (j, i), [a - b for a, b in zip(e[j], e[i])])
                                    for j in range(n + 1) if j != i]))
        for i in range(n + 1)))


@pytest.mark.parametrize("atlas, count", [
    (_projective_atlas(3), 355),
    (_dense_atlas(12, 12), 336),
    (_dense_atlas(12, 2012), None),
], ids=["P3", "dense12-12", "dense12-2012"])
def test_the_closure_engine_lists_the_table_route(atlas, count):
    atlases._closed_subset_table.cache_clear()
    table = list(atlases._closed_subset_table(atlas, 20))
    assert table == _table_route(atlas)
    assert count is None or len(table) == count


def test_the_closure_engine_lists_the_table_route_beside_monoid_algebras():
    for seed in range(8):
        atlas = _seeded_atlas("mixed", seed)
        atlases._closed_subset_table.cache_clear()
        assert list(atlases._closed_subset_table(atlas, 20)) == _table_route(atlas), seed
