import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import graded, monoids
from magnetkit.errors import (
    PreconditionError,
    ResourceLimitError,
    SharpenRequiredError,
    StructuralError,
)
from magnetkit.groups import FgAbelianGroup, hom_from_matrix
from magnetkit.graded import (
    FreePoly,
    MonoidAlgebra,
    MonoidIdeal,
    SupportReport,
    WeightModule,
    _ideal_member,
    attractor,
    face_retraction,
    inclusion_is_closed,
    intersect_attractors,
    iterated_attractor,
    prescribed_limit,
    product_attractor,
    reindex,
    semidirect_dims,
    support_report,
    weight_attractor,
)
from magnetkit.monoids import (
    Intersection,
    PreimageMonoid,
    Submonoid,
    bounded_members,
    coefficient_test,
    faces,
    is_sharp,
    positive_grading,
)

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(2, ())

NAT = Submonoid.generated_by(Z, [[1]])
ZERO = Submonoid.zero(Z)
FULL_Z = Submonoid.full(Z)


# --- free polynomial attractors ------------------------------------------------


def test_attractor_keeps_everything_inside_full_magnet():
    P = FreePoly.of(Z, [("x", [1])])
    r = attractor(P, NAT)
    assert r.killed == ()
    assert r.quotient == P


def test_attractor_at_zero_is_fixed_points():
    P = FreePoly.of(Z, [("x", [1])])
    r = attractor(P, ZERO)
    assert r.killed == ("x",)
    assert r.quotient.vars == ()


def test_attractor_grading_mismatch():
    P = FreePoly.of(Z, [("x", [1])])
    with pytest.raises(StructuralError):
        attractor(P, Submonoid.zero(Z2))


def test_attractor_mixed_weights():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1]), ("z", [0])])
    r = attractor(P, NAT)
    assert r.killed == ("y",)
    assert r.quotient.names() == ("x", "z")


def test_duplicate_variable_names_rejected():
    with pytest.raises(StructuralError):
        FreePoly.of(Z, [("x", [1]), ("x", [2])])


# --- monoid algebra attractors ---------------------------------------------------


def monoschemes_algebra():
    N0 = Submonoid.generated_by(Z2, [[1, 1], [1, -1], [1, 0]])
    return MonoidAlgebra(N0)


def test_monoid_algebra_attractor_support():
    A = monoschemes_algebra()
    L = Submonoid.generated_by(Z2, [[1, 0]])
    q = attractor(A, L).quotient
    assert q.survives(Z2.element([0, 0]))
    assert q.survives(Z2.element([1, 0]))
    assert not q.survives(Z2.element([2, 0]))
    assert not q.survives(Z2.element([1, 1]))
    assert not q.survives(Z2.element([1, -1]))


def test_monoschemes_support_report_is_nilpotent_dual_numbers():
    A = monoschemes_algebra()
    L = Submonoid.generated_by(Z2, [[1, 0]])
    rep = support_report(attractor(A, L).quotient)
    assert rep.members == (Z2.element([0, 0]), Z2.element([1, 0]))
    assert rep.finite is True
    assert rep.non_reduced is True


def test_attractor_requires_sharp_monoid_algebra():
    A = MonoidAlgebra(Submonoid.subgroup_generated_by(Z, [[1]]))
    with pytest.raises(SharpenRequiredError):
        attractor(A, NAT)


def test_monoid_algebra_full_magnet_keeps_support():
    N0 = Submonoid.generated_by(Z, [[2], [3]])
    A = MonoidAlgebra(N0)
    r = attractor(A, FULL_Z)
    for k in (0, 2, 3, 4, 5):
        assert r.quotient.survives(Z.element([k]))
    rep = support_report(r.quotient)
    assert rep.finite is None
    assert rep.non_reduced is None


def test_support_report_group_algebra():
    A = MonoidAlgebra(Submonoid.subgroup_generated_by(FgAbelianGroup(0, (6,)), [[1]]))
    rep = support_report(A)
    assert rep.finite is True
    assert len(rep.members) == 6
    assert rep.non_reduced is False


def test_a_group_algebra_that_kills_zero_has_an_empty_support():
    # 0 lies in [(1)>, but -1 escapes it, and X^0 = X^1 X^-1 is then killed
    Z = FgAbelianGroup(1)
    N0 = Submonoid.generated_by(Z, [[1], [-1]])
    A = MonoidAlgebra(N0, MonoidIdeal(N0, avoided=(Submonoid.generated_by(Z, [[1]]),)))
    assert support_report(A) == SupportReport((), True, 0, False)


def test_a_finite_group_algebra_lists_its_whole_support():
    # word length reaches 50 in Z/100, and 30 in Z x Z/60 under +-(0,1)
    G = FgAbelianGroup(0, (100,))
    A = MonoidAlgebra(Submonoid.subgroup_generated_by(G, [[1]]))
    for bound in (0, 10, 24):
        rep = support_report(A, bound)
        assert rep.members == tuple(G.element([k]) for k in range(100)), bound
        assert rep.finite is True and rep.non_reduced is False
    G = FgAbelianGroup(1, (60,))
    rep = support_report(MonoidAlgebra(Submonoid.subgroup_generated_by(G, [[0, 1]])), 10)
    assert rep.members == tuple(G.element([0, k]) for k in range(60))
    assert rep.finite is True
    rep = support_report(MonoidAlgebra(Submonoid.subgroup_generated_by(G, [[1, 0]])), 10)
    assert len(rep.members) == 21 and rep.finite is False


def reference_bounded_members(N, bound, degree=None):
    """The slice as a breadth-first search over GroupElements, a reference
    for the kernel on coordinate tuples; it reads the cap at call time."""
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
        if len(seen) > monoids.DEFAULT_MAX_NODES:
            raise ResourceLimitError(
                "member enumeration exceeded %d nodes" % monoids.DEFAULT_MAX_NODES)
        frontier = new
        if not frontier:
            break
    if degree is None:
        return seen
    return {x for x in seen if degree(x) <= bound}


SLICE_GROUPS = [FgAbelianGroup(r, t) for r in (1, 2, 3) for t in ((), (2,), (3,), (2, 4))]


def random_monoid(rng, G, sharp):
    N = Submonoid.zero(G)
    while not N.generators or (sharp and not is_sharp(N)):
        N = Submonoid.generated_by(G, [[rng.randint(-2, 2) for _ in range(G.coord_count)]
                                       for _ in range(rng.randint(1, 4))])
    return N


@pytest.mark.parametrize("G", SLICE_GROUPS, ids=lambda G: G.describe())
def test_bounded_members_match_the_group_element_search(G):
    rng = random.Random(G.coord_count * 10 + sum(G.torsion_orders))
    for _ in range(12):
        N = random_monoid(rng, G, sharp=True)
        h = positive_grading(N).degree
        bound = rng.randint(0, 12)
        assert bounded_members(N, bound, h) == reference_bounded_members(N, bound, h), (N, bound)
        N = random_monoid(rng, G, sharp=False)
        bound = rng.randint(0, 12 // G.free_rank)
        assert bounded_members(N, bound) == reference_bounded_members(N, bound), (N, bound)


@pytest.mark.parametrize("graded", [True, False], ids=["degree", "length"])
def test_bounded_members_hit_the_cap_at_the_same_level(monkeypatch, graded):
    G = FgAbelianGroup(2, (3,))
    N = Submonoid.generated_by(G, [[1, 0, 1], [1, 1, 0], [1, -1, 2], [2, 1, 1]])
    h = positive_grading(N).degree if graded else None
    monkeypatch.setattr(monoids, "DEFAULT_MAX_NODES", 60)
    raised = []
    for bound in range(12):
        try:
            want = reference_bounded_members(N, bound, h)
        except ResourceLimitError as e:
            with pytest.raises(ResourceLimitError) as got:
                bounded_members(N, bound, h)
            assert str(got.value) == str(e) == "member enumeration exceeded 60 nodes"
            raised.append(bound)
        else:
            assert bounded_members(N, bound, h) == want
    assert raised and raised == list(range(raised[0], 12))


def reference_support_report(A, probe_bound):
    """The sharp support scan with every member decided by `_ideal_member`,
    which asks the solver about each divisor, and the windows scanned after
    the whole slice is decided."""
    N0 = A.monoid
    h = positive_grading(N0).degree
    maxh = max(h(g) for g in N0.generators)
    survivors = sorted(
        m for m in reference_bounded_members(N0, probe_bound, h)
        if not _ideal_member(A.killed, m)
    )
    alive = {h(m) for m in survivors}
    for B in range(maxh, probe_bound + 1):
        if not alive & set(range(B - maxh + 1, B + 1)):
            members = tuple(m for m in survivors if h(m) <= B)
            return SupportReport(members, True, B, any(not m.is_zero() for m in members))
    witnessed = any(
        _ideal_member(A.killed, m.scale(k))
        for m in survivors
        if not m.is_zero()
        for k in range(2, probe_bound // h(m) + 1)
    )
    return SupportReport(tuple(survivors), None, None, True if witnessed else None)


def random_sharp_algebra(rng):
    """A sharp chart of free rank 1-3, maybe with a Z/2 or Z/3 factor, killed
    by an explicit generator in 40 % of cases and by 0-2 avoided magnets."""
    G = FgAbelianGroup(rng.randint(1, 3), rng.choice(((), (2,), (3,))))

    def vec():
        return [rng.randint(-2, 2) for _ in range(G.coord_count)]

    N0 = Submonoid.zero(G)
    while not N0.generators or not is_sharp(N0):
        N0 = Submonoid.generated_by(G, [vec() for _ in range(rng.randint(1, 3))])
    explicit = ()
    if rng.random() < 0.4:
        explicit = (sum(rng.choices(N0.generators, k=rng.randint(1, 2)), G.zero()),)
    avoided = tuple(
        Submonoid.generated_by(G, [vec() for _ in range(rng.randint(0, 3))])
        for _ in range(rng.randint(0, 2))
    )
    return MonoidAlgebra(N0, MonoidIdeal(N0, explicit, avoided))


def test_support_report_matches_the_per_member_reference():
    rng = random.Random(10)
    for _ in range(300):
        A = random_sharp_algebra(rng)
        bound = rng.choice((6, 8, 10))
        assert support_report(A, bound) == reference_support_report(A, bound), (A, bound)


class CountingMagnet:
    """An avoided magnet that records every degree it is asked about."""

    def __init__(self, magnet):
        self.magnet = magnet
        self.ambient = magnet.ambient
        self.asked = []

    def contains(self, m):
        self.asked.append(m)
        return self.magnet.contains(m)


@dataclass(frozen=True)
class AskedMagnet(Submonoid):
    """A Submonoid that records every degree its contains method is asked."""

    asked: list = field(default_factory=list, compare=False)

    def contains(self, m):
        self.asked.append(m)
        return super().contains(m)


def test_support_report_decides_no_member_above_the_certificate():
    N0 = Submonoid.generated_by(Z2, [[1, 1], [1, -1], [1, 0]])
    h = positive_grading(N0).degree
    members = bounded_members(N0, 16, h)
    # a magnet that is not a Submonoid, and [(1,0),(2,1),(2,-1)>, a Submonoid
    # that is not simplicial: both are asked through contains
    wrapped = CountingMagnet(Submonoid.generated_by(Z2, [[1, 0]]))
    cone = AskedMagnet(Z2, tuple(Z2.element(c) for c in ([1, 0], [2, 1], [2, -1])))
    assert coefficient_test(cone) is None
    for magnet in (wrapped, cone):
        rep = support_report(MonoidAlgebra(N0, MonoidIdeal(N0, avoided=(magnet,))), probe_bound=16)
        assert rep.members == (Z2.element([0, 0]), Z2.element([1, 0]))
        assert rep.certified_degree is not None
        assert magnet.asked
        assert len(set(magnet.asked)) == len(magnet.asked)
        for m in magnet.asked:
            assert m in members and h(m) <= rep.certified_degree


def test_a_report_grows_the_chart_slice_only_to_its_certificate(monkeypatch):
    # criterion 02 is certified at degree 2, and its magnet [(1,0)> is
    # simplicial, so it builds no slice of its own
    N0 = Submonoid.generated_by(Z2, [[1, 1], [1, -1], [1, 0]])
    grown = Counter()

    class CountingSlice(monoids._Slice):
        def __init__(self, N, weights):
            super().__init__(N, weights)
            self.monoid = N

        def grow(self, bound):
            grown[self.monoid] = max(grown[self.monoid], bound)
            super().grow(bound)

    monkeypatch.setattr(graded, "_Slice", CountingSlice)
    A = attractor(MonoidAlgebra(N0), Submonoid.generated_by(Z2, [[1, 0]])).quotient
    rep = support_report(A, probe_bound=16)
    assert rep == SupportReport((Z2.zero(), Z2.element([1, 0])), True, 2, True)
    assert grown == Counter({N0: 2})


def test_a_report_certified_below_the_node_cap_answers():
    # the slice of N^6 to degree 24, the default probe bound, passes the
    # node cap, but the report is certified at degree 1
    G = FgAbelianGroup(6)
    N0 = Submonoid.generated_by(G, [[int(i == j) for j in range(6)] for i in range(6)])
    A = attractor(MonoidAlgebra(N0), Submonoid.generated_by(G, [[1, 1, 0, 0, 0, 0]])).quotient
    assert math.comb(24 + 6, 6) > monoids.DEFAULT_MAX_NODES
    assert support_report(A) == SupportReport((G.zero(),), True, 1, False)


# --- avoided magnets through their coefficients or contains -----------------


def clear_library_caches():
    for module in (graded, monoids):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def random_avoided(rng, N0, vec):
    """An avoided magnet of a random kind: sharp, non-sharp, zero, or an
    Intersection; a simplicial one answers from its coefficient vectors and
    any other through contains.  Most take some generators of N0, so that
    members survive."""
    G = N0.ambient

    def gens():
        some = [g.coords for g in rng.sample(N0.generators, rng.randint(0, len(N0.generators)))]
        return some + [vec() for _ in range(rng.randint(0 if some else 1, 2))]

    kind = rng.choice(("sharp", "sharp", "non-sharp", "zero", "intersection"))
    if kind == "zero":
        return Submonoid.zero(G)
    if kind == "intersection":
        return Intersection(tuple(Submonoid.generated_by(G, gens()) for _ in range(2)))
    if kind == "non-sharp":
        g = vec()
        while not any(g[:G.free_rank]):
            g = vec()
        return Submonoid.generated_by(G, gens() + [g, [-c for c in g]])
    a = Submonoid.zero(G)
    while not a.generators or not is_sharp(a):
        a = Submonoid.generated_by(G, gens())
    return a


SLICE_ROUTE_GROUPS = [FgAbelianGroup(2), FgAbelianGroup(3), FgAbelianGroup(2, (3,))]


def slice_route_algebras(G, count, seed):
    """Seeded sharp algebras over G, killed by an explicit generator in a
    third of the cases and by one or two avoided magnets, with a probe bound
    from 0 to 16."""
    rng = random.Random(seed)

    def vec():
        return [rng.randint(-2, 2) for _ in range(G.coord_count)]

    for _ in range(count):
        N0 = Submonoid.zero(G)
        while not N0.generators or not is_sharp(N0):
            N0 = Submonoid.generated_by(G, [vec() for _ in range(rng.randint(1, 3))])
        explicit = ()
        if rng.random() < 0.3:
            explicit = (sum(rng.choices(N0.generators, k=rng.randint(1, 3)), G.zero()),)
        avoided = tuple(random_avoided(rng, N0, vec) for _ in range(rng.randint(1, 2)))
        yield MonoidAlgebra(N0, MonoidIdeal(N0, explicit, avoided)), rng.randint(0, 16)


@pytest.mark.parametrize("G", SLICE_ROUTE_GROUPS, ids=lambda G: G.describe())
def test_support_report_slice_route_matches_the_member_route(G):
    for A, bound in slice_route_algebras(G, 60, G.coord_count * 100 + sum(G.torsion_orders)):
        assert support_report(A, bound) == reference_support_report(A, bound), (A, bound)


def test_a_simplicial_magnet_is_asked_nothing():
    N0 = Submonoid.generated_by(Z2, [[1, 2], [1, -1]])
    # the simplicial magnet [(1,0)> answers from coefficient vectors: (1,2)
    # and (1,-1) have a negative coefficient, so the support is {0}
    simplicial = AskedMagnet(Z2, (Z2.element([1, 0]),))
    A = MonoidAlgebra(N0, MonoidIdeal(N0, avoided=(simplicial,)))
    assert support_report(A, 8) == SupportReport((Z2.zero(),), True, 1, False)
    assert simplicial.asked == []


def test_kept_asks_units_once_per_monoid(monkeypatch):
    G = FgAbelianGroup(2, (3,))
    N0 = Submonoid.generated_by(G, [[1, 0, 0], [1, 1, 1], [1, -1, 2], [2, 1, 0]])
    N = Submonoid.generated_by(G, [[1, 0, 0], [0, 1, 0]])
    Q = attractor(MonoidAlgebra(N0), N).quotient
    calls = Counter()
    real = monoids.units

    def counting(M):
        calls[M] += 1
        return real(M)

    monkeypatch.setattr(monoids, "units", counting)
    monkeypatch.setattr(graded, "units", counting)
    clear_library_caches()
    kept = graded._kept(Q)
    assert G.zero() in kept and len(kept) < 1 + len(N0.generators)
    assert calls == Counter({N0: 1})


def test_support_report_asks_units_once_per_monoid(monkeypatch):
    # positive_grading's sharpness check reads the verdict that the group
    # test of N0 already holds; a simplicial magnet answers from its
    # coefficient vectors and any other through contains, asking nothing
    G = FgAbelianGroup(2)
    N0 = Submonoid.generated_by(G, [[1, 0], [0, 1], [1, 1]])
    a = Submonoid.generated_by(G, [[1, 0], [1, 1]])
    b = Submonoid.generated_by(G, [[1, 0], [1, 1], [2, 1]])
    calls = Counter()
    real = monoids.units

    def counting(M):
        calls[M] += 1
        return real(M)

    monkeypatch.setattr(monoids, "units", counting)
    monkeypatch.setattr(graded, "units", counting)
    for magnet, want in ((a, Counter({N0: 1})), (b, Counter({N0: 1}))):
        calls.clear()
        clear_library_caches()
        rep = support_report(attractor(MonoidAlgebra(N0), magnet).quotient, probe_bound=6)
        assert G.element([1, 0]) in rep.members and G.element([0, 1]) not in rep.members
        assert calls == want, magnet


def test_free_attractor_asks_each_variable_once():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1]), ("z", [-1, 0]), ("w", [1, 1])])
    magnet = CountingMagnet(Submonoid.generated_by(Z2, [[1, 0], [0, 1]]))
    res = attractor(P, magnet)
    assert res.killed == ("z",)
    assert sorted(magnet.asked) == sorted(P.degrees())


def test_monoid_ideal_membership():
    N0 = Submonoid.generated_by(Z, [[2], [3]])
    I = MonoidIdeal(N0, generators=(Z.element([3]),))
    for k in (3, 5, 6, 7, 8):
        assert I.contains(Z.element([k]))
    for k in (0, 2, 4):
        assert not I.contains(Z.element([k]))


def test_monoid_ideal_generator_outside_monoid_rejected():
    N0 = Submonoid.generated_by(Z, [[2]])
    with pytest.raises(StructuralError):
        MonoidIdeal(N0, generators=(Z.element([3]),))


def test_avoided_magnet_ideal_kills_by_divisors():
    # in [2,3> the divisors of 6 are 0, 2, 3, 4, 6; only 2 escapes [3,4>
    N0 = Submonoid.generated_by(Z, [[2], [3]])
    six = Z.element([6])
    assert MonoidIdeal(N0, avoided=(Submonoid.generated_by(Z, [[3], [4]]),)).contains(six)
    assert not MonoidIdeal(N0, avoided=(Submonoid.generated_by(Z, [[2], [3]]),)).contains(six)
    assert not MonoidIdeal(N0, avoided=(ZERO,)).contains(Z.element([1]))
    assert not MonoidIdeal(N0, avoided=(ZERO,)).contains(Z.zero())


def members_up_to(group, gens, bound):
    """Members of [gens> with first coordinate <= bound, by brute force; every
    generator has a positive first coordinate, so this slice is finite."""
    found = {group.zero()}
    frontier = set(found)
    while frontier:
        frontier = {
            x + g for x in frontier for g in gens if (x + g).free[0] <= bound
        } - found
        found |= frontier
    return found


def random_generators(rng, group):
    if group.free_rank == 1:
        return [group.element([rng.randint(1, 6)]) for _ in range(rng.randint(1, 3))]
    return [
        group.element([rng.randint(1, 3), rng.randint(-3, 3)])
        for _ in range(rng.randint(1, 3))
    ]


def random_magnet(rng, group):
    coords = [
        [rng.randint(-4, 6) for _ in range(group.free_rank)]
        for _ in range(rng.randint(0, 3))
    ]
    return Submonoid.generated_by(group, coords)


@pytest.mark.parametrize("group", [Z, Z2], ids=["Z", "Z2"])
def test_avoided_magnet_ideal_matches_divisor_reference(group):
    # m is killed by avoiding M iff some divisor of m in N0 escapes M
    rng = random.Random(4)
    bound = 8 if group.free_rank == 1 else 5
    for _ in range(30):
        gens = random_generators(rng, group)
        N0 = Submonoid(group, tuple(gens))
        magnets = (random_magnet(rng, group),)
        if rng.random() < 0.3:
            magnets += (random_magnet(rng, group),)
        I = MonoidIdeal(N0, avoided=magnets)
        members = members_up_to(group, gens, bound)
        for m in sorted(members):
            divs = [d for d in members if m - d in members]
            want = any(not M.contains(d) for M in magnets for d in divs)
            assert I.contains(m) == want, (N0, magnets, m)
        for c in itertools.product(range(-1, bound + 1), repeat=group.free_rank):
            x = group.element(c)
            if x not in members:
                assert not I.contains(x)


def test_ideal_membership_on_a_non_sharp_chart_is_refused():
    N0 = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1]])
    I = MonoidIdeal(N0, avoided=(Submonoid.generated_by(Z2, [[1, 0]]),))
    for coords in ([0, 0], [0, 1], [-2, 3]):
        with pytest.raises(PreconditionError):
            I.contains(Z2.element(coords))


# --- weight modules -----------------------------------------------------------


def gl2_adjoint():
    # weights of the 2x2 matrix algebra under conjugation by the torus
    G = FgAbelianGroup(2, ())
    return WeightModule.of(
        G, [([1, -1], 1, "e"), ([-1, 1], 1, "f"), ([0, 0], 2, "t")]
    )


def test_weight_attractor_keeps_magnet_weights():
    W = gl2_adjoint()
    G = W.grading_group
    alpha = Submonoid.generated_by(G, [[1, -1]])
    kept = weight_attractor(W, alpha)
    assert kept.dimension == 3
    assert all(w in (G.element([1, -1]), G.element([0, 0])) for w, _, _ in kept.weights)


def test_weight_attractor_unchanged_when_all_weights_inside():
    W = gl2_adjoint()
    full = Submonoid.full(W.grading_group)
    assert weight_attractor(W, full) == W


def test_weight_attractor_subgroup_filter():
    W = gl2_adjoint()
    G = W.grading_group
    diag = Submonoid.subgroup_generated_by(G, [[1, -1]])
    kept = weight_attractor(W, diag)
    assert kept.dimension == 4
    zero_only = weight_attractor(W, Submonoid.zero(G))
    assert zero_only.dimension == 2


def test_weight_module_validation():
    with pytest.raises(StructuralError):
        WeightModule.of(Z, [([1], 0)])


@pytest.mark.parametrize("build", [
    lambda: WeightModule.of(Z, [([1], 1.9)]),
    lambda: WeightModule(Z, ((Z.element([1]), 1.9, None),)),
], ids=["of", "constructor"])
def test_a_fractional_multiplicity_is_refused(build):
    # int() would keep the weight with multiplicity 1; kept as given, the
    # module would have dimension 1.9
    with pytest.raises(StructuralError, match="^a multiplicity must be an integer, got 1.9$"):
        build()


# --- closed inclusions ------------------------------------------------------------


def test_inclusion_zero_into_anything():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    w = inclusion_is_closed(P, ZERO, NAT)
    assert w.extra_killed == ("x",)


def test_inclusion_nat_into_group():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    w = inclusion_is_closed(P, NAT, FULL_Z)
    assert w.extra_killed == ("y",)


def test_inclusion_identity():
    P = FreePoly.of(Z, [("x", [1])])
    assert inclusion_is_closed(P, NAT, NAT).extra_killed == ()


def test_inclusion_precondition():
    P = FreePoly.of(Z, [("x", [1])])
    with pytest.raises(PreconditionError):
        inclusion_is_closed(P, NAT, ZERO)


def test_inclusion_monoid_algebra_probes():
    A = monoschemes_algebra()
    L = Submonoid.generated_by(Z2, [[1, 0]])
    w = inclusion_is_closed(A, Submonoid.zero(Z2), L)
    assert w.extra_killed == (Z2.element([1, 0]),)


# --- face retractions ---------------------------------------------------------------


def test_face_retraction_axis():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    F = Submonoid.generated_by(Z2, [[1, 0]])
    fr = face_retraction(P, N, F)
    assert fr.section_kills == ("y",)
    assert fr.face_presentation.names() == ("x",)
    assert fr.attractor_presentation.names() == ("x", "y")


def test_face_retraction_trivial_face():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    fr = face_retraction(P, N, N)
    assert fr.section_kills == ()
    assert fr.face_presentation == fr.attractor_presentation


def test_face_retraction_requires_face():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    D = Submonoid.generated_by(Z2, [[1, 1]])
    with pytest.raises(PreconditionError):
        face_retraction(P, N, D)


def test_retraction_identity_over_all_faces():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1]), ("z", [1, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    for F in faces(N):
        fr = face_retraction(P, N, F)
        killed = set(fr.section_kills)
        assert all(n not in killed for n in fr.face_presentation.names())


# --- prescribed limits ---------------------------------------------------------------


def test_prescribed_limit_full_z_is_attractor():
    W = gl2_adjoint()
    G = W.grading_group
    N = Submonoid.generated_by(G, [[1, -1]])
    F = Submonoid.zero(G)
    WF = weight_attractor(W, F)
    assert prescribed_limit(W, N, F, WF) == weight_attractor(W, N)


def test_prescribed_limit_unit_extracts_root_space():
    W = gl2_adjoint()
    G = W.grading_group
    N = Submonoid.generated_by(G, [[1, -1]])
    F = Submonoid.zero(G)
    U = prescribed_limit(W, N, F, "unit")
    assert U.dimension == 1
    assert U.weights[0][0] == G.element([1, -1])


def test_prescribed_limit_freepoly_unit():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1]), ("c", [0, 0])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    F = Submonoid.zero(Z2)
    out = prescribed_limit(P, N, F, "unit", zero_coords=("c",))
    assert out.names() == ("x", "y")
    kept = prescribed_limit(P, N, F, "unit")
    assert kept.names() == ("x", "y", "c")


def test_prescribed_limit_freepoly_explicit_z():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    F = Submonoid.generated_by(Z2, [[1, 0]])
    out = prescribed_limit(P, N, F, ["x"])
    assert out.names() == ("y",)
    with pytest.raises(PreconditionError):
        prescribed_limit(P, N, F, ["y"])


def test_prescribed_limit_z_outside_f_part_rejected():
    W = gl2_adjoint()
    G = W.grading_group
    N = Submonoid.generated_by(G, [[1, -1]])
    F = Submonoid.zero(G)
    bad = WeightModule.of(G, [([1, -1], 1, "e")])
    with pytest.raises(PreconditionError):
        prescribed_limit(W, N, F, bad)


# --- intersections and iteration -------------------------------------------------------


def test_intersect_single_magnet():
    P = FreePoly.of(Z, [("x", [1]), ("y", [2])])
    r = intersect_attractors(P, [NAT])
    assert r.killed == ()


def test_intersect_kills_union():
    P = FreePoly.of(Z, [("x", [1]), ("y", [2])])
    N1 = Submonoid.generated_by(Z, [[1]])
    N2 = Submonoid.generated_by(Z, [[2]])
    r = intersect_attractors(P, [N1, N2])
    assert r.killed == ("x",)


def test_iterated_attractor_gm_plus_minus():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    MINUS = Submonoid.generated_by(Z, [[-1]])
    r = iterated_attractor(P, NAT, MINUS)
    assert r.quotient.vars == ()
    r2 = iterated_attractor(P, MINUS, NAT)
    assert r2.quotient.vars == ()


def test_iterated_attractor_full_is_identity():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    r = iterated_attractor(P, NAT, FULL_Z)
    assert r.quotient.names() == attractor(P, NAT).quotient.names()


def test_iterated_attractor_idempotent():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    r = iterated_attractor(P, NAT, NAT)
    assert r.quotient.names() == ("x",)


def test_iterated_attractor_monoid_algebra():
    A = monoschemes_algebra()
    L1 = Submonoid.generated_by(Z2, [[1, 0], [1, 1]])
    L2 = Submonoid.generated_by(Z2, [[1, 0], [1, -1]])
    r = iterated_attractor(A, L1, L2)
    assert r.quotient.survives(Z2.element([1, 0]))
    assert not r.quotient.survives(Z2.element([1, 1]))
    assert not r.quotient.survives(Z2.element([1, -1]))


# --- products and semidirect dimensions ---------------------------------------------------


def test_product_attractor_additivity():
    W = gl2_adjoint()
    G = W.grading_group
    alpha = Submonoid.generated_by(G, [[1, -1]])
    both = product_attractor(W, W, alpha)
    assert both.dimension == 6


def test_product_attractor_empty_side():
    W = gl2_adjoint()
    EMPTY = WeightModule(W.grading_group, ())
    out = product_attractor(W, EMPTY, Submonoid.full(W.grading_group))
    assert out == W


def test_semidirect_dims_gl2():
    W = gl2_adjoint()
    G = W.grading_group
    alpha = Submonoid.generated_by(G, [[1, -1]])
    assert semidirect_dims(W, alpha) == (3, 2, 1)


def test_semidirect_dims_group_case():
    W = gl2_adjoint()
    G = W.grading_group
    diag = Submonoid.subgroup_generated_by(G, [[1, -1]])
    total, limit, pres = semidirect_dims(W, diag)
    assert pres == 0
    assert total == limit == 4


# --- reindexing -----------------------------------------------------------------------


def test_reindex_freepoly():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1])])
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    Q = reindex(P, f)
    assert Q.grading_group == Z
    assert Q.degrees() == (Z.element([1]), Z.element([1]))


def test_reindex_matches_preimage_attractor():
    P = FreePoly.of(Z2, [("x", [1, 0]), ("y", [0, 1]), ("z", [1, -1])])
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    pulled = PreimageMonoid(f, NAT)
    direct = attractor(P, pulled)
    pushed = attractor(reindex(P, f), NAT)
    assert direct.killed == pushed.killed


def test_reindex_weight_module_commutes_with_the_weight_attractor():
    W = WeightModule.of(Z2, [([1, 0], 1, "a"), ([0, -1], 2, "b"), ([2, -1], 1),
                             ([1, -1], 1, "z"), ([-1, -1], 3, "c")])
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    pushed = weight_attractor(reindex(W, f), NAT)
    assert pushed == reindex(weight_attractor(W, PreimageMonoid(f, NAT)), f)
    assert pushed.grading_group == Z
    assert pushed.weights == ((Z.zero(), 1, "z"), (Z.element([1]), 1, None),
                              (Z.element([1]), 1, "a"))


def test_reindex_monoid_algebra_goes_to_the_image_monoid():
    N = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    assert reindex(MonoidAlgebra(N), f) == MonoidAlgebra(NAT)
    killed = MonoidIdeal(N, (Z2.element([1, 0]),))
    with pytest.raises(PreconditionError, match="before killing an ideal"):
        reindex(MonoidAlgebra(N, killed), f)


# --- randomized identities --------------------------------------------------------------


def small_element(group):
    return st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(group.element)


def small_monoid(group):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=0,
        max_size=3,
    ).map(lambda gens: Submonoid.generated_by(group, gens))


def small_poly(group):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        min_size=1,
        max_size=8,
    ).map(
        lambda ds: FreePoly(
            group, tuple(("v%d" % i, group.element(d)) for i, d in enumerate(ds))
        )
    )


@settings(max_examples=60, deadline=None)
@given(small_poly(Z2), small_monoid(Z2), small_monoid(Z2))
def test_property_intersection_kills_union(P, N, L):
    r = intersect_attractors(P, [N, L])
    assert set(r.killed) == set(attractor(P, N).killed) | set(attractor(P, L).killed)


@settings(max_examples=60, deadline=None)
@given(small_poly(Z2), small_monoid(Z2), small_monoid(Z2))
def test_property_iteration_both_orders(P, N, L):
    a = iterated_attractor(P, N, L)
    b = iterated_attractor(P, L, N)
    assert a.quotient == b.quotient


@settings(max_examples=40, deadline=None)
@given(small_poly(Z2), small_monoid(Z2))
def test_property_monotone_killing(P, N):
    bigger = Submonoid(Z2, N.generators + (Z2.element([1, 0]),))
    assert set(attractor(P, bigger).killed) <= set(attractor(P, N).killed)


@settings(max_examples=25, deadline=None)
@given(small_poly(Z2), small_monoid(Z2))
def test_property_retraction_over_faces(P, N):
    for F in faces(N, max_generators=6):
        fr = face_retraction(P, N, F)
        assert set(fr.face_presentation.names()) <= set(
            fr.attractor_presentation.names()
        )


@settings(max_examples=40, deadline=None)
@given(
    small_poly(Z2),
    st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
    small_monoid(Z2),
)
def test_property_reindexing_invariance(P, cols, Y):
    f = hom_from_matrix(Z2, Z2, cols)
    assert attractor(P, PreimageMonoid(f, Y)).killed == attractor(reindex(P, f), Y).killed
