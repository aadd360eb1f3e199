import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from magnetkit.diophantine import has_nonneg_solution
from magnetkit.errors import (
    NoCertificateError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from magnetkit.groups import FgAbelianGroup, hom_from_matrix
from magnetkit import monoids
from magnetkit.monoids import (
    GradingMorphism,
    Intersection,
    PreimageMonoid,
    Submonoid,
    closed_sets,
    coefficient_test,
    contains,
    faces,
    groupification,
    intersection,
    is_face,
    is_generating,
    is_group,
    is_sharp,
    maximal_without,
    monoid_rank_sharp,
    positive_grading,
    pushout_complement,
    same_submonoid,
    sharp_quotient,
    units,
)

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(2, ())
Z6 = FgAbelianGroup(0, (6,))

NAT = Submonoid.generated_by(Z, [[1]])
NAT2 = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])


def oracle_member(group, gen_coords, target_coords, cap=12):
    """Exhaustive check over all combinations with coefficient sum <= cap."""
    free = group.free_rank
    orders = group.torsion_orders

    def matches(v):
        for i in range(free):
            if v[i] != target_coords[i]:
                return False
        for j, n in enumerate(orders):
            if (v[free + j] - target_coords[free + j]) % n != 0:
                return False
        return True

    k = len(gen_coords)
    for total in range(cap + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            v = [0] * group.coord_count
            for i in combo:
                for j in range(group.coord_count):
                    v[j] += gen_coords[i][j]
            if matches(v):
                return True
    return False


# --- membership -----------------------------------------------------------


def test_zero_always_member():
    assert contains(Submonoid.zero(Z2), Z2.zero())
    assert contains(NAT2, Z2.zero())


def test_membership_matches_oracle_on_frozen_cases():
    N = Submonoid.generated_by(Z, [[3], [5]])
    for t in range(-4, 20):
        got = contains(N, Z.element([t]))
        want = oracle_member(Z, [(3,), (5,)], (t,))
        assert got == want, t
    # numerical semigroup gap structure: 1,2,4,7 out; 8 and beyond in
    assert not contains(N, Z.element([7]))
    assert contains(N, Z.element([8]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-3, 3), st.integers(0, 3)),
        min_size=0,
        max_size=3,
    ),
    st.tuples(st.integers(-6, 6), st.integers(0, 5)),
)
def test_membership_matches_oracle_mixed_torsion(gen_coords, target):
    G = FgAbelianGroup(1, (6,))
    N = Submonoid.generated_by(G, gen_coords)
    got = contains(N, G.element(target))
    # solver True must be confirmable; solver False must survive a deep oracle
    if got:
        assert any(
            oracle_member(G, [g.coords for g in N.generators], G.element(target).coords, cap)
            for cap in (8, 16, 32)
        )
    else:
        assert not oracle_member(
            G, [g.coords for g in N.generators], G.element(target).coords, 16
        )


def test_generators_are_members_without_the_solver(monkeypatch):
    N = Submonoid.generated_by(Z2, [[3, -1], [1, 4]])
    monkeypatch.setattr(monoids, "has_nonneg_solution", None)
    assert all(contains(N, g) for g in N.generators)


def _witnessed(N, m, w):
    """A witness answer as a bool, a "yes" checked: one nonnegative
    coefficient per generator of N, summing to m in the group."""
    if w is not None:
        assert len(w) == len(N.generators) and min(w, default=0) >= 0, (N.describe(), m, w)
        total = N.ambient.zero()
        for k, g in zip(w, N.generators):
            total = total + g.scale(k)
        assert total == m, (N.describe(), m, w)
    return w is not None


def _tier_questions(seed, f, orders, with_units):
    """A seeded monoid in Z^f x orders and questions with known answers.

    Every generator has an even first coordinate and w.g >= 0 on its free
    part (w.u = 0 on the unit pair u, -u), so a target with an odd first
    coordinate is a lattice non-member and one with w.t < 0 a cone
    non-member; members are built from a witness.  Small targets get the
    bare solver's answer.  In Z a unit pair leaves no proper cone, w = 0.
    """
    rng = random.Random(seed)
    G = FgAbelianGroup(f, orders)

    def vector(lo, hi):
        v = [rng.randint(lo, hi) for _ in range(f)] + [rng.randrange(n) for n in orders]
        v[0] *= 2
        return v

    def combine(coeffs, vectors):
        return [sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(G.coord_count)]

    w = [rng.choice([-2, -1, 1, 2]) for _ in range(f)]
    if with_units and f == 1 and not orders:
        w = [0]
    weight = lambda v: sum(a * b for a, b in zip(w, v))
    gens = []
    while len(gens) < 3:
        v = vector(-3, 3)
        if weight(v) > 0 or not any(w):
            gens.append(v)
    if with_units:
        u = vector(-3, 3)
        if f > 1:
            u[:2] = [2 * w[1], -2 * w[0]]
        elif orders:
            u[0] = 0
            u[1] = 1 + rng.randrange(orders[0] - 1)
        u[2:f] = [0] * (f - 2)
        gens += [u, [-c for c in u]]
    moduli = (0,) * f + G.torsion_orders
    questions = []
    for _ in range(4):
        target = combine([rng.randint(0, 12) for _ in gens], gens)
        questions.append((target, True))
        odd = list(target)
        odd[0] += 1
        questions.append((odd, False))
        if any(w):
            t = vector(-30, 30)
            while weight(t) >= 0:
                t = vector(-30, 30)
            questions.append((t, False))
        t = vector(-2, 2)
        questions.append((t, has_nonneg_solution(gens, t, moduli) is not None))
    return Submonoid.generated_by(G, gens), [(G.element(t), a) for t, a in questions]


@pytest.mark.parametrize("with_units", [False, True], ids=["sharp", "units"])
@pytest.mark.parametrize("orders", [(), (2,), (3,)], ids=["free", "Z2", "Z3"])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_tiers_agree_with_certified_answers(f, orders, with_units):
    for seed in range(3):
        N, questions = _tier_questions(repr((f, orders, with_units, seed)), f, orders,
                                       with_units)
        for m, want in questions:
            assert _witnessed(N, m, monoids._after_first_pass(N, m)) is want, (N.describe(), m)


# the Z3 family of the membership benchmark, whose ladders double the size
Z3_FAMILY = [[1, 0, 0], [0, 1, 0], [1, 1, 1], [2, -1, 1], [0, 0, 1]]


def _first_passes(monkeypatch):
    """Count the solver calls made with the first pass's node budget."""
    calls = []
    real = monoids.has_nonneg_solution

    def counted(*args, **kwargs):
        if kwargs.get("max_nodes") == monoids.FIRST_PASS_NODES:
            calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(monoids, "has_nonneg_solution", counted)
    monoids._cached_contains.cache_clear()
    return calls


def test_deep_member_skips_the_first_pass(monkeypatch):
    G = FgAbelianGroup(3)
    N = Submonoid.generated_by(G, Z3_FAMILY)
    # a sum of 128 generators, with coefficients (40, 30, 20, 25, 13); any
    # witness has length at least 58, and C(58 + 5, 5) is far past 100
    m = G.element([110, 25, 58])
    assert monoids._witness_length_bound(Z3_FAMILY, m.free) == 58
    calls = _first_passes(monkeypatch)
    assert contains(N, m)
    assert calls == []


def test_generator_adjacent_question_keeps_the_first_pass(monkeypatch):
    G = FgAbelianGroup(3)
    N = Submonoid.generated_by(G, Z3_FAMILY)
    calls = _first_passes(monkeypatch)
    assert contains(N, G.element([1, 1, 0]))
    # only (2, -1, 1) reaches y < 0, and it forces x >= 2: not sign-separable,
    # so the first pass decides this "no"
    assert not contains(N, G.element([0, -1, 0]))
    assert calls == [(1, 1, 0), (0, -1, 0)]
    # no generator has x < 0: sign-separable, a "no" without the solver
    monkeypatch.setattr(monoids, "has_nonneg_solution", None)
    assert not contains(N, G.element([-1, 0, 0]))


def _refuse(*args, **kwargs):
    raise AssertionError("a sign-separable target reached a solver")


@pytest.mark.parametrize("with_pair", [False, True], ids=["sharp", "pair"])
@pytest.mark.parametrize("orders", [(), (2,), (3,)], ids=["free", "Z2", "Z3"])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_sign_separable_targets_are_answered_without_a_solver(monkeypatch, f, orders,
                                                              with_pair):
    # every generator has sign[i] * g[i] <= 0 in one free coordinate i, so a
    # target with sign[i] * t[i] > 0 is sign-separable; a +- pair is 0 there
    rng = random.Random(repr((f, orders, with_pair)))
    G = FgAbelianGroup(f, orders)
    moduli = (0,) * f + orders

    def vector():
        return [rng.randint(-3, 3) for _ in range(f)] + [rng.randrange(n) for n in orders]

    cases = []
    for _ in range(3):
        i, sign = rng.randrange(f), rng.choice([-1, 1])
        gens = []
        for _ in range(rng.randint(1, 4)):
            g = vector()
            g[i] = -sign * abs(g[i])
            gens.append(g)
        if with_pair:
            u = vector()
            u[i] = 0
            gens += [u, [-c for c in u]]
        N = Submonoid.generated_by(G, gens)
        columns = [g.coords for g in N.generators]
        for _ in range(6):
            t = vector()
            t[i] = sign * rng.randint(1, 3)
            assert monoids._witness_length_bound(columns, t[:f]) == 0
            cases.append((N, G.element(t), has_nonneg_solution(columns, t, moduli) is not None))
    assert not any(want for _, _, want in cases)
    monkeypatch.setattr(monoids, "has_nonneg_solution", _refuse)
    monkeypatch.setattr(monoids.linalg, "solve", _refuse)
    monkeypatch.setattr(monoids.lp, "simplex", _refuse)
    monoids._cached_contains.cache_clear()
    for N, m, want in cases:
        assert contains(N, m) is want, (N.describe(), m)


def test_a_target_with_zero_free_part_still_reaches_the_solver(monkeypatch):
    # (0, 1) has a zero free part, so its witness length bound is 0 too, but
    # it is not sign-separable: (1, 1) + (-1, 0) reaches it
    G = FgAbelianGroup(1, (2,))
    N = Submonoid.generated_by(G, [[1, 1], [-1, 0]])
    m = G.element([0, 1])
    assert monoids._witness_length_bound([g.coords for g in N.generators], m.free) == 0
    calls = _first_passes(monkeypatch)
    assert contains(N, m)
    assert calls == [(0, 1)]


def _routed_questions(f, orders):
    """The seed-0 questions of _tier_questions on a sharp monoid that
    _cached_contains routes past the first pass."""
    N, questions = _tier_questions(repr((f, orders, False, 0)), f, orders, False)
    columns = [g.coords for g in N.generators]
    k = len(columns) + 2 * len(orders)
    routed = [(m, want) for m, want in questions
              if math.comb(monoids._witness_length_bound(columns, m.free) + k, k)
              > monoids.FIRST_PASS_NODES]
    assert routed
    return N, routed


@pytest.mark.parametrize("orders", [(), (2,), (3,)], ids=["free", "Z2", "Z3"])
@pytest.mark.parametrize("f", [1, 2, 3])
def test_routed_answers_match_the_complete_solver(f, orders):
    # sharp monoids only: with a unit pair the bare solver at its full cap
    # takes seconds on some routed questions and caps on others; the tiers'
    # answers there are checked by test_tiers_agree_with_certified_answers
    N, routed = _routed_questions(f, orders)
    columns = [g.coords for g in N.generators]
    monoids._cached_contains.cache_clear()
    for m, want in routed:
        full = has_nonneg_solution(columns, m.coords, (0,) * f + orders)
        assert _witnessed(N, m, full) is want, (N.describe(), m)
        assert contains(N, m) is want, (N.describe(), m)


def test_witness_case_past_the_old_node_cap():
    G = FgAbelianGroup(3)
    N = Submonoid.generated_by(G, [[1, 0, 0], [0, 1, 0], [1, 1, 1], [2, -1, 1], [0, 0, 1]])
    columns = [g.coords for g in N.generators]
    with pytest.raises(ResourceLimitError):
        has_nonneg_solution(columns, (32, 32, 32), max_nodes=monoids.FIRST_PASS_NODES)
    assert contains(N, G.element([32, 32, 32]))


def test_a_capped_rounding_residual_leaves_the_question_to_the_complete_solver(monkeypatch):
    # 7 is in the cone and the lattice of <2, 3>, and the LP vertex, 7/2 or
    # 7/3 on one generator, is not integral, so the rounding tier runs: its
    # floor leaves the residual 1, whose solver call caps here
    G = FgAbelianGroup(1)
    N = Submonoid.generated_by(G, [[2], [3]])
    m = G.element([7])
    calls = []
    real = monoids.has_nonneg_solution

    def residuals_cap(columns, target, moduli, **kwargs):
        calls.append(tuple(target))
        if tuple(target) != m.coords:
            raise ResourceLimitError("capped residual")
        return real(columns, target, moduli, **kwargs)

    monkeypatch.setattr(monoids, "has_nonneg_solution", residuals_cap)
    assert _witnessed(N, m, monoids._after_first_pass(N, m))
    assert calls == [(1,), (7,)]


def test_cone_tier_no_is_crosschecked(monkeypatch):
    G = FgAbelianGroup(2)
    N = Submonoid.generated_by(G, [[1, 0], [1, 1]])
    m = G.element([-30, 1])
    assert monoids._after_first_pass(N, m) is None
    # (0, 1) is >= 0 on both generators but also on m, so it separates nothing
    wrong = monoids.lp.LPResult(None, (0, 1), 1)
    monkeypatch.setattr(monoids.lp, "simplex", lambda A, b: wrong)
    with pytest.raises(StructuralError, match="cone separator") as raised:
        monoids._after_first_pass(N, m)
    assert str(raised.value).endswith(" from " + N.describe())


def _later_tier(*args, **kwargs):
    raise AssertionError("a question the cone tiers answer reached a later tier")


def _cone_questions():
    """Deep questions the cone tiers answer, each with its answer, and two
    lattice "no"s past them."""
    Z3 = FgAbelianGroup(3)
    Z2T6 = FgAbelianGroup(2, (6,))
    N3 = Submonoid.generated_by(Z3, Z3_FAMILY)
    N2 = Submonoid.generated_by(Z2, [[2, 0], [1, 1], [0, 2], [1, -1]])
    N6 = Submonoid.generated_by(Z2T6, [[1, 0, 1], [0, 1, 2], [1, 1, 3], [2, -1, 0]])
    # the LP vertex of each member is integral, and (0, -30, 40) lies outside
    # the cone: x + 2y >= 0 holds on every generator
    cone = [(N3, Z3.element([110, 25, 58]), True), (N2, Z2.element([40, 20]), True),
            (N6, Z2T6.element([40, 30, 4]), True), (N3, Z3.element([0, -30, 40]), False)]
    # (41, 20) has a half-integral vertex; the integral vertex of (40, 30, 1)
    # reaches (40, 30, 4), so its torsion misses; both are lattice "no"s
    lattice = [(N2, Z2.element([41, 20]), False), (N6, Z2T6.element([40, 30, 1]), False)]
    return cone, lattice


def test_the_cone_and_an_integral_vertex_answer_before_the_lattice(monkeypatch):
    cone, lattice = _cone_questions()
    calls = []
    real = monoids.linalg.solve

    def counted(A, b):
        calls.append(tuple(b))
        return real(A, b)

    monkeypatch.setattr(monoids.linalg, "solve", counted)
    for N, m, want in lattice:
        assert _witnessed(N, m, monoids._after_first_pass(N, m)) is want, m
    assert calls == [(41, 20), (40, 30, 1)]
    monkeypatch.setattr(monoids.linalg, "solve", _later_tier)
    monkeypatch.setattr(monoids, "has_nonneg_solution", _later_tier)
    for N, m, want in cone:
        assert _witnessed(N, m, monoids._after_first_pass(N, m)) is want, m


def test_a_deep_answer_formats_no_message(monkeypatch):
    # every check passes, so no crosscheck message names its monoid
    cone, lattice = _cone_questions()
    routed = []
    for f in [1, 2, 3]:
        for orders in [(), (2,), (3,)]:
            N, questions = _routed_questions(f, orders)
            routed += [(N, m, want) for m, want in questions]
    described = []
    real = Submonoid.describe

    def counted(self):
        described.append(self)
        return real(self)

    monkeypatch.setattr(Submonoid, "describe", counted)
    monkeypatch.setattr(Submonoid, "__str__", counted)
    for N, m, want in cone + lattice:
        assert (monoids._after_first_pass(N, m) is not None) is want, m
    monoids._cached_contains.cache_clear()
    for N, m, want in routed:
        assert contains(N, m) is want, m
    assert described == []


def test_a_forged_integral_vertex_is_crosschecked(monkeypatch):
    G = FgAbelianGroup(2)
    N = Submonoid.generated_by(G, [[1, 0], [1, 1]])
    m = G.element([30, 1])
    assert _witnessed(N, m, monoids._after_first_pass(N, m))
    # (2, 0) over 2 is the integral (1, 0), which reaches (1, 0), not (30, 1)
    forged = monoids.lp.LPResult((2, 0), None, 2)
    monkeypatch.setattr(monoids.lp, "simplex", lambda A, b: forged)
    with pytest.raises(StructuralError, match="LP vertex") as raised:
        monoids._after_first_pass(N, m)
    assert str(raised.value).endswith(" in " + N.describe())


def test_pure_torsion_targets_skip_the_empty_vertex():
    # with no free rows the LP returns an empty vertex, which is no witness
    T = FgAbelianGroup(0, (1000,))
    N = Submonoid.generated_by(T, [[7]])
    with pytest.raises(ResourceLimitError):
        has_nonneg_solution([(7,)], (999,), (1000,), max_nodes=monoids.FIRST_PASS_NODES)
    ZT = FgAbelianGroup(1, (1000,))
    M = Submonoid.generated_by(ZT, [[1, 7], [-1, 0]])
    monoids._cached_contains.cache_clear()
    for L, m in [(N, T.element([1])), (N, T.element([3])), (N, T.element([999])),
                 (M, ZT.element([5, 3]))]:
        assert _witnessed(L, m, monoids._after_first_pass(L, m)), m
        assert contains(L, m) is True, m


def _tier_members():
    """The member questions of test_tiers_agree_with_certified_answers, each
    with its monoid."""
    out = []
    for f in [1, 2, 3]:
        for orders in [(), (2,), (3,)]:
            for with_units in [False, True]:
                for seed in range(3):
                    N, questions = _tier_questions(repr((f, orders, with_units, seed)), f,
                                                   orders, with_units)
                    out += [(N, m, with_units) for m, want in questions if want]
    return out


def test_every_tier_witnesses_its_members(monkeypatch):
    # the cone tiers' witnesses are checked by
    # test_tiers_agree_with_certified_answers
    members = _tier_members()
    assert len(members) == 267
    for N, m, _ in members:
        for i, g in enumerate(N.generators):
            assert monoids._cached_contains(N, g) == tuple(int(j == i) for j in range(len(N.generators)))
        columns = [g.coords for g in N.generators]
        moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders
        try:
            first = has_nonneg_solution(columns, m.coords, moduli, max_nodes=monoids.FIRST_PASS_NODES)
        except ResourceLimitError:
            continue
        assert _witnessed(N, m, first)
    # LP rounding: the vertex moved off the lattice by 1/(2d)
    simplex = monoids.lp.simplex

    def off_lattice(A, b):
        cone = simplex(A, b)
        if cone.x is None:
            return cone
        return monoids.lp.LPResult(tuple(2 * v + 1 for v in cone.x), cone.separator, 2 * cone.d)

    # keeps its floors, so the integral-vertex tier passes and the floors plus
    # a residual witness answer; with a unit pair the residual solves and the
    # complete solver below take seconds, so both run on the sharp monoids
    monkeypatch.setattr(monoids.lp, "simplex", off_lattice)
    for N, m, with_units in members:
        if not with_units:
            assert _witnessed(N, m, monoids._after_first_pass(N, m))
    # the complete solver, with every residual capped
    solver = monoids.has_nonneg_solution

    def residuals_cap(columns, target, moduli, **kwargs):
        if tuple(target) != m.coords:
            raise ResourceLimitError("capped residual")
        return solver(columns, target, moduli, **kwargs)

    monkeypatch.setattr(monoids, "has_nonneg_solution", residuals_cap)
    for N, m, with_units in members:
        if not with_units:
            assert _witnessed(N, m, monoids._after_first_pass(N, m))


def test_contains_answers_exactly_true_or_false():
    monoids._cached_contains.cache_clear()
    for f in [1, 2]:
        for orders in [(), (3,)]:
            N, questions = _tier_questions(repr((f, orders, False, 0)), f, orders, False)
            for m, want in questions + [(N.ambient.zero(), True)]:
                assert contains(N, m) is want, m


def test_the_rounding_tier_backs_off_to_a_witness():
    # in <2, 3> the LP vertex of 7 is 7/2 or 7/3 on one generator; its floor
    # leaves the non-member 1, one step back leaves a generator
    N = Submonoid.generated_by(Z, [[2], [3]])
    assert monoids._after_first_pass(N, Z.element([7])) == (2, 1)


def test_cross_ambient_membership_rejected():
    with pytest.raises(StructuralError):
        contains(NAT, Z2.zero())


# --- units, groups, sharpness ----------------------------------------------


def test_units_of_half_plane():
    N = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1]])
    u = units(N)
    assert contains(u, Z2.element([5, 0]))
    assert contains(u, Z2.element([-5, 0]))
    assert not contains(u, Z2.element([0, 1]))
    assert is_group(u)


def test_units_detect_hidden_inverses():
    # -1 = 2 + 3 * (-1) is not how it works; but [2, -3> has unit group Z
    N = Submonoid.generated_by(Z, [[2], [-3]])
    assert contains(N, Z.element([-1]))
    assert contains(N, Z.element([1]))
    assert is_group(units(N))
    assert same_submonoid(units(N), Submonoid.subgroup_generated_by(Z, [[1]]))


def test_sharpness():
    assert is_sharp(NAT2)
    assert is_sharp(Submonoid.zero(Z))
    assert not is_sharp(Submonoid.full(Z6))
    assert not is_sharp(Submonoid.generated_by(Z2, [[1, 0], [-1, 0]]))


def test_groupification():
    N = Submonoid.generated_by(Z2, [[2, 0], [0, 3]])
    g = groupification(N)
    assert contains(g, Z2.element([-2, 3]))
    assert not contains(g, Z2.element([1, 0]))


# --- faces ------------------------------------------------------------------


def test_faces_of_quadrant():
    fs = faces(NAT2)
    assert len(fs) == 4
    descriptions = {f.describe() for f in fs}
    assert descriptions == {"[0]", "[(1,0)>", "[(0,1)>", "[(0,1), (1,0)>"}


def test_diagonal_is_not_a_face_of_quadrant():
    D = Submonoid.generated_by(Z2, [[1, 1]])
    assert not is_face(D, NAT2)


def test_faces_contain_units():
    N = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1]])
    fs = faces(N)
    # units Z x 0 is the minimal face; the only other face is all of N
    assert len(fs) == 2
    for f in fs:
        assert contains(f, Z2.element([1, 0]))
        assert contains(f, Z2.element([-1, 0]))


def test_face_of_numerical_semigroup_is_trivial_or_everything():
    N = Submonoid.generated_by(Z, [[2], [3]])
    fs = faces(N)
    assert len(fs) == 2


def test_whole_monoid_and_zero_are_faces():
    N = Submonoid.generated_by(Z2, [[1, 2], [1, 0]])
    assert is_face(Submonoid.zero(Z2), N)
    assert is_face(N, N)


def test_face_candidate_outside_monoid_rejected():
    with pytest.raises(PreconditionError):
        is_face(Submonoid.generated_by(Z2, [[1, -1]]), NAT2)


def test_faces_in_z2_times_z3_with_units():
    # units(N) and N itself
    G = FgAbelianGroup(2, (3,))
    N = Submonoid.generated_by(
        G, [[0, -1, 2], [-2, 2, 1], [3, -3, 1], [-3, 1, 1], [2, -2, 1], [2, -2, 0]]
    )
    bottom, top = faces(N)
    assert same_submonoid(bottom, units(N))
    assert same_submonoid(top, N)
    assert is_face(bottom, N) and is_face(top, N)


def test_faces_of_a_six_generator_monoid_in_z3_times_z3():
    # the membership closure [S, -gens> exhausts the solver's node cap here;
    # 12 is also the number of face sets cut out by supporting functionals
    G = FgAbelianGroup(3, (3,))
    N = Submonoid.generated_by(G, [[-2, -3, 1, 1], [1, 2, -2, 2], [3, 3, -2, 1],
                                   [1, 0, 0, 1], [-3, -2, -2, 2], [-1, -2, -3, 2]])
    fs = faces(N)
    assert len(fs) == 12
    assert all(is_face(F, N) for F in fs)


def _is_face_by_columns(F, N):
    """Face test as one solver query per generator g of N outside F:
    g + (N-combination) = (F-combination), with F and -N as columns."""
    moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders
    cols = [f.coords for f in F.generators]
    cols += [tuple(-c for c in g.coords) for g in N.generators]
    return all(has_nonneg_solution(cols, g.coords, moduli) is None
               for g in N.generators if not contains(F, g))


def _first_presentations(N):
    """Faces by the exhaustive scan: each face at its first generating subset
    in (size, lexicographic) order, tested by the solver query."""
    found = []
    for r in range(len(N.generators) + 1):
        for subset in itertools.combinations(N.generators, r):
            F = Submonoid(N.ambient, subset)
            if not any(same_submonoid(F, G) for G in found) and _is_face_by_columns(F, N):
                found.append(F)
    return sorted(found, key=lambda F: (len(F.generators), F.generators))


@pytest.mark.parametrize("group, gens", [
    (Z2, [[-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]),
    (Z2, [[1, 0], [-1, 0], [2, 0], [0, 1], [1, 1], [-1, 1]]),
    (Z2, [[1, 0], [0, 1], [1, 1], [2, 1]]),
    (FgAbelianGroup(1, (2,)), [[1, 0], [1, 1], [-1, 1], [0, 1], [2, 0]]),
    (FgAbelianGroup(3, ()), [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]),
])
def test_faces_match_the_exhaustive_scan(group, gens):
    N = Submonoid.generated_by(group, gens)
    assert list(faces(N)) == _first_presentations(N)


def _solver_face_closure(N):
    """The smallest face containing S as the generators dividing a member of
    [S>, those in [S, -gens>: one complete-solver query per generator."""
    gens = N.generators
    moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders
    negated = [tuple(-c for c in g.coords) for g in gens]

    def closure(S):
        cols = [gens[i].coords for i in S] + negated
        return [i for i, g in enumerate(gens)
                if i in S or has_nonneg_solution(cols, g.coords, moduli) is not None]
    return closure


def _face_parity_monoids(seed, count):
    """Seeded monoids on 1-6 generators in free rank 0-3, with torsion, +-
    pairs and generators whose free part is zero."""
    rng = random.Random(seed)
    groups = [Z, Z2, FgAbelianGroup(3, ()), FgAbelianGroup(1, (2,)), FgAbelianGroup(2, (3,)),
              FgAbelianGroup(2, (2, 4)), FgAbelianGroup(0, (2, 4)), Z6]
    for _ in range(count):
        G = rng.choice(groups)
        r = G.free_rank
        gens = [[rng.randint(-2, 2) for _ in range(r)] + [rng.randrange(n) for n in G.torsion_orders]
                for _ in range(rng.randint(1, 4))]
        if r and rng.random() < 0.3:
            g = rng.choice(gens)
            gens.append([-v for v in g[:r]] + g[r:])
        if G.torsion_orders and rng.random() < 0.3:
            gens.append([0] * r + [rng.randrange(n) for n in G.torsion_orders])
        yield Submonoid.generated_by(G, gens)


def test_faces_and_is_face_match_the_solver_closure():
    rng = random.Random(13)
    compared, kinds, answers = 0, set(), set()
    for N in _face_parity_monoids(9, 170):
        gens = N.generators
        candidates = [Submonoid(N.ambient, tuple(g for g in gens if rng.random() < 0.5))
                      for _ in range(3)]
        try:
            want = set(closed_sets(len(gens), _solver_face_closure(N)))
            verdicts = [_is_face_by_columns(F, N) for F in candidates]
        except ResourceLimitError:
            continue
        got = faces(N)
        assert len(got) == len(want), N.describe()
        assert {tuple(i for i, g in enumerate(gens) if contains(F, g)) for F in got} == want
        assert all(is_face(Submonoid(N.ambient, tuple(gens[i] for i in C)), N) for C in want)
        for F, verdict in zip(candidates, verdicts):
            assert is_face(F, N) == verdict, (F.describe(), N.describe())
            answers.add(verdict)
        compared += 1
        kinds.add("torsion" if N.ambient.torsion_orders else "free")
        if not N.ambient.free_rank:
            kinds.add("free rank 0")
        else:
            kinds.update("pair" for g in gens if -g in gens and any(g.free))
            kinds.update("no free part" for g in gens if not any(g.free))
    assert compared >= 150
    assert kinds == {"torsion", "free", "pair", "no free part", "free rank 0"}
    assert answers == {False, True}


def test_the_unit_group_generating_subset_search_is_capped(monkeypatch):
    # Z^2 given by +-e_i is generated only by all four: the search tries the
    # 16 subsets of its generators, the empty one first
    N = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1], [0, -1]])
    monkeypatch.setattr(monoids, "GENERATING_SUBSET_CAP", 16)
    assert faces(N) == (N,)
    monkeypatch.setattr(monoids, "GENERATING_SUBSET_CAP", 15)
    with pytest.raises(ResourceLimitError, match="over 4 unit-group generators passed "
                                                 "the cap of 15 subsets"):
        faces(N)


# --- closed-set engine -------------------------------------------------------


def _implication_closure(implications):
    def closure(S):
        X = set(S)
        grown = True
        while grown:
            grown = False
            for premise, conclusion in implications:
                if premise <= X and not conclusion <= X:
                    X |= conclusion
                    grown = True
        return sorted(X)
    return closure


def test_closed_sets_match_the_mask_reference():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 8)
        implications = [
            (set(rng.sample(range(n), rng.randint(0, min(n, 3)))),
             set(rng.sample(range(n), rng.randint(1, min(n, 2)))))
            for _ in range(rng.randint(0, 6) if n else 0)
        ]
        closure = _implication_closure(implications)
        reference = {
            S for S in (
                tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)
            )
            if tuple(closure(S)) == S
        }
        got = list(closed_sets(n, closure))
        assert set(got) == reference
        assert len(got) == len(reference)
        # lectic order: the first index where two sets differ is in the later
        keys = [sum(1 << (n - 1 - i) for i in S) for S in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_maximal_without_lists_the_maximal_closed_sets_avoiding_each_point():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 7)
        implications = [
            (set(rng.sample(range(n), rng.randint(0, min(n, 3)))),
             set(rng.sample(range(n), rng.randint(1, min(n, 2)))))
            for _ in range(rng.randint(0, 6))
        ]
        closed = list(closed_sets(n, _implication_closure(implications)))
        got = list(maximal_without(n, closed))
        assert [p for p, _ in got] == sorted(p for p, _ in got)
        for p in range(n):
            avoiding = [set(S) for S in closed if p not in S]
            want = {tuple(sorted(S)) for S in avoiding if not any(S < T for T in avoiding)}
            kept = [C for q, C in got if q == p]
            assert set(kept) == want and len(kept) == len(want)
            assert [len(C) for C in kept] == sorted((len(C) for C in kept), reverse=True)
    # two maximal sets avoid 0
    assert list(maximal_without(3, [(), (0,), (1,), (2,), (0, 1, 2)])) == [
        (0, (1,)), (0, (2,)), (1, (0,)), (1, (2,)), (2, (0,)), (2, (1,))]


def _certified(E):
    """The sets SumClosure lists on E once certify learns no more rules, and
    the rules it learned."""
    closure = monoids.SumClosure(E)
    closed = list(closed_sets(len(E), closure))
    learned = []
    while True:
        rules = closure.certify(closed)
        if not rules:
            return closed, learned
        learned += rules
        closed = list(closed_sets(len(E), closure))


def _truly_closed(E):
    """Every index set S with E ∩ [S> = S, by a scan of all 2^n sets."""
    G = E[0].ambient
    out = set()
    for mask in range(1 << len(E)):
        S = tuple(i for i in range(len(E)) if mask >> i & 1)
        N = Submonoid(G, tuple(E[i] for i in S))
        if all(i in S or not contains(N, e) for i, e in enumerate(E)):
            out.add(S)
    return out


def test_the_certified_sum_closure_lists_the_truly_closed_sets():
    rng = random.Random(36)
    learning = 0
    for trial in range(40):
        G = Z2 if trial % 2 else FgAbelianGroup(1, (3,))
        E = sorted({G.element([rng.randint(-3, 3), rng.randint(-3, 3)])
                    for _ in range(rng.randint(1, 7))})
        closed, learned = _certified(E)
        assert set(closed) == _truly_closed(E) and len(closed) == len(set(closed)), E
        learning += bool(learned)
    # sums of three or more degrees matter on many of these supports
    assert learning >= 10


def test_a_learned_rule_comes_from_its_witness():
    # {2, 3} is closed under pair sums in E = {2, 3, 7}, and [2, 3> holds 7
    E = [Z.element([v]) for v in (2, 3, 7)]
    closure = monoids.SumClosure(E)
    closed = list(closed_sets(3, closure))
    assert (0, 1) in closed
    rules = closure.certify(closed)
    assert (0b011, 2) in rules
    assert list(closure((0, 1))) == [0, 1, 2]
    assert closure.certify(list(closed_sets(3, closure))) == []


@pytest.mark.parametrize("forge", ["sum", "negative"])
def test_a_forged_witness_fails_before_a_rule_is_learned(monkeypatch, forge):
    E = [Z.element([v]) for v in (2, 3, 7)]
    closure = monoids.SumClosure(E)
    closed = list(closed_sets(3, closure))
    held = [list(P) for P in closure.premises]
    N = Submonoid(Z, tuple(E[:2]))
    assert monoids._cached_contains(N, E[2]) == (2, 1)
    # 2 * 2 + 2 * 3 misses 7; 5 * 2 - 3 reaches it with a negative coefficient
    forged = {"sum": (2, 2), "negative": (5, -1)}[forge]
    real = monoids._cached_contains

    def forging(M, m):
        return forged if (M, m) == (N, E[2]) else real(M, m)

    monkeypatch.setattr(monoids, "_cached_contains", forging)
    with pytest.raises(StructuralError, match="membership witness"):
        closure.certify(closed)
    assert [list(P) for P in closure.premises] == held


def test_a_dropped_sum_is_learned_back(monkeypatch):
    # without the rule 1 + 2 the set {1, 2} lists as closed; its monoid holds 3
    E = [Z.element([v]) for v in (1, 2, 3)]
    pair_sums = monoids._pair_sums
    monkeypatch.setattr(monoids, "_pair_sums",
                        lambda E: ((i, j, k) for i, j, k in pair_sums(E) if (i, j) != (0, 1)))
    closed, learned = _certified(E)
    assert set(closed) == _truly_closed(E)
    assert [p for _, p in learned] == [2]


# --- generation and rank ----------------------------------------------------


def test_is_generating():
    N = Submonoid.generated_by(Z, [[2], [3], [5]])
    assert is_generating([Z.element([2]), Z.element([3])], N)
    assert not is_generating([Z.element([2])], N)
    with pytest.raises(PreconditionError):
        is_generating([Z.element([1])], N)


def test_monoid_rank_counts_irreducibles():
    assert monoid_rank_sharp(NAT) == 1
    assert monoid_rank_sharp(Submonoid.generated_by(Z, [[2]])) == 1
    assert monoid_rank_sharp(Submonoid.generated_by(Z, [[2], [3], [5]])) == 2
    assert monoid_rank_sharp(NAT2) == 2
    assert monoid_rank_sharp(Submonoid.zero(Z)) == 0
    with pytest.raises(PreconditionError):
        monoid_rank_sharp(Submonoid.full(Z))


def test_rank_with_torsion():
    G = FgAbelianGroup(0, (6,))
    N = Submonoid.generated_by(G, [[2], [3]])
    # 2 and 3 generate all of Z/6 (5 = 2+3, 1 = 2+2+3, ...), none reducible
    assert contains(N, G.element([1]))
    assert not is_sharp(N)


def _random_monoids(seed, count):
    """Seeded monoids on 1-4 small generators in Z, Z^2 and Z^2 x Z/2, Z x Z/3."""
    rng = random.Random(seed)
    groups = [Z, Z2, FgAbelianGroup(2, (2,)), FgAbelianGroup(1, (3,))]
    for _ in range(count):
        G = rng.choice(groups)
        gens = [[rng.randint(-2, 2) for _ in range(G.free_rank)]
                + [rng.randrange(n) for n in G.torsion_orders]
                for _ in range(rng.randint(1, 4))]
        yield Submonoid.generated_by(G, gens)


def _rank_by_counting_row(N):
    """The rank as one solver query per generator: is g a combination of the
    generators with total coefficient >= 2, counted in an extra row."""
    moduli = (0,) * N.ambient.free_rank + N.ambient.torsion_orders + (0,)
    cols = [g.coords + (1,) for g in N.generators]
    cols.append((0,) * N.ambient.coord_count + (-1,))
    return sum(has_nonneg_solution(cols, g.coords + (2,), moduli) is None
               for g in N.generators)


def test_monoid_rank_matches_the_counting_row_query():
    sharp = [N for N in _random_monoids(5, 120) if is_sharp(N)]
    assert len(sharp) > 40
    assert any(N.ambient.torsion_orders for N in sharp)
    for N in sharp:
        assert monoid_rank_sharp(N) == _rank_by_counting_row(N), N.describe()


def test_is_face_matches_the_column_query():
    rng = random.Random(7)
    answers = set()
    for N in _random_monoids(6, 80):
        for _ in range(3):
            F = Submonoid(N.ambient, tuple(g for g in N.generators if rng.random() < 0.5))
            want = _is_face_by_columns(F, N)
            assert is_face(F, N) == want, (F.describe(), N.describe())
            answers.add((bool(N.ambient.torsion_orders), want))
    assert answers == {(False, False), (False, True), (True, False), (True, True)}


# --- sharp quotient ----------------------------------------------------------


def test_sharp_quotient_of_half_plane():
    N = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1]])
    sq = sharp_quotient(N)
    assert sq.group == FgAbelianGroup(1, ())
    assert is_sharp(sq.monoid)
    assert same_submonoid(sq.monoid, Submonoid.generated_by(sq.group, [[1]]))
    # projection kills exactly the units
    assert sq.apply(Z2.element([7, 0])).is_zero()
    assert not sq.apply(Z2.element([0, 1])).is_zero()
    # section is a genuine set-theoretic section
    for coords in ([0], [1], [-2], [5]):
        mbar = sq.group.element(coords)
        assert sq.apply(sq.section(mbar)) == mbar


def test_sharp_quotient_already_sharp_is_faithful():
    sq = sharp_quotient(NAT2)
    assert sq.group.free_rank == 2
    assert sq.group.torsion_orders == ()
    assert monoid_rank_sharp(sq.monoid) == 2


def test_sharp_quotient_with_torsion_units():
    # ambient Z x Z/4, units generated by (0,2): quotient is Z x Z/2
    G = FgAbelianGroup(1, (4,))
    N = Submonoid.generated_by(G, [[0, 2], [1, 1]])
    assert contains(N, G.element([0, 2]).scale(-1) + G.element([0, 4]))
    sq = sharp_quotient(N)
    assert sq.group == FgAbelianGroup(1, (2,))
    assert is_sharp(sq.monoid)
    for coords in ([0, 0], [1, 1], [3, 0]):
        mbar = sq.group.element(coords)
        assert sq.apply(sq.section(mbar)) == mbar


def test_sharp_quotient_projection_is_hom():
    N = Submonoid.generated_by(Z2, [[2, 2], [-2, -2], [1, 0]])
    sq = sharp_quotient(N)
    a, b = Z2.element([3, 1]), Z2.element([-1, 4])
    assert sq.apply(a + b) == sq.apply(a) + sq.apply(b)


# --- positive gradings --------------------------------------------------------


def test_positive_grading_finds_unit_covector():
    N = Submonoid.generated_by(Z2, [[1, 1], [1, -1], [1, 0]])
    h = positive_grading(N)
    assert h.covector == (1, 0)
    assert h.values() == {
        Z2.element([1, 1]): 1,
        Z2.element([1, -1]): 1,
        Z2.element([1, 0]): 1,
    }


def test_positive_grading_requires_sharp():
    with pytest.raises(PreconditionError):
        positive_grading(Submonoid.generated_by(Z, [[1], [-1]]))


def test_positive_grading_grades_torsion_generators_on_free_parts():
    G = FgAbelianGroup(1, (2,))
    N = Submonoid.generated_by(G, [[1, 1]])
    assert positive_grading(N).covector == (1,)
    assert positive_grading(sharp_quotient(N).monoid).covector == (1,)


def test_positive_grading_zero_monoid():
    h = positive_grading(Submonoid.zero(Z2))
    assert h.covector == (0, 0)


def test_grading_positive_on_all_members():
    N = Submonoid.generated_by(Z2, [[2, 1], [1, 2], [1, 1]])
    h = positive_grading(N)
    for g in N.generators:
        assert h.degree(g) >= 1


def _box_grid_covector(gens, free_rank, max_box=64):
    """The covector search as a sorted grid over doubling boxes, the
    reference for the lazy search."""
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
    raise NoCertificateError("no positive grading covector within coordinate box %d" % max_box)


def _chain(rank, k, scale):
    """e_i - k e_{i+1} for i < rank, and e_rank, all times scale."""
    G = FgAbelianGroup(rank)
    gens = []
    for i in range(rank):
        v = [0] * rank
        v[i] = scale
        if i + 1 < rank:
            v[i + 1] = -k * scale
        gens.append(G.element(v))
    return gens


def test_covector_matches_the_box_grid_on_seeded_sharp_monoids():
    rng = random.Random(11)
    answers = set()
    for _ in range(240):
        r = rng.randint(1, 3)
        orders = rng.choice([(), (2,), (3,)])
        G = FgAbelianGroup(r, orders)
        w = [0] * r
        while not any(w):
            w = [rng.randint(-6, 6) for _ in range(r)]
        weight = lambda g: sum(a * b for a, b in zip(w, g))
        gens = []
        for _ in range(rng.randint(1, 5)):
            # the least positive of a few draws, so that some generators lie
            # close to the hyperplane of w and the covector grows
            g = []
            while not g:
                draws = [[rng.randint(-6, 6) for _ in range(r)] for _ in range(6)]
                g = min((d for d in draws if weight(d) >= 1), key=weight, default=[])
            gens.append(G.element(g + [rng.randrange(n) for n in orders]))
        got = monoids._positive_covector(gens, r)
        assert got == _box_grid_covector(gens, r), [g.coords for g in gens]
        answers.add(max(abs(v) for v in got))
    assert answers >= {1, 2, 3, 4}


# rank 4 with k = 2 sorts 33^4 grid points in the reference; its answer,
# (15, 7, 3, 1), is checked on its own below
@pytest.mark.parametrize("rank,k", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
def test_covector_matches_the_box_grid_on_chains(rank, k):
    gens = _chain(rank, k, 317)
    assert monoids._positive_covector(gens, rank) == _box_grid_covector(gens, rank)


def test_rank_four_chain_covector_in_small_memory():
    gens = _chain(4, 2, 317)
    tracemalloc.start()
    try:
        w = monoids._positive_covector(gens, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w == (15, 7, 3, 1)
    assert peak < 5 * 2 ** 20


def test_covector_outside_the_box_is_refused():
    gens = [Z2.element([1, -64]), Z2.element([0, 1])]
    with pytest.raises(NoCertificateError, match="coordinate box 64"):
        positive_grading(Submonoid(Z2, tuple(gens)))


def test_grading_morphism_validates_positivity():
    with pytest.raises(StructuralError):
        GradingMorphism(NAT2, (1, -1))


# --- bounded members -----------------------------------------------------------


def test_bounded_members_slice():
    h = positive_grading(NAT2)
    members = monoids.bounded_members(NAT2, 2, h.degree)
    want = {
        Z2.element([a, b]) for a in range(3) for b in range(3) if h.degree(Z2.element([a, b])) <= 2
    }
    assert members == want


def test_bounded_members_needs_a_positive_degree_on_every_generator():
    # the first coordinate is 0 on the generator (0, 1)
    with pytest.raises(PreconditionError, match="a slice needs a positive degree on every generator"):
        monoids.bounded_members(NAT2, 2, lambda g: g.coords[0])


# --- simplicial monoids ----------------------------------------------------------


@pytest.mark.parametrize("G", [FgAbelianGroup(r, t) for r in (1, 2, 3)
                               for t in ((), (2,), (3,), (2, 4))], ids=lambda G: G.describe())
def test_the_coefficient_test_agrees_with_contains(G):
    # simplicial monoids with and without +- pairs, every target in a box
    rng = random.Random(G.coord_count * 10 + sum(G.torsion_orders))
    radius = 3 if G.free_rank < 3 else 2
    box = [G.element(c) for c in itertools.product(
        *[range(-radius, radius + 1)] * G.free_rank, *map(range, G.torsion_orders))]
    kinds, tested = set(), 0
    while len(kinds) < 2 or tested < 4:
        gens = [[rng.randint(-2, 2) for _ in range(G.coord_count)]
                for _ in range(rng.randint(1, G.free_rank))]
        pairs = rng.sample(gens, rng.randint(0, len(gens)))
        N = Submonoid.generated_by(G, gens + [[-c for c in g] for g in pairs])
        test = coefficient_test(N)
        if test is None:
            continue
        kinds.add(bool(units(N).generators))
        tested += 1
        for m in box:
            assert test(m.coords) == contains(N, m), (N, m)


def test_the_coefficient_test_refuses_dependent_free_parts():
    G = FgAbelianGroup(2, (2,))
    for gens in ([[1, 0, 0], [0, 1, 0], [1, 1, 0]],   # more generators than rank
                 [[1, 0, 0], [2, 0, 1]],               # parallel free parts
                 [[1, 0, 0], [-1, 0, 1]],              # +- free parts, not a pair
                 [[1, 0, 0], [0, 0, 1]]):              # a torsion generator
        assert coefficient_test(Submonoid.generated_by(G, gens)) is None, gens
    assert coefficient_test(Submonoid.generated_by(G, [[1, 0, 0], [-1, 0, 0], [0, 1, 1]]))


# --- intersections and preimages ------------------------------------------------


def test_intersection_contains():
    A = Submonoid.generated_by(Z2, [[1, 0], [0, 1]])
    B = Submonoid.generated_by(Z2, [[1, 1], [1, -1]])
    I = intersection(A, B)
    assert isinstance(I, Intersection)
    assert I.contains(Z2.element([2, 0]))
    assert I.contains(Z2.element([1, 1]))
    assert not I.contains(Z2.element([0, 1]))
    assert not I.contains(Z2.element([1, -1]))


def test_intersection_flattens_and_single_passthrough():
    A = Submonoid.generated_by(Z2, [[1, 0]])
    assert intersection(A) is A
    nested = intersection(intersection(A, NAT2), A)
    assert len(nested.parts) == 3


def test_preimage_monoid():
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    P = PreimageMonoid(f, NAT)
    assert P.ambient == Z2
    assert P.contains(Z2.element([2, -1]))
    assert P.contains(Z2.element([0, 0]))
    assert not P.contains(Z2.element([-2, 1]))


def test_preimage_ambient_mismatch_rejected():
    f = hom_from_matrix(Z2, Z, [[1], [1]])
    with pytest.raises(StructuralError):
        PreimageMonoid(f, NAT2)


# --- pushout complement -----------------------------------------------------------


def test_pushout_complement_quadrant():
    # L' = N^2, L = N x 0, N = 0: remove the positive axis, keep the rest
    L = Submonoid.generated_by(Z2, [[1, 0]])
    N = Submonoid.zero(Z2)
    P = pushout_complement(N, L, NAT2)
    assert not P.contains(Z2.element([1, 0]))
    assert not P.contains(Z2.element([3, 0]))
    assert P.contains(Z2.element([1, 1]))
    assert P.contains(Z2.element([0, 1]))
    assert P.contains(Z2.zero())
    # extracted generators also avoid the removed stratum
    for g in P.generators:
        assert P.contains(g)


def test_pushout_complement_keeps_inner_part():
    L = Submonoid.generated_by(Z2, [[1, 0]])
    N = Submonoid.generated_by(Z2, [[2, 0]])
    P = pushout_complement(N, L, NAT2)
    assert P.contains(Z2.element([2, 0]))
    assert not P.contains(Z2.element([1, 0]))
    assert not P.contains(Z2.element([3, 0]))
    assert P.contains(Z2.element([4, 0]))
    assert P.contains(Z2.element([1, 2]))


def test_pushout_complement_requires_face():
    D = Submonoid.generated_by(Z2, [[1, 1]])
    with pytest.raises(PreconditionError):
        pushout_complement(Submonoid.zero(Z2), D, NAT2)


def test_pushout_complement_requires_chain():
    L = Submonoid.generated_by(Z2, [[1, 0]])
    bad_N = Submonoid.generated_by(Z2, [[0, 1]])
    with pytest.raises(PreconditionError):
        pushout_complement(bad_N, L, NAT2)


def test_pushout_generators_fill_low_degrees():
    L = Submonoid.generated_by(Z2, [[1, 0]])
    P = pushout_complement(Submonoid.zero(Z2), L, NAT2, degree_bound=6)
    approx = Submonoid(Z2, P.generators)
    # every complement member in the probed box is generated by the slice
    for a in range(4):
        for b in range(4):
            e = Z2.element([a, b])
            if P.contains(e):
                assert contains(approx, e), e


# --- presentation hygiene -----------------------------------------------------------


def test_generators_canonicalized():
    N1 = Submonoid.generated_by(Z, [[1], [1], [0]])
    N2 = Submonoid.generated_by(Z, [[1]])
    assert N1 == N2
    assert N1.generators == (Z.element([1]),)


def test_same_submonoid_across_presentations():
    N1 = Submonoid.generated_by(Z, [[2], [3]])
    N2 = Submonoid.generated_by(Z, [[2], [3], [5], [7]])
    assert N1 != N2
    assert same_submonoid(N1, N2)
