import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magnetkit.cohomology as cohomology
from magnetkit.cohomology import (
    Cochain,
    GradedFreeModule,
    ModuleElement,
    differential,
    h1_zero_suite,
    is_cocycle,
    mu,
    primitive,
)
from magnetkit.errors import NotACocycleError, StructuralError
from magnetkit.groups import FgAbelianGroup

Z = FgAbelianGroup(1, ())


def line_module():
    return GradedFreeModule.of(Z, [("e", [3])])


def plane_module():
    return GradedFreeModule.of(Z, [("x", [1]), ("y", [1]), ("z", [-2])])


def test_projection_axioms():
    M = plane_module()
    v = M.element({"x": 2, "y": Fraction(1, 3), "z": -5})
    d1 = Z.element([1])
    d2 = Z.element([-2])
    assert mu(d1, mu(d1, v)) == mu(d1, v)
    assert mu(d2, mu(d1, v)).is_zero()
    total = M.zero()
    for d in M.degrees():
        total = total + mu(d, v)
    assert total == v
    w = M.element({"x": 1})
    assert mu(d1, v + w) == mu(d1, v) + mu(d1, w)


def test_element_arithmetic_is_exact():
    M = plane_module()
    v = M.element({"x": Fraction(1, 3)})
    assert (v + v + v) == M.element({"x": 1})
    assert (v - v).is_zero()
    assert v.scale(3) == M.element({"x": 1})


def test_unknown_line_rejected():
    with pytest.raises(StructuralError):
        plane_module().element({"w": 1})


def test_cochain_drops_zero_values():
    M = line_module()
    c = Cochain.of(M, 1, [((Z.element([5]),), M.zero())])
    assert c.is_zero()
    assert c(Z.element([5])).is_zero()


def test_fixture_cocycle_has_primitive_minus_one():
    M = line_module()
    e = M.basis("e")
    xi = Cochain.of(M, 1, [((Z.element([0]),), e), ((Z.element([3]),), -e)])
    assert is_cocycle(xi)
    p = primitive(xi)
    assert p.arity == 0
    assert p() == -e
    assert differential(p) == xi


def test_non_cocycle_is_rejected_with_witness():
    M = line_module()
    e = M.basis("e")
    xi = Cochain.of(
        M, 1, [((Z.element([0]),), e), ((Z.element([3]),), e.scale(-2))]
    )
    assert not is_cocycle(xi)
    with pytest.raises(NotACocycleError) as exc:
        primitive(xi)
    assert exc.value.witness is not None
    k, l = exc.value.witness
    assert not differential(xi)(k, l).is_zero()


def test_coboundary_of_coboundary_vanishes():
    M = plane_module()
    v = M.element({"x": 2, "z": Fraction(-7, 2)})
    assert differential(differential(Cochain.constant(v))).is_zero()


def test_torsion_grading():
    G = FgAbelianGroup(0, (4,))
    M = GradedFreeModule.of(G, [("a", [1]), ("b", [2])])
    assert h1_zero_suite(M, trials=25, seed=3) == 25
    v = M.element({"a": 1, "b": -1})
    xi = differential(Cochain.constant(v))
    assert primitive(xi)() == v


def test_h1_suite_on_a_mixed_module():
    G = FgAbelianGroup(1, (2,))
    M = GradedFreeModule.of(
        G, [("p", [0, 0]), ("q", [1, 1]), ("r", [-2, 0]), ("s", [1, 1])]
    )
    assert h1_zero_suite(M, trials=40, seed=11) == 40


def test_primitive_requires_arity_one():
    M = line_module()
    with pytest.raises(StructuralError):
        primitive(Cochain.constant(M.zero()))


coeff = st.integers(-6, 6).map(Fraction)
degree = st.integers(-3, 3)


@st.composite
def module_and_element(draw):
    degs = draw(st.lists(degree, min_size=1, max_size=4))
    M = GradedFreeModule.of(Z, [("m%d" % i, [d]) for i, d in enumerate(degs)])
    v = ModuleElement(M, tuple(draw(coeff) for _ in degs))
    return M, v


@settings(max_examples=40, deadline=None)
@given(module_and_element())
def test_every_coboundary_is_a_cocycle(mv):
    M, v = mv
    xi = differential(Cochain.constant(v))
    assert is_cocycle(xi)
    p = primitive(xi)
    assert differential(p) == xi
    assert p() == v - mu(Z.element([0]), v)


@settings(max_examples=25, deadline=None)
@given(module_and_element(), st.lists(st.tuples(degree, degree), max_size=3))
def test_second_differential_vanishes_on_one_cochains(mv, keys):
    M, v = mv
    table = [((Z.element([k]),), v.scale(s)) for k, s in keys]
    dedup = {}
    for key, val in table:
        dedup[key] = val
    c = Cochain.of(M, 1, list(dedup.items()))
    assert differential(differential(c)).is_zero()


def _differential_by_arity(c):
    """The coboundary written out arity by arity, as a reference."""
    K = sorted({Z.element([0])}
               | {d for key, value in c.entries for d in key + value.support_degrees()})
    zero = Z.element([0])
    out = []
    if c.arity == 0:
        v = c()
        for m in K:
            val = mu(m, v)
            if m == zero:
                val = val - v
            out.append(((m,), val))
    elif c.arity == 1:
        for k in K:
            for l in K:
                val = mu(k, c(l))
                if k == l:
                    val = val - c(l)
                if l == zero:
                    val = val + c(k)
                out.append(((k, l), val))
    else:
        for k in K:
            for l in K:
                for m in K:
                    val = mu(k, c(l, m))
                    if k == l:
                        val = val - c(l, m)
                    if l == m:
                        val = val + c(k, l)
                    if m == zero:
                        val = val - c(k, l)
                    out.append(((k, l, m), val))
    return Cochain(c.module, c.arity + 1, tuple(out))


@st.composite
def random_cochain(draw):
    degs = draw(st.lists(degree, min_size=1, max_size=3))
    M = GradedFreeModule.of(Z, [("m%d" % i, [d]) for i, d in enumerate(degs)])
    arity = draw(st.integers(0, 2))
    keys = draw(st.lists(st.tuples(*[degree] * arity), max_size=4, unique=True))
    table = [(tuple(Z.element([d]) for d in key),
              ModuleElement(M, tuple(draw(coeff) for _ in degs))) for key in keys]
    return Cochain.of(M, arity, table)


@settings(max_examples=60, deadline=None)
@given(random_cochain())
def test_differential_matches_the_per_arity_formulas(c):
    assert differential(c) == _differential_by_arity(c)


def dense_differential(c):
    """The coboundary formula evaluated at every tuple of relevant degrees,
    as a reference for the sparse kernel."""
    degs = {c.module.grading_group.zero()}
    for key, value in c.entries:
        degs.update(key)
        degs.update(value.support_degrees())
    n = c.arity
    zero = c.module.grading_group.zero()
    out = []
    for k in itertools.product(sorted(degs), repeat=n + 1):
        val = mu(k[0], c(*k[1:]))
        terms = [(i, k[:i] + k[i + 1:]) for i in range(1, n + 1) if k[i - 1] == k[i]]
        if k[n] == zero:
            terms.append((n + 1, k[:n]))
        for i, args in terms:
            val = val - c(*args) if i % 2 else val + c(*args)
        out.append((k, val))
    return Cochain(c.module, n + 1, tuple(out))


GROUPS = pytest.mark.parametrize("group", [
    FgAbelianGroup(1, ()), FgAbelianGroup(2, ()), FgAbelianGroup(1, (3,)),
], ids=["Z", "Z2", "Z x Z3"])


class Draws:
    """Seeded degrees, module elements, modules and cochains over one group."""

    def __init__(self, group, seed):
        self.group = group
        self.rng = random.Random(seed)

    def degree(self):
        rng = self.rng
        return self.group.element(
            [rng.randint(-2, 2) for _ in range(self.group.free_rank)]
            + [rng.randrange(t) for t in self.group.torsion_orders])

    def element(self, M):
        return ModuleElement(M, tuple(Fraction(self.rng.randint(-3, 3), self.rng.randint(1, 2))
                                      for _ in M.lines))

    def module(self, pool):
        return GradedFreeModule.of(self.group, [
            ("m%d" % i, self.rng.choice(pool).coords) for i in range(self.rng.randint(1, 4))])

    def cochain(self, M, arity, pool, count):
        keys = {tuple(self.rng.choice(pool) for _ in range(arity)) for _ in range(count)}
        return Cochain.of(M, arity, [(key, self.element(M)) for key in keys])


@GROUPS
def test_differential_matches_the_dense_loop(group):
    draw = Draws(group, group.coord_count)
    cancelled = 0
    for trial in range(200):
        arity = trial % 5
        # three degrees and zero keep the dense loop at 4^(arity + 1) keys
        pool = [draw.degree() for _ in range(3)] + [group.zero()]
        M = draw.module(pool)
        c = draw.cochain(M, arity, pool, draw.rng.randint(0, 5))
        if arity and trial % 4 == 0:
            # a coboundary, whose own coboundary cancels at every key
            c = differential(draw.cochain(M, arity - 1, pool, 1))
        d = differential(c)
        assert d.entries == dense_differential(c).entries
        # the kernel skips Cochain's checks; they would keep what it built
        assert d == Cochain(M, arity + 1, d.entries)
        assert all(type(x) is Fraction for _, v in d.entries for x in v.coeffs)
        cancelled += d.is_zero() and not c.is_zero()
    assert cancelled > 10


def _sum(a, b):
    table = dict(a.entries)
    for key, value in b.entries:
        table[key] = table[key] + value if key in table else value
    return Cochain(a.module, a.arity, tuple(table.items()))


@GROUPS
def test_the_homotopy_contracts_every_positive_arity(group):
    draw = Draws(group, 7 + group.coord_count)
    h = cohomology.homotopy
    for trial in range(120):
        arity = 1 + trial % 4
        pool = [draw.degree() for _ in range(4)] + [group.zero()]
        M = draw.module(pool)
        c = draw.cochain(M, arity, pool, draw.rng.randint(1, 6))
        assert _sum(differential(h(c)), h(differential(c))) == c
        assert h(c) == Cochain(M, arity - 1, h(c).entries)


@GROUPS
def test_primitives_of_coboundaries_in_arities_one_to_three(group):
    draw = Draws(group, 11 + group.coord_count)
    for trial in range(60):
        arity = 1 + trial % 3
        pool = [draw.degree() for _ in range(4)] + [group.zero()]
        M = draw.module(pool)
        xi = differential(draw.cochain(M, arity - 1, pool, draw.rng.randint(1, 4)))
        p = primitive(xi)
        assert p.arity == arity - 1
        assert differential(p) == xi
        c = draw.cochain(M, arity, pool, draw.rng.randint(1, 4))
        if is_cocycle(c):
            continue
        with pytest.raises(NotACocycleError) as exc:
            primitive(c)
        witness = exc.value.witness
        assert len(witness) == arity + 1
        assert not differential(c)(*witness).is_zero()


def test_arity_one_on_sixty_degrees():
    M = GradedFreeModule.of(Z, [("e%d" % d, [d]) for d in range(-30, 30)])
    v = ModuleElement(M, tuple(Fraction(d, 7) for d in range(1, 61)))
    xi = differential(Cochain.constant(v))
    assert len(xi.entries) == 60
    assert differential(xi).is_zero()
    p = primitive(xi)
    assert p() == v - mu(Z.element([0]), v)
    assert differential(p) == xi
    # a 1-cochain that is no cocycle still has d(d(c)) = 0
    c = Cochain.of(M, 1, [((Z.element([d]),), M.basis("e%d" % -d).scale(d + 40))
                          for d in range(-29, 31)])
    assert len(c.entries) == 60
    assert not differential(c).is_zero()
    assert differential(differential(c)).is_zero()


def test_callers_reach_the_differential_by_its_module_name(monkeypatch):
    calls = []
    kernel = cohomology.differential

    def counted(c):
        calls.append(c.arity)
        return kernel(c)

    monkeypatch.setattr(cohomology, "differential", counted)
    M = line_module()
    e = M.basis("e")
    xi = Cochain.of(M, 1, [((Z.element([0]),), e), ((Z.element([3]),), -e)])
    assert is_cocycle(xi)
    assert calls == [1]
    primitive(xi)
    assert calls == [1, 1, 0]
    assert h1_zero_suite(M, trials=2, seed=0) == 2
    assert len(calls) == 3 + 2 * 3  # a trial: d(v) and primitive's two
