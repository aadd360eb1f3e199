import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnetkit import bundles
from magnetkit.bundles import (
    BBResult,
    DilatationSetup,
    bb_bundle,
    dilatation,
    dilatation_attractor_check,
)
from magnetkit.errors import (
    NoCertificateError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
)
from magnetkit.graded import FreePoly, attractor
from magnetkit.groups import FgAbelianGroup
from magnetkit.monoids import Submonoid, positive_grading, sharp_quotient

Z = FgAbelianGroup(1, ())
Z2 = FgAbelianGroup(2, ())


def test_affine_line_is_a_line_bundle_over_the_point():
    P = FreePoly.of(Z, [("x", [1])])
    res = bb_bundle(P, Submonoid.generated_by(Z, [[1]]))
    assert res.base.vars == ()
    assert res.fiber_rank == 1
    assert res.hilbert_counts == (1,) * 9


def test_degree_zero_variable_lands_in_the_base():
    P = FreePoly.of(Z, [("x", [0]), ("y", [1])])
    res = bb_bundle(P, Submonoid.generated_by(Z, [[1]]))
    assert res.base.names() == ("x",)
    assert res.fiber_rank == 1


def test_three_variable_hilbert_counts():
    P = FreePoly.of(Z, [("x", [1]), ("y", [1]), ("z", [2])])
    res = bb_bundle(P, Submonoid.generated_by(Z, [[1]]))
    assert res.base.vars == ()
    assert res.fiber_rank == 3
    assert res.fiber_degrees == (1, 1, 2)
    assert res.hilbert_counts == (1, 2, 4, 6, 9, 12, 16, 20, 25)


def test_group_magnet_has_no_fiber():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-2])])
    res = bb_bundle(P, Submonoid.full(Z))
    assert res.fiber_rank == 0
    assert res.base.names() == ("x", "y")
    assert res.hilbert_counts == (1,) + (0,) * 8


def test_mixed_units_split():
    P = FreePoly.of(Z2, [("a", [1, 0]), ("b", [-1, 0]), ("c", [0, 1]), ("d", [1, 1])])
    N = Submonoid.generated_by(Z2, [[1, 0], [-1, 0], [0, 1]])
    res = bb_bundle(P, N)
    assert res.base.names() == ("a", "b")
    assert res.fiber_rank == 2
    assert res.fiber_degrees == (1, 1)
    assert res.hilbert_counts[:4] == (1, 2, 3, 4)
    assert res.pi0_bijective


def test_base_and_fiber_tile_the_attractor_presentation():
    P = FreePoly.of(Z2, [("a", [2, 1]), ("b", [0, 3]), ("c", [-1, -1]), ("d", [1, 1])])
    N = Submonoid.generated_by(Z2, [[1, 1], [-1, -1], [0, 3], [2, 1]])
    res = bb_bundle(P, N)
    PN = attractor(P, N).quotient
    base_vars = set(res.base.vars)
    assert base_vars <= set(PN.vars)
    rest = [v for v in PN.vars if v not in base_vars]
    assert len(rest) == res.fiber_rank
    sq = sharp_quotient(N)
    assert sorted(
        res.certificate.degree(sq.apply(d)) for _, d in rest
    ) == list(res.fiber_degrees)


def test_torsion_grading_bundle():
    G = FgAbelianGroup(1, (2,))
    P = FreePoly.of(G, [("a", [1, 0]), ("b", [1, 1]), ("c", [-1, 0])])
    N = Submonoid.generated_by(G, [[1, 0], [1, 1]])
    res = bb_bundle(P, N)
    assert res.base.vars == ()
    assert res.fiber_rank == 2
    assert res.hilbert_counts[:3] == (1, 2, 3)


def test_certificate_is_the_positive_grading_of_the_sharp_quotient():
    # units (1,0,0) are divided out; the image still has torsion coordinates
    G = FgAbelianGroup(2, (2,))
    P = FreePoly.of(G, [("a", [1, 0, 0]), ("b", [0, 1, 1]), ("c", [3, 2, 0])])
    N = Submonoid.generated_by(G, [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [1, 2, 0]])
    sq = sharp_quotient(N)
    assert any(any(g.torsion) for g in sq.monoid.generators)
    res = bb_bundle(P, N)
    assert res.certificate == positive_grading(sq.monoid)
    assert res.base.names() == ("a",)
    assert res.fiber_degrees == (1, 2)


def test_configurable_bound():
    P = FreePoly.of(Z, [("x", [1])])
    res = bb_bundle(P, Submonoid.generated_by(Z, [[1]]), hilbert_check_bound=3)
    assert res.hilbert_check_bound == 3
    assert len(res.hilbert_counts) == 4


def test_a_hilbert_check_past_its_cap_is_refused_before_it_counts(monkeypatch):
    monkeypatch.setattr(bundles, "HILBERT_CHECK_CAP", 20)

    def never(*args):
        raise AssertionError("counted past the cap")

    line = FreePoly.of(Z, [("x", [1])])
    plane = FreePoly.of(Z, [("x", [1]), ("y", [1])])
    N = Submonoid.generated_by(Z, [[1]])
    # two degree-1 fibers have C(6, 2) = 15 monomials of degree <= 4
    assert bb_bundle(plane, N, hilbert_check_bound=4).hilbert_counts == (1, 2, 3, 4, 5)
    with monkeypatch.context() as patch:
        patch.setattr(bundles, "_sym_counts", never)
        patch.setattr(bundles, "_monomial_counts", never)
        with pytest.raises(ResourceLimitError, match="keeps 21 degree counts, cap is 20"):
            bb_bundle(line, N, hilbert_check_bound=20)
    # and C(7, 2) = 21 of degree <= 5
    monkeypatch.setattr(bundles, "_monomial_counts", never)
    with pytest.raises(ResourceLimitError, match="walks 21 monomials, cap is 20"):
        bb_bundle(plane, N, hilbert_check_bound=5)


def test_certificate_out_of_reach_is_a_precondition_error():
    N = Submonoid.generated_by(Z2, [[1, 0], [-65, 1]])
    P = FreePoly.of(Z2, [("x", [1, 0])])
    with pytest.raises(NoCertificateError) as exc:
        bb_bundle(P, N)
    assert isinstance(exc.value, PreconditionError)


def test_dilatation_worked_examples():
    P = FreePoly.of(Z, [("x", [1])])
    d = dilatation(DilatationSetup(P, ("x",)))
    assert d.ring.vars == (("x/t", Z.element([1])),)
    assert d.divided == ("x",)

    Q = FreePoly.of(Z, [("x", [2]), ("y", [-1])])
    d2 = dilatation(DilatationSetup(Q, ("x",)))
    assert d2.ring.names() == ("x/t", "y")
    assert d2.ring.var_degree("x/t") == Z.element([2])

    assert dilatation(DilatationSetup(Q, ())).ring == Q


def test_center_must_be_coordinates():
    P = FreePoly.of(Z, [("x", [1])])
    with pytest.raises(StructuralError):
        DilatationSetup(P, ("z",))
    with pytest.raises(StructuralError):
        DilatationSetup(P, ("x", "x"))


def test_commutation_on_the_worked_example():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    setup = DilatationSetup(P, ("x",))
    rep = dilatation_attractor_check(setup, Submonoid.generated_by(Z, [[1]]))
    assert rep.equal
    assert rep.diff == ()
    assert rep.dilate_then_attract.ring.names() == ("x/t",)
    assert rep.dilate_then_attract.divided == ("x",)


def test_commutation_at_the_origin():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    setup = DilatationSetup(P, ("x",))
    rep = dilatation_attractor_check(setup, Submonoid.zero(Z))
    assert rep.equal
    assert rep.dilate_then_attract.ring.vars == ()
    assert rep.dilate_then_attract.divided == ()


def test_empty_center_reduces_to_attractor_idempotence():
    P = FreePoly.of(Z, [("x", [1]), ("y", [-1])])
    rep = dilatation_attractor_check(
        DilatationSetup(P, ()), Submonoid.generated_by(Z, [[1]])
    )
    assert rep.equal
    assert rep.attract_then_dilate.ring == attractor(
        P, Submonoid.generated_by(Z, [[1]])
    ).quotient


weight = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(weight, min_size=1, max_size=6),
    st.data(),
)
def test_commutation_on_random_setups(weights, data):
    P = FreePoly.of(Z2, [("v%d" % i, list(w)) for i, w in enumerate(weights)])
    center = tuple(
        n for n in P.names() if data.draw(st.booleans(), label="center " + n)
    )
    gens = data.draw(st.lists(weight, max_size=3), label="magnet")
    N = Submonoid.generated_by(Z2, gens)
    rep = dilatation_attractor_check(DilatationSetup(P, center), N)
    assert rep.equal, rep.diff
