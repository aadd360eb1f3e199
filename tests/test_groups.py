import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from magnetkit.errors import StructuralError
from magnetkit.groups import FgAbelianGroup, GroupElement, GroupHom, hom_from_matrix


def test_group_construction_normalizes_torsion():
    G = FgAbelianGroup(2, (6, 2, 3))
    assert G.free_rank == 2
    assert G.torsion_orders == (2, 3, 6)
    assert G.coord_count == 5


def test_torsion_orders_below_two_rejected():
    with pytest.raises(StructuralError):
        FgAbelianGroup(1, (1,))
    with pytest.raises(StructuralError):
        FgAbelianGroup(0, (0,))
    with pytest.raises(StructuralError):
        FgAbelianGroup(-1, ())


@pytest.mark.parametrize("args, message", [
    ((1, (2.7,)), "a torsion order must be an integer, got 2.7"),
    ((1, ("3",)), "a torsion order must be an integer, got '3'"),
    ((1.5,), "free_rank must be an integer, got 1.5"),
], ids=["float-order", "string-order", "float-rank"])
def test_group_invariants_must_be_integers(args, message):
    # int() would make the first Z x Z/2, the second Z x Z/3
    with pytest.raises(StructuralError, match="^%s$" % re.escape(message)):
        FgAbelianGroup(*args)


def test_element_reduces_torsion_coordinates():
    G = FgAbelianGroup(1, (4,))
    e = G.element([3, 7])
    assert e.coords == (3, 3)
    assert (-e).coords == (-3, 1)
    assert (e + e).coords == (6, 2)


@pytest.mark.parametrize(
    "coords, bad",
    [([1.5, 4], 0), ([Fraction(7, 2), 2], 0), (["12", 1], 0), ([1, 2.0], 1)],
)
def test_element_refuses_non_integral_coordinates(coords, bad):
    with pytest.raises(StructuralError, match="coordinate %d must be an integer" % bad):
        FgAbelianGroup(1, (3,)).element(coords)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_element_arithmetic_is_abelian(a, b, c):
    G = FgAbelianGroup(1, (5,))
    x = G.element([a, b])
    y = G.element([c, a])
    assert x + y == y + x
    assert (x + y) - y == x
    assert x.scale(3) == x + x + x
    assert (x - x).is_zero()


def test_elements_compare_their_group_and_order_by_coordinates():
    Z2 = FgAbelianGroup(2, ())
    ZxZ3 = FgAbelianGroup(1, (3,))
    a, b = Z2.element([1, 1]), ZxZ3.element([1, 1])
    assert a.coords == b.coords
    assert a != b
    assert len({a, b}) == 2
    assert {a: "Z^2", b: "Z x Z/3"}[a] == "Z^2"
    assert ZxZ3.element([1, 4]) == b
    assert hash(ZxZ3.element([1, 4])) == hash(b)
    coords = [(2, 0), (-1, 2), (0, 1), (-1, 0), (0, 0)]
    assert [e.coords for e in sorted(map(ZxZ3.element, coords))] == sorted(coords)
    e = FgAbelianGroup(2, (2, 5)).element([3, -4, 3, 7])
    assert (e.free, e.torsion) == ((3, -4), (1, 2))
    assert e.coords == e.free + e.torsion
    with pytest.raises(StructuralError, match="coordinate shape"):
        GroupElement(ZxZ3, (1, 1, 0))


def test_cross_ambient_arithmetic_rejected():
    G = FgAbelianGroup(1, ())
    H = FgAbelianGroup(1, (2,))
    with pytest.raises(StructuralError):
        G.element([1]) + H.element([1, 0])


def test_hom_respects_torsion_orders():
    G = FgAbelianGroup(0, (2,))
    H = FgAbelianGroup(1, ())
    # Z/2 -> Z sending the generator to 1 is not a hom
    with pytest.raises(StructuralError):
        GroupHom(G, H, (H.element([1]),))
    Z6 = FgAbelianGroup(0, (6,))
    Z3 = FgAbelianGroup(0, (3,))
    f = GroupHom(Z6, Z3, (Z3.element([1]),))
    assert f.apply(Z6.element([4])) == Z3.element([1])


def test_hom_from_matrix_is_linear():
    G = FgAbelianGroup(2, ())
    H = FgAbelianGroup(2, ())
    f = hom_from_matrix(G, H, [[1, 1], [0, 2]])
    assert f.apply(G.element([1, 0])) == H.element([1, 1])
    assert f.apply(G.element([0, 1])) == H.element([0, 2])
    assert f.apply(G.element([3, -2])) == H.element([3, -1])


def test_describe_names_the_invariants():
    assert FgAbelianGroup(2, ()).describe() == "Z^2"
    assert FgAbelianGroup(0, (6,)).describe() == "Z/6"
    assert FgAbelianGroup(1, (2, 4)).describe() == "Z x Z/2 x Z/4"
