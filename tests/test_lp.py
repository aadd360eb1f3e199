from fractions import Fraction

import pytest

from magnetkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def columns(A):
    return [list(col) for col in zip(*A)]


def test_feasible_system_returns_a_vertex_that_solves_it():
    A = [[1, 1, 0], [1, -1, 2]]
    b = [3, 1]
    res = simplex(A, b)
    assert res.status == OPTIMAL and res.separator is None
    assert all(v >= 0 for v in res.x)
    assert [dot(row, res.x) for row in A] == b
    # a vertex: its nonzero columns are linearly independent, here at most two
    assert sum(1 for v in res.x if v) <= len(b)


def test_optimal_value_and_vertex():
    # minimize -x1 - x2 over x1 + 2 x2 + s1 = 4, 3 x1 + x2 + s2 = 6
    A = [[1, 2, 1, 0], [3, 1, 0, 1]]
    res = simplex(A, [4, 6], [-1, -1, 0, 0])
    assert res.status == OPTIMAL
    assert res.x[:2] == (Fraction(8, 5), Fraction(6, 5))
    assert dot([-1, -1, 0, 0], res.x) == Fraction(-14, 5)


def test_infeasible_system_carries_a_farkas_separator():
    # none of the three lies in the cone of (1, 2) and (2, 5); each
    # separator is checked by multiplication
    A = [[1, 2], [2, 5]]
    for b in ([3, -1], [-1, 0], [1, 3]):
        res = simplex(A, b)
        assert res.status == INFEASIBLE and res.x is None
        y = res.separator
        assert all(dot(y, col) >= 0 for col in columns(A))
        assert dot(y, b) < 0


def test_redundant_rows_are_dropped():
    A = [[1, 1], [2, 2]]
    res = simplex(A, [1, 2], [1, 2])
    assert res.status == OPTIMAL
    assert res.x == (1, 0)


def test_unbounded_objective():
    # x1 - x2 = 1 leaves x2 free to grow, and -x2 falls without bound
    res = simplex([[1, -1]], [1], [0, -1])
    assert res.status == UNBOUNDED and res.separator is None
    assert dot([1, -1], res.x) == 1


def test_beale_cycling_example_terminates_under_blands_rule():
    # Beale (1955), slacks first: the largest-coefficient rule cycles on it
    # from the slack basis; the optimum is -5/4 at x4 = x6 = 1, x1 = 3/4
    F = Fraction
    A = [
        [1, 0, 0, F(1, 4), -8, -1, 9],
        [0, 1, 0, F(1, 2), -12, F(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    c = [0, 0, 0, F(-3, 4), 20, F(-1, 2), 6]
    res = simplex(A, [0, 0, 1], c)
    assert res.status == OPTIMAL
    assert dot(c, res.x) == F(-5, 4)
    assert res.x == (F(3, 4), 0, 0, 1, 0, 1, 0)


def test_empty_system_is_feasible_at_zero():
    assert simplex([], [], [1, 2]).x == (0, 0)


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError):
        simplex([[1, 2], [1]], [1, 1])
