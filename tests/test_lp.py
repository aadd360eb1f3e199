import random
from fractions import Fraction

import pytest

from magnetkit.lp import LPResult, simplex


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def columns(A):
    return [list(col) for col in zip(*A)]


def test_feasible_system_returns_a_vertex_that_solves_it():
    A = [[1, 1, 0], [1, -1, 2]]
    b = [3, 1]
    res = simplex(A, b)
    assert res.separator is None
    # the vertex (2, 1, 0) comes as numerators over the denominator 2
    assert res == LPResult((4, 2, 0), None, 2)
    assert all(type(v) is int and v >= 0 for v in res.x)
    assert [dot(row, res.x) for row in A] == [res.d * v for v in b]
    # a vertex: its nonzero columns are linearly independent, here at most two
    assert sum(1 for v in res.x if v) <= len(b)


def test_infeasible_system_carries_a_farkas_separator():
    # none of the three lies in the cone of (1, 2) and (2, 5); each
    # separator is checked by multiplication
    A = [[1, 2], [2, 5]]
    for b in ([3, -1], [-1, 0], [1, 3]):
        res = simplex(A, b)
        assert res.x is None
        y = res.separator
        assert all(type(v) is int for v in y)
        assert all(dot(y, col) >= 0 for col in columns(A))
        assert dot(y, b) < 0


def test_redundant_rows_are_dropped():
    # the doubled row keeps its artificial in the basis at level 0, and the
    # vertex is read off the original columns alone
    A = [[1, 1], [2, 2]]
    assert simplex(A, [1, 2]) == LPResult((1, 0), None, 1)


def test_empty_system_is_feasible_at_zero():
    assert simplex([], []) == LPResult((), None, 1)


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="ragged"):
        simplex([[1, 2], [1]], [1, 1])
    for A, b in [([[1], [2]], [1]), ([[1]], [1, 2]), ([[1]], []), ([], [1])]:
        with pytest.raises(ValueError, match="one constraint row per entry"):
            simplex(A, b)


@pytest.mark.parametrize("A, b", [
    ([[Fraction(1, 2), 1]], [1]),
    ([[1, 1]], [Fraction(3, 2)]),
    ([[1.0, 1]], [1]),
    ([["1", 1]], [1]),
], ids=["fraction-entry", "fraction-target", "float", "string"])
def test_entries_must_be_integers(A, b):
    # the integer tableau would floor-divide a Fraction silently
    with pytest.raises(ValueError, match="must hold integers"):
        simplex(A, b)


# --- the Fraction tableau as the reference ---------------------------------


def reference_simplex(A, b):
    """Phase one of Bland's-rule simplex over a Fraction tableau, which the
    integer tableau replaced: every pivot choice, and so every result, must
    be the same.  Returns the pair (vertex, separator) as Fractions, with
    reduced costs summed afresh for every column rather than kept as a row."""
    m = len(b)
    n = len(A[0]) if m else 0
    signs = [-1 if v < 0 else 1 for v in b]
    rows = [
        [Fraction(s * a) for a in row] + [Fraction(int(i == r)) for i in range(m)]
        + [Fraction(s * v)]
        for r, (s, row, v) in enumerate(zip(signs, A, b))
    ]
    basis = list(range(n, n + m))

    def pivot(r, j):
        pivot_row = rows[r]
        a = pivot_row[j]
        if a != 1:
            pivot_row[:] = [v / a for v in pivot_row]
        for k, row in enumerate(rows):
            factor = row[j]
            if k != r and factor:
                row[:] = [v - factor * p if p else v for v, p in zip(row, pivot_row)]
        basis[r] = j

    cost = [0] * n + [1] * m
    while True:
        in_basis = set(basis)
        entering = None
        for j in range(n + m):
            if j in in_basis:
                continue
            reduced = cost[j] - sum(cost[k] * rows[r][j]
                                    for r, k in enumerate(basis) if cost[k])
            if reduced < 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                key = (row[-1] / a, basis[r])
                if leaving is None or key < best:
                    leaving, best = r, key
        pivot(leaving, entering)

    if any(rows[r][-1] for r, j in enumerate(basis) if j >= n):
        y = [sum(rows[r][n + i] for r, j in enumerate(basis) if j >= n) for i in range(m)]
        return None, tuple(-s * v for s, v in zip(signs, y))
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = rows[r][-1]
    return tuple(x), None


def _seeded_system(rng):
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)
    A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # feasible by construction, often degenerate
        x0 = [rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    else:
        b = [rng.randint(-9, 9) for _ in range(m)]
    if m > 1 and rng.random() < 0.2:
        A.append([2 * a for a in A[0]])
        b.append(2 * b[0])
    return A, b


def test_integer_tableau_matches_the_fraction_tableau():
    rng = random.Random("lp-parity-integer")
    feasible = set()
    for _ in range(800):
        A, b = _seeded_system(rng)
        got = simplex(A, b)
        want_x, want_y = reference_simplex(A, b)
        d = got.d
        assert type(d) is int and d >= 1, (A, b)
        if got.separator is None:
            assert want_y is None and all(type(v) is int for v in got.x), (A, b)
            assert tuple(Fraction(v, d) for v in got.x) == want_x, (A, b)
            assert all(v >= 0 for v in got.x)
            assert [dot(row, got.x) for row in A] == [d * v for v in b]
        else:
            assert got.x is None and want_x is None, (A, b)
            y = got.separator
            assert all(type(v) is int for v in y), (A, b)
            # d y for the reference's y: a positive integer multiple
            assert y == tuple(d * v for v in want_y), (A, b)
            assert all(dot(y, col) >= 0 for col in columns(A))
            assert dot(y, b) < 0
        feasible.add(got.separator is None)
    assert feasible == {True, False}
