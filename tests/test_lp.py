import random
from fractions import Fraction

import pytest

from magnetkit.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, simplex


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


# --- the Fraction tableau as the reference ---------------------------------


def reference_simplex(A, b, c=None):
    """The two-phase Bland's-rule simplex over a Fraction tableau, which the
    integer tableau replaced: every pivot choice, and so every result, must
    be the same."""
    m = len(b)
    n = len(A[0]) if m else len(c or ())
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

    def run(cost, allowed):
        while True:
            in_basis = set(basis)
            entering = None
            for j in range(allowed):
                if j in in_basis:
                    continue
                reduced = cost[j] - sum(cost[k] * rows[r][j]
                                        for r, k in enumerate(basis) if cost[k])
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return True
            leaving = None
            for r, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    key = (row[-1] / a, basis[r])
                    if leaving is None or key < best:
                        leaving, best = r, key
            if leaving is None:
                return False
            pivot(leaving, entering)

    run([0] * n + [1] * m, n + m)
    if any(rows[r][-1] for r, j in enumerate(basis) if j >= n):
        y = [sum(rows[r][n + i] for r, j in enumerate(basis) if j >= n) for i in range(m)]
        return LPResult(INFEASIBLE, None, tuple(-s * v for s, v in zip(signs, y)))
    for r in reversed(range(m)):
        if basis[r] < n:
            continue
        j = next((j for j in range(n) if rows[r][j]), None)
        if j is None:
            del rows[r], basis[r]
        else:
            pivot(r, j)
    status = OPTIMAL
    if c is not None and not run(list(c) + [0] * m, n):
        status = UNBOUNDED
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = rows[r][-1]
    return LPResult(status, tuple(x), None)


def _seeded_system(rng, rational):
    m = rng.randint(1, 4)
    n = rng.randint(1, 6)

    def entry(lo, hi):
        v = rng.randint(lo, hi)
        return Fraction(v, rng.choice([1, 2, 3, 4, 6])) if rational else v

    A = [[entry(-4, 4) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # feasible by construction, often degenerate
        x0 = [rng.choice([0, 0, 1, 2, 3]) for _ in range(n)]
        b = [sum(a * v for a, v in zip(row, x0)) for row in A]
    else:
        b = [entry(-9, 9) for _ in range(m)]
    if m > 1 and rng.random() < 0.2:
        A.append([2 * a for a in A[0]])
        b.append(2 * b[0])
    return A, b


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_integer_tableau_matches_the_fraction_tableau(rational):
    rng = random.Random("lp-parity-%s" % rational)
    seen = set()
    for _ in range(400):
        A, b = _seeded_system(rng, rational)
        costs = [None, [rng.randint(-3, 3) for _ in A[0]]]
        if rational:
            costs.append([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in A[0]])
        for c in costs:
            got = simplex(A, b, c)
            assert got == reference_simplex(A, b, c), (A, b, c)
            seen.add(got.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}
