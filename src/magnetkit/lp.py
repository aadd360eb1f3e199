"""Exact feasibility of A x = b, x >= 0 for an integer matrix A.

simplex(A, b) runs phase one of the simplex method with Bland's rule
(Schrijver, Theory of Linear and Integer Programming, 1986, ch. 11): it
starts from one artificial variable per row (rows with a negative
right-hand side are negated first) and minimizes their sum.  The entering
column is the first one with a negative reduced cost and the leaving row the
first basic variable among the tied ratios, which rules out cycling on
degenerate pivots.  Nothing else is minimized: there is no phase two.

The tableau is kept in integers by Edmonds' exact integer pivoting (J. Res.
NBS 71B, 1967; the scheme of Avis's lrs): the rational tableau is an
integer one over a single positive common denominator d, the absolute
determinant of the current basis, so d starts at 1.  A pivot on the entry p
replaces every other row by (p * row - row[j] * pivot_row) / d, where the
division is exact because every entry is a minor, and makes |p| the new d.
The reduced costs, times d, are one more row of the tableau, pivoted with
the others, so pricing a column reads one entry; its entries are minors too,
of the system with the objective as one more equation, whose variable stays
basic.  Ratios are compared by
cross-multiplication (d > 0), so every choice, and with it the vertex and
the separator, is the one the same pivoting over fractions.Fraction makes.

Every answer is exact and in integers.  A feasible system returns a vertex,
a basic feasible solution, as integer numerators over d.  An infeasible one
returns d y for its Farkas separator y, read off the phase-one duals: y has
y.A_j >= 0 on every column and y.b < 0, and d > 0 keeps both signs, so d y
is a Farkas separator too and a "no" can be checked by integer
multiplication.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Optional, Sequence


class LPResult(NamedTuple):
    x: Optional[tuple[int, ...]]          # d times a feasible vertex, unless infeasible
    separator: Optional[tuple[int, ...]]  # d times the Farkas y, exactly when infeasible
    d: int                                # the tableau's final denominator, >= 1


def simplex(A: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """A feasible vertex of A x = b, x >= 0, or the Farkas separator of a
    system that has none, either one times the final denominator d > 0.

    A is given by its rows, one per entry of b; every entry must be an
    integer (ValueError otherwise).
    """
    try:
        A = [tuple(map(index, row)) for row in A]
        b = tuple(map(index, b))
    except TypeError:
        raise ValueError("constraint rows and right-hand side must hold integers") from None
    m = len(b)
    if len(A) != m:
        raise ValueError("one constraint row per entry of b required")
    if not m:
        return LPResult((), None, 1)
    n = len(A[0])
    if any(len(row) != n for row in A):
        raise ValueError("ragged constraint rows")
    signs = [-1 if v < 0 else 1 for v in b]
    rows = []
    for r, (s, row, v) in enumerate(zip(signs, A, b)):
        rows.append([s * a for a in row] + [0] * m + [s * v])
        rows[r][n + r] = 1
    # d times the reduced costs: the cost is 1 on each artificial column and
    # 0 on the others, and every artificial starts in the basis, so the row
    # starts as minus the column sums of the rows, 0 on the artificial
    # columns, and ends in minus the sum of the artificials
    cost = [-sum(col) for col in zip(*rows)]
    cost[n:n + m] = [0] * m
    tableau = rows + [cost]
    basis = list(range(n, n + m))
    d = 1

    while True:
        # the first column with a negative reduced cost enters; a basic
        # column has reduced cost 0
        for entering in range(n + m):
            if cost[entering] < 0:
                break
        else:
            break
        # the sum of the artificials is bounded below by 0, so an improving
        # column always has a positive entry and a leaving row
        leaving = None
        for r, row in enumerate(rows):
            a = row[entering]
            if a > 0:
                # ratio row[-1] / a against best_v / best_a, both a > 0
                if (leaving is None or row[-1] * best_a < best_v * a
                        or (row[-1] * best_a == best_v * a and basis[r] < basis[leaving])):
                    leaving, best_v, best_a = r, row[-1], a
        d = _pivot(tableau, leaving, entering, d)
        basis[leaving] = entering

    if cost[-1]:
        # the last entry is -d times the sum of the artificials, so some
        # artificial is positive; the artificial columns of the cost row are
        # d (1 - y) for the duals y = c_B B^-1 of the signed rows, and -y
        # with each row's sign put back separates
        return LPResult(None, tuple(s * (c - d) for s, c in zip(signs, cost[n:n + m])), d)
    # an artificial still in the basis sits at level 0, so x lives on the
    # original columns
    x = [0] * n
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = row[-1]
    return LPResult(tuple(x), None, d)


def _pivot(rows: list[list[int]], r: int, j: int, d: int) -> int:
    """Pivot the integer tableau rows, the cost row among them, over the
    common denominator d on entry (r, j) in place, and return the new
    common denominator.

    The pivot p = rows[r][j] is > 0: the ratio test picks only a leaving row
    whose entering entry is positive, so p is the new denominator as it is."""
    pivot_row = rows[r]
    p = pivot_row[j]
    for k, row in enumerate(rows):
        if k == r:
            continue
        f = row[j]
        if f:
            row[:] = [(p * v - f * q) // d for v, q in zip(row, pivot_row)]
        elif p != d:
            row[:] = [p * v // d for v in row]
    return p
