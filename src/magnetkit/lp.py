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
Ratios and reduced costs are compared by cross-multiplication (d > 0), so
every choice, and with it the vertex and the separator, is the one the same
pivoting over fractions.Fraction makes.

Every answer is exact.  A feasible system returns a vertex, a basic
feasible solution; an infeasible one returns its Farkas separator y, with
y.A_j >= 0 on every column and y.b < 0, read off the phase-one duals, so a
"no" can be checked by multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import NamedTuple, Optional, Sequence


class LPResult(NamedTuple):
    x: Optional[tuple[Fraction, ...]]          # a feasible vertex, unless infeasible
    separator: Optional[tuple[Fraction, ...]]  # the Farkas y, exactly when infeasible


def simplex(A: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """A feasible vertex of A x = b, x >= 0, or the Farkas separator of a
    system that has none.

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
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged constraint rows")
    signs = [-1 if v < 0 else 1 for v in b]
    rows = [[s * a for a in row] + [int(i == r) for i in range(m)] + [s * v]
            for r, (s, row, v) in enumerate(zip(signs, A, b))]
    basis = list(range(n, n + m))
    d = 1

    while True:
        # the cost is 1 on each artificial column and 0 on the others
        in_basis = set(basis)
        priced = [row for k, row in zip(basis, rows) if k >= n]
        entering = None
        for j in range(n + m):
            if j in in_basis:
                continue
            # d times the reduced cost cost[j] - c_B (rows / d)[:, j]
            if (d if j >= n else 0) < sum(row[j] for row in priced):
                entering = j
                break
        if entering is None:
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
        d = _pivot(rows, leaving, entering, d)
        basis[leaving] = entering

    if any(rows[r][-1] for r, j in enumerate(basis) if j >= n):
        # the artificial columns hold B^-1, so y = c_B B^-1 are the duals
        y = [sum(rows[r][n + i] for r, j in enumerate(basis) if j >= n) for i in range(m)]
        return LPResult(None, tuple(Fraction(-s * v, d) for s, v in zip(signs, y)))
    # an artificial still in the basis sits at level 0, so x lives on the
    # original columns
    x = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        if j < n:
            x[j] = Fraction(row[-1], d)
    return LPResult(tuple(x), None)


def _pivot(rows: list[list[int]], r: int, j: int, d: int) -> int:
    """Pivot the integer tableau rows over the common denominator d on
    entry (r, j) in place, and return the new common denominator.

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
