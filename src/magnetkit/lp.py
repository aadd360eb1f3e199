"""Exact linear programming over the rationals.

simplex(A, b, c) minimizes c.x subject to A x = b, x >= 0 in
fractions.Fraction arithmetic, by the two-phase simplex method with Bland's
rule (Schrijver, Theory of Linear and Integer Programming, 1986, ch. 11):
the entering column is the first one with a negative reduced cost and the
leaving row the first basic variable among the tied ratios, which rules out
cycling on degenerate pivots.  Phase one starts from one artificial
variable per row (rows with a negative right-hand side are negated first)
and minimizes their sum; phase two minimizes c from the vertex it found.

Every answer is exact.  A feasible system returns a vertex, a basic
feasible solution; an infeasible one returns its Farkas separator y, with
y.A_j >= 0 on every column and y.b < 0, read off the phase-one duals, so a
"no" can be checked by multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class LPResult(NamedTuple):
    status: str
    x: Optional[tuple[Fraction, ...]]          # the last vertex, unless infeasible
    separator: Optional[tuple[Fraction, ...]]  # the Farkas y, when infeasible


def simplex(A: Sequence[Sequence[int]], b: Sequence[int],
            c: Optional[Sequence[int]] = None) -> LPResult:
    """Minimize c.x over A x = b, x >= 0; c None asks for feasibility only.

    A is given by its rows, one per entry of b.  The status is OPTIMAL (x an
    optimal vertex, or any vertex when c is None), UNBOUNDED (x the vertex
    where an improving ray was found) or INFEASIBLE (separator set).
    """
    m = len(b)
    n = len(A[0]) if m else len(c or ())
    if any(len(row) != n for row in A):
        raise ValueError("ragged constraint rows")
    if c is not None and len(c) != n:
        raise ValueError("one cost per column required")
    signs = [-1 if v < 0 else 1 for v in b]
    rows = [
        [Fraction(s * a) for a in row] + [Fraction(int(i == r)) for i in range(m)]
        + [Fraction(s * v)]
        for r, (s, row, v) in enumerate(zip(signs, A, b))
    ]
    basis = list(range(n, n + m))

    # phase one: minimize the sum of the artificial variables
    cost = [0] * n + [1] * m
    _run(rows, basis, cost, n + m)
    if any(rows[r][-1] for r, j in enumerate(basis) if j >= n):
        # the artificial columns hold B^-1, so y = c_B B^-1 are the duals
        y = [sum(rows[r][n + i] for r, j in enumerate(basis) if j >= n) for i in range(m)]
        return LPResult(INFEASIBLE, None, tuple(-s * v for s, v in zip(signs, y)))

    # drive the artificials, now all at level zero, out of the basis; a row
    # with no original column left to pivot on is redundant and dropped
    for r in reversed(range(m)):
        if basis[r] < n:
            continue
        j = next((j for j in range(n) if rows[r][j]), None)
        if j is None:
            del rows[r], basis[r]
        else:
            _pivot(rows, basis, r, j)

    status = OPTIMAL
    if c is not None and not _run(rows, basis, list(c) + [0] * m, n):
        status = UNBOUNDED
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = rows[r][-1]
    return LPResult(status, tuple(x), None)


def _run(rows, basis, cost, allowed: int) -> bool:
    """Pivot by Bland's rule over the columns below allowed until no reduced
    cost is negative (True) or an improving column has no bound (False)."""
    while True:
        in_basis = set(basis)
        entering = None
        for j in range(allowed):
            if j in in_basis:
                continue
            reduced = cost[j] - sum(cost[k] * rows[r][j] for r, k in enumerate(basis) if cost[k])
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
        _pivot(rows, basis, leaving, entering)


def _pivot(rows, basis, r: int, j: int) -> None:
    pivot_row = rows[r]
    a = pivot_row[j]
    if a != 1:
        pivot_row[:] = [v / a for v in pivot_row]
    for k, row in enumerate(rows):
        factor = row[j]
        if k != r and factor:
            row[:] = [v - factor * p if p else v for v, p in zip(row, pivot_row)]
    basis[r] = j
