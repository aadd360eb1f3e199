"""Exact linear programming over the rationals.

simplex(A, b, c) minimizes c.x subject to A x = b, x >= 0 by the two-phase
simplex method with Bland's rule (Schrijver, Theory of Linear and Integer
Programming, 1986, ch. 11): the entering column is the first one with a
negative reduced cost and the leaving row the first basic variable among
the tied ratios, which rules out cycling on degenerate pivots.  Phase one
starts from one artificial variable per row (rows with a negative
right-hand side are negated first) and minimizes their sum; phase two
minimizes c from the vertex it found.

The tableau is kept in integers by Edmonds' exact integer pivoting (J. Res.
NBS 71B, 1967; the scheme of Avis's lrs): the rational tableau is an
integer one over a single positive common denominator d, the absolute
determinant of the current basis in the row-scaled system.  A pivot on the
entry p replaces every other row by (p * row - row[j] * pivot_row) / d,
where the division is exact because every entry is a minor, and makes |p|
the new d.  Ratios and reduced costs are compared by cross-multiplication
(d > 0), so every choice, and with it the status, the vertex and the
separator, is the one the same pivoting over fractions.Fraction makes.

Every answer is exact.  A feasible system returns a vertex, a basic
feasible solution; an infeasible one returns its Farkas separator y, with
y.A_j >= 0 on every column and y.b < 0, read off the phase-one duals, so a
"no" can be checked by multiplication.
"""

from __future__ import annotations

import math
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

    A is given by its rows, one per entry of b; entries are ints or
    Fractions.  The status is OPTIMAL (x an optimal vertex, or any vertex
    when c is None), UNBOUNDED (x the vertex where an improving ray was
    found) or INFEASIBLE (separator set).
    """
    m = len(b)
    n = len(A[0]) if m else len(c or ())
    if any(len(row) != n for row in A):
        raise ValueError("ragged constraint rows")
    if c is not None and len(c) != n:
        raise ValueError("one cost per column required")
    signs = [-1 if v < 0 else 1 for v in b]
    # row r is scaled by the least common denominator of its entries, which
    # leaves the rational tableau as it is, so d starts as the product of
    # those scales (the determinant of the scaled artificial basis)
    d = math.prod(math.lcm(v.denominator, *(a.denominator for a in row))
                  for row, v in zip(A, b))
    tab = _Tableau(
        [[_scaled(s * a, d) for a in row] + [d * int(i == r) for i in range(m)]
         + [_scaled(s * v, d)]
         for r, (s, row, v) in enumerate(zip(signs, A, b))],
        list(range(n, n + m)), d)

    # phase one: minimize the sum of the artificial variables
    tab.run([0] * n + [1] * m, n + m)
    rows, basis = tab.rows, tab.basis
    if any(rows[r][-1] for r, j in enumerate(basis) if j >= n):
        # the artificial columns hold B^-1, so y = c_B B^-1 are the duals
        y = [sum(rows[r][n + i] for r, j in enumerate(basis) if j >= n) for i in range(m)]
        return LPResult(INFEASIBLE, None,
                        tuple(Fraction(-s * v, tab.d) for s, v in zip(signs, y)))

    # drive the artificials, now all at level zero, out of the basis; a row
    # with no original column left to pivot on is redundant and dropped
    for r in reversed(range(m)):
        if basis[r] < n:
            continue
        j = next((j for j in range(n) if rows[r][j]), None)
        if j is None:
            del rows[r], basis[r]
        else:
            tab.pivot(r, j)

    status = OPTIMAL
    if c is not None:
        # a positive scale keeps the sign of every reduced cost
        lcd = math.lcm(*(v.denominator for v in c))
        if not tab.run([int(v * lcd) for v in c] + [0] * m, n):
            status = UNBOUNDED
    x = [Fraction(0)] * n
    for row, j in zip(rows, basis):
        x[j] = Fraction(row[-1], tab.d)
    return LPResult(status, tuple(x), None)


def _scaled(v, d: int) -> int:
    """d * v as an int, for a rational v whose denominator divides d."""
    return v.numerator * (d // v.denominator)


class _Tableau:
    """An integer tableau over the common denominator d > 0 and its basis:
    row r is basic variable basis[r], and the rational tableau is rows / d."""

    __slots__ = ("rows", "basis", "d")

    def __init__(self, rows: list[list[int]], basis: list[int], d: int):
        self.rows, self.basis, self.d = rows, basis, d

    def run(self, cost: Sequence[int], allowed: int) -> bool:
        """Pivot by Bland's rule over the columns below allowed until no
        reduced cost is negative (True) or an improving column has no bound
        (False).  Costs are integers."""
        rows, basis = self.rows, self.basis
        while True:
            d = self.d
            in_basis = set(basis)
            priced = [(cost[k], row) for k, row in zip(basis, rows) if cost[k]]
            entering = None
            for j in range(allowed):
                if j in in_basis:
                    continue
                # d times the reduced cost cost[j] - c_B (rows / d)[:, j]
                if cost[j] * d < sum(ck * row[j] for ck, row in priced):
                    entering = j
                    break
            if entering is None:
                return True
            leaving = None
            for r, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    # ratio row[-1] / a against best_v / best_a, both a > 0
                    if (leaving is None or row[-1] * best_a < best_v * a
                            or (row[-1] * best_a == best_v * a and basis[r] < basis[leaving])):
                        leaving, best_v, best_a = r, row[-1], a
            if leaving is None:
                return False
            self.pivot(leaving, entering)

    def pivot(self, r: int, j: int) -> None:
        rows, d = self.rows, self.d
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
        if p < 0:
            for row in rows:
                row[:] = [-v for v in row]
        self.basis[r] = j
        self.d = abs(p)
