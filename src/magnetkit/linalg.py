"""Exact integer matrices as lists of int rows.

Everything here is exact: entries are Python ints, so nothing ever silently
overflows or rounds.  A matrix is a sequence of rows; one with q rows and no
columns is q empty rows.  The main entry point is smith(A), returning S, D, T
with

    A == S D T,   S and T unimodular (inverses returned alongside),
    D diagonal with d_1 | d_2 | ... | d_r >= 1 followed by zeros.

Conventions match the column-span view: columns of A span a subgroup of Z^m.

solve(A, b), the certified span test, runs the same elimination but carries
only Sinv and Tinv and skips the fold that builds the divisibility chain: a
diagonal D is enough to read off an integer solution.  Each answer comes
with a certificate checked by multiplication: a solution x with A x == b,
or a character (a row of Sinv and its diagonal entry) that vanishes on the
columns and not on b.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import crosscheck

Matrix = list[list[int]]


def dot(u: Sequence, v: Sequence):
    return sum(a * b for a, b in zip(u, v))


def _mul(A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]) -> Matrix:
    cols = list(zip(*B))
    return [[dot(row, col) for col in cols] for row in A]


def _identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _left(X: Matrix, i: int, j: int, M: tuple[int, int, int, int]):
    """Rows i, j of X become [[a, b], [c, d]] times them, for M = (a, b, c, d)."""
    a, b, c, d = M
    X[i], X[j] = ([a * x + b * y for x, y in zip(X[i], X[j])],
                  [c * x + d * y for x, y in zip(X[i], X[j])])


def _right(X: Matrix, i: int, j: int, M: tuple[int, int, int, int]):
    """Columns i, j of X become them times [[a, b], [c, d]], for M = (a, b, c, d)."""
    a, b, c, d = M
    for row in X:
        row[i], row[j] = a * row[i] + c * row[j], b * row[i] + d * row[j]


def _exgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, u, v with u*a + v*b == g == gcd(a, b) >= 0.

    When a divides b the answer is canonically (|a|, sign(a), 0): the row and
    column clearing loops rely on that to be pure eliminations (anything else
    can cycle, e.g. a == b == 1 has the Bezout pair (0, 1) as well).
    """
    if a != 0 and b % a == 0:
        return (a, 1, 0) if a > 0 else (-a, -1, 0)
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class SmithDecomposition(NamedTuple):
    S: Matrix
    D: Matrix
    T: Matrix
    Sinv: Matrix
    Tinv: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i][i] for i in range(min(len(self.S), len(self.T))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _diagonalize(A: Sequence[Sequence[int]], full: bool):
    """D, Sinv, Tinv, S, T with Sinv A Tinv == D diagonal, by unimodular row
    and column operations on a copy of A.

    full also carries S and T (None otherwise) and folds rows until every
    pivot divides the trailing block, which gives the divisibility chain of
    the Smith form; without it D is diagonal with no chain, enough to
    solve a system.
    """
    D = [list(row) for row in A]
    m = len(D)
    n = len(D[0]) if D else 0
    Sinv, Tinv = _identity(m), _identity(n)
    S, T = (_identity(m), _identity(n)) if full else (None, None)

    def row_op(i, j, M, Minv):
        _left(D, i, j, M)
        _left(Sinv, i, j, M)
        if S is not None:
            _right(S, i, j, Minv)

    def col_op(i, j, N, Ninv):
        _right(D, i, j, N)
        _right(Tinv, i, j, N)
        if T is not None:
            _left(T, i, j, Ninv)

    def kill_below(k):
        for i in range(k + 1, m):
            if D[i][k] != 0:
                a, b = D[k][k], D[i][k]
                g, u, v = _exgcd(a, b)
                row_op(k, i, (u, v, -b // g, a // g), (a // g, -v, b // g, u))

    def kill_right(k):
        for j in range(k + 1, n):
            if D[k][j] != 0:
                a, b = D[k][k], D[k][j]
                g, u, v = _exgcd(a, b)
                col_op(k, j, (u, -b // g, v, a // g), (a // g, b // g, -v, u))

    swap = (0, 1, 1, 0)
    for k in range(min(m, n)):
        # first nonzero entry of the trailing block, row by row
        pivot = next(((i, j) for i in range(k, m) for j in range(k, n) if D[i][j] != 0), None)
        if pivot is None:
            break
        if pivot[0] != k:
            row_op(k, pivot[0], swap, swap)
        if pivot[1] != k:
            col_op(k, pivot[1], swap, swap)

        while True:
            kill_below(k)
            kill_right(k)
            if any(D[i][k] != 0 for i in range(k + 1, m)) or any(
                D[k][j] != 0 for j in range(k + 1, n)
            ):
                continue
            if not full:
                break
            # pivot must divide the trailing block for the divisibility chain
            bad = next((i for i in range(k + 1, m) for j in range(k + 1, n)
                        if D[i][j] % D[k][k] != 0), None)
            if bad is None:
                break
            # fold the offending row into row k and restart the clearing
            row_op(k, bad, (1, 1, 0, 1), (1, -1, 0, 1))
        if D[k][k] < 0:
            D[k] = [-x for x in D[k]]
            Sinv[k] = [-x for x in Sinv[k]]
            if S is not None:
                for row in S:
                    row[k] = -row[k]
    return D, Sinv, Tinv, S, T


def smith(A: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Smith normal form with unimodular transforms and their inverses."""
    D, Sinv, Tinv, S, T = _diagonalize(A, full=True)
    crosscheck(_mul(_mul(S, D), T) == [list(row) for row in A],
               "Smith decomposition does not reproduce the matrix")
    return SmithDecomposition(S, D, T, Sinv, Tinv)


def solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> Optional[list[int]]:
    """One integer solution x of A x = b, or None if none exists.

    Both answers are certified by multiplication: x by A x == b, and None
    by a character chi, a row of Sinv with the diagonal entry d beside it
    (0 past the diagonal), such that chi.A == 0 and chi.b != 0 modulo d
    (exactly, for d == 0): every integer combination of the columns of A
    has chi-value 0 modulo d, so b is none of them.
    """
    D, Sinv, Tinv, _, _ = _diagonalize(A, full=False)
    y = [0] * len(Tinv)
    for i, chi in enumerate(Sinv):
        c = dot(chi, b)
        d = D[i][i] if i < len(Tinv) else 0
        if _mod(c, d):
            crosscheck(all(_mod(dot(chi, col), d) == 0 for col in zip(*A)),
                       "character %r mod %d does not vanish on the columns", chi, d)
            return None
        if d:
            y[i] = c // d
    x = [dot(row, y) for row in Tinv]
    crosscheck([dot(row, x) for row in A] == list(b),
               "integer solution does not solve the system")
    return x


def _mod(v: int, d: int) -> int:
    """v modulo d, and v itself for d == 0 (the congruence is equality)."""
    return v % d if d else v

