"""Exact integer matrix utilities on numpy object arrays.

Everything here is exact: entries are Python ints held in dtype=object arrays,
so nothing ever silently overflows or rounds.  The main entry point is
smith(A), returning S, D, T with

    A == S @ D @ T,   S and T unimodular (inverses returned alongside),
    D diagonal with d_1 | d_2 | ... | d_r >= 1 followed by zeros.

Conventions match the column-span view: columns of A span a subgroup of Z^m.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import crosscheck


def as_object_matrix(rows: Sequence[Sequence[int]], width: Optional[int] = None) -> np.ndarray:
    """Build an (m, n) object array from nested ints; width disambiguates m x 0."""
    m = len(rows)
    n = len(rows[0]) if m else (width or 0)
    out = np.empty((m, n), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            out[i, j] = int(v)
    return out


def identity_obj(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


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
    S: np.ndarray
    D: np.ndarray
    T: np.ndarray
    Sinv: np.ndarray
    Tinv: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        m, n = self.D.shape
        return tuple(int(self.D[i, i]) for i in range(min(m, n)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith(A: np.ndarray) -> SmithDecomposition:
    """Smith normal form with unimodular transforms and their inverses."""
    A = np.array(A, dtype=object)
    m, n = A.shape
    D = A.copy()
    S, Sinv = identity_obj(m), identity_obj(m)
    T, Tinv = identity_obj(n), identity_obj(n)

    def row_block(i, j, M, Minv):
        D[[i, j], :] = M @ D[[i, j], :]
        Sinv[[i, j], :] = M @ Sinv[[i, j], :]
        S[:, [i, j]] = S[:, [i, j]] @ Minv

    def col_block(i, j, N, Ninv):
        D[:, [i, j]] = D[:, [i, j]] @ N
        Tinv[:, [i, j]] = Tinv[:, [i, j]] @ N
        T[[i, j], :] = Ninv @ T[[i, j], :]

    def row_swap(i, j):
        D[[i, j], :] = D[[j, i], :]
        Sinv[[i, j], :] = Sinv[[j, i], :]
        S[:, [i, j]] = S[:, [j, i]]

    def col_swap(i, j):
        D[:, [i, j]] = D[:, [j, i]]
        Tinv[:, [i, j]] = Tinv[:, [j, i]]
        T[[i, j], :] = T[[j, i], :]

    def row_negate(i):
        D[i, :] = -D[i, :]
        Sinv[i, :] = -Sinv[i, :]
        S[:, i] = -S[:, i]

    def kill_below(k):
        for i in range(k + 1, m):
            if D[i, k] != 0:
                a, b = int(D[k, k]), int(D[i, k])
                g, u, v = _exgcd(a, b)
                M = np.array([[u, v], [-b // g, a // g]], dtype=object)
                Minv = np.array([[a // g, -v], [b // g, u]], dtype=object)
                row_block(k, i, M, Minv)

    def kill_right(k):
        for j in range(k + 1, n):
            if D[k, j] != 0:
                a, b = int(D[k, k]), int(D[k, j])
                g, u, v = _exgcd(a, b)
                N = np.array([[u, -b // g], [v, a // g]], dtype=object)
                Ninv = np.array([[a // g, b // g], [-v, u]], dtype=object)
                col_block(k, j, N, Ninv)

    for k in range(min(m, n)):
        # pivot search
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if D[i, j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        if pivot[0] != k:
            row_swap(k, pivot[0])
        if pivot[1] != k:
            col_swap(k, pivot[1])

        while True:
            kill_below(k)
            kill_right(k)
            if all(D[i, k] == 0 for i in range(k + 1, m)) and all(
                D[k, j] == 0 for j in range(k + 1, n)
            ):
                # pivot must divide the trailing block for the divisibility chain
                bad = None
                for i in range(k + 1, m):
                    for j in range(k + 1, n):
                        if D[i, j] % D[k, k] != 0:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                # fold the offending row into row k and restart the clearing
                D[k, :] = D[k, :] + D[bad, :]
                Sinv[k, :] = Sinv[k, :] + Sinv[bad, :]
                S[:, bad] = S[:, bad] - S[:, k]
        if D[k, k] < 0:
            row_negate(k)

    crosscheck((S @ D @ T == A).all(), "Smith decomposition does not reproduce the matrix")
    return SmithDecomposition(S, D, T, Sinv, Tinv)


def solve(A: np.ndarray, b: Sequence[int]) -> Optional[list[int]]:
    """One integer solution x of A x = b, or None if none exists."""
    A = np.array(A, dtype=object)
    m, n = A.shape
    sm = smith(A)
    c = sm.Sinv @ np.array([int(v) for v in b], dtype=object)
    y = [0] * n
    diag = sm.diagonal
    for i in range(m):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < n:
                y[i] = c[i] // d
    x = sm.Tinv @ np.array(y, dtype=object)
    crosscheck((A @ x == np.array([int(v) for v in b], dtype=object)).all(),
               "integer solution does not solve the system")
    return [int(v) for v in x]


def in_span(columns: np.ndarray, target: Sequence[int]) -> bool:
    return solve(columns, target) is not None
