import random

import pytest
from hypothesis import given, settings, strategies as st

from magnetkit import linalg
from magnetkit.errors import StructuralError


def mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def apply(A, x):
    return [sum(a * b for a, b in zip(row, x)) for row in A]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_smith_reconstructs_and_transforms_invert(A):
    m, n = len(A), len(A[0])
    sm = linalg.smith(A)
    assert mul(mul(sm.S, sm.D), sm.T) == A
    assert mul(sm.S, sm.Sinv) == identity(m)
    assert mul(sm.Sinv, sm.S) == identity(m)
    assert mul(sm.T, sm.Tinv) == identity(n)
    assert mul(sm.Tinv, sm.T) == identity(n)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_smith_diagonal_divisibility_chain(A):
    m, n = len(A), len(A[0])
    sm = linalg.smith(A)
    assert [len(row) for row in sm.D] == [n] * m
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sm.D[i][j] == 0
    diag = list(sm.diagonal)
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d != 0]
    # nonzero entries first, then zeros
    assert diag[: len(nz)] == nz
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


@given(
    matrices,
    st.lists(st.integers(min_value=0, max_value=5), min_size=4, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_solve_finds_constructed_solutions(A, x0):
    n = len(A[0])
    b = apply(A, x0[:n])
    got = linalg.solve(A, b)
    assert got is not None
    assert apply(A, got) == b


def test_solve_reports_unsolvable():
    assert linalg.solve([[2]], [1]) is None
    assert linalg.solve([[2, 0], [0, 3]], [1, 1]) is None
    assert linalg.solve([[1, 1]], [5]) is not None
    # inconsistent overdetermined system
    assert linalg.solve([[1], [1]], [0, 1]) is None


def test_in_span_examples():
    cols = [[2, 0], [0, 2]]
    assert linalg.solve(cols, [4, -2]) == [2, -1]
    assert linalg.solve(cols, [1, 0]) is None


def test_matrices_without_columns():
    # q x 0: the span of no columns is {0}; 0 x 0: the trivial group
    for q in (3, 1, 0):
        A = [[] for _ in range(q)]
        sm = linalg.smith(A)
        assert (sm.S, sm.Sinv) == (identity(q), identity(q))
        assert sm.D == A and sm.T == sm.Tinv == []
        assert sm.diagonal == () and sm.rank == 0
        assert linalg.solve(A, [0] * q) == []
        if q:
            assert linalg.solve(A, [0] * (q - 1) + [1]) is None
            assert linalg.solve(A, [5] + [0] * (q - 1)) is None


# --- solve against the Smith form ----------------------------------------------


def smith_solve(A, b):
    """The solve that reads the full Smith form, kept as the reference."""
    sm = linalg.smith(A)
    y = [0] * len(sm.T)
    diag = sm.diagonal
    for i, row in enumerate(sm.Sinv):
        c = sum(a * v for a, v in zip(row, b))
        d = diag[i] if i < len(diag) else 0
        if (c % d if d else c) != 0:
            return None
        if d:
            y[i] = c // d
    return apply(sm.Tinv, y)


def test_solve_agrees_with_the_smith_reference():
    rng = random.Random("solve-parity")
    answers = set()
    for _ in range(400):
        m, n = rng.randint(1, 5), rng.randint(0, 5)
        A = [[rng.choice([0, 0, 1, -1, 2, 3, -4, 6, 9]) for _ in range(n)] for _ in range(m)]
        if n and rng.random() < 0.5:
            b = apply(A, [rng.randint(-5, 5) for _ in range(n)])
            b[rng.randrange(m)] += rng.choice([0, 1, 2])
        else:
            b = [rng.randint(-6, 6) for _ in range(m)]
        x, want = linalg.solve(A, b), smith_solve(A, b)
        assert (x is None) == (want is None), (A, b)
        if x is not None:
            assert apply(A, x) == b
        answers.add(x is None)
    assert answers == {True, False}


def _corrupting(monkeypatch, corrupt):
    real = linalg._diagonalize

    def fake(A, full):
        parts = real(A, full)
        corrupt(*parts)
        return parts

    monkeypatch.setattr(linalg, "_diagonalize", fake)


def test_corrupted_witness_is_caught(monkeypatch):
    A, b = [[2, 0], [0, 3]], [4, 9]
    assert apply(A, linalg.solve(A, b)) == b

    def corrupt(D, Sinv, Tinv, S, T):
        Tinv[0][0] += 1

    _corrupting(monkeypatch, corrupt)
    with pytest.raises(StructuralError, match="does not solve"):
        linalg.solve(A, b)


def test_corrupted_character_is_caught(monkeypatch):
    A, b = [[2, 0], [0, 3]], [1, 0]
    assert linalg.solve(A, b) is None

    def corrupt(D, Sinv, Tinv, S, T):
        # (1, 1) is odd on b but also on the second column, so proves nothing
        Sinv[0] = [1, 1]

    _corrupting(monkeypatch, corrupt)
    with pytest.raises(StructuralError, match="character"):
        linalg.solve(A, b)
