import numpy as np
from hypothesis import given, settings, strategies as st

from magnetkit import linalg


def obj(rows):
    return linalg.as_object_matrix(rows)


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
def test_smith_reconstructs_and_transforms_invert(rows):
    A = obj(rows)
    m, n = A.shape
    sm = linalg.smith(A)
    assert (sm.S @ sm.D @ sm.T == A).all()
    assert (sm.S @ sm.Sinv == linalg.identity_obj(m)).all()
    assert (sm.Sinv @ sm.S == linalg.identity_obj(m)).all()
    assert (sm.T @ sm.Tinv == linalg.identity_obj(n)).all()
    assert (sm.Tinv @ sm.T == linalg.identity_obj(n)).all()


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_smith_diagonal_divisibility_chain(rows):
    A = obj(rows)
    m, n = A.shape
    sm = linalg.smith(A)
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert sm.D[i, j] == 0
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
def test_solve_finds_constructed_solutions(rows, x0):
    A = obj(rows)
    m, n = A.shape
    x = np.array(x0[:n], dtype=object)
    b = A @ x
    got = linalg.solve(A, list(b))
    assert got is not None
    assert (A @ np.array(got, dtype=object) == b).all()


def test_solve_reports_unsolvable():
    assert linalg.solve(obj([[2]]), [1]) is None
    assert linalg.solve(obj([[2, 0], [0, 3]]), [1, 1]) is None
    assert linalg.solve(obj([[1, 1]]), [5]) is not None
    # inconsistent overdetermined system
    assert linalg.solve(obj([[1], [1]]), [0, 1]) is None


def test_in_span_examples():
    cols = obj([[2, 0], [0, 2]])
    assert linalg.in_span(cols, [4, -2])
    assert not linalg.in_span(cols, [1, 0])
