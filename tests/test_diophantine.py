"""Solver tests against an exhaustive bounded enumeration oracle.

The oracle enumerates every coefficient vector with a bounded sum, so its
positive answers are ground truth and its negative answers are ground truth
up to the bound; the tests combine the two directions accordingly.  The
plain dot-product search is kept here as the reference that the solver's
Gram-score kernel must follow node for node.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from magnetkit.diophantine import has_nonneg_solution
from magnetkit.errors import ResourceLimitError


def row_matches(lhs, rhs, modulus):
    return lhs == rhs if modulus == 0 else (lhs - rhs) % modulus == 0


def oracle_member(cols, target, moduli, cap):
    """Exhaustive search over all x in N^k with sum(x) <= cap."""
    k = len(cols)
    m = len(target)

    def rec(idx, budget, acc):
        if idx == k:
            return all(row_matches(acc[r], target[r], moduli[r]) for r in range(m))
        col = cols[idx]
        for c in range(budget + 1):
            if rec(idx + 1, budget - c, tuple(a + c * v for a, v in zip(acc, col))):
                return True
        return False

    return rec(0, cap, (0,) * m)


def vectors(dim, bound):
    return st.lists(
        st.integers(min_value=-bound, max_value=bound), min_size=dim, max_size=dim
    ).map(tuple)


instances = st.integers(min_value=1, max_value=2).flatmap(
    lambda dim: st.tuples(
        st.lists(vectors(dim, 3), min_size=1, max_size=3),
        vectors(dim, 6),
        st.sampled_from(["exact", "mixed"]).flatmap(
            lambda kind: st.just((0,) * dim)
            if kind == "exact"
            else st.lists(st.sampled_from([0, 2, 3, 4]), min_size=dim, max_size=dim).map(
                tuple
            )
        ),
    )
)


@given(instances)
@settings(max_examples=250, deadline=None)
def test_solver_agrees_with_exhaustive_oracle(inst):
    cols, target, moduli = inst
    got = has_nonneg_solution(cols, target, moduli)
    if got:
        # a witness must exist; escalate the oracle bound until it is seen
        assert any(oracle_member(cols, target, moduli, cap) for cap in (8, 16, 32, 64))
    else:
        # complete search said no; the bounded oracle must agree
        assert not oracle_member(cols, target, moduli, 16)


def test_numerical_semigroup_three_five():
    cols = [(3,), (5,)]
    assert not has_nonneg_solution(cols, (7,))
    assert has_nonneg_solution(cols, (8,))
    assert not has_nonneg_solution(cols, (-3,))
    assert has_nonneg_solution(cols, (0,))


def test_congruence_rows():
    # single generator 2 in Z/4
    assert has_nonneg_solution([(2,)], (2,), (4,))
    assert not has_nonneg_solution([(2,)], (1,), (4,))
    assert has_nonneg_solution([(2,)], (0,), (4,))
    # generator 1 reaches everything
    assert has_nonneg_solution([(1,)], (3,), (4,))
    # mixed exact/congruence rows
    cols = [(1, 1), (0, 3)]
    assert has_nonneg_solution(cols, (2, 2), (0, 6))
    assert not has_nonneg_solution(cols, (2, 3), (0, 6))


def test_empty_generator_list():
    assert has_nonneg_solution([], (0, 0))
    assert not has_nonneg_solution([], (1, 0))


def test_negative_direction_requires_actual_combination():
    # (1,1) and (1,-1) span a cone missing (0,1)
    cols = [(1, 1), (1, -1)]
    assert not has_nonneg_solution(cols, (0, 1))
    assert has_nonneg_solution(cols, (2, 0))
    assert not has_nonneg_solution(cols, (1, 0))


def test_node_cap_raises():
    with pytest.raises(ResourceLimitError):
        has_nonneg_solution([(5, 1), (-4, 1), (1, -2)], (0, 50), max_nodes=5)


def reference_search(columns, target, moduli, limit):
    """The plain completion search: each node carries v = A t and forms one
    dot product per column.  Returns (answer, nodes processed), or None once
    more than `limit` nodes would be processed; the node count is the least
    max_nodes at which the solver answers."""
    m = len(target)
    work = [tuple(col) for col in columns]
    for r, n in enumerate(moduli):
        if n:
            work += [tuple(n if k == r else 0 for k in range(m)),
                     tuple(-n if k == r else 0 for k in range(m))]
    if all(v == 0 for v in target):
        return True, 0
    hom = len(work)
    work.append(tuple(-v for v in target))
    q = len(work)
    minimal, seen = [], set()
    frontier = [(tuple(int(k == i) for k in range(q)), work[i]) for i in range(q)]
    processed = 0
    while frontier:
        next_frontier = []
        for x, v in frontier:
            processed += 1
            if processed > limit:
                return None
            if not any(v):
                if x[hom] == 1:
                    return True, processed
                minimal.append(x)
                continue
            for i in range(q):
                if x[hom] == 1 and i == hom:
                    continue
                if sum(a * b for a, b in zip(v, work[i])) < 0:
                    y = tuple(c + (k == i) for k, c in enumerate(x))
                    if y in seen or any(
                        y != t and all(a >= b for a, b in zip(y, t)) for t in minimal
                    ):
                        continue
                    seen.add(y)
                    next_frontier.append((y, tuple(a + b for a, b in zip(v, work[i]))))
        frontier = next_frontier
    return False, processed


def test_gram_kernel_walks_the_reference_search_node_for_node():
    """At the least budget where the reference answers, the solver gives the
    same answer; one node fewer, it raises.  Answer equality alone would let
    a kernel that visits other nodes through."""
    rng = random.Random(20261018)
    limit = 400
    answered = {True: 0, False: 0}
    for _ in range(300):
        m = rng.randint(1, 4)
        moduli = tuple(rng.choice((0, 0, 2, 3, 4, 5, 6)) for _ in range(m))
        cols = [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(rng.randint(1, 6))]
        target = tuple(rng.randint(-6, 6) for _ in range(m))
        ref = reference_search(cols, target, moduli, limit)
        if ref is None:
            with pytest.raises(ResourceLimitError):
                has_nonneg_solution(cols, target, moduli, max_nodes=limit)
            continue
        answer, nodes = ref
        answered[answer] += 1
        assert has_nonneg_solution(cols, target, moduli, max_nodes=nodes) is answer
        if nodes:
            with pytest.raises(ResourceLimitError, match="exceeded %d nodes" % (nodes - 1)):
                has_nonneg_solution(cols, target, moduli, max_nodes=nodes - 1)
    assert answered[True] >= 100 and answered[False] >= 50, answered
