"""Exact nonnegative integer linear solving.

Decides whether  sum_i x_i * col_i = target  has a solution with x in N^k,
where each coordinate row is either an exact equation over Z or a congruence
modulo n (n >= 2).  Congruence rows are compiled away with a pair of slack
columns (+n, -n), after which the question is homogenized with an extra
column -target and handed to a completion search in the style of
Contejean and Devie: breadth-first over coefficient vectors, extending t by
e_i only when <A t, A e_i> < 0, pruning anything that strictly dominates an
already-found minimal solution.  The search is complete, so a None answer is
a proof of non-membership; hitting the node cap raises instead of guessing.
A "yes" comes as its witness, the solution node's coefficients on the
given columns (the congruence slacks and the homogenizing column dropped).

No dot product is formed per node.  With v = A t, a node carries its scores
s[i] = <v, col_i> and its squared norm |v|^2 instead of v; expanding column i
adds row i of the Gram matrix <col_i, col_j> to s and 2 s[i] + <col_i, col_i>
to the norm, all in exact integers.  By linearity these are the same numbers
the dot products would give, and v = 0 iff |v|^2 = 0, so every test, and with
it the frontier order, the seen and minimal sets and the node count, is that
of the plain search.
"""

from __future__ import annotations

from operator import add, ge, index, mul
from typing import Optional, Sequence

from .errors import ResourceLimitError

DEFAULT_MAX_NODES = 200_000


def has_nonneg_solution(
    columns: Sequence[Sequence[int]],
    target: Sequence[int],
    moduli: Optional[Sequence[int]] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> Optional[tuple[int, ...]]:
    """A witness x in N^k with sum_i x_i * col_i = target, one coefficient
    per column, or None when target is no nonnegative integer combination of
    the columns.

    moduli[r] == 0 means row r is an exact equation; moduli[r] == n >= 2 means
    row r only has to match modulo n.
    """
    try:
        target = tuple(map(index, target))
        cols = [tuple(map(index, col)) for col in columns]
        moduli = (0,) * len(target) if moduli is None else tuple(map(index, moduli))
    except TypeError:
        raise ValueError("columns, target and moduli must hold integers") from None
    m = len(target)
    for col in cols:
        if len(col) != m:
            raise ValueError("column length does not match target length")
    if len(moduli) != m:
        raise ValueError("one modulus per row required")

    k = len(cols)
    if all(v == 0 for v in target):
        return (0,) * k

    work = list(cols)
    for r, n in enumerate(moduli):
        if n == 0:
            continue
        if n < 2:
            raise ValueError("modulus must be 0 or >= 2")
        slack = [0] * m
        slack[r] = n
        work.append(tuple(slack))
        slack = [0] * m
        slack[r] = -n
        work.append(tuple(slack))

    hom = len(work)
    work.append(tuple(-v for v in target))
    q = len(work)
    gram = [tuple(sum(map(mul, a, b)) for b in work) for a in work]

    minimal: list[tuple] = []
    seen: set[tuple] = set()
    frontier: list[tuple[tuple, tuple, int]] = []
    for i in range(q):
        x = [0] * q
        x[i] = 1
        frontier.append((tuple(x), gram[i], gram[i][i]))
    processed = 0

    while frontier:
        next_frontier: list[tuple[tuple, tuple, int]] = []
        for x, s, norm in frontier:
            processed += 1
            if processed > max_nodes:
                raise ResourceLimitError(
                    "diophantine search exceeded %d nodes" % max_nodes
                )
            if norm == 0:
                if x[hom] == 1:
                    return x[:k]
                minimal.append(x)
                continue
            at_hom_cap = x[hom] == 1
            for i, si in enumerate(s):
                if si >= 0 or (at_hom_cap and i == hom):
                    continue
                y = list(x)
                y[i] += 1
                y = tuple(y)
                if y in seen:
                    continue
                if any(_strictly_dominates(y, t) for t in minimal):
                    continue
                seen.add(y)
                g = gram[i]
                next_frontier.append((y, tuple(map(add, s, g)), norm + 2 * si + g[i]))
        frontier = next_frontier
    return None


def _strictly_dominates(y: tuple, t: tuple) -> bool:
    return y != t and all(map(ge, y, t))
