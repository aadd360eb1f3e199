"""Zariski equivariant atlases and the finite poset of pure magnets.

An atlas is a list of stable affine charts over one grading group; gluing
data is never needed because every question asked here (attractor equality,
pure magnets) is chartwise-decidable for Zariski covers.  Etale covers would
not admit chartwise comparison and are out of scope.

Attractor comparison semantics: two magnets give the same attractor iff the
killed degree-support agrees on every chart ("fingerprint").  Probing a
monoid-algebra chart at zero plus its generators is exact: the killed ideal
is generated by its generator-level members.  (If m is a minimal ideal
member, m itself escapes the magnet; decomposing m into chart generators,
either some generator is an ideal member, or all divisors of all generators
lie in the magnet and then so does their sum m.)  On [S> for a closed
subset S of the degree support E, one with [S> meeting E exactly in S, a
free or weight chart needs no question: it kills its degrees outside S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .errors import ResourceLimitError, StructuralError, crosscheck
from .graded import FreePoly, MonoidAlgebra, MonoidIdeal, WeightModule
from .groups import FgAbelianGroup, GroupElement
from .monoids import Submonoid, SumClosure, closed_sets

Chart = Union[FreePoly, MonoidAlgebra, WeightModule]


@dataclass(frozen=True)
class EquivariantAtlas:
    grading_group: FgAbelianGroup
    charts: tuple[tuple[str, Chart], ...]

    def __post_init__(self):
        if not self.charts:
            raise StructuralError("an atlas needs at least one chart")
        names = [n for n, _ in self.charts]
        if len(set(names)) != len(names):
            raise StructuralError("chart names must be unique")
        for _, c in self.charts:
            if c.grading_group != self.grading_group:
                raise StructuralError("chart graded by a different group")


def _chart_degrees(chart: Chart) -> tuple[GroupElement, ...]:
    if isinstance(chart, FreePoly):
        return chart.degrees()
    if isinstance(chart, MonoidAlgebra):
        return chart.monoid.generators
    return tuple(w for w, _, _ in chart.weights)


def degree_support(atlas: EquivariantAtlas) -> tuple[GroupElement, ...]:
    """The finite set E of degrees appearing across all charts."""
    out = set()
    for _, chart in atlas.charts:
        out.update(_chart_degrees(chart))
    return tuple(sorted(out))


def _chart_fingerprint(chart: Chart, N) -> frozenset:
    """Killed degree-support of the chart's attractor under N."""
    if isinstance(chart, FreePoly):
        return frozenset(d for _, d in chart.vars if not N.contains(d))
    if isinstance(chart, WeightModule):
        return frozenset(w for w, _, _ in chart.weights if not N.contains(w))
    ideal = MonoidIdeal(chart.monoid, avoided=(N,))
    probes = (chart.monoid.ambient.zero(),) + chart.monoid.generators
    return frozenset(p for p in probes if chart.survives(p) and ideal.contains(p))


def fingerprint(atlas: EquivariantAtlas, N) -> tuple[frozenset, ...]:
    return tuple(_chart_fingerprint(chart, N) for _, chart in atlas.charts)


def attractors_equal(atlas: EquivariantAtlas, N, L) -> bool:
    """Whether X^N = X^L, decided chartwise on killed degree-support."""
    return fingerprint(atlas, N) == fingerprint(atlas, L)


def _generated(atlas: EquivariantAtlas, subset: Iterable[GroupElement]) -> Submonoid:
    return Submonoid(atlas.grading_group, tuple(subset))


# a table (up to 2^cap closed sets) is only reused on the atlas just enumerated
_TABLES_KEPT = 1


def _closed_fingerprint(atlas: EquivariantAtlas, S: frozenset) -> tuple[frozenset, ...]:
    """fingerprint(atlas, [S>) for a closed S: a free or weight chart kills
    its degrees outside S, and a monoid-algebra chart is probed on [S>."""
    return tuple(
        _chart_fingerprint(chart, _generated(atlas, S)) if isinstance(chart, MonoidAlgebra)
        else frozenset(_chart_degrees(chart)).difference(S)
        for _, chart in atlas.charts
    )


@lru_cache(maxsize=_TABLES_KEPT)
def _closed_subset_table(atlas: EquivariantAtlas, cap: int):
    """All closed S (with [S> meeting E exactly in S), with fingerprints.

    closed_sets lists the sets closed under the sound rules of
    monoids.SumClosure, which then asks one question per degree e and listed
    set maximal among those without e (maximal_without), whose monoid must
    miss e.  A question that fails teaches the closure a rule from its
    witness, and the sets are listed again, until every listed set is
    certified closed, so its fingerprint is _closed_fingerprint's.
    """
    E = degree_support(atlas)
    if len(E) > cap:
        raise ResourceLimitError(
            "degree support has %d elements, cap is %d" % (len(E), cap)
        )
    closure = SumClosure(E)
    closed = list(closed_sets(len(E), closure))
    while closure.certify(closed):
        closed = list(closed_sets(len(E), closure))
    subsets = (frozenset(E[i] for i in C) for C in closed)
    return tuple((S, _closed_fingerprint(atlas, S)) for S in subsets)


def pure_magnet(atlas: EquivariantAtlas, N, cap: int = 20) -> Submonoid:
    """The minimal magnet with the same attractor as N.

    Every magnet's attractor equals that of its trace on the degree support,
    and equal-fingerprint closed subsets are stable under intersection, so
    the minimum is generated by the intersection of all matching ones.

    On an atlas with no monoid-algebra chart that intersection is E ∩ N,
    read off N's fingerprint without the table of closed subsets, so cap
    does not apply there: E ∩ N is closed, as [E ∩ N> lies in N, and it is
    the only closed set with N's fingerprint, the chart degrees outside it.
    """
    fp = fingerprint(atlas, N)
    if any(isinstance(chart, MonoidAlgebra) for _, chart in atlas.charts):
        matching = [S for S, sfp in _closed_subset_table(atlas, cap) if sfp == fp]
        crosscheck(matching, "no closed subset matches the magnet fingerprint")
        core = frozenset.intersection(*matching)
    else:
        core = frozenset(degree_support(atlas)).difference(*fp)
    result = _generated(atlas, core)
    crosscheck(fingerprint(atlas, result) == fp, "pure-magnet candidate changed the attractor")
    return result


@dataclass(frozen=True)
class MagnetPoset:
    """Pure magnets of an action, ordered by inclusion."""

    elements: tuple[tuple[Submonoid, tuple[frozenset, ...]], ...]
    subsets: tuple[frozenset, ...]

    def __len__(self):
        return len(self.elements)

    def magnets(self) -> tuple[Submonoid, ...]:
        return tuple(m for m, _ in self.elements)

    def leq(self, i: int, j: int) -> bool:
        return self.subsets[i] <= self.subsets[j]

    def covers(self) -> tuple[tuple[int, int], ...]:
        # (i, j) with i strictly below j and nothing in between
        out = []
        n = len(self.elements)
        for i in range(n):
            for j in range(n):
                if i == j or not self.leq(i, j):
                    continue
                if any(
                    k not in (i, j) and self.leq(i, k) and self.leq(k, j)
                    for k in range(n)
                ):
                    continue
                out.append((i, j))
        return tuple(out)

    def to_dot(self) -> str:
        lines = ["digraph magnets {", "  rankdir=BT;"]
        for i, (m, _) in enumerate(self.elements):
            lines.append('  n%d [label="%s"];' % (i, m.describe()))
        for i, j in self.covers():
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "magnets": [
                {
                    "generators": [list(g.coords) for g in m.generators],
                    "support_trace": sorted(list(s.coords) for s in S),
                }
                for (m, _), S in zip(self.elements, self.subsets)
            ],
            "leq": [
                [self.leq(i, j) for j in range(len(self.elements))]
                for i in range(len(self.elements))
            ],
        }


def enumerate_magnets(atlas: EquivariantAtlas, cap: int = 20) -> MagnetPoset:
    """All pure magnets, one per attractor, as a finite inclusion poset."""
    classes: dict[tuple, list[frozenset]] = {}
    for S, fp in _closed_subset_table(atlas, cap):
        classes.setdefault(fp, []).append(S)
    rows = []
    for fp, members in classes.items():
        # an intersection of closed sets is closed
        core = frozenset.intersection(*members)
        crosscheck(_closed_fingerprint(atlas, core) == fp,
                   "class intersection changed the attractor")
        rows.append((core, _generated(atlas, core), fp))
    rows.sort(key=lambda r: (len(r[0]), sorted(g.coords for g in r[0])))
    return MagnetPoset(
        tuple((rep, fp) for _, rep, fp in rows),
        tuple(core for core, _, _ in rows),
    )
