"""Attractors as vector bundles over their fixed loci, plus dilatations.

For a free graded presentation the attractor under N splits: variables with
degree in the unit group N* present the fixed locus, the rest span the fiber
directions.  A positive grading of the sharpened magnet certifies the
splitting, and the symmetric algebra on the fiber directions is compared
against the attractor algebra degree by degree (as free modules over the
base), which is the graded-dimension shadow of the bundle isomorphism.

Dilatations are kept to coordinate centers over a degree-0 divisor t: each
centered variable x is replaced by x/t of the same weight, so the presentation
stays free and commutation with attractors is decidable by comparing the two
resulting presentations literally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ResourceLimitError, StructuralError, crosscheck
from .graded import FreePoly, attractor
from .monoids import GradingMorphism, Submonoid, positive_grading, sharp_quotient, units

# The Hilbert check keeps one count per degree up to its bound, and its
# recount walks one monomial of degree <= bound at a time; either past this
# many is refused.  Five degree-1 fibers pass it at bound 39, where the
# recount alone would take about 0.2 s.
HILBERT_CHECK_CAP = 10 ** 6


@dataclass(frozen=True)
class BBResult:
    base: FreePoly
    fiber_rank: int
    certificate: GradingMorphism
    hilbert_check_bound: int
    fiber_degrees: tuple[int, ...]
    hilbert_counts: tuple[int, ...]
    pi0_bijective: bool


def _sym_counts(degrees, bound: int) -> tuple[int, ...]:
    # coefficientwise product of 1/(1 - q^h) over the fiber degrees
    ways = [0] * (bound + 1)
    ways[0] = 1
    for h in degrees:
        for d in range(h, bound + 1):
            ways[d] += ways[d - h]
    return tuple(ways)


def _monomial_counts(degrees, bound: int) -> tuple[int, ...]:
    counts = [0] * (bound + 1)

    def walk(i: int, total: int):
        if i == len(degrees):
            counts[total] += 1
            return
        step = degrees[i]
        while total <= bound:
            walk(i + 1, total)
            total += step

    walk(0, 0)
    return tuple(counts)


def bb_bundle(P: FreePoly, N: Submonoid, hilbert_check_bound: int = 8) -> BBResult:
    """Split the attractor of P under N into base and fiber directions.

    The attractor is taken internally, so P may be either the full
    presentation or an already-attracted one.  The base consists of the
    variables with degree in N*; this is established twice, once through the
    positive-grading certificate of the sharpened magnet and once by direct
    unit membership, and the two must agree.  Fiber monomial counts are
    verified in every certificate degree up to the bound; a bound whose
    counts or monomials pass HILBERT_CHECK_CAP raises ResourceLimitError.
    """
    if not isinstance(P, FreePoly):
        raise StructuralError("bundle verification needs a free presentation")
    if hilbert_check_bound < 0:
        raise PreconditionError("negative check bound")
    PN = attractor(P, N).quotient
    sq = sharp_quotient(N)
    certificate = positive_grading(sq.monoid)

    base_vars = []
    fiber_hdegs = []
    for name, deg in PN.vars:
        h = certificate.degree(sq.apply(deg))
        crosscheck(h >= 0, "negative certificate degree on %r", name)
        if h == 0:
            base_vars.append((name, deg))
        else:
            fiber_hdegs.append(h)
    Nstar = units(N)
    by_units = [v for v in PN.vars if Nstar.contains(v[1])]
    crosscheck(by_units == base_vars, "certificate base disagrees with unit membership")

    base = FreePoly(PN.grading_group, tuple(base_vars), PN.coeff)
    fiber_degrees = tuple(sorted(fiber_hdegs))
    if hilbert_check_bound + 1 > HILBERT_CHECK_CAP:
        raise ResourceLimitError(
            "hilbert check keeps %d degree counts, cap is %d"
            % (hilbert_check_bound + 1, HILBERT_CHECK_CAP))
    counts = _sym_counts(fiber_degrees, hilbert_check_bound)
    monomials = sum(counts)  # the leaves _monomial_counts walks
    if monomials > HILBERT_CHECK_CAP:
        raise ResourceLimitError(
            "hilbert recount walks %d monomials, cap is %d" % (monomials, HILBERT_CHECK_CAP))
    recount = _monomial_counts(fiber_degrees, hilbert_check_bound)
    crosscheck(counts == recount, "graded dimension counts disagree")
    pi0 = counts[0] == 1 and all(h >= 1 for h in fiber_degrees)
    return BBResult(
        base,
        len(fiber_degrees),
        certificate,
        hilbert_check_bound,
        fiber_degrees,
        counts,
        pi0,
    )


@dataclass(frozen=True)
class DilatationSetup:
    """A free presentation over R[t] (t of weight 0) with a coordinate center.

    The center is the closed subspace cut out by t and the named variables;
    coordinates are weight vectors, so the center is automatically stable.
    """

    ambient: FreePoly
    center: tuple[str, ...]

    def __post_init__(self):
        names = self.ambient.names()
        if len(set(self.center)) != len(self.center):
            raise StructuralError("repeated center variables")
        for c in self.center:
            if c not in names:
                raise StructuralError("center variable %r is not a coordinate" % (c,))
        object.__setattr__(self, "center", tuple(sorted(self.center)))


def _divided_name(name: str) -> str:
    return name + "/t"


@dataclass(frozen=True)
class DilatedPresentation:
    """Free presentation of the dilatation; divided names record x = t*(x/t)."""

    ring: FreePoly
    divided: tuple[str, ...]


def dilatation(setup: DilatationSetup) -> DilatedPresentation:
    """Divide the centered variables by t.  Weights are unchanged (t has 0)."""
    out = []
    for name, deg in setup.ambient.vars:
        if name in setup.center:
            out.append((_divided_name(name), deg))
        else:
            out.append((name, deg))
    ring = FreePoly(setup.ambient.grading_group, tuple(out), setup.ambient.coeff)
    return DilatedPresentation(ring, setup.center)


@dataclass(frozen=True)
class CommutationReport:
    dilate_then_attract: DilatedPresentation
    attract_then_dilate: DilatedPresentation
    equal: bool
    diff: tuple[str, ...]


def dilatation_attractor_check(setup: DilatationSetup, N) -> CommutationReport:
    """Compare dilatation followed by attractor with attractor followed by
    dilatation along the surviving part of the center.

    Both paths land in a free presentation over R[t]; the report carries a
    literal diff, which stays empty (a mismatch would be a bug, not data).
    """
    first = dilatation(setup)
    one = attractor(first.ring, N).quotient
    survivors = {n for n, _ in one.vars}
    left = DilatedPresentation(
        one, tuple(c for c in first.divided if _divided_name(c) in survivors)
    )

    PN = attractor(setup.ambient, N).quotient
    kept = {n for n, _ in PN.vars}
    right = dilatation(
        DilatationSetup(PN, tuple(c for c in setup.center if c in kept))
    )

    diff = []
    if left.ring != right.ring:
        diff.append(
            "variables %r vs %r" % (left.ring.describe(), right.ring.describe())
        )
    if left.divided != right.divided:
        diff.append("divided %r vs %r" % (left.divided, right.divided))
    return CommutationReport(left, right, not diff, tuple(diff))
