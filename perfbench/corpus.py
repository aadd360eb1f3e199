"""Seeded item corpora for the three benchmark workloads.

A workload is a sequence of rounds; one round is the workload's fixed corpus.
Every item of a round is a zero-argument call into magnetkit plus a check of
its answer.  Where an answer has ground truth that integer and rational
arithmetic can give (membership certificates, closed-set and face counts,
gradings, Hilbert counts, supports, root-datum dimensions, primitives), the
check computes it here.  Elsewhere it asks the library for consistency:
every enumerated magnet is its own pure magnet, the CLI agrees with the
library, and the dual-route checks do not raise.

The content of round r comes from the base stream
``random.Random("base/<workload>/<r>/...")``; the seed only moves it by an
injective lattice map (``LatticeMap``) that keeps every answer and the cost
of computing it.  So every seed asks distinct questions of the same
difficulty, and a later round never repeats an earlier round's questions.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import magnetkit.atlases as atlases
import magnetkit.bundles as bundles
import magnetkit.cohomology as cohomology
import magnetkit.graded as graded
import magnetkit.monoids as monoids
import magnetkit.roots as roots
from magnetkit.cli import load_problem
from magnetkit.groups import FgAbelianGroup

class Item:
    """One timed call.

    ``run`` takes no arguments and returns the answer.  ``check`` returns
    True when the answer is right.  Items of one ``ladder`` stop after the
    first of them hits a resource cap; later ones are not attempted.
    """

    __slots__ = ("kind", "run", "check", "ladder")

    def __init__(self, kind, run, check, ladder=None):
        self.kind = kind
        self.run = run
        self.check = check
        self.ladder = ladder


class CliCall:
    """Arguments for ``magnetkit.cli.main``; the runner invokes it in-process."""

    __slots__ = ("args",)

    def __init__(self, args):
        self.args = list(args)


# --- integer helpers (ground truth, independent of the library) -------------


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def combine(coeffs, gens):
    width = len(gens[0])
    return tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(width))


def reduce_torsion(v, free_rank, orders):
    return tuple(v[:free_rank]) + tuple(
        c % n for c, n in zip(v[free_rank:], orders)
    )


def rational_rank(vectors):
    rows = []
    for vec in vectors:
        v = [Fraction(c) for c in vec]
        for row in rows:
            piv = next(i for i, c in enumerate(row) if c != 0)
            if v[piv] != 0:
                f = v[piv] / row[piv]
                v = [a - f * b for a, b in zip(v, row)]
        if any(v):
            rows.append(v)
    return len(rows)


def expand(basis, target):
    """Rational coefficients of target in a linearly independent basis, or None."""
    n = len(basis)
    m = len(target)
    rows = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(target[i])]
            for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    if any(rows[i][n] != 0 for i in range(r, m)):
        return None
    out = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        out[c] = rows[i][n]
    return out


class LatticeMap:
    """An injective group map: signed permutation of the free coordinates,
    and every coordinate times a positive scale.

    The scale also multiplies the torsion orders (Z/n goes into Z/(scale n)),
    so a scaled question has every solver row scaled alike.  Covectors move
    with ``covector`` so that covector(w) . map(x) == scale * (w . x).
    """

    def __init__(self, perm, signs, scale=1):
        self.free_rank = len(perm)
        self.perm = list(perm)
        self.signs = list(signs)
        self.scale = scale

    @classmethod
    def scaling(cls, rng, free_rank):
        """A scale from 300 to 999: every moved coordinate but 0 leaves the
        range of Python's cached small integers, so all scales cost alike."""
        return cls(range(free_rank), [1] * free_rank, rng.randint(300, 999))

    @classmethod
    def distinct(cls, rng, free_rank, k):
        """k different signed permutations, in a seeded order."""
        perms = list(itertools.permutations(range(free_rank)))
        signs = list(itertools.product((1, -1), repeat=free_rank))
        maps = [cls(p, s) for p in perms for s in signs]
        rng.shuffle(maps)
        return maps[:k]

    def group(self, orders=()):
        return FgAbelianGroup(self.free_rank, tuple(self.scale * n for n in orders))

    def __call__(self, v, orders=()):
        f = self.free_rank
        out = [0] * f
        for i in range(f):
            out[self.perm[i]] = self.signs[i] * self.scale * v[i]
        return tuple(out) + tuple(self.scale * (c % n) for c, n in zip(v[f:], orders))

    def covector(self, w):
        f = self.free_rank
        out = [0] * f
        for i in range(f):
            out[self.perm[i]] = self.signs[i] * w[i]
        return tuple(out) + tuple(w[f:])


def _rng(seed, workload, rnd, *tags):
    """The seed's stream: it only picks lattice maps."""
    return random.Random("/".join([str(seed), workload, str(rnd)] + [str(t) for t in tags]))


def _base_rng(workload, rnd, *tags):
    """The round's content, the same for every seed."""
    return random.Random("/".join(["base", workload, str(rnd)] + [str(t) for t in tags]))


class ProblemFiles:
    """Writes CLI problem files into one directory and validates each."""

    def __init__(self, directory):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, doc) -> str:
        self.count += 1
        path = self.dir / ("p%05d.json" % self.count)
        path.write_text(json.dumps(doc, sort_keys=True))
        load_problem(str(path))
        return str(path)


def _group_doc(G):
    doc = {"free_rank": G.free_rank}
    if G.torsion_orders:
        doc["torsion"] = list(G.torsion_orders)
    return doc


# --- membership ---------------------------------------------------------------

# name: (free rank, torsion orders, generators, lattice certificates
# (a, d): a . g == 0 mod d on every generator, cone certificates w: w . g >= 0
# on the free parts of every generator)
MEMBERSHIP_FAMILIES = {
    "Z2": (2, (), [(2, 0), (1, 1), (0, 2), (1, -1)], [((1, 1), 2)], [(1, 0), (1, 1)]),
    "Z3": (3, (), [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, -1, 1), (0, 0, 1)], [],
           [(0, 0, 1), (1, 0, 0), (1, 2, 0)]),
    "Z4": (4, (), [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (2, -1, 1, 0)],
           [((1, 1, 1, 1), 2)], [(1, 0, 0, 0), (0, 0, 1, 0)]),
    "Zt": (2, (6,), [(1, 0, 1), (0, 1, 2), (1, 1, 3), (2, -1, 0)], [((1, 0, 1), 2)],
           [(1, 0), (1, 1)]),
}

LADDER_SIZES = (2, 8, 32, 128, 512)


class MembershipQuestion:
    """A membership question with its certificate.

    ``witness`` holds nonnegative coefficients for a member; ``lattice`` an
    (a, d) pair or ``cone`` a covector w for a non-member.
    """

    def __init__(self, free_rank, orders, gens, target, witness=None,
                 lattice=None, cone=None):
        self.free_rank = free_rank
        self.orders = orders
        self.gens = gens
        self.target = reduce_torsion(target, free_rank, orders)
        self.witness = witness
        self.lattice = lattice
        self.cone = cone
        if not self.certified():
            raise ValueError("question built without a valid certificate")

    @property
    def member(self):
        return self.witness is not None

    def certified(self) -> bool:
        f, orders = self.free_rank, self.orders
        if self.witness is not None:
            if any(c < 0 for c in self.witness):
                return False
            got = reduce_torsion(combine(self.witness, self.gens), f, orders)
            return got == self.target
        if self.lattice is not None:
            a, d = self.lattice
            if any(a[f + j] * n % d for j, n in enumerate(orders)):
                return False
            return all(dot(a, g) % d == 0 for g in self.gens) and dot(a, self.target) % d != 0
        w = self.cone
        return all(dot(w, g[:f]) >= 0 for g in self.gens) and dot(w, self.target[:f]) < 0


def _moved_family(name, lmap):
    f, orders, gens, lattices, cones = MEMBERSHIP_FAMILIES[name]
    moved = [lmap(g, orders) for g in gens]
    lat = [(lmap.covector(a), d * lmap.scale) for a, d in lattices]
    orders = lmap.group(orders).torsion_orders
    return f, orders, moved, lat, [lmap.covector(w)[:f] for w in cones]


def _questions_at(rng, name, lmap, size):
    """Members and certified non-members of coordinate size about ``size``."""
    f, orders, gens, lattices, cones = _moved_family(name, lmap)
    k = len(gens)
    multiple = [0] * k
    multiple[rng.randrange(k)] = size
    spread = [0] * k
    for _ in range(size):
        spread[rng.randrange(k)] += 1
    out = [
        MembershipQuestion(f, orders, gens, combine(multiple, gens), witness=multiple),
        MembershipQuestion(f, orders, gens, combine(spread, gens), witness=spread),
    ]
    base = combine(spread, gens)
    for a, d in lattices:
        # shift by a unit vector that the certificate sees
        j = next(j for j in range(len(a)) if a[j] % d)
        t = list(base)
        t[j] += lmap.scale
        if dot(a, t) % d:
            out.append(MembershipQuestion(f, orders, gens, t, lattice=(a, d)))
    w = cones[rng.randrange(len(cones))]
    j = next(j for j in range(f) if w[j] != 0)
    step = 1 if w[j] > 0 else -1
    lam = dot(w, base[:f]) // (abs(w[j]) * lmap.scale) + 1
    t = list(base)
    t[j] -= step * lam * lmap.scale
    out.append(MembershipQuestion(f, orders, gens, t, cone=w))
    return out


def _contains_item(q, G, kind="contains", ladder=None):
    N = monoids.Submonoid.generated_by(G, q.gens)
    m = G.element(q.target)
    return Item(kind, lambda: monoids.contains(N, m), lambda ans: ans is q.member, ladder)


def _cli_membership_item(q, G, files):
    path = files.write({"group": _group_doc(G), "monoid": {"generators": [list(g) for g in q.gens]}})
    call = CliCall(["membership", "--input", path, "--element", json.dumps(list(q.target)), "--json"])
    return Item("cli.membership", call, lambda out: out["member"] is q.member)


def _sharp_chain(rank, k):
    gens = []
    for i in range(rank - 1):
        v = [0] * rank
        v[i] = 1
        v[i + 1] = -k
        gens.append(tuple(v))
    v = [0] * rank
    v[rank - 1] = 1
    gens.append(tuple(v))
    # w_r = 1, w_i = k w_{i+1} + 1 is positive on every generator
    w = [0] * rank
    w[rank - 1] = 1
    for i in range(rank - 2, -1, -1):
        w[i] = k * w[i + 1] + 1
    return gens, tuple(w)


def _grading_check(gens):
    def check(h):
        return all(dot(h.covector, g) >= 1 for g in gens)
    return check


def _bb_item(G, gens, w, rng_names):
    """bb_bundle on a chart with variables at members, zero and non-members."""
    N = monoids.Submonoid.generated_by(G, gens)
    zero = (0,) * G.free_rank
    degrees = [("z", zero)]
    degrees += [("x%d" % i, g) for i, g in enumerate(gens)]
    degrees.append(("s", combine([1] * len(gens), gens)))
    degrees += [("n%d" % i, tuple(-c for c in g)) for i, g in enumerate(gens[:2])]
    rng_names.shuffle(degrees)
    P = graded.FreePoly.of(G, degrees)
    fiber = [d for _, d in degrees if dot(w, d) > 0]
    base_names = sorted(n for n, d in degrees if d == zero)

    def check(res):
        if sorted(res.base.names()) != base_names or res.fiber_rank != len(fiber):
            return False
        hdeg = sorted(dot(res.certificate.covector, d) for d in fiber)
        if list(res.fiber_degrees) != hdeg or min(hdeg) < 1:
            return False
        counts = [0] * (res.hilbert_check_bound + 1)
        counts[0] = 1
        for h in hdeg:
            for d in range(h, len(counts)):
                counts[d] += counts[d - h]
        return list(res.hilbert_counts) == counts

    return Item("bb_bundle", lambda: bundles.bb_bundle(P, N), check)


def _units_items(rng, lmap):
    """units and sharp_quotient on Z^3 monoids with a known unit group."""
    G = FgAbelianGroup(3)
    # units along u1 (and u2), a pointed part positive under w
    u1 = (1, rng.randint(-2, 2), 0)
    u2 = (0, 1, rng.randint(-2, 2))
    unit_gens = [u1] if rng.random() < 0.5 else [u1, u2]
    if len(unit_gens) == 1:
        w = (0, 0, 1)
        pointed = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(2)]
    else:
        # the cross product is orthogonal to u1 and u2
        w = (u1[1] * u2[2] - u1[2] * u2[1], u1[2] * u2[0] - u1[0] * u2[2],
             u1[0] * u2[1] - u1[1] * u2[0])
        pointed = []
        while len(pointed) < 2:
            p = tuple(rng.randint(-2, 2) for _ in range(3))
            if dot(w, p) >= 1:
                pointed.append(p)
            elif dot(w, p) <= -1:
                pointed.append(tuple(-c for c in p))
    unit_gens = [lmap(u) for u in unit_gens]
    pointed = [lmap(p) for p in pointed]
    gens = unit_gens + [tuple(-c for c in u) for u in unit_gens] + pointed
    N = monoids.Submonoid.generated_by(G, gens)
    expected_units = sorted(set(unit_gens + [tuple(-c for c in u) for u in unit_gens]))
    rank_u = rational_rank(unit_gens)

    def check_units(U):
        return sorted(g.coords for g in U.generators) == expected_units

    def check_quotient(sq):
        if sq.group.free_rank != 3 - rank_u:
            return False
        if not all(sq.apply(G.element(u)).is_zero() for u in unit_gens):
            return False
        return all(not sq.apply(G.element(p)).is_zero() for p in pointed)

    return [
        Item("units", lambda: monoids.units(N), check_units),
        Item("sharp_quotient", lambda: monoids.sharp_quotient(N), check_quotient),
    ]


def membership_round(seed, rnd, files):
    items = []
    # ladders: coordinate size doubles until the solver's node cap is hit
    for name in MEMBERSHIP_FAMILIES:
        f, orders = MEMBERSHIP_FAMILIES[name][:2]
        lmap = LatticeMap.scaling(_rng(seed, "membership", rnd, "ladder-map", name), f)
        G = lmap.group(orders)
        base = _base_rng("membership", rnd, "ladder", name)
        for size in LADDER_SIZES:
            for q in _questions_at(base, name, lmap, size):
                items.append(_contains_item(q, G, "contains.ladder", ladder=name))
    # many small questions, a fixed share of them through the CLI
    rng = _rng(seed, "membership", rnd, "small")
    base = _base_rng("membership", rnd, "small")
    names = list(MEMBERSHIP_FAMILIES)
    for i in range(40):
        name = names[i % len(names)]
        f, orders = MEMBERSHIP_FAMILIES[name][:2]
        lmap = LatticeMap.scaling(rng, f)
        G = lmap.group(orders)
        for j, q in enumerate(_questions_at(base, name, lmap, base.randint(4, 12))):
            if (i + j) % 5 == 0:
                items.append(_cli_membership_item(q, G, files))
            else:
                items.append(_contains_item(q, G))
    # positive gradings and bundle splittings on e_i - k e_{i+1}, e_r
    names_rng = _base_rng("membership", rnd, "names")
    for rank in (2, 3, 4):
        for k in (1, 2):
            gens, w = _sharp_chain(rank, k)
            lmap = LatticeMap.scaling(_rng(seed, "membership", rnd, "chain", rank, k), rank)
            G = FgAbelianGroup(rank)
            moved = [lmap(g) for g in gens]
            moved_w = lmap.covector(w)
            if (rank, k) != (4, 2):
                N = monoids.Submonoid.generated_by(G, moved)
                items.append(Item("positive_grading",
                                  (lambda N=N: monoids.positive_grading(N)),
                                  _grading_check(moved)))
            items.append(_bb_item(G, moved, moved_w, names_rng))
    for rank, k in ((2, 1), (3, 2)):
        gens, _ = _sharp_chain(rank, k)
        lmap = LatticeMap.scaling(_rng(seed, "membership", rnd, "cli-bb", rank, k), rank)
        G = FgAbelianGroup(rank)
        moved = [lmap(g) for g in gens]
        path = files.write({
            "group": _group_doc(G),
            "chart": {"vars": [{"name": "x%d" % i, "degree": list(g)} for i, g in enumerate(moved)]},
            "monoid": {"generators": [list(g) for g in moved]},
        })
        items.append(Item("cli.bb", CliCall(["bb", "--input", path, "--json"]),
                          lambda out, n=len(moved): out["fiber_rank"] == n and out["base"] == []))
    unit_rng = _base_rng("membership", rnd, "units")
    maps = _rng(seed, "membership", rnd, "units")
    for _ in range(12):
        items.extend(_units_items(unit_rng, LatticeMap.distinct(maps, 3, 1)[0]))
    return items


# --- closure --------------------------------------------------------------------

ROOT_BASES = {
    # type: (lattice rank, positive roots, simple roots, closed subset count)
    "A2": (3, None, None, 29),
    "B2": (2, [(1, -1), (0, 1), (1, 0), (1, 1)], [(1, -1), (0, 1)], 55),
    "A3": (4, None, None, 355),
    "G2": (2, [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)], [(1, 0), (0, 1)], 168),
}


def _root_base(name):
    rank, positives, basis, count = ROOT_BASES[name]
    if positives is None:
        n = rank

        def e(i):
            return tuple(1 if j == i else 0 for j in range(n))

        def sub(a, b):
            return tuple(x - y for x, y in zip(a, b))

        positives = [sub(e(i), e(j)) for i in range(n) for j in range(n) if i < j]
        basis = [sub(e(i), e(i + 1)) for i in range(n - 1)]
    return rank, positives, basis, count


def moved_datum(name, lmap):
    """The root datum of ``name`` with its lattice moved by ``lmap``."""
    rank, positives, basis, count = _root_base(name)
    pos = [lmap(p) for p in positives]
    roots_ = pos + [tuple(-c for c in p) for p in pos]
    G = FgAbelianGroup(rank)
    mk = lambda cs: tuple(G.element(c) for c in cs)
    rs = roots.RootSystem(rank, mk(roots_), mk([lmap(b) for b in basis]), mk(pos))
    return roots.ReductiveDatum(rs, rank), count


# fixed face shapes: (free rank, torsion, generators, number of faces)
FACE_SHAPES = [
    (3, (), [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1)], 10),
    (3, (), [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 1), (1, 1, 2)], 10),
    (3, (), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 1, 0)], 8),
    (2, (3,), [(1, 0, 0), (0, 1, 0), (1, 1, 2), (0, 0, 1), (2, 1, 0)], 4),
    (2, (), [(1, 0), (-1, 0), (0, 1), (1, 1), (2, 1)], 2),
    (3, (), [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 4),
    (2, (4,), [(1, 0, 1), (0, 1, 0), (1, 2, 0), (2, 1, 3), (1, 1, 2), (0, 0, 2)], 4),
]


def _support_base(rnd, n, key):
    """n distinct degrees in the box [-3, 3]^2, fixed by the round and key."""
    rng = _base_rng("closure", rnd, key)
    degs = set()
    while len(degs) < n:
        degs.add((rng.randint(-3, 3), rng.randint(-3, 3)))
    return sorted(degs)


def _magnet_items(kind, atlas, expected_count, shared, key, rng, extra_magnets):
    """enumerate_magnets, then pure_magnet of further magnets on the same atlas."""

    def run_enumerate():
        poset = atlases.enumerate_magnets(atlas)
        shared[key] = poset
        return poset

    def check_enumerate(poset):
        mags = poset.magnets()
        if expected_count is not None and len(mags) != expected_count:
            return False
        prints = [atlases.fingerprint(atlas, m) for m in mags]
        if len(set(prints)) != len(prints):
            return False
        return all(atlases.pure_magnet(atlas, m) == m for m in mags)

    out = [Item(kind, run_enumerate, check_enumerate)]
    G = atlas.grading_group
    E = atlases.degree_support(atlas)
    for _ in range(extra_magnets):
        picks = rng.sample(E, rng.randint(1, min(3, len(E))))
        N = monoids.Submonoid(G, tuple(picks))

        def check_pure(result):
            if key not in shared:
                shared[key] = atlases.enumerate_magnets(atlas)
            return result in set(shared[key].magnets())

        out.append(Item("pure_magnet", (lambda N=N: atlases.pure_magnet(atlas, N)), check_pure))
    return out


def closure_round(seed, rnd, files):
    items = []
    shared = {}
    # closed root subsets; counts are classical
    for name in ("A2", "B2", "A3", "G2"):
        rank = ROOT_BASES[name][0]
        datum, count = moved_datum(name, LatticeMap.scaling(_rng(seed, "closure", rnd, "roots", name), rank))
        items.append(Item("closed_subsets", (lambda d=datum: roots.closed_subsets(d)),
                          (lambda subs, c=count: len(subs) == c and len(set(subs)) == c)))
    # pure magnets of adjoint modules: one per closed root subset
    pick_rng = _base_rng("closure", rnd, "picks")
    for name in ("A2", "B2", "A3"):
        rank = ROOT_BASES[name][0]
        datum, count = moved_datum(name, LatticeMap.scaling(_rng(seed, "closure", rnd, "adjoint", name), rank))
        adj = roots.adjoint_module(datum)
        atlas = atlases.EquivariantAtlas(adj.grading_group, (("adjoint", adj),))
        items += _magnet_items("enumerate_magnets.adjoint", atlas, count, shared,
                               "adj" + name, pick_rng, 0)
    # Z^2 degree supports of 5 to 11 degrees, on free and weight-module charts
    Z2 = FgAbelianGroup(2)
    for i, n in enumerate((5, 5, 6, 6, 7, 7, 8, 9, 10, 11)):
        key = "support%d-%d" % (n, i)
        lmap = LatticeMap.scaling(_rng(seed, "closure", rnd, key), 2)
        degs = [lmap(d) for d in _support_base(rnd, n, key)]
        if n % 2:
            chart = graded.WeightModule.of(Z2, [(d, 1, "w%d" % i) for i, d in enumerate(degs)])
        else:
            half = len(degs) // 2
            chart = graded.FreePoly.of(Z2, [("x%d" % i, d) for i, d in enumerate(degs[:half])])
            chart2 = graded.FreePoly.of(Z2, [("y%d" % i, d) for i, d in enumerate(degs[half:])])
        charts = (("U", chart),) if n % 2 else (("U", chart), ("V", chart2))
        atlas = atlases.EquivariantAtlas(Z2, charts)
        items += _magnet_items("enumerate_magnets.support", atlas, None, shared,
                               key, pick_rng, 3 if n < 8 else 0)
    # faces of fixed shapes
    # The last shape costs about ten times the others: once per round.  The
    # two cheapest shapes come six times more, which puts the median latency
    # inside the dense 15-30 ms band of faces and small magnet posets.
    shapes = FACE_SHAPES[:-1] * 3 + FACE_SHAPES[4:6] * 6 + FACE_SHAPES[-1:]
    for i, (f, orders, gens, count) in enumerate(shapes):
        lmap = LatticeMap.scaling(_rng(seed, "closure", rnd, "faces", i), f)
        N = monoids.Submonoid.generated_by(lmap.group(orders), [lmap(g, orders) for g in gens])
        items.append(Item("faces", (lambda N=N: monoids.faces(N)),
                          (lambda F, c=count: len(F) == c)))
    # the same questions through the CLI
    for name in ("A2", "B2"):
        count = ROOT_BASES[name][3]
        items.append(Item("cli.roots.closed_subsets",
                          CliCall(["roots", "--type", name, "--closed-subsets", "--json"]),
                          (lambda out, c=count: out["count"] == c)))
        rank = ROOT_BASES[name][0]
        datum, _ = moved_datum(name, LatticeMap.scaling(_rng(seed, "closure", rnd, "cli-magnets", name), rank))
        G = datum.rootsystem.ambient
        weights = [{"degree": [0] * rank, "mult": rank, "label": "t"}]
        weights += [{"degree": list(r.coords)} for r in datum.rootsystem.roots]
        path = files.write({"group": _group_doc(G), "weights": weights})
        items.append(Item("cli.magnets", CliCall(["magnets", "--input", path, "--json"]),
                          (lambda out, c=count: out["count"] == c)))
    for i, (f, orders, gens, count) in enumerate(FACE_SHAPES):
        lmap = LatticeMap.scaling(_rng(seed, "closure", rnd, "cli-faces", i), f)
        path = files.write({"group": _group_doc(lmap.group(orders)),
                            "monoid": {"generators": [list(lmap(g, orders)) for g in gens]}})
        items.append(Item("cli.faces", CliCall(["faces", "--input", path, "--json"]),
                          (lambda out, c=count: out["count"] == c)))
    for n in (6, 7):
        lmap = LatticeMap.scaling(_rng(seed, "closure", rnd, "cli-support", n), 2)
        degs = [lmap(d) for d in _support_base(rnd, n, "support%d-cli" % n)]
        path = files.write({"group": {"free_rank": 2},
                            "chart": {"vars": [{"name": "x%d" % i, "degree": list(d)}
                                               for i, d in enumerate(degs)]}})
        atlas = atlases.EquivariantAtlas(Z2, (("chart1", graded.FreePoly.of(
            Z2, [("x%d" % i, d) for i, d in enumerate(degs)])),))
        key = "cli-support%d" % n

        def check_cli(out, atlas=atlas, key=key):
            poset = shared.get(key)
            if poset is None:
                poset = shared[key] = atlases.enumerate_magnets(atlas)
            return out["count"] == len(poset)

        items.append(Item("cli.magnets", CliCall(["magnets", "--input", path, "--json"]), check_cli))
    return items


# --- attractors -------------------------------------------------------------------

CRITERION_02 = [(1, 1), (1, -1), (1, 0)]

# sharp Z^2 algebras and magnets whose support reports take 10 to 500 ms at
# probe bounds 8 and 10: enough of them that the tail percentile falls among
# them and not at the edge of the cheap items
SUPPORT_BASES = [
    ([(1, 0), (1, 1), (1, 2)], [(1, 0)]),
    ([(1, 2), (2, -1), (1, 0)], [(1, 0)]),
    ([(1, 1), (1, -2), (3, 1)], [(1, 0)]),
    ([(2, 1), (1, -1)], [(1, 0)]),
    ([(1, 0), (1, 1), (1, 2)], [(1, 1)]),
    ([(1, 2), (2, -1), (1, 0)], [(0, 1), (1, -1)]),
    ([(1, 1), (1, -1)], [(1, 0)]),
    ([(1, 2), (1, -1)], [(0, 1)]),
    ([(1, 0), (1, 1)], [(0, 1)]),
    ([(2, 1), (1, -1), (1, 0)], [(1, 1)]),
]
SUPPORT_BOUNDS = (8, 10)


def _small_free(rng, G, lmap, max_vars=4):
    return graded.FreePoly.of(G, [
        ("v%d" % i, lmap([rng.randint(-3, 3) for _ in range(G.free_rank)]))
        for i in range(rng.randint(1, max_vars))
    ])


def _small_monoid(rng, G, lmap, max_gens=3):
    return monoids.Submonoid.generated_by(G, [
        lmap([rng.randint(-3, 3) for _ in range(G.free_rank)])
        for _ in range(rng.randint(0, max_gens))
    ])


def _small_sharp_algebra(rng, G, lmap):
    gens = [lmap([rng.randint(1, 3)] + [rng.randint(-2, 2) for _ in range(G.free_rank - 1)])
            for _ in range(rng.randint(1, 3))]
    return graded.MonoidAlgebra(monoids.Submonoid.generated_by(G, gens))


def _small_group(rng, maps):
    """Z or Z^2 from the base stream, with a signed permutation from the seed."""
    G = FgAbelianGroup(rng.randint(1, 2))
    return G, LatticeMap.distinct(maps, G.free_rank, 1)[0]


def _no_raise(_answer):
    return True


def _span_roots(datum, zeta):
    """Roots in the span of the simple roots zeta, by expansion in the basis."""
    rs = datum.rootsystem
    basis = [b.coords for b in rs.basis]
    idx = {b: i for i, b in enumerate(rs.basis)}
    allowed = {idx[a] for a in zeta}
    out = set()
    for r in rs.roots:
        coeffs = expand(basis, r.coords)
        if all(c == 0 or i in allowed for i, c in enumerate(coeffs)):
            out.add(r)
    return out


def _root_items(rng):
    items = []
    name = rng.choice(("A2", "A3", "B2", "G2"))
    datum = roots.build(name)
    rs = datum.rootsystem
    torus = datum.torus_rank
    basis = list(rs.basis)
    zeta = tuple(sorted(rng.sample(basis, rng.randint(0, len(basis))), key=basis.index))
    xi = tuple(a for a in zeta if rng.random() < 0.5)
    levi_roots = _span_roots(datum, zeta)
    pos = set(rs.positives)
    items.append(Item("levi", lambda: roots.levi(datum, zeta),
                      lambda rep: rep.roots == levi_roots and rep.dim == torus + len(levi_roots)))
    par_roots = pos | levi_roots
    items.append(Item("parabolic", lambda: roots.parabolic(datum, zeta),
                      lambda rep: rep.roots == par_roots and rep.dim == torus + len(par_roots)))
    xi_roots = pos | _span_roots(datum, xi)
    inner = {r for r in levi_roots if r in xi_roots}
    dims = (torus + len(par_roots), torus + len(xi_roots), torus + len(levi_roots), torus + len(inner))
    items.append(Item("cartesian_square", lambda: roots.cartesian_square(datum, xi, zeta),
                      lambda rep: rep.passed and tuple(rep.dims) == dims))
    names = ["a%d" % (basis.index(a) + 1) for a in basis]
    spec = lambda sub: ",".join(names[basis.index(a)] for a in sub) or "none"
    items.append(Item("cli.roots.square",
                      CliCall(["roots", "--type", name, "--xi", spec(xi), "--zeta", spec(zeta), "--json"]),
                      lambda out: out["passed"] is True and tuple(out["dims"]) == dims))
    return items


def _graded_module(rng, G, lmap):
    lines = []
    for i in range(rng.randint(2, 5)):
        lines.append(("e%d" % i, lmap([rng.randint(-2, 2) for _ in range(G.free_rank)])))
    lines.append(("z", [0] * G.free_rank))
    return cohomology.GradedFreeModule.of(G, lines)


def _coboundary_table(module, coeffs):
    """The 1-cochain d(v) of the constant v, by the defining formula."""
    G = module.grading_group
    zero = G.zero()
    by_degree = {}
    for (name, d), c in zip(module.lines, coeffs):
        by_degree.setdefault(d, {})[name] = c
    table = []
    for d, part in by_degree.items():
        if d == zero:
            continue
        table.append(((d,), part))
    zero_part = by_degree.get(zero, {})
    # d(v)(0) = mu_0(v) - v: minus every component off degree 0
    rest = {}
    for (name, d), c in zip(module.lines, coeffs):
        if d != zero and c:
            rest[name] = -c
    table.append(((zero,), rest))
    return table, zero_part


def _cohomology_items(rng, maps, files):
    G, lmap = _small_group(rng, maps)
    module = _graded_module(rng, G, lmap)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in module.lines]
    table, zero_part = _coboundary_table(module, coeffs)
    xi = cohomology.Cochain.of(module, 1, [(key, module.element(v)) for key, v in table])
    # the primitive is v with its degree-0 component removed
    want = {n: c for (n, _), c in zip(module.lines, coeffs) if n not in zero_part and c}

    def check_primitive(p):
        got = {n: c for (n, _), c in zip(module.lines, p().coeffs) if c}
        return got == want

    trials = rng.randint(2, 6)
    suite_seed = rng.randint(0, 99)
    items = [
        Item("primitive", lambda: cohomology.primitive(xi), check_primitive),
        Item("h1_zero_suite", lambda: cohomology.h1_zero_suite(module, trials=trials, seed=suite_seed),
             lambda n: n == trials),
    ]
    doc = {
        "group": _group_doc(G),
        "weights": [{"degree": list(d.coords), "label": n} for n, d in module.lines],
        "cochain": {"arity": 1, "entries": [
            {"args": [list(k.coords) for k in key], "value": {n: str(c) for n, c in v.items()}}
            for key, v in table
        ]},
    }
    path = files.write(doc)
    items.append(Item("cli.cohomology", CliCall(["cohomology", "--input", path, "--json"]),
                      lambda out: out["cocycle"] is True
                      and out["primitive"] == {n: str(c) for n, c in want.items()}))
    return items


def _dilatation_items(rng, maps, files):
    G, lmap = _small_group(rng, maps)
    ambient = _small_free(rng, G, lmap, max_vars=5)
    center = tuple(n for n in ambient.names() if rng.random() < 0.5)
    N = _small_monoid(rng, G, lmap)
    setup = bundles.DilatationSetup(ambient, center)
    items = [Item("dilatation_check", lambda: bundles.dilatation_attractor_check(setup, N),
                  lambda rep: rep.equal and not rep.diff)]
    doc = {
        "group": _group_doc(G),
        "chart": {"vars": [{"name": n, "degree": list(d.coords)} for n, d in ambient.vars]},
        "monoid": {"generators": [list(g.coords) for g in N.generators]},
        "center": list(center),
    }
    path = files.write(doc)
    items.append(Item("cli.dilatation_check", CliCall(["dilatation-check", "--input", path, "--json"]),
                      lambda out: out["equal"] is True and out["diff"] == []))
    return items


def _identity_items(rng, maps):
    """intersect, iterate and include attractors on both chart kinds."""
    G, lmap = _small_group(rng, maps)
    P = _small_free(rng, G, lmap) if rng.random() < 0.5 else _small_sharp_algebra(rng, G, lmap)
    N, L = _small_monoid(rng, G, lmap), _small_monoid(rng, G, lmap)
    big = monoids.Submonoid(G, N.generators + L.generators)
    return [
        Item("intersect_attractors", lambda: graded.intersect_attractors(P, [N, L]), _no_raise),
        Item("iterated_attractor", lambda: graded.iterated_attractor(P, N, L), _no_raise),
        Item("inclusion_is_closed", lambda: graded.inclusion_is_closed(P, N, big), _no_raise),
    ]


def _support_check(members, finite=None, non_reduced=None):
    want = sorted(members)

    def check(rep):
        if sorted(m.coords for m in rep.members) != want:
            return False
        return (finite is None or rep.finite is finite) and (
            non_reduced is None or rep.non_reduced is non_reduced)

    return check


def attractors_round(seed, rnd, files):
    items = []
    Z2 = FgAbelianGroup(2)
    # Support reports use the base algebras as they are: the positive
    # covector they grade by is the first one found in a box search, so even
    # a signed permutation of the lattice changes their cost up to twofold.
    # Criterion 02: support {0, (1,0)}, finite, non-reduced.
    A = graded.MonoidAlgebra(monoids.Submonoid.generated_by(Z2, CRITERION_02))
    L = monoids.Submonoid.generated_by(Z2, [(1, 0)])
    for bound in (8, 10, 12, 14, 16):
        items.append(Item("support_report.criterion02",
                          (lambda b=bound: graded.support_report(
                              graded.attractor(A, L).quotient, probe_bound=b)),
                          _support_check([(0, 0), (1, 0)], True, True)))
    for gens, mag in SUPPORT_BASES:
        A2 = graded.MonoidAlgebra(monoids.Submonoid.generated_by(Z2, gens))
        L2 = monoids.Submonoid.generated_by(Z2, mag)
        for bound in SUPPORT_BOUNDS:
            items.append(Item("support_report",
                              (lambda A2=A2, L2=L2, b=bound: graded.support_report(
                                  graded.attractor(A2, L2).quotient, probe_bound=b)),
                              _no_raise))
    # the attractor command: a free chart and the algebra of [(2,1), (1,-1)>,
    # whose support under [(1,0)> is {0}, at the command's default probe bound
    free_degs = [(1, 0), (2, 0), (-1, 0), (0, 1), (0, 0)]
    path = files.write({
        "group": {"free_rank": 2},
        "charts": [
            {"name": "U", "vars": [{"name": "x%d" % i, "degree": list(d)}
                                   for i, d in enumerate(free_degs)]},
            {"name": "V", "monoid_algebra": {"generators": [[2, 1], [1, -1]]}},
        ],
        "monoid": {"generators": [[1, 0]]},
    })

    def check_attractor(out):
        free, alg = out["charts"]
        return (sorted(free["kills"]) == ["x2", "x3"]
                and alg["support"] == {"members": [[0, 0]], "finite": True, "non_reduced": False})

    items.append(Item("cli.attractor", CliCall(["attractor", "--input", path, "--json"]),
                      check_attractor))
    # cheap items: content from the base stream, moved by seeded signed
    # permutations, so that every seed draws the same mix of costs
    rng = _base_rng("attractors", rnd, "cheap")
    maps = _rng(seed, "attractors", rnd, "cheap")
    for i in range(40):
        items += _identity_items(rng, maps)
        if i % 2 == 0:
            items += _dilatation_items(rng, maps, files)
            items += _cohomology_items(rng, maps, files)
        if i % 4 == 0:
            items += _root_items(rng)
    return items


ROUNDS = {
    "membership": membership_round,
    "closure": closure_round,
    "attractors": attractors_round,
}
