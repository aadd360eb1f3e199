"""Cohomology of degree projections acting on a graded module.

A graded module carries one projection mu_k per degree k.  The projections
compose by mu_k mu_l = delta_{kl} mu_l, and evaluation at degree 0 plays the
role of the augmentation on the right.  Cochains with respect to these two
actions have any arity n >= 0, and one differential serves them all.  The
complex is contractible: h(c)(k_1..k_{n-1}) = (-1)^n c(k_1..k_{n-1}, 0)
gives dh + hd = id in every positive arity, so every n-cocycle xi is the
coboundary of h(xi); in arity 1 that primitive is -xi(0).  This is the
uniqueness mechanism for limit structures: the cohomology vanishes with a
formula, not just abstractly.

The differential is a sparse kernel.  Each entry of a cochain adds its
coefficients into the few keys of the coboundary it can reach, with the
degrees numbered by small ints while it sums, instead of evaluating the
formula at every tuple of relevant degrees; its cost grows with the number
of entries, not with a power of the degree support.

Coefficients are exact rationals throughout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotACocycleError, StructuralError, crosscheck
from .groups import FgAbelianGroup, GroupElement


@dataclass(frozen=True)
class GradedFreeModule:
    """Free module with finitely many basis lines, each in a single degree."""

    grading_group: FgAbelianGroup
    lines: tuple[tuple[str, GroupElement], ...]

    def __post_init__(self):
        names = [n for n, _ in self.lines]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate line names")
        for _, d in self.lines:
            if d.ambient != self.grading_group:
                raise StructuralError("line degree outside the grading group")

    @classmethod
    def of(cls, group: FgAbelianGroup, lines) -> "GradedFreeModule":
        return cls(group, tuple((n, group.element(c)) for n, c in lines))

    @property
    def rank(self) -> int:
        return len(self.lines)

    def degrees(self) -> tuple[GroupElement, ...]:
        return tuple(sorted({d for _, d in self.lines}))

    def zero(self) -> "ModuleElement":
        return ModuleElement(self, (Fraction(0),) * self.rank)

    def basis(self, name: str) -> "ModuleElement":
        coeffs = [Fraction(1) if n == name else Fraction(0) for n, _ in self.lines]
        if not any(coeffs):
            raise StructuralError("no line named %r" % (name,))
        return ModuleElement(self, tuple(coeffs))

    def element(self, coeffs: dict) -> "ModuleElement":
        by_name = dict(coeffs)
        out = []
        for n, _ in self.lines:
            out.append(Fraction(by_name.pop(n, 0)))
        if by_name:
            raise StructuralError("unknown line names %r" % (sorted(by_name),))
        return ModuleElement(self, tuple(out))


@dataclass(frozen=True)
class ModuleElement:
    module: GradedFreeModule = field(compare=False)
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.module.rank:
            raise StructuralError("coefficient count does not match the rank")

    def _binop(self, other, op):
        if other.module != self.module:
            raise StructuralError("elements of different modules")
        return ModuleElement(
            self.module, tuple(op(a, b) for a, b in zip(self.coeffs, other.coeffs))
        )

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return ModuleElement(self.module, tuple(-a for a in self.coeffs))

    def scale(self, s) -> "ModuleElement":
        s = Fraction(s)
        return ModuleElement(self.module, tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support_degrees(self) -> tuple[GroupElement, ...]:
        degs = {
            d for (_, d), c in zip(self.module.lines, self.coeffs) if c != 0
        }
        return tuple(sorted(degs))


def mu(k: GroupElement, v: ModuleElement) -> ModuleElement:
    """Projection of v onto its degree-k component."""
    coeffs = tuple(
        c if d == k else Fraction(0)
        for (_, d), c in zip(v.module.lines, v.coeffs)
    )
    return ModuleElement(v.module, coeffs)


@dataclass(frozen=True)
class Cochain:
    """Finitely supported cochain of any arity n >= 0 with module-element values.

    Arity 0 stores a single value under the empty key; higher arities map
    degree tuples to elements.  Zero values are dropped so equality of
    cochains is equality of the stored tables.
    """

    module: GradedFreeModule
    arity: int
    entries: tuple[tuple[tuple, ModuleElement], ...]

    def __post_init__(self):
        if self.arity < 0:
            raise StructuralError("arity must be nonnegative")
        seen = set()
        kept = []
        for key, value in self.entries:
            key = tuple(key)
            if len(key) != self.arity:
                raise StructuralError("key arity mismatch")
            for g in key:
                if g.ambient != self.module.grading_group:
                    raise StructuralError("key degree outside the grading group")
            if key in seen:
                raise StructuralError("duplicate key %r" % (key,))
            seen.add(key)
            if value.module != self.module:
                raise StructuralError("value in the wrong module")
            if not value.is_zero():
                kept.append((key, value))
        object.__setattr__(self, "entries", tuple(sorted(kept, key=lambda e: e[0])))

    @classmethod
    def _trusted(cls, module: GradedFreeModule, arity: int, entries) -> "Cochain":
        """A cochain from entries already as __post_init__ leaves them:
        distinct keys of the arity over the module's group, sorted, with
        nonzero values in the module.  Nothing is checked."""
        c = object.__new__(cls)
        object.__setattr__(c, "module", module)
        object.__setattr__(c, "arity", arity)
        object.__setattr__(c, "entries", entries)
        return c

    @classmethod
    def of(cls, module: GradedFreeModule, arity: int, table) -> "Cochain":
        entries = []
        for key, value in table:
            key = tuple(key) if arity else ()
            entries.append((key, value))
        return cls(module, arity, tuple(entries))

    @classmethod
    def constant(cls, value: ModuleElement) -> "Cochain":
        return cls(value.module, 0, (((), value),))

    def __call__(self, *args) -> ModuleElement:
        if len(args) != self.arity:
            raise StructuralError("wrong number of arguments")
        for k, v in self.entries:
            if k == args:
                return v
        return self.module.zero()

    def is_zero(self) -> bool:
        return not self.entries


def differential(c: Cochain) -> Cochain:
    """The coboundary, one arity up, in every arity n >= 0.

    For c of arity n, at k = (k0, ..., kn):
        mu_{k0} c(k1..kn) + sum_i (-1)^i [k_{i-1} = k_i] c(k without k_i)
                          + (-1)^(n+1) [kn = 0] c(k0..k_{n-1}).
    Read entry by entry, an entry (a, w) of c reaches only n + 2 kinds of
    key: (d, a) for each degree d of a line where w is nonzero, taking the
    degree-d part of w; a with a_{i-1} repeated at position i, taking
    (-1)^i w; and (a, 0), taking (-1)^(n+1) w.  So each entry adds into
    those keys, and every other key of the coboundary is zero.  The keys
    are built from degrees of the module's group and cannot repeat, so the
    result skips Cochain's checks: the kernel drops the zero rows itself and
    sorts the rest by the keys' coordinate tuples, GroupElement's order.
    """
    n = c.arity
    module = c.module
    number = {}  # coordinates -> small int; every degree lies in one group
    degrees = []

    def index(g):
        i = number.get(g.coords)
        if i is None:
            i = number[g.coords] = len(degrees)
            degrees.append(g)
        return i

    line_degree = [index(d) for _, d in module.lines]
    zero = (index(module.grading_group.zero()),)
    sums = {}  # key of small ints -> {line index: coefficient}
    for args, value in c.entries:
        a = tuple(index(g) for g in args)
        plus = [(j, x) for j, x in enumerate(value.coeffs) if x]
        minus = [(j, -x) for j, x in plus]
        reach = [((line_degree[j],) + a, ((j, x),)) for j, x in plus]
        reach += [(a[:i] + a[i - 1:], minus if i % 2 else plus) for i in range(1, n + 1)]
        reach.append((a + zero, plus if n % 2 else minus))
        for key, part in reach:
            row = sums.setdefault(key, {})
            for j, x in part:
                row[j] = row[j] + x if j in row else x
    blank = module.zero().coeffs
    rows = []
    for key, row in sums.items():
        if not any(row.values()):
            continue
        coeffs = list(blank)
        for j, x in row.items():
            coeffs[j] = x
        rows.append((tuple(degrees[i].coords for i in key), key, tuple(coeffs)))
    # coordinate tuples order degrees of one group as GroupElement does
    rows.sort(key=lambda e: e[0])
    entries = tuple((tuple(degrees[i] for i in key), ModuleElement(module, coeffs))
                    for _, key, coeffs in rows)
    return Cochain._trusted(module, n + 1, entries)


def is_cocycle(c: Cochain) -> bool:
    return differential(c).is_zero()


def homotopy(c: Cochain) -> Cochain:
    """h(c)(k_1..k_{n-1}) = (-1)^n c(k_1..k_{n-1}, 0), so dh + hd = id for
    arity n >= 1; the keys it keeps stay distinct and sorted, so unchecked."""
    if c.arity < 1:
        raise StructuralError("the homotopy takes a cochain of arity at least 1")
    zero = c.module.grading_group.zero()
    sign = -1 if c.arity % 2 else 1
    entries = tuple((k[:-1], v.scale(sign)) for k, v in c.entries if k[-1] == zero)
    return Cochain._trusted(c.module, c.arity - 1, entries)


def primitive(xi: Cochain) -> Cochain:
    """The primitive h(xi) of a cocycle xi of arity n >= 1 (-xi(0) in arity 1).

    Raises NotACocycleError with a witnessing (n+1)-tuple of degrees when
    xi is not a cocycle.
    """
    p = homotopy(xi)
    obstruction = differential(xi)
    if not obstruction.is_zero():
        key, _ = obstruction.entries[0]
        raise NotACocycleError(
            "no primitive: the coboundary is nonzero at %r" % (key,), witness=key
        )
    crosscheck(differential(p) == xi, "primitive formula failed to reproduce the cocycle")
    return p


def h1_zero_suite(
    module: GradedFreeModule, trials: int = 100, seed: int = 0
) -> int:
    """Randomized check that every 1-coboundary has the formulaic primitive.

    Draws random 0-cochains and recovers primitives of their coboundaries;
    `primitive` checks the cocycle and the round trip, and the suite that
    the primitive is the original element minus its degree-0 component.
    Returns the number of successful trials (always `trials` unless
    something is badly wrong, in which case an exception escapes).
    """
    rng = random.Random(seed)
    zero = module.grading_group.zero()
    for _ in range(trials):
        coeffs = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in module.lines
        )
        v = ModuleElement(module, coeffs)
        p = primitive(differential(Cochain.constant(v)))
        crosscheck(p() == v - mu(zero, v), "primitive is not the reduced original")
    return trials
