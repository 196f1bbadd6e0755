"""Canonical invariants classifying codes up to each relation, and
brute-force class counting over finite atom universes."""

import itertools
from functools import cache, reduce
from operator import or_

from .atoms import AtomSet, Rational, canonical_family
from .codes import Cyclic, YSeq, binseq_class_rep, pullback, range_set
from .errors import ResourceLimit
from .relations import PPoint, carve_family


def f_invariant(x):
    """Complete invariant for range equality: the range set itself."""
    return range_set(x)


def e_invariant(p):
    """Complete invariant for carve-family equality: :func:`carve_family`."""
    return carve_family(p)


def fs2_invariant(z):
    """The family of row ranges of a row code, canonical."""
    return canonical_family(range_set(row) for row in z.entries)


def g_invariant(y):
    """Set of the entries' :func:`~carveq.codes.binseq_class_rep`
    representatives; complete for entry-class equality."""
    return frozenset(binseq_class_rep(e) for e in y.entries)


def closed_form(level, n):
    """Expected class counts over an n-atom universe: nonempty subsets for
    level F, nonempty families of nonempty subsets for level E."""
    if level == "F":
        return 2**n - 1
    if level == "E":
        return 2 ** (2**n - 1) - 1
    raise ValueError(f"unknown level {level!r}")


DEFAULT_ENUM_CAP = 2_000_000


class _Budget:
    """Enumeration steps against a cap.  ``steps`` yields the closed-form
    step counts of the enumeration's parts, summed lazily, so a count past
    the cap is refused before it starts and before a part too large to hold
    is computed."""

    def __init__(self, cap, steps):
        planned = 0
        for part in steps:
            planned += part
            if planned > cap:
                raise ResourceLimit(f"enumeration needs more than the cap of {cap} steps")
        self.cap = cap
        self.spent = 0

    def spend(self, amount=1):
        self.spent += amount
        if self.spent > self.cap:
            raise ResourceLimit(f"enumeration exceeded the cap of {self.cap}")


@cache
def atom_universe(n):
    """The fixed n-atom universe used for counting: small positive rationals.
    Built once per n; atoms are immutable, so every caller shares it."""
    return tuple(Rational(i, 1) for i in range(1, n + 1))


def count_classes(level, n, cap=DEFAULT_ENUM_CAP):
    """Brute-force class count over the n-atom universe.

    Level F enumerates every cyclic code with period <= n and deduplicates
    by range set.  Longer periods add no class: a code's range has at most
    as many atoms as its period, and every nonempty subset S of the
    universe is the range of its sorted enumeration, a code of period
    |S| <= n.

    Level E enumerates each nonempty family of nonempty subsets of the
    universe once, as a set, since entry order and multiplicity never
    change the carve family.  It validates one point per family: x is the
    sorted enumeration of the family's union, and y lists the pullbacks of
    the members over x.  The reachable families depend on x only through
    range(x), so one x per range suffices; x and the pullbacks of its
    subsets are built once per union.  Each point is validated as a PPoint
    and deduplicated by e_invariant.  The universe is fixed: maps that mint
    fresh atoms (tagging, word atoms) fall outside these counts, which
    illustrate growth under the jump rather than prove non-reducibility.
    Raises ResourceLimit, before enumerating, when the step count exceeds
    ``cap``.  A step of F is one entry of a cyclic code, so F takes
    sum_{k <= n} k n^k steps; a step of E is one family, so E takes
    closed_form("E", n) steps, planned r = 1 .. n as the families whose
    union has r as its largest atom.
    """
    if level not in ("F", "E"):
        raise ValueError(f"unknown level {level!r}")
    if n < 1:
        raise ValueError("universe size must be at least 1")

    if level == "F":
        budget = _Budget(cap, (k * n**k for k in range(1, n + 1)))
        universe = atom_universe(n)
        seen = set()
        for length in range(1, n + 1):
            for combo in itertools.product(universe, repeat=length):
                budget.spend(length)
                seen.add(f_invariant(Cyclic(combo)))
        return len(seen)

    budget = _Budget(cap, (closed_form("E", r) - closed_form("E", r - 1) for r in range(1, n + 1)))
    universe = atom_universe(n)

    def atoms(mask):
        return tuple(a for i, a in enumerate(universe) if mask >> i & 1)

    subsets = range(1, 2**n)  # as bitmasks over the universe
    bases = {}  # union -> (x, {subset of the union: its pullback over x})
    seen = set()
    for size in range(1, len(subsets) + 1):
        for family in itertools.combinations(subsets, size):
            budget.spend()
            union = reduce(or_, family)
            if union not in bases:
                x = Cyclic(atoms(union))
                bases[union] = x, {s: pullback(x, AtomSet(atoms(s))) for s in subsets if s & union == s}
            x, codes = bases[union]
            seen.add(e_invariant(PPoint(x, YSeq(tuple(codes[s] for s in family)))))
    return len(seen)


ROW_KEYS = ("level", "n", "count", "closed_form", "match")


def count_row(level, n):
    """One row of a class-count table over the n-atom universe, (level, n,
    count, closed form, match), named by ``ROW_KEYS``."""
    count = count_classes(level, n)
    closed = closed_form(level, n)
    return level, n, count, closed, count == closed
