"""Canonical invariants classifying codes up to each relation, and
brute-force class counting over finite atom universes."""

import itertools
import math

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


def atom_universe(n):
    """The fixed n-atom universe used for counting: small positive rationals."""
    return tuple(Rational(i, 1) for i in range(1, n + 1))


def count_classes(level, n, cap=DEFAULT_ENUM_CAP):
    """Brute-force class count over the n-atom universe.

    Level F enumerates every cyclic code with period <= n and deduplicates
    by range set.  Longer periods add no class: a code's range has at most
    as many atoms as its period, and every nonempty subset S of the
    universe is the range of its sorted enumeration, a code of period
    |S| <= n.

    Level E enumerates validated points and deduplicates by carve family;
    two documented prunings keep it honest and finite: entry order and
    multiplicity never change the family (set semantics), so families are
    enumerated as sets, and the reachable families depend on x only
    through range(x), so one sorted enumeration per nonempty range
    suffices.  Per base x, the pullback of each subset is
    built once, and families whose subsets do not cover range(x) are pruned
    on bitmasks over x's atoms; every covering family is still built as a
    YSeq of those real pullback codes, validated as a PPoint and
    deduplicated by e_invariant.  The universe is fixed: maps that mint
    fresh atoms (tagging, word atoms) fall outside these counts, which
    illustrate growth under the jump rather than prove non-reducibility.
    Raises ResourceLimit, before enumerating, when the step count exceeds
    ``cap``.  A step of F is one entry of a cyclic code, so F takes
    sum_{k <= n} k n^k steps; a step of E is one candidate family, and E
    takes sum_r C(n, r)(2^(2^r - 1) - 1) of them.
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

    budget = _Budget(cap, (math.comb(n, r) * (2 ** (2**r - 1) - 1) for r in range(1, n + 1)))
    universe = atom_universe(n)
    seen = set()
    for r in range(1, n + 1):
        for base_atoms in itertools.combinations(universe, r):
            x = Cyclic(base_atoms)
            subsets = range(1, 2**r)  # as bitmasks over base_atoms
            codes = [
                pullback(x, AtomSet(tuple(a for i, a in enumerate(base_atoms) if s >> i & 1)))
                for s in subsets
            ]
            full = 2**r - 1
            # covers[f]: union of the subsets in family f (a bitmask over
            # subsets); f without its lowest subset is a smaller family.
            covers = [0] * 2 ** len(subsets)
            for family in range(1, len(covers)):
                budget.spend()
                low = (family & -family).bit_length() - 1
                covers[family] = covers[family & (family - 1)] | subsets[low]
                if covers[family] != full:
                    continue
                y = YSeq(tuple(codes[i] for i in range(len(codes)) if family >> i & 1))
                seen.add(e_invariant(PPoint(x, y)))
    return len(seen)


ROW_KEYS = ("level", "n", "count", "closed_form", "match")


def count_row(level, n):
    """One row of a class-count table over the n-atom universe, (level, n,
    count, closed form, match), named by ``ROW_KEYS``."""
    count = count_classes(level, n)
    closed = closed_form(level, n)
    return level, n, count, closed, count == closed
