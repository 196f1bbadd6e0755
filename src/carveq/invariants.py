"""Canonical invariants classifying codes up to each relation, and
brute-force class counting over finite atom universes."""

import itertools
import math

from .atoms import AtomSet, CyclicWord, Rational, canonical_family, primitive_root
from .codes import CycW, Cyclic, Pullback, YSeq, binseq_eq, binseq_value_at, pullback, range_set
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


def binseq_class_rep(entry):
    """Canonical representative of the sequence a binary code denotes.

    Words: ("word", primitive bits).  A pullback over s rows that denotes
    a word gets that word's representative; any other pullback gets
    ("pull", row carve words), each row's bit pattern reduced to its
    primitive root and the row-word list itself reduced as a cyclic word
    over the word alphabet; two such pullbacks denote the same sequence
    iff these match, since the bit at e(i, j) is row i's pattern at j and
    rows repeat cyclically.

    Lemma: a pullback over s rows equal to a word w of primitive length L
    has L | s.  Its table rows i and i + s are equal, so on an antidiagonal
    i + j = m >= L - 1 the word read at T(m) + j, T(t) = t(t + 1)/2,
    equals the word read at T(m + s) + j for L consecutive j.  No
    nontrivial rotation fixes w, so L | d(m) = T(m + s) - T(m) for all such
    m, hence L | d(m + 1) - d(m) = s.  So a pullback denotes a word iff it
    equals the word of its first s bits.
    """
    if isinstance(entry, CycW):
        return ("word", entry.word.bits)
    if isinstance(entry, Pullback):
        rows = entry.base.z.entries
        head = CycW("".join(str(binseq_value_at(entry, k)) for k in range(len(rows))))
        if binseq_eq(head, entry):
            return ("word", head.word.bits)
        words = tuple(
            CyclicWord("".join("1" if a in entry.aset else "0" for a in row.entries)).bits
            for row in rows
        )
        return ("pull", primitive_root(words))
    raise TypeError(f"not a binary-sequence code: {entry!r}")


def g_invariant(y):
    """Set of canonical entry representatives; complete for entry-class
    equality."""
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


def _all_cyclic_codes(universe, max_period, budget):
    for length in range(1, max_period + 1):
        for combo in itertools.product(universe, repeat=length):
            budget.spend(length)
            yield Cyclic(combo)


def count_classes(level, n, max_period=None, cap=DEFAULT_ENUM_CAP):
    """Brute-force class count over the n-atom universe.

    Level F enumerates every cyclic code with period <= max_period and
    deduplicates by range set.  Level E enumerates validated points and
    deduplicates by carve family; two documented prunings keep it honest
    and finite: entry order and multiplicity never change the family (set
    semantics), so families are enumerated as sets, and the reachable
    families depend on x only through range(x), so one sorted enumeration
    per nonempty range suffices.  Per base x, the pullback of each subset is
    built once, and families whose subsets do not cover range(x) are pruned
    on bitmasks over x's atoms; every covering family is still built as a
    YSeq of those real pullback codes, validated as a PPoint and
    deduplicated by e_invariant.  The universe is fixed: maps that mint
    fresh atoms (tagging, word atoms) fall outside these counts, which
    illustrate growth under the jump rather than prove non-reducibility.
    Raises ResourceLimit, before enumerating, when the step count exceeds
    ``cap``.  A step of F is one entry of a cyclic code, so F takes
    sum_{k <= max_period} k n^k steps; a step of E is one candidate
    family, and E takes sum_r C(n, r)(2^(2^r - 1) - 1) of them.
    """
    if level not in ("F", "E"):
        raise ValueError(f"unknown level {level!r}")
    if n < 1:
        raise ValueError("universe size must be at least 1")
    if max_period is None:
        max_period = n
    if max_period < n:
        raise ValueError("max_period must be at least the universe size")

    if level == "F":
        budget = _Budget(cap, (k * n**k for k in range(1, max_period + 1)))
        seen = set()
        for code in _all_cyclic_codes(atom_universe(n), max_period, budget):
            seen.add(f_invariant(code))
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
