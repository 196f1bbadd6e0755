"""Equivalence relations on codes.

Base equalities, the jump operator, products, range equality, the carving
of subsets out of an enumerated set, and the validated membership set for
pairs (x, y).  Quantifiers over N are replaced by finite bounds whose
sufficiency is argued next to each use; decisions are pure and total on
the closed code algebra.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

from .atoms import AtomSet, atom_eq, canonical_family
from .codes import (
    CycW,
    Cyclic,
    PairMerge,
    Pullback,
    YSeq,
    binseq_eq,
    grid_cells,
    range_atoms,
    range_set,
)
from .errors import ClauseViolation, StructuralMismatch


@dataclass(frozen=True)
class EqRelHandle:
    """A named decidable equivalence relation."""

    name: str
    decide: Callable


ATOM_EQ = EqRelHandle("eq", atom_eq)


def jump(e):
    """The jump of a relation: sequence codes are related iff their entries
    hit the same set of classes of ``e``.

    This is the Friedman–Stanley jump (Friedman & Stanley, JSL 1989), the
    one operator behind ``rel_G``, the one-entry embedding of a relation
    into its jump and the double-jump embedding of row codes into E.  The
    defining condition quantifies entry indices over all of N; entries
    repeat cyclically, so ranging over the finite entry lists is sound and
    complete.  Operands are any cyclic entry-list codes over e's domain.
    """

    def decide(u, v):
        return all(any(e.decide(a, b) for b in v.entries) for a in u.entries) and all(
            any(e.decide(b, a) for a in u.entries) for b in v.entries
        )

    return EqRelHandle(name=e.name + "+", decide=decide)


def product(e1, e2):
    """Pointwise relation on pairs: both coordinates must relate."""

    def decide(p, q):
        return e1.decide(p[0], q[0]) and e2.decide(p[1], q[1])

    return EqRelHandle(name=f"{e1.name}x{e2.name}", decide=decide)


def rel_F(x, x2):
    """Two atom-sequence codes relate iff they enumerate the same set.

    Decided by comparing the two ranges as frozensets (:func:`range_atoms`);
    equivalent to the mutual forall/exists matching of values, and cheaper.
    """
    return range_atoms(x) == range_atoms(x2)


F_REL = EqRelHandle("F", rel_F)


BINSEQ_EQ = EqRelHandle("binseq_eq", binseq_eq)
_G_JUMP = jump(BINSEQ_EQ)


def rel_G(y, y2):
    """Jump of binary-sequence equality on entry lists: every entry of each
    side denotes the same sequence as some entry of the other."""
    return _G_JUMP.decide(y, y2)


G_REL = EqRelHandle("G", rel_G)


def _word_carve(x, word):
    """Carve of a word over x, with the first clause (3) witness.

    Constant words carve everything or nothing over any base and never
    clash.  Any other word needs a cyclic x of period P; let L be the
    word's period and g = gcd(P, L).  Position m reads x at m mod P and the
    word at m mod L, and these index pairs are exactly the pairs that agree
    mod g, so the carve (the values seen with bit 1) is the set of x[i]
    whose index i is congruent mod g to some 1 bit of the word.  The
    witness is (at, pos) for the first position pos whose value was first
    seen at ``at`` with the other bit, or None when equal values always
    carry equal bits.  Both m -> x(m) and the bit at m have period
    lcm(P, L), so a clash lies below it or nowhere.  If none lies below P,
    every position below P carries its value's first bit, and the first
    clash is the first m >= P whose bit differs from the bit at m - P; that
    test has period L in m, so the clash lies below P + L or nowhere.

    The result depends only on x and the word, so x keeps it: the slot
    ``_carves`` of x (not a field, so equality, hashing and the printed
    form ignore it) maps the word's canonical bits to (carve, witness).
    The branch that computes it has no comprehension: one would give the
    function cells, whose setup every kept lookup would pay.
    """
    memo = x._carves
    if memo is None:
        memo = {}
        object.__setattr__(x, "_carves", memo)
    found = memo.get(word.bits)
    if found is not None:
        return found
    if word.is_constant():
        found = (range_set(x) if word.bits == "1" else AtomSet(())), None
    else:
        entries, bits = x.entries, word.bits
        period, length = len(entries), len(bits)
        g = math.gcd(period, length)
        ones, first_seen, clash = set(), {}, None
        for r in range(g):
            if "1" in bits[r::g]:
                ones.update(entries[r::g])
        for pos in range(min(period * length // g, period + length)):
            at = first_seen.setdefault(entries[pos % period], pos)
            if bits[at % length] != bits[pos % length]:
                clash = (at, pos)
                break
        found = AtomSet(tuple(ones)), clash
    memo[word.bits] = found
    return found


def carve_pair(x, entry):
    """Subset of range(x) carved out by one binary-sequence entry.

    Word entry: its carve from :func:`_word_carve`; only constant words
    may sit over a pair-merge base.  A pullback entry must sit over this
    very x; its stored set (already clipped to the base range) is the
    carve.
    """
    if isinstance(entry, Pullback):
        if entry.base != x:
            raise StructuralMismatch("pullback entry over a different base")
        return entry.aset
    if not isinstance(entry, CycW):
        raise TypeError(f"not a binary-sequence code: {entry!r}")
    if not isinstance(x, Cyclic):
        if not isinstance(x, PairMerge):
            raise TypeError(f"not an atom-sequence code: {x!r}")
        if not entry.word.is_constant():
            raise StructuralMismatch("non-constant word entry over a pair-merge base")
    return _word_carve(x, entry.word)[0]


def _validate_membership(x, y):
    """Carve y's entries over x in one pass; return the carves in entry
    order.  A structural mismatch raises at once, then clause (3), (2) and
    (1) in that order, (3) and (2) with their first offending entry."""
    if not isinstance(x, (Cyclic, PairMerge)):
        raise TypeError(f"not an atom-sequence code: {x!r}")
    if not isinstance(y, YSeq):
        raise TypeError(f"not a YSeq: {y!r}")

    # Clause (3): equal values of x force equal bits at those positions.
    # Pullback entries satisfy it structurally (the bit is a function of the
    # value) and constant words trivially; a non-constant word entry (over a
    # cyclic x, by the structural check) is decided by _word_carve's clash
    # scan, whose kept result still raises.  Clause (2): no carve is empty.
    carves = []
    clash = empty = None
    for k, entry in enumerate(y.entries):
        if isinstance(entry, Pullback):
            if entry.base != x:
                raise StructuralMismatch(f"entry {k} pulls back over a different base")
            aset = carve_pair(x, entry)
        elif entry.word.is_constant():
            aset = carve_pair(x, entry)
        elif isinstance(x, PairMerge):
            raise StructuralMismatch(f"entry {k}: non-constant word over a pair-merge base")
        else:
            aset, at = _word_carve(x, entry.word)
            if at is not None and clash is None:
                clash = (k, *at)
        if empty is None and not aset.elements:
            empty = (k,)
        carves.append(aset)
    if clash is not None:
        raise ClauseViolation(3, clash)
    if empty is not None:
        raise ClauseViolation(2, empty)

    # Clause (1): every enumerated value is carved by some entry.  Every
    # carve is a subset of range(x), so their union covers it iff it is as
    # large.  The witness is the least index of an uncovered value, which is
    # a grid cell (see grid_cells).
    covered = set()
    for aset in carves:
        covered.update(aset.elements)
    if len(covered) < len(range_atoms(x)):
        raise ClauseViolation(1, (min(m for m, a in grid_cells(x) if a not in covered),))
    return tuple(carves)


@dataclass(frozen=True, slots=True)
class PPoint:
    """A pair (x, y) validated at construction against the three membership
    clauses, with y read entrywise as characteristic functions carving
    subsets out of the set enumerated by x.

    Construction is the only gate: a PPoint in hand is always valid, so
    relation decisions downstream have vacuous preconditions.  Validation
    computes the carve of every entry, and the point keeps them, in entry
    order, in ``carves``; that field is derived from (x, y), so it takes no
    part in equality, hashing or the printed form.
    """

    x: object
    y: YSeq
    carves: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "carves", _validate_membership(self.x, self.y))


def carve(p, n):
    """The n-th carved subset; indices beyond the entry list reduce mod its
    length, matching the cyclic completion of y."""
    return p.carves[n % len(p.carves)]


def carve_family(p):
    """All carved subsets of a point, in canonical storage
    (:func:`canonical_family`)."""
    return canonical_family(p.carves)


def rel_E(p, q):
    """Two points relate iff they carve the same family of subsets: the sets
    of their kept carves are equal."""
    return set(p.carves) == set(q.carves)


E_REL = EqRelHandle("E", rel_E)
