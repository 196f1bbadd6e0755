"""Atoms and canonical finite structures built from them.

Atoms are structured terms with decidable structural equality, standing in
for points of a space in which only equality is ever consulted.  Three
variants: exact rationals in lowest terms, tagged atoms (an atom paired
injectively with a bit), and word atoms wrapping a canonical cyclic word.
"""

import math
from dataclasses import dataclass, fields

# Deepest Tag nesting that the constructor and the parser accept: parsing,
# printing, ordering and hashing recurse once per level, so deeper atoms
# would overflow the stack.
MAX_TAG_DEPTH = 100


def primitive_root(seq):
    """Shortest prefix whose repetition equals ``seq``.

    Works on any sliceable sequence (str, tuple).  The result is seq[:d] for
    the least divisor d of len(seq) with seq == seq[:d] * (len(seq) // d).
    """
    n = len(seq)
    for d in range(1, n):
        if n % d == 0 and seq[:d] * (n // d) == seq:
            return seq[:d]
    return seq


def _kept(*names):
    """A base class with the slots ``names``, in which a value keeps facts
    derived from its fields: slots, not fields, so equality, hashing, the
    printed form and ``dataclasses.fields`` ignore them.  A copy or a
    pickle rebuilds the value through its constructor, which sets them."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    return type("_Kept", (), {"__slots__": names, "__reduce__": __reduce__})


def _kept_hash(self):
    """An atom's ``__hash__``: the hash its ``__post_init__`` keeps.  Each
    atom's body binds it, or dataclass would generate one."""
    return self._hash


@dataclass(frozen=True, slots=True)
class CyclicWord:
    """Nonempty bit word denoting the sequence b(k) = bits[k mod len(bits)].

    Stored canonically as its primitive root: two words denote the same
    sequence iff their canonical forms are identical.  Phase is significant,
    so rotations denote distinct sequences.
    """

    bits: str

    def __post_init__(self):
        if not isinstance(self.bits, str):
            raise TypeError(f"bits must be a str, got {type(self.bits).__name__}")
        if not self.bits or self.bits.strip("01"):
            raise ValueError(f"bits must be a nonempty 0/1 string, got {self.bits!r}")
        object.__setattr__(self, "bits", primitive_root(self.bits))

    def __len__(self):
        return len(self.bits)

    def bit_at(self, k):
        return 1 if self.bits[k % len(self.bits)] == "1" else 0

    def is_constant(self):
        return len(self.bits) == 1


@dataclass(frozen=True, slots=True)
class Rational(_kept("_hash")):
    num: int
    den: int = 1
    __hash__ = _kept_hash

    def __post_init__(self):
        if self.den == 0:
            raise ValueError("zero denominator")
        num, den = self.num, self.den
        g = math.gcd(num, den)
        # Rewrite only for a common factor, den < 0 or an int subclass (bool).
        if g != 1 or den < 0 or type(num) is not int or type(den) is not int:
            if den < 0:
                g = -g
            num, den = num // g, den // g
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", hash((num, den)))


@dataclass(frozen=True, slots=True)
class Tag(_kept("_hash")):
    bit: int
    inner: "Rational | Tag | WordAtom"
    __hash__ = _kept_hash

    def __post_init__(self):
        if type(self.bit) is not int or self.bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        depth, inner = 1, self.inner
        while isinstance(inner, Tag):
            depth, inner = depth + 1, inner.inner
        if depth > MAX_TAG_DEPTH:
            raise ValueError(f"tags nested deeper than {MAX_TAG_DEPTH}")
        if not isinstance(inner, (Rational, WordAtom)):
            raise TypeError(f"not an atom: {inner!r}")
        object.__setattr__(self, "_hash", hash((self.bit, self.inner)))


@dataclass(frozen=True, slots=True)
class WordAtom(_kept("_hash")):
    word: CyclicWord
    __hash__ = _kept_hash

    def __post_init__(self):
        if isinstance(self.word, str):
            object.__setattr__(self, "word", CyclicWord(self.word))
        elif not isinstance(self.word, CyclicWord):
            raise TypeError("WordAtom wraps a CyclicWord")
        object.__setattr__(self, "_hash", hash((self.word,)))


_ATOM_TYPES = (Rational, Tag, WordAtom)


def atom_eq(a, b):
    """Structural equality of atoms; an equivalence relation for free."""
    return a == b


def atom_sort_key(a):
    """Injective sort key realizing a strict total order on atoms.

    The variant rank comes first, so comparisons between keys of different
    variants never reach fields of different Python types.
    """
    if isinstance(a, Rational):
        return (0, a.num, a.den)
    if isinstance(a, Tag):
        return (1, a.bit, atom_sort_key(a.inner))
    if isinstance(a, WordAtom):
        return (2, a.word.bits)
    raise TypeError(f"not an atom: {a!r}")


@dataclass(frozen=True, slots=True)
class AtomSet(_kept("_hash", "_sort_key")):
    """Finite set of atoms in canonical storage.

    Elements are sorted by the atom order and duplicate-free, so set
    equality coincides with structural equality of the storage.  The hash
    and :meth:`sort_key` are derived from ``elements`` alone, so each is
    computed on first use and kept in a slot, None until then, which
    every constructor path, :meth:`_trusted` too, sets.
    """

    elements: tuple

    def __post_init__(self):
        for a in self.elements:
            if not isinstance(a, _ATOM_TYPES):
                raise TypeError(f"not an atom: {a!r}")
        canon = tuple(sorted(set(self.elements), key=atom_sort_key))
        object.__setattr__(self, "elements", canon)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_sort_key", None)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.elements,))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        """Total order on atom sets: cardinality first, then elementwise
        atom order.  Any total order works for canonical storage; this one
        is cheap and stable."""
        key = self._sort_key
        if key is None:
            key = (len(self.elements), tuple(atom_sort_key(a) for a in self.elements))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __contains__(self, a):
        return a in self.elements

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @staticmethod
    def of(*atoms):
        return AtomSet(tuple(atoms))

    @classmethod
    def _trusted(cls, elements):
        """Wrap ``elements`` without validating or sorting them.

        Only for tuples that are canonical by construction: atoms, sorted by
        the atom order, duplicate-free.  A subsequence of a canonical tuple
        is one (order and distinctness survive dropping elements), so any
        filter of another set's ``elements`` qualifies.
        """
        aset = object.__new__(cls)
        object.__setattr__(aset, "elements", elements)
        object.__setattr__(aset, "_hash", None)
        object.__setattr__(aset, "_sort_key", None)
        return aset


def canonical_family(asets):
    """A family of atom sets in canonical storage: the tuple of its distinct
    sets in :meth:`AtomSet.sort_key` order, so families are equal iff their
    tuples are.  A tuple, not a frozenset: class counting keeps tens of
    thousands of families, and a tuple of a few sets is far smaller."""
    return tuple(sorted(set(asets), key=AtomSet.sort_key))
