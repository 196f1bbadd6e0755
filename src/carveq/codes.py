"""Finitary sequence codes and their exact evaluation.

Every code denotes a total infinite sequence, and every quantifier over all
of N is discharged over a provably sufficient finite bound.  The algebra is
closed: atom-sequence codes are cyclic entry lists or pair-merges of a row
code, binary-sequence codes are cyclic words or pullbacks, and constructors
normalize eagerly.  Equality of binary-sequence codes is decided exactly, by
comparing canonical class representatives (:func:`binseq_class_rep`).
Opaque generator functions are rejected at the boundary.
"""

from dataclasses import dataclass

from .atoms import _ATOM_TYPES, AtomSet, CyclicWord, Tag, _kept, primitive_root
from .pairing import cantor_pair, cantor_unpair


def _check_entries(code, kinds, item, must_be):
    """Store ``code.entries`` as a tuple, refusing an empty list with
    ``<class> needs at least one <item>`` and an entry not of ``kinds``
    with ``<class> <must_be>, got <entry>``: the one check of the cyclic
    list codes Cyclic, ZCode and YSeq."""
    entries = tuple(code.entries)
    if not entries:
        raise ValueError(f"{type(code).__name__} needs at least one {item}")
    for e in entries:
        if not isinstance(e, kinds):
            raise TypeError(f"{type(code).__name__} {must_be}, got {e!r}")
    object.__setattr__(code, "entries", entries)


@dataclass(frozen=True, slots=True)
class Cyclic(_kept("_carves")):
    """Cyclic entry list denoting x(n) = entries[n mod len(entries)].  The
    slot ``_carves`` keeps relations._word_carve's table, None until used."""

    entries: tuple

    def __post_init__(self):
        _check_entries(self, _ATOM_TYPES, "entry", "entries must be atoms")
        object.__setattr__(self, "_carves", None)


@dataclass(frozen=True, slots=True)
class ZCode:
    """Cyclic list of cyclic rows, denoting z(i) = entries[i mod len]."""

    entries: tuple

    def __post_init__(self):
        _check_entries(self, Cyclic, "row", "rows must be Cyclic codes")


@dataclass(frozen=True, slots=True)
class PairMerge(_kept("_carves", "_range")):
    """Merge of a row code through the pairing: x(e(i, j)) = z(i)(j).  Slots
    as for Cyclic, and ``_range`` keeps :func:`range_atoms`, None until used."""

    z: ZCode

    def __post_init__(self):
        if not isinstance(self.z, ZCode):
            raise TypeError("PairMerge wraps a ZCode")
        object.__setattr__(self, "_carves", None)
        object.__setattr__(self, "_range", None)


def value_at(x, n):
    """Coordinate access x(n); total for both code variants."""
    if isinstance(x, Cyclic):
        return x.entries[n % len(x.entries)]
    if isinstance(x, PairMerge):
        i, j = cantor_unpair(n)
        rows = x.z.entries
        row = rows[i % len(rows)]
        return row.entries[j % len(row.entries)]
    raise TypeError(f"not an atom-sequence code: {x!r}")


def saturation_bound(x):
    """An index B with {x(n) : n in N} = {x(n) : n < B}.

    Cyclic: the period.  PairMerge: 1 + max e(i, j) over the finite grid
    i < rows, j < period(row i); any later index reduces (i mod rows,
    j mod period) onto a grid cell whose value already occurs below B.
    """
    if isinstance(x, Cyclic):
        return len(x.entries)
    rows = x.z.entries
    top = 0
    for i, row in enumerate(rows):
        for j in range(len(row.entries)):
            top = max(top, cantor_pair(i, j))
    return 1 + top


def grid_cells(x):
    """Yield (index, value) for the cells of one period of x.

    Cyclic: every entry with its position.  PairMerge: (e(i, j), z(i)(j))
    for i < rows and j < period(row i).  Every value of x occurs here at
    its least index: x(e(i, j)) equals the value of the cell (i mod rows,
    j mod period(row i mod rows)), and e is increasing in each coordinate,
    so reducing both coordinates never raises the index.
    """
    if isinstance(x, Cyclic):
        return enumerate(x.entries)
    if isinstance(x, PairMerge):
        return (
            (cantor_pair(i, j), a)
            for i, row in enumerate(x.z.entries)
            for j, a in enumerate(row.entries)
        )
    raise TypeError(f"not an atom-sequence code: {x!r}")


def range_atoms(x):
    """The set of values the denoted sequence ever takes, as a frozenset:
    the entries of a cyclic code, the union of the rows of a pair-merge.
    Unordered, so it answers membership and equality only; anything that
    iterates the range in order or keeps it reads :func:`range_set`."""
    if isinstance(x, Cyclic):
        return frozenset(x.entries)
    if isinstance(x, PairMerge):
        rng = x._range
        if rng is None:
            rng = frozenset().union(*(row.entries for row in x.z.entries))
            object.__setattr__(x, "_range", rng)
        return rng
    raise TypeError(f"not an atom-sequence code: {x!r}")


def range_set(x):
    """The canonical AtomSet of :func:`range_atoms`: the range sorted by
    the atom order."""
    return AtomSet(tuple(range_atoms(x)))


@dataclass(frozen=True, slots=True)
class CycW:
    """Binary-sequence code wrapping a canonical cyclic word."""

    word: CyclicWord

    def __post_init__(self):
        if isinstance(self.word, str):
            object.__setattr__(self, "word", CyclicWord(self.word))
        elif not isinstance(self.word, CyclicWord):
            raise TypeError("CycW wraps a CyclicWord")


@dataclass(frozen=True, slots=True)
class Pullback(_kept("_rep")):
    """b(k) = 1 iff value_at(base, k) is in aset.

    Only the non-degenerate case survives construction: a pair-merge base
    with a proper nonempty subset of its range.  Use :func:`pullback` to
    build normalized binary-sequence codes.  The slot ``_rep`` keeps
    :func:`binseq_class_rep`, unset until first used.
    """

    base: PairMerge
    aset: AtomSet

    def __post_init__(self):
        if not isinstance(self.base, PairMerge):
            raise ValueError("Pullback keeps only pair-merge bases; use pullback()")
        rng = range_atoms(self.base)
        if not 0 < len(self.aset) < len(rng) or not all(a in rng for a in self.aset.elements):
            raise ValueError(
                "Pullback set must be a proper nonempty subset of the base range; "
                "use pullback()"
            )


def pullback(base, aset):
    """Normalized binary-sequence code for k -> [value_at(base, k) in aset].

    A cyclic base is evaluated through to a word of one base period, bit i
    saying whether entry i is in the set; the word's primitive root makes
    an all-0 or all-1 word the constant word.  For a pair-merge base the
    set is clipped to the base range (:func:`range_atoms`): the kept
    elements are a filter of the canonical tuple, so they stay canonical
    without sorting again.  An empty or full clip yields the constant word.
    """
    if isinstance(base, Cyclic):
        return CycW(CyclicWord("".join("1" if a in aset.elements else "0" for a in base.entries)))
    rng = range_atoms(base)
    kept = tuple(a for a in aset.elements if a in rng)
    if not kept:
        return CycW(CyclicWord("0"))
    if len(kept) == len(rng):
        return CycW(CyclicWord("1"))
    return Pullback(base, AtomSet._trusted(kept))


def binseq_value_at(b, k):
    """Bit k of the denoted binary sequence."""
    if isinstance(b, CycW):
        return b.word.bit_at(k)
    if isinstance(b, Pullback):
        return 1 if value_at(b.base, k) in b.aset else 0
    raise TypeError(f"not a binary-sequence code: {b!r}")


def binseq_class_rep(b):
    """Canonical representative of the sequence a binary code denotes, as
    one string: equal sequences, and only they, get equal strings.

    A word's representative is its canonical bits.  Read through k = e(i, j),
    a pullback over s rows is a table whose row i is row i mod s's bit
    pattern, read cyclically.  Its canonical rows are each pattern cut to its
    primitive root, and the list of them cut to its own.  A periodic
    sequence's least period divides its every period, and primitive roots
    are unique (Lothaire, *Combinatorics on Words*, 1983), so two tables are
    equal iff their canonical rows are.  A pullback that denotes a word gets
    that word's bits, any other "|" and its canonical rows joined with "|";
    no word's bits contain "|".

    Lemma: a pullback over s rows equal to a word w of primitive length L
    has L | s.  Its table rows i and i + s are equal, so on an antidiagonal
    i + j = m >= L - 1 the word read at T(m) + j, T(t) = t(t + 1)/2,
    equals the word read at T(m + s) + j for L consecutive j.  No
    nontrivial rotation fixes w, so L | d(m) = T(m + s) - T(m) for all such
    m, hence L | d(m + 1) - d(m) = s.  So the only word it can denote is w,
    the root of its first s bits.  w's cell (i, j) is w at T(i + j) + j mod
    L, and T(t + 2L) - T(t) = L(2t + 2L + 1), so w's table repeats with
    period 2L in i and in j, and its canonical row count divides 2L.  So the
    pullback, of m canonical rows, denotes w iff m | 2L and the root of w's
    row i is its row i mod m for each i < 2L, checked up to the first miss.
    """
    if isinstance(b, CycW):
        return b.word.bits
    if isinstance(b, Pullback):
        try:
            return b._rep
        except AttributeError:
            pass
        patterns = ("".join("1" if a in b.aset else "0" for a in row.entries) for row in b.base.z.entries)
        rows = primitive_root(tuple(map(primitive_root, patterns)))
        w = primitive_root("".join(str(binseq_value_at(b, k)) for k in range(len(b.base.z.entries))))
        m, n = len(rows), 2 * len(w)
        if n % m == 0 and all(
            primitive_root("".join(w[((i + j) * (i + j + 1) // 2 + j) % len(w)] for j in range(n)))
            == rows[i % m] for i in range(n)
        ):
            rep = w
        else:
            rep = "|" + "|".join(rows)
        object.__setattr__(b, "_rep", rep)
        return rep
    raise TypeError(f"not a binary-sequence code: {b!r}")


def binseq_eq(u, v):
    """Pointwise equality of denoted binary sequences; exact and total: the
    two codes' :func:`binseq_class_rep` strings are equal."""
    return binseq_class_rep(u) == binseq_class_rep(v)


@dataclass(frozen=True, slots=True)
class YSeq:
    """Cyclic list of binary-sequence codes: y(n) = entries[n mod len]."""

    entries: tuple

    def __post_init__(self):
        _check_entries(self, (CycW, Pullback), "entry", "entries must be binary-sequence codes")


def iota(a, bit):
    """Injective pairing of an atom with a bit, realized by the Tag constructor."""
    return Tag(bit, a)

