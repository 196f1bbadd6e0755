"""Seeded deterministic generation of codes, points, and pairs.

All randomness flows from SplitMix64 with per-case substreams derived from
(seed, case index), so campaigns reproduce bit-for-bit and cases stay
independent of execution order.
"""

from dataclasses import dataclass

from .atoms import AtomSet, CyclicWord, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, YSeq, ZCode, pullback, range_set
from .relations import PPoint

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64: a tiny, documented 64-bit generator, identical on every
    platform and Python version.  Modulo-reduced draws carry negligible bias
    for the small ranges used here."""

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n):
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo, hi):
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def coin(self):
        return self.next_u64() & 1 == 1

    def shuffle(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def stream(seed, index):
    """Independent substream for one case: reseed through one mixing round."""
    return SplitMix64(SplitMix64((seed ^ (index * _GOLDEN)) & _MASK64).next_u64())


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign knobs.  Defaults: seed=0, cases=1000, atom_universe=4,
    max_period=6, max_entries=5."""

    seed: int = 0
    cases: int = 1000
    atom_universe: int = 4
    max_period: int = 6
    max_entries: int = 5

    def __post_init__(self):
        if self.cases < 0:
            raise ValueError("cases must be nonnegative")
        for field in ("atom_universe", "max_period", "max_entries"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")

    def universe(self):
        return tuple(Rational(i, 1) for i in range(1, self.atom_universe + 1))


def gen_subset(rng, pool, size=None):
    """Random nonempty subset of ``pool`` as a sorted tuple of distinct atoms."""
    if size is None:
        size = rng.randint(1, len(pool))
    picked = rng.shuffle(pool)[:size]
    return tuple(AtomSet(tuple(picked)))


def gen_cyclic(rng, pool, max_period, cover=None):
    """Random cyclic code with entries from ``pool``; with ``cover`` given,
    the range is exactly that set."""
    if cover is None:
        length = rng.randint(1, max_period)
        return Cyclic(tuple(rng.choice(pool) for _ in range(length)))
    cover = tuple(cover)
    length = rng.randint(len(cover), max(max_period, len(cover)))
    entries = [rng.choice(cover) for _ in range(length)]
    for pos, atom in zip(rng.shuffle(range(length)), rng.shuffle(cover)):
        entries[pos] = atom
    return Cyclic(tuple(entries))


def gen_zcode(rng, pool, max_period, max_entries, cover=None):
    """Random row code; with ``cover`` given, the union of row ranges is
    exactly that set."""
    rows = rng.randint(1, max_entries)
    lists = [
        [rng.choice(tuple(cover) if cover is not None else pool) for _ in range(rng.randint(1, max_period))]
        for _ in range(rows)
    ]
    if cover is not None:
        for atom in cover:
            row = rng.randrange(rows)
            lists[row][rng.randrange(len(lists[row]))] = atom
        # overwriting may evict an atom placed earlier; append whatever is left
        missing = [a for a in cover if not any(a in row for row in lists)]
        for atom in missing:
            lists[rng.randrange(rows)].append(atom)
    return ZCode(tuple(Cyclic(tuple(row)) for row in lists))


def gen_covering_family(rng, base_atoms, max_sets):
    """Nonempty family of nonempty subsets of ``base_atoms`` whose union is
    the whole base, as a tuple of AtomSets (may repeat)."""
    count = rng.randint(1, max_sets)
    family = [AtomSet(gen_subset(rng, base_atoms)) for _ in range(count)]
    covered = AtomSet(())
    for aset in family:
        covered = covered.union(aset)
    missing = tuple(a for a in base_atoms if a not in covered)
    if missing:
        extra = missing if rng.coin() else tuple(base_atoms)
        family.append(AtomSet(extra))
    return tuple(family)


def realize_ppoint(rng, base_atoms, family, cfg):
    """Build a validated point whose carve family is exactly ``family``.

    Ground truth is constructed forward: the first coordinate enumerates
    ``base_atoms`` (cyclically or through a pair-merge), and each family
    member is realized as a pullback, which the constructors normalize to
    words over cyclic bases.  Entry order is shuffled and entries may be
    duplicated, exercising set semantics.
    """
    entries_sets = rng.shuffle(family)
    if rng.coin():
        entries_sets.append(rng.choice(family))
    if rng.coin():
        x = gen_cyclic(rng, base_atoms, cfg.max_period, cover=base_atoms)
    else:
        x = PairMerge(gen_zcode(rng, base_atoms, cfg.max_period, cfg.max_entries, cover=base_atoms))
    y = YSeq(tuple(pullback(x, aset) for aset in entries_sets))
    return PPoint(x, y)


def gen_ppoint(rng, cfg):
    """Random valid point; returns (point, intended family as a frozenset)."""
    base_atoms = gen_subset(rng, cfg.universe())
    family = gen_covering_family(rng, base_atoms, cfg.max_entries)
    return realize_ppoint(rng, base_atoms, family, cfg), frozenset(family)


def gen_infiber_pair(rng, cfg, base_atoms=None):
    """Two valid points sharing one range; returns (p, q, related).

    Relatedness is known by construction: related pairs realize one family
    twice, unrelated pairs realize two families that differ as sets.
    """
    if base_atoms is None:
        base_atoms = gen_subset(rng, cfg.universe())
    fam_p = gen_covering_family(rng, base_atoms, cfg.max_entries)
    if rng.coin():
        fam_q = fam_p
    else:
        fam_q = gen_covering_family(rng, base_atoms, cfg.max_entries)
    p = realize_ppoint(rng, base_atoms, fam_p, cfg)
    q = realize_ppoint(rng, base_atoms, fam_q, cfg)
    return p, q, frozenset(fam_p) == frozenset(fam_q)


def gen_cyclic_pair(rng, cfg):
    """Pair of cyclic codes; about half the time the second is a reshuffled
    stutter of the first (same range by construction)."""
    x = gen_cyclic(rng, cfg.universe(), cfg.max_period)
    if rng.coin():
        entries = rng.shuffle(x.entries)
        if rng.coin():
            entries.append(rng.choice(x.entries))
        return x, Cyclic(tuple(entries))
    return x, gen_cyclic(rng, cfg.universe(), cfg.max_period)


def gen_atom_pair(rng, cfg):
    """Pair of universe atoms; about half the time the second repeats the first."""
    a = rng.choice(cfg.universe())
    return a, (a if rng.coin() else rng.choice(cfg.universe()))


def gen_zcode_pair(rng, cfg):
    """Pair of row codes; about half the time the second permutes and
    duplicates rows of the first (same row-range family by construction)."""
    z = gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries)
    if rng.coin():
        rows = rng.shuffle(z.entries)
        if rng.coin():
            rows.append(rng.choice(z.entries))
        return z, ZCode(tuple(rows))
    return z, gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries)


def gen_word(rng, max_period):
    return CyclicWord("".join("1" if rng.coin() else "0" for _ in range(rng.randint(1, max_period))))


def gen_yseq_words(rng, cfg):
    """YSeq of word entries only (always pairwise comparable)."""
    return YSeq(tuple(CycW(gen_word(rng, cfg.max_period)) for _ in range(rng.randint(1, cfg.max_entries))))


def gen_yseq_pair(rng, cfg):
    """Pair of word-entry YSeqs; about half the time the second reshuffles
    and duplicates entries of the first (same class set by construction)."""
    y = gen_yseq_words(rng, cfg)
    if rng.coin():
        entries = rng.shuffle(y.entries)
        if rng.coin():
            entries.append(rng.choice(y.entries))
        return y, YSeq(tuple(entries))
    return y, gen_yseq_words(rng, cfg)


def gen_binseq(rng, cfg, allow_pullback=True):
    """Random binary-sequence code: a word, or a proper pullback over a
    random pair-merge base when one exists."""
    if allow_pullback and rng.coin():
        z = gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries)
        base = PairMerge(z)
        rng_set = range_set(base)
        if len(rng_set) >= 2:
            size = rng.randint(1, len(rng_set) - 1)
            sub = AtomSet(tuple(rng.shuffle(rng_set.elements)[:size]))
            return pullback(base, sub)
    return CycW(gen_word(rng, cfg.max_period))


def gen_rich_atom(rng, depth=2):
    """Atom of any variant, for serializer fuzzing; ``depth`` bounds tag nesting."""
    kind = rng.randrange(3) if depth > 0 else 0
    if kind == 0:
        return Rational(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == 1:
        return Tag(rng.randrange(2), gen_rich_atom(rng, depth - 1))
    return WordAtom(gen_word(rng, 6))


def gen_serial_value(rng, cfg):
    """Random value of any serializable kind."""
    kind = rng.randrange(7)
    if kind == 0:
        return gen_rich_atom(rng)
    if kind == 1:
        return Cyclic(tuple(gen_rich_atom(rng) for _ in range(rng.randint(1, cfg.max_period))))
    if kind == 2:
        return PairMerge(gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries))
    if kind == 3:
        return gen_binseq(rng, cfg)
    if kind == 4:
        return YSeq(tuple(gen_binseq(rng, cfg) for _ in range(rng.randint(1, cfg.max_entries))))
    if kind == 5:
        return gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries)
    return gen_ppoint(rng, cfg)[0]
