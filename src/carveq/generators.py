"""Seeded deterministic generation of codes, points, and pairs.

All randomness flows from SplitMix64 with per-case substreams derived from
(seed, case index), so campaigns reproduce bit-for-bit and cases stay
independent of execution order.
"""

import struct
from dataclasses import dataclass, field

from .atoms import AtomSet, CyclicWord, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, YSeq, ZCode, pullback, range_set
from .invariants import atom_universe
from .relations import PPoint

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws computed per block.  Each block costs a fixed handful of big-int
# operations whatever its width, so wider blocks amortize better but waste
# more on streams that stop early; a fiber case stream makes about 52 draws,
# and 8, 16, 32 and 64 lanes drew within 10% of each other there.
_LANES = 16
_ONES = sum(1 << (128 * k) for k in range(_LANES))
_RAMP = sum(((k + 1) * _GOLDEN) << (128 * k) for k in range(_LANES))
_LANE_MASK = _MASK64 * _ONES
_UNPACK = struct.Struct("<" + "Q8x" * _LANES).unpack


def _mix(z):
    """SplitMix64's output function of the state ``z`` (reduced mod 2**64)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """SplitMix64: a tiny, documented 64-bit generator, identical on every
    platform and Python version.  Modulo-reduced draws carry negligible bias
    for the small ranges used here.

    Draws are computed ``_LANES`` at a time, each in its own 128-bit lane of
    one Python int: lane k starts as state + (k+1)·golden, masked to 64
    bits, and every step of the mix runs once on the whole int.  A lane
    holds a value below 2**64 before each multiply by a 64-bit constant, so
    the product stays below 2**128 and never carries into the next lane;
    after a right shift the mask clears the bits shifted in from the next
    lane.  The last xor-shift needs no mask, since only the low 64 bits of
    each lane are read out.  The stream is the scalar generator's, draw
    for draw.  The block is a tuple read through an index, so a
    ``copy.copy`` twin draws on independently.
    """

    def __init__(self, seed):
        self._state = seed & _MASK64
        self._block = ()
        self._index = _LANES

    def next_u64(self):
        i = self._index
        if i == _LANES:
            s = self._state
            self._state = (s + _LANES * _GOLDEN) & _MASK64
            z = (s * _ONES + _RAMP) & _LANE_MASK
            z = ((z ^ (z >> 30)) & _LANE_MASK) * _MIX1 & _LANE_MASK
            z = ((z ^ (z >> 27)) & _LANE_MASK) * _MIX2 & _LANE_MASK
            self._block = _UNPACK((z ^ (z >> 31)).to_bytes(16 * _LANES, "little"))
            i = 0
        self._index = i + 1
        return self._block[i]

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
    """Independent substream for one case: reseed through one mixing round,
    the first draw of a generator seeded with ``seed ^ index·golden``.
    ``seed`` and ``index`` must be ints; any other kind raises ``TypeError``."""
    if not (isinstance(seed, int) and isinstance(index, int)):
        raise TypeError(f"stream takes an int seed and index, not {type(seed).__name__} and {type(index).__name__}")
    return SplitMix64(_mix((seed ^ (index * _GOLDEN)) + _GOLDEN))


# Largest atom_universe, max_period and max_entries a campaign accepts.  A
# case's time and memory grow faster than the product of the three: with
# all three at 1000 one claim case ran past 40 s and interleave reached
# 174 MB, and at 10**8 the universe alone is 10**8 atoms.  With all three
# at this bound every target and chain take at most 0.1 s per case and
# 17 MB in all (20 cases each, seeds 0-2, 2-core VM).  claim sets that
# figure; embed and chain take at most 0.03 s per case, since the double
# jump reads keys, but rel_G, the one pair scan left among the relation
# decisions, still compares every pair of entries.  The tests, README and
# benchmark use at most 9.
MAX_SIZE = 100


@dataclass(frozen=True)
class FuzzConfig:
    """Campaign knobs.  Each field's ``help`` metadata is its command-line
    help; the CLI adds one flag per field."""

    seed: int = field(default=0, metadata={"help": "campaign seed"})
    cases: int = field(default=1000, metadata={"help": "cases per campaign"})
    atom_universe: int = field(default=4, metadata={"help": "number of distinct atoms drawn from"})
    max_period: int = field(default=6, metadata={"help": "max cyclic period"})
    max_entries: int = field(default=5, metadata={"help": "max entries per sequence"})

    def __post_init__(self):
        if self.cases < 0:
            raise ValueError("cases must be nonnegative")
        for name in ("atom_universe", "max_period", "max_entries"):
            if not 1 <= getattr(self, name) <= MAX_SIZE:
                raise ValueError(f"{name} must be between 1 and {MAX_SIZE}")

    def universe(self):
        return atom_universe(self.atom_universe)


def gen_subset(rng, pool):
    """Random nonempty subset of ``pool`` as an AtomSet."""
    size = rng.randint(1, len(pool))
    return AtomSet(tuple(rng.shuffle(pool)[:size]))


def gen_cyclic(rng, pool, max_period, cover=False):
    """Random cyclic code with entries from ``pool``; with ``cover`` true,
    the range is exactly the pool."""
    pool = tuple(pool)
    if not cover:
        length = rng.randint(1, max_period)
        return Cyclic(tuple(rng.choice(pool) for _ in range(length)))
    length = rng.randint(len(pool), max(max_period, len(pool)))
    entries = [rng.choice(pool) for _ in range(length)]
    for pos, atom in zip(rng.shuffle(range(length)), rng.shuffle(pool)):
        entries[pos] = atom
    return Cyclic(tuple(entries))


def gen_zcode(rng, pool, max_period, max_entries, cover=False):
    """Random row code over ``pool``; with ``cover`` true, the union of row ranges is exactly the pool."""
    pool = tuple(pool)
    rows = rng.randint(1, max_entries)
    lists = [[rng.choice(pool) for _ in range(rng.randint(1, max_period))] for _ in range(rows)]
    if cover:
        for atom in pool:
            row = rng.randrange(rows)
            lists[row][rng.randrange(len(lists[row]))] = atom
        # overwriting may evict an atom placed earlier; append whatever is left
        missing = [a for a in pool if not any(a in row for row in lists)]
        for atom in missing:
            lists[rng.randrange(rows)].append(atom)
    return ZCode(tuple(Cyclic(tuple(row)) for row in lists))


def gen_covering_family(rng, base_atoms, max_sets):
    """Nonempty family of nonempty subsets of the AtomSet ``base_atoms``
    whose union is the whole base, as a tuple of AtomSets (may repeat)."""
    count = rng.randint(1, max_sets)
    family = [gen_subset(rng, base_atoms) for _ in range(count)]
    covered = set().union(*family)
    missing = tuple(a for a in base_atoms if a not in covered)
    if missing:
        family.append(AtomSet(missing) if rng.coin() else base_atoms)
    return tuple(family)


def realize_ppoint(rng, base_atoms, family, cfg, cyclic=False):
    """Build a validated point whose carve family is exactly ``family``.

    Ground truth is constructed forward: the first coordinate enumerates
    ``base_atoms`` (cyclically or through a pair-merge, on a coin), and each
    family member is realized as a pullback, which the constructors
    normalize to words over cyclic bases.  Entry order is shuffled and
    entries may be duplicated, exercising set semantics.

    With ``cyclic`` true the first coordinate is cyclic and no arm coin is
    drawn: every draw made goes into the point built.
    """
    entries_sets = rng.shuffle(family)
    if rng.coin():
        entries_sets.append(rng.choice(family))
    if cyclic or rng.coin():
        x = gen_cyclic(rng, base_atoms, cfg.max_period, cover=True)
    else:
        x = PairMerge(gen_zcode(rng, base_atoms, cfg.max_period, cfg.max_entries, cover=True))
    y = YSeq(tuple(pullback(x, aset) for aset in entries_sets))
    return PPoint(x, y)


def gen_ppoint(rng, cfg):
    """Random valid point over a random base of the universe."""
    base_atoms = gen_subset(rng, cfg.universe())
    family = gen_covering_family(rng, base_atoms, cfg.max_entries)
    return realize_ppoint(rng, base_atoms, family, cfg)


def gen_infiber_pair(rng, cfg, base_atoms):
    """Two valid points ranging over the AtomSet ``base_atoms``; returns (p, q, related).

    It draws a covering family for p, then, on a coin, reuses it for q or
    draws a second one, and realizes p and q in that order.  Relatedness is
    known by construction: related pairs realize one family twice,
    unrelated pairs realize two families that differ as sets.
    """
    fam_p = gen_covering_family(rng, base_atoms, cfg.max_entries)
    fam_q = fam_p if rng.coin() else gen_covering_family(rng, base_atoms, cfg.max_entries)
    p = realize_ppoint(rng, base_atoms, fam_p, cfg)
    q = realize_ppoint(rng, base_atoms, fam_q, cfg)
    return p, q, frozenset(fam_p) == frozenset(fam_q)


def _stutter_pair(rng, draw):
    """(first, second) from ``draw()``, a code with an ``entries`` tuple.
    On a coin, the second is the first's entries reshuffled, on a second
    coin with one of them repeated; otherwise it is a fresh draw."""
    first = draw()
    if rng.coin():
        entries = rng.shuffle(first.entries)
        if rng.coin():
            entries.append(rng.choice(first.entries))
        return first, type(first)(tuple(entries))
    return first, draw()


def gen_cyclic_pair(rng, cfg):
    """Pair of cyclic codes; about half the time the second is a reshuffled
    stutter of the first (same range by construction)."""
    return _stutter_pair(rng, lambda: gen_cyclic(rng, cfg.universe(), cfg.max_period))


def gen_atom_pair(rng, cfg):
    """Pair of universe atoms; about half the time the second repeats the first."""
    a = rng.choice(cfg.universe())
    return a, (a if rng.coin() else rng.choice(cfg.universe()))


def gen_zcode_pair(rng, cfg):
    """Pair of row codes; about half the time the second permutes and
    duplicates rows of the first (same row-range family by construction)."""
    return _stutter_pair(rng, lambda: gen_zcode(rng, cfg.universe(), cfg.max_period, cfg.max_entries))


def gen_word(rng, max_period):
    return CyclicWord("".join("1" if rng.coin() else "0" for _ in range(rng.randint(1, max_period))))


def gen_yseq_words(rng, cfg):
    """YSeq of word entries only (always pairwise comparable)."""
    return YSeq(tuple(CycW(gen_word(rng, cfg.max_period)) for _ in range(rng.randint(1, cfg.max_entries))))


def gen_yseq_pair(rng, cfg):
    """Pair of word-entry YSeqs; about half the time the second reshuffles
    and duplicates entries of the first (same class set by construction)."""
    return _stutter_pair(rng, lambda: gen_yseq_words(rng, cfg))


def gen_binseq(rng, cfg):
    """Random binary-sequence code: a word, or a proper pullback over a
    random pair-merge base when one exists."""
    if rng.coin():
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
    return gen_ppoint(rng, cfg)
