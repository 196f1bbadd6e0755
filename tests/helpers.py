"""Shared atoms and independent oracle routines for the test suite.

Oracles here deliberately avoid the library's decision paths: they scan,
enumerate, or use Python's native set machinery, so agreement with the
library is evidence rather than tautology.
"""

import importlib.util
import itertools
import math
import pathlib
import sys

from carveq import (
    AtomSet,
    ClauseViolation,
    CycW,
    Cyclic,
    FuzzConfig,
    PPoint,
    PairMerge,
    Pullback,
    Rational,
    StructuralMismatch,
    YSeq,
    ZCode,
    carve,
    pullback,
    stream,
)
from carveq.codes import (
    binseq_value_at,
    range_set,
    saturation_bound,
    value_at,
)
from carveq.generators import gen_binseq, gen_serial_value
from carveq.pairing import cantor_pair
from carveq.serialize import to_text

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    """The benchmark's ``perfbench/tracer.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


R1, R2, R3, R4, R5, R6 = (Rational(i, 1) for i in range(1, 7))
UNIVERSE3 = (R1, R2, R3)

# The sequence 001001... as a word and as a pullback over pair-merge rows.
WORD_001 = CycW("001")
PULL_001 = pullback(
    PairMerge(ZCode((Cyclic((R1, R3, R4)), Cyclic((R1, R2, R3)), Cyclic((R1, R2))))),
    AtomSet.of(R3, R4),
)

# (seed, config) pairs under which 300 gen_binseq codes include words equal
# to pullbacks.
BINSEQ_SAMPLES = (
    (5, FuzzConfig(cases=0, atom_universe=3, max_period=3, max_entries=3)),
    (5, FuzzConfig(cases=0, atom_universe=2, max_period=3, max_entries=3)),
)


def binseq_sample(seed, cfg):
    return [gen_binseq(stream(seed, i), cfg) for i in range(300)]


def reference_splitmix64(seed, n):
    """The first ``n`` draws of SplitMix64 seeded with ``seed``, one 64-bit
    state step and mix at a time."""
    mask = (1 << 64) - 1
    state, draws = seed & mask, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draws.append(z ^ (z >> 31))
    return draws


def agree_below(u, v, bound):
    """Pointwise agreement of two binary-sequence codes below ``bound``."""
    return all(binseq_value_at(u, k) == binseq_value_at(v, k) for k in range(bound))


def _table_shape(b):
    """(rows, periods) of the table i, j -> b(e(i, j)): row i equals row
    i mod rows and repeats in j with period periods[i % len(periods)].
    A pullback over s rows has s rows, row i of period p_{i mod s}.  A word
    of length L has 2L rows of period 2L: b(e(i, j)) is the word at
    T(i + j) + j mod L, T(t) = t(t + 1)/2, and T(t + 2L) - T(t) =
    L(2t + 2L + 1)."""
    if isinstance(b, CycW):
        n = 2 * len(b.word)
        return n, (n,)
    rows = b.base.z.entries
    return len(rows), tuple(len(row.entries) for row in rows)


def reference_binseq_eq(u, v):
    """Equality oracle by the row-table grid: agreement on k = e(i, j) for
    i < lcm(rows_u, rows_v) and j < lcm(period_u(i), period_v(i)), shapes
    from :func:`_table_shape`.  Both tables repeat in i with period
    lcm(rows_u, rows_v), row i of both in j with period lcm(period_u(i),
    period_v(i)), so every cell has the values of a grid cell, and the
    pairing is a bijection.  Its cost is the product of the two codes'
    sizes, so it is for small codes only."""
    ru, pu = _table_shape(u)
    rv, pv = _table_shape(v)
    for i in range(math.lcm(ru, rv)):
        for j in range(math.lcm(pu[i % len(pu)], pv[i % len(pv)])):
            k = cantor_pair(i, j)
            if binseq_value_at(u, k) != binseq_value_at(v, k):
                return False
    return True


def reference_star_violations(p, q, fp, fq):
    """The star property by the double loop over entry pairs of two points
    and their images: every (n, m) where carve n of p equals carve m of q
    but output entries n of fp and m of fq differ as sequences, or the
    reverse."""
    return [
        (n, m)
        for n in range(len(p.y.entries))
        for m in range(len(q.y.entries))
        if (carve(p, n) == carve(q, m)) != reference_binseq_eq(fp.entries[n], fq.entries[m])
    ]


def represent(b, row_times, entry_times):
    """The pullback ``b`` re-presented: its row list repeated ``row_times``
    times and each row's entries ``entry_times`` times.  Both repetitions
    keep the denoted sequence."""
    rows = tuple(Cyclic(row.entries * entry_times) for row in b.base.z.entries)
    return pullback(PairMerge(ZCode(rows * row_times)), b.aset)


def word_as_pullback(bits, rows=None, period=None):
    """The pullback of R1 over the first ``rows`` rows of the word's table
    i, j -> bits at e(i, j), each cut to its first ``period`` cells, R1
    for a 1 and R2 for a 0.  Both default to 2L, the word's table periods
    (see :func:`_table_shape`), and then the pullback denotes the word."""
    rows = rows or 2 * len(bits)
    period = period or 2 * len(bits)
    atoms = {"1": R1, "0": R2}
    table = tuple(
        Cyclic(tuple(atoms[bits[((i + j) * (i + j + 1) // 2 + j) % len(bits)]] for j in range(period)))
        for i in range(rows)
    )
    return pullback(PairMerge(ZCode(table)), AtomSet.of(R1))


def _root(seq):
    """The shortest prefix of ``seq`` whose repetition gives ``seq``."""
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and seq[:d] * (n // d) == seq:
            return seq[:d]


def sequence_class(b):
    """Normal form of the sequence a binary code denotes, from its row table.

    Read through the pairing k = (i + j)(i + j + 1)/2 + j, the sequence is
    a table of rows i, each a sequence in j.  A pullback's row i is the
    indicator of its set along pair-merge row i mod s.  A word's cell (i, j)
    is the word at k mod L; rows repeat with period 2L and each row with
    period 2L.  Each row over one full period is cut to its primitive root,
    then the row list to its own: equal sequences get equal normal forms,
    whatever kind of code denotes them.
    """
    if isinstance(b, Pullback):
        rows = [tuple(a in b.aset for a in row.entries) for row in b.base.z.entries]
    else:
        bits, n = b.word.bits, 2 * len(b.word.bits)
        rows = [
            tuple(bits[((i + j) * (i + j + 1) // 2 + j) % len(bits)] == "1" for j in range(n))
            for i in range(n)
        ]
    return _root(tuple(_root(row) for row in rows))


def reference_pullback(base, aset):
    """Pullback oracle through canonical AtomSets: clip against
    ``range_set`` into a new AtomSet, compare the clip with the range by
    AtomSet equality."""
    rng = range_set(base)
    aset = AtomSet(tuple(a for a in aset if a in rng))
    if len(aset) == 0:
        return CycW("0")
    if aset == rng:
        return CycW("1")
    if isinstance(base, Cyclic):
        return CycW("".join("1" if a in aset else "0" for a in base.entries))
    return Pullback(base, aset)


def scan_first_indices(x):
    """Least index of every value of an atom-sequence code, by scanning
    value_at below saturation_bound."""
    first = {}
    for n in range(saturation_bound(x)):
        first.setdefault(value_at(x, n), n)
    return first


def forall_exists(left, right, rel):
    """The mutual matching condition, straight from the definition."""
    return all(any(rel(a, b) for b in right) for a in left) and all(
        any(rel(b, a) for a in left) for b in right
    )


def partition_classes(items, rel):
    """Brute-force partition of ``items`` into classes of ``rel`` (first fit)."""
    classes = []
    for item in items:
        for cls in classes:
            if rel(cls[0], item):
                cls.append(item)
                break
        else:
            classes.append([item])
    return classes


def naive_carve(x, entry):
    """Carve oracle: the values at the indices whose bit is 1, by a plain
    scan, native frozenset.  A word over a cyclic x is scanned below the
    product of the two periods (a common multiple).  Over a pair-merge x the
    entry is a pullback or a constant word, whose bit is a function of the
    value, so the indices below saturation_bound, where every value occurs,
    suffice."""
    if isinstance(x, Cyclic):
        span = len(x.entries) * len(entry.word.bits)
    else:
        span = saturation_bound(x)
    return frozenset(value_at(x, m) for m in range(span) if binseq_value_at(entry, m))


def naive_clause3_ok(x, y, span):
    """Clause-(3) oracle: scan every index pair below ``span``."""
    for entry in y.entries:
        for l1 in range(span):
            for l2 in range(span):
                if value_at(x, l1) == value_at(x, l2):
                    if binseq_value_at(entry, l1) != binseq_value_at(entry, l2):
                        return False
    return True


def reference_membership(x, y):
    """Membership oracle by brute force over the indices below one common
    period: the lcm of x's period and every word's period for a cyclic x,
    saturation_bound for a pair-merge x (there every entry's bit is a
    function of the value, and every value occurs below the bound).

    Returns the carves as frozensets in entry order, or the first
    violation as (type, clause, witness): a structural mismatch, as
    (StructuralMismatch, None, (k,)) for the first entry k outside the
    closed algebra, wins over every clause; then clause (3) with
    (k, first index of the value, index of the clash) for the first
    entry k whose bits differ on one value; then clause (2) with (k,) for
    the first entry k that carves nothing; then clause (1) with the least
    index of a value that no entry carves.
    """
    for k, entry in enumerate(y.entries):
        if isinstance(entry, Pullback) and entry.base != x:
            return StructuralMismatch, None, (k,)
        if isinstance(entry, CycW) and isinstance(x, PairMerge) and len(set(entry.word.bits)) > 1:
            return StructuralMismatch, None, (k,)
    if isinstance(x, Cyclic):
        words = (len(e.word.bits) for e in y.entries)
        span = math.lcm(len(x.entries), *words)
    else:
        span = saturation_bound(x)
    values = [value_at(x, m) for m in range(span)]
    first = {}
    for m, v in enumerate(values):
        first.setdefault(v, m)
    carves = []
    for k, entry in enumerate(y.entries):
        bits = [binseq_value_at(entry, m) for m in range(span)]
        for m, v in enumerate(values):
            if bits[m] != bits[first[v]]:
                return ClauseViolation, 3, (k, first[v], m)
        carves.append(frozenset(v for v, bit in zip(values, bits) if bit))
    for k, carved in enumerate(carves):
        if not carved:
            return ClauseViolation, 2, (k,)
    for m, v in enumerate(values):
        if not any(v in carved for carved in carves):
            return ClauseViolation, 1, (m,)
    return tuple(carves)


def enumerate_points(universe, max_period):
    """Every validated point realizable with cyclic first coordinates over
    the universe: all cyclic codes up to the period bound, crossed with all
    covering families over each code's range."""
    points = []
    for length in range(1, max_period + 1):
        for combo in itertools.product(universe, repeat=length):
            x = Cyclic(combo)
            rng = sorted(set(combo), key=lambda a: (a.num, a.den))
            subs = [
                tuple(sub)
                for size in range(1, len(rng) + 1)
                for sub in itertools.combinations(rng, size)
            ]
            for mask in range(1, 2 ** len(subs)):
                family = [subs[i] for i in range(len(subs)) if mask >> i & 1]
                if set().union(*(set(s) for s in family)) != set(rng):
                    continue
                y = YSeq(tuple(pullback(x, AtomSet(s)) for s in family))
                points.append(PPoint(x, y))
    return points


def partition_indexes(items, key):
    """Partition of item indexes by a key function, as a set of frozensets."""
    groups = {}
    for i, item in enumerate(items):
        groups.setdefault(key(item), []).append(i)
    return frozenset(frozenset(g) for g in groups.values())


def reference_tokens(text):
    """Tokenizer oracle: a character scan returning (token, start) pairs.
    Tokens are parentheses and maximal runs of characters that are neither
    parentheses nor ``str.isspace``."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, i))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        tokens.append((text[i:j], i))
        i = j
    return tokens


# Characters a mutation may insert: structure, digits, a sign, a letter,
# ASCII and Unicode whitespace.
MUTATION_ALPHABET = "() 0129-x\t\u3000"


# The configuration of the values behind the generated parse corpora.
SERIAL_CFG = FuzzConfig(cases=0, max_period=4, max_entries=3, atom_universe=3)


def mutate_once(rng, text):
    """``text`` with one character deleted or inserted at a random place,
    or truncated there."""
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice(MUTATION_ALPHABET) + text[at:]
    return text[:at]


def mutated_texts(seed, n):
    """``n`` canonical texts of ``gen_serial_value`` values, each hit by 1-3
    single-character deletions, insertions or truncations.  Every draw
    comes from ``stream(seed, i)``, so the texts are the same on every run."""
    texts = []
    for i in range(n):
        rng = stream(seed, i)
        text = to_text(gen_serial_value(rng, SERIAL_CFG))
        for _ in range(rng.randint(1, 3)):
            text = mutate_once(rng, text)
        texts.append(text)
    return texts


# Every character for which str.isspace is true, in code point order.
WHITESPACE = "".join(filter(str.isspace, map(chr, range(sys.maxunicode + 1))))


def whitespace_texts(seed, n):
    """``n`` canonical texts of ``gen_serial_value`` values in which each
    single space becomes a run of 1-3 characters of WHITESPACE, and on a
    coin each side of each parenthesis gets such a run too.  Half of the
    texts are then hit by one :func:`mutate_once` edit.  Every draw comes
    from ``stream(seed, i)``."""
    texts = []
    for i in range(n):
        rng = stream(seed, i)

        def run():
            return "".join(rng.choice(WHITESPACE) for _ in range(rng.randint(1, 3)))

        parts = []
        for c in to_text(gen_serial_value(rng, SERIAL_CFG)):
            if c == " ":
                parts.append(run())
            elif c in "()":
                parts.extend((run() if rng.coin() else "", c, run() if rng.coin() else ""))
            else:
                parts.append(c)
        text = "".join(parts)
        texts.append(mutate_once(rng, text) if rng.coin() else text)
    return texts


# Characters inserted at the head of a text to make it look like a
# command-line option: the dash and the first letters of the CLI's flags.
OPTION_ALPHABET = "--hscamf"


def option_like_texts(seed, n):
    """The ``n`` texts of ``mutated_texts(seed, n)``, each with 1-3
    characters of OPTION_ALPHABET inserted at position 0 or 1 and then a
    leading "-", so that argparse could take any of them for an option
    ("-h(", "--s(cw 1)", ...).  Substream ``(seed, n + i)`` draws the
    insertions of text i."""
    texts = []
    for i, text in enumerate(mutated_texts(seed, n)):
        rng = stream(seed, n + i)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(2)
            text = text[:at] + rng.choice(OPTION_ALPHABET) + text[at:]
        texts.append("-" + text)
    return texts


def parse_outcome(text, entry):
    """What ``entry(text)`` does, as one line: ``"ok "`` and the repr of
    the value it returns, or the type, message and position (None unless
    a ParseError) of the error it raises."""
    try:
        return "ok " + repr(entry(text))
    except Exception as err:
        return f"{type(err).__name__} {err} @{getattr(err, 'position', None)}"
