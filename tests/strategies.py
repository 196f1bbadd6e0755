"""Hypothesis strategies for the constructors of the code algebra, shared by
the property tests.

Bases draw their atoms from ``MIXED``, a few atoms of every variant, so that
rows share values and pullbacks over them are proper; ``OUTSIDE`` is in no
base.  The value strategies in ``SERIAL_KINDS`` cover every constructor the
serializer prints.
"""

from hypothesis import strategies as st

from carveq import (
    AtomSet,
    CycW,
    Cyclic,
    PPoint,
    PairMerge,
    Pullback,
    Rational,
    Tag,
    WordAtom,
    YSeq,
    ZCode,
    pullback,
    range_set,
)

from helpers import R1, R2

rationals = st.builds(Rational, st.integers(-50, 50), st.integers(1, 30))
words = st.builds(WordAtom, st.text(alphabet="01", min_size=1, max_size=8))
atoms = st.recursive(
    rationals | words,
    lambda inner: st.builds(Tag, st.integers(0, 1), inner),
    max_leaves=4,
)
tags = st.builds(Tag, st.integers(0, 1), atoms)
bitstrings = st.text(alphabet="01", min_size=1, max_size=24)
short_bitstrings = st.text(alphabet="01", min_size=1, max_size=10)
cycws = st.builds(CycW, bitstrings)
cyclics = st.lists(atoms, min_size=1, max_size=5).map(lambda es: Cyclic(tuple(es)))

MIXED = (R1, R2, Tag(0, R1), Tag(1, WordAtom("01")), WordAtom("01"), WordAtom("011"))
OUTSIDE = Rational(-7, 3)
mixed_rows = st.lists(st.sampled_from(MIXED), min_size=1, max_size=4).map(lambda es: Cyclic(tuple(es)))
zcodes = st.lists(mixed_rows, min_size=1, max_size=3).map(lambda rows: ZCode(tuple(rows)))
pair_merges = zcodes.map(PairMerge)
mixed_bases = mixed_rows | pair_merges

# ASCII whitespace (including the separators \x1c-\x1f), three Unicode
# spaces, the non-whitespace U+200B, parentheses and token characters.
TOKEN_TEXTS = st.text(alphabet="() \t\n\r\x0b\x0c\x1c\x1f\u00a0\u2003\u3000\u200b01ax-", max_size=40)


def subsets(base, max_size=None):
    """Nonempty subsets of the range of ``base``, as AtomSets."""
    full = range_set(base).elements
    return st.lists(st.sampled_from(full), min_size=1, max_size=max_size, unique=True).map(
        lambda picked: AtomSet(tuple(picked))
    )


@st.composite
def proper_pullbacks(draw):
    """Pullbacks that survive normalization: a pair-merge base and a proper
    nonempty subset of its range."""
    base = draw(pair_merges.filter(lambda b: len(range_set(b)) >= 2))
    return Pullback(base, draw(subsets(base, max_size=len(range_set(base)) - 1)))


yseqs = st.lists(cycws | proper_pullbacks(), min_size=1, max_size=4).map(lambda es: YSeq(tuple(es)))


@st.composite
def ppoints(draw):
    """Valid points: a family of nonempty subsets of range(x), completed to
    cover it.  Each subset becomes its pullback or, over a cyclic x, the
    word of one x-period that carves it."""
    x = draw(mixed_bases)
    family = draw(st.lists(subsets(x), min_size=1, max_size=4))
    missing = set(range_set(x).elements).difference(*(s.elements for s in family))
    if missing:
        family.append(AtomSet(tuple(missing)))
    entries = []
    for s in family:
        if isinstance(x, Cyclic) and draw(st.booleans()):
            entries.append(CycW("".join("1" if a in s.elements else "0" for a in x.entries)))
        else:
            entries.append(pullback(x, s))
    return PPoint(x, YSeq(tuple(entries)))


SERIAL_KINDS = {
    "rational": rationals,
    "word": words,
    "tag": tags,
    "cyclic": cyclics,
    "zcode": zcodes,
    "pairmerge": pair_merges,
    "cycw": cycws,
    "pullback": proper_pullbacks(),
    "yseq": yseqs,
    "ppoint": ppoints(),
}
