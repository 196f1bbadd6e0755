import copy
import dataclasses
import fractions
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from carveq import (
    AtomSet,
    CycW,
    Cyclic,
    PPoint,
    PairMerge,
    Rational,
    Tag,
    WordAtom,
    YSeq,
    ZCode,
    binseq_eq,
    pullback,
)
from carveq.atoms import (
    CyclicWord,
    MAX_TAG_DEPTH,
    atom_eq,
    atom_sort_key,
    primitive_root,
)
from carveq.codes import binseq_class_rep
from carveq.serialize import parse_any, to_text

from helpers import R1, R2
from strategies import atoms, bitstrings


def test_rational_lowest_terms():
    assert Rational(2, 4) == Rational(1, 2)
    assert atom_eq(Rational(1, 2), Rational(2, 4))
    assert Rational(1, -2) == Rational(-1, 2)
    assert Rational(0, 7) == Rational(0, 1)
    with pytest.raises(ValueError):
        Rational(1, 0)


def test_tag_distinct_bits():
    assert not atom_eq(Tag(0, Rational(1, 1)), Tag(1, Rational(1, 1)))
    for bit in (2, True, 1.0):
        with pytest.raises(ValueError):
            Tag(bit, Rational(1, 1))


def test_tag_depth_cap_through_the_api():
    deep = Rational(1, 1)
    for _ in range(MAX_TAG_DEPTH):
        deep = Tag(1, deep)
    assert parse_any(to_text(deep)) == deep
    assert len(AtomSet.of(deep, Rational(2))) == 2
    with pytest.raises(ValueError):
        Tag(0, deep)
    # a 3,000-deep chain stops at the cap instead of recursing later
    with pytest.raises(ValueError):
        for _ in range(3000):
            deep = Tag(1, deep)


def test_tag_refuses_a_non_atom_inside():
    for build, inner in ((lambda: Tag(0, 5), 5), (lambda: Cyclic((Tag(0, "x"),)), "x")):
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == f"not an atom: {inner!r}"


def test_word_atom_canonicalizes():
    assert atom_eq(WordAtom("1010"), WordAtom("10"))
    assert WordAtom("1010").word.bits == "10"


def test_cyclic_word_rejects_bad_input():
    for bits in ("", "102", "10 ", "1\n0", "٠١"):
        with pytest.raises(ValueError, match=re.escape(f"bits must be a nonempty 0/1 string, got {bits!r}")):
            CyclicWord(bits)
    for bits, kind in ((["1", "0"], "list"), (b"10", "bytes"), (10, "int"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"bits must be a str, got {kind}"):
            CyclicWord(bits)


@given(bitstrings)
def test_primitive_root_idempotent(bits):
    root = primitive_root(bits)
    assert primitive_root(root) == root
    assert root * (len(bits) // len(root)) == bits


@given(bitstrings)
def test_primitive_root_minimal(bits):
    # no proper divisor-length prefix of the canonical word regenerates it
    root = primitive_root(bits)
    n = len(root)
    for d in range(1, n):
        if n % d == 0:
            assert root[:d] * (n // d) != root


@given(atoms, atoms)
def test_atom_order_trichotomy(a, b):
    ka, kb = atom_sort_key(a), atom_sort_key(b)
    lt, gt, eq = ka < kb, kb < ka, atom_eq(a, b)
    assert [lt, gt, eq].count(True) == 1


@given(atoms, atoms, atoms)
def test_atom_order_transitive(a, b, c):
    ka, kb, kc = atom_sort_key(a), atom_sort_key(b), atom_sort_key(c)
    if ka < kb and kb < kc:
        assert ka < kc


@given(atoms, atoms)
def test_sort_key_injective(a, b):
    assert (atom_sort_key(a) == atom_sort_key(b)) == atom_eq(a, b)


def test_atom_set_canonical_storage():
    s1 = AtomSet((Rational(2, 1), Rational(1, 1), Rational(2, 1)))
    s2 = AtomSet((Rational(1, 1), Rational(2, 1)))
    assert s1 == s2
    assert len(s1) == 2
    assert list(s1) == sorted(s1, key=atom_sort_key)


@given(st.lists(atoms, max_size=8))
def test_kept_hash_and_sort_key_match_for_trusted_sets(xs):
    built = AtomSet(tuple(xs))
    trusted = AtomSet._trusted(built.elements)
    for s in (built, trusted, built, trusted):  # first use computes, second reads back
        assert hash(s) == hash((built.elements,))
        assert s.sort_key() == (len(built), tuple(atom_sort_key(a) for a in built))
    assert built == trusted
    assert repr(built) == repr(trusted) == f"AtomSet(elements={built.elements!r})"


@given(atoms)
def test_kept_atom_hash_is_the_field_tuple_hash(a):
    # The generated dataclass hash would be the hash of the field tuple; set
    # iteration orders, and with them the golden bytes, rest on keeping it.
    if isinstance(a, Rational):
        assert hash(a) == hash((a.num, a.den))
    elif isinstance(a, Tag):
        assert hash(a) == hash((a.bit, a.inner))
    else:
        assert hash(a) == hash((a.word,))


def test_values_have_slots_and_unchanged_fields():
    x = PairMerge(ZCode((Cyclic((R1,)), Cyclic((R1, R2)))))
    pb = pullback(x, AtomSet.of(R2))
    # fill the pullback's kept representative before the layout is checked
    assert binseq_eq(pb, pb) and pb._rep == binseq_class_rep(pb)
    values_and_fields = (
        (CyclicWord("10"), ["bits"]),
        (R1, ["num", "den"]),
        (Tag(0, R1), ["bit", "inner"]),
        (WordAtom("10"), ["word"]),
        (AtomSet.of(R1, R2), ["elements"]),
        (AtomSet._trusted((R1,)), ["elements"]),
        (Cyclic((R1, R2)), ["entries"]),
        (x.z, ["entries"]),
        (x, ["z"]),
        (CycW("10"), ["word"]),
        (pb, ["base", "aset"]),
        (YSeq((pb, CycW("1"))), ["entries"]),
        (PPoint(x, YSeq((pb, CycW("1")))), ["x", "y", "carves"]),
    )
    for value, names in values_and_fields:
        assert not hasattr(value, "__dict__"), type(value)
        assert [f.name for f in dataclasses.fields(value)] == names
        # copies and pickles rebuild the kept slots
        for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert (again, hash(again), repr(again)) == (value, hash(value), repr(value))


def test_atom_set_operations():
    s = AtomSet.of(Rational(1, 1), Rational(2, 1))
    assert Rational(1, 1) in s and Rational(3, 1) not in s


@settings(derandomize=True, max_examples=500)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool))
def test_rational_is_the_fraction_in_lowest_terms(n, d):
    r, f = Rational(n, d), fractions.Fraction(n, d)
    assert (r.num, r.den) == (f.numerator, f.denominator) and r.den > 0
    assert type(r.num) is int and type(r.den) is int
    assert hash(r) == hash((f.numerator, f.denominator))


def test_rational_of_bools_holds_ints():
    r = Rational(True, True)
    assert r == Rational(1, 1) and type(r.num) is int and type(r.den) is int
