import itertools

import pytest
from hypothesis import given, settings, strategies as st

from carveq import (
    AtomSet,
    CycW,
    Cyclic,
    FuzzConfig,
    PairMerge,
    Pullback,
    Rational,
    Tag,
    WordAtom,
    YSeq,
    ZCode,
    binseq_eq,
    parse_any,
    pullback,
    rel_F,
    stream,
)
from carveq.codes import (
    binseq_class_rep,
    binseq_value_at,
    grid_cells,
    iota,
    range_set,
    saturation_bound,
    value_at,
)
from carveq.generators import gen_binseq
from carveq.invariants import g_invariant
from carveq.pairing import cantor_pair

from helpers import (
    BINSEQ_SAMPLES,
    PULL_001,
    R1,
    R2,
    R3,
    WORD_001,
    agree_below,
    binseq_sample,
    reference_binseq_eq,
    reference_pullback,
    represent,
    scan_first_indices,
    sequence_class,
    word_as_pullback,
)
from strategies import MIXED, OUTSIDE, mixed_bases, short_bitstrings

A, B = R1, R2
Z_AB = ZCode((Cyclic((A,)), Cyclic((A, B))))
PM = PairMerge(Z_AB)


def test_value_at_cyclic():
    x = Cyclic((A, B))
    assert value_at(x, 5) == B
    assert all(value_at(Cyclic((A,)), n) == A for n in range(20))


def test_value_at_pairmerge():
    assert value_at(PM, cantor_pair(1, 1)) == B
    assert value_at(PM, cantor_pair(0, 0)) == A
    assert value_at(PM, cantor_pair(0, 7)) == A  # row 0 is constant


def test_saturation_bound_cyclic():
    assert saturation_bound(Cyclic((A, B, A))) == 3


def test_saturation_bound_pairmerge():
    # oracle: enumerate the finite grid of row/period index pairs
    expected = 1 + max(
        cantor_pair(i, j)
        for i, row in enumerate(Z_AB.entries)
        for j in range(len(row.entries))
    )
    assert expected == 5
    assert saturation_bound(PM) == expected
    assert saturation_bound(PairMerge(ZCode((Cyclic((A,)),)))) == 1


def test_saturation_bound_is_tight():
    # The last grid cell, e(1, 1) = 4, holds the only copy of R3, so the
    # indexes below saturation_bound - 1 miss it.
    x = PairMerge(ZCode((Cyclic((R1, R2)), Cyclic((R1, R3)))))
    bound = saturation_bound(x)
    assert bound == 5 and cantor_pair(1, 1) == bound - 1
    assert AtomSet(tuple({value_at(x, n) for n in range(bound)})) == range_set(x)
    assert R3 not in {value_at(x, n) for n in range(bound - 1)}


def test_range_set():
    assert range_set(Cyclic((B, A, B))) == AtomSet.of(A, B)
    assert range_set(PM) == AtomSet.of(A, B)
    assert range_set(Cyclic((A,))) == AtomSet.of(A)


def test_values_beyond_bound_stay_in_range():
    cfg = FuzzConfig(cases=0)
    for i in range(300):
        rng = stream(7, i)
        if rng.coin():
            x = Cyclic(tuple(rng.choice(cfg.universe()) for _ in range(rng.randint(1, 6))))
        else:
            rows = tuple(
                Cyclic(tuple(rng.choice(cfg.universe()) for _ in range(rng.randint(1, 4))))
                for _ in range(rng.randint(1, 4))
            )
            x = PairMerge(ZCode(rows))
        bound = saturation_bound(x)
        rng_set = range_set(x)
        for n in range(bound, 10 * bound, max(1, bound // 3)):
            assert value_at(x, n) in rng_set
        first = scan_first_indices(x)
        assert rng_set == AtomSet(tuple(first))
        least = {}
        for n, a in grid_cells(x):
            assert value_at(x, n) == a
            least[a] = min(n, least.get(a, n))
        assert least == first


def test_binseq_eq_words():
    assert binseq_eq(CycW("10"), CycW("1010"))
    assert not binseq_eq(CycW("10"), CycW("01"))


@given(short_bitstrings, short_bitstrings)
def test_binseq_eq_words_matches_lcm_scan(w1, w2):
    import math

    u, v = CycW(w1), CycW(w2)
    span = math.lcm(len(w1), len(w2))
    assert binseq_eq(u, v) == agree_below(u, v, span)


def test_binseq_eq_pullback_vs_constantized():
    # the full-range pullback normalizes to the constant word, making this a
    # mixed comparison refuted at e(1,1)=4 where the proper pullback is 0
    u = pullback(PM, AtomSet.of(A))
    v = pullback(PM, AtomSet.of(A, B))
    assert isinstance(u, Pullback)
    assert v == CycW("1")
    assert not binseq_eq(u, v)
    assert binseq_value_at(u, cantor_pair(1, 1)) == 0


def test_binseq_eq_pullback_pullback_grid():
    za = ZCode((Cyclic((A,)), Cyclic((B,))))
    zb = ZCode((Cyclic((A,)), Cyclic((B,)), Cyclic((A,)), Cyclic((B,))))
    u = pullback(PairMerge(za), AtomSet.of(A))
    v = pullback(PairMerge(zb), AtomSet.of(A))
    assert isinstance(u, Pullback) and isinstance(v, Pullback)
    assert binseq_eq(u, v)
    assert agree_below(u, v, 2000)
    w = pullback(PairMerge(zb), AtomSet.of(B))
    assert not binseq_eq(u, w)


def test_binseq_eq_mixed_exact():
    base = PairMerge(ZCode((Cyclic((A,)), Cyclic((B,)))))
    pb = pullback(base, AtomSet.of(A))
    # bits of pb at k=0..3 are 1,0,1,1; the word repeats them with period 4
    word = CycW("1011")
    assert agree_below(word, pb, 4)
    assert binseq_eq(word, pb) is False and binseq_eq(pb, word) is False
    assert isinstance(PULL_001, Pullback)
    assert binseq_eq(WORD_001, PULL_001) is True and binseq_eq(PULL_001, WORD_001) is True
    assert agree_below(WORD_001, PULL_001, 5000)
    for u, v in ((word, pb), (WORD_001, PULL_001)):
        assert binseq_eq(u, v) == (sequence_class(u) == sequence_class(v))
    # a one-row pullback is never its row's word: e(i, j) reads j only
    one_row = pullback(PairMerge(ZCode((Cyclic((A, B)),))), AtomSet.of(A))
    assert isinstance(one_row, Pullback)
    assert not binseq_eq(one_row, CycW("10")) and not reference_binseq_eq(one_row, CycW("10"))


def test_binseq_eq_matches_grid_oracle_on_word_pullbacks():
    for length in range(2, 7):
        for bits in itertools.product("01", repeat=length):
            word = CycW("".join(bits))
            if word.word.is_constant() or len(word.word) < length:
                continue
            rotated = CycW(word.word.bits[1:] + word.word.bits[0])
            pb = word_as_pullback(word.word.bits)
            for v in (pb, represent(pb, 3, 5)):
                assert isinstance(v, Pullback)
                assert binseq_class_rep(v) == word.word.bits
                assert binseq_eq(word, v) and reference_binseq_eq(word, v)
                assert binseq_eq(rotated, v) == reference_binseq_eq(rotated, v) == (rotated == word)
            # the word's table repeats with period L only for odd L: for
            # even L, L of its rows, or L cells of each, are another sequence
            for shape in ((length, None), (None, length), (length, length)):
                v = word_as_pullback(word.word.bits, *shape)
                assert binseq_eq(word, v) == reference_binseq_eq(word, v) == (length % 2 == 1), shape


def test_a_pullback_whose_row_count_does_not_divide_2l_is_not_its_head_word():
    # Rows 0 and 1 read 0, as every row of the word 0 does, and its first
    # bit is 0; row 2 reads 010, so its 3 canonical rows do not divide 2L = 2.
    pb = parse_any(
        "(pull (pairmerge (zlist (cyc (rat 1 1)) (cyc (rat 1 1) (rat 1 1) (rat 1 1))"
        " (cyc (rat 2 1) (rat 3 1) (rat 2 1)))) (set (rat 3 1)))"
    )
    assert isinstance(pb, Pullback) and binseq_value_at(pb, 0) == 0
    assert binseq_class_rep(pb) == "|0|0|010"
    assert not binseq_eq(pb, CycW("0")) and not reference_binseq_eq(pb, CycW("0"))


@pytest.mark.parametrize("seed, cfg", BINSEQ_SAMPLES)
def test_binseq_eq_matches_grid_oracle_on_samples(seed, cfg):
    codes = dict.fromkeys(binseq_sample(seed, cfg))
    words = [c for c in codes if isinstance(c, CycW)]
    pulls = [c for c in codes if isinstance(c, Pullback)]
    mixed_equal = 0
    for u in words:
        for v in pulls:
            verdict = binseq_eq(u, v)
            assert verdict == reference_binseq_eq(u, v), (u, v)
            mixed_equal += verdict
    assert mixed_equal > 0
    # equal pullbacks re-presented with coprime repetition factors, and
    # each re-presentation against the other pullbacks
    for u in pulls:
        v = represent(u, 2, 3)
        assert binseq_eq(u, v) and binseq_eq(v, u) and reference_binseq_eq(u, v)
        for w in pulls[:20]:
            assert binseq_eq(v, w) == reference_binseq_eq(u, w), (u, w)


def test_binseq_eq_on_a_large_re_presented_pair():
    """Pullbacks over the same 77 row entries, rows repeated 17 and 23
    times and each row's entries 13 and 19 times: 50,666 atoms.  The grid
    oracle would scan lcm(85, 115) rows of up to lcm(377, 551) cells each,
    so it is not run; the representatives decide the pair."""
    lengths = (7, 11, 13, 17, 29)
    rows = tuple(
        Cyclic(tuple(Rational(1 + (i + j * j) % 6) for j in range(n))) for i, n in enumerate(lengths)
    )
    base = pullback(PairMerge(ZCode(rows)), AtomSet.of(Rational(1), Rational(3)))
    u, v = represent(base, 17, 13), represent(base, 23, 19)
    assert sum(len(row.entries) for w in (u, v) for row in w.base.z.entries) == 50_666
    assert isinstance(u, Pullback) and isinstance(v, Pullback) and u != v
    assert binseq_eq(u, v) and binseq_eq(v, base)
    assert g_invariant(YSeq((u,))) == g_invariant(YSeq((v,)))


@pytest.mark.parametrize("seed, cfg", BINSEQ_SAMPLES)
def test_binseq_eq_matches_row_table_oracle(seed, cfg):
    codes = binseq_sample(seed, cfg)
    names = [sequence_class(c) for c in codes]
    mixed_equal = 0
    for u, nu in zip(codes, names):
        for v, nv in zip(codes, names):
            verdict = binseq_eq(u, v)
            assert verdict == (nu == nv), (u, v)
            mixed_equal += verdict and isinstance(u, Pullback) != isinstance(v, Pullback)
    assert mixed_equal > 0


def test_binseq_eq_equivalence_on_comparables():
    cfg = FuzzConfig(cases=0, max_period=4, max_entries=3)
    codes = []
    for i in range(60):
        rng = stream(11, i)
        codes.append(gen_binseq(rng, cfg))
    pairs = [(u, v) for u in codes for v in codes]
    for u, v in pairs[:400]:
        assert binseq_eq(u, u) and binseq_eq(v, v)
        assert binseq_eq(u, v) == binseq_eq(v, u)
    rng = stream(12, 0)
    for _ in range(400):
        u, v = pairs[rng.randrange(len(pairs))]
        v2, w = pairs[rng.randrange(len(pairs))]
        if binseq_eq(u, v) and binseq_eq(v, w):
            assert binseq_eq(u, w)


def test_pullback_normalization():
    x = Cyclic((A, B, A))
    assert pullback(x, AtomSet.of(A)) == CycW("101")
    assert pullback(x, AtomSet.of(A, B)) == CycW("1")
    assert pullback(x, AtomSet(())) == CycW("0")
    # stored set is clipped to the base range
    c = Rational(3, 1)
    pb = pullback(PM, AtomSet.of(A, c))
    assert isinstance(pb, Pullback)
    assert pb.aset == AtomSet.of(A)


@pytest.mark.parametrize(
    "cls, good, bad, empty, must_be",
    [
        (Cyclic, A, CycW("1"), "Cyclic needs at least one entry", "Cyclic entries must be atoms"),
        (ZCode, Cyclic((A,)), A, "ZCode needs at least one row", "ZCode rows must be Cyclic codes"),
        (YSeq, CycW("1"), Cyclic((A,)), "YSeq needs at least one entry", "YSeq entries must be binary-sequence codes"),
    ],
)
def test_cyclic_list_codes_check_their_entries(cls, good, bad, empty, must_be):
    # Any iterable of entries is stored as a tuple; an empty one and an
    # entry of the wrong kind are refused with these exact messages.
    assert cls([good, good]).entries == (good, good)
    with pytest.raises(ValueError) as err:
        cls(())
    assert str(err.value) == empty
    with pytest.raises(TypeError) as err:
        cls((good, bad))
    assert str(err.value) == f"{must_be}, got {bad!r}"


def test_pullback_constructor_rejects_unnormalized():
    with pytest.raises(ValueError):
        Pullback(Cyclic((A, B)), AtomSet.of(A))
    with pytest.raises(ValueError):
        Pullback(PM, AtomSet.of(A, B))


def test_pullback_gate_on_pair_merge():
    w, t = WordAtom("01"), Tag(0, A)
    base = PairMerge(ZCode((Cyclic((A, t)), Cyclic((w, A)))))
    # empty, full, and one atom outside the range in a set smaller than it
    for bad in (AtomSet(()), AtomSet.of(A, t, w), AtomSet.of(A, Rational(5, 1))):
        with pytest.raises(ValueError):
            Pullback(base, bad)
    assert Pullback(base, AtomSet.of(t, w)).aset == AtomSet.of(t, w)


@settings(derandomize=True)
@given(
    mixed_bases,
    st.lists(st.sampled_from(MIXED + (OUTSIDE,)), max_size=7),
    st.sampled_from(("drawn", "empty", "full", "full+outside")),
)
def test_pullback_matches_reference(base, picked, kind):
    full = tuple(range_set(base))
    aset = {
        "drawn": AtomSet(tuple(picked)),
        "empty": AtomSet(()),
        "full": AtomSet(full),
        "full+outside": AtomSet(full + (OUTSIDE,)),
    }[kind]
    assert pullback(base, aset) == reference_pullback(base, aset)


@settings(derandomize=True)
@given(mixed_bases, mixed_bases)
def test_rel_f_is_range_set_equality(x, x2):
    assert rel_F(x, x2) == (range_set(x) == range_set(x2))


def test_code_constructors_reject_garbage():
    with pytest.raises(ValueError):
        Cyclic(())
    with pytest.raises(TypeError):
        Cyclic((1, 2))
    with pytest.raises(TypeError):
        ZCode((Cyclic((A,)), "row"))
    with pytest.raises(TypeError):
        YSeq((CycW("1"), "bits"))
    with pytest.raises(TypeError):
        PairMerge(Cyclic((A,)))
    with pytest.raises(TypeError):
        WordAtom(5)


def test_iota_is_tag_constructor():
    assert iota(Rational(1, 1), 0) == Tag(0, Rational(1, 1))
    assert iota(Rational(1, 1), 1) == Tag(1, Rational(1, 1))
    # structural equality of terms gives injectivity
    assert iota(A, 0) != iota(A, 1)
    assert iota(A, 0) != iota(B, 0)
