import itertools

import pytest

from carveq import (
    ATOM_EQ,
    AtomSet,
    CycW,
    Cyclic,
    F_REL,
    FuzzConfig,
    PPoint,
    PairMerge,
    Pullback,
    ResourceLimit,
    YSeq,
    ZCode,
    binseq_eq,
    closed_form,
    count_classes,
    e_invariant,
    fs2_invariant,
    jump,
    pullback,
    rel_E,
    rel_F,
    rel_G,
    stream,
)
from carveq.atoms import canonical_family, primitive_root
from carveq.codes import binseq_class_rep, range_set
from carveq.generators import (
    gen_binseq,
    gen_cyclic_pair,
    gen_infiber_pair,
    gen_subset,
    gen_yseq_pair,
    gen_zcode_pair,
)
from carveq.invariants import g_invariant

from helpers import (
    BINSEQ_SAMPLES,
    PULL_001,
    R1,
    R2,
    R3,
    R4,
    UNIVERSE3,
    WORD_001,
    binseq_sample,
    enumerate_points,
    naive_carve,
    partition_indexes,
    sequence_class,
)

CFG = FuzzConfig(cases=0, atom_universe=4, max_period=5, max_entries=4)


def test_canonical_family():
    fam1 = canonical_family((AtomSet.of(R1, R2), AtomSet.of(R3), AtomSet.of(R3), AtomSet.of(R1)))
    fam2 = canonical_family([AtomSet.of(R1), AtomSet.of(R2, R1), AtomSet.of(R3)])
    # duplicates and input order collapse; size first, then atom order
    assert fam1 == fam2 == (AtomSet.of(R1), AtomSet.of(R3), AtomSet.of(R1, R2))
    assert canonical_family(()) == ()


def test_f_key_examples():
    z = ZCode((Cyclic((R1,)), Cyclic((R1, R2))))
    for x in (Cyclic((R2, R1)), PairMerge(z)):
        assert F_REL.key(x) == frozenset({R1, R2})
        assert range_set(x) == AtomSet.of(R1, R2)


def test_f_key_agrees_with_rel_f():
    for i in range(1000):
        rng = stream(101, i)
        x, x2 = gen_cyclic_pair(rng, CFG)
        assert (F_REL.key(x) == F_REL.key(x2)) == rel_F(x, x2)


def test_e_invariant_display_value():
    blue, red, green, yellow = R1, R2, R3, R4
    x = Cyclic((blue, red, green, yellow))
    p = PPoint(x, YSeq((CycW("0011"), CycW("1110"), CycW("0101"))))
    assert e_invariant(p) == (
        AtomSet.of(red, yellow),
        AtomSet.of(green, yellow),
        AtomSet.of(blue, red, green),
    )
    duplicated = PPoint(x, YSeq(p.y.entries + p.y.entries))
    assert e_invariant(duplicated) == e_invariant(p)


def test_e_invariant_agrees_with_rel_e():
    for i in range(1000):
        rng = stream(103, i)
        base = gen_subset(rng, CFG.universe())
        p, q, _ = gen_infiber_pair(rng, CFG, base_atoms=base)
        assert (e_invariant(p) == e_invariant(q)) == rel_E(p, q)


def test_fs2_invariant_examples():
    z = ZCode((Cyclic((R1,)), Cyclic((R1, R2))))
    assert fs2_invariant(z) == (AtomSet.of(R1), AtomSet.of(R1, R2))
    z3 = ZCode((Cyclic((R1,)),) * 3)
    assert fs2_invariant(z3) == (AtomSet.of(R1),)


def test_fs2_invariant_agrees_with_double_jump():
    jj = jump(jump(ATOM_EQ))
    for i in range(1000):
        rng = stream(107, i)
        z, z2 = gen_zcode_pair(rng, CFG)
        assert (fs2_invariant(z) == fs2_invariant(z2)) == jj.decide(z, z2)


def test_g_invariant_examples():
    assert g_invariant(YSeq((CycW("1010"), CycW("10")))) == frozenset({"10"})
    assert g_invariant(YSeq((CycW("10"), CycW("01")))) == frozenset({"10", "01"})


def test_g_invariant_agrees_with_rel_g():
    checked = 0
    for i in range(1000):
        rng = stream(109, i)
        y, y2 = gen_yseq_pair(rng, CFG)
        assert (g_invariant(y) == g_invariant(y2)) == rel_G(y, y2)
        checked += 1
    assert checked == 1000


def test_g_invariant_pullback_reps():
    za = ZCode((Cyclic((R1,)), Cyclic((R2,))))
    zb = ZCode((Cyclic((R1,)), Cyclic((R2,)), Cyclic((R1,)), Cyclic((R2,))))
    u = pullback(PairMerge(za), AtomSet.of(R1))
    v = pullback(PairMerge(zb), AtomSet.of(R1))
    assert binseq_class_rep(u) == binseq_class_rep(v) == "|1|0"
    assert binseq_eq(u, v)
    w = pullback(PairMerge(za), AtomSet.of(R2))
    assert binseq_class_rep(w) != binseq_class_rep(u)
    assert not binseq_eq(u, w)


def test_g_invariant_agreement_includes_pullbacks():
    cfg = FuzzConfig(cases=0, atom_universe=3, max_period=3, max_entries=3)
    entries = []
    for i in range(120):
        rng = stream(113, i)
        entries.append(gen_binseq(rng, cfg))
    for i, u in enumerate(entries):
        for v in entries[i:]:
            yu, yv = YSeq((u,)), YSeq((v,))
            assert (g_invariant(yu) == g_invariant(yv)) == rel_G(yu, yv)


@pytest.mark.parametrize("seed, cfg", BINSEQ_SAMPLES)
def test_g_invariant_matches_rel_g_on_oracle_samples(seed, cfg):
    ys = [YSeq((c,)) for c in binseq_sample(seed, cfg)]
    invariants = [g_invariant(y) for y in ys]
    for y, gy in zip(ys, invariants):
        for y2, gy2 in zip(ys, invariants):
            assert (gy == gy2) == rel_G(y, y2), (y, y2)


def test_g_invariant_names_word_equal_pullback_as_word():
    assert isinstance(PULL_001, Pullback)
    assert binseq_class_rep(PULL_001) == binseq_class_rep(WORD_001) == "001"
    assert g_invariant(YSeq((PULL_001, CycW("1")))) == g_invariant(YSeq((CycW("1"), WORD_001)))


def test_word_row_table_period():
    """From the word side of the lemma in codes.binseq_class_rep: the row
    list of a primitive word of length L has primitive period L (odd L) or
    2L (even L), so a pullback over s rows equal to it has L | s."""
    for length in range(1, 11):
        for bits in itertools.product("01", repeat=length):
            word = "".join(bits)
            if primitive_root(word) == word:
                rows = len(sequence_class(CycW(word)))
                assert rows == (length if length % 2 else 2 * length), word


def test_count_classes_closed_forms():
    assert [count_classes("F", n) for n in (1, 2, 3)] == [1, 3, 7]
    assert [count_classes("E", n) for n in (1, 2, 3)] == [1, 7, 127]
    assert count_classes("E", 4) == closed_form("E", 4) == 32767
    assert all(closed_form("F", n) == 2**n - 1 for n in (1, 2, 3))
    assert all(closed_form("E", n) == 2 ** (2**n - 1) - 1 for n in (1, 2, 3))


def test_count_classes_e_goes_through_real_points(monkeypatch):
    from carveq import invariants

    calls = {"pullback": 0, "point": 0}

    def counted_pullback(x, aset):
        calls["pullback"] += 1
        return pullback(x, aset)

    def counted_point(x, y):
        calls["point"] += 1
        assert all(isinstance(e, (CycW, Pullback)) for e in y.entries)
        return PPoint(x, y)

    monkeypatch.setattr(invariants, "pullback", counted_pullback)
    monkeypatch.setattr(invariants, "PPoint", counted_point)
    assert count_classes("E", 3) == 127
    # one pullback per nonempty subset per base: sum_r C(3, r)(2^r - 1)
    assert calls["pullback"] == 3 * 1 + 3 * 3 + 1 * 7
    # every covering family is one validated point, and each is its own class
    assert calls["point"] == 127


def test_count_classes_e_carves_each_base_word_once(monkeypatch):
    # Validation reads each word entry from its base's kept table: the 127
    # families of n=3 compute one carve per (base, word), 3 * 1 + 3 * 3 + 7
    # in all, call carve_pair only for each base's first full word, and
    # decide clause (1) by the cell masks alone, never by the atom union.
    from carveq import relations

    computed, calls = {}, {}
    carve_pairs = []
    word_carve, carve_pair = relations._word_carve, relations.carve_pair

    def counted_word_carve(x, word):
        key = x, word.bits
        calls[key] = calls.get(key, 0) + 1
        if x._carves is None or word.bits not in x._carves:
            computed[key] = computed.get(key, 0) + 1
        return word_carve(x, word)

    def counted_carve_pair(x, entry):
        carve_pairs.append((x, entry))
        return carve_pair(x, entry)

    def no_union(x):
        raise AssertionError("clause (1) over a cyclic base read the atom union")

    monkeypatch.setattr(relations, "_word_carve", counted_word_carve)
    monkeypatch.setattr(relations, "carve_pair", counted_carve_pair)
    monkeypatch.setattr(relations, "range_atoms", no_union)
    assert count_classes("E", 3) == 127
    assert len(computed) == 3 * 1 + 3 * 3 + 7 and set(computed.values()) == {1}
    assert set(calls) == set(computed) and max(calls.values()) <= 2
    assert len(carve_pairs) == len({x for x, _ in carve_pairs}) == 7
    assert all(entry == CycW("1") for _, entry in carve_pairs)


@pytest.mark.parametrize("n, families", ((1, 1), (2, 7), (3, 127)))
def test_count_classes_e_spends_one_step_per_family(monkeypatch, n, families):
    from carveq import invariants

    steps = []
    spend = invariants._Budget.spend

    def counted(budget, amount=1):
        steps.append(amount)
        return spend(budget, amount)

    monkeypatch.setattr(invariants._Budget, "spend", counted)
    assert count_classes("E", n) == closed_form("E", n) == families
    assert len(steps) == sum(steps) == families


def test_count_classes_monotone():
    f_counts = [count_classes("F", n) for n in (1, 2, 3, 4)]
    assert f_counts == sorted(f_counts)
    e_counts = [count_classes("E", n) for n in (1, 2, 3)]
    assert e_counts == sorted(e_counts)


def test_count_classes_validation_and_cap(monkeypatch):
    from carveq import invariants

    with pytest.raises(ValueError):
        count_classes("F", 0)
    with pytest.raises(TypeError):
        count_classes("F", 3, max_period=5)  # periods stop at n: test_longer_periods_add_no_f_class
    with pytest.raises(ValueError):
        count_classes("X", 2)
    monkeypatch.setattr(invariants, "ENUM_CAP", 50)
    with pytest.raises(ResourceLimit):
        count_classes("E", 3)


def test_count_classes_refuses_before_enumerating(monkeypatch):
    from carveq import invariants

    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(invariants._Budget, "spend", started)
    monkeypatch.setattr(invariants, "atom_universe", started)
    with pytest.raises(ResourceLimit):
        count_classes("E", 5)  # 2,147,483,647 families
    with pytest.raises(ResourceLimit):
        count_classes("F", 7)  # 1*7 + 2*49 + ... + 7*7^7 entries
    with pytest.raises(ResourceLimit):
        count_classes("F", 10**9)
    # the closed forms are exact: a cap one below the step count refuses
    monkeypatch.setattr(invariants, "ENUM_CAP", 126)
    with pytest.raises(ResourceLimit):
        count_classes("E", 3)
    monkeypatch.setattr(invariants, "ENUM_CAP", 101)
    with pytest.raises(ResourceLimit):
        count_classes("F", 3)  # 3 + 18 + 81 entries
    monkeypatch.undo()
    monkeypatch.setattr(invariants, "ENUM_CAP", 127)
    assert count_classes("E", 3) == 127
    monkeypatch.setattr(invariants, "ENUM_CAP", 102)
    assert count_classes("F", 3) == 7


@pytest.mark.parametrize("n", (1, 2, 3))
def test_longer_periods_add_no_f_class(n):
    """count_classes("F", n) stops at period n: codes of period up to n + 2
    have the same range sets, 2^n - 1 of them."""
    universe = UNIVERSE3[:n]

    def ranges(max_period):
        return {
            frozenset(combo)
            for length in range(1, max_period + 1)
            for combo in itertools.product(universe, repeat=length)
        }

    assert ranges(n + 2) == ranges(n)
    assert len(ranges(n)) == 2**n - 1 == count_classes("F", n)


def test_f_key_separates_exhaustively():
    codes = [
        Cyclic(combo)
        for length in range(1, 4)
        for combo in itertools.product(UNIVERSE3, repeat=length)
    ]
    assert len(codes) == 39
    by_key = partition_indexes(codes, F_REL.key)
    by_native = partition_indexes(codes, lambda c: sum(1 << UNIVERSE3.index(a) for a in set(c.entries)))
    assert by_key == by_native == partition_indexes(codes, range_set)
    assert len(by_key) == 7


def test_e_invariant_separates_exhaustively():
    points = enumerate_points(UNIVERSE3, 3)
    # 9 codes with 1-atom range x 1 covering family, 24 with 2-atom range x 5,
    # 6 with 3-atom range x 109 (127 families minus 18 non-covering)
    assert len(points) == 9 * 1 + 24 * 5 + 6 * 109 == 783

    def native_family(p):
        return frozenset(naive_carve(p.x, entry) for entry in p.y.entries)

    by_invariant = partition_indexes(points, e_invariant)
    by_native = partition_indexes(points, native_family)
    assert by_invariant == by_native
    assert len(by_invariant) == 127


def test_fs2_invariant_separates_exhaustively():
    rows = [
        Cyclic(combo)
        for length in (1, 2)
        for combo in itertools.product((R1, R2), repeat=length)
    ]
    zcodes = [ZCode((r,)) for r in rows] + [ZCode((r, s)) for r in rows for s in rows]
    assert len(zcodes) == 6 + 36
    by_invariant = partition_indexes(zcodes, fs2_invariant)
    by_native = partition_indexes(
        zcodes, lambda z: frozenset(frozenset(row.entries) for row in z.entries)
    )
    assert by_invariant == by_native


def _native_word_root(bits):
    # independent primitive-root oracle: the least nonzero shift at which the
    # doubled string finds the word again is its smallest cyclic period, and
    # for that minimal shift it divides the length
    return bits[: (bits + bits).index(bits, 1)]


def test_g_invariant_separates_exhaustively_on_words():
    words = [
        "".join(bits)
        for length in (1, 2, 3)
        for bits in itertools.product("01", repeat=length)
    ]
    yseqs = [YSeq((CycW(w),)) for w in words] + [
        YSeq((CycW(w), CycW(v))) for w in words for v in words
    ]
    by_invariant = partition_indexes(yseqs, g_invariant)
    by_native = partition_indexes(
        yseqs,
        lambda y: frozenset(_native_word_root(e.word.bits) for e in y.entries),
    )
    assert by_invariant == by_native


def test_invariants_order_insensitive():
    for i in range(300):
        rng = stream(127, i)
        base = gen_subset(rng, CFG.universe())
        p, _, _ = gen_infiber_pair(rng, CFG, base_atoms=base)
        shuffled = PPoint(p.x, YSeq(tuple(rng.shuffle(p.y.entries))))
        assert e_invariant(shuffled) == e_invariant(p)
        z, _ = gen_zcode_pair(rng, CFG)
        zshuf = ZCode(tuple(rng.shuffle(z.entries)))
        assert fs2_invariant(zshuf) == fs2_invariant(z)
        y, _ = gen_yseq_pair(rng, CFG)
        yshuf = YSeq(tuple(rng.shuffle(y.entries)))
        assert g_invariant(yshuf) == g_invariant(y)
