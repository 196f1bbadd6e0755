import dataclasses
import itertools
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from carveq import (
    ATOM_EQ,
    AtomSet,
    ClauseViolation,
    CycW,
    Cyclic,
    DomainViolation,
    E_REL,
    EqRelHandle,
    F_REL,
    G_REL,
    FuzzConfig,
    PPoint,
    PairMerge,
    Pullback,
    Rational,
    StructuralMismatch,
    YSeq,
    ZCode,
    binseq_eq,
    carve,
    carve_family,
    e_invariant,
    fiber_reduction,
    jump,
    product,
    pullback,
    rel_E,
    rel_F,
    rel_G,
    stream,
)
from carveq.atoms import CyclicWord, atom_eq, primitive_root
from carveq.codes import range_set
from carveq.generators import (
    gen_binseq,
    gen_cyclic,
    gen_cyclic_pair,
    gen_infiber_pair,
    gen_ppoint,
    gen_subset,
    gen_yseq_words,
    gen_zcode,
)
from carveq.reductions import embed_fs2
from carveq.relations import _word_carve, carve_pair
from carveq.serialize import to_text

from helpers import (
    PULL_001,
    R1,
    R2,
    R3,
    R4,
    WORD_001,
    forall_exists,
    naive_carve,
    naive_clause3_ok,
    partition_classes,
    reference_binseq_eq,
    reference_membership,
)
from strategies import cyclics, yseqs, zcodes

CFG = FuzzConfig(cases=0, atom_universe=4, max_period=5, max_entries=4)

BLUE, RED, GREEN, YELLOW = R1, R2, R3, R4
DISPLAY_X = Cyclic((BLUE, RED, GREEN, YELLOW))
DISPLAY_Y = YSeq((CycW("0011"), CycW("1110"), CycW("0101")))
DISPLAY_POINT = PPoint(DISPLAY_X, DISPLAY_Y)


def test_jump_examples():
    j = jump(ATOM_EQ)
    assert j.decide(Cyclic((R1, R2)), Cyclic((R2, R1, R2)))
    assert not j.decide(Cyclic((R1,)), Cyclic((R1, R2)))
    jj = jump(jump(ATOM_EQ))
    za = ZCode((Cyclic((R1,)), Cyclic((R1, R2))))
    zb = ZCode((Cyclic((R1, R2)), Cyclic((R1,)), Cyclic((R1, R2))))
    assert jj.decide(za, zb)


def reshuffled(rng, code, row=lambda entry: entry):
    """``code``'s entries shuffled, each passed through ``row``, with one of
    them repeated: a code that the jump relates to ``code`` when ``row``
    keeps each entry's class."""
    entries = [row(entry) for entry in rng.shuffle(code.entries)]
    entries.append(rng.choice(entries))
    return type(code)(tuple(entries))


def assert_both_verdicts_common(verdicts):
    """Each verdict decides at least a third of the pairs, so an oracle
    test sees enough related pairs to tell a wrong key from a right one."""
    assert min(verdicts.count(True), verdicts.count(False)) >= len(verdicts) / 3


def test_jump_matches_partition_oracle():
    j = jump(ATOM_EQ)
    verdicts = []
    for i in range(300):
        rng = stream(41, i)
        u = gen_cyclic(rng, CFG.universe(), 4)
        v = reshuffled(rng, u) if rng.coin() else gen_cyclic(rng, CFG.universe(), 4)
        classes = partition_classes(list(u.entries) + list(v.entries), lambda a, b: a == b)
        reps_u = {id(c) for c in classes for a in u.entries if a in c}
        reps_v = {id(c) for c in classes for a in v.entries if a in c}
        verdicts.append(j.decide(u, v))
        assert verdicts[-1] == (reps_u == reps_v)
    assert_both_verdicts_common(verdicts)


def test_jump_of_f_matches_partition_oracle():
    jf = jump(F_REL)
    verdicts = []
    for i in range(200):
        rng = stream(42, i)
        u = gen_zcode(rng, CFG.universe(), 3, 4)
        if rng.coin():
            v = reshuffled(rng, u, lambda row: Cyclic(tuple(rng.shuffle(row.entries))))
        else:
            v = gen_zcode(rng, CFG.universe(), 3, 4)
        rows = list(u.entries) + list(v.entries)
        classes = partition_classes(rows, rel_F)
        reps_u = {id(c) for c in classes for r in u.entries if any(r is m for m in c)}
        reps_v = {id(c) for c in classes for r in v.entries if any(r is m for m in c)}
        verdicts.append(jf.decide(u, v))
        assert verdicts[-1] == (reps_u == reps_v)
    assert_both_verdicts_common(verdicts)


@st.composite
def operand_pairs(draw, codes):
    """Two codes of one kind.  Half the time the second is the first's
    entries reshuffled with one of them repeated, which keeps every class
    (the flag says so); otherwise it is an independent draw."""
    u = draw(codes)
    if not draw(st.booleans()):
        return u, draw(codes), False
    entries = list(draw(st.permutations(u.entries)))
    entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(u.entries)))
    return u, type(u)(tuple(entries)), True


def _keyed_jump_agrees(handle, element_rel, pair):
    u, v, related = pair
    verdict = forall_exists(u.entries, v.entries, element_rel)
    assert handle.decide(u, v) == verdict
    assert verdict or not related


@settings(derandomize=True, max_examples=300)
@given(operand_pairs(cyclics))
def test_keyed_jump_of_atom_eq_matches_forall_exists(pair):
    _keyed_jump_agrees(jump(ATOM_EQ), atom_eq, pair)


@settings(derandomize=True, max_examples=300)
@given(operand_pairs(zcodes))
def test_keyed_double_jump_matches_forall_exists(pair):
    _keyed_jump_agrees(
        jump(jump(ATOM_EQ)), lambda r, s: forall_exists(r.entries, s.entries, atom_eq), pair
    )


@settings(derandomize=True, max_examples=300)
@given(operand_pairs(zcodes))
def test_keyed_jump_of_f_matches_forall_exists(pair):
    _keyed_jump_agrees(jump(F_REL), rel_F, pair)


@settings(derandomize=True, max_examples=300)
@given(operand_pairs(yseqs))
def test_rel_g_matches_forall_exists_of_reference_binseq_eq(pair):
    u, v, related = pair
    verdict = forall_exists(u.entries, v.entries, reference_binseq_eq)
    assert rel_G(u, v) == verdict
    assert verdict or not related


# The decisions over finite entry lists (README "Finite bounds"): the codes
# each takes, the decision and the relation between entries.
ENTRY_LIST_DECISIONS = {
    "jump(ATOM_EQ)": (cyclics, jump(ATOM_EQ).decide, atom_eq),
    "jump(F_REL)": (zcodes, jump(F_REL).decide, rel_F),
    "rel_G": (yseqs, rel_G, binseq_eq),
}


@pytest.mark.parametrize("name", sorted(ENTRY_LIST_DECISIONS))
@settings(derandomize=True, max_examples=100)
@given(data=st.data())
def test_jump_entry_list_suffices(name, data):
    """A code whose entry list is repeated 2-3 times decides as the code
    itself against any partner, on either side: reading past one list
    finds no class that the list does not hit."""
    codes, decide, _ = ENTRY_LIST_DECISIONS[name]
    u, v, _ = data.draw(operand_pairs(codes))
    longer = type(u)(u.entries * data.draw(st.integers(2, 3)))
    assert decide(longer, v) == decide(u, v)
    assert decide(v, longer) == decide(v, u)
    assert decide(longer, u)


@pytest.mark.parametrize("name", sorted(ENTRY_LIST_DECISIONS))
@settings(derandomize=True, max_examples=100)
@given(data=st.data())
def test_jump_entry_list_is_tight(name, data):
    """When a code's last entry is the only one of its class, the code is
    unrelated to the partner that has a copy of its first entry in that
    place: the two agree on ``entries[:-1]``, so a key read over those
    differs from the full key, and no shorter read of the list decides."""
    codes, decide, element_rel = ENTRY_LIST_DECISIONS[name]
    u = data.draw(codes)
    last = u.entries[-1]
    others = tuple(e for e in u.entries[:-1] if not element_rel(e, last))
    assume(others)
    assert not decide(type(u)(others + (last,)), type(u)(others + others[:1]))


def test_jump_of_a_keyless_relation_raises():
    with pytest.raises(ValueError, match="'keyless'"):
        jump(EqRelHandle("keyless", atom_eq))


def test_keyed_jump_reads_each_key_once_and_never_decides():
    calls = []

    def refuse(a, b):
        raise AssertionError("a keyed jump called its element relation's decide")

    def counted(a):
        calls.append(a)
        return a

    j = jump(EqRelHandle("counted", refuse, key=counted))
    jj = jump(j)
    codes = [Cyclic(es) for es in ((R1,), (R1, R2), (R2, R1, R2), (R3, R3), (R1, R2, R3, R4))]
    for u in codes:
        for v in codes:
            calls.clear()
            assert j.decide(u, v) == forall_exists(u.entries, v.entries, atom_eq)
            assert len(calls) == len(u.entries) + len(v.entries)
    rows = [ZCode(tuple(codes[:k])) for k in range(1, len(codes) + 1)] + [ZCode((codes[1], codes[2]))]
    for u in rows:
        for v in rows:
            calls.clear()
            jj.decide(u, v)
            assert len(calls) == sum(len(r.entries) for r in u.entries + v.entries)


def test_product():
    pr = product(F_REL, F_REL)
    x, y = Cyclic((R1,)), Cyclic((R2,))
    assert pr.decide((x, y), (x, y))
    assert not pr.decide((x, y), (y, y))
    for i in range(200):
        rng = stream(43, i)
        a, a2 = gen_cyclic_pair(rng, CFG)
        b, b2 = gen_cyclic_pair(rng, CFG)
        assert pr.decide((a, b), (a2, b2)) == (rel_F(a, a2) and rel_F(b, b2))


def test_rel_f_examples():
    assert rel_F(Cyclic((R1, R2)), PairMerge(ZCode((Cyclic((R2,)), Cyclic((R1,))))))
    assert rel_F(Cyclic((R1,)), Cyclic((R1, R1)))
    assert not rel_F(Cyclic((R1,)), Cyclic((R2,)))


def test_rel_f_matches_forall_exists_form():
    for i in range(400):
        rng = stream(47, i)
        x, x2 = gen_cyclic_pair(rng, CFG)
        oracle = forall_exists(x.entries, x2.entries, lambda a, b: a == b)
        assert rel_F(x, x2) == oracle


def test_rel_g_examples():
    y1 = YSeq((CycW("10"), CycW("01")))
    y2 = YSeq((CycW("01"), CycW("10"), CycW("1010")))
    assert rel_G(y1, y2)
    assert not rel_G(YSeq((CycW("1"),)), YSeq((CycW("0"),)))
    assert rel_G(y1, y1)


def test_rel_g_word_equal_to_pullback():
    assert rel_G(YSeq((WORD_001,)), YSeq((PULL_001,))) is True
    assert rel_G(YSeq((WORD_001, CycW("1"))), YSeq((CycW("1"), PULL_001, WORD_001))) is True
    assert rel_G(YSeq((WORD_001,)), YSeq((PULL_001, CycW("0")))) is False
    # bits of pb at k=0..3 are 1,0,1,1, as are the word's; they differ later
    pb = pullback(PairMerge(ZCode((Cyclic((R1,)), Cyclic((R2,))))), AtomSet.of(R1))
    assert rel_G(YSeq((CycW("1011"),)), YSeq((pb,))) is False


def test_carve_display_point():
    assert carve(DISPLAY_POINT, 0) == AtomSet.of(GREEN, YELLOW)
    assert carve(DISPLAY_POINT, 1) == AtomSet.of(BLUE, RED, GREEN)
    assert carve(DISPLAY_POINT, 2) == AtomSet.of(RED, YELLOW)
    # indexes reduce mod the entry count
    assert carve(DISPLAY_POINT, 3) == carve(DISPLAY_POINT, 0)


def test_carve_full_pullback():
    z = ZCode((Cyclic((R1,)), Cyclic((R1, R2))))
    x = PairMerge(z)
    p = PPoint(x, YSeq((pullback(x, AtomSet.of(R1, R2)),)))
    assert carve(p, 0) == range_set(x)


def test_carve_raw_pair_vs_validation():
    # The second pair has no clash below P = 3: the first one is at 3, where
    # R1 meets bit 0, and with gcd(3, 2) = 1 every value meets a 1 bit.
    for x, entry, carved, witness in (
        (Cyclic((R1, R1, R2)), CycW("100"), (R1,), (0, 0, 1)),
        (Cyclic((R1, R2, R3)), CycW("10"), (R1, R2, R3), (0, 0, 3)),
    ):
        assert carve_pair(x, entry) == AtomSet.of(*carved)
        with pytest.raises(ClauseViolation) as err:
            PPoint(x, YSeq((entry,)))
        assert (err.value.clause, err.value.witness) == (3, witness)


def test_carve_pair_matches_naive_scan():
    for i in range(300):
        rng = stream(53, i)
        x = gen_cyclic(rng, CFG.universe(), CFG.max_period)
        word = CycW("".join("1" if rng.coin() else "0" for _ in range(rng.randint(1, 5))))
        assert set(carve_pair(x, word)) == naive_carve(x, word)


EIGHT_ATOMS = tuple(Rational(i, 1) for i in range(1, 9))


def _long_period_case(rng, kind, mode):
    """A cyclic x of period P in 1..40 over 1..8 atoms and the bits of a
    word whose period L relates to P by ``kind``: L | P, P | L, coprime, or
    a shared factor with neither dividing (None when no L in 2..40 does).
    Mode 0 draws both at random.  Modes 1 and 2 give each residue class mod
    gcd(P, L) a bit, the word that bit at each position and x an atom of
    that bit at each index, so equal values carry equal bits; mode 2 then
    flips one bit of the word."""
    period = rng.randint(1, 40)
    pool = EIGHT_ATOMS[: rng.randint(1, 8)]
    kinds = (
        lambda n: period % n == 0,
        lambda n: n % period == 0,
        lambda n: math.gcd(period, n) == 1,
        lambda n: 1 < math.gcd(period, n) and period % n and n % period,
    )
    lengths = [n for n in range(2, 41) if kinds[kind](n)]
    if not lengths:
        return None
    length = rng.choice(lengths)
    if mode == 0:
        x = [rng.choice(pool) for _ in range(period)]
        bits = ["1" if rng.coin() else "0" for _ in range(length)]
    else:
        g = math.gcd(period, length)
        by_bit = {True: pool[::2], False: pool[1::2] or pool}
        residue_bit = [rng.coin() for _ in range(g)]
        x = [rng.choice(by_bit[residue_bit[i % g]]) for i in range(period)]
        bits = ["1" if residue_bit[j % g] else "0" for j in range(length)]
        if mode == 2:
            j = rng.randrange(length)
            bits[j] = "1" if bits[j] == "0" else "0"
    return Cyclic(tuple(x)), "".join(bits)


def test_word_carves_over_long_and_coprime_periods():
    # Periods up to 40 in every divisibility relation, against the lcm-span
    # oracles: the outcome with its witness, and the carve, clashing words
    # included.
    outcomes = set()
    for i in range(2000):
        case = _long_period_case(stream(67, i), i % 4, i // 4 % 3)
        if case is None:
            continue
        x, bits = case
        word = CycW(bits)
        y = YSeq((CycW("1"), word))
        try:
            got = tuple(frozenset(aset) for aset in PPoint(x, y).carves)
        except ClauseViolation as err:
            got = (ClauseViolation, err.clause, err.witness)
        assert got == reference_membership(x, y), (x, bits)
        assert set(carve_pair(x, word)) == naive_carve(x, word), (x, bits)
        if isinstance(got[0], frozenset):
            outcomes.add("valid")
        elif got[1] == 3:
            outcomes.add("clash below P" if got[2][2] < len(x.entries) else "clash past P")
    assert outcomes == {"valid", "clash below P", "clash past P"}


def _lcm_scan_clash(entries, bits):
    """First clause (3) clash of a word over a cyclic x, scanning every
    position below lcm(P, L), after which both repeat."""
    first_seen = {}
    for pos in range(math.lcm(len(entries), len(bits))):
        at = first_seen.setdefault(entries[pos % len(entries)], pos)
        if bits[at % len(bits)] != bits[pos % len(bits)]:
            return at, pos
    return None


def test_carve_window_is_the_fine_wilf_bound():
    # Every x of period P <= 5 over 3 atoms and every primitive word of
    # length 2 <= L <= 5 (18,150 inputs): the witness matches the full lcm
    # scan, and in each of the 20 (P, L) cells some input first clashes at
    # P + L - gcd(P, L) - 1, the last position of the window.
    words = [
        bits
        for length in range(2, 6)
        for bits in map("".join, itertools.product("01", repeat=length))
        if primitive_root(bits) == bits
    ]
    latest = {}
    for period in range(1, 6):
        for entries in itertools.product((R1, R2, R3), repeat=period):
            x = Cyclic(entries)
            for bits in words:
                want = _lcm_scan_clash(entries, bits)
                assert _word_carve(x, CyclicWord(bits))[1] == want, (entries, bits)
                if want is not None:
                    cell = (period, len(bits))
                    latest[cell] = max(latest.get(cell, 0), want[1])
    assert latest == {
        (period, length): period + length - math.gcd(period, length) - 1
        for period in range(1, 6)
        for length in range(2, 6)
    }


def test_kept_mask_marks_the_carved_indices():
    # Without a clause (3) clash, bit i of a word's kept cell mask is set iff
    # x[i] is in its carve, and no bit at P or above is set: periods up to
    # 40 in every divisibility relation and both constant words.
    kinds = set()
    for i in range(1200):
        case = _long_period_case(stream(71, i), i % 4, i // 4 % 2)
        if case is None:
            continue
        x, bits = case
        for word in (CycW(bits), CycW("0"), CycW("1")):
            aset = carve_pair(x, word)
            kept, clash, mask = x._carves[word.word.bits]
            assert kept is aset
            if clash is not None:
                continue
            assert mask >> len(x.entries) == 0, (x, word)
            assert [mask >> j & 1 for j in range(len(x.entries))] == [
                a in aset.elements for a in x.entries
            ], (x, word)
            kinds.add((i % 4, word.word.is_constant()))
    # A non-constant word over a coprime period meets both bits at every
    # index, so it always clashes and only constant words are checked there.
    assert kinds == {(k, True) for k in range(4)} | {(0, False), (1, False), (3, False)}


def test_carve_pair_structural_mismatch():
    z = ZCode((Cyclic((R1,)), Cyclic((R2,))))
    with pytest.raises(StructuralMismatch):
        carve_pair(PairMerge(z), CycW("10"))
    other_base = PairMerge(ZCode((Cyclic((R2,)), Cyclic((R3,)))))
    with pytest.raises(StructuralMismatch):
        carve_pair(Cyclic((R1, R2)), pullback(other_base, AtomSet.of(R2)))


def test_rel_e_set_semantics():
    permuted = PPoint(DISPLAY_X, YSeq((CycW("1110"), CycW("0101"), CycW("0011"), CycW("0011"))))
    assert rel_E(DISPLAY_POINT, permuted)
    smaller = PPoint(DISPLAY_X, YSeq((CycW("0011"), CycW("1110"))))
    assert not rel_E(DISPLAY_POINT, smaller)


def test_rel_e_across_reordered_enumerations():
    x2 = Cyclic((YELLOW, GREEN, RED, BLUE))
    y2 = YSeq((
        pullback(x2, AtomSet.of(GREEN, YELLOW)),
        pullback(x2, AtomSet.of(BLUE, RED, GREEN)),
        pullback(x2, AtomSet.of(RED, YELLOW)),
    ))
    q = PPoint(x2, y2)
    assert rel_E(DISPLAY_POINT, q)


def test_p_membership_display_accepted():
    assert PPoint(DISPLAY_X, DISPLAY_Y) == DISPLAY_POINT


def test_p_membership_clause2():
    with pytest.raises(ClauseViolation) as err:
        PPoint(Cyclic((R1, R2)), YSeq((CycW("11"), CycW("0"))))
    assert err.value.clause == 2


def test_p_membership_clause3_witness():
    with pytest.raises(ClauseViolation) as err:
        PPoint(Cyclic((R1, R1)), YSeq((CycW("10"),)))
    assert err.value.clause == 3
    assert err.value.witness == (0, 0, 1)


def test_p_membership_clause1_pairmerge_witness():
    # rows (A) and (A B): B first occurs at e(1, 1) = 4
    pm = PairMerge(ZCode((Cyclic((R1,)), Cyclic((R1, R2)))))
    with pytest.raises(ClauseViolation) as err:
        PPoint(pm, YSeq((pullback(pm, AtomSet.of(R1)),)))
    assert err.value.clause == 1
    assert err.value.witness == (4,)


def test_p_membership_clause3_before_clause2():
    # entry 0 carves nothing, entry 1 breaks clause (3): all of (3) is
    # checked first, with the witness of the word scan
    with pytest.raises(ClauseViolation) as err:
        PPoint(Cyclic((R1, R1, R1)), YSeq((CycW("0"), CycW("100"))))
    assert err.value.clause == 3
    assert err.value.witness == (1, 0, 1)  # the first clash; (1, 0, 2) is the next


def test_structural_mismatch_before_every_clause():
    # entry 0 breaks clause (3), entry 1 pulls back over another base
    other = PairMerge(ZCode((Cyclic((R1, R2)), Cyclic((R3,)))))
    with pytest.raises(StructuralMismatch):
        PPoint(Cyclic((R1, R1)), YSeq((CycW("10"), pullback(other, AtomSet.of(R3)))))


def test_p_membership_clause2_before_clause1():
    # entry 0 carves nothing, entry 1 leaves R2 uncovered
    with pytest.raises(ClauseViolation) as err:
        PPoint(Cyclic((R1, R2)), YSeq((CycW("0"), CycW("10"))))
    assert (err.value.clause, err.value.witness) == (2, (0,))


def _mutated_membership_pair(rng):
    """A valid point's (x, y), hit on three draws in four by 1-2 mutations:
    drop an entry, or insert the word 0, a non-constant word or a pullback
    over a fresh pair-merge base at a random position."""
    p = gen_ppoint(rng, CFG)
    entries = list(p.y.entries)
    for _ in range(rng.randint(1, 2) if rng.randrange(4) else 0):
        kind = rng.randrange(4)
        if kind == 0:
            if len(entries) > 1:
                del entries[rng.randrange(len(entries))]
            continue
        if kind == 1:
            new = CycW("0")
        elif kind == 2:
            bits = "".join("1" if rng.coin() else "0" for _ in range(rng.randint(1, 4)))
            if len(set(bits)) == 1:
                bits += "1" if bits[0] == "0" else "0"
            new = CycW(bits)
        else:
            new = gen_binseq(rng, CFG)
            while not isinstance(new, Pullback):
                new = gen_binseq(rng, CFG)
        entries.insert(rng.randint(0, len(entries)), new)
    return p.x, YSeq(tuple(entries))


def _membership_outcome(x, y):
    """PPoint(x, y)'s carves as frozensets, or its error in the shape of
    reference_membership's."""
    try:
        return tuple(frozenset(aset) for aset in PPoint(x, y).carves)
    except ClauseViolation as err:
        return ClauseViolation, err.clause, err.witness
    except StructuralMismatch as err:
        return StructuralMismatch, None, (int(str(err).split()[1].rstrip(":")),)


def test_validation_matches_the_brute_force_oracle(monkeypatch):
    pairs = [_mutated_membership_pair(stream(61, i)) for i in range(2000)]
    expected = [reference_membership(x, y) for x, y in pairs]
    seen = set()
    for (x, y), want in zip(pairs, expected):
        got = _membership_outcome(x, y)
        assert got == want, (x, y)
        seen.add("valid" if isinstance(got[0], frozenset) else got[1])
    assert seen == {"valid", None, 1, 2, 3}

    # The same objects again: every word now comes from its base's kept
    # table, no carve is computed, and each outcome, a kept clash's clause
    # (3) included, is the same.
    from carveq import relations

    def computed(x, word):
        raise AssertionError(f"carve of {word.bits} over {x!r} computed again")

    monkeypatch.setattr(relations, "_word_carve", computed)
    kept_clashes = 0
    for (x, y), want in zip(pairs, expected):
        assert _membership_outcome(x, y) == want, (x, y)
        kept_clashes += want[:2] == (ClauseViolation, 3)
    assert kept_clashes


def test_validation_carves_match_carve_pair():
    points = []
    for seed in (3, 17, 101):
        for i in range(60):
            rng = stream(seed, i)
            points.append(gen_ppoint(rng, CFG))
            points.extend(gen_infiber_pair(rng, CFG, gen_subset(rng, CFG.universe()))[:2])
            points.append(embed_fs2(gen_zcode(rng, CFG.universe(), CFG.max_period, CFG.max_entries)))
    assert any(isinstance(e, Pullback) for p in points for e in p.y.entries)
    for p in points:
        assert p.carves == tuple(carve_pair(p.x, e) for e in p.y.entries)
        family = carve_family(p)
        assert type(family) is tuple and len(family) == len(set(p.carves))
        assert set(family) == set(p.carves) and e_invariant(p) == family


def test_kept_carves_match_naive_scan():
    # Each base keeps its word carves; a second point over the same base
    # instance reads them back, and the base still compares, hashes and
    # prints as a fresh copy does.
    reused = 0
    for seed in (3, 17, 101):
        for i in range(60):
            rng = stream(seed, i)
            for p in (
                gen_ppoint(rng, CFG),
                embed_fs2(gen_zcode(rng, CFG.universe(), CFG.max_period, CFG.max_entries)),
            ):
                again = PPoint(p.x, YSeq(p.y.entries[::-1]))
                assert all(a is b for a, b in zip(again.carves, p.carves[::-1]))
                for q in (p, again):
                    for entry, aset in zip(q.y.entries, q.carves):
                        assert set(aset) == naive_carve(q.x, entry)
                fresh = type(p.x)(*(getattr(p.x, f.name) for f in dataclasses.fields(p.x)))
                assert (p.x, hash(p.x), repr(p.x)) == (fresh, hash(fresh), repr(fresh))
                reused += sum(isinstance(e, CycW) for e in p.y.entries)
    assert reused
    assert [f.name for f in dataclasses.fields(Cyclic)] == ["entries"]
    assert [f.name for f in dataclasses.fields(PairMerge)] == ["z"]


def test_clause3_witness_is_the_same_when_raised_again():
    x = Cyclic((R1, R1, R2))
    for y, witness in (
        (YSeq((CycW("1"), CycW("100"))), (1, 0, 1)),
        (YSeq((CycW("1"), CycW("100"))), (1, 0, 1)),
        (YSeq((CycW("100"),)), (0, 0, 1)),
    ):
        with pytest.raises(ClauseViolation) as err:
            PPoint(x, y)
        assert (err.value.clause, err.value.witness) == (3, witness)


def test_constant_words_over_a_pair_merge_base():
    x = PairMerge(ZCode((Cyclic((R1, R2)), Cyclic((R3,)))))
    full = carve_pair(x, CycW("1"))
    assert full == range_set(x) == AtomSet.of(R1, R2, R3)
    assert carve_pair(x, CycW("11")) is full
    assert carve_pair(x, CycW("0")) == AtomSet(())
    p = PPoint(x, YSeq((CycW("1"), pullback(x, AtomSet.of(R3)))))
    assert p.carves == (full, AtomSet.of(R3))
    with pytest.raises(ClauseViolation) as err:
        PPoint(x, YSeq((CycW("1"), CycW("0"))))
    assert (err.value.clause, err.value.witness) == (2, (1,))


def test_carves_outside_equality_and_text():
    p, q = PPoint(DISPLAY_X, DISPLAY_Y), PPoint(DISPLAY_X, DISPLAY_Y)
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash((DISPLAY_X, DISPLAY_Y))
    assert "carves" not in repr(p)
    assert to_text(p) == (
        "(p (cyc (rat 1 1) (rat 2 1) (rat 3 1) (rat 4 1)) (ylist (cw 0011) (cw 1110) (cw 01)))"
    )


def test_p_membership_clause1():
    with pytest.raises(ClauseViolation) as err:
        PPoint(Cyclic((R1, R2)), YSeq((CycW("10"),)))
    assert err.value.clause == 1


def test_p_membership_structural_restriction():
    z = ZCode((Cyclic((R1,)), Cyclic((R2,))))
    x = PairMerge(z)
    with pytest.raises(StructuralMismatch):
        PPoint(x, YSeq((CycW("10"),)))
    other = PairMerge(ZCode((Cyclic((R2,)), Cyclic((R1,)))))
    with pytest.raises(StructuralMismatch):
        PPoint(x, YSeq((pullback(other, AtomSet.of(R1)),)))
    # constant words over a pair-merge base are fine: they are the normalized
    # images of full/empty pullbacks over that very base
    p = PPoint(x, YSeq((pullback(x, AtomSet.of(R1)), CycW("1"))))
    assert carve(p, 1) == range_set(x)


def test_clause3_check_agrees_with_naive_scan():
    accepted = rejected = 0
    for i in range(400):
        rng = stream(59, i)
        x = gen_cyclic(rng, CFG.universe(), 4)
        words = tuple(
            CycW("".join("1" if rng.coin() else "0" for _ in range(rng.randint(1, 4))))
            for _ in range(rng.randint(1, 3))
        )
        y = YSeq(words)
        span = math.lcm(len(x.entries), *(len(w.word.bits) for w in words))
        oracle_ok = naive_clause3_ok(x, y, 10 * span)
        try:
            PPoint(x, y)
            clause3_verdict = True
        except ClauseViolation as err:
            clause3_verdict = err.clause != 3  # a later clause failing means (3) passed
        assert clause3_verdict == oracle_ok
        accepted += clause3_verdict
        rejected += not clause3_verdict
    assert accepted and rejected  # both outcomes exercised


def test_restrict_to_fiber():
    x0 = Cyclic((R1, R2))
    fiber = fiber_reduction(x0).source.decide
    p = PPoint(x0, YSeq((CycW("1"),)))
    assert fiber(p, p)
    outside = PPoint(Cyclic((R1,)), YSeq((CycW("1"),)))
    with pytest.raises(DomainViolation):
        fiber(p, outside)
    for i in range(100):
        rng = stream(61, i)
        base = gen_subset(rng, CFG.universe())
        p1, p2, _ = gen_infiber_pair(rng, CFG, base_atoms=base)
        fiber_b = fiber_reduction(Cyclic(base)).source.decide
        assert fiber_b(p1, p2) == rel_E(p1, p2)


def _equivalence_samples():
    samples = {"eq": [], "F": [], "G": [], "E": [], "jump": [], "jump2": [], "jumpF": [], "prod": []}
    for i in range(120):
        rng = stream(67, i)
        samples["eq"].append(rng.choice(CFG.universe()))
        samples["F"].append(
            gen_cyclic(rng, CFG.universe(), CFG.max_period)
            if rng.coin()
            else PairMerge(gen_zcode(rng, CFG.universe(), 3, 3))
        )
        samples["G"].append(gen_yseq_words(rng, CFG))
        base = gen_subset(rng, CFG.universe())
        samples["E"].append(gen_infiber_pair(rng, CFG, base_atoms=base)[0])
        samples["jump"].append(gen_cyclic(rng, CFG.universe(), 4))
        samples["jump2"].append(gen_zcode(rng, CFG.universe(), 3, 3))
        samples["prod"].append((gen_cyclic(rng, CFG.universe(), 4), gen_cyclic(rng, CFG.universe(), 4)))
        samples["jumpF"].append(gen_zcode(rng, CFG.universe(), 3, 3))
    return samples


def test_handles_are_equivalence_relations():
    samples = _equivalence_samples()
    handles = {
        "eq": ATOM_EQ,
        "F": F_REL,
        "G": G_REL,
        "E": E_REL,
        "jump": jump(ATOM_EQ),
        "jump2": jump(jump(ATOM_EQ)),
        "jumpF": jump(F_REL),
        "prod": product(F_REL, F_REL),
    }
    rng = stream(71, 0)
    for key, handle in handles.items():
        pool = samples[key]
        for _ in range(1000):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            c = pool[rng.randrange(len(pool))]
            assert handle.decide(a, a)
            assert handle.decide(a, b) == handle.decide(b, a)
            if handle.decide(a, b) and handle.decide(b, c):
                assert handle.decide(a, c)


def test_remark_implication_and_union_property():
    for i in range(300):
        rng = stream(73, i)
        p1 = gen_ppoint(rng, CFG)
        p2 = gen_ppoint(rng, CFG)
        if rel_E(p1, p2):
            assert rel_F(p1.x, p2.x)
        for p in (p1, p2):
            covered = set()
            for n in range(len(p.y.entries)):
                covered |= set(carve(p, n))
            assert covered == set(range_set(p.x))


def test_remark_converse_fails():
    x0 = Cyclic((R1, R2))
    p = PPoint(x0, YSeq((CycW("1"),)))
    q = PPoint(x0, YSeq((CycW("10"), CycW("01"))))
    assert rel_F(p.x, q.x)
    assert not rel_E(p, q)
