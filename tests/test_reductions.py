import dataclasses

import pytest

from carveq import (
    ATOM_EQ,
    AtomSet,
    CycW,
    Cyclic,
    CyclicWord,
    DomainViolation,
    F_REL,
    FuzzConfig,
    PPoint,
    PairMerge,
    ReductionRecord,
    StructuralMismatch,
    Tag,
    WordAtom,
    YSeq,
    ZCode,
    binseq_eq,
    campaigns,
    canonical_basepoint,
    carve,
    chain_report,
    check_reduction,
    const_jump_embedding,
    e_invariant,
    embed_fs2,
    fiber_reduction,
    fs2_invariant,
    g_to_f,
    jump,
    pair_interleave,
    pullback,
    range_set,
    rel_E,
    rel_F,
    rel_G,
    stream,
)
from carveq.generators import (
    gen_cyclic_pair,
    gen_infiber_pair,
    gen_subset,
    gen_yseq_pair,
    gen_zcode_pair,
)
from carveq.reductions import (
    check_sampled, class_map_violations, embed_fs2_record, link_status, run_cases, sampled_reductions,
)

from helpers import R1, R2, R3, reference_star_violations

CFG = FuzzConfig(cases=0, atom_universe=4, max_period=5, max_entries=4)


def test_canonical_basepoint():
    assert canonical_basepoint(AtomSet.of(R2, R1)) == Cyclic((R1, R2))
    with pytest.raises(ValueError):
        canonical_basepoint(AtomSet(()))


def test_fiber_reduction_renders_its_basepoint_once(monkeypatch):
    from carveq import reductions, serialize

    calls = []

    def counting(value):
        calls.append(value)
        return render(value)

    render = serialize.to_text
    monkeypatch.setattr(serialize, "to_text", counting)
    monkeypatch.setattr(reductions, "to_text", counting)
    x0 = Cyclic((R1, Tag(1, R2)))
    t = render(x0)
    record = fiber_reduction(x0)
    assert record.name == f"fiber[{t}]"
    assert record.source.name == f"E|{t}"
    assert calls.count(x0) == 1  # the other calls are to_text's recursion into x0's atoms


def test_fiber_reduction_identity_on_basepoint():
    x0 = Cyclic((R1, R2, R3))
    y = YSeq((CycW("110"), CycW("001"), CycW("111")))
    p = PPoint(x0, y)
    out = fiber_reduction(x0).map(p)
    assert len(out.entries) == len(y.entries)
    for got, want in zip(out.entries, y.entries):
        assert binseq_eq(got, want)


def test_fiber_reduction_hand_case():
    # x enumerates the two atoms in the opposite order of the basepoint
    x = Cyclic((R2, R1))
    x0 = Cyclic((R1, R2))
    p = PPoint(x, YSeq((CycW("10"), CycW("01"))))
    out = fiber_reduction(x0).map(p)
    assert out.entries[0] == CycW("01")
    assert carve(p, 0) == AtomSet.of(R2)
    q0 = PPoint(x0, YSeq((out.entries[0], CycW("10"))))
    assert carve(q0, 0) == AtomSet.of(R2)


def test_fiber_reduction_domain_and_basepoint_checks():
    x0 = Cyclic((R1, R2))
    record = fiber_reduction(x0)
    outside = PPoint(Cyclic((R1,)), YSeq((CycW("1"),)))
    with pytest.raises(DomainViolation):
        record.map(outside)
    with pytest.raises(StructuralMismatch):
        fiber_reduction(PairMerge(ZCode((Cyclic((R1,)),))))


def test_fiber_source_and_map_refuse_an_outside_point_alike():
    x0 = Cyclic((R1, R2))
    record = fiber_reduction(x0)
    inside = PPoint(x0, YSeq((CycW("1"),)))
    outside = PPoint(Cyclic((R1,)), YSeq((CycW("1"),)))
    with pytest.raises(DomainViolation) as by_source:
        record.source.decide(inside, outside)
    with pytest.raises(DomainViolation) as by_map:
        record.map(outside)
    assert str(by_source.value) == str(by_map.value)


def test_fiber_reduction_star_property():
    for i in range(1000):
        rng = stream(201, i)
        base = gen_subset(rng, CFG.universe())
        x0 = canonical_basepoint(base)
        p, q, _ = gen_infiber_pair(rng, CFG, base_atoms=base)
        record = fiber_reduction(x0)
        assert reference_star_violations(p, q, record.map(p), record.map(q)) == []


def _drop_last_bit(record, x0):
    """``record`` with a broken map: each image word, written over one
    period of ``x0``, loses its last bit (a one-bit word keeps it)."""
    period = len(x0.entries)

    def fmap(p):
        words = (e.word.bits * (period // len(e.word.bits)) for e in record.map(p).entries)
        return YSeq(tuple(CycW(w[:-1] or w) for w in words))

    return dataclasses.replace(record, map=fmap)


@pytest.mark.parametrize("broken", [False, True])
def test_star_case_fails_wherever_the_pairwise_oracle_fails(monkeypatch, broken):
    # The class-map check also compares entries within one point, so it may
    # fail where the oracle, which compares across the two points, does not.
    cfg = FuzzConfig()
    real = fiber_reduction
    fiber = (lambda x0: _drop_last_bit(real(x0), x0)) if broken else real
    monkeypatch.setattr(campaigns, "fiber_reduction", fiber)
    oracle_fails = star_fails = 0
    for i in range(200):
        x0, p, q = campaigns._infiber_case(stream(cfg.seed, i), cfg)
        record = fiber(x0)
        expected = reference_star_violations(p, q, record.map(p), record.map(q))
        found = campaigns._star_case(stream(cfg.seed, i), cfg)
        assert found or not expected, i
        oracle_fails += bool(expected)
        star_fails += bool(found)
    if broken:
        assert 0 < oracle_fails < star_fails
    else:
        assert oracle_fails == star_fails == 0


def test_class_map_violations_name_the_first_item_and_the_clash():
    keyed = [("a", 1, "x"), ("b", 1, "y"), ("c", 2, "x"), ("d", 3, "z"), ("e", 1, "x")]
    assert class_map_violations(iter(keyed)) == [("not well defined", "a", "b"), ("not injective", "a", "c")]
    assert class_map_violations(keyed, injective=False) == [("not well defined", "a", "b")]
    assert class_map_violations([("a", 1, "x"), ("b", 2, "x")], injective=False) == []
    assert class_map_violations([]) == []


def test_fiber_reduction_full_iff():
    related = unrelated = 0
    for i in range(1000):
        rng = stream(203, i)
        base = gen_subset(rng, CFG.universe())
        x0 = canonical_basepoint(base)
        p, q, known = gen_infiber_pair(rng, CFG, base_atoms=base)
        record = fiber_reduction(x0)
        truth = e_invariant(p) == e_invariant(q)
        assert truth == known
        assert truth == rel_G(record.map(p), record.map(q))
        related += truth
        unrelated += not truth
    assert related > 100 and unrelated > 100


def test_fiber_reduction_witness_choice_irrelevant():
    # the produced bit must not depend on which witness index is scanned
    # first: recompute every output bit from the last witness instead
    from carveq import CyclicWord, binseq_value_at, saturation_bound, value_at

    for i in range(300):
        rng = stream(229, i)
        base = gen_subset(rng, CFG.universe())
        x0 = canonical_basepoint(base)
        p, _, _ = gen_infiber_pair(rng, CFG, base_atoms=base)
        out = fiber_reduction(x0).map(p)
        bound = saturation_bound(p.x)
        for n, entry in enumerate(p.y.entries):
            bits = []
            for k in range(len(x0.entries)):
                witnesses = [kp for kp in range(bound) if value_at(p.x, kp) == x0.entries[k]]
                assert witnesses
                bits.append("1" if binseq_value_at(entry, witnesses[-1]) else "0")
            assert binseq_eq(out.entries[n], CycW(CyclicWord("".join(bits))))


def test_embed_fs2_examples():
    z = ZCode((Cyclic((R1,)), Cyclic((R1, R2))))
    p = embed_fs2(z)
    assert e_invariant(p) == fs2_invariant(z)
    assert PPoint(p.x, p.y) == p
    z_perm = ZCode((Cyclic((R1, R2)), Cyclic((R1,))))
    assert rel_E(embed_fs2(z_perm), p)
    assert not rel_E(embed_fs2(ZCode((Cyclic((R1,)),))), embed_fs2(ZCode((Cyclic((R2,)),))))


def test_embed_fs2_reduction_property():
    jj = jump(jump(ATOM_EQ))
    for i in range(1000):
        rng = stream(207, i)
        z, z2 = gen_zcode_pair(rng, CFG)
        p, p2 = embed_fs2(z), embed_fs2(z2)
        assert jj.decide(z, z2) == rel_E(p, p2)
        assert e_invariant(p) == fs2_invariant(z)
        assert e_invariant(p2) == fs2_invariant(z2)


def test_pair_interleave_examples():
    a, b, c = R1, R2, R3
    assert pair_interleave(Cyclic((a,)), Cyclic((b,))) == Cyclic((Tag(0, a), Tag(1, b)))
    assert pair_interleave(Cyclic((a,)), Cyclic((b, c))) == Cyclic(
        (Tag(0, a), Tag(1, b), Tag(0, a), Tag(1, c))
    )
    with pytest.raises(StructuralMismatch):
        pair_interleave(PairMerge(ZCode((Cyclic((a,)),))), Cyclic((b,)))


def test_pair_interleave_range_structure():
    for i in range(400):
        rng = stream(211, i)
        x, _ = gen_cyclic_pair(rng, CFG)
        y, _ = gen_cyclic_pair(rng, CFG)
        out = pair_interleave(x, y)
        tagged = AtomSet(
            tuple(Tag(0, a) for a in range_set(x)) + tuple(Tag(1, a) for a in range_set(y))
        )
        assert range_set(out) == tagged


def test_pair_interleave_reduction_property():
    for i in range(1000):
        rng = stream(213, i)
        x, x2 = gen_cyclic_pair(rng, CFG)
        y, y2 = gen_cyclic_pair(rng, CFG)
        truth = rel_F(x, x2) and rel_F(y, y2)
        assert truth == rel_F(pair_interleave(x, y), pair_interleave(x2, y2))


def test_g_to_f_examples():
    y = YSeq((CycW("1010"), CycW("10")))
    assert g_to_f(y) == Cyclic((WordAtom("10"), WordAtom("10")))
    assert not rel_F(g_to_f(YSeq((CycW("1"),))), g_to_f(YSeq((CycW("0"),))))
    base = PairMerge(ZCode((Cyclic((R1,)), Cyclic((R2,)))))
    with pytest.raises(StructuralMismatch):
        g_to_f(YSeq((pullback(base, AtomSet.of(R1)),)))


def test_g_to_f_reduction_property():
    for i in range(1000):
        rng = stream(217, i)
        y, y2 = gen_yseq_pair(rng, CFG)
        assert rel_G(y, y2) == rel_F(g_to_f(y), g_to_f(y2))


def test_const_jump_embedding():
    record = const_jump_embedding(ATOM_EQ)
    assert record.map(R1) == Cyclic((R1,))
    assert record.target.decide(record.map(R1), record.map(R1))
    assert not record.target.decide(record.map(R1), record.map(R2))
    code_record = const_jump_embedding(F_REL, wrap=ZCode)
    for i in range(200):
        rng = stream(219, i)
        c, c2 = gen_cyclic_pair(rng, CFG)
        assert rel_F(c, c2) == code_record.target.decide(code_record.map(c), code_record.map(c2))


def test_check_reduction_pass_and_empty():
    record = embed_fs2_record()
    pairs = []
    for i in range(100):
        rng = stream(227, i)
        pairs.append(gen_zcode_pair(rng, CFG))
    report = check_reduction(record, pairs)
    assert report.status == "pass"
    assert report.checked == 100 and not report.violations
    empty = check_reduction(record, [])
    assert empty.status == "pass" and empty.checked == 0


def test_check_reduction_catches_corruption():
    x0 = Cyclic((R1, R2))
    record = fiber_reduction(x0)

    def corrupted(p):
        out = record.map(p)
        if len(p.y.entries) % 2:  # flip one output bit for odd entry counts
            bits = out.entries[0].word.bits
            flipped = ("1" if bits[0] == "0" else "0") + bits[1:]
            return YSeq((CycW(CyclicWord(flipped)),) + out.entries[1:])
        return out

    bad = ReductionRecord(record.name, record.source, record.target, corrupted)
    p1 = PPoint(x0, YSeq((CycW("1"),)))
    p2 = PPoint(x0, YSeq((CycW("1"), CycW("1"))))
    assert rel_E(p1, p2)
    report = check_reduction(bad, [(p1, p2)])
    assert report.status == "fail"
    assert len(report.violations) == 1
    assert report.violations[0].source_verdict != report.violations[0].target_verdict


def test_check_reduction_records_domain_errors():
    x0 = Cyclic((R1, R2))
    record = fiber_reduction(x0)
    outside = PPoint(Cyclic((R3,)), YSeq((CycW("1"),)))
    inside = PPoint(x0, YSeq((CycW("1"),)))
    report = check_reduction(record, [(inside, outside)])
    assert report.status == "fail"
    assert "DomainViolation" in report.violations[0].detail


def test_claim_and_check_reduction_share_one_pair_check(monkeypatch):
    from carveq import reductions

    pair_calls, loops = [], []
    real_pair, real_loop = reductions.pair_violations, reductions.check_reduction

    def recording_pair(record, pair, image_check=None):
        pair_calls.append((record.name, loops[-1] if loops else None))
        return real_pair(record, pair, image_check)

    def recording_loop(record, pairs, image_check=None):
        loops.append(record.name)
        return real_loop(record, pairs, image_check)

    for module in (reductions, campaigns):
        monkeypatch.setattr(module, "pair_violations", recording_pair)
    monkeypatch.setattr(reductions, "check_reduction", recording_loop)
    cfg = FuzzConfig(seed=9, cases=7)
    assert not campaigns.campaign_claim(cfg).violations
    assert len(pair_calls) == cfg.cases
    assert all(name.startswith("fiber[") and loop is None for name, loop in pair_calls)
    pair_calls.clear()
    assert not check_sampled("g_to_f", cfg).violations
    assert loops == ["g_to_f"] and pair_calls == [("g_to_f", "g_to_f")] * cfg.cases


def test_run_cases_records_a_raised_error_as_the_cases_violation():
    def check(case):
        if case == "bad":
            raise StructuralMismatch("refused")
        return [("odd", 1, 0)] * (case % 2)

    report = run_cases("demo", iter([2, "bad", 3]), check)
    assert report.checked == 3
    assert [dataclasses.asdict(v) for v in report.violations] == [
        {"index": 1, "detail": "StructuralMismatch: refused", "source_verdict": "error", "target_verdict": "error"},
        {"index": 2, "detail": "odd", "source_verdict": 1, "target_verdict": 0},
    ]


@pytest.mark.parametrize("name", sorted(sampled_reductions()))
def test_check_sampled_corrupt_with_no_cases_passes(name):
    report = check_sampled(name, FuzzConfig(cases=0), corrupt=True)
    assert report.status == "pass" and report.checked == 0


def test_chain_report_structure():
    cfg = FuzzConfig(seed=5, cases=60)
    report = chain_report(cfg)
    assert report.status == "counterexample structure verified"
    names = [link.name for link in report.links]
    assert names == ["fs2_to_e", "e_to_fxg", "fxg_to_fxf", "fxf_to_f"]
    statuses = {link.name: link_status(link) for link in report.links}
    assert statuses["e_to_fxg"] == "hypothetical"
    assert all(statuses[n] == "verified" for n in names if n != "e_to_fxg")
    assert [(link.checked, link.violations) for link in report.links] == [(60, []), (0, []), (60, []), (60, [])]
    growth = {(lv, n): (count, closed, match) for lv, n, count, closed, match in report.growth}
    assert growth[("F", 1)] == (1, 1, True)
    assert growth[("F", 2)] == (3, 3, True)
    assert growth[("F", 3)] == (7, 7, True)
    assert growth[("E", 1)] == (1, 1, True)
    assert growth[("E", 2)] == (7, 7, True)
    assert growth[("E", 3)] == (127, 127, True)


def test_chain_report_deterministic_and_corruptible():
    cfg = FuzzConfig(seed=9, cases=50)
    text1 = chain_report(cfg).to_text()
    text2 = chain_report(cfg).to_text()
    assert text1 == text2
    corrupted = chain_report(cfg, corrupt="fxf_to_f")
    assert corrupted.status == "violations found"
    assert any(link_status(link) == "violated" for link in corrupted.links)
    # the hypothetical link is never reported as verified
    assert all(
        link_status(link) == "hypothetical"
        for link in corrupted.links
        if link.name == "e_to_fxg"
    )
