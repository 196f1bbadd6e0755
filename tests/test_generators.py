import copy

import pytest

from carveq import (
    Cyclic,
    FuzzConfig,
    PPoint,
    AtomSet,
    PairMerge,
    canonical_family,
    Rational,
    SplitMix64,
    Tag,
    WordAtom,
    YSeq,
    campaigns,
    pullback,
    range_set,
    rel_E,
    stream,
    to_text,
)
from carveq.invariants import e_invariant
from carveq.generators import (
    gen_covering_family,
    gen_cyclic,
    gen_infiber_pair,
    gen_ppoint,
    gen_subset,
    realize_ppoint,
)
from helpers import reference_splitmix64


def test_splitmix_reference_values():
    # published SplitMix64 stream for seed 1234567; draws 17 and 40 lie in
    # the second and third blocks
    rng = SplitMix64(1234567)
    draws = [rng.next_u64() for _ in range(40)]
    assert draws[:3] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]
    assert (draws[16], draws[39]) == (13784947483123421444, 2166771135840556817)


SPLITMIX_SEEDS = (0, 1, -1, -12345, 2**64 - 1, 2**64, 2**70 + 3, 1234567)


@pytest.mark.parametrize("seed", SPLITMIX_SEEDS)
def test_splitmix_blocks_equal_the_scalar_generator(seed):
    # 100 draws cross six block boundaries
    rng = SplitMix64(seed)
    assert [rng.next_u64() for _ in range(100)] == reference_splitmix64(seed, 100)


@pytest.mark.parametrize("seed", SPLITMIX_SEEDS)
def test_streams_reseed_through_one_draw(seed):
    mask, golden = (1 << 64) - 1, 0x9E3779B97F4A7C15
    for index in (0, 1, 7, 10**6):
        old = SplitMix64(SplitMix64((seed ^ (index * golden)) & mask).next_u64())
        new = stream(seed, index)
        assert [new.next_u64() for _ in range(40)] == [old.next_u64() for _ in range(40)]


@pytest.mark.parametrize("offset", (0, 1, 15, 16, 17))
def test_splitmix_copies_draw_on_independently(offset):
    rng = SplitMix64(2**70 + 3)
    for _ in range(offset):
        rng.next_u64()
    twin = copy.copy(rng)
    # the original runs ahead through a block boundary before the twin draws
    ahead = [rng.next_u64() for _ in range(40)]
    assert [twin.next_u64() for _ in range(40)] == ahead
    assert ahead == reference_splitmix64(2**70 + 3, offset + 40)[offset:]


def test_randrange_refuses_an_empty_range():
    rng = SplitMix64(0)
    for n in (0, -1):
        with pytest.raises(ValueError):
            rng.randrange(n)
    assert rng.next_u64() == reference_splitmix64(0, 1)[0]


def test_streams_are_deterministic_and_independent():
    a = [stream(42, i).next_u64() for i in range(5)]
    b = [stream(42, i).next_u64() for i in range(5)]
    c = [stream(43, i).next_u64() for i in range(5)]
    assert a == b
    assert a != c
    assert len(set(a)) == 5


def test_fuzz_config_validation():
    assert FuzzConfig(cases=0).cases == 0
    with pytest.raises(ValueError):
        FuzzConfig(cases=-1)
    for field in ("atom_universe", "max_period", "max_entries"):
        with pytest.raises(ValueError):
            FuzzConfig(**{field: 0})


def test_generated_points_are_valid_and_match_family():
    # The family is re-derived on a twin stream from the draws gen_ppoint makes.
    cfg = FuzzConfig(cases=0)
    cyclic_seen = pairmerge_seen = 0
    for i in range(400):
        rng, twin = stream(301, i), stream(301, i)
        p = gen_ppoint(rng, cfg)
        base = gen_subset(twin, cfg.universe())
        family = gen_covering_family(twin, base, cfg.max_entries)
        assert realize_ppoint(twin, base, family, cfg) == p
        assert PPoint(p.x, p.y) == p
        assert e_invariant(p) == canonical_family(family)
        cyclic_seen += isinstance(p.x, Cyclic)
        pairmerge_seen += isinstance(p.x, PairMerge)
    assert cyclic_seen > 50 and pairmerge_seen > 50


def test_covering_family_covers():
    cfg = FuzzConfig(cases=0)
    for i in range(300):
        rng = stream(303, i)
        base = gen_subset(rng, cfg.universe())
        family = gen_covering_family(rng, base, cfg.max_entries)
        union = set()
        for aset in family:
            union |= set(aset)
        assert union == set(base)
        assert all(len(aset) for aset in family)


# (seed, next_u64 after the call), pinned: a change to which draws the
# covering family makes, or how many, shifts these values, and with them
# every generated point.  Seed 2 takes the branch that appends a missing set.
COVERING_NEXT_U64 = (
    (0, 10757981964375511926),
    (1, 18120830055417983451),
    (2, 4086292742513199618),
    (7, 8049716563906477082),
)


@pytest.mark.parametrize("seed, after", COVERING_NEXT_U64)
def test_covering_family_sets_are_canonical(seed, after):
    base = AtomSet(
        (WordAtom("01"), Rational(3, 1), Tag(1, Rational(1, 2)), Rational(1, 1), Tag(0, WordAtom("011")))
    )
    rng = stream(seed, 0)
    family = gen_covering_family(rng, base, 4)
    for aset in family:
        assert aset.elements == AtomSet(aset.elements).elements
    assert set().union(*family) == set(base)
    assert rng.next_u64() == after


def test_infiber_pairs_cover_both_outcomes():
    cfg = FuzzConfig(cases=0)
    related = unrelated = 0
    for i in range(1000):
        rng = stream(307, i)
        p, q, known = gen_infiber_pair(rng, cfg, gen_subset(rng, cfg.universe()))
        assert rel_E(p, q) == known
        related += known
        unrelated += not known
    print(f"\nin-fiber pair coverage: related={related} unrelated={unrelated} of 1000")
    assert related > 100 and unrelated > 100


def test_generation_is_reproducible():
    cfg = FuzzConfig(cases=0)
    first = [to_text(gen_ppoint(stream(5, i), cfg)) for i in range(40)]
    second = [to_text(gen_ppoint(stream(5, i), cfg)) for i in range(40)]
    assert first == second


def test_realize_ppoint_preserves_intended_family():
    cfg = FuzzConfig(cases=0)
    for i in range(200):
        rng = stream(311, i)
        base = gen_subset(rng, cfg.universe())
        family = gen_covering_family(rng, base, cfg.max_entries)
        p = realize_ppoint(rng, base, family, cfg)
        assert e_invariant(p) == canonical_family(family)


def test_cyclic_realization_draws_only_the_point_it_builds():
    # The twin builds the point by hand from exactly the draws it uses: a
    # shuffle, the duplicate coin (and its choice), a covering cyclic code.
    cfg = FuzzConfig(cases=0)
    pairmerge = 0
    for i in range(2000):
        rng = stream(313, i)
        base = gen_subset(rng, cfg.universe())
        family = gen_covering_family(rng, base, cfg.max_entries)
        twin, plain = copy.copy(rng), copy.copy(rng)
        p = realize_ppoint(rng, base, family, cfg, cyclic=True)
        entries = twin.shuffle(family)
        if twin.coin():
            entries.append(twin.choice(family))
        x = gen_cyclic(twin, base, cfg.max_period, cover=True)
        assert p == PPoint(x, YSeq(tuple(pullback(x, aset) for aset in entries)))
        assert rng.next_u64() == twin.next_u64()
        pairmerge += isinstance(realize_ppoint(plain, base, family, cfg).x, PairMerge)
    assert pairmerge > 500


def test_remark_pair_realizes_one_covering_family():
    cfg = FuzzConfig(cases=0)
    infiber = 0
    for i in range(1000):
        rng, twin = stream(313, i), stream(313, i)
        p1, p2 = campaigns._remark_pair(rng, cfg)
        assert gen_ppoint(twin, cfg) == p1
        if twin.coin():
            infiber += 1
            base = range_set(p1.x)
            assert realize_ppoint(twin, base, gen_covering_family(twin, base, cfg.max_entries), cfg) == p2
        else:
            assert gen_ppoint(twin, cfg) == p2
        assert rng.next_u64() == twin.next_u64()
    assert infiber > 300


def test_infiber_families_give_the_pairs_first_point():
    cfg = FuzzConfig(cases=0)
    for i in range(500):
        rng, twin = stream(317, i), stream(317, i)
        p, q, related = gen_infiber_pair(rng, cfg, gen_subset(rng, cfg.universe()))
        # the twin draws both families by hand, then realizes p and q
        base = gen_subset(twin, cfg.universe())
        fam_p = gen_covering_family(twin, base, cfg.max_entries)
        fam_q = fam_p if twin.coin() else gen_covering_family(twin, base, cfg.max_entries)
        assert realize_ppoint(twin, base, fam_p, cfg) == p
        assert realize_ppoint(twin, base, fam_q, cfg) == q
        assert related == (frozenset(fam_p) == frozenset(fam_q))
        assert rng.next_u64() == twin.next_u64()
