"""Property campaigns behind the ``verify`` targets.

Each campaign is a per-case check run by :func:`reductions.run_cases`, the
one case loop, over per-case substreams of the configured seed; an error
raised in a case is reported as that case's violation.  Claim and the
registry reductions check pairs through :func:`reductions.pair_violations`
(the fiber source decides E by its invariant); star, remark and the tagging
test are class-map checks through :func:`reductions.class_map_violations`.
"""

from .atoms import AtomSet
from .codes import Cyclic, YSeq, binseq_class_rep, binseq_eq, iota, pullback, range_atoms, range_set
from .generators import gen_covering_family, gen_infiber_pair, gen_ppoint, gen_subset, realize_ppoint, stream
from .invariants import e_invariant, fs2_invariant
from .reductions import (
    canonical_basepoint, case_violations, check_sampled, class_map_violations, fiber_reduction,
    merged, pair_violations, run_cases,
)
from .relations import PPoint, rel_E, rel_F
from .serialize import to_text


def _sampled(name, cfg, case, offset=0):
    """run_cases over ``cfg.cases`` cases, case i checked by ``case(rng,
    cfg)`` on stream(cfg.seed, offset + i)."""
    streams = (stream(cfg.seed, i) for i in range(offset, offset + cfg.cases))
    return run_cases(f"verify:{name}", streams, lambda rng: case(rng, cfg))


def _cyclic_point(rng, cfg):
    """A valid point realized over a cyclic first coordinate: a random base
    and covering family, then one realize_ppoint call with its cyclic arm
    forced."""
    base_atoms = gen_subset(rng, cfg.universe())
    family = gen_covering_family(rng, base_atoms, cfg.max_entries)
    return realize_ppoint(rng, base_atoms, family, cfg, cyclic=True)


def _identity_case(rng, cfg):
    p = _cyclic_point(rng, cfg)
    out = fiber_reduction(p.x).map(p)
    if len(out.entries) != len(p.y.entries):
        return [(f"entry count changed on {to_text(p)}", len(p.y.entries), len(out.entries))]
    for n, (got, want) in enumerate(zip(out.entries, p.y.entries)):
        if not binseq_eq(got, want):
            return [(f"entry {n} changed on {to_text(p)}", "y(n)", "f(p)(n)")]
    return []


def campaign_identity(cfg):
    """With the basepoint equal to the point's own first coordinate, the
    fiber map must return y itself, entry for entry."""
    return _sampled("identity", cfg, _identity_case)


def _infiber_case(rng, cfg):
    """(x0, p, q): an in-fiber pair over a random base and its canonical basepoint x0."""
    base_atoms = gen_subset(rng, cfg.universe())
    x0 = canonical_basepoint(base_atoms)
    p, q, _ = gen_infiber_pair(rng, cfg, base_atoms)
    return x0, p, q


def _claim_case(rng, cfg):
    x0, p, q = _infiber_case(rng, cfg)
    return pair_violations(fiber_reduction(x0), (p, q))


def campaign_claim(cfg):
    """The fiber map is a reduction: carve families agree exactly when the
    images relate under the jump of word equality, checked by the pair check
    on the fiber record, whose source decides E by the canonical invariant.
    The basepoint-identity check runs first on the same number of cases,
    identity case j on stream(seed, j); claim case i draws from stream(seed,
    max(10_000, cases) + i), past every identity stream, so up to 10_000
    cases claim case i is on stream(seed, 10_000 + i)."""
    offset = max(10_000, cfg.cases)
    return merged("verify:claim", campaign_identity(cfg), _sampled("claim", cfg, _claim_case, offset=offset))


def _star_case(rng, cfg):
    x0, p, q = _infiber_case(rng, cfg)
    record = fiber_reduction(x0)
    found = class_map_violations(
        (f"{side} entry {n}", c, binseq_class_rep(e))
        for side, point in (("p", p), ("q", q))
        for n, (c, e) in enumerate(zip(point.carves, record.map(point).entries, strict=True))
    )
    return [(f"carve -> entry class {kind}: {to_text(p)} | {to_text(q)}", a, b) for kind, a, b in found]


def campaign_star(cfg):
    """Entrywise correspondence: two entries of the two points, or of one,
    carve equal sets exactly when their output entries agree; checked as a
    class map from carve to the output entry's class representative."""
    return _sampled("star", cfg, _star_case)


def _remark_witness(cfg):
    """A concrete pair over one shared base with equal ranges but different
    carve families: one point carves the whole base, the other its singletons."""
    if cfg.atom_universe < 2:
        raise ValueError("the remark campaign needs an atom universe of at least 2")
    u1, u2 = cfg.universe()[:2]
    x0 = Cyclic((u1, u2))
    p = PPoint(x0, YSeq((pullback(x0, AtomSet.of(u1, u2)),)))
    q = PPoint(x0, YSeq((pullback(x0, AtomSet.of(u1)), pullback(x0, AtomSet.of(u2)))))
    return p, q


def _converse_fails(pair):
    p, q = pair
    if rel_F(p.x, q.x) and not rel_E(p, q):
        return []
    return [("engineered converse witness did not behave", "F and not E", "other")]


def _remark_pair(rng, cfg):
    """(p1, p2): a random point and, on a coin, a second point realized over
    one covering family of the range set of p1.x, so the two share a range;
    otherwise a second random point."""
    p1 = gen_ppoint(rng, cfg)
    if not rng.coin():
        return p1, gen_ppoint(rng, cfg)
    base_atoms = range_set(p1.x)
    return p1, realize_ppoint(rng, base_atoms, gen_covering_family(rng, base_atoms, cfg.max_entries), cfg)


def _remark_case(rng, cfg):
    p1, p2 = _remark_pair(rng, cfg)
    keyed = ((name, frozenset(p.carves), range_atoms(p.x)) for name, p in (("p1", p1), ("p2", p2)))
    found = class_map_violations(keyed, injective=False)
    found = [(f"E class -> range {kind}: {to_text(p1)} | {to_text(p2)}", a, b) for kind, a, b in found]
    for point in (p1, p2):
        if set().union(*point.carves) != range_atoms(point.x):
            found.append((f"carves do not union to the range: {to_text(point)}", "union", "range"))
    return found


def campaign_remark(cfg):
    """Relatedness of points forces equal ranges of their first coordinates,
    every point's carves union to its range, and the converse direction fails
    on an exhibited pair, whose check runs first and reports index -1."""
    p, q = _remark_witness(cfg)
    witness = case_violations(-1, _converse_fails, (p, q))
    report = _sampled("remark", cfg, _remark_case)
    report.violations[:0] = witness
    if not witness:
        report.notes.append(f"converse fails: ranges agree, families differ: {to_text(p)} | {to_text(q)}")
    return report


def _registered(target, cfg, *names, image_check=None):
    """check_reduction on each named registry entry, merged into one report."""
    return merged(f"verify:{target}", *(check_sampled(name, cfg, image_check=image_check) for name in names))


def campaign_embed(cfg):
    """Row codes relate under the double jump exactly when their embedded
    points relate, and the embedded carve family equals the row-range family."""

    def same_family(z, p):
        if e_invariant(p) != fs2_invariant(z):
            return f"embedded carve family differs from row-range family: {to_text(z)}", "fs2", "e"

    return _registered("embed", cfg, "fs2_to_e", image_check=same_family)


def _tagging_clashes(universe):
    tagged = ((f"{to_text(a)} {bit}", (a, bit), iota(a, bit)) for a in universe for bit in (0, 1))
    return [(f"tagging is {kind}", a, b) for kind, a, b in class_map_violations(tagged)]


def campaign_interleave(cfg):
    """Product relatedness of two cyclic pairs coincides with range equality
    of their interleavings; tagging is injective on universe x {0, 1}."""
    report = _registered("interleave", cfg, "fxf_to_f")
    report.violations += case_violations(-1, _tagging_clashes, cfg.universe())
    return report


def campaign_gtof(cfg):
    """Relatedness of word-entry sequences under the jump coincides with
    range equality of their word-atom images."""
    return _registered("gtof", cfg, "g_to_f")


def campaign_constjump(cfg):
    """One-entry sequences embed any relation into its jump: checked at the
    atom level and at the cyclic-code level."""
    return _registered("constjump", cfg, "const[eq]", "const[F]")


CAMPAIGNS = {
    "claim": campaign_claim,
    "star": campaign_star,
    "remark": campaign_remark,
    "embed": campaign_embed,
    "interleave": campaign_interleave,
    "gtof": campaign_gtof,
    "constjump": campaign_constjump,
}
