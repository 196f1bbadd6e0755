"""Property campaigns behind the ``verify`` targets.

Each campaign draws its cases from per-case substreams of the configured
seed, computes ground truth through one route and the checked claim through
another, and reports every disagreement.
"""

from .atoms import AtomSet
from .codes import Cyclic, YSeq, binseq_eq, iota, pullback, range_set
from .generators import gen_covering_family, gen_infiber_pair, gen_ppoint, gen_subset, realize_ppoint, stream
from .invariants import e_invariant, fs2_invariant
from .reductions import VerificationReport, Violation, canonical_basepoint, check_sampled, fiber_reduction
from .relations import PPoint, carve, rel_E, rel_F, rel_G
from .serialize import ppoint_to_text, to_text


def _cyclic_point(rng, cfg):
    """A valid point realized over a cyclic first coordinate.

    realize_ppoint flips a coin between realizations; redraw on the same
    stream until the cyclic arm comes up.
    """
    base_atoms = gen_subset(rng, cfg.universe())
    family = gen_covering_family(rng, base_atoms, cfg.max_entries)
    while True:
        p = realize_ppoint(rng, base_atoms, family, cfg)
        if isinstance(p.x, Cyclic):
            return p


def campaign_identity(cfg):
    """With the basepoint equal to the point's own first coordinate, the
    fiber map must return y itself, entry for entry."""
    report = VerificationReport(name="verify:identity")
    for i in range(cfg.cases):
        rng = stream(cfg.seed, i)
        p = _cyclic_point(rng, cfg)
        out = fiber_reduction(p.x).map(p)
        report.checked += 1
        if len(out.entries) != len(p.y.entries):
            report.violations.append(
                Violation(i, f"entry count changed on {ppoint_to_text(p)}", len(p.y.entries), len(out.entries))
            )
            continue
        for n, (got, want) in enumerate(zip(out.entries, p.y.entries)):
            if not binseq_eq(got, want):
                report.violations.append(
                    Violation(i, f"entry {n} changed on {ppoint_to_text(p)}", "y(n)", "f(p)(n)")
                )
                break
    return report


def _infiber_case(rng, cfg):
    base_atoms = gen_subset(rng, cfg.universe())
    x0 = canonical_basepoint(AtomSet(base_atoms))
    p, q, _ = gen_infiber_pair(rng, cfg, base_atoms=base_atoms)
    return x0, p, q


def campaign_claim(cfg):
    """The fiber map is a reduction: carve families agree exactly when the
    images relate under the jump of word equality.  Ground truth comes from
    the canonical invariant.  The basepoint-identity check runs first on the
    same number of cases."""
    report = campaign_identity(cfg)
    report.name = "verify:claim"
    for i in range(cfg.cases):
        rng = stream(cfg.seed, 10_000 + i)
        x0, p, q = _infiber_case(rng, cfg)
        record = fiber_reduction(x0)
        truth = e_invariant(p) == e_invariant(q)
        mapped = rel_G(record.map(p), record.map(q))
        report.checked += 1
        if truth != mapped:
            report.violations.append(
                Violation(i, f"{ppoint_to_text(p)} | {ppoint_to_text(q)}", truth, mapped)
            )
    return report


def campaign_star(cfg):
    """Entrywise correspondence: the n-th carve of one point equals the m-th
    carve of the other exactly when output entries n and m agree, for every
    pair of entry indices."""
    report = VerificationReport(name="verify:star")
    for i in range(cfg.cases):
        rng = stream(cfg.seed, i)
        x0, p, q = _infiber_case(rng, cfg)
        record = fiber_reduction(x0)
        fp, fq = record.map(p), record.map(q)
        report.checked += 1
        for n in range(len(p.y.entries)):
            for m in range(len(q.y.entries)):
                left = carve(p, n) == carve(q, m)
                right = binseq_eq(fp.entries[n], fq.entries[m])
                if left != right:
                    report.violations.append(
                        Violation(i, f"n={n} m={m}: {ppoint_to_text(p)} | {ppoint_to_text(q)}", left, right)
                    )
    return report


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


def campaign_remark(cfg):
    """Relatedness of points forces equal ranges of their first coordinates,
    every point's carves union to its range, and the converse direction fails
    on an exhibited pair."""
    report = VerificationReport(name="verify:remark")
    p, q = _remark_witness(cfg)
    if rel_F(p.x, q.x) and not rel_E(p, q):
        report.notes.append(
            f"converse fails: ranges agree, families differ: {ppoint_to_text(p)} | {ppoint_to_text(q)}"
        )
    else:
        report.violations.append(
            Violation(-1, "engineered converse witness did not behave", "F and not E", "other")
        )
    for i in range(cfg.cases):
        rng = stream(cfg.seed, i)
        p1, _ = gen_ppoint(rng, cfg)
        if rng.coin():
            base_atoms = tuple(range_set(p1.x))
            p2, _, _ = gen_infiber_pair(rng, cfg, base_atoms=base_atoms)
        else:
            p2, _ = gen_ppoint(rng, cfg)
        report.checked += 1
        if rel_E(p1, p2) and not rel_F(p1.x, p2.x):
            report.violations.append(
                Violation(i, f"{ppoint_to_text(p1)} | {ppoint_to_text(p2)}", "E", "not F")
            )
        for point in (p1, p2):
            covered = AtomSet(())
            for n in range(len(point.y.entries)):
                covered = covered.union(carve(point, n))
            if covered != range_set(point.x):
                report.violations.append(
                    Violation(i, f"carves do not union to the range: {ppoint_to_text(point)}", "union", "range")
                )
    return report


def _registered(target, cfg, *names, image_check=None):
    """check_reduction on each named registry entry, merged into one report."""
    report = VerificationReport(name=f"verify:{target}")
    for name in names:
        part = check_sampled(name, cfg, image_check=image_check)
        report.checked += part.checked
        report.violations += part.violations
    return report


def campaign_embed(cfg):
    """Row codes relate under the double jump exactly when their embedded
    points relate, and the embedded carve family equals the row-range family."""

    def same_family(z, p):
        if e_invariant(p) != fs2_invariant(z):
            return f"embedded carve family differs from row-range family: {to_text(z)}", "fs2", "e"

    return _registered("embed", cfg, "fs2_to_e", image_check=same_family)


def campaign_interleave(cfg):
    """Product relatedness of two cyclic pairs coincides with range equality
    of their interleavings; tagging is injective on universe x {0, 1}."""
    report = _registered("interleave", cfg, "fxf_to_f")
    seen = {}
    for a in cfg.universe():
        for bit in (0, 1):
            b, bit_b = seen.setdefault(iota(a, bit), (a, bit))
            if (b, bit_b) != (a, bit):
                report.violations.append(
                    Violation(-1, "tagging is not injective", f"{to_text(b)} {bit_b}", f"{to_text(a)} {bit}")
                )
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
