"""Executable reductions between the relation layers, a sampling verifier,
and the assembled reducibility-chain report.

A reduction is a map f with: points relate iff their images relate.  That
equivalence is never assumed here; check_reduction evaluates both verdicts
on supplied pairs and reports every disagreement.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable

from .atoms import CyclicWord, WordAtom
from .codes import (
    CycW,
    Cyclic,
    YSeq,
    ZCode,
    binseq_value_at,
    grid_cells,
    iota,
    range_atoms,
    range_set,
)
from .errors import CarveqError, DomainViolation, StructuralMismatch, TypeMismatch
from .generators import gen_atom_pair, gen_cyclic_pair, gen_yseq_pair, gen_zcode_pair, stream
from .relations import ATOM_EQ, E_REL, F_REL, EqRelHandle, PPoint, g_handle, jump, product


@dataclass(frozen=True)
class ReductionRecord:
    """A named map between relation handles; correctness is a tested
    property, never an assumption."""

    name: str
    source: EqRelHandle
    target: EqRelHandle
    map: Callable


def compose(r1, r2):
    """Composition r2 . r1; endpoints must line up by name."""
    if r1.target.name != r2.source.name:
        raise TypeMismatch(f"cannot compose: {r1.name} targets {r1.target.name}, {r2.name} expects {r2.source.name}")
    return ReductionRecord(
        name=f"{r1.name}>>{r2.name}",
        source=r1.source,
        target=r2.target,
        map=lambda v: r2.map(r1.map(v)),
    )


def canonical_basepoint(aset):
    """Sorted cyclic enumeration of an atom set: the canonical representative
    of its range class."""
    if len(aset) == 0:
        raise ValueError("a basepoint needs a nonempty range")
    return Cyclic(aset.elements)


def fiber_reduction(x0):
    """Reduction of E restricted to the fiber of ``x0`` into the jump of
    binary-sequence equality.

    Output entry n is a word of one x0-period: bit k is y(n) at any witness
    index k' with x(k') = x0(k).  The least grid cell index of each value
    of x is its first index (see grid_cells); the fiber condition makes
    range(x) cover every x0(k), so each has a witness, and clause (3) makes
    every witness give the same bit.
    """
    if not isinstance(x0, Cyclic):
        raise StructuralMismatch("fiber basepoints must be cyclic codes")
    from .relations import restrict_to_fiber

    rng0 = range_atoms(x0)

    def fmap(p):
        if not isinstance(p, PPoint) or range_atoms(p.x) != rng0:
            raise DomainViolation("point outside the fiber of the basepoint")
        first = {}
        for kp, a in grid_cells(p.x):
            if kp < first.get(a, kp + 1):
                first[a] = kp
        witnesses = [first[target] for target in x0.entries]
        return YSeq(
            tuple(
                CycW(CyclicWord("".join("1" if binseq_value_at(entry, kp) else "0" for kp in witnesses)))
                for entry in p.y.entries
            )
        )

    from .serialize import aseq_to_text

    return ReductionRecord(
        name=f"fiber[{aseq_to_text(x0)}]",
        source=restrict_to_fiber(x0),
        target=g_handle(),
        map=fmap,
    )


def embed_fs2(z):
    """Embed a row code as a validated point: the pair-merge of z enumerates
    every value of every row, and entry n pulls back the range of row n.

    Validation cannot fail: pullbacks (and the constant words they normalize
    to) satisfy clause (3) structurally, rows are nonempty so every carve is
    nonempty, and the row ranges cover the merged range.
    """
    if not isinstance(z, ZCode):
        raise TypeError(f"not a ZCode: {z!r}")
    from .codes import PairMerge, pullback

    x = PairMerge(z)
    y = YSeq(tuple(pullback(x, range_set(row)) for row in z.entries))
    return PPoint(x, y)


def embed_fs2_record():
    """The double-jump embedding: row codes under the jump of the jump of
    atom equality (see :func:`relations.jump`) into E."""
    return ReductionRecord(
        name="fs2_to_e", source=jump(jump(ATOM_EQ)), target=E_REL, map=embed_fs2
    )


def pair_interleave(x, y):
    """Merge a pair of cyclic codes into one: even slots take the 0-tagged
    values of x, odd slots the 1-tagged values of y.

    One lcm of the two periods suffices; beyond it both coordinates repeat,
    so the cyclic completion of the output matches the full interleaving.
    """
    if not (isinstance(x, Cyclic) and isinstance(y, Cyclic)):
        raise StructuralMismatch("pair_interleave needs two cyclic codes")
    span = math.lcm(len(x.entries), len(y.entries))
    out = []
    for n in range(span):
        out.append(iota(x.entries[n % len(x.entries)], 0))
        out.append(iota(y.entries[n % len(y.entries)], 1))
    return Cyclic(tuple(out))


def g_to_f(y):
    """Map a sequence of word entries to the cyclic code of their word atoms;
    class sets of entries become range sets of atoms."""
    atoms = []
    for k, entry in enumerate(y.entries):
        if not isinstance(entry, CycW):
            raise StructuralMismatch(f"entry {k} is a pullback, outside the domain of g_to_f")
        atoms.append(WordAtom(entry.word))
    return Cyclic(tuple(atoms))


def const_jump_embedding(e, wrap=Cyclic):
    """Embedding of ``e`` into its jump (see :func:`relations.jump`): points
    map to one-entry sequences; the class set of a singleton list is the
    singleton of the point's class, so the jump relates images exactly when
    the points relate.  ``wrap`` picks the sequence type of the image
    (Cyclic for atoms, ZCode for cyclic codes)."""
    return ReductionRecord(
        name=f"const[{e.name}]", source=e, target=jump(e), map=lambda v: wrap((v,))
    )


def _product_sampler(first, second):
    """Pairs of product points: one pair from each coordinate's sampler."""

    def sample(rng, cfg):
        (x, x2), (y, y2) = first(rng, cfg), second(rng, cfg)
        return (x, y), (x2, y2)

    return sample


def sampled_reductions():
    """The registry of sampled reductions: name -> (record, pair sampler).

    ``sampler(rng, cfg)`` draws one pair of source points.  The ``verify``
    targets embed, interleave, gtof and constjump and every implemented
    chain link check these entries through :func:`check_sampled`.  The table
    is built on each call from the current module bindings, so a rebound
    name (a test double, the benchmark's tracer) reaches every entry.
    """
    fxf = product(F_REL, F_REL)
    entries = (
        (embed_fs2_record(), gen_zcode_pair),
        (
            ReductionRecord("fxg_to_fxf", product(F_REL, g_handle()), fxf, lambda xy: (xy[0], g_to_f(xy[1]))),
            _product_sampler(gen_cyclic_pair, gen_yseq_pair),
        ),
        (
            ReductionRecord("fxf_to_f", fxf, F_REL, lambda xy: pair_interleave(xy[0], xy[1])),
            _product_sampler(gen_cyclic_pair, gen_cyclic_pair),
        ),
        (ReductionRecord("g_to_f", g_handle(), F_REL, g_to_f), gen_yseq_pair),
        (const_jump_embedding(ATOM_EQ), gen_atom_pair),
        (const_jump_embedding(F_REL, wrap=ZCode), gen_cyclic_pair),
    )
    return {record.name: (record, sampler) for record, sampler in entries}


def _describe(value):
    """Canonical text of a source point; a product point is written
    ``<t0, t1>`` from the texts of its coordinates."""
    from .serialize import to_text

    if isinstance(value, tuple):
        return "<" + ", ".join(_describe(v) for v in value) + ">"
    return to_text(value)


@dataclass
class Violation:
    index: int
    detail: str
    source_verdict: object
    target_verdict: object

    def to_machine(self):
        return {
            "index": self.index,
            "detail": self.detail,
            "source_verdict": self.source_verdict,
            "target_verdict": self.target_verdict,
        }


@dataclass
class VerificationReport:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def status(self):
        return "pass" if not self.violations else "fail"

    def to_text(self):
        lines = [f"{self.name}: {self.status}  checked={self.checked}  violations={len(self.violations)}"]
        for v in self.violations:
            lines.append(
                f"  violation #{v.index}: source={v.source_verdict} target={v.target_verdict}  {v.detail}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_machine(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "violations": [v.to_machine() for v in self.violations],
            "status": self.status,
            "notes": list(self.notes),
        }


def check_reduction(record, pairs, image_check=None):
    """Evaluate the defining equivalence on every supplied pair.

    Each disagreement (or per-pair domain error) is recorded with both
    verdicts; an empty violation list is a pass.  ``image_check(point,
    image)``, when given, runs on both points of every pair and returns
    None or the (detail, source_verdict, target_verdict) of a violation;
    it adds no checked case.
    """
    report = VerificationReport(name=record.name)
    for idx, (a, b) in enumerate(pairs):
        report.checked += 1
        try:
            src = record.source.relates(a, b)
            fa, fb = record.map(a), record.map(b)
            tgt = record.target.relates(fa, fb)
            found = () if image_check is None else (image_check(a, fa), image_check(b, fb))
        except CarveqError as err:
            report.violations.append(
                Violation(idx, f"{type(err).__name__}: {err}", "error", "error")
            )
            continue
        if src != tgt:
            report.violations.append(
                Violation(
                    idx,
                    f"pair {_describe(a)} | {_describe(b)}",
                    src,
                    tgt,
                )
            )
        report.violations.extend(Violation(idx, *v) for v in found if v is not None)
    return report


def _constant_corruption(record, pairs):
    """Test hook: replace the map by a constant map to the image of the first
    pair's first point, which any source-unrelated sampled pair exposes."""
    if not pairs:
        return record
    fixed = record.map(pairs[0][0])
    return ReductionRecord(
        name=record.name, source=record.source, target=record.target, map=lambda v: fixed
    )


def check_sampled(name, cfg, corrupt=False, image_check=None):
    """check_reduction on the registry entry ``name`` over ``cfg.cases``
    pairs, pair i drawn from stream(cfg.seed, i).  ``corrupt`` swaps in a
    constant map (test hook)."""
    record, sampler = sampled_reductions()[name]
    pairs = [sampler(stream(cfg.seed, i), cfg) for i in range(cfg.cases)]
    if corrupt:
        record = _constant_corruption(record, pairs)
    return check_reduction(record, pairs, image_check)


# The reducibility chain in order; its one conjectured link is never verified.
CHAIN = ("fs2_to_e", "e_to_fxg", "fxg_to_fxf", "fxf_to_f")
CONJECTURED = "e_to_fxg"


def link_status(link):
    """The chain's word for one link report."""
    if link.name == CONJECTURED:
        return "hypothetical"
    return "verified" if not link.violations else "violated"


@dataclass
class ChainReport:
    seed: int
    cases: int
    links: list = field(default_factory=list)
    growth: list = field(default_factory=list)

    @property
    def status(self):
        if not any(link.violations for link in self.links):
            return "counterexample structure verified"
        return "violations found"

    def to_text(self):
        lines = [f"chain report  seed={self.seed} cases={self.cases}"]
        for link in self.links:
            status = link_status(link)
            if status == "hypothetical":
                lines.append(f"  [conj] {link.name:<12} hypothetical: conjectured link, never verified")
            else:
                mark = "ok" if status == "verified" else "XX"
                lines.append(
                    f"  [{mark}]   {link.name:<12} checked={link.checked}  violations={len(link.violations)}"
                )
        lines.append("class-count growth (brute-force, per universe size):")
        lines.append("  level n count closed-form match")
        for level, n, count, closed, match in self.growth:
            lines.append(f"  {level} {n} {count} {closed} {'yes' if match else 'NO'}")
        lines.append(f"status: {self.status}")
        return "\n".join(lines)

    def to_machine(self):
        return {
            "seed": self.seed,
            "cases": self.cases,
            "links": [
                {
                    "name": link.name,
                    "checked": link.checked,
                    "violations": [v.to_machine() for v in link.violations],
                    "status": link_status(link),
                }
                for link in self.links
            ],
            "growth": [
                {"level": lv, "n": n, "count": c, "closed_form": cf, "match": m}
                for lv, n, c, cf, m in self.growth
            ],
            "status": self.status,
        }

    def to_json(self):
        return json.dumps(self.to_machine(), sort_keys=True)


def chain_report(cfg, corrupt=None):
    """Verify every implemented chain link on seeded samples.

    Links, in chain order: the second-jump embedding into E; the conjectured
    link from E into the product (typed, never verified, reported with no
    checked case); folding the second product coordinate from word-class
    sequences into atom sequences; and the interleaving of a product into a
    single sequence.  The implemented links are registry entries, sampled
    as ``verify`` samples them.  The class-count growth table for universe
    sizes 1..3 is attached.  ``corrupt`` names an implemented link whose
    map gets deliberately broken (test hook); any other name is a
    ValueError.
    """
    from .invariants import closed_form, count_classes

    if corrupt is not None and (corrupt not in CHAIN or corrupt == CONJECTURED):
        links = ", ".join(name for name in CHAIN if name != CONJECTURED)
        raise ValueError(f"cannot corrupt {corrupt!r}: implemented chain links are {links}")

    report = ChainReport(seed=cfg.seed, cases=cfg.cases)
    for name in CHAIN:
        if name == CONJECTURED:
            report.links.append(VerificationReport(name=name))
        else:
            report.links.append(check_sampled(name, cfg, corrupt=corrupt == name))

    for n in (1, 2, 3):
        for level in ("F", "E"):
            count = count_classes(level, n)
            closed = closed_form(level, n)
            report.growth.append((level, n, count, closed, count == closed))

    return report
