"""Executable reductions between the relation layers, the one case loop
behind every check, a sampling verifier, and the assembled
reducibility-chain report.

A reduction is a map f with: points relate iff their images relate.  That
equivalence is never assumed here; check_reduction evaluates both verdicts
on supplied pairs and reports every disagreement.  Every ``verify`` target
and every chain link runs its cases through :func:`run_cases`, which
reports a CarveqError raised in a case as that case's violation.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

from .atoms import WordAtom
from .codes import (
    CycW,
    Cyclic,
    PairMerge,
    YSeq,
    ZCode,
    binseq_value_at,
    grid_cells,
    iota,
    pullback,
    range_atoms,
    range_set,
)
from .errors import CarveqError, DomainViolation, StructuralMismatch
from .generators import gen_atom_pair, gen_cyclic_pair, gen_yseq_pair, gen_zcode_pair, stream
from .invariants import ROW_KEYS, count_row, e_invariant
from .relations import ATOM_EQ, E_REL, F_REL, G_REL, EqRelHandle, PPoint, jump, product
from .serialize import to_text


@dataclass(frozen=True)
class ReductionRecord:
    """A named map between relation handles; correctness is a tested
    property, never an assumption."""

    name: str
    source: EqRelHandle
    target: EqRelHandle
    map: Callable


def canonical_basepoint(aset):
    """Sorted cyclic enumeration of an atom set: the canonical representative
    of its range class."""
    return Cyclic(aset.elements)


def fiber_reduction(x0):
    """Reduction of E restricted to the fiber of ``x0`` into the jump of
    binary-sequence equality.

    Output entry n is a word of one x0-period: bit k is y(n) at any witness
    index k' with x(k') = x0(k).  The map takes any grid cell index of each
    value (see grid_cells): the fiber condition makes range(x) cover every
    x0(k), so each has a witness, and clause (3) makes every index of a
    value give the same bit.  The fiber holds the points whose x enumerates
    the same set as x0; the source, which decides E by e_invariant, and the
    map share one check of it, which raises DomainViolation outside.
    """
    if not isinstance(x0, Cyclic):
        raise StructuralMismatch("fiber basepoints must be cyclic codes")
    rng0 = range_atoms(x0)

    def check_in_fiber(p):
        if not isinstance(p, PPoint) or range_atoms(p.x) != rng0:
            raise DomainViolation("point outside the fiber of the basepoint")

    def decide(p, q):
        check_in_fiber(p)
        check_in_fiber(q)
        return e_invariant(p) == e_invariant(q)

    def fmap(p):
        check_in_fiber(p)
        index_of = {a: kp for kp, a in grid_cells(p.x)}
        witnesses = [index_of[target] for target in x0.entries]
        return YSeq(
            tuple(
                CycW("".join("1" if binseq_value_at(entry, kp) else "0" for kp in witnesses))
                for entry in p.y.entries
            )
        )

    text = to_text(x0)
    source = EqRelHandle(f"E|{text}", decide)
    return ReductionRecord(name=f"fiber[{text}]", source=source, target=G_REL, map=fmap)


def embed_fs2(z):
    """Embed a row code as a validated point: the pair-merge of z enumerates
    every value of every row, and entry n pulls back the range of row n.

    Validation cannot fail: pullbacks (and the constant words they normalize
    to) satisfy clause (3) structurally, rows are nonempty so every carve is
    nonempty, and the row ranges cover the merged range.
    """
    if not isinstance(z, ZCode):
        raise TypeError(f"not a ZCode: {z!r}")
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
    Each entry is tagged once and its tag reused at every slot it fills.
    """
    if not (isinstance(x, Cyclic) and isinstance(y, Cyclic)):
        raise StructuralMismatch("pair_interleave needs two cyclic codes")
    xs = [iota(a, 0) for a in x.entries]
    ys = [iota(b, 1) for b in y.entries]
    out = []
    for n in range(math.lcm(len(xs), len(ys))):
        out.append(xs[n % len(xs)])
        out.append(ys[n % len(ys)])
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
    singleton of the point's class, so images are related under the jump
    exactly when the points are related.  ``wrap`` picks the sequence type
    of the image (Cyclic for atoms, ZCode for cyclic codes)."""
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
            ReductionRecord("fxg_to_fxf", product(F_REL, G_REL), fxf, lambda xy: (xy[0], g_to_f(xy[1]))),
            _product_sampler(gen_cyclic_pair, gen_yseq_pair),
        ),
        (
            ReductionRecord("fxf_to_f", fxf, F_REL, lambda xy: pair_interleave(xy[0], xy[1])),
            _product_sampler(gen_cyclic_pair, gen_cyclic_pair),
        ),
        (ReductionRecord("g_to_f", G_REL, F_REL, g_to_f), gen_yseq_pair),
        (const_jump_embedding(ATOM_EQ), gen_atom_pair),
        (const_jump_embedding(F_REL, wrap=ZCode), gen_cyclic_pair),
    )
    return {record.name: (record, sampler) for record, sampler in entries}


def _describe(value):
    """Canonical text of a source point; a product point is written
    ``<t0, t1>`` from the texts of its coordinates."""
    if isinstance(value, tuple):
        return "<" + ", ".join(_describe(v) for v in value) + ">"
    return to_text(value)


@dataclass
class Violation:
    index: int
    detail: str
    source_verdict: object
    target_verdict: object


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
        return {**asdict(self), "status": self.status}


def run_cases(name, cases, check):
    """The one case loop: number ``cases`` from 0 and count each as checked.

    ``check(case)`` returns a list of (detail, source_verdict,
    target_verdict) triples, each recorded as a violation of that case.  A
    CarveqError raised by ``check`` becomes the case's one violation, with
    detail ``"<Type>: <message>"`` and both verdicts ``"error"``.
    """
    report = VerificationReport(name=name)
    for index, case in enumerate(cases):
        report.checked += 1
        report.violations += case_violations(index, check, case)
    return report


def case_violations(index, check, case):
    """``check(case)`` as Violations at ``index``, under run_cases' error rule."""
    try:
        found = check(case)
    except CarveqError as err:
        found = [(f"{type(err).__name__}: {err}", "error", "error")]
    return [Violation(index, *v) for v in found]


def class_map_violations(keyed, injective=True):
    """Clashes of the map source key -> target key on ``keyed``, finitely
    many (name, source key, target key) items, as run_cases triples: ("not
    well defined", first name, name) for equal source keys with unequal
    target keys and, with ``injective``, ("not injective", first name, name)
    for the converse.  Each item meets the first one stored under its keys,
    so every clash between two items shows up."""
    by_src, by_tgt, found = {}, {}, []
    for name, s, t in keyed:
        first, first_t = by_src.setdefault(s, (name, t))
        if first_t != t:
            found.append(("not well defined", first, name))
        if injective:
            first, first_s = by_tgt.setdefault(t, (name, s))
            if first_s != s:
                found.append(("not injective", first, name))
    return found


def merged(name, *reports):
    """One report from several: checked counts add up, violations and notes
    are concatenated in order."""
    report = VerificationReport(name=name)
    for part in reports:
        report.checked += part.checked
        report.violations += part.violations
        report.notes += part.notes
    return report


def pair_violations(record, pair, image_check=None):
    """The defining equivalence on one pair of source points, as run_cases
    triples: ("pair <a> | <b>", source verdict, target verdict) when the
    verdicts disagree.  ``image_check(point, image)``, when given, runs on
    both points and returns None or one more triple."""
    a, b = pair
    src = record.source.decide(a, b)
    fa, fb = record.map(a), record.map(b)
    tgt = record.target.decide(fa, fb)
    found = [] if src == tgt else [(f"pair {_describe(a)} | {_describe(b)}", src, tgt)]
    if image_check is not None:
        found += [v for v in (image_check(a, fa), image_check(b, fb)) if v is not None]
    return found


def check_reduction(record, pairs, image_check=None):
    """:func:`pair_violations` on every supplied pair, through run_cases: a
    per-pair domain error is that pair's violation, an empty violation list
    is a pass, and ``image_check`` adds no checked case."""
    return run_cases(record.name, pairs, lambda pair: pair_violations(record, pair, image_check))


def check_sampled(name, cfg, corrupt=False, image_check=None):
    """check_reduction on the registry entry ``name`` over ``cfg.cases``
    pairs, pair i drawn from stream(cfg.seed, i) just before it is checked.
    ``corrupt`` (test hook) swaps in a constant map to the image of pair
    0's first point, which any source-unrelated sampled pair exposes."""
    record, sampler = sampled_reductions()[name]
    if corrupt and cfg.cases:
        fixed = record.map(sampler(stream(cfg.seed, 0), cfg)[0])
        record = replace(record, map=lambda v: fixed)
    pairs = (sampler(stream(cfg.seed, i), cfg) for i in range(cfg.cases))
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
        if not any(link.violations for link in self.links) and all(match for *_, match in self.growth):
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
                    "violations": [asdict(v) for v in link.violations],
                    "status": link_status(link),
                }
                for link in self.links
            ],
            "growth": [dict(zip(ROW_KEYS, row)) for row in self.growth],
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
    if corrupt is not None and (corrupt not in CHAIN or corrupt == CONJECTURED):
        links = ", ".join(name for name in CHAIN if name != CONJECTURED)
        raise ValueError(f"cannot corrupt {corrupt!r}: implemented chain links are {links}")

    report = ChainReport(seed=cfg.seed, cases=cfg.cases)
    for name in CHAIN:
        if name == CONJECTURED:
            report.links.append(VerificationReport(name=name))
        else:
            report.links.append(check_sampled(name, cfg, corrupt=corrupt == name))

    report.growth = [count_row(level, n) for n in (1, 2, 3) for level in ("F", "E")]
    return report
