"""carveq: decidable equivalence relations on finitary sequence codes.

Atoms with structural equality; cyclic and pair-merged sequence codes with
total evaluation; the jump operator, products, range equality, and
carve-family equality on validated points; canonical invariants and
brute-force class counting; executable reductions with a sampling verifier;
and a seeded property harness with a CLI front end.

The names below are the public API that the README lists; every other
function is reached through its module.
"""

from .atoms import AtomSet, Rational, Tag, WordAtom
from .codes import CycW, Cyclic, PairMerge, Pullback, YSeq, ZCode, binseq_eq, pullback, range_atoms
from .errors import (
    CarveqError,
    ClauseViolation,
    DomainViolation,
    ParseError,
    ResourceLimit,
    StructuralMismatch,
)
from .generators import FuzzConfig, stream
from .invariants import closed_form, count_classes, e_invariant, fs2_invariant
from .reductions import chain_report, check_reduction, embed_fs2, fiber_reduction
from .relations import (
    ATOM_EQ,
    E_REL,
    F_REL,
    G_REL,
    EqRelHandle,
    PPoint,
    carve,
    carve_family,
    jump,
    product,
    rel_E,
    rel_F,
    rel_G,
)
from .serialize import parse_any, to_text

__version__ = "0.1.0"
