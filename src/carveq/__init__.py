"""carveq: decidable equivalence relations on finitary sequence codes.

Atoms with structural equality; cyclic and pair-merged sequence codes with
total evaluation; the jump operator, products, range equality, and
carve-family equality on validated points; canonical invariants and
brute-force class counting; executable reductions with a sampling verifier;
and a seeded property harness with a CLI front end.
"""

from .atoms import (
    AtomSet,
    CyclicWord,
    Rational,
    Tag,
    WordAtom,
    atom_eq,
    atom_sort_key,
    canonical_family,
    primitive_root,
)
from .codes import (
    CycW,
    Cyclic,
    PairMerge,
    Pullback,
    YSeq,
    ZCode,
    binseq_class_rep,
    binseq_eq,
    binseq_value_at,
    grid_cells,
    iota,
    pullback,
    range_atoms,
    range_set,
    saturation_bound,
    value_at,
)
from .errors import (
    CarveqError,
    ClauseViolation,
    DomainViolation,
    ParseError,
    ResourceLimit,
    StructuralMismatch,
)
from .generators import FuzzConfig, SplitMix64, stream
from .invariants import (
    atom_universe,
    closed_form,
    count_classes,
    e_invariant,
    fs2_invariant,
    g_invariant,
)
from .pairing import cantor_pair, cantor_unpair
from .reductions import (
    ChainReport,
    ReductionRecord,
    VerificationReport,
    Violation,
    canonical_basepoint,
    chain_report,
    check_reduction,
    const_jump_embedding,
    embed_fs2,
    fiber_reduction,
    g_to_f,
    pair_interleave,
)
from .relations import (
    ATOM_EQ,
    E_REL,
    F_REL,
    G_REL,
    EqRelHandle,
    PPoint,
    carve,
    carve_family,
    carve_pair,
    jump,
    product,
    rel_E,
    rel_F,
    rel_G,
)
from .serialize import (
    parse_any,
    parse_aseq,
    parse_atom,
    parse_binseq,
    parse_ppoint,
    to_text,
)

__version__ = "0.1.0"
