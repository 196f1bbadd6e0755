"""The benchmark's seeded workloads, driven through carveq's public API.

Each workload has three parts:

* ``build(seed, size)`` makes the inputs (timed as set-up);
* ``run(inputs, call)`` is one timed pass: it asks carveq for every verdict
  and returns them raw.  Every call into the package goes through
  ``call(name, fn, *args)``, which is a plain call in the untraced run and
  opens a root span in the traced run.  Package functions are looked up on
  their module at call time, so the traced run sees its wrappers;
* ``check(inputs, raw)`` checks every verdict against a reference outside
  the timed pass and returns an ``Outcome`` with the digest of the report
  bytes.

``SIZES`` holds the full size each workload runs at and the smoke size the
self-test uses.
"""

import hashlib
import json
from dataclasses import dataclass

import math

from carveq import campaigns, codes, errors, generators, invariants, reductions, relations, serialize
from carveq.codes import Pullback, YSeq
from carveq.generators import FuzzConfig

# A verdict that raised one of these counts as undecided.  Looked up by name:
# an exact, total decision may retire IncomparableCodes.
UNDECIDED = tuple(
    getattr(errors, name) for name in ("IncomparableCodes", "ResourceLimit") if hasattr(errors, name)
)

FIBER_TARGETS = ("claim", "star", "remark")
PAIRMERGE_TARGETS = ("embed", "interleave", "gtof", "constjump")

SIZES = {
    "full": {"cases": 1000, "chain_cases": 250, "relg_pairs": 2000, "values": 8000, "count_n": 4},
    "smoke": {"cases": 20, "chain_cases": 10, "relg_pairs": 60, "values": 60, "count_n": 3},
}

# Salt for the rel_G entry lists, away from the substreams campaigns use.
RELG_SALT = 1 << 40


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    undecided: int = 0
    digest: str = ""

    def record(self, attempted, failed=0, undecided=0):
        self.attempted += attempted
        self.failed += min(failed, attempted)
        self.undecided += min(undecided, attempted)


def _attempt(call, name, fn, *args):
    """(result, None) or (None, error) for one verdict request."""
    try:
        return call(name, fn, *args), None
    except Exception as err:  # an uncaught error fails the item; keep going
        return None, err


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()


def _campaign_outcome(out, target, cases, report, err, chunks):
    """Score one campaign: its cases are attempted, its violations failed."""
    planned = 2 * cases if target in ("claim", "constjump") else cases
    if err is not None:
        out.record(planned, planned, planned if isinstance(err, UNDECIDED) else 0)
        chunks.append(f"{target}: {type(err).__name__}")
        return
    undecided = sum(
        1 for v in report.violations if str(v.detail).startswith(("IncomparableCodes", "ResourceLimit"))
    )
    bad = len(report.violations) + (report.checked != planned) * planned
    out.record(planned, bad, undecided)
    chunks.append(json.dumps(report.to_machine(), sort_keys=True))


# -- fiber -------------------------------------------------------------------


@dataclass
class CampaignInputs:
    cfg: FuzzConfig

    def describe(self):
        return repr(self.cfg)


def build_fiber(seed, size):
    return CampaignInputs(FuzzConfig(seed=seed, cases=SIZES[size]["cases"]))


def run_fiber(inputs, call):
    return {
        target: _attempt(call, f"bench.{target}", campaigns.CAMPAIGNS[target], inputs.cfg)
        for target in FIBER_TARGETS
    }


def check_fiber(inputs, raw):
    out, chunks = Outcome(), []
    for target in FIBER_TARGETS:
        _campaign_outcome(out, target, inputs.cfg.cases, *raw[target], chunks)
    out.digest = _digest(chunks)
    return out


# -- enumerate ---------------------------------------------------------------


@dataclass
class CountInputs:
    n: int

    def describe(self):
        return f"count_classes F and E at n={self.n}"


def build_enumerate(seed, size):
    """Deterministic: the seed is ignored."""
    return CountInputs(SIZES[size]["count_n"])


def run_enumerate(inputs, call):
    return {
        level: _attempt(call, f"bench.count.{level}", invariants.count_classes, level, inputs.n)
        for level in ("F", "E")
    }


def check_enumerate(inputs, raw):
    out, rows = Outcome(), []
    for level in ("F", "E"):
        count, err = raw[level]
        closed = invariants.closed_form(level, inputs.n)
        if err is not None:
            out.record(1, 1, isinstance(err, UNDECIDED))
            rows.append({"level": level, "n": inputs.n, "error": type(err).__name__})
            continue
        out.record(1, count != closed)
        rows.append(
            {"level": level, "n": inputs.n, "count": count, "closed_form": closed, "match": count == closed}
        )
    out.digest = _digest([json.dumps({"rows": rows}, sort_keys=True)])
    return out


# -- pairmerge ---------------------------------------------------------------


@dataclass
class PairMergeInputs:
    cfg: FuzzConfig
    chain_cfg: FuzzConfig
    pairs: tuple  # (YSeq, YSeq) entry lists mixing words and pullbacks

    def describe(self):
        lines = [repr(self.cfg), repr(self.chain_cfg)]
        lines.extend(f"{serialize.to_text(y)} | {serialize.to_text(y2)}" for y, y2 in self.pairs)
        return "\n".join(lines)


def gen_relg_pair(rng, cfg):
    """Two entry lists drawn with gen_binseq; about half the time the second
    reshuffles (and may duplicate) the entries of the first."""
    y = YSeq(tuple(generators.gen_binseq(rng, cfg) for _ in range(rng.randint(1, cfg.max_entries))))
    if rng.coin():
        entries = rng.shuffle(y.entries)
        if rng.coin():
            entries.append(rng.choice(y.entries))
        return y, YSeq(tuple(entries))
    return y, YSeq(tuple(generators.gen_binseq(rng, cfg) for _ in range(rng.randint(1, cfg.max_entries))))


def _root(seq):
    """Shortest prefix whose repetition is ``seq``."""
    n = len(seq)
    return next(seq[:d] for d in range(1, n + 1) if n % d == 0 and seq[:d] * (n // d) == seq)


def _word_bit(bits, i, j):
    """Bit of the word ``bits`` at k = e(i, j) = T(i + j) + j, T(t) = t(t + 1)/2."""
    return bits[((i + j) * (i + j + 1) // 2 + j) % len(bits)] == "1"


def sequence_class(entry):
    """Exact name of the binary sequence an entry denotes, from its definition.

    Read through the Cantor pairing k = e(i, j), a sequence is a table of rows
    i, each a function of j.  A pullback over pair-merge rows z_0..z_{s-1}
    has as row i the indicator of its set along z_{i mod s}: the rows repeat
    with period s, row i with the period of z_{i mod s}.  A word of length L
    has bit w[(T(i + j) + j) mod L] at e(i, j), and T(t) mod L has period 2L
    in t: the rows repeat with period 2L, each row with period 2L.  Each row
    cut to its primitive root, and the row list cut to its own, name the
    sequence uniquely, words and pullbacks alike.
    """
    if isinstance(entry, Pullback):
        rows = (tuple(a in entry.aset for a in row.entries) for row in entry.base.z.entries)
    else:
        bits = entry.word.bits
        n = 2 * len(bits)
        rows = (tuple(_word_bit(bits, i, j) for j in range(n)) for i in range(n))
    return _root(tuple(_root(row) for row in rows))


def _bit(entry, k):
    """Bit k of an entry, from its definition."""
    if not isinstance(entry, Pullback):
        return entry.word.bits[k % len(entry.word.bits)] == "1"
    w = (math.isqrt(8 * k + 1) - 1) // 2
    j = k - w * (w + 1) // 2
    rows = entry.base.z.entries
    row = rows[(w - j) % len(rows)].entries
    return row[j % len(row)] in entry.aset


def refusal_allowed(y, y2):
    """Whether rel_G may answer IncomparableCodes on (y, y2) as documented:
    some word on one side and pullback on the other agree on every index
    below ``codes.DEFAULT_N_CMP``, the only comparison binseq_eq refuses."""
    n_cmp = getattr(codes, "DEFAULT_N_CMP", 0)
    return any(
        isinstance(u, Pullback) != isinstance(v, Pullback)
        and all(_bit(u, k) == _bit(v, k) for k in range(n_cmp))
        for u in y.entries
        for v in y2.entries
    )


def build_pairmerge(seed, size):
    sz = SIZES[size]
    cfg = FuzzConfig(seed=seed, cases=sz["cases"])
    pairs = tuple(gen_relg_pair(generators.stream(seed, RELG_SALT + i), cfg) for i in range(sz["relg_pairs"]))
    return PairMergeInputs(cfg, FuzzConfig(seed=seed, cases=sz["chain_cases"]), pairs)


def _relg_pass(pairs):
    verdicts = []
    for y, y2 in pairs:
        try:
            verdicts.append(relations.rel_G(y, y2))
        except Exception as err:  # an uncaught error fails the item; keep going
            verdicts.append(err)
    return verdicts


def run_pairmerge(inputs, call):
    raw = {
        target: _attempt(call, f"bench.{target}", campaigns.CAMPAIGNS[target], inputs.cfg)
        for target in PAIRMERGE_TARGETS
    }
    raw["chain"] = _attempt(call, "bench.chain", reductions.chain_report, inputs.chain_cfg)
    raw["rel_G"] = call("bench.rel_G", _relg_pass, inputs.pairs)
    return raw


def check_pairmerge(inputs, raw):
    out, chunks = Outcome(), []
    for target in PAIRMERGE_TARGETS:
        _campaign_outcome(out, target, inputs.cfg.cases, *raw[target], chunks)

    report, err = raw["chain"]
    links = 3 * inputs.chain_cfg.cases
    if err is not None:
        out.record(links, links, links if isinstance(err, UNDECIDED) else 0)
        chunks.append(f"chain: {type(err).__name__}")
    else:
        checked = sum(link.checked for link in report.links)
        bad = sum(len(link.violations) for link in report.links)
        bad += (checked != links) * links
        bad += sum(not row[4] for row in report.growth)
        out.record(links + len(report.growth), bad)
        chunks.append(report.to_json())

    # A verdict must equal the exact entry-class comparison.  A refusal is
    # undecided, not failed, when it is the one binseq_eq documents.
    verdicts = raw["rel_G"]
    for (y, y2), verdict in zip(inputs.pairs, verdicts):
        if isinstance(verdict, UNDECIDED):
            out.record(1, not refusal_allowed(y, y2), 1)
            continue
        truth = {sequence_class(e) for e in y.entries} == {sequence_class(e) for e in y2.entries}
        out.record(1, verdict is not truth)
    chunks.append("".join("1" if v is True else "0" if v is False else "?" for v in verdicts))
    out.digest = _digest(chunks)
    return out


# -- roundtrip ---------------------------------------------------------------


@dataclass
class RoundTripInputs:
    values: tuple

    def describe(self):
        return "\n".join(serialize.to_text(v) for v in self.values)


def build_roundtrip(seed, size):
    cfg = FuzzConfig(seed=seed)
    return RoundTripInputs(tuple(generators.gen_serial_value(generators.stream(seed, i), cfg) for i in range(SIZES[size]["values"])))


def _roundtrip_pass(values):
    """Print, parse, print again."""
    to_text, parse_any = serialize.to_text, serialize.parse_any
    out = []
    for v in values:
        text = to_text(v)
        try:
            back = parse_any(text)
        except Exception as err:  # an uncaught error fails the item; keep going
            out.append((text, err, None))
            continue
        out.append((text, back, to_text(back)))
    return out


def run_roundtrip(inputs, call):
    return call("bench.roundtrip", _roundtrip_pass, inputs.values)


def check_roundtrip(inputs, raw):
    out = Outcome()
    for v, (text, back, again) in zip(inputs.values, raw):
        out.record(1, back != v or again != text)
    out.digest = _digest(text for text, _, _ in raw)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    build: object
    run: object
    check: object


WORKLOADS = {
    "fiber": Workload("fiber", build_fiber, run_fiber, check_fiber),
    "enumerate": Workload("enumerate", build_enumerate, run_enumerate, check_enumerate),
    "pairmerge": Workload("pairmerge", build_pairmerge, run_pairmerge, check_pairmerge),
    "roundtrip": Workload("roundtrip", build_roundtrip, run_roundtrip, check_roundtrip),
}


def fingerprint(inputs):
    """Digest of what a workload hands to the package."""
    return hashlib.sha256(inputs.describe().encode()).hexdigest()
