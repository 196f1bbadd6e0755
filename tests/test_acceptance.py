"""Acceptance criteria, one test per criterion.

Each test runs its criterion at the stated sample size, asserts the exact
tolerance (zero violations everywhere), enforces the stated runtime budget,
and prints one ACCEPTANCE PASS/FAIL line (visible with ``pytest -s``).
"""

import time
from contextlib import contextmanager

from carveq import (
    FuzzConfig,
    chain_report,
    closed_form,
    count_classes,
    fs2_invariant,
    parse_any,
    rel_E,
    to_text,
)
from carveq.campaigns import (
    _infiber_case,
    campaign_claim,
    campaign_embed,
    campaign_identity,
    campaign_interleave,
    campaign_remark,
    campaign_star,
)
from carveq.generators import gen_serial_value, gen_zcode_pair, stream
from carveq.reductions import link_status

from test_serialize import VECTORS


@contextmanager
def criterion(name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE FAIL: {name}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s exceeds {budget_seconds}s"
    print(f"\nACCEPTANCE PASS: {name} ({elapsed:.2f}s)")


def test_criterion_identity_law():
    with criterion("identity law on 500 points, exact", 10):
        report = campaign_identity(FuzzConfig(seed=0, cases=500))
        assert report.checked == 500
        assert report.violations == []


def test_criterion_claim_full_iff():
    with criterion("fiber reduction iff on 1000 in-fiber pairs, exact", 30):
        cfg = FuzzConfig(seed=0, cases=1000)
        report = campaign_claim(cfg)
        assert report.checked == 2000  # identity phase + iff phase
        assert report.violations == []
        # the sampled pairs include engineered related ones: replay the
        # campaign's substreams and tally
        related = 0
        for i in range(cfg.cases):
            _, p, q = _infiber_case(stream(cfg.seed, 10_000 + i), cfg)
            related += rel_E(p, q)
        assert related >= 100


def test_criterion_star_correspondence():
    with criterion("entrywise carve correspondence on 1000 pairs, all n and m", 30):
        report = campaign_star(FuzzConfig(seed=0, cases=1000))
        assert report.checked == 1000
        assert report.violations == []


def test_criterion_remark():
    with criterion("relatedness forces equal ranges; converse fails on a witness", 10):
        report = campaign_remark(FuzzConfig(seed=0, cases=1000))
        assert report.checked == 1000
        assert report.violations == []
        assert any("converse fails" in note for note in report.notes)


def test_criterion_embedding():
    with criterion("double-jump embedding iff and invariant equality on 1000 pairs", 30):
        cfg = FuzzConfig(seed=0, cases=1000)
        report = campaign_embed(cfg)
        assert report.checked == 1000
        assert report.violations == []
        # the samples include permuted/duplicated-row constructions: replay
        # the campaign's substreams and count related pairs
        related = 0
        for i in range(cfg.cases):
            z, z2 = gen_zcode_pair(stream(cfg.seed, i), cfg)
            related += fs2_invariant(z) == fs2_invariant(z2)
        assert related >= 100


def test_criterion_interleaving():
    with criterion("product-to-single interleaving iff on 1000 pairs", 10):
        report = campaign_interleave(FuzzConfig(seed=0, cases=1000))
        assert report.checked == 1000
        assert report.violations == []


def test_criterion_class_counts():
    with criterion("brute-force class counts match closed forms for n=1..3", 60):
        for n, expected in ((1, 1), (2, 3), (3, 7)):
            count = count_classes("F", n)
            assert count == expected == closed_form("F", n)
        for n, expected in ((1, 1), (2, 7), (3, 127)):
            count = count_classes("E", n)
            assert count == expected == closed_form("E", n)


def test_criterion_chain_report():
    with criterion("chain verified, hypothetical flagged, deterministic bytes", 120):
        cfg = FuzzConfig(seed=0, cases=250)
        report = chain_report(cfg)
        assert report.status == "counterexample structure verified"
        statuses = {link.name: link_status(link) for link in report.links}
        assert statuses["e_to_fxg"] == "hypothetical"
        assert all(
            status == "verified" for name, status in statuses.items() if name != "e_to_fxg"
        )
        again = chain_report(cfg)
        assert report.to_text() == again.to_text()
        assert report.to_json() == again.to_json()


def test_criterion_serialization():
    with criterion("parse of print is identity on 1000 codes; print of parse idempotent", 30):
        cfg = FuzzConfig(cases=0, atom_universe=3, max_period=4, max_entries=3)
        for i in range(1000):
            value = gen_serial_value(stream(0, i), cfg)
            assert parse_any(to_text(value)) == value
        for vector in VECTORS:
            once = to_text(parse_any(vector))
            assert to_text(parse_any(once)) == once
