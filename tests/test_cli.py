import dataclasses
import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from carveq import (
    CycW, FuzzConfig, PPoint, Rational, StructuralMismatch, YSeq, ZCode, campaigns, cli, fs2_invariant, invariants,
    parse_any, reductions, rel_G, stream, to_text,
)
from carveq.cli import main
from carveq.generators import MAX_SIZE
from carveq.reductions import Violation

from helpers import mutated_texts, option_like_texts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_targets_pass(capsys):
    for target in ("claim", "star", "remark", "embed", "interleave", "gtof", "constjump"):
        code, out, _ = run(capsys, "verify", target, "--cases", "40")
        assert code == 0, (target, out)
        assert "pass" in out


# (verify target, registry entry it checks); constjump checks two entries.
IFF_ENTRIES = (
    ("embed", "fs2_to_e"),
    ("interleave", "fxf_to_f"),
    ("gtof", "g_to_f"),
    ("constjump", "const[eq]"),
    ("constjump", "const[F]"),
)


def break_map(monkeypatch, name, broken):
    """Give the registry entry ``name`` the map ``broken(record, sampler)``."""
    registry = reductions.sampled_reductions

    def patched():
        table = registry()
        record, sampler = table[name]
        table[name] = (dataclasses.replace(record, map=broken(record, sampler)), sampler)
        return table

    monkeypatch.setattr(reductions, "sampled_reductions", patched)


def constant_map(record, sampler):
    """A constant map to the image of the first point of pair 0."""
    fixed = record.map(sampler(stream(0, 0), FuzzConfig())[0])
    return lambda v: fixed


@pytest.mark.parametrize("target, name", IFF_ENTRIES)
def test_verify_iff_target_fails_on_constant_map(capsys, monkeypatch, target, name):
    _, sampler = reductions.sampled_reductions()[name]
    break_map(monkeypatch, name, constant_map)
    code, out, _ = run(capsys, "verify", target, "--cases", "40", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail"
    iff = [v for v in payload["violations"] if v["detail"].startswith("pair ")]
    assert iff
    for v in iff:
        a, b = sampler(stream(0, v["index"]), FuzzConfig())
        assert v["detail"] == f"pair {reductions._describe(a)} | {reductions._describe(b)}"
        assert (v["source_verdict"], v["target_verdict"]) == (False, True)


def test_verify_embed_reports_a_family_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(campaigns, "fs2_invariant", lambda z: fs2_invariant(z)[1:])
    code, out, _ = run(capsys, "verify", "embed", "--cases", "40", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "fail" and payload["violations"]
    for v in payload["violations"]:
        assert v["detail"].startswith("embedded carve family differs from row-range family: ")
        assert (v["source_verdict"], v["target_verdict"]) == ("fs2", "e")


def test_product_points_are_described_by_coordinate_texts(capsys, monkeypatch):
    _, sampler = reductions.sampled_reductions()["fxf_to_f"]
    break_map(monkeypatch, "fxf_to_f", constant_map)
    code, out, _ = run(capsys, "verify", "interleave", "--cases", "40", "--format", "machine")
    assert code == 1
    iff = [v for v in json.loads(out)["violations"] if v["detail"].startswith("pair ")]
    assert iff
    for v in iff:
        sides = v["detail"].removeprefix("pair ").split(" | ")
        parsed = []
        for side in sides:
            assert side.startswith("<") and side.endswith(">")
            parsed.append(tuple(parse_any(text) for text in side[1:-1].split(", ")))
        assert tuple(parsed) == sampler(stream(0, v["index"]), FuzzConfig())


def test_verify_records_map_errors(capsys, monkeypatch):
    def raising(record, sampler):
        def fail(v):
            raise StructuralMismatch("refused")

        return fail

    break_map(monkeypatch, "g_to_f", raising)
    code, out, _ = run(capsys, "verify", "gtof", "--cases", "5", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["checked"] == 5
    assert [v["detail"] for v in payload["violations"]] == ["StructuralMismatch: refused"] * 5


def refuse(*args):
    raise StructuralMismatch("refused")


@pytest.mark.parametrize(
    "target, name", [("claim", "rel_G"), ("star", "binseq_class_rep"), ("remark", "range_atoms")]
)
def test_verify_reports_an_error_raised_in_a_campaign_case(capsys, monkeypatch, target, name):
    if target == "claim":  # claim decides G through its fiber record's target handle
        monkeypatch.setattr(reductions, "G_REL", dataclasses.replace(reductions.G_REL, decide=refuse))
    else:
        monkeypatch.setattr(campaigns, name, refuse)
    code, out, _ = run(capsys, "verify", target, "--cases", "3", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["checked"] == (6 if target == "claim" else 3)
    assert {v["detail"] for v in payload["violations"]} == {"StructuralMismatch: refused"}
    assert [v["index"] for v in payload["violations"] if v["index"] >= 0] == [0, 1, 2]


def test_claim_violations_replay_from_their_streams(monkeypatch):
    cfg = FuzzConfig(seed=3, cases=8)
    negated = dataclasses.replace(reductions.G_REL, decide=lambda y, y2: not rel_G(y, y2))
    monkeypatch.setattr(reductions, "G_REL", negated)
    report = campaigns.campaign_claim(cfg)
    assert [v.index for v in report.violations] == list(range(cfg.cases))
    for v in report.violations:
        _, p, q = campaigns._infiber_case(stream(cfg.seed, 10_000 + v.index), cfg)
        assert v.detail == f"pair {to_text(p)} | {to_text(q)}"


def test_claim_streams_follow_every_identity_stream(monkeypatch):
    used = {"identity": [], "claim": []}
    monkeypatch.setattr(campaigns, "stream", lambda seed, index: index)
    monkeypatch.setattr(campaigns, "_identity_case", lambda index, cfg: used["identity"].append(index) or [])
    monkeypatch.setattr(campaigns, "_claim_case", lambda index, cfg: used["claim"].append(index) or [])
    report = campaigns.campaign_claim(FuzzConfig(cases=10_001))
    assert report.checked == 20_002 and not report.violations
    assert used["identity"] == list(range(10_001))
    assert used["claim"] == list(range(10_001, 20_002))


def break_fiber_map(monkeypatch, broken):
    """Make every fiber record's map return ``broken(image)`` of its image."""
    fiber = campaigns.fiber_reduction

    def patched(x0):
        record = fiber(x0)
        return dataclasses.replace(record, map=lambda p: broken(record.map(p)))

    monkeypatch.setattr(campaigns, "fiber_reduction", patched)


def test_identity_reports_a_changed_entry_count(monkeypatch):
    break_fiber_map(monkeypatch, lambda y: YSeq(y.entries + y.entries[:1]))
    cfg = FuzzConfig(seed=5, cases=4)
    report = campaigns.campaign_identity(cfg)
    assert report.checked == 4 and report.status == "fail"
    points = [campaigns._cyclic_point(stream(cfg.seed, i), cfg) for i in range(cfg.cases)]
    assert report.violations == [
        Violation(i, f"entry count changed on {to_text(p)}", len(p.y.entries), len(p.y.entries) + 1)
        for i, p in enumerate(points)
    ]


def test_identity_reports_the_first_changed_entry(monkeypatch):
    def flip_last(y):
        bits = y.entries[-1].word.bits.translate(str.maketrans("01", "10"))
        return YSeq(y.entries[:-1] + (CycW(bits),))

    break_fiber_map(monkeypatch, flip_last)
    cfg = FuzzConfig(seed=5, cases=4)
    report = campaigns.campaign_identity(cfg)
    assert report.checked == 4 and report.status == "fail"
    points = [campaigns._cyclic_point(stream(cfg.seed, i), cfg) for i in range(cfg.cases)]
    assert report.violations == [
        Violation(i, f"entry {len(p.y.entries) - 1} changed on {to_text(p)}", "y(n)", "f(p)(n)")
        for i, p in enumerate(points)
    ]


def test_remark_reports_a_converse_witness_that_does_not_behave(monkeypatch):
    monkeypatch.setattr(campaigns, "rel_E", lambda p, q: True)
    report = campaigns.campaign_remark(FuzzConfig(cases=3))
    assert report.checked == 3 and report.status == "fail" and report.notes == []
    assert report.violations == [
        Violation(-1, "engineered converse witness did not behave", "F and not E", "other")
    ]


def test_remark_reports_carves_that_do_not_union_to_the_range(monkeypatch):
    extra = Rational(99, 1)
    range_atoms = campaigns.range_atoms
    monkeypatch.setattr(campaigns, "range_atoms", lambda x: range_atoms(x) | {extra})
    cfg = FuzzConfig(seed=5, cases=3)
    report = campaigns.campaign_remark(cfg)
    assert report.checked == 3 and report.status == "fail"
    pairs = [campaigns._remark_pair(stream(cfg.seed, i), cfg) for i in range(cfg.cases)]
    assert report.violations == [
        Violation(i, f"carves do not union to the range: {to_text(point)}", "union", "range")
        for i, pair in enumerate(pairs)
        for point in pair
    ]


def test_verify_text_report_lists_each_violation(capsys, monkeypatch):
    monkeypatch.setattr(campaigns, "rel_E", lambda p, q: True)
    code, out, _ = run(capsys, "verify", "remark", "--cases", "2")
    assert code == 1
    assert out == (
        "verify:remark: fail  checked=2  violations=1\n"
        "  violation #-1: source=F and not E target=other  engineered converse witness did not behave\n"
    )


def test_count_and_chain_fail_on_a_growth_row_that_does_not_match(capsys, monkeypatch):
    closed_form = invariants.closed_form
    wrong = {("E", 2): 8}
    monkeypatch.setattr(invariants, "closed_form", lambda level, n: wrong.get((level, n)) or closed_form(level, n))
    code, out, _ = run(capsys, "count", "--n", "2")
    assert code == 1
    assert [line.split() for line in out.splitlines()[1:]] == [["F", "2", "3", "3", "yes"], ["E", "2", "7", "8", "NO"]]
    code, out, _ = run(capsys, "count", "--n", "2", "--format", "machine")
    assert code == 1
    assert json.loads(out)["rows"][1] == {"level": "E", "n": 2, "count": 7, "closed_form": 8, "match": False}
    code, out, _ = run(capsys, "chain", "--cases", "3")
    assert code == 1
    lines = out.splitlines()
    assert "  E 2 7 8 NO" in lines and lines[-1] == "status: violations found"
    assert not any("[XX]" in line for line in lines)
    code, out, _ = run(capsys, "chain", "--cases", "3", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "violations found"
    assert [row["match"] for row in payload["growth"]] == [True, True, True, False, True, True]
    assert [link["status"] for link in payload["links"]] == ["verified", "hypothetical", "verified", "verified"]


def test_fiber_campaigns_validate_only_the_points_they_check(monkeypatch):
    # Per case: identity 1 point, claim 2, star 2, remark 2; remark's
    # converse witness adds 2 once.  A point built and then dropped adds more.
    validated = []
    validate = PPoint.__post_init__
    monkeypatch.setattr(PPoint, "__post_init__", lambda self: validated.append(self) or validate(self))
    cfg = FuzzConfig(cases=20)
    for target in ("claim", "star", "remark"):
        assert not campaigns.CAMPAIGNS[target](cfg).violations
    assert len(validated) == 7 * cfg.cases + 2


def test_identity_builds_no_row_code(monkeypatch):
    # Identity's points are cyclic by construction: no row code is drawn or built.
    built = []
    validate = ZCode.__post_init__
    monkeypatch.setattr(ZCode, "__post_init__", lambda self: built.append(self) or validate(self))
    assert not campaigns.campaign_identity(FuzzConfig(cases=100)).violations
    assert built == []


def test_star_remark_and_tagging_decide_through_the_class_map(monkeypatch):
    calls = {}
    target = None
    check = campaigns.class_map_violations

    def recorder(keyed, **kwargs):
        calls[target] = calls.get(target, 0) + 1
        return check(keyed, **kwargs)

    monkeypatch.setattr(campaigns, "class_map_violations", recorder)
    for target in ("star", "remark", "interleave"):
        assert not campaigns.CAMPAIGNS[target](FuzzConfig(cases=3)).violations
    assert calls == {"star": 3, "remark": 3, "interleave": 1}


def test_interleave_tagging_violation_is_json(capsys, monkeypatch):
    monkeypatch.setattr(campaigns, "iota", lambda a, bit: a)
    code, out, _ = run(capsys, "verify", "interleave", "--cases", "5", "--format", "machine")
    assert code == 1
    payload = json.loads(out)
    assert payload["checked"] == 5
    assert [v["detail"] for v in payload["violations"]] == ["tagging is not injective"] * 4
    assert payload["violations"][0]["source_verdict"] == "(rat 1 1) 0"


def test_verify_zero_cases(capsys):
    code, out, _ = run(capsys, "verify", "star", "--cases", "0")
    assert code == 0
    assert "checked=0" in out


def test_verify_machine_format(capsys):
    code, out, _ = run(capsys, "verify", "embed", "--cases", "20", "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"name", "checked", "violations", "status"}
    assert payload["status"] == "pass"
    assert payload["checked"] == 20
    assert payload["violations"] == []


def test_verify_remark_exhibits_witness(capsys):
    code, out, _ = run(capsys, "verify", "remark", "--cases", "10")
    assert code == 0
    assert "converse fails" in out


def test_verify_deterministic_bytes(capsys):
    _, out1, _ = run(capsys, "verify", "claim", "--seed", "7", "--cases", "30")
    _, out2, _ = run(capsys, "verify", "claim", "--seed", "7", "--cases", "30")
    assert out1 == out2
    # a remark run prints its witness pair, so seed-determinism shows in bytes
    _, w1, _ = run(capsys, "verify", "remark", "--seed", "7", "--cases", "30")
    _, w2, _ = run(capsys, "verify", "remark", "--seed", "7", "--cases", "30")
    assert w1 == w2


def test_count_tables(capsys):
    code, out, _ = run(capsys, "count", "--n", "1")
    assert code == 0 and " 1 " in out
    code, out, _ = run(capsys, "count", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("F") and " 3 " in f" {line} " for line in lines)
    assert any(line.startswith("E") and " 7 " in f" {line} " for line in lines)
    code, out, _ = run(capsys, "count", "--n", "3", "--format", "machine")
    payload = json.loads(out)
    counts = {row["level"]: row["count"] for row in payload["rows"]}
    assert counts == {"F": 7, "E": 127}
    assert all(row["match"] for row in payload["rows"])


def test_count_rejects_bad_config(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3", "--max-period", "5"])  # the table depends on n alone
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-period 5" in capsys.readouterr().err
    code, out, err = run(capsys, "count", "--n", "0")
    assert code == 2 and out == ""
    assert "error" in err
    code, out, err = run(capsys, "count", "--n", "5")
    assert code == 2 and out == ""
    assert "cap" in err
    # F alone would take 1*7 + 2*7^2 + ... + 7*7^7 entries, past the cap
    code, out, err = run(capsys, "count", "--n", "7")
    assert code == 2 and out == ""
    assert "cap" in err


def test_count_refuses_before_enumerating_either_level(monkeypatch, capsys):
    from carveq import invariants

    def started(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(invariants._Budget, "spend", started)
    # F's 324,726 steps fit the cap; E's plan at n = 6 does not
    code, out, err = run(capsys, "count", "--n", "6")
    assert code == 2 and out == ""
    assert "cap" in err


def test_count_refuses_campaign_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "2", "--seed", "5", "--atom-universe", "9", "--cases", "-4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "unrecognized arguments: --seed 5 --atom-universe 9 --cases -4" in err


CAMPAIGN_FLAGS = ("--seed", "3", "--cases", "4", "--atom-universe", "3", "--max-period", "4", "--max-entries", "2")
FLAGGED = FuzzConfig(seed=3, cases=4, atom_universe=3, max_period=4, max_entries=2)


def test_verify_and_chain_accept_every_campaign_flag(capsys):
    code, out, _ = run(capsys, "verify", "star", *CAMPAIGN_FLAGS, "--format", "machine")
    assert code == 0
    assert json.loads(out) == campaigns.CAMPAIGNS["star"](FLAGGED).to_machine()
    code, out, _ = run(capsys, "chain", *CAMPAIGN_FLAGS, "--format", "machine")
    assert code == 0
    assert out.strip() == reductions.chain_report(FLAGGED).to_json()


@pytest.mark.parametrize(
    "argv",
    (
        ("verify", "constjump", "--atom-universe", "100000000"),
        ("verify", "star", "--max-period", "1000000000"),
        ("chain", "--max-entries", "1001"),
    ),
)
def test_campaign_sizes_stop_at_max_size(capsys, argv):
    *command, flag, huge = argv
    refused = (2, "", f"error: {flag[2:].replace('-', '_')} must be between 1 and {MAX_SIZE}\n")
    for value in (huge, str(MAX_SIZE + 1)):
        start = time.perf_counter()
        assert run(capsys, *command, flag, value) == refused
        assert time.perf_counter() - start < 1
    code, out, _ = run(capsys, "verify", "gtof", flag, str(MAX_SIZE), "--cases", "1")
    assert code == 0 and out


def test_remark_needs_two_atoms(capsys):
    code, _, err = run(capsys, "verify", "remark", "--atom-universe", "1")
    assert code == 2
    assert "error" in err


def test_chain_pass_and_corrupt(capsys):
    code, out, _ = run(capsys, "chain", "--cases", "40")
    assert code == 0
    assert "counterexample structure verified" in out
    assert "hypothetical" in out
    code, out, _ = run(capsys, "chain", "--cases", "40", "--corrupt", "fs2_to_e")
    assert code == 1
    assert "violations found" in out


@pytest.mark.parametrize("link", ["nonsense", "g_to_f", "e_to_fxg"])
def test_chain_rejects_unknown_corrupt_link(capsys, link):
    code, out, err = run(capsys, "chain", "--cases", "5", "--corrupt", link)
    assert code == 2
    assert out == ""
    assert link in err


def test_chain_machine_format(capsys):
    code, out, _ = run(capsys, "chain", "--cases", "30", "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert {link["name"] for link in payload["links"]} == {
        "fs2_to_e", "e_to_fxg", "fxg_to_fxf", "fxf_to_f",
    }
    for link in payload["links"]:
        assert set(link) == {"name", "checked", "violations", "status"}


def test_echo(capsys):
    code, out, _ = run(capsys, "echo", "(cw 1010)")
    assert code == 0 and out.strip() == "(cw 10)"
    code, out, _ = run(capsys, "echo", "(cyc (rat 1 2))")
    assert code == 0 and out.strip() == "(cyc (rat 1 2))"
    code, out, _ = run(capsys, "echo", "(rat 2 4)")
    assert code == 0 and out.strip() == "(rat 1 2)"


def test_echo_errors(capsys):
    code, _, err = run(capsys, "echo", "(cw )")
    assert code == 2
    assert "position" in err
    code, _, err = run(capsys, "echo", "(p (cyc (rat 1 1) (rat 1 1)) (ylist (cw 10)))")
    assert code == 2
    assert "ClauseViolation" in err


def test_echo_of_a_long_coprime_clash_is_fast(capsys):
    # x has period 3001 (distinct atoms) and the word period 3011, so
    # lcm(P, L) is about 9 million positions; the clash lies below P + L.
    atoms = " ".join(f"(rat {i} 1)" for i in range(1, 3002))
    text = f"(p (cyc {atoms}) (ylist (cw 1) (cw 1{'0' * 3010})))"
    start = time.perf_counter()
    code, out, err = run(capsys, "echo", text)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.strip() == (
        "invalid code: ClauseViolation: membership clause (3) violated, witness (1, 0, 3001)"
    )


def test_echo_overlong_integer_is_a_parse_error(capsys):
    code, out, err = run(capsys, "echo", "(rat 1 " + "7" * 5000 + ")")
    assert code == 2 and out == ""
    assert err.startswith("parse error:") and "(at position 7)" in err


def test_echo_exits_0_or_2_on_mutated_texts(capsys):
    texts = mutated_texts(7, 2000)
    assert any(text.startswith("-") for text in texts)
    for text in texts:
        code, _, err = run(capsys, "echo", text)
        assert code in (0, 2), (text, err)
        if code == 2:
            assert err.startswith(("parse error:", "invalid code:")), (text, err)


def test_echo_exits_0_or_2_on_option_like_texts(capsys, monkeypatch):
    import io

    # "--" alone ends the options, so echo reads its text from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    texts = option_like_texts(7, 1000)
    assert any(text[1].isalpha() for text in texts) and any(text[1] == "-" for text in texts)
    for text in texts:
        code, out, err = run(capsys, "echo", text)
        assert (code, out) == (2, ""), (text, out, err)
        assert err.startswith("parse error:"), (text, err)


def test_echo_of_a_dash_leading_text_is_a_parse_error(capsys):
    for argv in (("echo", "-("), ("echo", "--", "-(")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "parse error: expected '(', found '-' (at position 0)\n"
    # echo has no flags but --help, so a text that looks like a flag or
    # its abbreviation is still a text
    for text in ("-h(", "--s", "--form", "-h", "--he"):
        code, out, err = run(capsys, "echo", text)
        assert (code, out) == (2, "")
        assert err == f"parse error: expected '(', found '{text.rstrip('(')}' (at position 0)\n"
    # only echo takes a leftover as its text
    for argv in (("verify", "claim", "-("), ("count", "--n", "1", "-("), ("chain", "-(")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: -(" in capsys.readouterr().err


def test_echo_help_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["echo", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: carveq echo [--help] [text]")


def test_echo_rejects_deep_tags(capsys):
    def nested(depth):
        return "(tag 0 " * depth + "(rat 1 1)" + ")" * depth

    code, out, _ = run(capsys, "echo", nested(100))
    assert code == 0 and out.strip() == nested(100)
    code, out, err = run(capsys, "echo", nested(3000))
    assert code == 2 and out == ""
    assert "parse error" in err and "nested deeper" in err


@pytest.mark.parametrize("argv, code, err", [
    (("verify", "gtof", "--cases", "20"), 0, ""),
    (("verify", "claim", "--cases", "20", "--format", "machine"), 0, ""),
    (("chain", "--cases", "20"), 0, ""),
    (("chain", "--cases", "20", "--corrupt", "fxf_to_f"), 1, ""),
    (("count", "--n", "2"), 0, ""),
    (("count", "--n", "2", "--format", "machine"), 0, ""),
    (("echo", "(cw 1010)"), 0, ""),
    (("echo", "(cw 2)"), 2, "parse error: expected a 0/1 string, found '2' (at position 4)\n"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else repr(v))
def test_exit_code_survives_a_closed_stdout(argv, code, err):
    # stderr holds what it holds when stdout is read: no traceback.
    done = run_on_a_closed_pipe(argv, subprocess.PIPE)
    assert (done.returncode, done.stderr.decode()) == (code, err)


@pytest.mark.parametrize("argv, code", [
    (("echo", "(cw 1)"), 0),
    (("echo", "(cw 2)"), 2),
    (("echo", "(p (cyc (rat 1 1) (rat 1 1)) (ylist (cw 10)))"), 2),
    (("verify", "gtof", "--cases", "-1"), 2),
    (("count", "--n", "5"), 2),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else repr(v))
def test_exit_code_survives_closed_stdout_and_stderr(argv, code):
    assert run_on_a_closed_pipe(argv, None).returncode == code


def run_on_a_closed_pipe(argv, stderr):
    """Run ``python -m carveq argv`` with stdout on the write end of a pipe
    whose read end is closed before the child starts, so its first write
    meets a broken pipe every time; stderr goes to ``stderr``, or to that
    pipe too when ``stderr`` is None."""
    read, write = os.pipe()
    os.close(read)
    try:
        return run_module(argv, write, write if stderr is None else stderr)
    finally:
        os.close(write)


def run_module(argv, stdout, stderr):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "carveq", *argv], stdin=subprocess.DEVNULL, stdout=stdout,
                          stderr=stderr, env=env, timeout=60)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("verify", "gtof", "--cases", "3"),
    ("chain", "--cases", "2"),
    ("chain", "--cases", "2", "--corrupt", "fxf_to_f"),
    ("count", "--n", "2"),
    ("echo", "(cw 1)"),
], ids=" ".join)
def test_a_failed_write_to_stdout_exits_2(argv):
    # A report that never reached its reader is neither a pass nor a violation.
    with open("/dev/full", "w") as full:
        done = run_module(argv, full, subprocess.PIPE)
    expected = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
    assert (done.returncode, done.stderr.decode()) == (2, expected)


@needs_dev_full
@pytest.mark.parametrize("argv", [("echo", "("), ("count", "--n", "9")], ids=" ".join)
def test_a_failed_write_to_stderr_keeps_the_exit_code(argv):
    with open("/dev/full", "w") as full:
        assert run_module(argv, subprocess.PIPE, full).returncode == 2


def test_broken_pipe_closes_the_devnull_descriptor(monkeypatch):
    class BrokenStream:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return self.fd

    opened = []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda *args: opened.append(real_open(*args)) or opened[-1])
    read, write = os.pipe()
    try:
        cli._print("text", BrokenStream(write))
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull)) and len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])
    finally:
        os.close(read)
        os.close(write)


def test_echo_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(" (cw 1010) "))
    code, out, _ = run(capsys, "echo")
    assert code == 0 and out.strip() == "(cw 10)"


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2
    code, _, err = run(capsys, "verify", "claim", "--cases", "-3")
    assert code == 2 and "error" in err
