import dataclasses
import json

import pytest

from carveq import FuzzConfig, StructuralMismatch, campaigns, fs2_invariant, parse_any, reductions, stream
from carveq.cli import main

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
    code, _, err = run(capsys, "count", "--n", "3", "--max-period", "2")
    assert code == 2
    assert "error" in err
    code, out, err = run(capsys, "count", "--n", "5")
    assert code == 2 and out == ""
    assert "cap" in err
    # one step per code entry: 1 + 2 + ... + 100000 entries exceed the cap
    code, out, err = run(capsys, "count", "--n", "1", "--max-period", "100000")
    assert code == 2 and out == ""
    assert "cap" in err


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
