import dataclasses
import json

import pytest

from carveq import FuzzConfig, StructuralMismatch, campaigns, reductions, stream
from carveq.cli import main


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


@pytest.mark.parametrize("target, name", IFF_ENTRIES)
def test_verify_iff_target_fails_on_constant_map(capsys, monkeypatch, target, name):
    _, sampler = reductions.sampled_reductions()[name]

    def constant(record, sampler):
        fixed = record.map(sampler(stream(0, 0), FuzzConfig())[0])
        return lambda v: fixed

    break_map(monkeypatch, name, constant)
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
