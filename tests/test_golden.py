"""Golden fingerprints of the CLI's report bytes.

Each case runs ``cli.main`` in-process and pins the md5 of everything it
prints to stdout.  A change that alters any of these bytes on purpose must
update the value here and say why.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carveq.cli import main

from test_serialize import VECTORS

VERIFY = {
    "claim": "74a47c0f546bcc1b31d9f7e586363cd3",
    "star": "8e74366874001ceda348c4a5fd281a1c",
    "remark": "5bed17fb530f1f3a14f1f12394c6adb3",
    "embed": "afe7f8b0fbde813e93569c7bc426d1b1",
    "interleave": "6d66499a647df7742b9c03c1185f63de",
    "gtof": "c475823838eeeaa5fe0de0e7817b0b9f",
    "constjump": "70a942b1dacb4bc777a3873234ee4c22",
}

# The same targets on a larger grid: more rows and longer periods in the
# pair-merge bases than the default configuration draws.
VERIFY_LARGE = {
    "claim": "8698b3d36fcdad0eaa3050bd9feeec31",
    "embed": "93260fdb79300c4376045f1361720ea1",
    "remark": "c1bec3f9c3cd9a57f1fe80620f96ea4d",
}
LARGE = ("--cases", "150", "--max-period", "9", "--max-entries", "7")

COUNT = {
    1: "b1d9e9c8a9df9b0b1a787b976c205387",
    2: "b01bd1d7b9da176561747221da17495d",
    3: "982463ff0fad3219b1293b69da68cf3e",
}


def stdout_md5(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.md5(out.encode()).hexdigest()


@pytest.mark.parametrize("target", sorted(VERIFY))
def test_verify_golden(capsys, target):
    assert stdout_md5(capsys, "verify", target, "--format", "machine") == (0, VERIFY[target])


@pytest.mark.parametrize("target", sorted(VERIFY_LARGE))
def test_verify_golden_large_grid(capsys, target):
    got = stdout_md5(capsys, "verify", target, *LARGE, "--format", "machine")
    assert got == (0, VERIFY_LARGE[target])


def test_chain_golden(capsys):
    got = stdout_md5(capsys, "chain", "--seed", "0", "--cases", "250", "--format", "machine")
    assert got == (0, "6dc5253846260b401a54d4dcb4d06e0f")


@pytest.mark.parametrize("n", sorted(COUNT))
def test_count_golden(capsys, n):
    assert stdout_md5(capsys, "count", "--n", str(n), "--format", "machine") == (0, COUNT[n])


def test_echo_golden(capsys):
    out = []
    for text in VECTORS:
        assert main(["echo", text]) == 0, text
        out.append(capsys.readouterr().out)
    assert hashlib.md5("".join(out).encode()).hexdigest() == "25e623ad890d5e7442e368bc03b7417a"


# Report bytes must not depend on the order of set or dict iteration, which
# for strings and bytes changes with the hash seed of the process.
HASH_SEED_RUNS = (
    ("verify", "gtof"),
    ("verify", "claim", "--cases", "100"),
    ("verify", "remark", "--cases", "100"),
    ("echo", "(pull (pairmerge (zlist (cyc (word 01) (tag 1 (word 0)) (rat 1 1))"
     " (cyc (tag 0 (word 011)) (word 1)))) (set (word 1) (tag 1 (word 0)) (word 01)))"),
    ("chain", "--cases", "50"),
    ("count", "--n", "3"),
)


@pytest.mark.parametrize("argv", HASH_SEED_RUNS, ids=" ".join)
def test_report_bytes_ignore_hash_seed(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    # echo prints its one canonical text and takes no --format flag
    fmt = () if argv[0] == "echo" else ("--format", "machine")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-m", "carveq", *argv, *fmt],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
