"""carveq benchmark: seeded workloads, verdict-level metrics, traced layers.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; carveq is imported from its ``src/``.

Workloads (see ``workloads.py``):

* ``fiber``      campaigns claim, star and remark at 1000 cases (4000 items);
* ``enumerate``  count_classes F and E at n=4 (2 items; ignores the seed);
* ``pairmerge``  campaigns embed, interleave, gtof and constjump at 1000
                 cases, chain_report at 250 cases and rel_G on 2000 entry-list
                 pairs mixing words and pair-merge pullbacks (7756 items);
* ``roundtrip``  print, parse and print again 8000 generated values of every
                 kind (8000 items).

With ``--trace 0`` the run measures, with tracing off:

* ``setup_s``        median over 6 to 26 fresh processes (after one warm-up
                     process that fills the bytecode cache) of the time to
                     import carveq and build the workload's inputs;
* ``verdict_s``      median time of one pass, from the first call to the last
                     verdict, over the passes that fit in ``--seconds`` in the
                     last of those processes;
* ``peak_rss_mb``    peak resident memory of that process;
* ``decided_ratio``  items that got a verdict / items attempted; an item whose
                     verdict raised IncomparableCodes or ResourceLimit is
                     undecided.

Both times are scaled to a fixed machine speed (see ``SpeedScaledTimer`` in
``worker.py``), because the speed of a shared machine drifts by tens of
percent within seconds; the raw wall times are kept in the result file.

With ``--trace 1`` it runs one untraced pass and one traced pass, each in its
own process, and reports the per-layer metrics of the traced pass (see
``tracer.py``) plus ``trace.verdict_s``, the traced pass's wall time, and
``trace.overhead_s``, traced minus untraced raw wall time.

Every pass checks every verdict (see ``check_*`` in ``workloads.py``).  An
item fails on a reported violation, an uncaught exception, a count that
differs from ``closed_form``, a value that does not round-trip, or a rel_G
verdict that differs from the exact entry-class comparison.  A rel_G
refusal (IncomparableCodes) is undecided, not failed, when binseq_eq's
documented refusal applies: a word and a pullback on opposite sides agree
below ``DEFAULT_N_CMP``.  ``fail_ratio`` = failed / attempted of the result
line.  The digest of each workload's report bytes (machine JSON, counts,
round-trip texts) must agree between passes, and between the traced and the untraced pass.  Provenance
(git sha, python, nproc, line count of each ``src/carveq/*.py``), digests and
all pass times go to ``perfbench/out/result-<workload>-seed<N>-trace<T>-<size>.json``
and the traced run's spans to ``perfbench/out/spans-*.json``.  The last line
of standard output is the result JSON.  ``selftest.py`` is the benchmark's
own self-test.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fiber", "enumerate", "pairmerge", "roundtrip")
# Set-up is timed in at least SETUP_PROBES[0] fresh processes, and in more,
# up to SETUP_PROBES[1], while they take less than SETUP_BUDGET_S in all.
SETUP_PROBES = (5, 25)
SETUP_BUDGET_S = 4.0
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, args, deadline, extra=()):
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the next process")
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, *extra]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} process timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance():
    src = sorted(glob.glob(os.path.join(ROOT, "src", "carveq", "*.py")))
    lines, digest = {}, hashlib.sha256()
    for path in src:
        with open(path, "rb") as fh:
            data = fh.read()
        lines[os.path.basename(path)] = data.count(b"\n")
        digest.update(os.path.basename(path).encode() + b"\0" + data)
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def untraced(args, deadline):
    run_worker("setup", args, deadline)  # warm-up: fills the bytecode cache
    setups, start = [], time.monotonic()
    while len(setups) < SETUP_PROBES[0] or (
        len(setups) < SETUP_PROBES[1] and time.monotonic() - start < SETUP_BUDGET_S
    ):
        setups.append(run_worker("setup", args, deadline)["setup_s"])
    run = run_worker("measure", args, deadline, ["--seconds", str(args.seconds)])
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "verdict_s": (statistics.median(run["pass_s"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "decided_ratio": (1 - run["undecided"] / run["attempted"], "ratio"),
    }
    return metrics, [run], {"setup_s": setups}


def traced(args, deadline):
    plain = run_worker("measure", args, deadline, ["--passes", "1"])
    trace = run_worker("trace", args, deadline)
    metrics = dict(trace.pop("metrics"))
    metrics["trace.verdict_s"] = (trace["pass_s"][0], "s")
    metrics["trace.overhead_s"] = (trace["pass_s"][0] - plain["raw_pass_s"][0], "s")
    problems = [f"binding not restored after tracing: {name}" for name in trace["leftovers"]]
    return metrics, [plain, trace], {"problems": problems, "spans_file": trace["spans_file"],
                                     "self_sum_s": trace["self_sum_s"],
                                     "missing_boundaries": trace["missing"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; smoke is the self-test's")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "carveq", "__init__.py")):
        print(f"no carveq package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        metrics, runs, extra = (traced if args.trace else untraced)(args, deadline)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = sorted({d for r in runs for d in r["digests"]})
    problems = extra.pop("problems", [])
    if any(r["tracer_loaded"] for r in runs[:1 if args.trace else None]):
        problems.append("the untraced process loaded the tracer")
    if len(digests) != 1:
        problems.append(f"report digests differ between passes: {digests}")
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_ignored": args.workload == "enumerate",
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "items_per_pass": runs[0]["items_per_pass"],
        "passes": [p for r in runs for p in r["pass_s"]],
        "fail_ratio": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else digests,
        "problems": problems,
        "provenance": provenance(),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}"
          + ("  (deterministic: the seed is ignored)" if record["seed_ignored"] else ""))
    print(f"provenance  git {prov['git_sha']}  src {prov['src_sha256'][:16]}  python {prov['python']}"
          f"  nproc {prov['nproc']}  src lines {prov['src_lines_total']}")
    print(f"items {record['items_per_pass']} per pass, {len(record['passes'])} passes,"
          f"  fail_ratio {failed}/{attempted} = {record['fail_ratio']:.6g}")
    print(f"report digest {record['digest']}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name in record.get("missing_boundaries", []):
        print(f"WARNING traced boundary {name} not found; its metrics read 0")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"details in {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
