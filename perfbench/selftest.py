"""The benchmark's own self-test, at smoke size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that

1. ``run.py`` emits every end-to-end metric with ``--trace 0`` and every
   per-layer metric with ``--trace 1``, exactly the names in
   ``BENCHMARK.json``, on every workload, with each metric of a layer the
   workload exercises above zero and the layers the workload leaves alone
   at zero, and that every run is correct;
2. the self times of a traced pass sum to the pass's wall time within the
   tracer's tolerance;
3. every binding the tracer swapped holds its original again afterwards;
4. changing the seed changes the inputs of fiber, pairmerge and roundtrip
   and leaves those of enumerate alone;
5. pairmerge's rel_G reference names a word and a pullback that denote the
   same sequence alike, and accepts rel_G's documented refusal on them.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys
import time

import worker

worker.import_package()

from tracer import Tracer, bindings, changed_bindings  # noqa: E402
from workloads import WORKLOADS, fingerprint, refusal_allowed, sequence_class  # noqa: E402

ROOT = worker.ROOT
SEEDED = ("fiber", "pairmerge", "roundtrip")

# Metrics that must be above zero in the traced pass of each workload.
EXERCISED = {
    "fiber": (
        "atoms.atomset_new.count", "atoms.sort_key.count", "codes.range_set.count",
        "codes.value_at.count", "codes.pullback.count", "codes.binseq_eq.word_word.count",
        "pairing.cantor_unpair.count", "relations.ppoint_validate.count",
        "relations.carve_pair.count", "relations.rel_E.self_s", "relations.rel_F.self_s",
        "relations.rel_G.self_s", "invariants.e_invariant.count", "reductions.fiber_map.count",
        "reductions.fiber_map.self_s", "generators.self_s",
        "generators.cyclic_point.accept_ratio", "generators.cyclic_point.realize_calls",
        "campaigns.claim.wall_s", "campaigns.star.wall_s", "campaigns.remark.wall_s",
    ),
    "enumerate": (
        "atoms.atomset_new.count", "atoms.atomset_new.self_s", "atoms.sort_key.count",
        "codes.range_set.count", "codes.pullback.count", "codes.pullback.self_s",
        "relations.ppoint_validate.count", "relations.carve_pair.count",
        "invariants.e_invariant.count", "invariants.e_invariant.self_s",
        "invariants.budget_spent", "invariants.masks_enumerated", "invariants.cover_ratio",
    ),
    "pairmerge": (
        "codes.range_set.count", "codes.value_at.count", "codes.binseq_eq.word_word.count",
        "codes.binseq_eq.pull_pull.count", "codes.binseq_eq.mixed.count",
        "codes.binseq_eq.self_s", "pairing.cantor_unpair.count", "pairing.self_s",
        "relations.rel_E.self_s", "relations.rel_F.self_s", "relations.rel_G.self_s",
        "reductions.embed_fs2.self_s", "reductions.check_reduction.self_s",
        "generators.self_s", "generators.setup_self_s", "campaigns.embed.wall_s",
        "campaigns.interleave.wall_s", "campaigns.gtof.wall_s", "campaigns.constjump.wall_s",
        "campaigns.chain.wall_s",
    ),
    "roundtrip": (
        "serialize.to_text.self_s", "serialize.parse_any.self_s", "serialize.parse.bytes_per_s",
        "atoms.atomset_new.count", "relations.ppoint_validate.count", "generators.setup_self_s",
    ),
}

# Metrics that must read zero: layers the workload does not reach.
UNTOUCHED = {
    "fiber": ("serialize.parse_any.self_s", "invariants.budget_spent"),
    "enumerate": (
        "pairing.cantor_unpair.count", "generators.self_s", "codes.binseq_eq.self_s",
        "serialize.parse_any.self_s", "generators.setup_self_s",
    ),
    "pairmerge": ("serialize.parse_any.self_s", "reductions.fiber_map.count"),
    "roundtrip": ("generators.self_s", "invariants.budget_spent", "codes.binseq_eq.self_s"),
}

for wl in WORKLOADS:
    EXERCISED[wl] += ("trace.verdict_s",)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(worker.HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(spec):
    problems = []
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            result = run_bench(name, trace)
            metrics = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {result['failed']} failed")
            if sorted(metrics) != sorted(wanted):
                problems.append(
                    f"{name} trace {trace}: metrics differ from BENCHMARK.json:"
                    f" missing {sorted(set(wanted) - set(metrics))},"
                    f" extra {sorted(set(metrics) - set(wanted))}"
                )
            if trace == 0:
                problems += [f"{name}: {m} is 0" for m in end_to_end if not metrics[m]["value"]]
                continue
            problems += [
                f"{name}: {m} is 0 but the workload exercises it"
                for m in EXERCISED[name]
                if not metrics.get(m, {}).get("value")
            ]
            problems += [
                f"{name}: {m} is {metrics[m]['value']} but the workload should not reach it"
                for m in UNTOUCHED[name]
                if metrics.get(m, {}).get("value")
            ]
    return problems


def check_traced_passes():
    problems = []
    before = bindings()
    for name, wl in WORKLOADS.items():
        inputs = wl.build(1, "smoke")
        tracer = Tracer()
        tracer.install()
        if bindings() == before:
            problems.append(f"{name}: install swapped no binding")
        try:
            t0 = time.perf_counter()
            raw = wl.run(inputs, tracer.call)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        changed = changed_bindings(before)
        if changed:
            problems.append(f"{name}: bindings not restored: {changed[:10]}")
        if tracer.missing:
            problems.append(f"{name}: boundaries not found: {tracer.missing}")
        spans, _, _ = tracer.totals()
        self_sum = sum(rec[2] for rec in spans.values())
        tolerance = 0.01 * wall + 0.001
        if abs(wall - self_sum) > tolerance:
            problems.append(
                f"{name}: self times sum to {self_sum:.6f} s, pass took {wall:.6f} s"
                f" (tolerance {tolerance:.6f} s)"
            )
        if wl.check(inputs, raw).failed:
            problems.append(f"{name}: traced pass has failed items")
    return problems


def check_seed_dependence():
    problems = []
    for name, wl in WORKLOADS.items():
        differs = fingerprint(wl.build(1, "smoke")) != fingerprint(wl.build(2, "smoke"))
        if differs != (name in SEEDED):
            problems.append(f"{name}: inputs {'change' if differs else 'do not change'} with the seed")
    return problems


# The sequence 001001... as a word and as a pullback over pair-merge rows.
SAME_SEQUENCE = (
    "(ylist (cw 001))",
    "(ylist (pull (pairmerge (zlist (cyc (rat 1 1) (rat 3 1) (rat 4 1)) (cyc (rat 1 1) (rat 2 1) (rat 3 1))"
    " (cyc (rat 1 1) (rat 2 1)))) (set (rat 3 1) (rat 4 1))))",
)


def check_relg_reference():
    from carveq import serialize
    from carveq.codes import binseq_value_at

    problems = []
    y, y2 = (serialize.parse_any(text) for text in SAME_SEQUENCE)
    u, v = y.entries[0], y2.entries[0]
    if any(binseq_value_at(u, k) != binseq_value_at(v, k) for k in range(10_000)):
        problems.append("the word and the pullback differ below 10000")
    if sequence_class(u) != sequence_class(v):
        problems.append("the reference names the word and the pullback differently")
    if not refusal_allowed(y, y2):
        problems.append("the reference rejects binseq_eq's documented refusal")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checks = (
        ("traced self times and wrapper removal", check_traced_passes),
        ("seed dependence of inputs", check_seed_dependence),
        ("rel_G reference on a word equal to a pullback", check_relg_reference),
        ("metrics emitted by run.py", lambda: check_emitted(spec)),
    )
    failed = False
    for title, check in checks:
        problems = check()
        print(f"{'ok  ' if not problems else 'FAIL'} {title}")
        for problem in problems:
            print(f"     {problem}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
