"""The benchmark's tracer binds package names, and its self-test requires
counters that only some routes of the package produce, workloads whose
verdicts all check, and a rel_G reference that names a word and its
pullback alike; a rename, a route that stops a required counter, or a wrong
verdict should fail here, fast, rather than in the benchmark's own
self-test."""

import importlib
import sys

from helpers import PERFBENCH, load_tracer

# Metrics that worker.py computes outside layer_metrics.
WORKER_METRICS = ("trace.verdict_s", "generators.setup_self_s")


def test_tracer_finds_every_boundary():
    tracer_module = load_tracer()
    before = tracer_module.bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracer_module.changed_bindings(before) == []


def _import_perfbench(*names):
    """Modules of ``perfbench/``, imported with that directory on the path,
    as its scripts import their siblings."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(PERFBENCH))


def test_smoke_passes_reach_the_layers_selftest_requires():
    selftest, tracer_module = _import_perfbench("selftest", "tracer")
    problems = []
    for name, wl in selftest.WORKLOADS.items():
        inputs = wl.build(1, "smoke")
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            raw = wl.run(inputs, tracer.call)
        finally:
            tracer.uninstall()
        failed = wl.check(inputs, raw).failed
        if failed:
            problems.append(f"{name}: {failed} failed items")
        metrics = tracer_module.layer_metrics(*tracer.totals())
        problems += [
            f"{name}: {m} is 0 but the workload exercises it"
            for m in selftest.EXERCISED[name]
            if m not in WORKER_METRICS and not metrics[m][0]
        ]
        problems += [
            f"{name}: {m} is {metrics[m][0]} but the workload should not reach it"
            for m in selftest.UNTOUCHED[name]
            if m not in WORKER_METRICS and metrics[m][0]
        ]
    assert problems == []


def test_relg_reference_names_a_word_and_its_pullback_alike():
    (selftest,) = _import_perfbench("selftest")
    assert selftest.check_relg_reference() == []
