"""The benchmark's tracer binds package names; a rename in the package
should fail here, fast, rather than in the benchmark's own self-test."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_boundary():
    tracer_module = _load_tracer()
    before = tracer_module.bindings()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracer_module.changed_bindings(before) == []
