"""One fresh, single-threaded benchmark process.

    python3 perfbench/worker.py MODE --workload W --seed N [--seconds S] [--passes K] [--size full|smoke]

MODE is one of

* ``setup``: import carveq from ``src/`` of the checkout, build the
  workload's inputs, report the time this took and exit;
* ``measure``: set up, then run untraced passes for ``--seconds`` (or exactly
  ``--passes``) and report each pass's wall time, the checked outcome and
  the peak resident memory of this process;
* ``trace``: set up and run one pass with the span tracer installed, remove
  every wrapper, check the outcome, write the spans under ``perfbench/out``
  and report the per-layer metrics.

The last line of standard output is one JSON object.  ``run.py`` starts
these processes one at a time.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_package():
    """Import carveq from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, SRC)
    import carveq

    where = os.path.dirname(os.path.abspath(carveq.__file__))
    if where != os.path.join(SRC, "carveq"):
        raise SystemExit(f"carveq was imported from {where}, not from {SRC}")
    return carveq


# Machine-speed calibration.  On a shared 2-core Xeon VM the speed of one
# process drifts by +-30% within seconds as other tenants load the host, and a
# fixed interpreter-bound loop slows down with it.  While a pass runs, a timer
# interrupts it every SAMPLE_S seconds to time the loop; each slice of the
# pass is scaled by CALIBRATION_REF_S / (the loop's time at the end of the
# slice).  A scaled time is the time the pass would take at the speed where
# the loop reads CALIBRATION_REF_S (its median on that VM); the loop's own
# time is left out of the pass.
CALIBRATION_LOOPS = 2_500
CALIBRATION_REF_S = 0.0047
SAMPLE_S = 0.1


class _Probe:
    __slots__ = ("key", "n")

    def __init__(self, key, n):
        self.key = key
        self.n = n


def calibrate(loops=CALIBRATION_LOOPS):
    """Time a fixed loop of the interpreter work carveq does most: small
    objects, tuples, dict and set hashing, keyed sorts and isinstance."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(loops):
        key = (i % 7, i % 11, i)
        table[key[:2]] = key
        probe = _Probe(key, i)
        acc += len(sorted({i % 5, i % 3, 1, probe.n % 4}, key=lambda x: (0, x)))
        acc += isinstance(probe, _Probe) + hash(frozenset(key[:2])) % 3
    return time.perf_counter() - t0


class SpeedScaledTimer:
    """Wall time of a region, raw and scaled by the sampled machine speed."""

    def __init__(self):
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._mark = 0.0
        self._previous = None

    def _slice(self, calibrations=1):
        work = time.perf_counter() - self._mark
        self.raw_s += work
        speed = statistics.median(calibrate() for _ in range(calibrations))
        self.scaled_s += work * CALIBRATION_REF_S / speed
        self._mark = time.perf_counter()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self._slice())
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._slice(calibrations=5)  # a short region may have only this slice
        return False


def plain_call(_name, fn, *args):
    return fn(*args)


def _outcome_fields(outcomes):
    return {
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "undecided": sum(o.undecided for o in outcomes),
        "items_per_pass": outcomes[0].attempted,
        "digests": sorted({o.digest for o in outcomes}),
    }


def measure(wl, inputs, setup_s, seconds, passes):
    raw_times, times, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        with SpeedScaledTimer() as timer:
            raw = wl.run(inputs, plain_call)
        raw_times.append(timer.raw_s)
        times.append(timer.scaled_s)
        outcomes.append(wl.check(inputs, raw))
        del raw
        if passes:
            if len(times) >= passes:
                break
        elif time.perf_counter() - start + statistics.median(raw_times) > seconds:
            break
    return {
        "setup_s": setup_s,
        "pass_s": times,
        "raw_pass_s": raw_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tracer_loaded": "tracer" in sys.modules,
        **_outcome_fields(outcomes),
    }


def trace(wl, args):
    from tracer import Tracer, bindings, changed_bindings, layer_metrics

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        inputs = tracer.call("bench.setup", wl.build, args.seed, args.size)
        setup_roots = {rid for rid, _, _, _ in tracer.roots}
        t0 = time.perf_counter()
        raw = wl.run(inputs, tracer.call)
        pass_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    leftovers = changed_bindings(before)
    outcome = wl.check(inputs, raw)

    pass_roots = {rid for rid, _, _, _ in tracer.roots} - setup_roots
    spans, counts, edges = tracer.totals(pass_roots)
    metrics = layer_metrics(spans, counts, edges)
    setup_spans, _, _ = tracer.totals(setup_roots)
    metrics["generators.setup_self_s"] = (
        sum(rec[2] for name, rec in setup_spans.items() if name.startswith("generators.")),
        "s",
    )
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}-{args.size}.json")
    tracer.dump(spans_path, workload=wl.name, seed=args.seed, size=args.size, pass_s=pass_s)
    return {
        "pass_s": [pass_s],
        "tracer_loaded": True,
        "self_sum_s": sum(rec[2] for rec in spans.values()),
        "metrics": metrics,
        "missing": tracer.missing,
        "leftovers": leftovers,
        "spans_file": os.path.relpath(spans_path, ROOT),
        **_outcome_fields([outcome]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int, default=0, help="exact pass count (0: fill --seconds)")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if args.mode == "trace":
        import_package()
        from workloads import WORKLOADS

        result = trace(WORKLOADS[args.workload], args)
    else:
        with SpeedScaledTimer() as setup:
            import_package()
            from workloads import WORKLOADS

            wl = WORKLOADS[args.workload]
            inputs = wl.build(args.seed, args.size)
        if args.mode == "setup":
            result = {"setup_s": setup.scaled_s}
        else:
            result = measure(wl, inputs, setup.scaled_s, args.seconds, args.passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
