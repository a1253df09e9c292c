"""One benchmark repetition, in a fresh interpreter.

Usage: child.py WORKLOAD SEED SIZE TRACE [--setup-only]

Prints ``READY`` once imports and input preparation are done (the parent
times interpreter start to that line as set-up), then runs the timed region
and prints one ``RESULT {json}`` line.  A traced repetition also writes its
spans to the path given by the ``BENCH_SPANS_OUT`` environment variable.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def load_references(size: str) -> dict:
    with open(os.path.join(HERE, "references.json")) as fh:
        return json.load(fh)[size]


def execute(name, seed, size, tracer, refs, ready=lambda: None) -> dict:
    """Prepare, signal readiness, run and check one workload repetition."""
    import workloads

    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(seed, size)
    ready()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    summary = workload.run(inputs, tracer)
    checks = workload.check(summary, refs[name], seed)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
        "failed": [label for label, ok in checks if not ok],
    }


def main(argv) -> int:
    name, seed, size, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    setup_only = "--setup-only" in argv
    sys.path.insert(0, HERE)
    import tracing

    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracing.install_numeric_wrappers(tracer)
        tracing.install_package_wrappers(tracer)
    refs = load_references(size)

    def ready():
        print("READY", flush=True)
        if setup_only:
            sys.exit(0)

    result = execute(name, seed, size, tracer, refs, ready)
    if trace:
        result["layers"] = tracing.layer_metrics(tracer)
        with open(os.environ["BENCH_SPANS_OUT"], "w") as fh:
            json.dump(tracer.spans, fh)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
