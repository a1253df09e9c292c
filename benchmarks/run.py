"""Benchmark entry point for gpam2d.

    python3 benchmarks/run.py --workload exact_corpus --seed 2 --seconds 25 --trace 0

``--workload`` takes one name from ``BENCHMARK.json``, a comma-separated
list, or ``all``.  Each timed repetition runs in a fresh interpreter with one
BLAS thread, one at a time, so the package's in-process caches start cold as
they do for a CLI or test user.  Repetitions are repeated until the next one would overrun
``--seconds`` (at least two), and every timing is reported as the median
over the repetitions.  Set-up time is measured here, from process start to
the child's ``READY`` line; set-up-only children, one after each repetition
and the rest at the end, bring the set-up samples to at least eight.  They
take under a second each and do not count against ``--seconds``.

With ``--trace 1`` the run alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing overhead
(traced minus untraced wall time).

Every metric is printed by name with its unit, followed by one JSON line.
The exit code is 0 when every output check passed, 1 when one failed, and 2
when the benchmark could not run (for example without ``src/gpam2d``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")

DEFAULT_SEED = 2  # the criterion-8 seed; workloads.DEFAULT_SEED
MIN_REPS = 2
# One BLAS/OpenMP thread per child (nproc is the ceiling).  On a shared
# 2-core box, two threads made constants_cold's run-to-run spread 2.5 times
# wider (interquartile 0.107 against 0.042 of the median, six interleaved
# runs each) for an 8 % shorter wall time.
BLAS_THREADS = 1
# Set-up samples per run, at least: the timed repetitions count and
# set-up-only children make up the rest; the median is reported.  Samples
# within one run agree closely, so more of them do not narrow the run-to-run
# spread, which follows the host's speed.
MIN_SETUPS = 8
MAX_REPS = 40
REP_TIMEOUT = 170.0


class BenchError(RuntimeError):
    pass


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_record() -> dict:
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def spawn(name, seed, size, trace, env, setup_only=False, spans_out=None) -> dict:
    """Run one child; returns its result with ``setup_s`` added."""
    argv = [sys.executable, CHILD, name, str(seed), size, "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    if spans_out:
        env = dict(env, BENCH_SPANS_OUT=spans_out)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(REP_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{name}: child exited with code {proc.returncode}")
    if setup_only:
        return {"setup_s": setup}
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{name}: child printed no result")
    result = json.loads(lines[-1][len("RESULT "):])
    result["setup_s"] = setup
    return result


def run_workload(name, seed, size, seconds, trace, env) -> dict:
    plain, traced, setups = [], [], []
    timed = 0.0  # time in the repetitions; set-up-only children do not count
    while True:
        t0 = time.perf_counter()
        plain.append(spawn(name, seed, size, False, env))
        setups.append(plain[-1]["setup_s"])
        if trace:
            spans = os.path.join(OUT, f"spans-{name}-{seed}-{len(traced)}.json")
            traced.append(spawn(name, seed, size, True, env, spans_out=spans))
        timed += time.perf_counter() - t0
        if not trace and len(setups) < MIN_SETUPS:
            # Spread the set-up-only children over the run, one per repetition.
            setups.append(spawn(name, seed, size, False, env, setup_only=True)["setup_s"])
        if len(plain) >= MAX_REPS:
            break
        if len(plain) >= MIN_REPS and timed + timed / len(plain) > seconds:
            break
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(name, seed, size, False, env, setup_only=True)["setup_s"])
    reps = plain + traced
    return {"plain": plain, "traced": traced, "setups": setups,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(len(r["failed"]) for r in reps),
            "failed_checks": sorted({c for r in reps for c in r["failed"]})}


def metric_values(raw, trace) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    med = statistics.median
    if not trace:
        plain = raw["plain"]
        return {
            "wall_s": (med(r["wall_s"] for r in plain), len(plain)),
            "setup_s": (med(raw["setups"]), len(raw["setups"])),
            "cpu_s": (med(r["cpu_s"] for r in plain), len(plain)),
            "peak_rss_mb": (med(r["peak_rss_mb"] for r in plain), len(plain)),
        }
    traced = raw["traced"]
    out = {key: (med(r["layers"][key] for r in traced), len(traced))
           for key in traced[0]["layers"]}
    overhead = med(r["wall_s"] for r in traced) - med(r["wall_s"] for r in raw["plain"])
    out["trace.overhead_s"] = (overhead, len(traced))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gpam2d", "__init__.py")):
        print("error: src/gpam2d not found next to the benchmark", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = [w["name"] for w in spec["workloads"]]
    names = known if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = child_env()
    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    os.makedirs(OUT, exist_ok=True)

    status = 0
    for name in names:
        try:
            raw = run_workload(name, args.seed, args.size, args.seconds, bool(args.trace), env)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        values = metric_values(raw, bool(args.trace))
        missing = sorted(set(units) - set(values))
        if missing:
            print(f"error: {name}: metrics not produced: {missing}", file=sys.stderr)
            return 2
        fail_frac = raw["failed"] / raw["attempted"]
        for key in units:
            value, count = values[key]
            print(f"{name} {key} = {value:.6g} {units[key]} (median of {count})")
        print(f"{name} fail_frac = {fail_frac:.6g} ({raw['failed']}/{raw['attempted']} checks)")
        if raw["failed_checks"]:
            print(f"{name} failed checks: {', '.join(raw['failed_checks'][:20])}")
        result = {
            "correct": raw["failed"] == 0,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {k: {"value": values[k][0], "unit": units[k]} for k in units},
        }
        record = dict(result, workload=name, seed=args.seed, size=args.size,
                      trace=args.trace, seconds=args.seconds, machine=machine,
                      fail_frac=fail_frac, failed_checks=raw["failed_checks"],
                      samples={k: v[1] for k, v in values.items()},
                      reps={"wall_s": [r["wall_s"] for r in raw["plain"]],
                            "traced_wall_s": [r["wall_s"] for r in raw["traced"]],
                            "setup_s": raw["setups"]})
        path = os.path.join(OUT, f"result-{name}-{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        if raw["failed"]:
            status = 1
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
