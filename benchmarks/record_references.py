"""Record the reference outputs that the benchmark checks against.

Run from the repository root on a commit whose outputs are trusted:

    python3 benchmarks/record_references.py

It writes ``benchmarks/references.json``.  Monte-Carlo references are kept
for the default seed, the held-out seed and ``MC_SEEDS``; any other seed is
checked against bands derived from the stored seeds only.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in the benchmark's children (run.BLAS_THREADS)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

# The honest verdict counts of the corpus.  four_noise_b:b16 is InG4, where
# the published partition says it vanishes (see the acceptance tests).
EXPECTED_COUNTS = {"Critical": 20, "VanishesViaAdjustment": 62, "InG4": 9, "InG2": 4, "InG3": 1}

# Extra Monte-Carlo seeds with full-size references, next to the default and
# held-out seeds.
MC_SEEDS = range(0, 100)


def _run(name, seed, size):
    workload = workloads.WORKLOADS[name]
    return workload.run(workload.prepare(seed, size), tracing.NullTracer())


def exact_reference():
    out = _run("exact_corpus", 0, "full")
    counts = dict(Counter(out["verdicts"].values()))
    if counts != EXPECTED_COUNTS or out["verdicts"]["four_noise_b:b16"] != "InG4":
        raise SystemExit(f"unexpected verdicts {counts}")
    keep = ("symbol_counts", "lift", "corpus_size", "manifest_sizes", "k4_counts",
            "published", "conditions", "verdicts")
    ref = {k: out[k] for k in keep}
    ref["verdict_counts"] = counts
    return ref


def mc_reference(size, seeds):
    by_seed = {}
    crho = None
    for seed in seeds:
        out = _run("mc_limit", seed, size)
        crho = out["crho"]
        by_seed[str(seed)] = {"rows": out["rows"], "cov_ratio": out["cov_ratio"]}
        print(f"mc_limit {size} seed {seed}: {by_seed[str(seed)]}", flush=True)
    return {"crho": crho, "by_seed": by_seed}


def cli_reference(size):
    out = _run("cli_runs", 0, size)
    for res in out["commands"]:
        if res["codes"] != [0, 0] or not res["same"]:
            raise SystemExit(f"command failed: {res['argv']}")
    return {"commands": [{"argv": r["argv"], "content": r["content"]} for r in out["commands"]]}


def constants_reference(size):
    out = _run("constants_cold", 0, size)
    if size == "full" and not all(out["relations"].values()):
        raise SystemExit(f"criteria 6-7 do not hold: {out['relations']}")
    return out


def main():
    full_seeds = sorted({workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED, *MC_SEEDS})

    exact = exact_reference()
    refs = {
        "full": {
            "exact_corpus": exact,
            "constants_cold": constants_reference("full"),
            "cli_runs": cli_reference("full"),
            "mc_limit": mc_reference("full", full_seeds),
        },
        "smoke": {
            "exact_corpus": exact,
            "constants_cold": constants_reference("smoke"),
            "cli_runs": cli_reference("smoke"),
            "mc_limit": mc_reference("smoke", [workloads.DEFAULT_SEED]),
        },
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
