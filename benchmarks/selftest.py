"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest benchmarks/selftest.py -q

They check that every metric in ``BENCHMARK.json`` is emitted, that every
layer metric has an entry in ``metric_map.json``, that the spans each
workload promises appear in its trace, that a perturbed output is counted as
a failed check, and that the benchmark refuses to run without the package.
The file name keeps these tests out of the repository's default test run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Spans each workload must record in a traced run, at any size.
SPANS = {
    "exact_corpus": {
        "symbols.generate", "symbols.lift_check", "corpus.build", "classify.manifest_forms",
        "feynman.canonical_form", "feynman.wick_pairings", "feynman.fourth_cumulant",
        "powercount.check_conditions", "classify.classify_corpus",
    },
    "constants_cold": {
        "kernels.crho_spatial", "kernels.crho_fourier", "kernels.crho_coarse",
        "kernels.square_kernel", "kernels.approx_unity", "kernels.gconv",
        "kernels.leggauss", "kernels.spline_eval",
    },
    "mc_limit": {
        "kernels.crho_spatial", "montecarlo.convergence_table", "montecarlo.sample_noise",
        "montecarlo.pi_xiixi", "montecarlo.pi_weighted", "montecarlo.estimate_stats",
    },
    "cli_runs": {"cli.symbols", "cli.graphs", "cli.constants", "cli.mc"},
}

# Layer metrics that must be nonzero on the workload they are mapped to.
NONZERO = {
    "exact_corpus": ["symbols.count", "corpus.graphs", "feynman.canonical_form_calls",
                     "feynman.wick_pairings_out", "powercount.subset_evals",
                     "classify.witness_yield"],
    "constants_cold": ["kernels.leggauss_calls", "kernels.spline_eval_calls",
                       "kernels.fft_calls", "kernels.fft_mbytes"],
    "mc_limit": ["montecarlo.pi_xiixi_ms", "montecarlo.pi_weighted_p90_ms",
                 "montecarlo.fft_calls", "montecarlo.fft_mbytes"],
    "cli_runs": ["cli.artifact_bytes", "cli.mc_s"],
}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_metric_map_covers_every_layer_metric():
    with open(os.path.join(HERE, "metric_map.json")) as fh:
        layers = json.load(fh)["layers"]
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layers.values():
        assert set(entry["on"]) <= set(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(name, trace):
    proc = _bench("--workload", name, "--seed", str(workloads.DEFAULT_SEED),
                  "--seconds", "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert f"{name} {metric['name']} = " in proc.stdout
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        for key in NONZERO[name]:
            assert result["metrics"][key]["value"] > 0, key
        spans_file = os.path.join(HERE, "out", f"spans-{name}-{workloads.DEFAULT_SEED}-0.json")
        with open(spans_file) as fh:
            names = {span[0] for span in json.load(fh)}
        assert SPANS[name] <= names, SPANS[name] - names
    else:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def _failed_checks(name):
    refs = child.load_references("smoke")
    result = child.execute(name, workloads.DEFAULT_SEED, "smoke", tracing.NullTracer(), refs)
    return result["failed"], result["attempted"]


def test_unperturbed_smoke_passes():
    assert _failed_checks("constants_cold")[0] == []


def test_perturbed_crho_is_a_failed_check(monkeypatch):
    from gpam2d import kernels

    original = kernels.crho_squared

    def perturbed(*args, **kwargs):
        res = original(*args, **kwargs)
        res.value *= 1.0 + 1e-3
        return res

    monkeypatch.setattr(kernels, "crho_squared", perturbed)
    failed, attempted = _failed_checks("constants_cold")
    assert {"crho_spatial", "crho_fourier", "crho_coarse"} <= set(failed)
    assert 0 < len(failed) / attempted < 1


def test_perturbed_estimator_is_a_failed_check(monkeypatch):
    from gpam2d import montecarlo

    original = montecarlo.pi_xiixi
    monkeypatch.setattr(montecarlo, "pi_xiixi",
                        lambda sample, eps, phi: 1.01 * original(sample, eps, phi))
    failed, _ = _failed_checks("mc_limit")
    assert any(label.startswith("ref[") for label in failed)


def test_unstored_seed_is_checked_against_bands():
    refs = child.load_references("full")["mc_limit"]
    stored = refs["by_seed"][str(workloads.DEFAULT_SEED)]
    unstored = max(int(seed) for seed in refs["by_seed"]) + 1
    check = workloads.WORKLOADS["mc_limit"].check

    def failed(scale):
        rows = [[eps, scale * var, k4] for eps, var, k4 in stored["rows"]]
        summary = {"crho": refs["crho"], "rows": rows, "cov_ratio": stored["cov_ratio"]}
        return [label for label, ok in check(summary, refs, unstored) if not ok]

    assert failed(1.0) == []
    # pi_xiixi off by a factor of 2 moves every variance ratio by 4.
    assert any(label.startswith("band[") for label in failed(4.0))
    assert any(label.startswith("band[") for label in failed(0.25))


def subset_count(n_vertices: int, n_tested: int) -> int:
    """Subsets that the seed ``check_conditions`` enumerates for conditions 2-4.

    Condition 2 takes every subset of the inner vertices with at least three
    members, condition 3 every nonempty subset of them (joined to the root),
    condition 4 every nonempty subset of the untested vertices.
    """
    inner = n_vertices - 1
    free = n_vertices - n_tested
    cond2 = 2**inner - 1 - inner - math.comb(inner, 2)
    return cond2 + (2**inner - 1) + (2**free - 1)


def test_subset_evals_counts_every_enumerated_subset(monkeypatch):
    from gpam2d import corpus, powercount

    tracer = tracing.Tracer()
    for name in ("deg2", "deg3", "deg4"):
        monkeypatch.setattr(powercount, name, getattr(powercount, name))  # restored after
        tracing.count_calls(tracer, powercount, name, "powercount.subset_evals")
    expected = 0
    for _, graph in corpus.classification_corpus()[:8]:
        normalised, _ = powercount.dtest_normalise(graph)
        powercount.check_conditions(powercount.canonical_labelling(normalised))
        expected += subset_count(len(normalised.kinds), len(normalised.tested_vertices()))
    assert tracer.counters["powercount.subset_evals"] == expected > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "exact_corpus", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
