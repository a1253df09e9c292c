"""In-memory spans and counters for the traced benchmark run.

A span records its name, start, end and parent.  Spans are opened either
around a stage by the workload code, or by wrappers that this file installs
on public functions of numpy, scipy and the package.  No package file is
edited: the wrappers replace module attributes at run time, so they see
every call that goes through the patched name.

A span's self time is its duration minus the time its direct children
cover.  Every ``*_s`` and ``*_ms`` layer metric is a self time, so the layer
times of a run add up to the traced part of its wall time.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import defaultdict


class NullTracer:
    """Tracer used for the timed, untraced repetitions: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, amount=1):
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, amount=1):
        self.counters[name] += amount

    def active_layer(self):
        """The layer prefix of the innermost open span, if any."""
        for index in reversed(self._stack):
            name = self.spans[index][0]
            if name.startswith(("kernels.", "montecarlo.")):
                return name.split(".", 1)[0]
        return None

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, the self time of every span with that name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out


# ---------------------------------------------------------------------------
# Wrapping


def wrap(tracer: Tracer, owner, attr: str, name, after=None) -> None:
    """Replace ``owner.attr`` by a function that opens a span around it.

    ``name`` is a span name or a callable ``(args, kwargs) -> name | None``;
    ``None`` calls straight through.  ``after(args, kwargs, result)`` runs
    once the call returns, to update counters.
    """
    original = getattr(owner, attr, None)
    if original is None or getattr(original, "_bench_wrapped", False):
        return

    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        if label is None:
            return original(*args, **kwargs)
        with tracer.span(label):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper._bench_wrapped = True
    setattr(owner, attr, wrapper)


def count_calls(tracer: Tracer, owner, attr: str, counter: str) -> None:
    """Replace ``owner.attr`` by a function that only counts its calls."""
    original = getattr(owner, attr, None)
    if original is None or getattr(original, "_bench_wrapped", False):
        return

    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return original(*args, **kwargs)

    wrapper._bench_wrapped = True
    setattr(owner, attr, wrapper)


FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _nbytes(value) -> int:
    return int(getattr(value, "nbytes", 0))


def wrap_fft(tracer: Tracer, module) -> None:
    """Count FFT calls and the bytes they read and write (computed).

    A call is charged to the layer of the innermost open ``kernels.*`` or
    ``montecarlo.*`` span, else to the calling module.
    """
    for fname in FFT_NAMES:
        original = getattr(module, fname, None)
        if original is None or getattr(original, "_bench_wrapped", False):
            continue

        def wrapper(*args, _orig=original, **kwargs):
            result = _orig(*args, **kwargs)
            layer = tracer.active_layer()
            if layer is None:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                if caller.startswith("gpam2d.kernels"):
                    layer = "kernels"
                elif caller.startswith("gpam2d.montecarlo"):
                    layer = "montecarlo"
            if layer is not None:
                moved = (_nbytes(args[0]) if args else 0) + _nbytes(result)
                tracer.count(f"{layer}.fft_calls")
                tracer.count(f"{layer}.fft_mbytes", moved / 1e6)
            return result

        wrapper._bench_wrapped = True
        setattr(module, fname, wrapper)


def install_numeric_wrappers(tracer: Tracer) -> None:
    """Wrap numpy/scipy entry points; call before the package is imported."""
    import numpy.fft
    import numpy.polynomial.legendre as legendre
    import scipy.fft
    from scipy.interpolate import CubicSpline

    def count(name):
        return lambda args, kwargs, result: tracer.count(name)

    wrap(tracer, legendre, "leggauss", "kernels.leggauss", count("kernels.leggauss_calls"))
    # Binding on the subclass shadows the inherited PPoly.__call__ for
    # CubicSpline instances only.
    wrap(tracer, CubicSpline, "__call__", "kernels.spline_eval",
         count("kernels.spline_eval_calls"))
    wrap_fft(tracer, numpy.fft)
    wrap_fft(tracer, scipy.fft)


def install_package_wrappers(tracer: Tracer) -> None:
    """Wrap the package functions that one module calls in another."""
    from gpam2d import classify, corpus, feynman, kernels, montecarlo, powercount

    def crho_name(args, kwargs):
        # The coarse cross-check is the one call that brings its own mollifier.
        route = args[0] if args else kwargs.get("route", "spatial")
        mol = args[2] if len(args) > 2 else kwargs.get("mol")
        if route not in ("spatial", "fourier"):
            return None
        return "kernels.crho_coarse" if mol is not None else f"kernels.crho_{route}"

    wrap(tracer, kernels, "crho_squared", crho_name)

    def conditions_done(origin):
        def after(args, kwargs, result):
            tracer.count("powercount.check_conditions_calls")
            tracer.count(f"{origin}.check_conditions_calls")
        return after

    wrap(tracer, powercount, "check_conditions", "powercount.check_conditions",
         conditions_done("bench"))
    wrap(tracer, classify, "check_conditions", "powercount.check_conditions",
         conditions_done("classify"))

    def canonical_done(args, kwargs, result):
        tracer.count("feynman.canonical_form_calls")

    # check_conditions evaluates one degree per subset it enumerates for
    # conditions 2-4, through these module globals; counting the calls (no
    # span, to keep the overhead small) follows any pruning of the lattice.
    for fname in ("deg2", "deg3", "deg4"):
        count_calls(tracer, powercount, fname, "powercount.subset_evals")

    for owner in (feynman, classify):
        wrap(tracer, owner, "canonical_form", "feynman.canonical_form", canonical_done)

    def pairings_done(args, kwargs, result):
        tracer.count("feynman.wick_pairings_out", len(result))

    for owner in (feynman, corpus):
        wrap(tracer, owner, "wick_pairings", "feynman.wick_pairings", pairings_done)

    for fname in ("sample_noise", "pi_xiixi", "pi_weighted", "convergence_table",
                  "estimate_stats"):
        wrap(tracer, montecarlo, fname, f"montecarlo.{fname}")


# ---------------------------------------------------------------------------
# Layer metrics


def _total(times, name):
    return float(sum(times.get(name, ())))


def _median_ms(times, name):
    values = times.get(name)
    return 1e3 * statistics.median(values) if values else 0.0


def _p90_ms(times, name):
    values = sorted(times.get(name, ()))
    if not values:
        return 0.0
    if len(values) == 1:
        return 1e3 * values[0]
    return 1e3 * statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values of one traced repetition."""
    times = tracer.self_times()
    c = tracer.counters
    out = {}
    span_totals = {
        "symbols.generate_s": "symbols.generate",
        "symbols.lift_check_s": "symbols.lift_check",
        "corpus.build_s": "corpus.build",
        "feynman.canonical_form_s": "feynman.canonical_form",
        "feynman.wick_pairings_s": "feynman.wick_pairings",
        "feynman.fourth_cumulant_s": "feynman.fourth_cumulant",
        "powercount.check_conditions_s": "powercount.check_conditions",
        "classify.manifest_forms_s": "classify.manifest_forms",
        "classify.classify_corpus_s": "classify.classify_corpus",
        "kernels.crho_spatial_s": "kernels.crho_spatial",
        "kernels.crho_fourier_s": "kernels.crho_fourier",
        "kernels.crho_coarse_s": "kernels.crho_coarse",
        "kernels.square_kernel_s": "kernels.square_kernel",
        "kernels.approx_unity_s": "kernels.approx_unity",
        "kernels.gconv_s": "kernels.gconv",
        "kernels.leggauss_s": "kernels.leggauss",
        "kernels.spline_eval_s": "kernels.spline_eval",
        "montecarlo.convergence_table_s": "montecarlo.convergence_table",
        "montecarlo.estimate_stats_s": "montecarlo.estimate_stats",
        "cli.symbols_s": "cli.symbols",
        "cli.graphs_s": "cli.graphs",
        "cli.constants_s": "cli.constants",
        "cli.mc_s": "cli.mc",
    }
    for metric, span in span_totals.items():
        out[metric] = _total(times, span)
    for short in ("sample_noise", "pi_xiixi", "pi_weighted"):
        out[f"montecarlo.{short}_ms"] = _median_ms(times, f"montecarlo.{short}")
    out["montecarlo.pi_xiixi_p90_ms"] = _p90_ms(times, "montecarlo.pi_xiixi")
    out["montecarlo.pi_weighted_p90_ms"] = _p90_ms(times, "montecarlo.pi_weighted")
    for counter in (
        "symbols.count", "corpus.graphs", "feynman.canonical_form_calls",
        "feynman.wick_pairings_out", "powercount.check_conditions_calls",
        "powercount.subset_evals", "kernels.leggauss_calls", "kernels.spline_eval_calls",
        "kernels.fft_calls", "kernels.fft_mbytes", "montecarlo.fft_calls",
        "montecarlo.fft_mbytes", "cli.artifact_bytes",
    ):
        out[counter] = float(c.get(counter, 0.0))
    attempts = c.get("classify.check_conditions_calls", 0.0)
    kept = c.get("classify.witness_cases", 0.0)
    out["classify.witness_yield"] = kept / attempts if attempts else 0.0
    return out
