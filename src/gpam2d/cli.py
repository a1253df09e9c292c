"""Batch command-line front end.

Subcommands: ``symbols``, ``graphs validate|pair|classify``, ``constants
crho|geps|gconv`` and ``mc noise|xiixi|weighted``.  Every output artifact
embeds the fully serialised run configuration and the toolkit version, and
re-running a configuration reproduces the bytes.  Exit codes: 0 on success,
1 on an assertion mismatch, 2 on usage errors.  ``-v`` prints the stage
timings and cache statistics of a run to stderr, never into the artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__


class _Stages:
    """Wall time of each stage of one command; a mark ends the current stage."""

    def __init__(self) -> None:
        self.times: list[tuple[str, float]] = []
        self._since = time.perf_counter()

    def mark(self, name: str) -> None:
        now = time.perf_counter()
        self.times.append((name, now - self._since))
        self._since = now


def _report(args, stages: _Stages) -> None:
    """The ``-v`` lines: stage timings, numeric caches, default-mollifier tables."""
    for name, seconds in stages.times:
        print(f"stage {name}: {seconds:.3f} s", file=sys.stderr)
    caches = {"kernels": ("_legendre", "_default_mollifier"),
              "montecarlo": ("_spectral", "_mean_field")}
    kernels = sys.modules.get(f"{__package__}.kernels")
    for module, names in caches.items():
        if loaded := sys.modules.get(f"{__package__}.{module}"):
            for name in names:
                print(f"cache {module}.{name}: {getattr(loaded, name).cache_info()}",
                      file=sys.stderr)
    if not kernels:
        return
    # Looked up after the statistics above, which the lookups move; a miss
    # is a mollifier this run did not use.
    default = kernels._default_mollifier
    for res in sorted({getattr(args, "resolution", kernels.RESOLUTION), kernels.RESOLUTION}):
        misses = default.cache_info().misses
        keys = [k if isinstance(k, str) else f"{k[0]}{k[1]}" for k in default(res)._splines]
        if default.cache_info().misses == misses:
            print(f"default mollifier {res} tables: {', '.join(keys) or '-'}", file=sys.stderr)


def _config_line(args: argparse.Namespace) -> str:
    blob = {k: v for k, v in sorted(vars(args).items())
            if k not in ("func", "out", "verbose") and v is not None}
    return json.dumps({"tool": "gpam2d", "version": __version__, "config": blob},
                      sort_keys=True, default=str)


def _emit(args, text: str) -> None:
    payload = f"# {_config_line(args)}\n{text}"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _parse_eps_list(text: str) -> list[float]:
    """Either a single value (``1/8``, ``0.125``, ``2^-3``) or ``2^-3..2^-6``.

    Scales must be finite and positive with a square that is a normal float,
    and a range must descend by halving from its start to its end.
    """

    def one(tok: str) -> float:
        try:
            if "^" in tok:
                base, expo = tok.split("^")
                value = float(base) ** float(expo)
            else:
                value = float(Fraction(tok))
        except (ValueError, ZeroDivisionError, OverflowError):
            value = math.nan
        if not (isinstance(value, float) and math.isfinite(value) and value > 0):
            raise ValueError(f"scale {tok!r} is not a finite positive number")
        if not sys.float_info.min <= value * value <= sys.float_info.max:
            raise ValueError(f"the square of scale {tok!r} over- or underflows a float")
        return value

    if text.count("..") == 1:  # more than one '..' is a single unparseable scale
        lo, hi = text.split("..")
        v0, v1 = one(lo), one(hi)
        if v0 < v1:
            raise ValueError(f"scale range {text!r} must descend")
        out = [v0]
        while out[-1] > v1 * 1.0001:
            out.append(out[-1] / 2.0)
        if not math.isclose(out[-1], v1, rel_tol=1e-4):
            raise ValueError(f"scale range {text!r} must end at its start halved k times")
        return out
    return [one(text)]


# ---------------------------------------------------------------------------


def cmd_symbols(args, stages: _Stages) -> int:
    from .symbols import generate, homogeneity

    syms = generate(args.structure, args.side)
    stages.mark("generate")
    rows = sorted(
        ((str(s), str(homogeneity(s, args.structure))) for s in syms),
        key=lambda row: row[0],
    )
    if args.json:
        text = json.dumps(dict(rows), indent=2, sort_keys=True) + "\n"
    else:
        width = max(len(r[0]) for r in rows)
        text = "\n".join(f"{name:<{width}}  {hom}" for name, hom in rows) + "\n"
    _emit(args, text)
    return 0


def _load_corpus(args):
    from .corpus import classification_corpus, directives, parse_fixtures

    if args.corpus is None:
        return classification_corpus()
    try:
        with open(args.corpus) as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ValueError(f"no fixture file {args.corpus!r}") from None
    if any(fields[0] == "list" for _, _, fields in directives(text)):
        raise ValueError(f"{args.corpus!r} is a class manifest (a 'list' file), "
                         "not a graph fixture file")
    fixtures = parse_fixtures(text)
    if args.action == "classify":
        from .classify import CRITICAL, IN_G2, IN_G3, IN_G4, UNCLASSIFIED, VANISHES
        from .powercount import edge_classes

        if labelled := [n for n, fx in fixtures.items() if fx.labels]:
            raise ValueError(f"graph {labelled[0]!r} has label lines, but graphs classify "
                             "labels every graph from its edge types")
        verdicts = (VANISHES, IN_G2, IN_G3, IN_G4, CRITICAL, UNCLASSIFIED)
        for name, fx in fixtures.items():
            if fx.graph.expect not in (None, *verdicts):
                raise ValueError(f"graph {name!r} expects {fx.graph.expect!r}, which is not "
                                 f"a verdict ({', '.join(verdicts)})")
            budget, mollifiers = fx.graph.eps_total(), len(edge_classes(fx.graph)["E_M"])
            if budget != mollifiers:
                raise ValueError(f"graph {name!r} spends epsilon^{budget} against {mollifiers} "
                                 "mollifiers, but graphs classify takes second-moment "
                                 "(Wick-paired) graphs, whose budget matches their mollifiers")
    return [(name, fx.graph) for name, fx in fixtures.items()]


def cmd_graphs(args, stages: _Stages) -> int:
    from .feynman import validate_structure, wick_pairings

    if args.action == "validate":
        corpus = _load_corpus(args)
        stages.mark("load corpus")
        lines = []
        bad = 0
        for ref, graph in corpus:
            report = validate_structure(graph)
            ok = report.ok()
            bad += not ok
            lines.append(f"{ref}: {'ok' if ok else 'FAIL ' + str(report.items)}")
        stages.mark("validate")
        _emit(args, "\n".join(lines) + f"\nchecked {len(corpus)} graphs, {bad} failures\n")
        return 1 if bad else 0

    if args.action == "pair":
        from .corpus import load_graph

        if not args.graph:
            raise ValueError("graphs pair needs --graph")
        graph = load_graph(args.graph) if ":" in args.graph else _dict_lookup(args)
        stages.mark("load graph")
        pairs = wick_pairings(graph, args.constraint)
        stages.mark("wick pairings")
        lines = [f"{g.name}: vertices={len(g.kinds)} edges={len(g.edges)} coeff={g.coeff}"
                 for g in pairs]
        _emit(args, "\n".join(lines) + f"\n{len(pairs)} pairings\n")
        return 0

    if args.action == "classify":
        from .classify import (
            PUBLISHED_DEFECT,
            classify_corpus,
            published_forms,
            published_verdict,
        )
        from .feynman import canonical_form

        corpus = _load_corpus(args)
        stages.mark("load corpus")
        forms = published_forms()
        stages.mark("published forms")
        results = classify_corpus(corpus, crit_forms=forms["crit"], g2_forms=forms["g2"])
        stages.mark("classify")
        # The published partition covers the shipped corpus only; the graphs
        # of a fixture file are checked against their `expect` lines.
        published = args.corpus is None
        graphs = dict(corpus)
        counts: dict[str, int] = {}
        disagreements = []
        report = []
        for ref, res in sorted(results.items()):
            counts[res.verdict] = counts.get(res.verdict, 0) + 1
            graph = graphs[ref]
            expected = graph.expect
            if published and not expected:
                expected = published_verdict(canonical_form(graph), forms)
            entry = {"graph_ref": ref} | res.to_dict()
            if expected and expected != res.verdict:
                entry["expected"] = expected
                disagreements.append({"graph_ref": ref, "verdict": res.verdict,
                                      "expected": expected,
                                      "known": ref == PUBLISHED_DEFECT})
            report.append(entry)
        mismatch = sum(not d["known"] for d in disagreements)
        stages.mark("compare")
        _emit(args, json.dumps({
            "counts": counts,
            "expected_from": "published partition" if published else "expect lines",
            "agrees": not disagreements, "disagreements": disagreements,
            "mismatches": mismatch, "verdicts": report,
        }, indent=2) + "\n")
        return 1 if mismatch else 0

    return 2


def _dict_lookup(args):
    corpus = dict(_load_corpus(args))
    if args.graph not in corpus:
        raise ValueError(f"no graph {args.graph!r} in the corpus")
    return corpus[args.graph]


def cmd_constants(args, stages: _Stages) -> int:
    rows = [("quantity", "eps", "resolution", "value", "error_estimate", "label")]

    if args.action == "crho":
        from .kernels import crho_squared

        routes = ("spatial", "fourier") if args.route == "both" else (args.route,)
        values = []
        for route in routes:
            res = crho_squared(route, args.resolution)
            stages.mark(f"crho_squared {route}")
            values.append(res.value)
            rows.append((f"crho_squared_{route}", "", str(args.resolution),
                         repr(res.value), repr(res.estimated_error), "noise-amplitude"))
        _emit(args, _csv(rows))
        if len(values) == 2 and abs(values[0] - values[1]) > 1e-3 * abs(values[0]):
            print("error: quadrature routes disagree", file=sys.stderr)
            return 1
        return 0

    if args.action == "geps":
        from .kernels import SquareKernel

        eps_list = _parse_eps_list(args.eps)
        kernel = SquareKernel(resolution=args.resolution)
        stages.mark("square kernel")
        for eps in eps_list:
            total = kernel.integral(eps)
            stages.mark(f"integral eps={eps!r}")
            rows.append(("square_kernel_integral", repr(eps), str(args.resolution),
                         repr(total), "", "scale-invariance"))
        _emit(args, _csv(rows))
        return 0

    if args.action == "gconv":
        from .kernels import gconv_limits_check

        for eps in _parse_eps_list(args.eps):
            res = gconv_limits_check(eps, n=args.n, resolution=args.resolution)
            stages.mark(f"gconv eps={eps!r}")
            for key, val in res.items():
                rows.append((f"gconv_{key}", repr(eps), str(args.resolution), repr(val), "",
                             "smoothing-residual"))
        _emit(args, _csv(rows))
        return 0

    return 2


def _csv(rows) -> str:
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def cmd_mc(args, stages: _Stages) -> int:
    import numpy as np

    from .kernels import crho_squared
    from .montecarlo import (
        MIN_SAMPLES,
        convergence_table,
        estimate_stats,
        require_samples,
        sample_noise,
        sample_seeds,
    )

    if args.action == "noise":
        values = []
        for s in sample_seeds(args.seed, args.samples):
            values.append(float(np.mean(sample_noise(args.n, s) ** 2)))
        stages.mark("sample noise")
        stats = estimate_stats(values) if len(values) >= MIN_SAMPLES else None
        text = _csv(
            [("quantity", "n", "samples", "value", "se", "seed"),
             ("cell_variance", args.n, args.samples,
              repr(float(np.mean(values))),
              repr(stats.mean_se) if stats else "", args.seed)]
        )
        _emit(args, text)
        return 0

    eps_list = _parse_eps_list(args.eps)
    require_samples(args.samples)  # before the c_rho^2 quadrature too
    crho = crho_squared("spatial", args.resolution).value
    stages.mark("crho_squared spatial")
    if args.action == "xiixi":
        which = "xiixi"
        columns = ("eps", "n", "samples", "var_ratio", "var_se", "mean", "mean_se",
                   "k4_ratio", "k4_se", "seed")
    else:
        which = args.which
        columns = ("eps", "n", "samples", "which", "axis", "var_ratio", "mean",
                   "mean_se", "seed")
    table = convergence_table(eps_list, args.n, args.samples, seed=args.seed,
                              crho_sq=crho, which=which, j=args.axis)
    stages.mark("convergence table")
    rows = [columns] + [
        tuple(repr(row[k]) if isinstance(row[k], float) else row[k] for k in columns)
        for row in table
    ]
    _emit(args, _csv(rows))
    return 0


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """Grid sizes, sample counts and resolutions: integers of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    # --out is accepted before or after the subcommand; SUPPRESS keeps a
    # subcommand's unset --out from overwriting one given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path")
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="print stage timings and cache statistics to stderr")
    parser = argparse.ArgumentParser(prog="gpam2d", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("symbols", help="print a symbol table with homogeneities")
    p.add_argument("--structure", choices=["unprimed", "primed"], required=True)
    p.add_argument("--side", choices=["RHS", "sol"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_symbols)

    p = add("graphs", help="validate, pair or classify graph fixtures")
    p.add_argument("action", choices=["validate", "pair", "classify"])
    p.add_argument("--corpus", help="fixture file (defaults to the shipped corpus)")
    p.add_argument("--graph", help="file:name of a stochastic graph (pair)")
    p.add_argument("--constraint", default="all")
    p.set_defaults(func=cmd_graphs)

    p = add("constants", help="kernel constants and limits")
    p.add_argument("action", choices=["crho", "geps", "gconv"])
    p.add_argument("--route", choices=["spatial", "fourier", "both"], default="both")
    p.add_argument("--resolution", type=_positive_int,
                   help="mollifier resolution of every quadrature and grid "
                        "(default: kernels.RESOLUTION)")
    p.add_argument("--eps", default="1..1/4")
    p.add_argument("--n", type=_positive_int, default=512)
    p.set_defaults(func=cmd_constants)

    p = add("mc", help="Monte-Carlo verification runs")
    p.add_argument("action", choices=["noise", "xiixi", "weighted"])
    p.add_argument("--eps", default="2^-3..2^-6")
    p.add_argument("--n", type=_positive_int, default=512)
    p.add_argument("--samples", type=_positive_int, default=400)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--resolution", type=_positive_int,
                   help="mollifier resolution of the c_rho^2 quadrature only; the "
                        "spectral tables always use kernels.RESOLUTION "
                        "(default: kernels.RESOLUTION)")
    p.add_argument("--which", choices=["xxiixi", "xiixxi"], default="xiixxi")
    p.add_argument("--axis", type=int, choices=[1, 2], default=1)
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    stages = _Stages()
    args = build_parser().parse_args(argv)
    stages.mark("parse arguments")
    if hasattr(args, "resolution"):
        # Resolved here: the symbol and graph commands skip the numeric imports.
        from .kernels import RESOLUTION

        if args.resolution is None:
            args.resolution = RESOLUTION
        stages.mark("numeric imports")
    try:
        return args.func(args, stages)
    except ValueError as exc:
        # Bad values reach the commands as ValueError: a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        stages.mark("output")
        if getattr(args, "verbose", False):
            _report(args, stages)


if __name__ == "__main__":
    sys.exit(main())
