"""Batch command-line front end.

Subcommands: ``symbols``, ``graphs validate|pair|classify``, ``constants
crho|geps|gconv`` and ``mc noise|xiixi|weighted``, each action with its own
parser and handler.  Every output artifact embeds the run configuration (the
options its action takes) and the toolkit version, and re-running a configuration reproduces the bytes.  Exit codes: 0 on success,
1 on an assertion mismatch, 2 on usage errors.  ``-v`` prints each stage's
time and minor page faults, and the cache statistics of a run, to stderr,
never into the artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__

try:
    import resource
except ImportError:  # not POSIX: stages report no page faults
    resource = None


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt if resource else 0


class _Stages:
    """Wall time and minor page faults of each stage of one command; a mark
    ends the current stage."""

    def __init__(self) -> None:
        self.times: list[tuple[str, float, int]] = []
        self._since = time.perf_counter(), _faults()

    def mark(self, name: str) -> None:
        now = time.perf_counter(), _faults()
        self.times.append((name, now[0] - self._since[0], now[1] - self._since[1]))
        self._since = now


def _report(args, stages: _Stages) -> None:
    """The ``-v`` lines: stage timings and page faults, numeric caches,
    default-mollifier tables."""
    for name, seconds, faults in stages.times:
        counted = f", {faults} page faults" if resource else ""
        print(f"stage {name}: {seconds:.3f} s{counted}", file=sys.stderr)
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
            if k not in ("func", "parser", "out", "verbose") and v is not None}
    return json.dumps({"tool": "gpam2d", "version": __version__, "config": blob},
                      sort_keys=True, default=str)


def _emit(args, text: str) -> None:
    payload = f"# {_config_line(args)}\n{text}"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out!r}: {exc.strerror}") from None
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
    from .corpus import classification_corpus, parse_fixtures

    if args.corpus is None:
        return classification_corpus()
    try:
        with open(args.corpus) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read fixture file {args.corpus!r}: {exc.strerror}") from None
    return list(parse_fixtures(text).items())


def graphs_validate(args, stages: _Stages) -> int:
    from .feynman import validate_structure

    corpus = _load_corpus(args)
    stages.mark("load corpus")
    lines = []
    bad = 0
    for ref, graph in corpus:
        report = validate_structure(graph)
        ok = report.ok()
        bad += not ok
        lines.append(f"{ref}: {'ok' if ok else 'FAIL ' + report.failures()}")
    stages.mark("validate")
    _emit(args, "\n".join(lines) + f"\nchecked {len(corpus)} graphs, {bad} failures\n")
    return 1 if bad else 0


def graphs_pair(args, stages: _Stages) -> int:
    from .corpus import load_graph
    from .feynman import wick_pairings

    if not args.graph:
        raise ValueError("graphs pair needs --graph")
    if ":" in args.graph:
        if args.corpus is not None:
            raise ValueError(f"--graph {args.graph!r} names a shipped fixture file, so "
                             "graphs pair does not read --corpus")
        graph = load_graph(args.graph)
    elif (graph := dict(_load_corpus(args)).get(args.graph)) is None:
        raise ValueError(f"no graph {args.graph!r} in the corpus")
    stages.mark("load graph")
    pairs = wick_pairings(graph, args.constraint)
    stages.mark("wick pairings")
    lines = [f"{g.name}: vertices={len(g.kinds)} edges={len(g.edges)} coeff={g.coeff}"
             for g in pairs]
    _emit(args, "\n".join(lines) + f"\n{len(pairs)} pairings\n")
    return 0


def graphs_classify(args, stages: _Stages) -> int:
    from .classify import PUBLISHED_DEFECT, classify_corpus, published_forms, published_verdict
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
        expected = graphs[ref].expect
        if published and not expected:
            expected = published_verdict(canonical_form(graphs[ref]), forms)
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


_CONSTANTS_HEADER = ("quantity", "eps", "resolution", "value", "error_estimate", "label")


def constants_crho(args, stages: _Stages) -> int:
    from .kernels import crho_squared

    routes = ("spatial", "fourier") if args.route == "both" else (args.route,)
    rows, values = [_CONSTANTS_HEADER], []
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


def constants_geps(args, stages: _Stages) -> int:
    from .kernels import SquareKernel

    eps_list = _parse_eps_list(args.eps)
    kernel = SquareKernel(resolution=args.resolution)
    stages.mark("square kernel")
    rows, unresolved = [_CONSTANTS_HEADER], []
    for eps in eps_list:
        total, error = kernel.integral_estimate(eps)
        stages.mark(f"integral eps={eps!r}")
        rows.append(("square_kernel_integral", repr(eps), str(args.resolution),
                     repr(total), repr(error), "scale-invariance"))
        if not error <= 1e-4 * abs(total):
            unresolved.append(repr(eps))
    _emit(args, _csv(rows))
    if unresolved:
        print(f"error: square-kernel integral unresolved at eps {', '.join(unresolved)}: "
              "error estimate above 1e-4 of the value", file=sys.stderr)
        return 1
    return 0


def constants_gconv(args, stages: _Stages) -> int:
    from .kernels import gconv_limits_check

    rows = [_CONSTANTS_HEADER]
    for eps in _parse_eps_list(args.eps):
        res = gconv_limits_check(eps, n=args.n, resolution=args.resolution)
        stages.mark(f"gconv eps={eps!r}")
        for key, val in res.items():
            rows.append((f"gconv_{key}", repr(eps), str(args.resolution), repr(val), "",
                         "smoothing-residual"))
    _emit(args, _csv(rows))
    return 0


def _csv(rows) -> str:
    return "\n".join(",".join(map(str, row)) for row in rows) + "\n"


def mc_noise(args, stages: _Stages) -> int:
    import numpy as np

    from .montecarlo import MIN_SAMPLES, estimate_stats, sample_noise, sample_seeds

    values = [float(np.mean(sample_noise(args.n, s) ** 2))
              for s in sample_seeds(args.seed, args.samples)]
    stages.mark("sample noise")
    stats = estimate_stats(values) if len(values) >= MIN_SAMPLES else None
    _emit(args, _csv([("quantity", "n", "samples", "value", "se", "seed"),
                      ("cell_variance", args.n, args.samples, repr(float(np.mean(values))),
                       repr(stats.mean_se) if stats else "", args.seed)]))
    return 0


def _mc_table(args, stages: _Stages, columns, which: str, j: int = 1) -> int:
    from .kernels import crho_squared
    from .montecarlo import convergence_table, require_samples

    eps_list = _parse_eps_list(args.eps)
    require_samples(args.samples)  # before the c_rho^2 quadrature too
    crho = crho_squared("spatial", args.resolution).value
    stages.mark("crho_squared spatial")
    table = convergence_table(eps_list, args.n, args.samples, seed=args.seed,
                              crho_sq=crho, which=which, j=j)
    stages.mark("convergence table")
    rows = [columns] + [
        tuple(repr(row[k]) if isinstance(row[k], float) else row[k] for k in columns)
        for row in table
    ]
    _emit(args, _csv(rows))
    return 0


def mc_xiixi(args, stages: _Stages) -> int:
    return _mc_table(args, stages, ("eps", "n", "samples", "var_ratio", "var_se", "mean",
                                    "mean_se", "k4_ratio", "k4_se", "seed"), "xiixi")


def mc_weighted(args, stages: _Stages) -> int:
    return _mc_table(args, stages, ("eps", "n", "samples", "which", "axis", "var_ratio",
                                    "mean", "mean_se", "seed"), args.which, j=args.axis)


# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """Integers of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _at_most(ceiling: int, reason: str):
    """The argparse type of a size: a positive integer, refused above ``ceiling``
    with ``reason``, so that nothing is built for it."""

    def size(text: str) -> int:
        if (value := _positive_int(text)) > ceiling:
            raise argparse.ArgumentTypeError(f"{value} is above the ceiling {ceiling}: {reason}")
        return value

    return size


def _non_negative_int(text: str) -> int:
    """Seeds: integers of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


# Each option's spec, written once.  An action's parser declares exactly the
# options its handler reads, so any other option is a usage error and the
# configuration line lists only options that shaped the run.
_OPTIONS = {
    "--structure": dict(choices=["unprimed", "primed"], required=True),
    "--side": dict(choices=["RHS", "sol"], required=True),
    "--json": dict(action="store_true"),
    "--corpus": dict(help="fixture file (defaults to the shipped corpus)"),
    "--graph": dict(help="file:name of a stochastic graph, or a graph of --corpus"),
    "--constraint": dict(default="all"),
    "--route": dict(choices=["spatial", "fourier", "both"], default="both"),
    # The ceilings: c_rho^2's 8 x resolution nodes stay within the 3072 for
    # which kernels._legendre states its accuracy; a Monte-Carlo table at its
    # four default scales keeps about 32 N x N fields of doubles alive (its two
    # lanes' work arrays, each scale's spectral tables and mean field; 28
    # measured at N = 1024); every sample's seed is kept until the run ends.
    "--resolution": dict(type=_at_most(384, "c_rho^2 takes 8 x resolution Gauss-Legendre "
                                            "nodes, accurate up to 3072"),
                         help="mollifier resolution (default: kernels.RESOLUTION): of every "
                              "quadrature and grid for constants, of the c_rho^2 quadrature "
                              "only for mc"),
    "--n": dict(type=_at_most(4096, "a Monte-Carlo table keeps about 32 N x N fields of "
                                    "doubles alive, 4 GiB at N = 4096"), default=512),
    "--samples": dict(type=_at_most(1 << 20, "every sample keeps a seed of about 380 bytes "
                                             "until the run ends, 0.4 GiB at the ceiling"),
                      default=400),
    "--seed": dict(type=_non_negative_int, default=7),
    "--which": dict(choices=["xxiixi", "xiixxi"], default="xiixxi"),
    "--axis": dict(type=int, choices=[1, 2], default=1),
}
_EPS_DEFAULT = {"constants": "1..1/4", "mc": "2^-3..2^-6"}
_MC_TABLE = ("--eps", "--n", "--samples", "--seed", "--resolution")
# command -> (help, {action: (handler, options)}); symbols takes no action.
_COMMANDS = {
    "symbols": ("print a symbol table with homogeneities",
                {None: (cmd_symbols, ("--structure", "--side", "--json"))}),
    "graphs": ("validate, pair or classify graph fixtures", {
        "validate": (graphs_validate, ("--corpus",)),
        "pair": (graphs_pair, ("--corpus", "--graph", "--constraint")),
        "classify": (graphs_classify, ("--corpus",)),
    }),
    "constants": ("kernel constants and limits", {
        "crho": (constants_crho, ("--route", "--resolution")),
        "geps": (constants_geps, ("--eps", "--resolution")),
        "gconv": (constants_gconv, ("--eps", "--n", "--resolution")),
    }),
    "mc": ("Monte-Carlo verification runs", {
        "noise": (mc_noise, ("--n", "--samples", "--seed")),
        "xiixi": (mc_xiixi, _MC_TABLE),
        "weighted": (mc_weighted, _MC_TABLE + ("--which", "--axis")),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    # --out and -v are accepted before or after the command and the action;
    # SUPPRESS keeps a later parser's unset value from overwriting one given
    # before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to this path")
    common.add_argument("-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
                        help="print stage timings, page faults and cache statistics to stderr")
    parser = argparse.ArgumentParser(prog="gpam2d", parents=[common])
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, actions) in _COMMANDS.items():
        p = commands.add_parser(command, parents=[common], help=help_text)
        sub = None if None in actions else p.add_subparsers(dest="action", required=True)
        specs = _OPTIONS | {"--eps": dict(default=_EPS_DEFAULT.get(command))}
        for action, (func, options) in actions.items():
            q = sub.add_parser(action, parents=[common]) if sub else p
            for flag in options:
                q.add_argument(flag, **specs[flag])
            q.set_defaults(func=func, parser=q)
    return parser


def main(argv=None) -> int:
    stages = _Stages()
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # The action's parser reports them: its usage line lists what it takes.
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
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
