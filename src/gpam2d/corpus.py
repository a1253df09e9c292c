"""Loader for the line-oriented graph fixture files shipped with the package.

Grammar (one directive per line, ``#`` starts a comment)::

    graph <name>
    ref <free text>
    coeff <rational>
    prefactor <rational>
    v <vertex-name> root|int|noise
    e <tail> <head> <TAG>[:j[,k]] [eps=<rational>]
    label <edge-index> a=<extrational> r=<int>

Vertex names are file-local; they are mapped to integer ids in declaration
order, and noise numbering is declaration order as well.  Every directive
belongs to the ``graph`` line above it, and a label names an edge declared
above it.  Class membership files are manifests over graph fixtures::

    list <name>
    member <file>:<graph>
    family <file>:<graph> all|<i>-<j>|<ij>-<kl>
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .exts import ExtRational, parse_ext
from .feynman import INT, NOISE, ROOT, Edge, FeynmanGraph, parse_edge_type, wick_pairings

# Fewest fields on a line, directive included.
_ARITY = {"graph": 2, "ref": 1, "expect": 2, "coeff": 2, "prefactor": 2, "v": 3, "e": 4,
          "label": 2}


@dataclass
class Fixture:
    graph: FeynmanGraph
    labels: dict[int, tuple[ExtRational, int]] = field(default_factory=dict)
    ref: str = ""


def _read_text(name: str) -> str:
    return resources.files("gpam2d.fixtures").joinpath(f"{name}.txt").read_text()


def parse_fixtures(text: str) -> dict[str, Fixture]:
    fixtures: dict[str, Fixture] = {}
    current: str | None = None
    vmap: dict[str, int] = {}
    kinds: dict[int, str] = {}
    edges: list[Edge] = []
    labels: dict[int, tuple[ExtRational, int]] = {}
    meta: dict = {}

    def flush():
        nonlocal current, vmap, kinds, edges, labels, meta
        if current is None:
            return
        try:
            graph = FeynmanGraph(
                kinds=dict(kinds),
                edges=list(edges),
                prefactor=meta.get("prefactor", Fraction(0)),
                coeff=meta.get("coeff", Fraction(1)),
                name=current,
                expect=meta.get("expect"),
            )
        except ValueError as exc:  # a whole-graph rule: name the graph line
            raise bad(str(exc), header) from None
        fixtures[current] = Fixture(graph=graph, labels=dict(labels), ref=meta.get("ref", ""))
        current, vmap, kinds, edges, labels, meta = None, {}, {}, [], {}, {}

    def bad(why: str, line: tuple[int, str] | None = None) -> ValueError:
        number, text = line or (lineno, raw)
        return ValueError(f"fixture line {number}: {why}: {text!r}")

    def value(parse, text: str):
        try:
            return parse(text)
        except ZeroDivisionError:
            raise bad(f"zero denominator in {text!r}") from None
        except ValueError as exc:
            raise bad(f"bad field {text!r} ({exc})") from None

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head not in _ARITY:
            raise bad("unknown directive")
        if len(parts) < _ARITY[head]:
            raise bad(f"{head} needs {_ARITY[head] - 1} field(s)")
        if current is None and head != "graph":
            raise bad("directive before the first graph line")
        if head == "graph":
            flush()
            current, header = parts[1], (lineno, raw)
            if current in fixtures:
                raise bad(f"duplicate graph {current!r}")
        elif head == "ref":
            meta["ref"] = " ".join(parts[1:])
        elif head == "expect":
            meta["expect"] = parts[1]
        elif head in ("coeff", "prefactor"):
            meta[head] = value(Fraction, parts[1])
        elif head == "v":
            name, kind = parts[1], parts[2]
            if kind not in (ROOT, INT, NOISE):
                raise bad(f"unknown vertex kind {kind!r}")
            if name in vmap:
                raise bad(f"duplicate vertex {name!r}")
            vmap[name] = len(vmap)
            kinds[vmap[name]] = kind
        elif head == "e":
            tail, headv, tag = parts[1], parts[2], parts[3]
            for name in (tail, headv):
                if name not in vmap:
                    raise bad(f"undeclared vertex {name!r}")
            eps = Fraction(0)
            for extra in parts[4:]:
                if extra.startswith("eps="):
                    eps = value(Fraction, extra[4:])
            edges.append(Edge(vmap[tail], vmap[headv], value(parse_edge_type, tag), eps))
        elif head == "label":
            idx = value(int, parts[1])
            if not 0 <= idx < len(edges):
                raise bad(f"no edge {idx}")
            a = r = None
            for extra in parts[2:]:
                if extra.startswith("a="):
                    a = value(parse_ext, extra[2:])
                elif extra.startswith("r="):
                    r = value(int, extra[2:])
            if a is None or r is None:
                raise bad("label needs both a= and r=")
            labels[idx] = (a, r)
    flush()
    return fixtures


def load_file(name: str) -> dict[str, Fixture]:
    return parse_fixtures(_read_text(name))


def load_graph(spec: str) -> FeynmanGraph:
    """Load ``file:graph`` from the shipped fixtures."""
    fname, gname = spec.split(":")
    try:
        fixtures = load_file(fname)
    except FileNotFoundError:
        raise ValueError(f"no fixture file {fname!r}") from None
    if gname not in fixtures:
        raise ValueError(f"no graph {gname!r} in {fname}")
    return fixtures[gname].graph


@dataclass
class ManifestEntry:
    kind: str  # 'member' | 'family'
    source: str  # file:graph
    constraint: str = "all"

    def expand(self) -> list[FeynmanGraph]:
        graph = load_graph(self.source)
        if self.kind == "member":
            return [graph]
        return wick_pairings(graph, self.constraint)


def parse_manifest(text: str) -> list[ManifestEntry]:
    entries = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "list":
            continue
        if parts[0] == "member":
            entries.append(ManifestEntry("member", parts[1]))
        elif parts[0] == "family":
            entries.append(ManifestEntry("family", parts[1], parts[2]))
        else:
            raise ValueError(f"bad manifest line: {raw!r}")
    return entries


def load_manifest(name: str) -> list[ManifestEntry]:
    return parse_manifest(_read_text(name))


# The main corpus: every graph generated by squaring the stochastic graphs of
# the two four-noise trees (noise-free displays contribute themselves).
CORPUS_FILES = ("four_noise_a", "four_noise_b")


def classification_corpus() -> list[tuple[str, FeynmanGraph]]:
    out = []
    for fname in CORPUS_FILES:
        for gname, fixture in load_file(fname).items():
            graph = fixture.graph
            if graph.noise_vertices():
                for paired in wick_pairings(graph, "all"):
                    out.append((f"{fname}:{paired.name}", paired))
            else:
                out.append((f"{fname}:{gname}", graph))
    return out
