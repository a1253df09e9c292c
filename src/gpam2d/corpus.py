"""Loader for the line-oriented graph fixture files shipped with the package.

Grammar (one directive per line, ``#`` starts a comment)::

    graph <name>
    ref <free text>
    expect <verdict>
    coeff <rational>
    prefactor <rational>
    v <vertex-name> root|int|noise
    e <tail> <head> <TAG>[:j[,k]] [eps=<rational>]
    label <edge-index> a=<extrational> r=<int>

Vertex names are file-local; they are mapped to integer ids in declaration
order, and noise numbering is declaration order as well.  Every directive
belongs to the ``graph`` line above it, and a label names an edge declared
above it.  ``ref`` lines are free text the reader skips.  Any other line
with more fields than its directive takes, or with a ``key=`` field that
is not its directive's or comes twice, is rejected.

Class membership files are manifests over graph fixtures::

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

# Fewest and most fields after the directive; ``ref`` is free text.
_ARITY = {"graph": (1, 1), "ref": (0, None), "expect": (1, 1), "coeff": (1, 1),
          "prefactor": (1, 1), "v": (2, 2), "e": (3, 4), "label": (1, 3)}


@dataclass
class Fixture:
    graph: FeynmanGraph
    labels: dict[int, tuple[ExtRational, int]] = field(default_factory=dict)


def _read_text(name: str) -> str:
    return resources.files("gpam2d.fixtures").joinpath(f"{name}.txt").read_text()


def directives(text: str):
    """``(line number, raw line, fields)`` of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        if fields := raw.split("#", 1)[0].split():
            yield lineno, raw, fields


def _bad(line, why: str) -> ValueError:
    return ValueError(f"fixture line {line[0]}: {why}: {line[1]!r}")


def _value(line, parse, text: str):
    try:
        return parse(text)
    except ZeroDivisionError:
        raise _bad(line, f"zero denominator in {text!r}") from None
    except ValueError as exc:
        raise _bad(line, f"bad field {text!r} ({exc})") from None


def _keyed(line, fields, keys) -> dict[str, str]:
    """The ``key=value`` fields of a line: each key one of ``keys``, given once."""
    out = {}
    for text in fields:
        key, eq, value = text.partition("=")
        if not eq or key not in keys:
            raise _bad(line, f"unknown field {text!r}")
        if key in out:
            raise _bad(line, f"repeated field {key}=")
        out[key] = value
    return out


def parse_fixtures(text: str) -> dict[str, Fixture]:
    """Every graph of a fixture file, by name.

    Each line's directive and field count are checked first, in file order;
    then each graph is built from its block in file order, its lines' fields
    first and the whole-graph rules (named at the ``graph`` line) last.
    """
    blocks: dict[str, list] = {}
    for line in directives(text):
        _, _, (head, *fields) = line
        if head not in _ARITY:
            raise _bad(line, "unknown directive")
        fewest, most = _ARITY[head]
        if len(fields) < fewest:
            raise _bad(line, f"{head} needs {fewest} field(s)")
        if most is not None and len(fields) > most:
            raise _bad(line, f"{head} takes at most {most} field(s)")
        if head == "graph":
            if fields[0] in blocks:
                raise _bad(line, f"duplicate graph {fields[0]!r}")
            blocks[fields[0]] = block = [line]
        elif not blocks:
            raise _bad(line, "directive before the first graph line")
        else:
            block.append(line)
    return {name: _fixture(name, block) for name, block in blocks.items()}


def _fixture(name: str, block: list) -> Fixture:
    """One graph from its ``graph`` line and the lines below it; ``ref`` is skipped."""
    vmap: dict[str, int] = {}
    kinds: dict[int, str] = {}
    edges: list[Edge] = []
    labels: dict[int, tuple[ExtRational, int]] = {}
    meta: dict = {}
    for line in block[1:]:
        _, _, (head, *fields) = line
        if head == "expect":
            meta["expect"] = fields[0]
        elif head in ("coeff", "prefactor"):
            meta[head] = _value(line, Fraction, fields[0])
        elif head == "v":
            vname, kind = fields
            if kind not in (ROOT, INT, NOISE):
                raise _bad(line, f"unknown vertex kind {kind!r}")
            if vname in vmap:
                raise _bad(line, f"duplicate vertex {vname!r}")
            vmap[vname] = len(vmap)
            kinds[vmap[vname]] = kind
        elif head == "e":
            for vname in fields[:2]:
                if vname not in vmap:
                    raise _bad(line, f"undeclared vertex {vname!r}")
            eps = _value(line, Fraction, _keyed(line, fields[3:], ("eps",)).get("eps", "0"))
            edges.append(Edge(vmap[fields[0]], vmap[fields[1]],
                              _value(line, parse_edge_type, fields[2]), eps))
        elif head == "label":
            idx = _value(line, int, fields[0])
            if not 0 <= idx < len(edges):
                raise _bad(line, f"no edge {idx}")
            keyed = _keyed(line, fields[1:], ("a", "r"))
            if len(keyed) < 2:
                raise _bad(line, "label needs both a= and r=")
            labels[idx] = (_value(line, parse_ext, keyed["a"]), _value(line, int, keyed["r"]))
    try:
        graph = FeynmanGraph(kinds=kinds, edges=edges, name=name, **meta)
    except ValueError as exc:  # a whole-graph rule: name the graph line
        raise _bad(block[0], str(exc)) from None
    return Fixture(graph=graph, labels=labels)


def load_file(name: str) -> dict[str, Fixture]:
    return parse_fixtures(_read_text(name))


def load_graph(spec: str, files: dict | None = None) -> FeynmanGraph:
    """Load ``file:graph`` from the shipped fixtures.

    ``files`` (file name -> its fixtures) holds the files already parsed;
    a file parsed here is added to it.
    """
    fname, colon, gname = spec.partition(":")
    if not colon or ":" in gname:
        raise ValueError(f"graph spec {spec!r} is not of the form file:graph")
    files = {} if files is None else files
    if fname not in files:
        try:
            files[fname] = load_file(fname)
        except FileNotFoundError:
            raise ValueError(f"no fixture file {fname!r}") from None
    fixtures = files[fname]
    if gname not in fixtures:
        raise ValueError(f"no graph {gname!r} in {fname}")
    return fixtures[gname].graph


def load_manifest(name: str) -> list[FeynmanGraph]:
    """The graphs a shipped class manifest lists, in file order: each
    ``member`` itself, each ``family`` as its Wick pairings."""
    graphs, files = [], {}
    for lineno, raw, fields in directives(_read_text(name)):
        if fields[0] == "member" and len(fields) == 2:
            graphs.append(load_graph(fields[1], files))
        elif fields[0] == "family" and len(fields) == 3:
            graphs += wick_pairings(load_graph(fields[1], files), fields[2])
        elif fields[0] != "list" or len(fields) != 2:
            raise ValueError(f"bad manifest line {lineno}: {raw!r}")
    return graphs


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
