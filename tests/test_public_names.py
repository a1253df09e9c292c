"""Every public name of the package is used by the package, a demo or a benchmark.

A public top-level function or class that only tests call is code that no
pipeline, CLI command or demo runs.  The guard walks the syntax trees of the
package modules, the demos and the benchmark harness, and counts a name as
used where it appears as a name, an attribute, an imported name or a string
constant (the benchmark tracer wraps functions by name).  A definition's use
of its own name, as in recursion, does not count.
"""

import ast
from pathlib import Path

import gpam2d

PACKAGE = Path(gpam2d.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
READERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "benchmarks").glob("*.py"))]

# Names that only tests call, each with the reason it stays.
ALLOWED = {
    ("powercount", "labelled_from_fixture"):
        "the one reader of the fixture `label` lines, which pin hand-derived labellings",
}


def public_definitions(source: str) -> set[str]:
    """The public top-level functions and classes of a module."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def used_names(source: str) -> dict[str | None, set[str]]:
    """The names each top-level statement uses, keyed by the name it defines."""
    used: dict[str | None, set[str]] = {}
    for top in ast.parse(source).body:
        names = used.setdefault(getattr(top, "name", None), set())
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return used


def unused_definitions(modules: dict[str, str], readers: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each public definition in ``modules`` that no reader uses."""
    uses = {(path, owner): names for path, source in readers.items()
            for owner, names in used_names(source).items()}
    return {
        (module, name)
        for module, source in modules.items()
        for name in public_definitions(source)
        if not any(name in names for (path, owner), names in uses.items()
                   if (path, owner) != (module, name))
    }


def test_every_public_name_is_used():
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    readers = {path.stem if path.parent == PACKAGE else str(path): path.read_text()
               for path in READERS}
    assert unused_definitions(modules, readers) == set(ALLOWED)


def test_guard_sees_every_spelling():
    module = (
        "def called():\n    pass\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def imported():\n    pass\n"
        "def by_attribute():\n    pass\n"
        "def by_string():\n    pass\n"
        "class Unused:\n    pass\n"
        "def _private():\n    pass\n"
    )
    reader = (
        "from m import imported as alias\nimport m\n"
        "called()\nm.by_attribute()\ngetattr(m, 'by_string')\n"
    )
    got = unused_definitions({"m": module}, {"m": module, "reader": reader})
    assert got == {("m", "recursive"), ("m", "Unused")}
